"""The one-pass bundle build against a test-local copy of the multi-pass
build it replaced.

complete_verifier reads each core row once: it normalizes the row,
resolves its targets' head directions and counts it against its source
state, and the guards come from those counts.  VerifierSpec reads each
row once: it validates the row and builds its live_moves row.
_multi_pass_build below builds the same verifier the earlier way:
normalize every row, then resolve every direction, then scan every
(live state, comm, symbol) slot for a hole, then validate every row,
then build every live row, and compute the per-symbol defects with the
dict Gram.  Both builds must give the same tables, guards and defects,
and raise the same exception with the same message on a corrupted table.
"""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qipsim import automata, specfile, zoo
from qipsim.automata import (
    BLANK, LEFT_END, RIGHT_END, VerifierSpec, WellformedReport,
    complete_verifier,
)
from qipsim.cli import resolve_spec
from qipsim.errors import LinalgError, ValidationError
from qipsim.linalg import ensure_finite
from qipsim.zoo import make_bundle
from strategies import SYMBOLS, core_tables
from test_linalg import _dict_gram_defect

SHIPPED = [
    "zero", "odd", "center", "equal_blocks", "rfa_parity", "rfa_mod3",
    "npfa_coin", "npfa_branch", "toy_explicit",
]


# -- the multi-pass build -----------------------------------------------------


def _target_dirs(row_targets, head_dir, two_way):
    resolved = {}
    for targets in row_targets:
        for _, state, comm in targets:
            if (state, comm) in resolved:
                continue
            if (state, comm) in head_dir:
                resolved[state, comm] = head_dir[state, comm]
            elif state in head_dir:
                resolved[state, comm] = head_dir[state]
            elif two_way:
                raise ValidationError(
                    "no head direction given for target (%r, %r)"
                    % (state, comm))
            else:
                resolved[state, comm] = 1
    return resolved


def _multi_pass_build(name, input_alphabet, comm_alphabet, non_halting,
                      accepting, rejecting, initial, two_way, core_rows,
                      head_dir, metadata=None, tau=1e-9):
    """The verifier's tables, guards and defects as a dict, built the
    multi-pass way; raises as that build raised."""
    comm_alphabet = tuple(comm_alphabet)
    non_halting = tuple(non_halting)
    accepting = tuple(accepting)
    rejecting = list(rejecting)
    state_set = set(non_halting) | set(accepting) | set(rejecting)
    padded = (LEFT_END,) + tuple(input_alphabet) + (RIGHT_END,)
    for sym in core_rows:
        if sym not in padded:
            raise ValidationError(
                "transition table for unknown symbol %r" % (sym,))
    rows = {sym: {} for sym in padded}

    def normalized():
        for sym in padded:
            for key, targets in core_rows.get(sym, {}).items():
                rows[sym][key] = tuple(
                    (ensure_finite(amp), q2, g2) for amp, q2, g2 in targets)
                yield rows[sym][key]

    resolved_dir = _target_dirs(normalized(), head_dir, two_way)
    guards = {}
    for q in non_halting:
        if all((q, g) in rows[sym] for g in comm_alphabet for sym in padded):
            continue
        fresh = "rej~%s" % (q,)
        while fresh in state_set:
            fresh += "'"
        state_set.add(fresh)
        rejecting.append(fresh)
        guards[q] = fresh
    meta = dict(metadata or {})
    meta.setdefault("guard_states", len(guards))
    built = _multi_pass_spec(
        input_alphabet=tuple(input_alphabet), comm_alphabet=comm_alphabet,
        non_halting=non_halting, accepting=accepting,
        rejecting=tuple(rejecting), initial=initial, two_way=bool(two_way),
        rows=rows, head_dir=resolved_dir, metadata=meta, guards=guards)
    report = WellformedReport(ok=all(d <= tau
                                     for d in built["defects"].values()),
                              per_symbol=built["defects"], tau=tau)
    if not report.ok:
        raise ValidationError(
            "table completion failed unitarity: %s" % report.summary())
    return built


def _multi_pass_spec(input_alphabet, comm_alphabet, non_halting, accepting,
                     rejecting, initial, two_way, rows, head_dir,
                     metadata=None, guards=None):
    """VerifierSpec's tables the multi-pass way: validate every row,
    then build every live row, then the per-symbol defects."""
    seen = set()
    for group in (non_halting, accepting, rejecting):
        for q in group:
            if q in seen:
                raise ValidationError("state %r declared twice" % (q,))
            seen.add(q)
    if initial not in set(non_halting):
        raise ValidationError(
            "initial state %r is not a live state" % (initial,))
    if BLANK not in comm_alphabet:
        raise ValidationError("comm alphabet must contain the blank %r"
                              % BLANK)
    if len(set(comm_alphabet)) != len(comm_alphabet):
        raise ValidationError("duplicate comm symbols")
    for sym in input_alphabet:
        if not isinstance(sym, str) or len(sym) != 1:
            raise ValidationError(
                "input symbol %r is not a single character" % (sym,))
    if len(set(input_alphabet)) != len(input_alphabet):
        raise ValidationError("duplicate input symbols")
    for sym in (LEFT_END, RIGHT_END):
        if sym in input_alphabet:
            raise ValidationError(
                "input alphabet may not contain endmarker %r" % sym)
    comm_set = set(comm_alphabet)
    padded = (LEFT_END,) + tuple(input_alphabet) + (RIGHT_END,)
    targeted = set()
    for sym, table in rows.items():
        if sym not in set(padded):
            raise ValidationError(
                "transition table for unknown symbol %r" % sym)
        for (q, g), targets in table.items():
            if q not in seen or g not in comm_set:
                raise ValidationError(
                    "transition source (%r, %r) references unknown ids"
                    % (q, g))
            for amp, q2, g2 in targets:
                targeted.add(q2)
                ensure_finite(amp, "amplitude at (%r, %r, %r)" % (sym, q, g))
                if q2 not in seen or g2 not in comm_set:
                    raise ValidationError(
                        "transition target (%r, %r) references unknown ids"
                        % (q2, g2))
                if (q2, g2) not in head_dir:
                    raise ValidationError(
                        "no head direction for target (%r, %r)" % (q2, g2))
    live = set(non_halting)
    for q, guard in (guards or {}).items():
        if q not in live:
            raise ValidationError("guard key %r is not a live state" % (q,))
        if guard not in set(rejecting):
            raise ValidationError(
                "guard state %r of %r is not a declared rejecting state"
                % (guard, q))
        if guard in targeted:
            raise ValidationError(
                "guard state %r of %r is the target of a stored row"
                % (guard, q))
    if len(set((guards or {}).values())) != len(guards or {}):
        raise ValidationError("two live states share one guard state")
    if "suggested_max_steps" in (metadata or {}):
        hint = metadata["suggested_max_steps"]
        if not automata._is_step_budget(hint):
            raise ValidationError(
                "metadata suggested_max_steps must be an integer >= 1 or "
                "{\"per_cell\": a, \"base\": b} with integers a, b >= 0, "
                "not both 0; got %r" % (hint,))
    for pair, d in head_dir.items():
        if two_way:
            if d not in (-1, 0, 1):
                raise ValidationError(
                    "head direction %r out of range at %r" % (d, pair))
        elif d != 1:
            raise ValidationError(
                "one-way verifier must move right; got %r at %r" % (d, pair))
    live_moves = {
        sym: {key: tuple([(amp, q2, g2, head_dir[q2, g2])
                          for amp, q2, g2 in targets])
              for key, targets in rows.get(sym, {}).items()}
        for sym in padded
    }
    return {"rows": rows, "head_dir": head_dir, "guards": guards,
            "rejecting": tuple(rejecting), "live_moves": live_moves,
            "guard_states": (metadata or {}).get("guard_states"),
            "defects": _dict_gram_defects(
                live_moves, non_halting + accepting + rejecting,
                comm_alphabet, non_halting, guards)}


def _dict_gram_defects(live_moves, states, comm_alphabet, non_halting,
                       guards):
    """per_symbol_defects with a per-key sort function and the dict
    Gram."""
    state_pos = {q: i for i, q in enumerate(states)}
    comm_pos = {g: i for i, g in enumerate(comm_alphabet)}
    width = len(comm_pos)

    def index(q, g):
        return state_pos[q] * width + comm_pos[g]

    unguarded = [(q, g) for q in non_halting
                 if q not in (guards or {}) for g in comm_alphabet]
    defects = {}
    for sym, table in live_moves.items():
        if len(table) != len(state_pos) * width and (
                guards is None or any(p not in table for p in unguarded)):
            defects[sym] = float("inf")
            continue
        keys = sorted(table, key=lambda pair: index(*pair))
        defects[sym] = _dict_gram_defect(
            [(index(q2, g2), j, amp) for j, key in enumerate(keys)
             for amp, q2, g2, _d in table[key]], len(keys))
    return defects


# -- comparing the two builds -------------------------------------------------


def _built(v):
    """The one-pass verifier's fields in _multi_pass_build's form."""
    return {"rows": v.rows, "head_dir": v.head_dir, "guards": v.guards,
            "rejecting": v.rejecting,
            "live_moves": {sym: dict(t) for sym, t in v.live_moves.items()},
            "guard_states": v.metadata.get("guard_states"),
            "defects": v.per_symbol_defects}


def _outcome(build, kwargs):
    """(fields, None) from a build, or (None, (exception type, message))."""
    try:
        built = build(**kwargs)
    except Exception as exc:  # each build's error is compared, whatever it is
        return None, (type(exc), str(exc))
    return (_built(built) if isinstance(built, VerifierSpec) else built), None


def _assert_same_build(kwargs):
    want, want_error = _outcome(_multi_pass_build, kwargs)
    got, got_error = _outcome(complete_verifier, kwargs)
    assert got_error == want_error
    if want is None:
        return
    for key in ("rows", "head_dir", "guards", "rejecting", "live_moves",
                "guard_states", "defects"):
        assert repr(got[key]) == repr(want[key]), key


@settings(max_examples=80, deadline=None)
@given(core_tables(max_width=3, splits=(0.5, 0.25)))
def test_one_pass_build_equals_the_multi_pass_build(kwargs):
    _assert_same_build(kwargs)


def _first_row(kwargs):
    for sym in SYMBOLS:
        for key, targets in kwargs["core_rows"][sym].items():
            return sym, key, targets
    return None


@st.composite
def corrupted_tables(draw):
    """core_tables keyword arguments with one fault or name clash."""
    kwargs = draw(core_tables(max_width=3))
    rows = {sym: dict(table) for sym, table in kwargs["core_rows"].items()}
    kwargs["core_rows"] = rows
    fault = draw(st.sampled_from((
        "non-finite", "no-direction", "unknown-target", "unknown-comm",
        "unknown-source", "unknown-symbol", "guard-name-clash",
        "duplicate-state", "bad-direction", "late-non-finite")))
    first = _first_row(kwargs)
    if fault == "guard-name-clash":
        kwargs["rejecting"] += ("rej~q0", "rej~q0'", "rej~q1")
    elif fault == "duplicate-state":
        kwargs["non_halting"] += kwargs["non_halting"][:1]
    elif fault == "unknown-symbol":
        rows["2"] = {("q0", BLANK): ((1.0, "acc", BLANK),)}
    elif fault == "unknown-source":
        rows[draw(st.sampled_from(SYMBOLS))]["ghost", BLANK] = (
            (1.0, "acc", BLANK),)
    elif fault == "bad-direction":
        kwargs["head_dir"] = dict(kwargs["head_dir"], q0=2)
    elif first is not None:
        sym, key, targets = first
        amp, q2, g2 = targets[0]
        if fault in ("non-finite", "late-non-finite"):
            amp = draw(st.sampled_from((math.inf, math.nan,
                                        complex(0.0, -math.inf))))
            if fault == "late-non-finite":
                # a later row's fault, behind the first row's
                sym = RIGHT_END
                key = draw(st.sampled_from(sorted(rows[sym]) or [key]))
                targets = rows[sym].get(key, targets)
                q2, g2 = targets[0][1:]
        elif fault == "no-direction":
            kwargs["two_way"] = True
            kwargs["head_dir"] = {q: d for q, d in kwargs["head_dir"].items()
                                  if q != q2}
        elif fault == "unknown-target":
            q2 = "ghost"
        elif fault == "unknown-comm":
            g2 = "zz"
        rows[sym][key] = ((amp, q2, g2),) + tuple(targets[1:])
    return kwargs


@settings(max_examples=150, deadline=None)
@given(corrupted_tables())
def test_one_pass_build_raises_as_the_multi_pass_build(kwargs):
    _assert_same_build(kwargs)


@pytest.mark.parametrize("amp, first, error, message", [
    (1.0, "q1", ValidationError,
     "no head direction given for target ('q1', '#')"),
    (1.0, "q0", LinalgError, "non-finite amplitude: inf"),
    # within one row, the amplitudes are normalized before the
    # directions are resolved
    (math.nan, "q1", LinalgError, "non-finite amplitude: nan"),
])
def test_the_first_rows_fault_is_raised_first(amp, first, error, message):
    rows = {LEFT_END: {("q0", BLANK): ((amp, first, BLANK),)},
            RIGHT_END: {("q0", BLANK): ((float("inf"), "acc", BLANK),)}}
    kwargs = dict(
        name="faults", input_alphabet=("0",), comm_alphabet=(BLANK,),
        non_halting=("q0", "q1"), accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=True, core_rows=rows,
        head_dir={"q0": 1, "acc": 0, "rej": 0})
    _assert_same_build(kwargs)
    with pytest.raises(error, match=re.escape(message)):
        complete_verifier(**kwargs)


def _recorded_builds(monkeypatch, make):
    """The keyword arguments of every complete_verifier call make makes."""
    calls = []

    def record(**kwargs):
        calls.append(kwargs)
        return complete_verifier(**kwargs)

    monkeypatch.setattr(zoo, "complete_verifier", record)
    monkeypatch.setattr(specfile, "complete_verifier", record)
    make()
    return calls


@pytest.mark.parametrize("make", [
    *[lambda token=token: resolve_spec(token).make() for token in SHIPPED],
    *[lambda n=n: make_bundle("center", {"branches": n})
      for n in (2, 3, 4, 8, 16)],
    *[lambda n=n: make_bundle("equal_blocks", {"branches": n})
      for n in (2, 3, 4)],
], ids=SHIPPED + ["center-N%d" % n for n in (2, 3, 4, 8, 16)]
    + ["equal_blocks-N%d" % n for n in (2, 3, 4)])
def test_shipped_bundles_build_as_the_multi_pass_build(make, monkeypatch):
    calls = _recorded_builds(monkeypatch, make)
    assert calls
    for kwargs in calls:
        _assert_same_build(kwargs)


_PLAIN = dict(
    input_alphabet=("0",), comm_alphabet=(BLANK, "a"),
    non_halting=("q0", "q1"), accepting=("acc",),
    rejecting=("rej", "g0", "g1"), initial="q0", two_way=False,
    rows={"0": {("q0", BLANK): ((1.0, "rej", BLANK),)}},
    head_dir={("rej", BLANK): 1},
)


@pytest.mark.parametrize("change", [
    {}, {"guards": {"q0": "g0", "q1": "g1"}},
    {"guards": {"acc": "g0"}}, {"guards": {"q0": "nowhere"}},
    {"guards": {"q0": "rej"}}, {"guards": {"q0": "g0", "q1": "g0"}},
    {"rows": {"0": {("q0", BLANK): ((1, "rej", BLANK),)}}},
    {"rows": {"0": {("q0", BLANK): ((math.nan, "rej", BLANK),)}}},
    {"rows": {"0": {("q0", BLANK): ((complex(1, math.inf), "rej", BLANK),)}}},
    {"rows": {"0": {("q0", BLANK): ((1.0, "rej", "a"),)}}},
    {"rows": {"0": {("q0", "zz"): ((1.0, "rej", BLANK),)}}},
    {"rows": {"0": {("q0", BLANK): ((1.0, "nowhere", BLANK),)}}},
    {"rows": {"7": {}}},
    {"head_dir": {("rej", BLANK): 0}},
    {"two_way": True, "head_dir": {("rej", BLANK): 2}},
    {"metadata": {"suggested_max_steps": 0}},
])
def test_verifier_spec_validates_as_the_multi_pass_build(change):
    kwargs = dict(_PLAIN, **change)
    want, want_error = _outcome(_multi_pass_spec, kwargs)
    got, got_error = _outcome(VerifierSpec, dict(kwargs, name="plain"))
    assert got_error == want_error
    if want is not None:
        for key in ("rows", "head_dir", "guards", "live_moves", "defects"):
            assert repr(got[key]) == repr(want[key]), key
