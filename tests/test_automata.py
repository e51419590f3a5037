"""Unit tests for verifier tables and the classical automaton runners."""

import itertools
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qipsim import automata
from qipsim.automata import (
    BLANK,
    CORE,
    GUARD,
    LEFT_END,
    RIGHT_END,
    OneRfaSpec,
    TwoNpfaSpec,
    VerifierSpec,
    build_step_operator,
    complete_verifier,
    first_option_chooser,
    padded_input,
    public_symbol,
    run_1rfa,
    run_2npfa,
    validate_1rfa_reversible,
    validate_2npfa_normalized,
    validate_public,
    validate_wellformed,
)
from qipsim.cli import resolve_spec
from qipsim.errors import EngineError, LinalgError, ValidationError
from qipsim.linalg import isometry_defect
from qipsim.zoo import make_bundle
from strategies import core_tables


def test_padded_input_wraps_with_endmarkers():
    assert padded_input("01") == (LEFT_END, "0", "1", RIGHT_END)
    assert padded_input("") == (LEFT_END, RIGHT_END)


def test_padded_input_rejects_foreign_symbols():
    with pytest.raises(EngineError):
        padded_input("02", input_alphabet=("0", "1"))


def tiny_accept_all():
    """One live state that rides to the right endmarker and accepts."""
    rows = {
        sym: {("q0", BLANK): ((1.0, "q0", BLANK),)}
        for sym in (LEFT_END, "0", "1")
    }
    rows[RIGHT_END] = {("q0", BLANK): ((1.0, "acc", BLANK),)}
    return complete_verifier(
        name="tiny", input_alphabet=("0", "1"), comm_alphabet=(BLANK,),
        non_halting=("q0",), accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=False, core_rows=rows, head_dir={},
    )


@pytest.mark.parametrize("first, error, message", [
    ("q1", ValidationError, "no head direction given for target ('q1', '#')"),
    ("q0", LinalgError, "non-finite amplitude: inf"),
])
def test_complete_verifier_names_the_earlier_rows_fault(first, error,
                                                         message):
    # the '^' row targets `first`, and q1 has no head direction; the later
    # '$' row has an infinite amplitude.  A spec document cannot carry the
    # second fault: its parse refuses non-finite amplitudes
    rows = {LEFT_END: {("q0", BLANK): ((1.0, first, BLANK),)},
            RIGHT_END: {("q0", BLANK): ((float("inf"), "acc", BLANK),)}}
    with pytest.raises(error, match=re.escape(message)):
        complete_verifier(
            name="faults", input_alphabet=("0",), comm_alphabet=(BLANK,),
            non_halting=("q0", "q1"), accepting=("acc",),
            rejecting=("rej",), initial="q0", two_way=True, core_rows=rows,
            head_dir={"q0": 1, "acc": 0, "rej": 0})


def test_complete_verifier_produces_wellformed_table():
    v = tiny_accept_all()
    report = validate_wellformed(v, inputs=["", "0", "01"])
    assert report.ok
    assert report.worst <= 1e-12


def _class_of(verifier, sym, key):
    """The class of verifier's row key on sym; a row with no class is core."""
    return verifier.row_class.get(sym, {}).get(key, CORE)


def test_complete_verifier_row_classes():
    v = tiny_accept_all()
    full = v.completed
    assert _class_of(full, "0", ("q0", BLANK)) == CORE
    assert [cls for *_, cls in v.live_rows()] == [CORE] * 4
    for sym, table in full.rows.items():
        for (q, g), targets in table.items():
            if _class_of(full, sym, (q, g)) == GUARD:
                assert len(targets) == 1
                assert v.is_rejecting(targets[0][1])


def _built_defect(verifier, x):
    """isometry_defect of the step operator build_step_operator builds."""
    entries, basis = build_step_operator(verifier, x)
    return isometry_defect(entries, len(basis))


def test_step_operator_is_unitary_dense():
    v = tiny_accept_all()
    entries, labels = build_step_operator(v, "01")
    assert all(0 <= row < len(labels) and 0 <= col < len(labels)
               for row, col, _amp in entries)
    assert _built_defect(v, "01") <= 1e-12


def test_verifier_spec_structure_errors():
    base = dict(
        name="bad", input_alphabet=("0",), comm_alphabet=(BLANK,),
        non_halting=("q0",), accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=False, rows={}, head_dir={},
    )
    with pytest.raises(ValidationError):
        VerifierSpec(**{**base, "accepting": ("q0",)})
    with pytest.raises(ValidationError):
        VerifierSpec(**{**base, "initial": "acc"})
    with pytest.raises(ValidationError):
        VerifierSpec(**{**base, "comm_alphabet": ("a",)})
    with pytest.raises(ValidationError):
        VerifierSpec(**{**base, "input_alphabet": (LEFT_END,)})
    rows = {"0": {("q0", BLANK): ((1.0, "q0", BLANK),)}}
    with pytest.raises(ValidationError):
        VerifierSpec(**{**base, "rows": rows})  # no head direction
    with pytest.raises(ValidationError):
        VerifierSpec(**{
            **base, "rows": rows,
            "head_dir": {("q0", BLANK): -1},  # one-way must move right
        })


def test_wellformed_flags_norm_violation():
    rows = {"0": {("q0", BLANK): ((0.5, "q0", BLANK),)}}
    v = VerifierSpec(
        name="lossy", input_alphabet=("0",), comm_alphabet=(BLANK,),
        non_halting=("q0",), accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=False, rows=rows,
        head_dir={("q0", BLANK): 1},
    )
    report = validate_wellformed(v)
    assert not report.ok
    assert report.worst > 1e-9


def test_wellformed_missing_row_reports_infinite_defect(monkeypatch):
    v = VerifierSpec(
        name="gappy", input_alphabet=("0",), comm_alphabet=(BLANK,),
        non_halting=("q0",), accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=False, rows={}, head_dir={},
    )
    report = validate_wellformed(v)
    assert not report.ok
    assert report.worst == float("inf")
    # an input whose tape scans an incomplete table is inf as well, and
    # its step operator is not built
    built = []
    monkeypatch.setattr(automata, "build_step_operator",
                        lambda *args: built.append(args))
    report = validate_wellformed(v, inputs=["", "0"])
    assert report.per_input == {"": float("inf"), "0": float("inf")}
    assert built == []


def test_move_tables_attach_head_directions():
    rows = {
        sym: {("q0", BLANK): ((1.0, "q0", BLANK),)}
        for sym in (LEFT_END, "0")
    }
    rows[RIGHT_END] = {("q0", BLANK): ((1.0, "acc", BLANK),)}
    v = complete_verifier(
        name="dirs", input_alphabet=("0", "1"), comm_alphabet=(BLANK,),
        non_halting=("q0",), accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=True, core_rows=rows,
        head_dir={"q0": -1, "acc": 0, "rej": 0},
    )
    moves = v.completed.live_moves
    assert set(moves) == set(v.padded_alphabet)
    assert moves["0"]["q0", BLANK] == ((1.0, "q0", BLANK, -1),)
    assert moves[RIGHT_END]["q0", BLANK] == ((1.0, "acc", BLANK, 0),)
    gappy = VerifierSpec(
        name="gappy", input_alphabet=("0",), comm_alphabet=(BLANK,),
        non_halting=("q0",), accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=False, rows={}, head_dir={},
    )
    with pytest.raises(ValidationError, match=(
            r"incomplete table: no row for \('q0', '#'\) on '0'")):
        gappy.completed.live_moves["0"]["q0", BLANK]


def test_public_symbol_format():
    one_way = tiny_accept_all()
    assert public_symbol(one_way, "q0") == "q0"
    rows = {
        sym: {("q0", BLANK): ((1.0, "q0", BLANK),)}
        for sym in (LEFT_END, "0", "1")
    }
    rows[RIGHT_END] = {("q0", BLANK): ((1.0, "acc", BLANK),)}
    two_way = complete_verifier(
        name="tiny2", input_alphabet=("0", "1"), comm_alphabet=(BLANK,),
        non_halting=("q0",), accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=True, core_rows=rows,
        head_dir={"q0": 1, "acc": 0, "rej": 0},
    )
    assert public_symbol(two_way, "q0", BLANK) == "q0|+1"
    with pytest.raises(ValidationError):
        public_symbol(two_way, "q0", "missing")


def test_validate_public_detects_silent_rows():
    v = tiny_accept_all()  # echoes blanks, never announces itself
    report = validate_public(v)
    assert not report.ok
    assert report.violations


def _guard_targets(verifier):
    """{live state: {guard target states}} over every guard row of the
    completed verifier."""
    full = verifier.completed
    out = {}
    for sym, table in full.rows.items():
        for (q, g), targets in table.items():
            if _class_of(full, sym, (q, g)) == GUARD:
                assert len(targets) == 1
                amp, q2, g2 = targets[0]
                assert (amp, g2) == (1.0, g)
                out.setdefault(q, set()).add(q2)
    return out


def test_guard_rows_share_one_rejecting_state_per_live_state():
    rows = {
        sym: {("q0", BLANK): ((1.0, "q0", BLANK),)}
        for sym in (LEFT_END, "0", "1")
    }
    rows[RIGHT_END] = {("q0", BLANK): ((1.0, "acc", BLANK),)}
    v = complete_verifier(
        name="guarded", input_alphabet=("0", "1"),
        comm_alphabet=(BLANK, "a", "b"), non_halting=("q0", "q1"),
        accepting=("acc",), rejecting=("rej~q0",), initial="q0",
        two_way=False, core_rows=rows, head_dir={},
    )
    # the declared "rej~q0" forces a primed name for q0's guard state
    assert _guard_targets(v) == {"q0": {"rej~q0'"}, "q1": {"rej~q1"}}
    assert v.rejecting == ("rej~q0", "rej~q0'", "rej~q1")
    assert v.metadata["guard_states"] == 2
    for g in ("a", "b"):
        assert v.completed.rows["0"]["q0", g] == ((1.0, "rej~q0'", g),)


@settings(max_examples=60, deadline=None)
@given(core_tables())
def test_completion_property_on_random_core_tables(kwargs):
    v = complete_verifier(**kwargs)
    guards = _guard_targets(v)
    guard_states = set().union(*guards.values()) if guards else set()
    for q, targets in guards.items():
        assert len(targets) == 1
        assert all(v.is_rejecting(q2) for q2 in targets)
    assert len(guard_states) == len(guards) <= len(v.non_halting)
    assert guard_states.isdisjoint(kwargs["rejecting"])
    assert v.metadata["guard_states"] == len(guard_states)
    inputs = ["".join(w) for n in range(3)
              for w in itertools.product("01", repeat=n)]
    assert validate_wellformed(v, inputs=inputs).ok


@settings(max_examples=40, deadline=None)
@given(core_tables(), st.data())
def test_per_symbol_unitarity_decides_step_unitarity(kwargs, data):
    v = complete_verifier(**kwargs)
    inputs = ["".join(w) for n in range(3)
              for w in itertools.product("01", repeat=n)]
    report = validate_wellformed(v, inputs=inputs)
    assert max(report.per_symbol.values()) <= report.tau
    assert max(report.per_input.values()) <= report.tau
    # one row scaled by 1.5 breaks its symbol's table and exactly the
    # step operators of the inputs whose tape carries that symbol
    full = v.completed
    sym = data.draw(st.sampled_from(v.padded_alphabet))
    key = data.draw(st.sampled_from(sorted(full.rows[sym])))
    rows = {s: dict(table) for s, table in full.rows.items()}
    rows[sym][key] = tuple((1.5 * amp, q2, g2)
                           for amp, q2, g2 in rows[sym][key])
    scaled = VerifierSpec(
        name="scaled", input_alphabet=v.input_alphabet,
        comm_alphabet=v.comm_alphabet, non_halting=v.non_halting,
        accepting=v.accepting, rejecting=v.rejecting, initial=v.initial,
        two_way=v.two_way, rows=rows, head_dir=full.head_dir,
        row_class=full.row_class,
    )
    bad = validate_wellformed(scaled, inputs=inputs)
    assert not bad.ok
    for s, defect in bad.per_symbol.items():
        assert (defect > bad.tau) == (s == sym)
    for x, defect in bad.per_input.items():
        assert (defect > bad.tau) == (sym in padded_input(x))


@settings(max_examples=60, deadline=None)
@given(core_tables(splits=(0.1, 0.5)), st.data())
def test_derived_step_defects_match_built_step_operators(kwargs, data):
    # at times one authored row is scaled by 1.5, so that both verdicts
    # occur; tau=inf lets complete_verifier accept the broken table
    authored = [(sym, key) for sym, table in kwargs["core_rows"].items()
                for key in table]
    if authored and data.draw(st.booleans()):
        sym, key = data.draw(st.sampled_from(authored))
        table = dict(kwargs["core_rows"][sym])
        table[key] = tuple((1.5 * amp, q2, g2) for amp, q2, g2 in table[key])
        kwargs = {**kwargs, "core_rows": {**kwargs["core_rows"], sym: table}}
    v = complete_verifier(**kwargs, tau=float("inf"))
    inputs = ["".join(w) for n in range(3)
              for w in itertools.product("01", repeat=n)]
    live = validate_wellformed(v, inputs=inputs)
    full = validate_wellformed(v.completed, inputs=inputs)
    tau = live.tau
    assert live.ok == full.ok
    for sym in v.padded_alphabet:
        assert (live.per_symbol[sym] <= tau) == (full.per_symbol[sym] <= tau)
    for x in inputs:
        built = _built_defect(v, x)
        # the derivation is exact on the full table; the live columns
        # leave out the completion columns and their own rounding
        assert full.per_input[x] == built
        assert (live.per_input[x] <= tau) == (built <= tau)
        assert live.per_input[x] == pytest.approx(built, rel=1e-9, abs=1e-12)


SHIPPED = sorted(
    p.name[:-len(".spec")]
    for p in resources.files("qipsim").joinpath("specs").iterdir()
    if p.name.endswith(".spec"))


@pytest.mark.parametrize("token", SHIPPED)
def test_shipped_derived_step_defects_equal_built_step_operators(token):
    v = resolve_spec(token).make().verifier
    inputs = ["".join(w) for n in range(5)
              for w in itertools.product(v.input_alphabet, repeat=n)]
    report = validate_wellformed(v, inputs=inputs)
    full = validate_wellformed(v.completed)
    assert report.ok == full.ok
    for x in inputs:
        assert report.per_input[x] == _built_defect(v, x)


def test_live_column_check_needs_the_rows_completion_cannot_supply():
    base = dict(
        name="partial", input_alphabet=(), comm_alphabet=(BLANK,),
        non_halting=("q0",), accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=False, head_dir={("acc", BLANK): 1},
        rows={sym: {("q0", BLANK): ((1.0, "acc", BLANK),)}
              for sym in (LEFT_END, RIGHT_END)},
    )
    # only halting-source rows are missing: completion supplies them
    partial = VerifierSpec(**base, guards={})
    assert validate_wellformed(partial, inputs=[""]).ok
    assert len(partial.completed.rows[LEFT_END]) == len(partial.states)
    # a plain verifier is not completable: the same table is incomplete
    plain = VerifierSpec(**base)
    report = validate_wellformed(plain, inputs=[""])
    assert report.per_input == {"": float("inf")}
    with pytest.raises(ValidationError, match="incomplete table"):
        build_step_operator(plain, "")
    # a missing live row is inf even when completable
    rows = {LEFT_END: base["rows"][LEFT_END], RIGHT_END: {}}
    gappy = VerifierSpec(**{**base, "rows": rows}, guards={})
    assert validate_wellformed(gappy).per_symbol == {
        LEFT_END: 0.0, RIGHT_END: float("inf")}


def _pair_index(v):
    """{(state, comm): index} in states x comm_alphabet order."""
    return {pair: i for i, pair in enumerate(
        itertools.product(v.states, v.comm_alphabet))}


def _assert_guard_rows_are_implied(v, core_keys=None):
    """The live tables hold the core rows only; every other live-source
    lookup returns the completed verifier's guard row; and the per-symbol
    defect is the Gram defect of the completed core and guard columns."""
    if v.guards is None:
        # a plain verifier is its own completion
        assert v.completed is v
        return
    completed = v.completed
    stored = {(sym, key) for sym, table in v.live_moves.items()
              for key in table}
    full_core = {(sym, key) for sym, table in completed.rows.items()
                 for key in table if _class_of(completed, sym, key) == CORE}
    assert stored == full_core
    index = _pair_index(v)
    if core_keys is not None:
        assert stored == core_keys
    for sym in v.padded_alphabet:
        live, full = v.live_moves[sym], completed.live_moves[sym]
        for q in v.guards:
            for g in v.comm_alphabet:
                if (q, g) not in live:
                    assert live[q, g] == full[q, g]
                    assert _class_of(completed, sym, (q, g)) == GUARD
        keys = [p for p in index if p in full
                and _class_of(completed, sym, p) in (CORE, GUARD)]
        want = isometry_defect(
            [(index[q2, g2], j, amp) for j, key in enumerate(keys)
             for amp, q2, g2, _d in full[key]], len(keys))
        assert v.per_symbol_defects[sym] == want


@settings(max_examples=60, deadline=None)
@given(core_tables())
def test_live_tables_hold_only_core_rows_on_random_core_tables(kwargs):
    v = complete_verifier(**kwargs)
    _assert_guard_rows_are_implied(v, {
        (sym, key) for sym, table in kwargs["core_rows"].items()
        for key in table})


@pytest.mark.parametrize("token", SHIPPED)
def test_shipped_live_tables_hold_only_core_rows(token):
    _assert_guard_rows_are_implied(resolve_spec(token).make().verifier)


def test_equal_blocks_live_tables_hold_its_core_rows():
    v = make_bundle("equal_blocks", {"branches": 8}).verifier
    assert sum(len(table) for table in v.live_moves.values()) == 104
    assert sum(cls == CORE for *_, cls in v.live_rows()) == 104


@pytest.mark.parametrize("guards, message", [
    ({"acc": "g0"}, "guard key 'acc' is not a live state"),
    ({"nowhere": "g0"}, "guard key 'nowhere' is not a live state"),
    ({"q0": "nowhere"}, "'nowhere' of 'q0' is not a declared rejecting"),
    ({"q0": "acc"}, "'acc' of 'q0' is not a declared rejecting"),
    ({"q0": "rej"}, "'rej' of 'q0' is the target of a stored row"),
    ({"q0": "g0", "q1": "g0"}, "two live states share one guard state"),
])
def test_verifier_spec_refuses_malformed_guard_maps(guards, message):
    base = dict(
        name="guarded", input_alphabet=("0",), comm_alphabet=(BLANK, "a"),
        non_halting=("q0", "q1"), accepting=("acc",),
        rejecting=("rej", "g0", "g1"), initial="q0", two_way=False,
        rows={"0": {("q0", BLANK): ((1.0, "rej", BLANK),)}},
        head_dir={("rej", BLANK): 1},
    )
    ok = VerifierSpec(**base, guards={"q0": "g0", "q1": "g1"})
    assert ok.live_moves["0"]["q1", "a"] == ((1.0, "g1", "a", 1),)
    with pytest.raises(ValidationError, match="incomplete table"):
        ok.live_moves["0"]["q1", "zzz"]
    with pytest.raises(ValidationError, match=message):
        VerifierSpec(**base, guards=guards)


@pytest.mark.parametrize("change, message", [
    ({"comm_alphabet": (BLANK, "a", "a")}, "duplicate comm symbols"),
    ({"rows": {"9": {}}}, "transition table for unknown symbol '9'"),
    ({"rows": {"0": {("q9", BLANK): ((1.0, "rej", BLANK),)}}},
     "transition source ('q9', '#') references unknown ids"),
    ({"rows": {"0": {("q0", "z"): ((1.0, "rej", BLANK),)}}},
     "transition source ('q0', 'z') references unknown ids"),
    ({"rows": {"0": {("q0", BLANK): ((1.0, "q9", BLANK),)}}},
     "transition target ('q9', '#') references unknown ids"),
    ({"rows": {"0": {("q0", BLANK): ((1.0, "rej", "z"),)}}},
     "transition target ('rej', 'z') references unknown ids"),
    ({"two_way": True, "head_dir": {("rej", BLANK): 2}},
     "head direction 2 out of range at ('rej', '#')"),
    ({"input_alphabet": ("0", "1", "1")}, "duplicate input symbols"),
    ({"input_alphabet": ("0", "1", "")},
     "input symbol '' is not a single character"),
    ({"input_alphabet": ("zz", "1")},
     "input symbol 'zz' is not a single character"),
])
def test_verifier_spec_refuses_malformed_structure(change, message):
    base = dict(
        name="plain", input_alphabet=("0",), comm_alphabet=(BLANK, "a"),
        non_halting=("q0",), accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=False,
        rows={"0": {("q0", BLANK): ((1.0, "rej", BLANK),)}},
        head_dir={("rej", BLANK): 1},
    )
    VerifierSpec(**base)
    with pytest.raises(ValidationError) as info:
        VerifierSpec(**{**base, **change})
    assert str(info.value) == message


def test_complete_verifier_refuses_a_table_for_an_unknown_symbol():
    base = dict(
        name="core", input_alphabet=("0",), comm_alphabet=(BLANK,),
        non_halting=("q0",), accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=False, head_dir={},
        core_rows={"0": {("q0", BLANK): ((1.0, "acc", BLANK),)}},
    )
    complete_verifier(**base)
    # even a row naming an unknown state and comm symbol: the table is
    # refused for its symbol, as VerifierSpec refuses it
    unknown = {("q9", "z"): ((1.0, "nowhere", "z"),)}
    with pytest.raises(ValidationError) as info:
        complete_verifier(**{**base, "core_rows": {
            **base["core_rows"], "7": unknown}})
    assert str(info.value) == "transition table for unknown symbol '7'"


@st.composite
def complement_blocks(draw):
    """(columns, m): 1-4 columns in C^2..C^6 with fewer columns than rows,
    orthonormal (a random unitary's first columns) or each scaled."""
    m = draw(st.integers(2, 6))
    k = draw(st.integers(1, min(4, m - 1)))
    parts = draw(st.lists(st.floats(-1, 1), min_size=2 * m * m,
                          max_size=2 * m * m))
    z = np.array(parts[::2]) + 1j * np.array(parts[1::2])
    q, _ = np.linalg.qr(z.reshape(m, m))
    if draw(st.booleans()):
        q = q * np.array(draw(st.lists(st.sampled_from((1.0, 1.5, -0.5j)),
                                       min_size=m, max_size=m)))
    return q[:, :k].T.tolist(), m


@settings(max_examples=200, deadline=None)
@given(complement_blocks())
def test_complement_is_numpy_qr_trailing_columns(block):
    columns, m = block
    basis = automata._complement(columns, m)
    assert len(basis) == m - len(columns)
    vectors = np.array(basis).T
    given_cols = np.array(columns).T
    gram = vectors.conj().T @ vectors - np.eye(len(basis))
    assert np.abs(gram).max() <= 1e-14
    assert np.abs(given_cols.conj().T @ vectors).max() <= 1e-14
    q, _ = np.linalg.qr(given_cols, mode="complete")
    trailing = q[:, len(columns):]
    want = trailing @ trailing.conj().T
    assert np.abs(vectors @ vectors.conj().T - want).max() <= 1e-12


def _reference_step_operator(verifier, x):
    """(entries, basis) built by a loop over the basis, one row lookup per
    (state, head, comm) label: the reference for build_step_operator.
    """
    tape = padded_input(x, verifier.input_alphabet)
    basis = [(q, k, g) for q in verifier.states for k in range(len(tape))
             for g in verifier.comm_alphabet]
    index = {lab: i for i, lab in enumerate(basis)}
    entries = []
    for (q, k, g) in basis:
        for amp, q2, g2, d in verifier.completed.live_moves[tape[k]][q, g]:
            entries.append((index[(q2, (k + d) % len(tape), g2)],
                            index[(q, k, g)], complex(amp)))
    return entries, basis


@settings(max_examples=60, deadline=None)
@given(core_tables(), st.data())
def test_tiled_step_operator_matches_the_basis_loop(kwargs, data):
    v = complete_verifier(**kwargs)
    inputs = ["".join(w) for n in range(3)
              for w in itertools.product("01", repeat=n)]
    for x in inputs:
        assert build_step_operator(v, x) == _reference_step_operator(v, x)
    # one row deleted: both builds refuse with the same missing row
    full = v.completed
    sym = data.draw(st.sampled_from(v.padded_alphabet))
    key = data.draw(st.sampled_from(sorted(full.rows[sym])))
    rows = {s: dict(table) for s, table in full.rows.items()}
    del rows[sym][key]
    gappy = VerifierSpec(
        name="gappy", input_alphabet=v.input_alphabet,
        comm_alphabet=v.comm_alphabet, non_halting=v.non_halting,
        accepting=v.accepting, rejecting=v.rejecting, initial=v.initial,
        two_way=v.two_way, rows=rows, head_dir=full.head_dir,
    )
    for x in inputs:
        if sym not in padded_input(x):
            assert (build_step_operator(gappy, x)
                    == _reference_step_operator(gappy, x))
            continue
        with pytest.raises(ValidationError) as want:
            _reference_step_operator(gappy, x)
        with pytest.raises(ValidationError, match="incomplete table") as got:
            build_step_operator(gappy, x)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("token", SHIPPED)
def test_shipped_step_operators_equal_the_basis_loop(token):
    # the shipped full tables carry completion rows with QR-complement
    # amplitudes, which random core tables seldom reach
    v = resolve_spec(token).make().verifier
    for n in range(3):
        for w in itertools.product(v.input_alphabet, repeat=n):
            assert (build_step_operator(v, "".join(w))
                    == _reference_step_operator(v, "".join(w)))


@pytest.mark.parametrize("token", SHIPPED)
def test_per_symbol_check_reads_live_columns_in_pair_order(token,
                                                           monkeypatch):
    v = resolve_spec(token).make().verifier
    checked = []

    def spy(entries, n_cols):
        checked.append((list(entries), n_cols))
        return isometry_defect(*checked[-1])

    monkeypatch.setattr(automata, "isometry_defect", spy)
    del v.per_symbol_defects  # read afresh below
    assert set(v.per_symbol_defects) == set(v.padded_alphabet)
    assert len(checked) == len(v.padded_alphabet)
    index = _pair_index(v)
    for sym, (entries, n_cols) in zip(v.padded_alphabet, checked):
        table = v.live_moves[sym]
        keys = [pair for pair in index if pair in table]
        want = [(index[q2, g2], j, amp)
                for j, key in enumerate(keys)
                for amp, q2, g2, _d in table[key]]
        assert entries == want
        assert n_cols == len(keys)


def parity_machine():
    delta = {}
    for q in ("even", "odd"):
        delta[(q, LEFT_END)] = q
        delta[(q, "0")] = q
    delta[("even", "1")] = "odd"
    delta[("odd", "1")] = "even"
    delta[("even", RIGHT_END)] = "rej"
    delta[("odd", RIGHT_END)] = "acc"
    return OneRfaSpec(
        name="parity", input_alphabet=("0", "1"),
        non_halting=("even", "odd"), accepting=("acc",), rejecting=("rej",),
        initial="even", delta=delta,
    )


def test_1rfa_validation_and_run():
    m = parity_machine()
    assert validate_1rfa_reversible(m)
    assert run_1rfa(m, "1").accepted
    assert run_1rfa(m, "11").accepted is False
    assert run_1rfa(m, "0110").accepted is False
    assert run_1rfa(m, "010").accepted
    r = run_1rfa(m, "01")
    assert r.halted and r.steps == len("01") + 2


def test_1rfa_reversibility_rejects_merging_transitions():
    m = parity_machine()
    m.delta[("odd", "0")] = "even"  # now even/odd both reach even on 0
    with pytest.raises(ValidationError):
        validate_1rfa_reversible(m)


def test_1rfa_totality_required():
    m = parity_machine()
    del m.delta[("odd", "1")]
    with pytest.raises(ValidationError):
        validate_1rfa_reversible(m)


@pytest.mark.parametrize("edit, message", [
    (lambda m: setattr(m, "initial", "acc"), "initial state must be live"),
    (lambda m: m.delta.pop(("odd", "1")),
     "transition missing for ('odd', '1')"),
    (lambda m: m.delta.update({("odd", "0"): "nowhere"}),
     "unknown target state 'nowhere'"),
    (lambda m: m.delta.update({("odd", "0"): "even"}),
     "not reversible: 'even' and 'odd' both reach 'even' on '0'"),
])
def test_1rfa_refusals_name_the_fault(edit, message):
    m = parity_machine()
    edit(m)
    with pytest.raises(ValidationError) as info:
        validate_1rfa_reversible(m)
    assert str(info.value) == message


def coin_flip_machine():
    coin = {
        ("c0", sym): ("acc", "rej")
        for sym in (LEFT_END, "0", "1", RIGHT_END)
    }
    return TwoNpfaSpec(
        name="flip", input_alphabet=("0", "1"), coin_states=("c0",),
        choice_states=(), accepting=("acc",), rejecting=("rej",),
        initial="c0", coin=coin, choice={},
    )


def test_2npfa_coin_machine_halves_mass():
    m = coin_flip_machine()
    assert validate_2npfa_normalized(m)
    r = run_2npfa(m, "01")
    assert r.p_acc == pytest.approx(0.5)
    assert r.p_rej == pytest.approx(0.5)
    assert r.residual == pytest.approx(0.0)
    assert r.steps == 1


def test_2npfa_truncation_reports_residual():
    coin = {
        ("c0", sym): ("c0", "acc")
        for sym in (LEFT_END, "0", RIGHT_END)
    }
    m = TwoNpfaSpec(
        name="loop", input_alphabet=("0",), coin_states=("c0",),
        choice_states=(), accepting=("acc",), rejecting=("rej",),
        initial="c0", coin=coin, choice={},
    )
    r = run_2npfa(m, "0", max_steps=3)
    assert r.p_acc == pytest.approx(0.875)
    assert r.residual == pytest.approx(0.125)
    assert r.p_acc + r.p_rej + r.residual == pytest.approx(1.0)


def test_2npfa_choice_needs_chooser():
    choice = {
        ("n0", sym): (("acc", 1), ("rej", 1))
        for sym in (LEFT_END, "0", "1", RIGHT_END)
    }
    m = TwoNpfaSpec(
        name="pick", input_alphabet=("0", "1"), coin_states=(),
        choice_states=("n0",), accepting=("acc",), rejecting=("rej",),
        initial="n0", coin={}, choice=choice,
    )
    with pytest.raises(EngineError):
        run_2npfa(m, "0")
    r = run_2npfa(m, "0", chooser=first_option_chooser(m))
    assert r.p_acc == pytest.approx(1.0)


def test_2npfa_normal_form_rejected_when_broken():
    m = coin_flip_machine()
    m.coin[("c0", "0")] = ("acc", "acc")
    with pytest.raises(ValidationError):
        validate_2npfa_normalized(m)
    choice = {("n0", sym): (("acc", 0),) for sym in (LEFT_END, RIGHT_END)}
    bad = TwoNpfaSpec(
        name="stay", input_alphabet=(), coin_states=(),
        choice_states=("n0",), accepting=("acc",), rejecting=("rej",),
        initial="n0", coin={}, choice=choice,
    )
    with pytest.raises(ValidationError):
        validate_2npfa_normalized(bad)


def coin_and_choice_machine():
    """A coin state c0 that moves to a choice state n0 or rejects."""
    padded = (LEFT_END, "0", RIGHT_END)
    return TwoNpfaSpec(
        name="mixed", input_alphabet=("0",), coin_states=("c0",),
        choice_states=("n0",), accepting=("acc",), rejecting=("rej",),
        initial="c0", coin={("c0", sym): ("n0", "rej") for sym in padded},
        choice={("n0", sym): (("acc", 1), ("rej", -1)) for sym in padded},
    )


@pytest.mark.parametrize("edit, message", [
    (lambda m: setattr(m, "initial", "acc"), "initial state must be live"),
    (lambda m: setattr(m, "choice_states", ("n0", "c0")),
     "coin and choice state sets overlap"),
    (lambda m: m.coin.pop(("c0", "0")), "coin row missing for ('c0', '0')"),
    (lambda m: m.coin.update({("c0", "0"): ("rej", "rej")}),
     "coin at ('c0', '0') must have two distinct successors"),
    (lambda m: m.coin.update({("c0", "0"): ("n0", "nowhere")}),
     "unknown coin successor at ('c0', '0')"),
    (lambda m: m.choice.update({("n0", "0"): ()}),
     "choice row missing or empty for ('n0', '0')"),
    (lambda m: m.choice.update({("n0", "0"): (("acc", 1), ("acc", 1))}),
     "duplicate choice at ('n0', '0')"),
    (lambda m: m.choice.update({("n0", "0"): (("nowhere", 1),)}),
     "unknown choice target at ('n0', '0')"),
    (lambda m: m.choice.update({("n0", "0"): (("acc", 0),)}),
     "choice direction must be -1 or +1 at ('n0', '0')"),
])
def test_2npfa_refusals_name_the_fault(edit, message):
    m = coin_and_choice_machine()
    assert validate_2npfa_normalized(m)
    edit(m)
    with pytest.raises(ValidationError) as info:
        validate_2npfa_normalized(m)
    assert str(info.value) == message
