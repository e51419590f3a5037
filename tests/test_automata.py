"""Unit tests for verifier tables and the classical automaton runners."""

import itertools

import numpy as np
import pytest
import scipy.sparse
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
from qipsim.errors import EngineError, ValidationError
from qipsim.linalg import check_unitary
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


def test_complete_verifier_produces_wellformed_table():
    v = tiny_accept_all()
    report = validate_wellformed(v, inputs=["", "0", "01"])
    assert report.ok
    assert report.worst <= 1e-12


def test_complete_verifier_row_classes():
    v = tiny_accept_all()
    assert v.class_of("0", "q0", BLANK) == CORE
    core = list(v.core_rows())
    assert len(core) == 4
    for sym, table in v.rows.items():
        for (q, g), targets in table.items():
            if v.class_of(sym, q, g) == GUARD:
                assert len(targets) == 1
                assert v.is_rejecting(targets[0][1])


def test_step_operator_is_unitary_dense():
    v = tiny_accept_all()
    mat, labels = build_step_operator(v, "01")
    mat = mat.toarray()
    assert len(labels) == mat.shape[0]
    ok, defect = check_unitary(mat)
    assert ok
    assert defect <= 1e-12


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
    monkeypatch.setattr(automata, "_step_matrix",
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
    assert set(v.moves) == set(v.padded_alphabet)
    assert v.moves["0"]["q0", BLANK] == ((1.0, "q0", BLANK, -1),)
    assert v.moves[RIGHT_END]["q0", BLANK] == ((1.0, "acc", BLANK, 0),)
    # entries follow the rows, the core row first; its pairs (q0, #) and
    # (acc, #) have indices 0 and 1, since states are (q0, acc, ...)
    compiled = v.compiled[RIGHT_END]
    assert [a[0] for a in compiled] == [0, 1, 0, 1.0]
    assert len(compiled.src) == len(v.states)
    assert not any(a.flags.writeable for a in compiled)
    gappy = VerifierSpec(
        name="gappy", input_alphabet=("0",), comm_alphabet=(BLANK,),
        non_halting=("q0",), accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=False, rows={}, head_dir={},
    )
    with pytest.raises(ValidationError, match=(
            r"incomplete table: no row for \('q0', '#'\) on '0'")):
        gappy.moves["0"]["q0", BLANK]


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
    """{live state: {guard target states}} over every guard row."""
    out = {}
    for sym, table in verifier.rows.items():
        for (q, g), targets in table.items():
            if verifier.class_of(sym, q, g) == GUARD:
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
        assert v.row("0", "q0", g) == ((1.0, "rej~q0'", g),)


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
    sym = data.draw(st.sampled_from(v.padded_alphabet))
    key = data.draw(st.sampled_from(sorted(v.rows[sym])))
    rows = {s: dict(table) for s, table in v.rows.items()}
    rows[sym][key] = tuple((1.5 * amp, q2, g2)
                           for amp, q2, g2 in rows[sym][key])
    scaled = VerifierSpec(
        name="scaled", input_alphabet=v.input_alphabet,
        comm_alphabet=v.comm_alphabet, non_halting=v.non_halting,
        accepting=v.accepting, rejecting=v.rejecting, initial=v.initial,
        two_way=v.two_way, rows=rows, head_dir=v.head_dir,
        row_class=v.row_class,
    )
    bad = validate_wellformed(scaled, inputs=inputs)
    assert not bad.ok
    for s, defect in bad.per_symbol.items():
        assert (defect > bad.tau) == (s == sym)
    for x, defect in bad.per_input.items():
        assert (defect > bad.tau) == (sym in padded_input(x))


def _reference_step_operator(verifier, x):
    """(matrix, basis) built by a loop over the basis, one row lookup per
    (state, head, comm) label: the reference for the tiled build.
    """
    tape = padded_input(x, verifier.input_alphabet)
    basis = [(q, k, g) for q in verifier.states for k in range(len(tape))
             for g in verifier.comm_alphabet]
    index = {lab: i for i, lab in enumerate(basis)}
    data, rows_ix, cols_ix = [], [], []
    for (q, k, g) in basis:
        for amp, q2, g2, d in verifier.moves[tape[k]][q, g]:
            rows_ix.append(index[(q2, (k + d) % len(tape), g2)])
            cols_ix.append(index[(q, k, g)])
            data.append(complex(amp))
    mat = scipy.sparse.csr_matrix(
        (data, (rows_ix, cols_ix)), shape=(len(basis), len(basis)),
        dtype=complex,
    )
    return mat, basis


def _same_csr(a, b):
    return (a.shape == b.shape
            and all(np.array_equal(getattr(a, name), getattr(b, name))
                    and getattr(a, name).dtype == getattr(b, name).dtype
                    for name in ("indptr", "indices", "data")))


@settings(max_examples=60, deadline=None)
@given(core_tables(), st.data())
def test_tiled_step_operator_matches_the_basis_loop(kwargs, data):
    v = complete_verifier(**kwargs)
    inputs = ["".join(w) for n in range(3)
              for w in itertools.product("01", repeat=n)]
    for x in inputs:
        mat, basis = build_step_operator(v, x)
        want, want_basis = _reference_step_operator(v, x)
        assert basis == want_basis
        assert _same_csr(mat, want)
    # one row deleted: both builds refuse with the same missing row
    sym = data.draw(st.sampled_from(v.padded_alphabet))
    key = data.draw(st.sampled_from(sorted(v.rows[sym])))
    rows = {s: dict(table) for s, table in v.rows.items()}
    del rows[sym][key]
    gappy = VerifierSpec(
        name="gappy", input_alphabet=v.input_alphabet,
        comm_alphabet=v.comm_alphabet, non_halting=v.non_halting,
        accepting=v.accepting, rejecting=v.rejecting, initial=v.initial,
        two_way=v.two_way, rows=rows, head_dir=v.head_dir,
    )
    for x in inputs:
        if sym not in padded_input(x):
            assert _same_csr(build_step_operator(gappy, x)[0],
                             _reference_step_operator(gappy, x)[0])
            continue
        with pytest.raises(ValidationError) as want:
            _reference_step_operator(gappy, x)
        with pytest.raises(ValidationError, match="incomplete table") as got:
            build_step_operator(gappy, x)
        assert str(got.value) == str(want.value)


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
