"""Unit tests for prover strategies and their property validators."""

import math

import pytest

from qipsim.automata import BLANK, LEFT_END, complete_verifier
from qipsim.engine import EngineConfig, run_protocol
from qipsim.errors import BudgetError, ValidationError
from qipsim.provers import (
    ExplicitRoundProver,
    HistoryResponder,
    IdentityProver,
    MessageSchedule,
    check_classical,
    check_committed,
    enumerate_schedules,
)


def test_identity_prover_passthrough():
    p = IdentityProver()
    assert p.prover_id == "identity"
    assert p.apply(3, "m", (("1", "m"),)) == [(1.0, "m", (("1", "m"),))]


def test_history_responder_records_nonblank_only():
    p = HistoryResponder(lambda t, g: BLANK, prover_id="eraser")
    amp, out, tape = p.apply(1, BLANK, ())[0]
    assert (out, tape) == (BLANK, ())
    amp, out, tape = p.apply(2, "m", ())[0]
    assert out == BLANK
    assert tape == ((2, "m"),)


def test_erasing_responder_conserves_superposed_comm_mass():
    # q0 writes # and a in superposition; erasing both would merge the two
    # components onto one basis label unless the observation is recorded.
    s = 1.0 / math.sqrt(2.0)
    v = complete_verifier(
        name="split", input_alphabet=("0",), comm_alphabet=(BLANK, "a"),
        non_halting=("q0", "q1"), accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=False, head_dir={},
        core_rows={LEFT_END: {
            ("q0", BLANK): ((s, "q1", BLANK), (s, "q1", "a"))}},
    )
    eraser = HistoryResponder(lambda t, g: BLANK, prover_id="eraser")
    r = run_protocol(v, "0", eraser, EngineConfig(check_conservation=True))
    assert r.p_acc + r.p_rej + r.residual + r.pruned == pytest.approx(1.0)


def test_message_schedule_id_and_writes():
    p = MessageSchedule({2: "m", 5: BLANK})
    assert p.prover_id == "schedule{2:m,5:#}"
    assert p.apply(1, BLANK, ())[0][1] == BLANK
    assert p.apply(2, BLANK, ())[0][1] == "m"
    _, out, tape = p.apply(5, "x", ())[0]
    # round 5 erases; the observed x lands on the history tape
    assert out == BLANK and tape == ((5, "x"),)


def test_message_schedule_custom_id():
    assert MessageSchedule({}, prover_id="leave-all").prover_id == "leave-all"


def hadamard_prover():
    s = 1.0 / math.sqrt(2.0)
    basis = [(BLANK, ()), ("m", ())]
    matrix = [[s, s], [s, -s]]
    return ExplicitRoundProver({1: (basis, matrix)}, prover_id="mixer")


def test_explicit_prover_applies_matrix_columns():
    p = hadamard_prover()
    out = p.apply(1, BLANK, ())
    assert len(out) == 2
    total = sum(abs(a) ** 2 for a, _, _ in out)
    assert total == pytest.approx(1.0)
    # rounds without an operator act as identity
    assert p.apply(2, "m", ()) == [(1.0, "m", ())]


def test_explicit_prover_validates_unitarity():
    basis = [(BLANK, ()), ("m", ())]
    with pytest.raises(ValidationError):
        ExplicitRoundProver({1: (basis, [[1, 0], [1, 0]])})
    with pytest.raises(ValidationError):
        ExplicitRoundProver({1: ([(BLANK, ()), (BLANK, ())],
                                 [[1, 0], [0, 1]])})


def test_check_classical_accepts_schedules():
    report = check_classical(MessageSchedule({1: "m"}), (BLANK, "m"), 4)
    assert report.ok
    assert report.property_name == "classical"
    assert report.rounds_checked == 4


def test_check_classical_rejects_superposing_prover():
    report = check_classical(hadamard_prover(), (BLANK, "m"), 3)
    assert not report.ok
    assert report.witness[0] == 1
    assert "violated" in report.summary()


def test_check_committed_identity_and_erasure():
    assert check_committed(IdentityProver(), (BLANK, "m"), 4).ok
    # erasing only when queried is allowed
    assert check_committed(MessageSchedule({2: BLANK}), (BLANK, "m"), 4).ok


def test_check_committed_rejects_unprompted_write():
    report = check_committed(MessageSchedule({3: "m"}), (BLANK, "m"), 4)
    assert not report.ok
    assert report.witness[0] == 3


def test_check_committed_walks_reachable_tapes():
    report = check_committed(hadamard_prover(), (BLANK, "m"), 2)
    assert not report.ok


def test_enumerate_schedules_counts():
    alphabet = (BLANK, "m")
    full = list(enumerate_schedules(alphabet, 2))
    assert len(full) == 9  # (leave | # | m) per round
    committed = list(enumerate_schedules(alphabet, 2, committed_only=True))
    assert len(committed) == 4
    ids = {p.prover_id for p in full}
    assert len(ids) == 9
    assert "schedule{}" in ids


def test_enumerate_schedules_budget():
    with pytest.raises(BudgetError):
        list(enumerate_schedules((BLANK, "a", "b"), 12, budget=100))
