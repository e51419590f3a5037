"""Unit tests for prover strategies and their property validators."""

import itertools
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qipsim
from qipsim import provers
from qipsim.automata import BLANK, LEFT_END, complete_verifier
from qipsim.cli import instantiate, main, resolve_spec
from qipsim.engine import EngineConfig, resolve_max_steps, run_protocol
from qipsim.errors import BudgetError, LinalgError, ValidationError
from qipsim.provers import (
    ExplicitRoundProver,
    HistoryResponder,
    IdentityProver,
    MessageSchedule,
    Prover,
    ProverReport,
    acts_as_responder,
    check_classical,
    check_committed,
    enumerate_schedules,
)


def test_identity_prover_passthrough():
    p = IdentityProver()
    assert p.prover_id == "identity"
    assert p.apply(3, "m", (("1", "m"),)) == [(1.0, "m", (("1", "m"),))]


def test_identity_prover_is_a_responder_that_logs_nothing():
    p = IdentityProver()
    assert acts_as_responder(p)
    assert p.respond(4, "m") == ("m", None)
    assert p.respond(4, BLANK) == (BLANK, None)


def test_history_responder_records_nonblank_only():
    p = HistoryResponder(lambda t, g: BLANK, prover_id="eraser")
    amp, out, tape = p.apply(1, BLANK, ())[0]
    assert (out, tape) == (BLANK, ())
    amp, out, tape = p.apply(2, "m", ())[0]
    assert out == BLANK
    assert tape == ((2, "m"),)


@pytest.mark.parametrize("prover", [
    HistoryResponder(lambda t, g: "a" if g == BLANK else BLANK),
    MessageSchedule({2: "m", 3: BLANK}),
])
def test_respond_gives_the_action_of_apply(prover):
    # the engine steps responders through respond, validators through apply
    for t in (1, 2, 3):
        for g in (BLANK, "a", "m"):
            for tape in ((), ((1, "a"),)):
                reply, record = prover.respond(t, g)
                logged = tape if record is None else tape + (record,)
                assert prover.apply(t, g, tape) == [(1.0, reply, logged)]


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
    with pytest.raises(LinalgError, match="not a 2-D numeric matrix"):
        ExplicitRoundProver({1: (basis, [[1, 0], [0]])})
    with pytest.raises(LinalgError, match="not a 2-D numeric matrix"):
        ExplicitRoundProver({1: (basis, 1.0)})


@pytest.mark.parametrize("pairs, size", [(1, 2), (2, 1)])
def test_explicit_prover_refuses_a_basis_of_the_wrong_length(pairs, size):
    s = 1.0 / math.sqrt(2.0)
    matrix = [[s, s], [s, -s]] if size == 2 else [[1.0]]
    basis = [(BLANK, ()), ("m", ())][:pairs]
    with pytest.raises(ValidationError) as exc:
        ExplicitRoundProver({3: (basis, matrix)})
    assert str(exc.value) == (
        "round-3 prover basis has %d pairs but its matrix is %dx%d"
        % (pairs, size, size))


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


@pytest.mark.parametrize("committed_only", [False, True])
@pytest.mark.parametrize("rounds", range(5))
def test_enumerated_schedules_are_the_schedules_of_their_writes(
        committed_only, rounds):
    # the enumeration joins each prover_id from per-round parts; it must
    # be the id MessageSchedule makes from the writes, in product order
    alphabet = (BLANK, "a", "b")
    options = [None, BLANK] if committed_only else [None, *alphabet]
    want = [{t: s for t, s in enumerate(combo, start=1) if s is not None}
            for combo in itertools.product(options, repeat=rounds)]
    got = list(enumerate_schedules(alphabet, rounds, committed_only))
    assert [s.writes for s in got] == want
    for s in got:
        plain = MessageSchedule(dict(s.writes))
        assert (s.prover_id, s.writes) == (plain.prover_id, plain.writes)


def test_enumerate_schedules_budget():
    with pytest.raises(BudgetError):
        list(enumerate_schedules((BLANK, "a", "b"), 12))


def test_one_budget_caps_schedule_families_and_reachable_tapes(monkeypatch):
    # a permutation that logs on "m": two tapes reached in round 1
    logger = ExplicitRoundProver(
        {1: ([("m", ()), ("m", ((1, "m"),))], [[0, 1], [1, 0]])})
    for check in (check_classical, check_committed):
        assert check(logger, (BLANK, "m"), 2).ok
    monkeypatch.setattr(provers, "ENUMERATION_BUDGET", 1)
    for check in (check_classical, check_committed):
        with pytest.raises(BudgetError) as info:
            check(logger, (BLANK, "m"), 2)
        assert str(info.value) == (
            "reachable-tape closure exceeded 1 entries at round 1")
    with pytest.raises(BudgetError) as info:
        list(enumerate_schedules((BLANK,), 1))
    assert str(info.value) == "schedule family has 2 members, over the 1 budget"


# -- the by-type certificates against the probe ---------------------------


def _reference_closure(prover, comm_alphabet, rounds, budget):
    tapes = {()}
    for t in range(1, rounds + 1):
        nxt = set()
        for tape in sorted(tapes, key=repr):
            for g in comm_alphabet:
                for _, _, tape2 in prover.apply(t, g, tape):
                    nxt.add(tape2)
                yield t, g, tape
        if len(nxt) > budget:
            raise BudgetError("closure over budget")
        tapes = nxt


def reference_classical(prover, comm_alphabet, rounds, tau=1e-9,
                        budget=200000):
    """check_classical as a probe of every round x comm symbol (x tape)."""
    if acts_as_responder(prover):
        probe = [(t, g, ()) for t in range(1, rounds + 1) for g in comm_alphabet]
    else:
        probe = _reference_closure(prover, comm_alphabet, rounds, budget)
    checked = 0
    for t, g, tape in probe:
        out = prover.apply(t, g, tape)
        checked = t
        if len(out) != 1 or abs(out[0][0] - 1.0) > tau:
            return ProverReport(False, "classical", (t, g, tape, tuple(out)), t)
    return ProverReport(True, "classical", None, checked)


def reference_committed(prover, comm_alphabet, rounds, tau=1e-9,
                        budget=200000):
    """check_committed as a probe of the blank at every round (x tape)."""
    if acts_as_responder(prover):
        probe = [(t, BLANK, ()) for t in range(1, rounds + 1)]
    else:
        if BLANK not in comm_alphabet:
            comm_alphabet = tuple(comm_alphabet) + (BLANK,)
        probe = ((t, g, tape) for t, g, tape in _reference_closure(
            prover, comm_alphabet, rounds, budget) if g == BLANK)
    checked = 0
    for t, _, tape in probe:
        out = prover.apply(t, BLANK, tape)
        checked = t
        if not (len(out) == 1 and abs(out[0][0] - 1.0) <= tau
                and out[0][1] == BLANK and out[0][2] == tape):
            return ProverReport(False, "committed",
                                (t, BLANK, tape, tuple(out)), t)
    return ProverReport(True, "committed", None, checked)


def assert_matches_reference(prover, comm_alphabet, rounds, tau=1e-9):
    for check, reference in ((check_classical, reference_classical),
                             (check_committed, reference_committed)):
        got = check(prover, comm_alphabet, rounds, tau=tau)
        assert got == reference(prover, comm_alphabet, rounds, tau=tau), (
            prover.prover_id, check.__name__, rounds, tau)


SHIPPED = sorted(path.stem for path in
                 (Path(qipsim.__file__).parent / "specs").glob("*.spec"))


@pytest.mark.parametrize("token", SHIPPED)
def test_checks_match_the_probe_on_shipped_honest_provers(token):
    # the prover and step budget check hands each checker
    bundle = instantiate(resolve_spec(token))
    verifier = bundle.verifier
    for x in bundle.check_inputs:
        if set(x) <= set(verifier.input_alphabet):
            assert_matches_reference(bundle.honest_prover(x),
                                     verifier.comm_alphabet,
                                     resolve_max_steps(verifier, x, None))


COMMS = (BLANK, "a", "b", "c")


class TapeReader(Prover):
    """A prover whose apply reads its tape: replies[(t, g, len(tape))]
    is its reply, it logs (t, g) in the rounds in logs, and in the
    (t, len(tape)) pairs in splits it also writes back g with equal
    amplitude.
    """

    prover_id = "tape-reader"

    def __init__(self, replies, logs, splits):
        self.replies, self.logs, self.splits = replies, logs, splits

    def apply(self, round_index, comm, tape):
        reply = self.replies.get((round_index, comm, len(tape)), comm)
        tape2 = tape + ((round_index, comm),) \
            if round_index in self.logs else tape
        if (round_index, len(tape)) not in self.splits or reply == comm:
            return [(1.0, reply, tape2)]
        s = 1.0 / math.sqrt(2.0)
        return [(s, reply, tape2), (s, comm, tape2)]


@st.composite
def random_provers(draw, comm):
    kind = draw(st.sampled_from(("reply", "schedule", "identity", "tape")))
    if kind == "identity":
        return IdentityProver()
    if kind == "tape":
        # at most three logging rounds keep the tape closure small
        return TapeReader(
            draw(st.dictionaries(st.tuples(st.integers(1, 12),
                                           st.sampled_from(comm),
                                           st.integers(0, 3)),
                                 st.sampled_from(comm))),
            draw(st.sets(st.integers(1, 12), max_size=3)),
            draw(st.sets(st.tuples(st.integers(1, 12), st.integers(0, 3)))))
    if kind == "schedule":
        return MessageSchedule(draw(st.dictionaries(
            st.integers(1, 12), st.sampled_from(comm))))
    table = draw(st.dictionaries(
        st.tuples(st.integers(1, 12), st.sampled_from(comm)),
        st.sampled_from(comm)))
    return HistoryResponder(lambda t, g: table.get((t, g), g))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(COMMS[:n]), random_provers(COMMS[:n]))),
    st.integers(0, 12), st.sampled_from((0.0, 1e-9, -1e-3)))
def test_checks_match_the_probe_on_random_responders(case, rounds, tau):
    comm, prover = case
    assert_matches_reference(prover, comm, rounds, tau)
    # no comm symbol leaves the classical probe nothing to check
    assert_matches_reference(prover, (), rounds, tau)


class SuperposingResponder(HistoryResponder):
    """A responder whose apply splits every action into two halves."""

    def apply(self, round_index, comm, tape):
        s = 1.0 / math.sqrt(2.0)
        return [(s, comm, tape), (s, "m" if comm == BLANK else BLANK, tape)]


class BlankLogger(HistoryResponder):
    """A responder whose respond logs the blank observations too."""

    def respond(self, round_index, comm):
        return self.reply(round_index, comm), (round_index, comm)


def test_an_apply_override_is_still_probed_and_caught():
    prover = SuperposingResponder(lambda t, g: g)
    assert not acts_as_responder(prover)
    for check in (check_classical, check_committed):
        report = check(prover, (BLANK, "m"), 3)
        assert not report.ok and report.witness[0] == 1
    assert_matches_reference(prover, (BLANK, "m"), 3)


def test_a_respond_that_logs_the_blank_is_not_committed():
    prover = BlankLogger(lambda t, g: g)
    assert acts_as_responder(prover)
    report = check_committed(prover, (BLANK, "m"), 4)
    assert not report.ok
    assert report.witness == (1, BLANK, (), ((1.0, BLANK, ((1, BLANK),)),))
    assert check_classical(prover, (BLANK, "m"), 4).ok
    assert_matches_reference(prover, (BLANK, "m"), 4)


def test_explicit_round_provers_are_still_probed():
    report = check_classical(hadamard_prover(), (BLANK, "m"), 3)
    assert report == reference_classical(hadamard_prover(), (BLANK, "m"), 3)
    assert not report.ok
    identity_like = ExplicitRoundProver({}, prover_id="still")
    assert_matches_reference(identity_like, (BLANK, "m"), 3)


def test_committed_closure_walks_the_blank_the_alphabet_lacks():
    # the prover writes m on the blank in round 1; the alphabet it is
    # handed does not list the blank, but the comm cell can still hold it
    prover = ExplicitRoundProver({1: ([(BLANK, ()), ("m", ())],
                                      [[0, 1], [1, 0]])})
    report = check_committed(prover, ("m",), 3)
    assert not report.ok
    assert report.rounds_checked == 1
    assert report == check_committed(prover, (BLANK, "m"), 3)
    assert_matches_reference(prover, ("m",), 3)


class LateSuperposer(Prover):
    """Classical on the empty tape, which it extends; superposing on
    every tape it extended.
    """

    prover_id = "late-superposer"

    def apply(self, round_index, comm, tape):
        if not tape:
            return [(1.0, comm, ((round_index, comm),))]
        s = 1.0 / math.sqrt(2.0)
        return [(s, comm, tape), (s, "m" if comm == BLANK else BLANK, tape)]


def test_a_prover_that_superposes_on_a_later_tape_is_not_classical():
    report = check_classical(LateSuperposer(), (BLANK, "m"), 3)
    assert not report.ok
    assert report.witness[:3] == (2, BLANK, ((1, BLANK),))
    assert report.rounds_checked == 2
    assert_matches_reference(LateSuperposer(), (BLANK, "m"), 3)


def test_the_closure_probe_calls_apply_once_per_triple(monkeypatch):
    # round 1 swaps m between the empty tape and a logged one, so round
    # 2 reaches two tapes; the blank is never touched
    prover = ExplicitRoundProver({1: ([("m", ()), ("m", ((1, "m"),))],
                                      [[0, 1], [1, 0]])})
    comm = (BLANK, "m")
    triples = list(_reference_closure(prover, comm, 3, 200000))
    assert len(triples) == 10
    calls = []
    apply = ExplicitRoundProver.apply

    def spy(self, round_index, comm, tape):
        calls.append((round_index, comm, tape))
        return apply(self, round_index, comm, tape)

    monkeypatch.setattr(ExplicitRoundProver, "apply", spy)
    for check in (check_committed, check_classical):
        calls.clear()
        report = check(prover, comm, 3)
        assert report.ok and report.rounds_checked == 3
        assert calls == triples


@pytest.mark.parametrize("token", ["odd", "center", "npfa_coin"])
def test_check_never_calls_a_responders_apply(token, monkeypatch, capsys):
    calls = []
    apply = HistoryResponder.apply

    def spy(self, round_index, comm, tape):
        calls.append((round_index, comm))
        return apply(self, round_index, comm, tape)

    # patching the base class keeps every responder acting as one
    monkeypatch.setattr(HistoryResponder, "apply", spy)
    assert main(["check", token]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert calls == []
