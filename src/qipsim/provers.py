"""Prover models and the validators that classify them.

A prover acts between verifier steps on the pair (comm symbol, private
history tape).  The history tape is a tuple of (round, symbol) records;
responders log the symbol they observed each round into that round's
slot (blank observations are not logged), which makes every responder a
permutation of the joint basis no matter what reply function it uses:
the slot pins down what was read, so the map is invertible.
"""

import itertools
from dataclasses import dataclass

from .automata import BLANK
from .errors import BudgetError, ValidationError
from .linalg import check_unitary, ensure_finite


class Prover:
    """Interface: apply(round_index, comm, tape) -> [(amp, comm', tape')].

    tape_uniform means the action never depends on the history tape
    (beyond appending to it); validators exploit this to avoid walking
    the reachable-tape closure.
    """

    prover_id = "prover"
    tape_uniform = True

    def apply(self, round_index, comm, tape):
        raise NotImplementedError


class IdentityProver(Prover):
    """Does nothing: leaves the comm cell and history untouched."""

    prover_id = "identity"

    def apply(self, round_index, comm, tape):
        return [(1.0, comm, tape)]


class HistoryResponder(Prover):
    """Replies with reply(round, observed) and logs non-blank observations.

    The observed symbol is recorded into the tape slot for this round
    before the reply overwrites the comm cell; blank observations leave
    the tape untouched.
    """

    def __init__(self, reply, prover_id="responder"):
        self.reply = reply
        self.prover_id = prover_id

    def apply(self, round_index, comm, tape):
        out_comm = self.reply(round_index, comm)
        if comm != BLANK:
            tape = tape + ((round_index, comm),)
        return [(1.0, out_comm, tape)]


class MessageSchedule(HistoryResponder):
    """Fixed per-round writes; rounds absent from the schedule leave comm.

    writes maps round index -> symbol to place in the comm cell (the
    blank symbol erases).  Observation logging keeps the action a
    permutation even on superposed comm contents.
    """

    def __init__(self, writes, prover_id=None):
        self.writes = dict(writes)
        if prover_id is None:
            parts = ",".join(
                "%d:%s" % (t, s) for t, s in sorted(self.writes.items())
            )
            prover_id = "schedule{%s}" % parts
        super().__init__(self._reply, prover_id=prover_id)

    def _reply(self, round_index, comm):
        return self.writes.get(round_index, comm)


class ExplicitRoundProver(Prover):
    """General per-round unitaries on an explicit (comm, tape) basis.

    round_ops maps round index -> (basis, matrix) where basis is a list
    of (comm, tape) pairs and matrix columns give the image of each
    basis vector.  Pairs outside the basis are left unchanged.  Used for
    provers beyond the classical responders (e.g. superposing replies).
    """

    tape_uniform = False

    def __init__(self, round_ops, prover_id="explicit"):
        self.round_ops = {}
        for r, (basis, matrix) in round_ops.items():
            basis = [tuple(p) for p in basis]
            if len(set(basis)) != len(basis):
                raise ValidationError("duplicate basis pair in round %d" % r)
            ok, defect = check_unitary(matrix, tau=1e-9)
            if not ok:
                raise ValidationError(
                    "round-%d prover matrix is not unitary (defect %.3e)"
                    % (r, defect)
                )
            self.round_ops[r] = (basis, [list(col) for col in zip(*matrix)])
        self.prover_id = prover_id

    def apply(self, round_index, comm, tape):
        op = self.round_ops.get(round_index)
        if op is None:
            return [(1.0, comm, tape)]
        basis, columns = op
        try:
            j = basis.index((comm, tape))
        except ValueError:
            return [(1.0, comm, tape)]
        out = []
        for i, pair in enumerate(basis):
            amp = ensure_finite(columns[j][i])
            if amp != 0j:
                out.append((amp, pair[0], pair[1]))
        return out


# -- validators ------------------------------------------------------------


@dataclass
class ProverReport:
    ok: bool
    property_name: str
    witness: tuple = None
    rounds_checked: int = 0

    def summary(self):
        if self.ok:
            return "%s: ok (%d rounds)" % (self.property_name, self.rounds_checked)
        return "%s: violated at %r" % (self.property_name, self.witness)


def _reachable_closure(prover, comm_alphabet, rounds, budget):
    """Yield (round, comm, tape) triples reachable by round; tape closure."""
    tapes = {()}
    for t in range(1, rounds + 1):
        nxt = set()
        for tape in sorted(tapes, key=repr):
            for g in comm_alphabet:
                for _, _, tape2 in prover.apply(t, g, tape):
                    nxt.add(tape2)
                yield t, g, tape
        if len(nxt) > budget:
            raise BudgetError(
                "reachable-tape closure exceeded %d entries at round %d"
                % (budget, t)
            )
        tapes = nxt


def check_classical(prover, comm_alphabet, rounds, tau=1e-9, budget=200000):
    """A prover is classical when every reachable action is a plain move:
    a single output component with amplitude 1.
    """
    if prover.tape_uniform:
        probe = [(t, g, ()) for t in range(1, rounds + 1) for g in comm_alphabet]
    else:
        probe = _reachable_closure(prover, comm_alphabet, rounds, budget)
    checked = 0
    for t, g, tape in probe:
        out = prover.apply(t, g, tape)
        checked = t
        if len(out) != 1 or abs(out[0][0] - 1.0) > tau:
            return ProverReport(
                ok=False, property_name="classical",
                witness=(t, g, tape, tuple(out)), rounds_checked=t,
            )
    return ProverReport(ok=True, property_name="classical",
                        rounds_checked=checked)


def check_committed(prover, comm_alphabet, rounds, tau=1e-9, budget=200000):
    """A prover is committed when it never touches a blank comm cell:
    on observing the blank it must reply blank and leave the tape alone,
    for every history reachable at that round.
    """
    if prover.tape_uniform:
        probe = [(t, BLANK, ()) for t in range(1, rounds + 1)]
    else:
        probe = (
            (t, g, tape)
            for t, g, tape in _reachable_closure(
                prover, comm_alphabet, rounds, budget)
            if g == BLANK
        )
    checked = 0
    for t, _, tape in probe:
        out = prover.apply(t, BLANK, tape)
        checked = t
        good = (
            len(out) == 1
            and abs(out[0][0] - 1.0) <= tau
            and out[0][1] == BLANK
            and out[0][2] == tape
        )
        if not good:
            return ProverReport(
                ok=False, property_name="committed",
                witness=(t, BLANK, tape, tuple(out)), rounds_checked=t,
            )
    return ProverReport(ok=True, property_name="committed",
                        rounds_checked=checked)


def enumerate_schedules(comm_alphabet, rounds, committed_only=False,
                        budget=200000):
    """All fixed message schedules over the given number of rounds.

    Each round independently either leaves the comm cell alone or writes
    one symbol; committed_only restricts writes to the blank (erasure).
    Raises BudgetError when the family size exceeds the budget.
    """
    if committed_only:
        options = [None, BLANK]
    else:
        options = [None] + list(comm_alphabet)
    total = len(options) ** rounds
    if total > budget:
        raise BudgetError(
            "schedule family has %d members, over the %d budget"
            % (total, budget)
        )
    for combo in itertools.product(options, repeat=rounds):
        writes = {
            t + 1: s for t, s in enumerate(combo) if s is not None
        }
        yield MessageSchedule(writes)
