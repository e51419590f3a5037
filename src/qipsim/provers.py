"""Prover models and the validators that classify them.

A prover acts between verifier steps on the pair (comm symbol, private
history tape).  The history tape is a tuple of (round, symbol) records;
responders log the symbol they observed each round into that round's
slot (blank observations are not logged), which makes every responder a
permutation of the joint basis no matter what reply function it uses:
the slot pins down what was read, so the map is invertible.

check_classical and check_committed certify a prover by its type where
the type settles the answer: a responder (acts_as_responder: its apply
is HistoryResponder.apply, as for IdentityProver and message schedules)
answers every (round, comm) with one component of amplitude exactly 1
whatever its tape holds, so it is classical without a call to its
reply, and it is committed when respond(t, BLANK) is (BLANK, None) in
every round.  Every other prover, an ExplicitRoundProver or a subclass
that overrides apply, is probed round by round on its reachable tapes.
"""

import itertools
from dataclasses import dataclass

from .automata import BLANK
from .errors import BudgetError, ValidationError
from .linalg import check_unitary, ensure_finite

# the most schedules a family may hold, and the most tapes a prover may
# reach in one round, before enumeration or a probe is refused
ENUMERATION_BUDGET = 200000


class Prover:
    """Interface: apply(round_index, comm, tape) -> [(amp, comm', tape')].

    apply must be a function of (round_index, comm, tape) alone: the
    prover never sees the verifier's state or head, and the engine calls
    it once per distinct (comm, tape) in each round, reusing the result
    for every configuration that carries that pair.  The validators
    probe a prover on every history tape it reaches unless it is a
    responder, whose action cannot read the tape.
    """

    prover_id = "prover"

    def apply(self, round_index, comm, tape):
        raise NotImplementedError


class HistoryResponder(Prover):
    """Replies with reply(round, observed) and logs non-blank observations.

    The observed symbol is recorded into the tape slot for this round
    before the reply overwrites the comm cell; blank observations leave
    the tape untouched.  respond gives the same action without the tape,
    which it never sees, so a responder's action does not depend on its
    history.  The engine steps every prover whose apply is this class's
    through respond, and appends the record to the tape by the tape's
    id, so it never hashes a whole history tape.
    """

    def __init__(self, reply, prover_id="responder"):
        self.reply = reply
        self.prover_id = prover_id

    def respond(self, round_index, comm):
        """(reply, record): the symbol written back and the record this
        round appends to the tape, None for a blank observation.
        """
        record = (round_index, comm) if comm != BLANK else None
        return self.reply(round_index, comm), record

    def apply(self, round_index, comm, tape):
        out_comm, record = self.respond(round_index, comm)
        if record is not None:
            tape = tape + (record,)
        return [(1.0, out_comm, tape)]


class IdentityProver(HistoryResponder):
    """Does nothing: writes back the comm symbol it read and logs nothing,
    so the comm cell and the history stay untouched.  All are equal.
    """

    def __init__(self):
        super().__init__(lambda t, g: g, prover_id="identity")

    def respond(self, round_index, comm):
        return comm, None

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(type(self))


class MessageSchedule(HistoryResponder):
    """Fixed per-round writes; rounds absent from the schedule leave comm.

    writes maps round index -> symbol to place in the comm cell (the
    blank symbol erases).  Observation logging keeps the action a
    permutation even on superposed comm contents.  Two schedules of one
    type are equal when their writes and prover_id are.
    """

    def __init__(self, writes, prover_id=None):
        self.writes = dict(writes)
        if prover_id is None:
            prover_id = self.id_from_parts(
                self.round_part(t, s) for t, s in sorted(self.writes.items())
            )
        super().__init__(self._reply, prover_id=prover_id)

    @staticmethod
    def round_part(t, s):
        """One write's part of a prover_id: round t writes s."""
        return "%d:%s" % (t, s)

    @staticmethod
    def id_from_parts(parts):
        """The prover_id of the schedule whose writes have these
        round_part strings, in round order."""
        return "schedule{%s}" % ",".join(parts)

    def _reply(self, round_index, comm):
        return self.writes.get(round_index, comm)

    def __eq__(self, other):
        return type(other) is type(self) and (
            (other.writes, other.prover_id) == (self.writes, self.prover_id))

    def __hash__(self):
        return hash(self.prover_id)


class ExplicitRoundProver(Prover):
    """General per-round unitaries on an explicit (comm, tape) basis.

    round_ops maps round index -> (basis, matrix) where basis is a list
    of (comm, tape) pairs and matrix columns give the image of each
    basis vector.  Pairs outside the basis are left unchanged.  Used for
    provers beyond the classical responders (e.g. superposing replies).
    """

    def __init__(self, round_ops, prover_id="explicit"):
        self.round_ops = {}
        for r, (basis, matrix) in round_ops.items():
            basis = [tuple(p) for p in basis]
            if len(set(basis)) != len(basis):
                raise ValidationError("duplicate basis pair in round %d" % r)
            ok, defect = check_unitary(matrix, tau=1e-9)
            if len(matrix) != len(basis):  # square, or check_unitary raised
                raise ValidationError(
                    "round-%d prover basis has %d pairs but its matrix is "
                    "%dx%d" % (r, len(basis), len(matrix), len(matrix)))
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


def acts_as_responder(prover):
    """Whether prover's apply is HistoryResponder.apply, so that respond
    gives its whole action: the reply, and the record it logs.
    """
    return type(prover).apply is HistoryResponder.apply


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


def _probe(prover, comm_alphabet, symbols, rounds):
    """Yield (round, comm, tape, prover.apply(round, comm, tape)) for the
    probed triples whose comm is in symbols.  A responder never sees its
    tape, so it is probed on the empty tape; any other prover on every
    tape it reaches, the actions on the whole alphabet giving the tapes
    of the next round, with one apply call per triple.  A round that
    reaches more than ENUMERATION_BUDGET tapes raises BudgetError.
    """
    if acts_as_responder(prover):
        for t in range(1, rounds + 1):
            for g in symbols:
                yield t, g, (), prover.apply(t, g, ())
        return
    tapes = {()}
    for t in range(1, rounds + 1):
        nxt = set()
        for tape in sorted(tapes, key=repr):
            for g in comm_alphabet:
                action = prover.apply(t, g, tape)
                nxt.update(tape2 for _, _, tape2 in action)
                if g in symbols:
                    yield t, g, tape, action
        if len(nxt) > ENUMERATION_BUDGET:
            raise BudgetError(
                "reachable-tape closure exceeded %d entries at round %d"
                % (ENUMERATION_BUDGET, t)
            )
        tapes = nxt


def _report(name, probe, good):
    """The report of the first probed action good(tape, action) refuses,
    or ok with the last round probed.
    """
    checked = 0
    for t, g, tape, out in probe:
        checked = t
        if not good(tape, out):
            return ProverReport(ok=False, property_name=name,
                                witness=(t, g, tape, tuple(out)),
                                rounds_checked=t)
    return ProverReport(ok=True, property_name=name, rounds_checked=checked)


def check_classical(prover, comm_alphabet, rounds, tau=1e-9):
    """A prover is classical when every reachable action is a plain move:
    a single output component with amplitude 1.

    A responder is classical by its type and is not probed, so its reply
    is never called; the report names the rounds the probe would have
    checked.  Any other prover, or a responder under a negative or nan
    tau, is asked for its action on every round x comm symbol x
    reachable tape, and refused with BudgetError when a round reaches
    more than ENUMERATION_BUDGET tapes.
    """
    if acts_as_responder(prover) and tau >= 0:
        checked = max(rounds, 0) if comm_alphabet else 0
        return ProverReport(ok=True, property_name="classical",
                            rounds_checked=checked)
    return _report(
        "classical", _probe(prover, comm_alphabet, comm_alphabet, rounds),
        lambda tape, out: len(out) == 1 and not abs(out[0][0] - 1.0) > tau)


def check_committed(prover, comm_alphabet, rounds, tau=1e-9):
    """A prover is committed when it never touches a blank comm cell:
    on observing the blank it must reply blank and leave the tape alone,
    for every history reachable at that round.

    A responder is asked only respond(t, BLANK) each round, which must
    give (BLANK, None); a failing round's witness holds the action
    HistoryResponder.apply makes of that reply and record on the empty
    tape, as the probe reports it.  Any other prover, or a responder
    under a negative or nan tau, is asked for its action on the blank
    at every round x reachable tape.  The blank can always sit in the
    comm cell, so the tape closure walks it even when comm_alphabet
    lacks it.  A round that reaches more than ENUMERATION_BUDGET tapes
    raises BudgetError.
    """
    if acts_as_responder(prover) and tau >= 0:
        for t in range(1, rounds + 1):
            reply, record = prover.respond(t, BLANK)
            if not (reply == BLANK and record is None):
                tape = () if record is None else (record,)
                return ProverReport(
                    ok=False, property_name="committed",
                    witness=(t, BLANK, (), ((1.0, reply, tape),)),
                    rounds_checked=t,
                )
        return ProverReport(ok=True, property_name="committed",
                            rounds_checked=max(rounds, 0))
    alphabet = tuple(comm_alphabet)
    if BLANK not in alphabet:
        alphabet += (BLANK,)
    return _report(
        "committed", _probe(prover, alphabet, (BLANK,), rounds),
        lambda tape, out: (len(out) == 1 and abs(out[0][0] - 1.0) <= tau
                           and out[0][1] == BLANK and out[0][2] == tape))


def schedule_options(comm_alphabet, rounds, committed_only=False):
    """The per-round options of the fixed message schedules: None leaves
    the comm cell alone, a symbol writes it; committed_only restricts
    writes to the blank (erasure).  Raises BudgetError when the family,
    len(options) ** rounds schedules, exceeds ENUMERATION_BUDGET.
    """
    if committed_only:
        options = [None, BLANK]
    else:
        options = [None] + list(comm_alphabet)
    total = len(options) ** rounds
    if total > ENUMERATION_BUDGET:
        raise BudgetError(
            "schedule family has %d members, over the %d budget"
            % (total, ENUMERATION_BUDGET)
        )
    return options


def enumerate_schedules(comm_alphabet, rounds, committed_only=False):
    """All fixed message schedules over the given number of rounds, each
    round taking one of schedule_options in turn, the first round
    varying slowest.  Raises BudgetError (on the first next()) when the
    family exceeds ENUMERATION_BUDGET.

    Each schedule's prover_id is the one MessageSchedule(writes) makes,
    joined from round parts formatted once per family: the rounds come
    in order, so no schedule sorts or formats its writes.
    """
    options = schedule_options(comm_alphabet, rounds, committed_only)
    per_round = [[None if s is None
                  else (t, s, MessageSchedule.round_part(t, s))
                  for s in options] for t in range(1, rounds + 1)]
    for combo in itertools.product(*per_round):
        picked = [choice for choice in combo if choice is not None]
        yield MessageSchedule(
            {t: s for t, s, _ in picked},
            prover_id=MessageSchedule.id_from_parts(
                part for _, _, part in picked))
