"""Simulation engine for verifier-prover runs.

Global configurations are (state, head, comm, tape) tuples carried in a
sparse amplitude vector.  A run lives in a RunState, and run_protocol is
a loop over its methods:

- verifier_step() takes the next verifier step (_verifier_step, shared
  with run_mcomp), banks the halting mass and the pruned mass, runs the
  conservation check and appends the step record; it returns whether a
  prover round follows;
- prover_round(prover) lets the prover act on every live configuration:
  a responder's round relabels the keys, any other prover's round sums
  and prunes;
- fork() copies the state, so two continuations of one prefix each go
  their own way; forks share the run's tape table.

The tape table interns each distinct prover history tape once and keys
configurations by the tape's small integer id, so a key hashes in O(1)
however long the history grows.  A tape is entered as its parent's id
plus one new record: a prover that acts as a responder
(provers.acts_as_responder, true of the identity prover, message
schedules and all other responders; asked once per round) is asked for
its reply and record through HistoryResponder.respond, and the engine
looks the extended tape up by (parent id, record), never hashing the
whole tape.  Other provers still see and return tape tuples.  A tape
they return is entered record by record from the id of the tape passed
in when it extends that tape, from the empty tape otherwise, and the
table keeps the prover's own tuple, so a tuple handed back in a later
round is found by identity.  Step records map the ids back to tuples.

Each step is one pass over the entries it produces.  Amplitudes are
summed into a plain dict, a sum of exactly 0j dropping its key as
SparseVector.add does, so dict order and every float sum stay those of
SparseVector.  The verifier step then classifies each summed entry by
the verifier's accepting and rejecting sets, measures the query mass of
the survivors, prunes them (after the query mass) and keeps the
survivors' interaction counts, all in one loop.  A responder's prover
round is a relabel, bit-identical to summing: each (q, k, g, i) becomes
(q, k, reply, i') with its amplitude and count copied, since the
responder's records keep the keys apart and every amplitude has passed
the verifier step's prune; a respond that merges two keys gets the
summing round.  Any other prover's round sums its actions and prunes.
When one configuration is live, as in every run of a branch-free
verifier (schedule enumeration, committed schedules), a verifier step
on a one-target row computes that target directly.  It gives the
general pass's one-entry result bit for bit, with the same row lookup,
masses, counts and checks; several configurations or targets can meet
and are summed, so the step picks its path from the live size alone.
run_mcomp calls the kernel with no prune, projects out the non-blank
comm and then prunes the blank-comm survivors.

Runs and the schedule DP read the verifier's live move tables (the
stored core rows, whose lookups return the guard rows the verifier's
guards imply), so they never complete a table.  The premises of a
certified sweep do not depend on the input: branch-freeness for the
one-way schedule DP, the announcement map for announced dominance.
They are the verifier's cached properties branching and announcement,
so each is analysed once per verifier, refusals included.
The prover acts between verifier steps; its apply must be a function of
(round, comm, tape) alone, since the engine calls it once per distinct
(comm, tape) in each round and reuses that action for every
configuration carrying the pair.  Every run stops simulating at the step
whose halting projection (and prune) empties the live vector: under
measure-many semantics no later step can bank any mass.  A one-way run
still reports |x| + 2 steps; the steps it skips have empty step records
with query mass 0.  Two-way runs also stop when the halted mass passes
the halt target or the step budget runs out.  Truncated and pruned mass
are reported as residual and pruned, and never renormalized.

Schedule enumeration walks the schedule trie depth first, in
enumerate_schedules order, forking the run state once per option in
each prover round.  Where a run stops (empty live vector, or the last
step), every schedule below that node gives the same run, so the subtree
is counted, not simulated; runs still counts schedules.  The best
schedule is rerun with the caller's EngineConfig to give the witness.
"""

import time
from dataclasses import dataclass, field, replace

from .automata import (
    BLANK, padded_input,
)
from .errors import BudgetError, EngineError, FamilyInadequacyError
from .linalg import SparseVector
from .provers import (
    IdentityProver, MessageSchedule, acts_as_responder, schedule_options,
)


@dataclass
class EngineConfig:
    """Run-time knobs shared by all simulation entry points."""

    tau: float = 1e-9
    prune: float = 1e-12
    max_steps: int = None
    tape_trunc: int = None
    record_steps: bool = False
    check_conservation: bool = False
    count_interactions: bool = False


def resolve_max_steps(verifier, x, cfg=None):
    """Step budget: one-way runs report exactly |x| + 2 steps; two-way
    runs honour an explicit override, then the verifier's suggested
    linear form, then a 4*(|x|+2) default.  An override below 1 raises
    EngineError; the verifier's own hint is checked when it is built.
    """
    cells = len(x) + 2
    if not verifier.two_way:
        return cells
    if cfg is not None and cfg.max_steps is not None:
        budget = int(cfg.max_steps)
        if budget < 1:
            raise EngineError(
                "two-way step budget must be >= 1, got %d" % budget)
        return budget
    hint = verifier.metadata.get("suggested_max_steps")
    if isinstance(hint, dict):
        return int(hint.get("per_cell", 0)) * cells + int(hint.get("base", 0))
    if isinstance(hint, (int, float)):
        return int(hint)
    return 4 * cells


@dataclass
class StepRecord:
    step: int
    live: list
    p_acc: float
    p_rej: float
    query_mass: float


@dataclass
class RunResult:
    input: str
    prover_id: str
    p_acc: float
    p_rej: float
    residual: float
    steps: int
    interactions: int = None
    budget_exhausted: bool = False
    step_records: list = None
    wallclock: float = 0.0
    pruned: float = 0.0

    @property
    def acceptance_bounds(self):
        """(certain, possible) acceptance; possible adds unmeasured mass."""
        lo = min(max(self.p_acc, 0.0), 1.0)
        return lo, min(1.0, lo + max(self.residual, 0.0) + self.pruned)


def _verifier_step(verifier, cells, live, counts, prune):
    """One verifier step over the per-cell move tables, then, in one pass
    over the summed entries, the halting projection, the query mass and
    the prune.

    Amplitudes are summed into a plain dict in target order, and a sum
    that is exactly 0j drops its key, as SparseVector.add does.  Each
    summed entry is then banked as accepted or rejected mass by its
    state, or survives; a survivor's mass counts towards the query mass
    when its comm cell is not blank, before the prune drops it when
    |a| <= prune (none when prune <= 0).  Returns (survivors, accepted
    mass, rejected mass, query mass, pruned mass, each survivor's largest
    interaction count when counts is given, else None).

    When live holds one configuration and its row has one target, that
    target is computed directly, with no summing dict, no second pass
    and no counts dicts.  The row is the same MoveTable lookup, so a
    missing row raises the same ValidationError, and every value is the
    one the general path gives a one-entry sum: z = 0j + a * amp keeps
    the signed zeros of get(key2, 0j) + a * amp, an exact 0j is dropped,
    and each mass is added to 0.0 as in the pass.  Each run of a
    branch-free verifier, as in schedule enumeration and committed
    schedules, carries one configuration per step; a step with several
    configurations or targets sums them, so it keeps the general path.
    """
    length = len(cells)
    if len(live) == 1:
        [(key, a)] = live.items()
        q, k, g, y = key
        row = cells[k][q, g]
        if len(row) == 1:
            [(amp, q2, g2, d)] = row
            survivors = SparseVector()
            survivor_counts = {} if counts is not None else None
            accepted = rejected = query_mass = pruned = 0.0
            z = 0j + a * amp
            if z != 0j:
                w = (z * z.conjugate()).real
                if q2 in verifier.accepting_set:
                    accepted += w
                elif q2 in verifier.rejecting_set:
                    rejected += w
                else:
                    if g2 != BLANK:
                        query_mass += w
                    if abs(z) <= prune:
                        pruned += w
                    else:
                        key2 = (q2, (k + d) % length, g2, y)
                        survivors[key2] = z
                        if counts is not None:
                            base = counts[key]
                            survivor_counts[key2] = (
                                base + 1 if g2 != BLANK else base)
            return (survivors, accepted, rejected, query_mass, pruned,
                    survivor_counts)
    nxt = {}
    get = nxt.get
    counting = counts is not None
    if counting:
        halting = verifier.halting_set
        nxt_counts = {}
        count_get = nxt_counts.get
    for key, a in live.items():
        q, k, g, y = key
        if counting:
            base = counts[key]
        for amp, q2, g2, d in cells[k][q, g]:
            key2 = (q2, (k + d) % length, g2, y)
            z = get(key2, 0j) + a * amp
            if z == 0j:
                nxt.pop(key2, None)
            else:
                nxt[key2] = z
            if counting and q2 not in halting:
                c = base + 1 if g2 != BLANK else base
                if count_get(key2, -1) < c:
                    nxt_counts[key2] = c
    accepting = verifier.accepting_set
    rejecting = verifier.rejecting_set
    survivors = SparseVector()
    survivor_counts = {} if counting else None
    accepted = rejected = query_mass = pruned = 0.0
    for key, a in nxt.items():
        w = (a * a.conjugate()).real
        q2 = key[0]
        if q2 in accepting:
            accepted += w
        elif q2 in rejecting:
            rejected += w
        else:
            if key[2] != BLANK:
                query_mass += w
            if abs(a) <= prune:
                pruned += w
            else:
                survivors[key] = a
                if counting:
                    survivor_counts[key] = nxt_counts[key]
    return survivors, accepted, rejected, query_mass, pruned, survivor_counts


def _pad_empty_steps(records, done, steps, p_acc, p_rej):
    """Append the records of the steps done+1..steps that a one-way run
    skipped once its live vector was empty; nothing when records is None.
    """
    if records is not None:
        records.extend(
            StepRecord(step=u, live=[], p_acc=p_acc, p_rej=p_rej,
                       query_mass=0.0)
            for u in range(done + 1, steps + 1))


class RunState:
    """One run between its steps: live, counts, p_acc, p_rej, pruned,
    records, the step t last taken and the tape table.  run_protocol is
    a loop over it; schedule enumeration forks it.

    verifier_step() advances t and takes verifier step t, and tells
    whether prover round t follows; prover_round(prover) applies the
    prover's round t; fork() gives an independent copy that shares the
    tape table; result(prover) is the RunResult of the finished run.
    Both steps replace live and counts rather than change them, so a
    fork shares them until it steps and copies only the step records.
    """

    def __init__(self, verifier, x, cfg):
        self.verifier = verifier
        self.x = x
        self.cfg = cfg
        self.cells = [verifier.live_moves[s]
                      for s in padded_input(x, verifier.input_alphabet)]
        self.max_steps = resolve_max_steps(verifier, x, cfg)
        self.trunc = (cfg.tape_trunc if cfg.tape_trunc is not None
                      else self.max_steps + 2)
        self.halt_target = 1.0 - 0.5 * cfg.tau
        # the tape table, shared by every fork: configurations carry the
        # id i of their tape tapes[i], and tape_ids maps (parent id, new
        # record) to the id of the parent's tape extended by that record
        self.tapes = [()]
        self.tape_ids = {}
        start = (verifier.initial, 0, BLANK, 0)
        self.live = SparseVector({start: 1.0 + 0j})
        self.counts = {start: 0} if cfg.count_interactions else None
        self.p_acc = 0.0
        self.p_rej = 0.0
        self.pruned = 0.0
        self.max_queries = 0
        self.records = [] if cfg.record_steps else None
        self.t = 0
        self.budget_exhausted = False
        self.started = time.perf_counter()

    def verifier_step(self):
        """Verifier step t + 1 with its halting projection and prune, the
        interaction counts, the conservation check and the step record.
        Returns whether a prover round follows: False once the step
        budget is spent, the live vector is empty or, on a two-way run,
        the halted mass reaches the halt target.
        """
        self.t = t = self.t + 1
        cfg = self.cfg
        live, accepted, rejected, query_mass, pruned, counts = (
            _verifier_step(self.verifier, self.cells, self.live, self.counts,
                           cfg.prune))
        self.live = live
        self.p_acc += accepted
        self.p_rej += rejected
        self.pruned += pruned
        if counts is not None:
            self.counts = counts
            if counts:
                self.max_queries = max(self.max_queries, max(counts.values()))
        if cfg.check_conservation:
            total = self.p_acc + self.p_rej + live.norm_sq() + self.pruned
            if abs(total - 1.0) > cfg.tau:
                raise EngineError(
                    "probability not conserved at step %d: total %.12g" % (t, total)
                )
        if self.records is not None:
            tapes = self.tapes
            self.records.append(StepRecord(
                step=t, live=sorted(((q, k, g, tapes[i]), a)
                                    for (q, k, g, i), a in live.items()),
                p_acc=self.p_acc, p_rej=self.p_rej, query_mass=query_mass,
            ))
        if t == self.max_steps:
            self.budget_exhausted = bool(live) and self.verifier.two_way
            return False
        if not live:
            return False
        return not (self.verifier.two_way
                    and self.p_acc + self.p_rej >= self.halt_target)

    def prover_round(self, prover):
        """Prover round t: one action per distinct (comm, tape id), shared
        by every configuration that carries that pair.

        A responder's round is a relabel: (q, k, g, i) becomes (q, k,
        reply, i') with its amplitude and interaction count unchanged,
        and nothing is summed or pruned.  That is bit-identical to
        summing: a responder logs each non-blank observation under the
        round, so no two configurations meet; every amplitude has passed
        the verifier step's prune; and a verifier-step survivor holds no
        -0.0, so 0j + a * 1.0 == a.  A respond that is not injective on
        the live keys leaves fewer entries, and then the round is summed
        with the actions already asked for.  One live configuration
        takes this same relabel: a branch of its own gained too little
        to tell from the noise on schedule enumeration, whose runs spend
        their time in the verifier step.  Every other prover's
        amplitudes are summed as in _verifier_step, then one pass keeps
        the entries with |a| > prune and banks the rest as pruned mass.
        """
        t = self.t
        live = self.live
        counts = self.counts
        counting = counts is not None
        actions = {}
        if acts_as_responder(prover):
            moved = SparseVector()
            moved_counts = {}
            for key, a in live.items():
                q, k, g, i = key
                move = actions.get((g, i))
                if move is None:
                    move = actions[g, i] = self._respond(prover, t, g, i)
                g2, i2 = move
                key2 = (q, k, g2, i2)
                moved[key2] = a
                if counting:
                    moved_counts[key2] = counts[key]
            if len(moved) == len(live):
                self.live = moved
                if counting:
                    self.counts = moved_counts
                return
            actions = {pair: ((1.0, g2, i2),)
                       for pair, (g2, i2) in actions.items()}
        nxt = {}
        get = nxt.get
        if counting:
            nxt_counts = {}
            count_get = nxt_counts.get
        for key, a in live.items():
            q, k, g, i = key
            action = actions.get((g, i))
            if action is None:
                action = actions[g, i] = self._action(prover, t, g, i)
            if counting:
                base = counts[key]
            for pamp, g2, i2 in action:
                key2 = (q, k, g2, i2)
                z = get(key2, 0j) + a * pamp
                if z == 0j:
                    nxt.pop(key2, None)
                else:
                    nxt[key2] = z
                if counting and count_get(key2, -1) < base:
                    nxt_counts[key2] = base
        prune = self.cfg.prune
        live = SparseVector()
        pruned = 0.0
        for key, a in nxt.items():
            if abs(a) <= prune:
                pruned += (a * a.conjugate()).real
            else:
                live[key] = a
        self.pruned += pruned
        self.live = live
        if counting:
            self.counts = nxt_counts

    def _respond(self, prover, t, g, i):
        """A responder's round-t move on (comm g, tape id i) as (reply,
        tape id'): the record it logs is appended by id, after the output
        tape is checked against the truncation.
        """
        reply, record = prover.respond(t, g)
        if len(self.tapes[i]) + (record is not None) > self.trunc:
            raise _truncation_error(self.trunc)
        return reply, i if record is None else self._tape_id(i, record)

    def _action(self, prover, t, g, i):
        """The round-t action of a prover that is not a responder on
        (comm g, tape id i), as [(amp, comm', tape id')] from its apply,
        each output tape checked against the truncation.
        """
        y = self.tapes[i]
        action = []
        for pamp, g2, y2 in prover.apply(t, g, y):
            if len(y2) > self.trunc:
                raise _truncation_error(self.trunc)
            i2 = i
            if y2 is not y:
                # a tape that extends y is entered from y's id, any other
                # from the empty tape, one record at a time
                start = len(y)
                if y2[:start] != y:
                    start = i2 = 0
                for record in y2[start:]:
                    i2 = self._tape_id(i2, record)
                # keep the prover's own tuple: when it hands that tuple
                # back next round, the identity test above catches it
                self.tapes[i2] = y2
            action.append((pamp, g2, i2))
        return action

    def _tape_id(self, i, record):
        """The id of tapes[i] + (record,), entered on first use: a logged
        tape is found by one small (id, record) key, never hashed whole.
        """
        key = (i, record)
        j = self.tape_ids.get(key)
        if j is None:
            j = self.tape_ids[key] = len(self.tapes)
            self.tapes.append(self.tapes[i] + (record,))
        return j

    def fork(self):
        """An independent copy of this state; the tape table is shared."""
        twin = object.__new__(RunState)
        twin.__dict__.update(self.__dict__)
        if self.records is not None:
            twin.records = list(self.records)
        return twin

    def result(self, prover):
        """The RunResult of this finished run, made with prover.  A
        one-way run reports |x| + 2 steps: its skipped steps get empty
        records.
        """
        steps = self.t
        if not self.verifier.two_way:
            _pad_empty_steps(self.records, steps, self.max_steps,
                             self.p_acc, self.p_rej)
            steps = self.max_steps
        return RunResult(
            input=self.x, prover_id=prover.prover_id, p_acc=self.p_acc,
            p_rej=self.p_rej, residual=self.live.norm_sq(), steps=steps,
            interactions=(self.max_queries if self.cfg.count_interactions
                          else None),
            budget_exhausted=self.budget_exhausted,
            step_records=self.records,
            wallclock=time.perf_counter() - self.started,
            pruned=self.pruned,
        )


def _truncation_error(trunc):
    return BudgetError(
        "prover history exceeded the %d-record truncation" % trunc)


def run_protocol(verifier, x, prover=None, cfg=None):
    """Simulate one interactive run and return a RunResult."""
    cfg = cfg or EngineConfig()
    prover = prover or IdentityProver()
    state = RunState(verifier, x, cfg)
    while state.verifier_step():
        state.prover_round(prover)
    return state.result(prover)


def interaction_count(verifier, x, prover, cfg=None):
    """Largest number of non-blank-comm verifier steps along any live path."""
    cfg = replace(cfg or EngineConfig(), count_interactions=True)
    return run_protocol(verifier, x, prover, cfg).interactions


# -- proverless comm-projection runs ----------------------------------------


@dataclass
class MCompTrace:
    input: str
    masses: list
    p_acc: float
    p_rej: float
    residual: float
    steps: int
    pruned: float = 0.0
    step_records: list = None


def run_mcomp(verifier, x, cfg=None):
    """Run the verifier alone, measuring the comm cell after every step.

    After each verifier step and halting projection, the squared norm of
    the live component with a non-blank comm cell is recorded as that
    step's query mass, then that component is projected out (discarded,
    not renormalized).  Only one-way verifiers are supported.  The masses
    list starts with a step-0 entry of 0; pruned is the mass the prune
    threshold dropped from the blank-comm survivors.  The run reports
    |x| + 2 steps but stops simulating at the step that empties the live
    vector; each skipped step has mass 0.0 and an empty step record.
    """
    if verifier.two_way:
        raise EngineError(
            "comm-projection runs are defined for one-way verifiers only"
        )
    cfg = cfg or EngineConfig()
    cells = [verifier.live_moves[s]
             for s in padded_input(x, verifier.input_alphabet)]
    max_steps = len(cells)
    live = SparseVector({(verifier.initial, 0, BLANK, ()): 1.0 + 0j})
    masses = [0.0]
    p_acc = 0.0
    p_rej = 0.0
    pruned = 0.0
    records = [] if cfg.record_steps else None
    for t in range(1, max_steps + 1):
        # the kernel does not prune: the non-blank comm is projected out
        # first, and the prune sees the blank-comm survivors only
        live, accepted, rejected, query_mass, _, _ = _verifier_step(
            verifier, cells, live, None, 0.0)
        p_acc += accepted
        p_rej += rejected
        live = SparseVector(
            (key, a) for key, a in live.items() if key[2] == BLANK)
        pruned += live.prune(cfg.prune)
        masses.append(query_mass)
        if records is not None:
            records.append(StepRecord(
                step=t, live=sorted((key[:3], a) for key, a in live.items()),
                p_acc=p_acc, p_rej=p_rej, query_mass=query_mass,
            ))
        if not live:
            break
    done = len(masses) - 1
    masses.extend([0.0] * (max_steps - done))
    _pad_empty_steps(records, done, max_steps, p_acc, p_rej)
    return MCompTrace(
        input=x, masses=masses, p_acc=p_acc, p_rej=p_rej,
        residual=live.norm_sq(), steps=max_steps, pruned=pruned,
        step_records=records,
    )


def query_weight(verifier, prefix, suffix, cfg=None):
    """Total query mass charged to the suffix cells of input prefix+suffix.

    Step t reads tape position t-1, so the suffix occupies steps
    len(prefix)+2 .. len(prefix)+len(suffix)+1 of the combined run.
    """
    trace = run_mcomp(verifier, prefix + suffix, cfg)
    lo = len(prefix) + 2
    hi = len(prefix) + len(suffix) + 1
    return float(sum(trace.masses[lo:hi + 1]))


# -- message-schedule optimum ------------------------------------------------


@dataclass
class ScheduleSweep:
    """A certified best-schedule value; witness is the RunResult, run
    with the caller's EngineConfig, that attains best_p.
    """

    input: str
    best_p: float
    schedule: dict
    exact: bool
    method: str
    runs: int = 0
    witness: RunResult = None


def _require_schedule_adequacy(verifier):
    """Raise FamilyInadequacyError unless the verifier's live rows are
    branch-free (VerifierSpec.branching), the one-way DP's premise."""
    if verifier.branching is not None:
        raise FamilyInadequacyError(verifier.branching)


def announcement_map(verifier):
    """Map each live state to the single comm symbol its authored rows use.

    A verifier is *announced* when every live state q has authored rows
    under exactly one comm symbol A(q), and every authored component that
    targets a live state writes that state's symbol.  Every other live
    (state, comm) slot is then a reject-guard by construction, which is
    what makes message-schedule sweeps collapse: a write either repeats
    the announcement or sends that component into a guard.

    Returns a fresh dict {state: symbol}.  Raises FamilyInadequacyError
    when the premise fails, naming the offending state or component.
    The analysis is the verifier's cached announcement, so it runs once
    per verifier and a refusal is raised afresh on every later call.
    """
    announce, reason = verifier.announcement
    if reason is not None:
        raise FamilyInadequacyError(reason)
    return dict(announce)


def best_schedule_acceptance(verifier, x, cfg=None, method="auto"):
    """Exact maximum acceptance over all fixed message schedules.

    For one-way verifiers whose live rows are branch-free the run has a
    single live configuration at each step, so a DP over (step, state,
    comm) with the write chosen greedily per round (_schedule_dp) is
    exactly the optimum over every schedule (and every adaptive prover).
    Branching one-way verifiers raise FamilyInadequacyError.

    Two-way verifiers are covered when they are *announced* (see
    announcement_map): each round a schedule's write either repeats the
    current announcement, which changes nothing but the history record,
    or diverts that component into a reject-guard at the next step.
    History records already separate components with different
    announcements, so the surviving mass evolves exactly as under the
    do-nothing schedule and a diverted component only removes its own
    non-negative acceptance term.  The do-nothing schedule is therefore
    an exact optimum over all message schedules; the transparent prover
    (no history records at all) is run as well, both through
    sweep_family, and the larger upper bound is reported.  Non-announced
    two-way verifiers raise FamilyInadequacyError.  The DP/enumeration
    methods are one-way options; passing one for a two-way verifier
    raises EngineError.

    method="enumeration" is the brute-force oracle for the one-way
    optimum.  It walks the schedule trie depth first, in
    enumerate_schedules order, forking the run once per option in each
    prover round; a subtree whose live vector is empty (or that ends at
    the last step) is counted, not simulated.  runs still counts every
    schedule, the first maximiser wins, and every fork keeps the plain
    run's checks: conservation, prune, tape truncation, and the family
    budget (provers.ENUMERATION_BUDGET schedules) before any step.

    The sweep's witness is the run attaining best_p, made with cfg: the
    DP's reconstructed schedule, enumeration's best schedule rerun once,
    or the family witness under announced dominance.
    """
    cfg = cfg or EngineConfig()
    if method not in ("auto", "dp", "enumeration"):
        raise EngineError("unknown sweep method %r" % (method,))
    if verifier.two_way:
        if method != "auto":
            raise EngineError(
                "two-way verifiers are certified by announced dominance "
                "only; method=%r does not apply" % (method,)
            )
        announcement_map(verifier)
        family = sweep_family(
            verifier, x,
            (MessageSchedule({}, prover_id="leave-all"), IdentityProver()),
            cfg)
        witness = family.witness
        return ScheduleSweep(
            input=x, best_p=float(family.best_upper), schedule={},
            exact=all(r.residual + r.pruned <= cfg.tau for r in family.rows),
            method="announced-dominance:%s" % witness.prover_id,
            runs=len(family.rows), witness=witness,
        )
    _require_schedule_adequacy(verifier)
    if method in ("auto", "dp"):
        return _schedule_dp(verifier, x, cfg)
    return _schedule_enumeration(verifier, x, cfg)


def _schedule_dp(verifier, x, cfg):
    """The one-way schedule DP over nodes (state, comm) per step.

    A one-way head reads cell t - 1 at step t, so the head is not part of
    a node.  A forward pass collects each step's reachable nodes and
    reads their rows, step by step: when a table has several defective
    rows (missing, or with a non-unimodular amplitude), the first one in
    step order is raised.  A backward pass then values every node: 1
    when its row accepts, 0 when it rejects or at the last step, else
    the best over the next round's writes, the first maximiser in
    comm_alphabet order winning.  runs counts the nodes.
    """
    cells = [verifier.live_moves[s]
             for s in padded_input(x, verifier.input_alphabet)]
    length = len(cells)

    # layers[t - 1]: {node: (value, None) or (None, (q2, g2))} at step t
    layers = []
    frontier = {(verifier.initial, BLANK): None}
    for t in range(1, length + 1):
        layer = {}
        reached = {}
        for q, g in frontier:
            amp, q2, g2, _d = cells[t - 1][q, g][0]
            if abs(abs(amp) - 1.0) > 1e-9:
                raise FamilyInadequacyError(
                    "non-unimodular branch-free amplitude at (%r, %r)"
                    % (q, g))
            if verifier.is_accepting(q2):
                layer[q, g] = (1.0, None)
            elif verifier.is_rejecting(q2) or t == length:
                layer[q, g] = (0.0, None)
            else:
                layer[q, g] = (None, (q2, g2))
                for s in verifier.comm_alphabet:
                    reached[q2, s] = None
        layers.append(layer)
        if not reached:
            break
        frontier = reached

    choice = {}
    value = {}
    for t in range(len(layers), 0, -1):
        later, value = value, {}
        for node, (result, move) in layers[t - 1].items():
            if move is not None:
                q2, g2 = move
                result, best_s = -1.0, None
                for s in verifier.comm_alphabet:
                    v = later[q2, s]
                    if v > result:
                        result, best_s = v, s
                choice[t, node] = (best_s, q2, g2)
            value[node] = result
    # reconstruct one optimal schedule
    writes = {}
    t, node = 1, (verifier.initial, BLANK)
    while (t, node) in choice:
        s, q2, g2 = choice[t, node]
        if s != g2:
            writes[t] = s
        t, node = t + 1, (q2, s)
    return ScheduleSweep(
        input=x, best_p=float(value[verifier.initial, BLANK]),
        schedule=writes, exact=True, method="dp",
        runs=sum(len(layer) for layer in layers),
        witness=run_protocol(verifier, x, MessageSchedule(writes), cfg),
    )


def _schedule_enumeration(verifier, x, cfg):
    """Walk the schedule trie depth first, in enumerate_schedules order.

    A node is a run state after a verifier step; its children are the
    forks that take one option each in the next prover round.  Where a
    run stops (live vector empty, or the last step), every schedule
    below the node gives the same run: they are counted, not run, and
    the first of them (no later writes) stands for them.  The first
    maximiser wins; it is rerun with cfg to give the witness.
    """
    rounds = len(x) + 1
    options = schedule_options(verifier.comm_alphabet, rounds)
    # in round t the schedule writing s every round acts as any
    # schedule whose round-t option is s
    provers = [MessageSchedule({} if s is None
                               else dict.fromkeys(range(1, rounds + 1), s))
               for s in options]
    last = len(options) - 1
    walk_cfg = replace(cfg, record_steps=False, count_interactions=False)
    best_p = best_writes = None
    runs = 0
    # (state, prover of the round before its next step, writes so far);
    # a state is forked when its children are pushed, before any steps
    stack = [(RunState(verifier, x, walk_cfg), None, {})]
    while stack:
        state, prover, writes = stack.pop()
        if prover is not None:
            state.prover_round(prover)
        if not state.verifier_step():
            runs += len(options) ** (rounds - state.t + 1)
            if best_p is None or state.p_acc > best_p:
                best_p, best_writes = state.p_acc, writes
            continue
        t = state.t
        for j in range(last, -1, -1):
            s = options[j]
            stack.append((state if j == last else state.fork(), provers[j],
                          writes if s is None else {**writes, t: s}))
    return ScheduleSweep(
        input=x, best_p=float(best_p), schedule=best_writes,
        exact=True, method="enumeration", runs=runs,
        witness=run_protocol(verifier, x, MessageSchedule(best_writes), cfg),
    )


# -- family sweeps -----------------------------------------------------------


@dataclass
class FamilySweep:
    """One run per prover of a family, in family order, and the largest
    acceptance upper bound among them: the family's worst case.
    """

    input: str
    best_upper: float
    rows: list = field(default_factory=list)

    @property
    def witness(self):
        """The row attaining best_upper; the first one on ties."""
        return max(self.rows, key=lambda result: result.acceptance_bounds[1])


def sweep_family(verifier, x, provers, cfg=None):
    """Run each prover in the family; report the worst-case acceptance.
    A hashable prover equal to an earlier one (see MessageSchedule)
    reuses its row; an unhashable prover runs each time it appears.

    Raises EngineError for an empty family, which has no worst case.
    """
    cfg = cfg or EngineConfig()
    provers = list(provers)
    if not provers:
        raise EngineError("empty prover family: no run gives a worst case")
    runs, rows = {}, []
    for prover in provers:
        try:
            result = runs[prover]
        except KeyError:
            result = runs[prover] = run_protocol(verifier, x, prover, cfg)
        except TypeError:
            result = run_protocol(verifier, x, prover, cfg)
        rows.append(result)
    best_upper = max(0.0, *(result.acceptance_bounds[1] for result in rows))
    return FamilySweep(input=x, best_upper=best_upper, rows=rows)
