"""Simulation engine for verifier-prover runs.

Global configurations are (state, head, comm, tape) tuples carried in a
sparse amplitude vector.  run_protocol interns each distinct prover
history tape once per run and keys its configurations by the tape's
small integer id, so a key hashes in O(1) however long the history
grows; provers still see and return tape tuples, and step records map
the ids back to tuples.  One verifier step (_verifier_step, shared by
run_protocol and run_mcomp) applies the move table of each scanned symbol,
moves the head and banks the halting mass; the schedule DP and the step
operator read the same move tables.  The prover acts between verifier
steps; its apply must be a function of (round, comm, tape) alone, since
the engine calls it once per distinct (comm, tape) in each round and
reuses that action for every configuration carrying the pair.  Every
run stops simulating at the step whose halting projection (and prune)
empties the live vector: under measure-many semantics no later step can
bank any mass.  A one-way run still reports |x| + 2 steps; the steps it
skips have empty step records with query mass 0.  Two-way runs also stop
when the halted mass passes the halt target or the step budget runs out.
Truncated and pruned mass are reported as residual and pruned, and never
renormalized.
"""

import time
from dataclasses import dataclass, field

from .automata import (
    BLANK, padded_input,
)
from .errors import BudgetError, EngineError, FamilyInadequacyError
from .linalg import SparseVector
from .provers import IdentityProver, MessageSchedule, enumerate_schedules


@dataclass
class EngineConfig:
    """Run-time knobs shared by all simulation entry points."""

    tau: float = 1e-9
    prune: float = 1e-12
    max_steps: int = None
    tape_trunc: int = None
    halt_mass_target: float = None
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


def _verifier_step(verifier, cells, live, counts):
    """One verifier step over the per-cell move tables, then the halting
    projection.  Returns (unpruned survivors, accepted mass, rejected mass,
    live mass with a non-blank comm cell, each non-halting target's largest
    interaction count when counts is given).
    """
    length = len(cells)
    nxt = SparseVector()
    nxt_counts = {} if counts is not None else None
    for key, a in live.items():
        q, k, g, y = key
        base = counts[key] if counts is not None else 0
        for amp, q2, g2, d in cells[k][q, g]:
            key2 = (q2, (k + d) % length, g2, y)
            nxt.add(key2, a * amp)
            if nxt_counts is not None and not verifier.is_halting(q2):
                gain = 1 if g2 != BLANK else 0
                nxt_counts[key2] = max(nxt_counts.get(key2, -1), base + gain)
    survivors = SparseVector()
    accepted = rejected = query_mass = 0.0
    for key, a in nxt.items():
        q2 = key[0]
        w = (a * a.conjugate()).real
        if verifier.is_accepting(q2):
            accepted += w
        elif verifier.is_rejecting(q2):
            rejected += w
        else:
            survivors[key] = a
            if key[2] != BLANK:
                query_mass += w
    return survivors, accepted, rejected, query_mass, nxt_counts


def _pad_empty_steps(records, done, steps, p_acc, p_rej):
    """Append the records of the steps done+1..steps that a one-way run
    skipped once its live vector was empty; nothing when records is None.
    """
    if records is not None:
        records.extend(
            StepRecord(step=u, live=[], p_acc=p_acc, p_rej=p_rej,
                       query_mass=0.0)
            for u in range(done + 1, steps + 1))


def run_protocol(verifier, x, prover=None, cfg=None):
    """Simulate one interactive run and return a RunResult."""
    cfg = cfg or EngineConfig()
    prover = prover or IdentityProver()
    cells = [verifier.moves[s] for s in padded_input(x, verifier.input_alphabet)]
    max_steps = resolve_max_steps(verifier, x, cfg)
    trunc = cfg.tape_trunc if cfg.tape_trunc is not None else max_steps + 2
    halt_target = (
        cfg.halt_mass_target if cfg.halt_mass_target is not None
        else 1.0 - 0.5 * cfg.tau
    )
    started = time.perf_counter()

    # configurations carry a tape id: tapes[id] is the tape, tape_ids its
    # inverse
    tapes = [()]
    tape_ids = {(): 0}
    live = SparseVector({(verifier.initial, 0, BLANK, 0): 1.0 + 0j})
    counts = {(verifier.initial, 0, BLANK, 0): 0} if cfg.count_interactions else None
    p_acc = 0.0
    p_rej = 0.0
    pruned_mass = 0.0
    max_queries = 0
    records = [] if cfg.record_steps else None
    steps = 0
    budget_exhausted = False

    for t in range(1, max_steps + 1):
        steps = t
        live, accepted, rejected, query_mass, nxt_counts = _verifier_step(
            verifier, cells, live, counts)
        p_acc += accepted
        p_rej += rejected
        pruned_mass += live.prune(cfg.prune)
        if counts is not None:
            counts = {
                key: c for key, c in nxt_counts.items() if key in live
            }
            if counts:
                max_queries = max(max_queries, max(counts.values()))
        if cfg.check_conservation:
            total = p_acc + p_rej + live.norm_sq() + pruned_mass
            if abs(total - 1.0) > cfg.tau:
                raise EngineError(
                    "probability not conserved at step %d: total %.12g" % (t, total)
                )
        if records is not None:
            records.append(StepRecord(
                step=t, live=sorted(((q, k, g, tapes[i]), a)
                                    for (q, k, g, i), a in live.items()),
                p_acc=p_acc, p_rej=p_rej, query_mass=query_mass,
            ))
        if t == max_steps:
            budget_exhausted = bool(live) and verifier.two_way
            break
        if not live:
            break
        if verifier.two_way and p_acc + p_rej >= halt_target:
            break
        # prover round t: one action per distinct (comm, tape id), shared
        # by every configuration that carries that pair
        actions = {}
        nxt = SparseVector()
        nxt_counts = {} if counts is not None else None
        for (q, k, g, i), a in live.items():
            base = counts[(q, k, g, i)] if counts is not None else 0
            action = actions.get((g, i))
            if action is None:
                action = actions[g, i] = []
                y = tapes[i]
                for pamp, g2, y2 in prover.apply(t, g, y):
                    if len(y2) > trunc:
                        raise BudgetError(
                            "prover history exceeded the %d-record truncation"
                            % trunc
                        )
                    if y2 is y:
                        i2 = i
                    else:
                        i2 = tape_ids.get(y2)
                        if i2 is None:
                            i2 = tape_ids[y2] = len(tapes)
                            tapes.append(y2)
                    action.append((pamp, g2, i2))
            for pamp, g2, i2 in action:
                key = (q, k, g2, i2)
                nxt.add(key, a * pamp)
                if nxt_counts is not None:
                    nxt_counts[key] = max(nxt_counts.get(key, -1), base)
        pruned_mass += nxt.prune(cfg.prune)
        live = nxt
        if counts is not None:
            counts = nxt_counts

    if not verifier.two_way:
        _pad_empty_steps(records, steps, max_steps, p_acc, p_rej)
        steps = max_steps
    return RunResult(
        input=x, prover_id=prover.prover_id, p_acc=p_acc, p_rej=p_rej,
        residual=live.norm_sq(), steps=steps,
        interactions=max_queries if cfg.count_interactions else None,
        budget_exhausted=budget_exhausted,
        step_records=records, wallclock=time.perf_counter() - started,
        pruned=pruned_mass,
    )


def interaction_count(verifier, x, prover, cfg=None):
    """Largest number of non-blank-comm verifier steps along any live path."""
    cfg = cfg or EngineConfig()
    cfg = EngineConfig(**{**cfg.__dict__, "count_interactions": True})
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
    cells = [verifier.moves[s] for s in padded_input(x, verifier.input_alphabet)]
    max_steps = len(cells)
    live = SparseVector({(verifier.initial, 0, BLANK, ()): 1.0 + 0j})
    masses = [0.0]
    p_acc = 0.0
    p_rej = 0.0
    pruned = 0.0
    records = [] if cfg.record_steps else None
    for t in range(1, max_steps + 1):
        live, accepted, rejected, query_mass, _ = _verifier_step(
            verifier, cells, live, None)
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


def _once(verifier, key, compute):
    """compute(verifier), run once per verifier and kept on it.

    Both outcomes are kept: the value, or the FamilyInadequacyError,
    which is raised afresh on every later call.  Concurrent first calls
    may each compute; they store the same outcome.
    """
    outcome = verifier.analyses.get(key)
    if outcome is None:
        try:
            outcome = (compute(verifier), None)
        except FamilyInadequacyError as exc:
            outcome = (None, str(exc))
        verifier.analyses[key] = outcome
    value, error = outcome
    if error is not None:
        raise FamilyInadequacyError(error)
    return value


def _require_schedule_adequacy(verifier):
    for sym, table in verifier.rows.items():
        for (q, g), targets in table.items():
            if verifier.class_of(sym, q, g) == "completion":
                continue
            if len(targets) > 1:
                raise FamilyInadequacyError(
                    "verifier %r branches at (%r, %r) on %r: a message-schedule "
                    "sweep cannot certify an optimum over all provers; use the "
                    "protocol's own adversary family" % (verifier.name, q, g, sym)
                )


def announcement_map(verifier):
    """Map each live state to the single comm symbol its authored rows use.

    A verifier is *announced* when every live state q has authored rows
    under exactly one comm symbol A(q), and every authored component that
    targets a live state writes that state's symbol.  Every other live
    (state, comm) slot is then a reject-guard by construction, which is
    what makes message-schedule sweeps collapse: a write either repeats
    the announcement or sends that component into a guard.

    Returns the dict {state: symbol}.  Raises FamilyInadequacyError when
    the premise fails, naming the offending state or component.  The
    analysis runs once per verifier; later calls reuse its outcome.
    """
    return dict(_once(verifier, "announcement_map", _announcement_map))


def _announcement_map(verifier):
    sources = {}
    for sym, table in verifier.rows.items():
        for (q, g), targets in table.items():
            if verifier.class_of(sym, q, g) != "core":
                continue
            sources.setdefault(q, set()).add(g)
    announce = {}
    for q, symbols in sources.items():
        if len(symbols) != 1:
            raise FamilyInadequacyError(
                "state %r has authored rows under %d comm symbols %r; an "
                "announced verifier uses exactly one per state"
                % (q, len(symbols), sorted(symbols))
            )
        announce[q] = next(iter(symbols))
    for sym, table in verifier.rows.items():
        for (q, g), targets in table.items():
            if verifier.class_of(sym, q, g) != "core":
                continue
            for _amp, q2, g2 in targets:
                if verifier.is_halting(q2):
                    continue
                if announce.get(q2) != g2:
                    raise FamilyInadequacyError(
                        "component (%r, %r) -> (%r, %r) on %r writes %r but "
                        "the target state announces %r"
                        % (q, g, q2, g2, sym, g2, announce.get(q2))
                    )
    return announce


def best_schedule_acceptance(verifier, x, cfg=None, committed_only=False,
                             method="auto", enumeration_budget=200000):
    """Exact maximum acceptance over all fixed message schedules.

    For one-way verifiers whose live rows are branch-free the run has a
    single live configuration at each step, so a memoized game-tree walk
    over (step, state, head, comm) with the write chosen greedily per
    round is exactly the optimum over every schedule (and every adaptive
    prover).  Branching one-way verifiers raise FamilyInadequacyError.

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
    methods and committed_only are one-way options; passing them for a
    two-way verifier raises EngineError.

    The sweep's witness is the run attaining best_p, made with cfg: the
    DP's reconstructed schedule, enumeration's best run, or the family
    witness under announced dominance.
    """
    cfg = cfg or EngineConfig()
    if method not in ("auto", "dp", "enumeration"):
        raise EngineError("unknown sweep method %r" % (method,))
    if verifier.two_way:
        if method != "auto" or committed_only:
            raise EngineError(
                "two-way verifiers are certified by announced dominance "
                "only; method=%r committed_only=%r do not apply"
                % (method, committed_only)
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
    _once(verifier, "schedule_adequacy", _require_schedule_adequacy)
    if method in ("auto", "dp"):
        return _schedule_dp(verifier, x, cfg, committed_only)
    return _schedule_enumeration(verifier, x, cfg, committed_only,
                                 enumeration_budget)


def _schedule_dp(verifier, x, cfg, committed_only):
    cells = [verifier.moves[s] for s in padded_input(x, verifier.input_alphabet)]
    length = len(cells)
    memo = {}
    choice = {}

    def value(t, q, k, g):
        key = (t, q, k, g)
        if key in memo:
            return memo[key]
        amp, q2, g2, d = cells[k][q, g][0]
        if abs(abs(amp) - 1.0) > 1e-9:
            raise FamilyInadequacyError(
                "non-unimodular branch-free amplitude at (%r, %r)" % (q, g)
            )
        if verifier.is_accepting(q2):
            result = 1.0
        elif verifier.is_rejecting(q2):
            result = 0.0
        elif t == length:
            result = 0.0
        else:
            k2 = (k + d) % length
            if committed_only and g2 == BLANK:
                options = (BLANK,)
            else:
                options = verifier.comm_alphabet
            best, best_s = -1.0, None
            for s in options:
                v = value(t + 1, q2, k2, s)
                if v > best:
                    best, best_s = v, s
            choice[key] = (best_s, q2, k2, g2)
            result = best
        memo[key] = result
        return result

    best = value(1, verifier.initial, 0, BLANK)
    # reconstruct one optimal schedule
    writes = {}
    t, q, k, g = 1, verifier.initial, 0, BLANK
    while (t, q, k, g) in choice:
        s, q2, k2, g2 = choice[(t, q, k, g)]
        if s != g2:
            writes[t] = s
        t, q, k, g = t + 1, q2, k2, s
    return ScheduleSweep(
        input=x, best_p=float(best), schedule=writes, exact=True,
        method="dp", runs=len(memo),
        witness=run_protocol(verifier, x, MessageSchedule(writes), cfg),
    )


def _schedule_enumeration(verifier, x, cfg, committed_only, budget):
    witness = None
    runs = 0
    rounds = len(x) + 1
    for schedule in enumerate_schedules(
            verifier.comm_alphabet, rounds,
            committed_only=committed_only, budget=budget):
        result = run_protocol(verifier, x, schedule, cfg)
        runs += 1
        if witness is None or result.p_acc > witness.p_acc:
            witness = result
            best_writes = dict(schedule.writes)
    return ScheduleSweep(
        input=x, best_p=float(witness.p_acc), schedule=best_writes,
        exact=True, method="enumeration", runs=runs, witness=witness,
    )


# -- family sweeps -----------------------------------------------------------


@dataclass
class FamilySweep:
    input: str
    best_lower: float
    best_upper: float
    rows: list = field(default_factory=list)

    @property
    def witness(self):
        """The row attaining best_upper; the first one on ties."""
        return max(self.rows, key=lambda result: result.acceptance_bounds[1])


def sweep_family(verifier, x, provers, cfg=None):
    """Run each prover in the family; report the worst-case acceptance."""
    cfg = cfg or EngineConfig()
    rows = []
    best_lower = 0.0
    best_upper = 0.0
    for prover in provers:
        result = run_protocol(verifier, x, prover, cfg)
        lo, hi = result.acceptance_bounds
        rows.append(result)
        best_lower = max(best_lower, lo)
        best_upper = max(best_upper, hi)
    return FamilySweep(input=x, best_lower=best_lower,
                       best_upper=best_upper, rows=rows)
