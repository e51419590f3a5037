"""Oracles for the benchmark's ops.

Each function takes one op's inputs and its result and returns a list of
problems; an empty list means the result is correct.  The expectations
come from the protocols' definitions (the languages and the completeness
and soundness errors the repository README states), from the classical
reference automata (``run_1rfa``, ``run_2npfa``), or from a second,
untimed code path (the schedule DP against the timed enumeration).  None
of them reads the value under test from the code path that produced it.
"""

import csv
import io
import itertools
import json

TOL = 1e-9
NPFA_TOL = 1e-6

SWEEP_FIELDS = [
    "input", "prover_id", "p_acc_lower", "p_acc_upper", "p_rej_lower",
    "interactions", "steps", "wallclock",
]

CHECK_RULES = [
    "wellformed", "public-claim", "one-way-claim", "classical-honest",
    "committed-honest", "interaction-bound", "honest-completeness",
]

# Rules that `qipsim check` skips for each shipped spec: the spec declares
# no such claim (see src/qipsim/zoo.py and src/qipsim/specs/).  Every other
# rule must validate.
CHECK_SKIPPED = {
    "zero": {"interaction-bound"},
    "odd": set(),
    "center": {"interaction-bound"},
    "equal_blocks": {"interaction-bound"},
    "rfa_parity": {"interaction-bound"},
    "rfa_mod3": {"interaction-bound"},
    "npfa_coin": {"interaction-bound", "honest-completeness"},
    "npfa_branch": {"interaction-bound", "honest-completeness"},
    "toy_explicit": {"interaction-bound", "honest-completeness"},
}


def _zero(x):
    return x.endswith("0")


def _odd(x):
    if "1" not in x:
        return False
    return x[x.index("1") + 1:].count("0") % 2 == 1


def _center(x):
    return len(x) % 2 == 1 and x[len(x) // 2] == "1"


def _equal_blocks(x):
    half = len(x) // 2
    return x == "0" * half + "1" * half


# spec -> (language, soundness error as a function of the branch count N).
# Completeness is 1 for all of them.
LANGUAGES = {
    "zero": (_zero, lambda n_b: 0.0),
    "odd": (_odd, lambda n_b: 0.0),
    "center": (_center, lambda n_b: 1.0 / n_b),
    "equal_blocks": (_equal_blocks, lambda n_b: 1.0 / n_b),
}

def all_strings(n, alphabet="01"):
    return ["".join(t) for t in itertools.product(alphabet, repeat=n)]


class ReferenceAutomata:
    """Acceptance of the classical machines wrapped by the rfa/npfa specs."""

    def __init__(self, zoo, automata):
        self._automata = automata
        branch = zoo.branch_npfa()
        self._rfa = {"rfa_parity": zoo.parity_rfa(),
                     "rfa_mod3": zoo.mod3_rfa()}
        self._npfa = {
            "npfa_coin": (zoo.coin_npfa(), None),
            "npfa_branch": (branch, zoo.last_option_chooser(branch)),
        }

    def rfa_accepts(self, spec, x):
        return self._automata.run_1rfa(self._rfa[spec], x).accepted

    def npfa_p_acc(self, spec, x):
        machine, chooser = self._npfa[spec]
        run = self._automata.run_2npfa(machine, x, chooser=chooser)
        return run.p_acc


def sweep_row_problems(spec, branches, x, lo, hi, reference):
    """Problems with one certified worst-case row of `qipsim sweep`."""
    if not 0.0 <= lo <= hi <= 1.0:
        return ["%s %r: bounds [%r, %r] not ordered in [0, 1]"
                % (spec, x, lo, hi)]
    if spec in LANGUAGES:
        language, soundness = LANGUAGES[spec]
        if language(x):
            if lo < 1.0 - TOL:
                return ["%s %r: member accepted with %r < 1" % (spec, x, lo)]
        elif hi > soundness(branches) + TOL:
            return ["%s %r: non-member accepted with %r > %r"
                    % (spec, x, hi, soundness(branches))]
        return []
    if spec.startswith("rfa_"):
        want = 1.0 if reference.rfa_accepts(spec, x) else 0.0
        tol = TOL
    else:
        want = reference.npfa_p_acc(spec, x)
        tol = NPFA_TOL
    if abs(lo - want) > tol or abs(hi - want) > tol:
        return ["%s %r: row [%r, %r], automaton accepts with %r"
                % (spec, x, lo, hi, want)]
    return []


def sweep_output_problems(spec, branches, n, rc, text, reference):
    """Problems with the CSV of `qipsim sweep --min-len n --max-len n`."""
    if rc != 0:
        return ["%s: exit code %r" % (spec, rc)]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_FIELDS:
        return ["%s: bad CSV header %r" % (spec, rows[:1])]
    body = rows[1:]
    inputs = [row[0] for row in body]
    if inputs != all_strings(n):
        return ["%s: rows cover %r, expected every input of length %d"
                % (spec, inputs, n)]
    problems = []
    for row in body:
        try:
            lo, hi = float(row[2]), float(row[3])
        except (IndexError, ValueError):
            problems.append("%s: malformed row %r" % (spec, row))
            continue
        problems += sweep_row_problems(spec, branches, row[0], lo, hi,
                                       reference)
    return problems


def check_output_problems(spec, rc, text):
    """Problems with the JSON report of `qipsim check`."""
    if rc != 0:
        return ["check %s: exit code %r" % (spec, rc)]
    try:
        report = json.loads(text)
    except ValueError as exc:
        return ["check %s: unreadable JSON (%s)" % (spec, exc)]
    rules = report.get("rules") or []
    names = [r.get("rule") for r in rules]
    if names != CHECK_RULES:
        return ["check %s: rules %r, expected %r" % (spec, names, CHECK_RULES)]
    problems = []
    for r in rules:
        want = None if r["rule"] in CHECK_SKIPPED[spec] else True
        if r.get("ok") is not want:
            problems.append("check %s: rule %s ok=%r, expected %r (%s)"
                            % (spec, r["rule"], r.get("ok"), want,
                               r.get("detail")))
    if report.get("ok") is not True:
        problems.append("check %s: report ok=%r" % (spec, report.get("ok")))
    return problems


def honest_run_problems(label, result):
    """An honest run on a member accepts with certainty and fully halts."""
    if abs(result.p_acc - 1.0) > TOL or result.residual > TOL:
        return ["%s: honest p_acc %r residual %r"
                % (label, result.p_acc, result.residual)]
    if result.steps <= 0:
        return ["%s: no verifier steps" % label]
    return []


def family_problems(label, sweep, branches, family_size):
    """The timing adversaries score at most 1/N on a non-member."""
    if len(sweep.rows) != family_size:
        return ["%s: %d rows for a family of %d"
                % (label, len(sweep.rows), family_size)]
    if sweep.best_upper > 1.0 / branches + TOL:
        return ["%s: best upper bound %r > 1/%d"
                % (label, sweep.best_upper, branches)]
    return []


def enumeration_problems(label, enum, dp_best, expected, schedules):
    """Enumeration visits every schedule and agrees with the DP optimum
    and with the protocol's exact value on this input."""
    problems = []
    if enum.runs != schedules:
        problems.append("%s: %d runs, expected %d schedules"
                        % (label, enum.runs, schedules))
    if abs(enum.best_p - dp_best) > TOL:
        problems.append("%s: enumeration %r, DP %r"
                        % (label, enum.best_p, dp_best))
    if abs(enum.best_p - expected) > TOL:
        problems.append("%s: best %r, expected %r"
                        % (label, enum.best_p, expected))
    return problems


def committed_problems(label, x, interactions):
    """Criterion 05: committed schedules query `odd` at most once, and
    never on an all-zero input."""
    want_runs = 2 ** (len(x) + 1)
    if len(interactions) != want_runs:
        return ["%s: %d runs, expected %d"
                % (label, len(interactions), want_runs)]
    cap = 0 if set(x) <= {"0"} else 1
    worst = max(interactions)
    if worst > cap:
        return ["%s: %d interactions, at most %d allowed"
                % (label, worst, cap)]
    return []


def additivity_problems(label, whole, parts):
    """wt(xy) = wt(x) + wt_x(y) within the tolerance."""
    if abs(whole - parts) > TOL:
        return ["%s: wt(xy)=%r but wt(x)+wt_x(y)=%r" % (label, whole, parts)]
    return []
