"""The four benchmark workloads: set-up, seeded op decks and their oracles.

A workload's set-up imports the program, so set-up time includes the
import; this module imports no part of qipsim at module level.  Ops call
the program through module attributes (``engine.run_protocol``), so the
traced run's patched bindings are the ones called.

A deck is one shuffled copy of the workload's op mix.  Runs measure whole
decks, so every run times the same mix of op sizes whatever the seed; the
seed picks the order and the sampled inputs.
"""

import contextlib
import importlib
import io
from dataclasses import dataclass
from typing import Callable

import oracles


@dataclass
class Op:
    label: str
    run: Callable      # () -> result; the timed part
    check: Callable    # result -> (items, problems); untimed


@dataclass
class Workload:
    name: str
    item: str
    setup: Callable    # () -> context
    deck: Callable     # (context, random.Random) -> [Op]
    # Seconds one deck took on the reference box (2 cores) at the commit
    # that added the benchmark.  The traced run uses it to fix how many
    # decks it runs from --seconds alone, so its counts do not depend on
    # how fast the program is.
    nominal_deck_s: float


def _qipsim(name):
    return importlib.import_module("qipsim." + name)


def run_cli(cli, argv):
    """Call the in-process CLI; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:   # argparse rejects bad arguments this way
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _with_n(argv, branches):
    return argv + ["--N", str(branches)] if branches else argv


def _label(spec, branches):
    return spec if branches is None else "%s N=%d" % (spec, branches)


def _random_word(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


def _reference(ctx):
    """The oracles' classical reference automata, built on first use."""
    if "reference" not in ctx:
        ctx["reference"] = oracles.ReferenceAutomata(_qipsim("zoo"),
                                                     _qipsim("automata"))
    return ctx["reference"]


# -- sweep_cli ----------------------------------------------------------------

# (spec, --N, input lengths).  One op sweeps every input of one length.
# Every input rebuilds the bundle, and equal_blocks N=4 takes about 3 s
# per input, so it appears at length 0 only.  toy_explicit is left out: it
# declares no language.  The mix is chosen so that op_ms_p90 falls inside
# a group of ops of similar cost (around 150 ms on the reference box), not
# in a gap between two groups, where the order of a few ops would move it.
SWEEP_MIX = (
    ("zero", None, (0, 1, 2, 3)),
    ("odd", None, (0, 1, 2, 3, 4, 5, 6)),
    ("center", 2, (0, 1, 2, 3, 4)),
    ("center", 3, (0, 1, 2, 3)),
    ("center", 4, (0, 1, 2, 3)),
    ("equal_blocks", 2, (0,)),
    ("equal_blocks", 4, (0,)),
    ("rfa_parity", None, (0, 1, 2, 3)),
    ("rfa_mod3", None, (0,)),
    ("npfa_coin", None, (0, 1, 2, 3, 4)),
    ("npfa_branch", None, (0, 1, 2, 3)),
)


def _cli_setup():
    """The CLI ops parse their specs inside the timed call, as the
    command does, so set-up is the import alone."""
    return {"cli": _qipsim("cli")}


def _sweep_deck(ctx, rng):
    cli = ctx["cli"]
    reference = _reference(ctx)
    ops = []
    for spec, branches, lengths in SWEEP_MIX:
        for n in lengths:
            argv = _with_n(["sweep", spec, "--min-len", str(n),
                            "--max-len", str(n), "--format", "csv"], branches)

            def check(res, spec=spec, branches=branches, n=n):
                rc, out, err = res
                problems = oracles.sweep_output_problems(
                    spec, branches, n, rc, out, reference)
                if problems and err:
                    problems.append(err.strip())
                return (0 if problems else 2 ** n), problems

            ops.append(Op("sweep %s n=%d" % (_label(spec, branches), n),
                          lambda argv=argv: run_cli(cli, argv), check))
    rng.shuffle(ops)
    return ops


# -- check_cli ----------------------------------------------------------------

# (spec, --N, --n-max values).  One op checks one spec at one n-max; the
# step-operator check covers every input up to that length.  As in
# SWEEP_MIX, op_ms_p90 falls inside a group of ops of similar cost (zero
# n-max=5 and equal_blocks N=2 n-max=0, about 300 ms).
CHECK_MIX = (
    ("zero", None, (0, 1, 2, 3, 4, 5)),
    ("odd", None, (0, 1, 2, 3, 4, 5, 6)),
    ("center", 2, (0, 1, 2, 3, 4)),
    ("center", 3, (0, 2, 4)),
    ("center", 4, (0, 2, 4, 6)),
    ("center", 8, (0, 2, 3)),
    ("equal_blocks", 2, (0, 1)),
    ("equal_blocks", 3, (0,)),
    ("equal_blocks", 4, (0,)),
    ("rfa_parity", None, (0, 2, 4)),
    ("rfa_mod3", None, (0, 2)),
    ("npfa_coin", None, (0, 1, 2, 3, 4)),
    ("npfa_branch", None, (0, 2, 4)),
    ("toy_explicit", None, (0, 1, 2, 3, 4, 5)),
)


def _check_deck(ctx, rng):
    cli = ctx["cli"]
    ops = []
    for spec, branches, n_maxes in CHECK_MIX:
        for k in n_maxes:
            argv = _with_n(["check", spec, "--n-max", str(k),
                            "--format", "json"], branches)

            def check(res, spec=spec):
                rc, out, err = res
                problems = oracles.check_output_problems(spec, rc, out)
                if problems and err:
                    problems.append(err.strip())
                return (0 if problems else 1), problems

            ops.append(Op("check %s n-max=%d" % (_label(spec, branches), k),
                          lambda argv=argv: run_cli(cli, argv), check))
    rng.shuffle(ops)
    return ops


# -- engine_long --------------------------------------------------------------

CENTER_HONEST = ((8, (15, 31, 47, 55, 63), 2), (16, (15, 23, 31, 47), 1))
CENTER_FAMILY = ((8, (9, 15, 21), 2), (16, (7, 9, 11), 2))
EQUAL_BLOCKS_HALVES = (8, 16, 32, 48, 64, 96)


def _engine_setup():
    zoo = _qipsim("zoo")
    return {
        "engine": _qipsim("engine"),
        "center": {n_b: zoo.make_bundle("center", {"branches": n_b})
                   for n_b in (8, 16)},
        "equal_blocks": zoo.make_bundle("equal_blocks", {"branches": 4}),
    }


def _balanced_word(rng, n):
    """A word of length n with n // 2 ones at sampled positions.  Runs
    cost more the more ones they read, so decks of balanced words do the
    same work whatever the seed."""
    ones = set(rng.sample(range(n), n // 2))
    return "".join("1" if i in ones else "0" for i in range(n))


def _center_word(rng, length, middle):
    half = (length - 1) // 2
    return _balanced_word(rng, half) + middle + _balanced_word(rng, half)


def _engine_deck(ctx, rng):
    engine = ctx["engine"]
    ops = []

    def honest_op(bundle, x, label):
        def check(result):
            problems = oracles.honest_run_problems(
                "%s x=%s" % (label, x), result)
            return (0 if problems else result.steps), problems

        ops.append(Op(label, lambda: engine.run_protocol(
            bundle.verifier, x, bundle.honest_prover(x)), check))

    for n_b, lengths, samples in CENTER_HONEST:
        bundle = ctx["center"][n_b]
        for length in lengths:
            for _ in range(samples):
                x = _center_word(rng, length, "1")
                honest_op(bundle, x, "center N=%d honest |x|=%d"
                          % (n_b, length))
    for n_b, lengths, samples in CENTER_FAMILY:
        bundle = ctx["center"][n_b]
        for length in lengths:
            for _ in range(samples):
                x = _center_word(rng, length, "0")
                label = "center N=%d family |x|=%d" % (n_b, length)

                def check(sweep, where="%s x=%s" % (label, x), n_b=n_b,
                          size=length + 1):
                    problems = oracles.family_problems(where, sweep, n_b, size)
                    steps = sum(r.steps for r in sweep.rows)
                    return (0 if problems else steps), problems

                ops.append(Op(
                    label,
                    lambda bundle=bundle, x=x: engine.sweep_family(
                        bundle.verifier, x, bundle.adversary_family(x)),
                    check))
    for half in EQUAL_BLOCKS_HALVES:
        honest_op(ctx["equal_blocks"], "0" * half + "1" * half,
                  "equal_blocks N=4 honest |x|=%d" % (2 * half))
    rng.shuffle(ops)
    return ops


# -- schedule_enum ------------------------------------------------------------

# (bundle, input lengths) for best_schedule_acceptance(method="enumeration").
ENUMERATION_MIX = (("odd", (4, 5, 6, 7)), ("zero", (1, 2)),
                   ("rfa_parity", (1, 2)))
COMMITTED_LENGTHS = (4, 4, 6, 6, 8, 8)
# (bundle, |xy|) of the query_weight additivity pairs; the cut and the
# words are sampled.
ADDITIVITY_MIX = tuple((name, total)
                       for name in ("zero", "odd", "rfa_parity", "rfa_mod3")
                       for total in (3, 6, 8))


def _schedule_setup():
    zoo = _qipsim("zoo")
    engine = _qipsim("engine")
    return {
        "engine": engine,
        "provers": _qipsim("provers"),
        "count_cfg": engine.EngineConfig(count_interactions=True),
        "bundles": {
            "zero": zoo.make_bundle("zero"),
            "odd": zoo.make_bundle("odd"),
            "rfa_parity": zoo.make_bundle("rfa", {"preset": "parity"}),
            "rfa_mod3": zoo.make_bundle("rfa", {"preset": "mod3"}),
        },
    }


def _exact_value(ctx, name, x):
    """The schedule optimum the protocol's definition gives on x."""
    if name in oracles.LANGUAGES:
        return 1.0 if oracles.LANGUAGES[name][0](x) else 0.0
    return 1.0 if _reference(ctx).rfa_accepts(name, x) else 0.0


def _schedule_deck(ctx, rng):
    engine, provers = ctx["engine"], ctx["provers"]
    bundles = ctx["bundles"]
    ops = []
    for name, lengths in ENUMERATION_MIX:
        verifier = bundles[name].verifier
        for length in lengths:
            x = _balanced_word(rng, length)
            label = "enumerate %s |x|=%d" % (name, length)
            schedules = (len(verifier.comm_alphabet) + 1) ** (length + 1)

            def check(enum, verifier=verifier, x=x, name=name,
                      schedules=schedules):
                dp = engine.best_schedule_acceptance(verifier, x, method="dp")
                problems = oracles.enumeration_problems(
                    "enumerate %s x=%s" % (name, x), enum, dp.best_p,
                    _exact_value(ctx, name, x), schedules)
                return (0 if problems else enum.runs), problems

            ops.append(Op(
                label,
                lambda verifier=verifier, x=x: engine.best_schedule_acceptance(
                    verifier, x, method="enumeration"),
                check))

    odd = bundles["odd"].verifier
    cfg = ctx["count_cfg"]
    for length in COMMITTED_LENGTHS:
        x = _balanced_word(rng, length)
        label = "committed odd |x|=%d" % length

        def run(x=x):
            return [
                engine.run_protocol(odd, x, prover, cfg).interactions
                for prover in provers.enumerate_schedules(
                    odd.comm_alphabet, len(x) + 1, committed_only=True)
            ]

        def check(counts, x=x):
            problems = oracles.committed_problems("committed odd", x, counts)
            return (0 if problems else len(counts)), problems

        ops.append(Op(label, run, check))

    for name, total in ADDITIVITY_MIX:
        verifier = bundles[name].verifier
        cut = rng.randint(0, total)
        x, y = _random_word(rng, cut), _random_word(rng, total - cut)

        def run(verifier=verifier, x=x, y=y):
            whole = engine.query_weight(verifier, "", x + y)
            parts = (engine.query_weight(verifier, "", x)
                     + engine.query_weight(verifier, x, y))
            return whole, parts

        def check(res, where="additivity %s x=%r y=%r" % (name, x, y)):
            problems = oracles.additivity_problems(where, *res)
            return (0 if problems else 3), problems

        ops.append(Op("additivity %s" % name, run, check))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep_cli", "certified row", _cli_setup, _sweep_deck,
                 nominal_deck_s=6.5),
        Workload("check_cli", "check", _cli_setup, _check_deck,
                 nominal_deck_s=7.0),
        Workload("engine_long", "verifier step", _engine_setup, _engine_deck,
                 nominal_deck_s=5.0),
        Workload("schedule_enum", "schedule run", _schedule_setup,
                 _schedule_deck, nominal_deck_s=1.2),
    )
}
