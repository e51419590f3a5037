#!/usr/bin/env python3
"""Benchmark for qipsim: four closed-loop workloads, end-to-end metrics,
and a separate traced run that attributes time to the program's layers.

Run one workload (the last stdout line is the result as JSON):

    python3 bench/run.py --workload sweep_cli --seed 1 --seconds 20 --trace 0

Run every workload, each in a fresh process, and print every metric:

    python3 bench/run.py --all --seed 1 --seconds 20

The program is imported from ``src/`` next to this directory; nothing is
installed.  One caller in one process runs the ops back to back (closed
loop).  See bench/README.md for the workloads and the metrics.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up runs per measurement: this process plus fresh child processes.
SETUP_SAMPLES = 5

# Ops per untraced run at least, so that ten or more lie beyond op_ms_p90.
MIN_OPS = 100
# Midpoints at which hd_quantile integrates its beta weights.
HD_GRID = 20_000

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)


def fail(message):
    sys.stderr.write("bench: %s\n" % message)
    sys.exit(2)


def import_path_ready():
    """Make `import qipsim` load src/qipsim of this checkout, or exit."""
    if not (SRC / "qipsim" / "__init__.py").is_file():
        fail("no qipsim sources at %s; run from a full checkout" % SRC)
    sys.path.insert(0, str(SRC))


# -- machine speed ------------------------------------------------------------
#
# The reference box (a 2-vCPU KVM guest) runs slower or faster by up to
# 40% for seconds at a time, and every timing of a run moves with it.  A
# fixed pure-Python loop, timed every CAL_EVERY_S from a timer signal, so
# also while a long op runs, tracks that speed.  Each reported time is the
# wall time, less the loop's own time inside it, scaled by
# NOMINAL_CAL_S / (median loop time within CAL_WINDOW_S of it).  The loop
# is the benchmark's own code, so a change to qipsim moves the scaled
# times as much as the wall times.

CAL_LOOPS = 20_000
NOMINAL_CAL_S = 0.0016   # median loop time on the reference box
CAL_EVERY_S = 0.05
CAL_WINDOW_S = 0.5
SETUP_CAL_SAMPLES = 10   # loops timed before and after each set-up


class SpeedLog:
    """Calibration loop timings, (start, seconds), in the order taken.
    Inside a `with` block the loop also runs every CAL_EVERY_S from a
    SIGALRM handler."""

    def __init__(self):
        self.samples = []
        self._running = False
        self._handler = None

    def sample(self, *_):
        if self._running:    # a signal that came while the loop ran
            return
        self._running = True
        started = perf_counter()
        total = 0
        for i in range(CAL_LOOPS):
            total += i * i % 7
        self.samples.append((started, perf_counter() - started))
        self._running = False

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def _between(self, start, end):
        return self.samples[bisect_left(self.samples, (start,)):
                            bisect_left(self.samples, (end,))]

    def spent_in(self, start, end):
        """Seconds the loop ran within [start, end]."""
        return sum(cost for _, cost in self._between(start, end))

    def scale(self, start, end):
        """Factor that brings time spent in [start, end] to the nominal
        machine speed.  With no sample near, the next one (or the last)
        stands in."""
        near = self._between(start - CAL_WINDOW_S, end + CAL_WINDOW_S)
        if not near:
            i = bisect_left(self.samples, (start,))
            near = [self.samples[min(i, len(self.samples) - 1)]]
        return NOMINAL_CAL_S / statistics.median(cost for _, cost in near)

    def speed(self):
        """Median machine speed over the samples, nominal = 1."""
        return NOMINAL_CAL_S / statistics.median(c for _, c in self.samples)


def checked_setup(workload):
    """Run a workload's set-up and confirm it imported this checkout.
    Return the context and the set-up time scaled to nominal speed."""
    speed = SpeedLog()
    for _ in range(SETUP_CAL_SAMPLES):
        speed.sample()
    with speed:
        started = perf_counter()
        ctx = workload.setup()
        ended = perf_counter()
    for _ in range(SETUP_CAL_SAMPLES):
        speed.sample()
    origin = Path(sys.modules["qipsim"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        fail("imported qipsim from %s, not from %s" % (origin, SRC))
    elapsed = ended - started - speed.spent_in(started, ended)
    return ctx, elapsed * speed.scale(started, ended)


def child_setup_seconds(name):
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--setup-only"],
        capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        fail("set-up child failed:\n%s" % proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- ops ----------------------------------------------------------------------


class Tally:
    """Latency, items and failures of the ops run so far."""

    def __init__(self):
        self.starts = []
        self.latencies = []
        self.items = 0
        self.failed = 0
        self.problems = []
        self.speed = SpeedLog()

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def busy_s(self):
        return sum(self.latencies)

    def scaled_latencies(self):
        """Op latencies at nominal machine speed (see SpeedLog); the
        latencies already leave out the loop's time inside the ops."""
        return [s * self.speed.scale(t, t + s)
                for t, s in zip(self.starts, self.latencies)]


def run_op(op, tally, tracer=None):
    """Time one op, then check its result with the tracer paused."""
    started = perf_counter()
    try:
        result = op.run()
    except Exception as exc:   # an op that raises is a failed op
        ended = perf_counter()
        problems = ["%s raised %s: %s" % (op.label, type(exc).__name__, exc)]
        items = 0
    else:
        ended = perf_counter()
        if tracer is not None:
            tracer.enabled = False
        try:
            items, problems = op.check(result)
        except Exception as exc:   # a result the oracle cannot read fails
            items, problems = 0, ["%s: oracle raised %s: %s"
                                  % (op.label, type(exc).__name__, exc)]
        if tracer is not None:
            tracer.enabled = True
    tally.starts.append(started)
    tally.latencies.append(ended - started
                           - tally.speed.spent_in(started, ended))
    tally.items += items
    if problems:
        tally.failed += 1
        tally.problems.extend(problems)


def measure(workload, ctx, rng, seconds):
    """Run whole decks, timing the calibration loop all along, until at
    least MIN_OPS ops ran and the busy time at nominal speed is closest
    to `seconds`.  The deck count then does not follow the machine's
    speed."""
    tally = Tally()
    decks = 0
    with tally.speed:
        while True:
            for op in workload.deck(ctx, rng):
                run_op(op, tally)
            decks += 1
            busy = sum(tally.scaled_latencies())
            if (tally.attempted >= MIN_OPS
                    and busy >= seconds - 0.5 * busy / decks):
                break
    tally.speed.sample()
    return tally, decks


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the mass that Beta(p(n+1), (1-p)(n+1)) puts on
    each ((i-1)/n, i/n], integrated with the midpoint rule.  An op mix
    holds groups of ops of similar cost with gaps between them, and a
    single order statistic jumps across a gap when a few ops swap places;
    this weighted mean moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = [0.0] * n
    for k in range(HD_GRID):
        u = (k + 0.5) / HD_GRID
        weights[int(u * n)] += math.exp(
            log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def latency_stats(latencies, items):
    """items_per_s, op_ms_p50 and op_ms_p90 of these op latencies."""
    ms = [1000.0 * s for s in latencies]
    return {"items_per_s": items / sum(latencies),
            "op_ms_p50": hd_quantile(ms, 0.5),
            "op_ms_p90": hd_quantile(ms, 0.9)}


def end_to_end_metrics(tally, setup_samples):
    values = latency_stats(tally.scaled_latencies(), tally.items)
    values.update({
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    })
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def spans_path(workload, seed):
    return OUT / ("spans-%s-seed%d.json" % (workload.name, seed))


def traced_run(workload, ctx, rng, seconds, spans_file):
    """Run each op of the decks three times: once to warm up (memory first
    touched, lazy imports), then untraced and traced back to back,
    alternating which goes first, so that a change in machine speed falls
    on both sides.  Return the per-layer metrics, both tallies and the
    deck count, which depends on --seconds only.  Write every span to
    `spans_file`."""
    import tracer as tracing

    count = max(1, round(seconds / 3 / workload.nominal_deck_s))
    tracer = tracing.Tracer()
    plain, traced = Tally(), Tally()

    def run_plain(op):
        run_op(op, plain)

    def run_traced(op):
        tracer.install()
        try:
            tracer.op_id = traced.attempted
            run_op(op, traced, tracer)
        finally:
            tracer.uninstall()

    for _ in range(count):
        for i, op in enumerate(workload.deck(ctx, rng)):
            run_op(op, Tally())
            first, second = ((run_plain, run_traced) if i % 2
                             else (run_traced, run_plain))
            first(op)
            second(op)
    overhead = traced.busy_s / plain.busy_s - 1.0
    tracer.dump(spans_file)
    return tracer.metrics(traced.items, overhead), plain, traced, count


# -- run record ---------------------------------------------------------------


def git_commit():
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def line_count(directory):
    total = 0
    for path in sorted((ROOT / directory).rglob("*.py")):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def print_record(args, ops, extra):
    """Print the facts about the run as JSON on a `record:` line.  The
    line counts are information, not metrics."""
    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "commit": git_commit(),
        "ops": ops,
        "lines": {"src": line_count("src"), "tests": line_count("tests")},
    }
    record.update(extra)
    print("record: " + json.dumps(record, sort_keys=True))


def print_metrics(metrics, ops):
    for name, metric in metrics.items():
        print("  %-42s %16.6f %-11s (%d ops)"
              % (name, metric["value"], metric["unit"], ops))


# -- modes --------------------------------------------------------------------


def run_one(args):
    import_path_ready()
    workload = WORKLOADS[args.workload]
    ctx, setup_s = checked_setup(workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    rng = random.Random(args.seed)
    if args.trace:
        spans_file = spans_path(workload, args.seed)
        metrics, plain, tally, decks = traced_run(
            workload, ctx, rng, args.seconds, spans_file)
        extra = {"decks": decks, "untraced_busy_s": plain.busy_s,
                 "traced_busy_s": tally.busy_s, "spans": str(spans_file)}
        failed = plain.failed + tally.failed
        attempted = plain.attempted + tally.attempted
        problems = plain.problems + tally.problems
    else:
        samples = [setup_s] + [child_setup_seconds(workload.name)
                               for _ in range(SETUP_SAMPLES - 1)]
        tally, decks = measure(workload, ctx, rng, args.seconds)
        metrics = end_to_end_metrics(tally, samples)
        extra = {"decks": decks, "busy_s": tally.busy_s,
                 "items": tally.items, "item": workload.item,
                 "setup_samples_s": samples,
                 "unscaled": latency_stats(tally.latencies, tally.items),
                 "speed": tally.speed.speed(),
                 "failed_frac": tally.failed / tally.attempted}
        failed, attempted, problems = (tally.failed, tally.attempted,
                                       tally.problems)
    for problem in problems[:20]:
        sys.stderr.write("FAILED %s\n" % problem)
    print("%s seed=%d %s: %d ops, %d failed (failed_frac %.6f), %d %ss"
          % (workload.name, args.seed, "traced" if args.trace else "untraced",
             attempted, failed, failed / attempted, tally.items,
             workload.item))
    print_metrics(metrics, tally.attempted)
    print_record(args, {workload.name: tally.attempted}, extra)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload in its own fresh process; non-zero if any op failed."""
    import_path_ready()
    results, ok = {}, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("%s: no result (exit code %d)" % (name, proc.returncode))
            ok = False
            continue
        results[name] = result
        ok = ok and proc.returncode == 0 and result["correct"]
        print("%s: %d ops, %d failed (failed_frac %.6f)"
              % (name, result["attempted"], result["failed"],
                 result["failed"] / result["attempted"]))
        print_metrics(result["metrics"], result["attempted"])
    print_record(args, {name: r["attempted"] for name, r in results.items()},
                 {"results": results})
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed for op order and sampled inputs")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="busy time to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
