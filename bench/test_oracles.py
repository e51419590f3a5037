"""Self-tests of the benchmark: every oracle accepts the program's real
result and counts a deliberately wrong one as a failed op.

    python3 -m pytest -q bench/test_oracles.py
"""

import dataclasses
import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

_contexts = {}


def context(name):
    if name not in _contexts:
        _contexts[name] = WORKLOADS[name].setup()
    return _contexts[name]


def find_op(name, label):
    """The op with this label from a seeded deck of the workload."""
    for op in WORKLOADS[name].deck(context(name), random.Random(7)):
        if op.label.startswith(label):
            return op
    raise AssertionError("no op %r in %s" % (label, name))


def assert_counted_failed(op, wrong_result):
    """The op's oracle rejects the result, and the run loop counts the op
    as failed with no items."""
    items, problems = op.check(wrong_result)
    assert problems and items == 0
    tally = run.Tally()
    run.run_op(Op(op.label, lambda: wrong_result, op.check), tally)
    assert (tally.attempted, tally.failed, tally.items) == (1, 1, 0)


def real_result(op):
    result = op.run()
    items, problems = op.check(result)
    assert problems == [] and items > 0
    return result


def replace_line(text, index, fields):
    lines = text.splitlines()
    row = lines[index].split(",")
    for column, value in fields.items():
        row[column] = value
    lines[index] = ",".join(row)
    return "\n".join(lines) + "\n"


# -- sweep_cli ----------------------------------------------------------------


@pytest.mark.parametrize("label, row, fields", [
    ("sweep zero n=2", 1, {2: "0", 3: "0"}),          # member "00" rejected
    ("sweep zero n=2", 2, {3: "0.5"}),                # non-member "01"
    ("sweep center N=3 n=1", 1, {3: "0.5"}),          # "0" above 1/3
    ("sweep rfa_parity n=1", 1, {2: "0", 3: "0"}),    # automaton accepts "0"
    ("sweep npfa_coin n=1", 1, {2: "0.25"}),          # automaton gives 1/2
    ("sweep npfa_branch n=1", 2, {2: "1", 3: "1"}),   # automaton rejects "1"
    ("sweep odd n=2", 3, {0: "11"}),                  # wrong input listed
])
def test_sweep_oracle_rejects_wrong_rows(label, row, fields):
    op = find_op("sweep_cli", label)
    rc, out, err = real_result(op)
    assert_counted_failed(op, (rc, replace_line(out, row, fields), err))


def test_sweep_oracle_rejects_missing_rows_and_errors():
    op = find_op("sweep_cli", "sweep odd n=2")
    rc, out, err = real_result(op)
    truncated = "\n".join(out.splitlines()[:-1]) + "\n"
    assert_counted_failed(op, (rc, truncated, err))
    assert_counted_failed(op, (4, out, "error: engine"))


# -- check_cli ----------------------------------------------------------------


def _edit_rule(text, rule, ok):
    report = json.loads(text)
    for r in report["rules"]:
        if r["rule"] == rule:
            r["ok"] = ok
    return json.dumps(report)


def test_check_oracle_rejects_wrong_reports():
    op = find_op("check_cli", "check odd n-max=2")
    rc, out, err = real_result(op)
    assert_counted_failed(op, (rc, _edit_rule(out, "wellformed", False), err))
    assert_counted_failed(op, (rc, _edit_rule(out, "interaction-bound", None),
                               err))
    assert_counted_failed(op, (3, out, err))
    assert_counted_failed(op, (rc, "not json", err))
    skipped = find_op("check_cli", "check toy_explicit n-max=1")
    rc, out, err = real_result(skipped)
    assert_counted_failed(skipped, (rc, _edit_rule(out, "honest-completeness",
                                                   True), err))


# -- engine_long --------------------------------------------------------------


def test_honest_run_oracle_rejects_wrong_runs():
    op = find_op("engine_long", "center N=8 honest |x|=15")
    result = real_result(op)
    assert_counted_failed(op, dataclasses.replace(result, p_acc=0.999))
    assert_counted_failed(op, dataclasses.replace(result, residual=1e-6))
    assert_counted_failed(op, dataclasses.replace(result, steps=0))
    eb = find_op("engine_long", "equal_blocks N=4 honest |x|=16")
    assert_counted_failed(eb, dataclasses.replace(real_result(eb), p_acc=0.5))


def test_family_oracle_rejects_wrong_sweeps():
    op = find_op("engine_long", "center N=8 family |x|=9")
    sweep = real_result(op)
    assert_counted_failed(op, dataclasses.replace(sweep, best_upper=0.2))
    assert_counted_failed(op, dataclasses.replace(sweep, rows=sweep.rows[1:]))


# -- schedule_enum ------------------------------------------------------------


def test_enumeration_oracle_rejects_wrong_optima():
    op = find_op("schedule_enum", "enumerate odd |x|=4")
    enum = real_result(op)
    assert_counted_failed(op, dataclasses.replace(enum,
                                                  best_p=1.0 - enum.best_p))
    assert_counted_failed(op, dataclasses.replace(enum, runs=enum.runs - 1))
    parity = find_op("schedule_enum", "enumerate rfa_parity |x|=1")
    enum = real_result(parity)
    assert_counted_failed(parity, dataclasses.replace(
        enum, best_p=1.0 - enum.best_p))


def test_committed_oracle_rejects_extra_queries():
    op = find_op("schedule_enum", "committed odd |x|=4")
    counts = real_result(op)
    assert_counted_failed(op, counts[:-1] + [2])
    assert_counted_failed(op, counts[:-1])
    assert oracles.committed_problems("zeros", "0000", [1] + [0] * 31)


def test_additivity_oracle_rejects_a_gap():
    op = find_op("schedule_enum", "additivity")
    whole, parts = real_result(op)
    assert_counted_failed(op, (whole, parts + 1e-6))


# -- harness ------------------------------------------------------------------


def test_raising_op_counts_as_failed():
    def boom():
        raise RuntimeError("boom")

    tally = run.Tally()
    run.run_op(Op("boom", boom, lambda r: (1, [])), tally)
    assert (tally.attempted, tally.failed, tally.items) == (1, 1, 0)


def test_metric_lists_match_benchmark_json():
    import tracer

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == dict(run.END_TO_END)
    assert layer == dict(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_untraced_measure_installs_no_wrappers():
    sys.modules.pop("tracer", None)
    workload = WORKLOADS["schedule_enum"]
    ctx = context("schedule_enum")
    engine = ctx["engine"]
    original = engine.run_protocol
    tally, decks = run.measure(workload, ctx, random.Random(3), 0.01)
    assert tally.failed == 0
    assert tally.attempted >= run.MIN_OPS > tally.attempted * (decks - 1) / decks
    assert "tracer" not in sys.modules
    assert engine.run_protocol is original


def test_tracer_patches_and_restores_every_binding():
    import tracer as tracing

    context("schedule_enum")
    t = tracing.Tracer()
    t.install()
    engine, cli = sys.modules["qipsim.engine"], sys.modules["qipsim.cli"]
    try:
        wrapped = engine.run_protocol
        assert cli.run_protocol is wrapped
        assert sys.modules["qipsim"].run_protocol is wrapped
        original = wrapped.__wrapped__
    finally:
        t.uninstall()
    assert engine.run_protocol is original and cli.run_protocol is original


def test_traced_run_reports_every_per_layer_metric(capsys):
    import tracer as tracing

    engine = context("schedule_enum")["engine"]
    original = engine.run_protocol
    workload = WORKLOADS["schedule_enum"]
    spans_file = run.spans_path(workload, 5)
    spans_file.unlink(missing_ok=True)
    assert run.main(["--workload", workload.name, "--seed", "5",
                     "--seconds", "0.01", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(metrics) == [name for name, _ in tracing.PER_LAYER]
    assert metrics["engine.run_protocol.calls"] > 0
    assert metrics["provers.enumerate_schedules.yielded"] > 0
    assert engine.run_protocol is original

    dump = json.loads(spans_file.read_text())
    names = [dump["names"][row[0]] for row in dump["spans"]]
    for name in ("engine.run_protocol", "engine.best_schedule_acceptance"):
        assert names.count(name) == metrics[name + ".calls"]
    for i, (_, start, end, parent, op) in enumerate(dump["spans"]):
        assert start <= end and op >= 0 and -1 <= parent < i


def test_speed_scale_uses_the_samples_around_a_time():
    nominal = run.NOMINAL_CAL_S
    speed = run.SpeedLog()
    speed.samples = [(0.0, nominal), (0.2, nominal), (0.3, nominal),
                     (10.0, 2 * nominal), (10.4, 2 * nominal)]
    assert speed.scale(0.1, 0.25) == 1.0
    assert speed.scale(10.1, 10.2) == 0.5
    assert speed.scale(5.0, 5.1) == 0.5   # no sample near: the next one
    assert speed.spent_in(0.1, 0.35) == 2 * nominal


def test_op_latency_leaves_out_calibration_inside_it():
    tally = run.Tally()
    with tally.speed:
        run.run_op(Op("sleep", lambda: time.sleep(0.3), lambda r: (1, [])),
                   tally)
    # sleep() keeps its deadline, so the op's wall time is 0.3 s however
    # often the loop ran inside it.
    inside = tally.speed.spent_in(tally.starts[0], tally.starts[0] + 1.0)
    assert len(tally.speed.samples) >= 4 and inside > 0
    assert tally.latencies[0] == pytest.approx(0.3 - inside, abs=0.005)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_hd_quantile_matches_exact_beta_weights():
    from scipy.stats import beta

    rng = random.Random(11)
    values = sorted(rng.lognormvariate(0, 1) for _ in range(120))
    n = len(values)
    for p in (0.5, 0.9):
        cdf = beta.cdf([i / n for i in range(n + 1)],
                       p * (n + 1), (1 - p) * (n + 1))
        exact = sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(values))
        assert run.hd_quantile(values, p) == pytest.approx(exact, rel=1e-4)
    assert run.hd_quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    assert run.hd_quantile([4.0], 0.9) == 4.0
