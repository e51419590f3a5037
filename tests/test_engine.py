"""Unit tests for the interactive-protocol simulation engine."""

import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qipsim import cli, engine
from qipsim.automata import (
    BLANK, LEFT_END, RIGHT_END, build_step_operator, complete_verifier,
    padded_input,
)
from qipsim.engine import (
    EngineConfig,
    announcement_map,
    best_schedule_acceptance,
    interaction_count,
    query_weight,
    resolve_max_steps,
    run_mcomp,
    run_protocol,
    sweep_family,
)
from qipsim.errors import (
    BudgetError, EngineError, FamilyInadequacyError, ValidationError,
)
from qipsim.linalg import SparseVector
from qipsim.provers import (
    ExplicitRoundProver, HistoryResponder, IdentityProver, MessageSchedule,
    enumerate_schedules,
)
from qipsim.specfile import parse_spec, serialize_spec, verifier_document
from qipsim.zoo import make_bundle
from strategies import announced_tables, core_tables

SHORT_INPUTS = ["".join(w) for n in range(3)
                for w in itertools.product("01", repeat=n)]


@pytest.fixture(scope="module")
def zero():
    return make_bundle("zero")


@pytest.fixture(scope="module")
def odd():
    return make_bundle("odd")


@pytest.fixture(scope="module")
def blocks():
    return make_bundle("equal_blocks", {"branches": 4})


@pytest.mark.parametrize("x", ["", "0", "1", "010", "1101"])
def test_one_way_runs_take_input_plus_two_steps(zero, x):
    r = run_protocol(zero.verifier, x, zero.honest_prover(x))
    assert r.steps == len(x) + 2
    assert r.residual == pytest.approx(0.0, abs=1e-12)
    assert r.p_acc + r.p_rej == pytest.approx(1.0)
    assert not r.budget_exhausted


@pytest.mark.parametrize("x,member", [
    ("0", True), ("10", True), ("1", False), ("01", False), ("", False),
])
def test_zero_honest_acceptance(zero, x, member):
    r = run_protocol(zero.verifier, x, zero.honest_prover(x))
    assert r.p_acc == pytest.approx(1.0 if member else 0.0, abs=1e-12)


def test_acceptance_bounds_include_residual():
    blocks = make_bundle("equal_blocks", {"branches": 2})
    cfg = EngineConfig(max_steps=5)
    r = run_protocol(blocks.verifier, "0011", IdentityProver(), cfg)
    assert r.budget_exhausted
    assert r.residual > 0.0
    lo, hi = r.acceptance_bounds
    assert lo == pytest.approx(r.p_acc)
    assert hi == pytest.approx(min(1.0, r.p_acc + r.residual))


def test_conservation_check_passes_at_zero_prune(zero, blocks):
    cfg = EngineConfig(check_conservation=True, prune=0.0)
    run_protocol(zero.verifier, "0110", zero.honest_prover("0110"), cfg)
    run_protocol(blocks.verifier, "0011", blocks.honest_prover("0011"), cfg)


def test_conservation_counts_mass_pruned_after_the_prover_round(odd):
    # a small rotation of the comm cell in round 1 leaves a component
    # below the prune threshold; its mass must land in the pruned share
    s = 1e-4
    c = math.sqrt(1.0 - s * s)
    prover = ExplicitRoundProver({1: ([(BLANK, ()), ("a", ())],
                                      [[c, -s], [s, c]])})
    cfg = EngineConfig(check_conservation=True, prune=1e-3)
    r = run_protocol(odd.verifier, "10", prover, cfg)
    assert r.p_acc + r.p_rej + r.residual == pytest.approx(1.0 - s * s,
                                                           abs=1e-12)


def leaky_verifier(s=1e-4):
    """One-way: `^` sends amplitude s to q1, the rest to q0; both accept
    at `$`, so the true acceptance is 1 on every input."""
    c = math.sqrt(1.0 - s * s)
    rows = {
        LEFT_END: {("q0", BLANK): ((c, "q0", BLANK), (s, "q1", BLANK)),
                   ("q1", BLANK): ((-s, "q0", BLANK), (c, "q1", BLANK))},
        "0": {(q, BLANK): ((1.0, q, BLANK),) for q in ("q0", "q1")},
        RIGHT_END: {("q0", BLANK): ((1.0, "acc0", BLANK),),
                    ("q1", BLANK): ((1.0, "acc1", BLANK),)},
    }
    return complete_verifier(
        name="leaky", input_alphabet=("0",), comm_alphabet=(BLANK,),
        non_halting=("q0", "q1"), accepting=("acc0", "acc1"),
        rejecting=("rej",), initial="q0", two_way=False, core_rows=rows,
        head_dir={},
    )


def test_acceptance_bounds_include_pruned_mass():
    v = leaky_verifier()
    exact = run_protocol(v, "00", IdentityProver(), EngineConfig(prune=0.0))
    assert exact.p_acc == pytest.approx(1.0, abs=1e-15)
    r = run_protocol(v, "00", IdentityProver(), EngineConfig(prune=1e-3))
    assert r.pruned == pytest.approx(1e-8, rel=1e-6)
    lo, hi = r.acceptance_bounds
    assert lo == pytest.approx(1.0 - 1e-8, abs=1e-15)
    assert hi == pytest.approx(1.0, abs=1e-15)


def test_mcomp_counts_pruned_mass():
    trace = run_mcomp(leaky_verifier(), "00", EngineConfig(prune=1e-3))
    assert trace.pruned == pytest.approx(1e-8, rel=1e-6)
    assert trace.p_acc + trace.p_rej + trace.residual + sum(
        trace.masses) + trace.pruned == pytest.approx(1.0, abs=1e-15)


def test_announced_dominance_is_inexact_when_mass_is_pruned(blocks):
    # every timing branch starts below the threshold and is pruned, so
    # nothing is measured: the true optimum 0.25 is only bounded, by 1
    sweep = best_schedule_acceptance(blocks.verifier, "001",
                                     EngineConfig(prune=0.6))
    assert not sweep.exact
    assert sweep.best_p == pytest.approx(1.0)


def test_schedule_dp_refuses_a_missing_live_row(odd):
    doc = verifier_document(odd.verifier)
    doc["rows"]["0"] = [entry for entry in doc["rows"]["0"]
                        if entry["source"] != ["q0", BLANK]]
    gappy = parse_spec(serialize_spec(doc)).make().verifier
    with pytest.raises(ValidationError, match="incomplete table") as dp:
        best_schedule_acceptance(gappy, "0", method="dp")
    # runs meet the gap in a one-configuration step, through the same
    # lookup and with the same error
    for run in (lambda: run_protocol(gappy, "0"),
                lambda: best_schedule_acceptance(gappy, "0",
                                                 method="enumeration")):
        with pytest.raises(ValidationError) as got:
            run()
        assert str(got.value) == str(dp.value)


@pytest.mark.parametrize("token", ["zero", "odd"])
def test_schedule_dp_runs_inputs_past_the_recursion_limit(token, capsys):
    bundle = make_bundle(token)
    for x in ("0" * 1500, "0" * 1499 + "1", "0" * 750 + "1" + "0" * 750):
        sweep = best_schedule_acceptance(bundle.verifier, x)
        assert sweep.best_p == float(bundle.language(x))
    assert cli.main(["sweep", token, "--inputs", "0" * 1500]) == 0
    assert "0" * 1500 in capsys.readouterr().out


@settings(max_examples=40, deadline=None)
@given(core_tables(two_way=False, max_width=1))
def test_schedule_dp_matches_enumeration_on_random_tables(kwargs):
    v = complete_verifier(**kwargs)
    for x in SHORT_INPUTS:
        dp = best_schedule_acceptance(v, x, method="dp")
        brute = best_schedule_acceptance(v, x, method="enumeration")
        assert dp.best_p == pytest.approx(brute.best_p, abs=1e-12)
        rerun = run_protocol(v, x, MessageSchedule(dp.schedule))
        assert rerun.p_acc == pytest.approx(dp.best_p, abs=1e-12)
        for sweep in (dp, brute):
            assert sweep.witness.p_acc == pytest.approx(sweep.best_p,
                                                        abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(announced_tables(), st.integers(2, 5), st.sampled_from(SHORT_INPUTS))
def test_announced_dominance_matches_schedule_enumeration(kwargs, max_steps,
                                                          x):
    v = complete_verifier(**kwargs)
    cfg = EngineConfig(max_steps=max_steps)
    sweep = best_schedule_acceptance(v, x, cfg)
    brute = max(
        run_protocol(v, x, schedule, cfg).acceptance_bounds[1]
        for schedule in enumerate_schedules(v.comm_alphabet, max_steps - 1))
    assert sweep.best_p == pytest.approx(brute, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(core_tables())
def test_engine_steps_follow_the_step_operator(kwargs):
    v = complete_verifier(**kwargs)
    cfg = EngineConfig(prune=0.0, record_steps=True, max_steps=6)
    for x in SHORT_INPUTS:
        entries, basis = build_step_operator(v, x)
        mat = np.zeros((len(basis), len(basis)), dtype=complex)
        for row, col, amp in entries:
            mat[row, col] += amp
        index = {label: i for i, label in enumerate(basis)}
        accepting = np.array([v.is_accepting(q) for q, _, _ in basis])
        halting = np.array([v.is_halting(q) for q, _, _ in basis])
        vec = np.zeros(len(basis), dtype=complex)
        vec[index[(v.initial, 0, BLANK)]] = 1.0
        p_acc = 0.0
        for rec in run_protocol(v, x, IdentityProver(), cfg).step_records:
            vec = mat @ vec
            p_acc += float(np.sum(np.abs(vec[accepting]) ** 2))
            vec[halting] = 0.0
            live = np.zeros(len(basis), dtype=complex)
            for (q, k, g, y), a in rec.live:
                assert y == ()
                live[index[(q, k, g)]] = a
            assert np.allclose(live, vec, rtol=0.0, atol=1e-12)
            assert rec.p_acc == pytest.approx(p_acc, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(core_tables(two_way=False, splits=(0.5, 1e-8)))
def test_mcomp_conserves_mass_with_pruning(kwargs):
    v = complete_verifier(**kwargs)
    cfg = EngineConfig(prune=1e-3)
    for x in SHORT_INPUTS:
        trace = run_mcomp(v, x, cfg)
        total = (trace.p_acc + trace.p_rej + trace.residual
                 + sum(trace.masses) + trace.pruned)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_step_records_trace_the_run(zero):
    cfg = EngineConfig(record_steps=True)
    r = run_protocol(zero.verifier, "10", zero.honest_prover("10"), cfg)
    assert len(r.step_records) == r.steps
    assert [rec.step for rec in r.step_records] == list(range(1, r.steps + 1))
    last = r.step_records[-1]
    assert last.p_acc == pytest.approx(r.p_acc)
    assert last.p_rej == pytest.approx(r.p_rej)
    assert last.live == []


def test_interaction_count_tracks_nonblank_writes(zero):
    # the public verifier announces its state on every live step, so the
    # count equals the number of live steps with a non-blank comm write;
    # on "10" that is steps 1..3 (the final halting write is not counted)
    assert interaction_count(zero.verifier, "10", zero.honest_prover("10")) == 3


@pytest.mark.parametrize("x,count", [("10", 1), ("110", 1), ("0", 0), ("00", 0)])
def test_interaction_count_on_odd_protocol(odd, x, count):
    assert interaction_count(odd.verifier, x, odd.honest_prover(x)) == count


def test_mcomp_masses_for_odd_short_input(odd):
    trace = run_mcomp(odd.verifier, "01")
    assert trace.masses == pytest.approx([0.0, 0.0, 0.0, 1.0, 0.0], abs=1e-12)
    assert trace.steps == 4
    assert trace.p_acc + trace.p_rej + trace.residual + sum(
        trace.masses) == pytest.approx(1.0)


def test_mcomp_rejects_two_way(blocks):
    with pytest.raises(EngineError):
        run_mcomp(blocks.verifier, "01")


@pytest.mark.parametrize("prefix,suffix", [
    ("0", "1"), ("01", "10"), ("", "011"), ("11", ""),
])
def test_query_weight_splits_additively(odd, prefix, suffix):
    whole = query_weight(odd.verifier, "", prefix + suffix)
    head = query_weight(odd.verifier, "", prefix)
    tail = query_weight(odd.verifier, prefix, suffix)
    assert head + tail == pytest.approx(whole, abs=1e-12)


def test_resolve_max_steps_policies(zero, blocks):
    assert resolve_max_steps(zero.verifier, "0101") == 6
    # explicit override beats everything for two-way machines
    assert resolve_max_steps(blocks.verifier, "01",
                             EngineConfig(max_steps=7)) == 7
    # bundles carry a linear step hint
    hint = blocks.verifier.metadata["suggested_max_steps"]
    cells = len("01") + 2
    expected = hint["per_cell"] * cells + hint["base"]
    assert resolve_max_steps(blocks.verifier, "01") == expected


def test_schedule_best_dp_matches_enumeration(zero, odd):
    for bundle in (zero, odd):
        for x in ("", "0", "1", "01", "110"):
            dp = best_schedule_acceptance(bundle.verifier, x, method="dp")
            brute = best_schedule_acceptance(
                bundle.verifier, x, method="enumeration")
            assert dp.best_p == pytest.approx(brute.best_p, abs=1e-12)
            assert dp.exact and brute.exact
            # the reported witness schedule actually achieves the optimum
            rerun = run_protocol(
                bundle.verifier, x, MessageSchedule(dp.schedule))
            assert rerun.p_acc == pytest.approx(dp.best_p, abs=1e-12)
            # each sweep carries a run that attains its value
            for sweep in (dp, brute):
                assert sweep.witness.p_acc == pytest.approx(sweep.best_p,
                                                            abs=1e-12)
            assert dp.witness.prover_id == MessageSchedule(
                dp.schedule).prover_id


def test_two_way_schedule_sweep_uses_announcements(blocks):
    # live states each announce a single comm symbol, so the sweep is exact
    announce = announcement_map(blocks.verifier)
    assert set(announce) == set(blocks.verifier.non_halting)
    member = best_schedule_acceptance(blocks.verifier, "0011")
    assert member.best_p == pytest.approx(1.0, abs=1e-12)
    assert member.exact
    assert member.method.startswith("announced-dominance")
    negative = best_schedule_acceptance(blocks.verifier, "001")
    assert negative.best_p == pytest.approx(0.25, abs=1e-12)
    for sweep in (member, negative):
        assert sweep.witness.acceptance_bounds[1] == sweep.best_p
        assert sweep.method.endswith(":" + sweep.witness.prover_id)


@pytest.mark.parametrize("kwargs", [
    {"method": "dp"}, {"method": "enumeration"},
])
def test_two_way_schedule_sweep_refuses_one_way_options(blocks, kwargs):
    with pytest.raises(EngineError):
        best_schedule_acceptance(blocks.verifier, "01", **kwargs)


@pytest.mark.parametrize("bundle_name", ["zero", "equal_blocks"])
def test_schedule_sweep_rejects_unknown_method(bundle_name):
    verifier = make_bundle(bundle_name).verifier
    with pytest.raises(EngineError, match="unknown sweep method"):
        best_schedule_acceptance(verifier, "01", method="bogus")


def _count_live_rows(monkeypatch, verifier, calls):
    """Record verifier.name in calls each time verifier.live_rows runs."""
    live_rows = verifier.live_rows

    def counted():
        calls.append(verifier.name)
        return live_rows()

    monkeypatch.setattr(verifier, "live_rows", counted)


def test_announcement_analysis_runs_once_per_verifier(monkeypatch):
    calls = []
    blocks = make_bundle("equal_blocks", {"branches": 2})
    center = make_bundle("center", {"branches": 2})
    for bundle in (blocks, center):
        _count_live_rows(monkeypatch, bundle.verifier, calls)
    for x in ("", "01", "0011", "001"):
        best_schedule_acceptance(blocks.verifier, x)
    for x in ("1", "100"):
        with pytest.raises(FamilyInadequacyError, match="comm symbols"):
            best_schedule_acceptance(center.verifier, x)
    assert calls == ["equal_blocks", "center"]
    # callers get their own copy of the cached map
    announcement_map(blocks.verifier).clear()
    assert announcement_map(blocks.verifier)


def _branching_one_way():
    h = 2 ** -0.5
    rows = {
        LEFT_END: {("s", BLANK): ((h, "s", BLANK), (h, "acc", BLANK))},
        "0": {("s", BLANK): ((1.0, "s", BLANK),)},
        RIGHT_END: {("s", BLANK): ((1.0, "acc", BLANK),)},
    }
    return complete_verifier(
        "branchy", ("0",), (BLANK,), ("s",), ("acc",), ("rej",), "s",
        False, rows, {})


@pytest.mark.parametrize("fact,refuse,match", [
    ("announcement", announcement_map, "comm symbols"),
    ("branching",
     lambda v: best_schedule_acceptance(v, "00"), "branches at"),
], ids=["center-announcement", "one-way-branching"])
def test_a_refusal_is_cached(fact, refuse, match, monkeypatch):
    verifier = (make_bundle("center", {"branches": 2}).verifier
                if fact == "announcement" else _branching_one_way())
    calls = []
    _count_live_rows(monkeypatch, verifier, calls)
    messages = []
    for _ in range(2):
        with pytest.raises(FamilyInadequacyError, match=match) as info:
            refuse(verifier)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert fact in vars(verifier)
    assert calls == [verifier.name]


def test_concurrent_first_analyses_agree():
    # library callers sharing one verifier across threads may fill its
    # cache at the same time
    blocks = make_bundle("equal_blocks", {"branches": 2})
    expected = announcement_map(make_bundle("equal_blocks",
                                            {"branches": 2}).verifier)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            maps = list(pool.map(
                lambda _: announcement_map(blocks.verifier), range(16),
                timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert maps == [expected] * 16
    assert vars(blocks.verifier)["announcement"] == (expected, None)


def test_center_is_not_announced():
    center = make_bundle("center", {"branches": 2})
    with pytest.raises(FamilyInadequacyError):
        best_schedule_acceptance(center.verifier, "100")


def test_sweep_family_reports_worst_case():
    center = make_bundle("center", {"branches": 2})
    cfg = EngineConfig(count_interactions=True)
    sweep = sweep_family(center.verifier, "100",
                         center.adversary_family("100"), cfg)
    assert sweep.best_upper == pytest.approx(0.5, abs=1e-9)
    assert len(sweep.rows) == len(center.adversary_family("100"))
    for result in sweep.rows:
        lo, hi = result.acceptance_bounds
        assert result.input == "100"
        assert isinstance(result.prover_id, str)
        assert 0.0 <= lo <= hi <= 1.0
        assert result.interactions is not None


def test_sweep_family_runs_each_distinct_prover_once(monkeypatch):
    center = make_bundle("center", {"branches": 2})
    x = "100"
    mark = center.honest_prover(x)
    family = [mark, IdentityProver(), *center.adversary_family(x),
              MessageSchedule(dict(mark.writes), prover_id=mark.prover_id),
              IdentityProver()]
    want = [run_protocol(center.verifier, x, p) for p in family]
    runs = []
    monkeypatch.setattr(engine, "run_protocol", lambda *args: runs.append(
        args[2]) or run_protocol(*args))
    sweep = sweep_family(center.verifier, x, family)
    # the honest prover is the family's mark@2, so the four distinct
    # provers are identity and mark@1..3
    assert len(runs) == 4
    assert [r.prover_id for r in runs] == ["mark@2", "identity", "mark@1",
                                           "mark@3"]
    assert len(sweep.rows) == len(family)
    for got, ran in zip(sweep.rows, want):
        ran.wallclock = got.wallclock
        assert got == ran
    assert sweep.rows[1] is sweep.rows[2] is sweep.rows[-1]
    uppers = [r.acceptance_bounds[1] for r in want]
    assert sweep.best_upper == max(uppers)
    assert sweep.witness is sweep.rows[uppers.index(max(uppers))]


class _EqualByIdResponder(HistoryResponder):
    # defines __eq__ without __hash__, so it cannot be hashed
    def __eq__(self, other):
        return isinstance(other, _EqualByIdResponder) and (
            other.prover_id == self.prover_id)


@dataclass
class _DataResponder(HistoryResponder):
    # a dataclass compares by value and sets __hash__ to None
    reply: object
    prover_id: str = "data"


def test_sweep_family_runs_unhashable_provers_each_time(monkeypatch):
    center = make_bundle("center", {"branches": 2})
    x = "100"
    mark = center.honest_prover(x)
    echo = _EqualByIdResponder(lambda t, g: g, prover_id="echo")
    data = _DataResponder(lambda t, g: "#")
    family = [mark, echo, data, echo, data, mark]
    for prover in (echo, data):
        with pytest.raises(TypeError):
            hash(prover)
    want = [run_protocol(center.verifier, x, p) for p in family]
    runs = []
    monkeypatch.setattr(engine, "run_protocol", lambda *args: runs.append(
        args[2]) or run_protocol(*args))
    sweep = sweep_family(center.verifier, x, family)
    # mark's repeat reuses its row; each unhashable prover runs each time
    assert [id(p) for p in runs] == [id(p) for p in family[:5]]
    assert len(sweep.rows) == len(family)
    for got, ran in zip(sweep.rows, want):
        ran.wallclock = got.wallclock
        assert got == ran
    assert sweep.rows[0] is sweep.rows[-1]
    assert sweep.best_upper == max(r.acceptance_bounds[1] for r in want)


def test_identity_provers_and_equal_schedules_compare_equal():
    assert IdentityProver() == IdentityProver()
    assert hash(IdentityProver()) == hash(IdentityProver())
    one = MessageSchedule({3: "a", 4: BLANK}, prover_id="p")
    same = MessageSchedule({4: BLANK, 3: "a"}, prover_id="p")
    assert one == same and hash(one) == hash(same)
    assert MessageSchedule({3: "a"}) == MessageSchedule({3: "a"})
    for other in (MessageSchedule({3: "a", 4: BLANK}, prover_id="q"),
                  MessageSchedule({3: "b", 4: BLANK}, prover_id="p"),
                  MessageSchedule({3: "a"}, prover_id="p"),
                  IdentityProver(),
                  HistoryResponder(lambda t, g: g, prover_id="p")):
        assert one != other and other != one
    # leave-all and identity act alike on the comm cell but log
    # differently, so they stay two provers
    assert MessageSchedule({}, prover_id="identity") != IdentityProver()


def test_sweep_family_refuses_an_empty_family():
    # an empty family has no worst case and no witness run
    center = make_bundle("center", {"branches": 2})
    for empty in ([], iter(())):
        with pytest.raises(EngineError, match="empty prover family"):
            sweep_family(center.verifier, "100", empty)


def test_halt_mass_target_stops_two_way_runs_early(blocks):
    # on a mismatched input the timing branches halt one after another,
    # so a halting-mass target lowered to 1 - tau/2 = 0.5 ends the run
    # before the last branch
    full = run_protocol(blocks.verifier, "001", IdentityProver())
    partial = run_protocol(blocks.verifier, "001", IdentityProver(),
                           EngineConfig(tau=1.0))
    assert partial.steps < full.steps
    assert partial.p_acc + partial.p_rej >= 0.5
    assert partial.residual > 0.0


def test_tape_truncation_is_a_budget_error():
    # the honest run on this member grows a 24-record history
    center = make_bundle("center")
    x = "0001000"
    prover = center.honest_prover(x)
    for trunc in (1, 23):
        with pytest.raises(BudgetError, match="prover history exceeded the "
                           "%d-record truncation" % trunc):
            run_protocol(center.verifier, x, prover,
                         EngineConfig(tape_trunc=trunc))
    full = run_protocol(center.verifier, x, prover, EngineConfig(tape_trunc=24))
    assert full.p_acc == pytest.approx(1.0)


def test_a_non_responders_tape_is_truncated(odd):
    # a permutation that logs one record in round 1, whatever the comm
    logged = ((1, "x"),)
    logger = ExplicitRoundProver({1: (
        [(BLANK, ()), (BLANK, logged), ("a", ()), ("a", logged)],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])})
    with pytest.raises(BudgetError) as info:
        run_protocol(odd.verifier, "10", logger, EngineConfig(tape_trunc=0))
    assert str(info.value) == (
        "prover history exceeded the 0-record truncation")
    run_protocol(odd.verifier, "10", logger, EngineConfig(tape_trunc=1))


def test_schedule_dp_refuses_a_non_unimodular_amplitude():
    # tau=inf lets a branch-free row of amplitude 0.5 past the per-symbol
    # check; the DP's premise still fails on it
    v = complete_verifier(
        name="half", input_alphabet=("0",), comm_alphabet=(BLANK,),
        non_halting=("q0",), accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=False, head_dir={},
        core_rows={LEFT_END: {("q0", BLANK): ((0.5, "q0", BLANK),)}},
        tau=float("inf"))
    with pytest.raises(FamilyInadequacyError) as info:
        best_schedule_acceptance(v, "0")
    assert str(info.value) == (
        "non-unimodular branch-free amplitude at ('q0', '#')")


def test_prover_runs_once_per_comm_and_tape_per_round():
    # the prover never sees the verifier's state or head, so every
    # configuration sharing a (comm, tape) in a round shares one action
    center = make_bundle("center", {"branches": 4})
    x = "0001000"
    writes = center.honest_prover(x).writes
    calls = []

    def reply(t, g):
        calls.append((t, g))
        return writes.get(t, g)

    result = run_protocol(center.verifier, x, HistoryResponder(reply),
                          EngineConfig(record_steps=True))
    assert result.p_acc == pytest.approx(1.0)
    # the prover acts after every step but the last
    rounds = result.step_records[:result.steps - 1]
    triples = {(rec.step, g, tape) for rec in rounds
               for (_, _, g, tape), _ in rec.live}
    configurations = sum(len(rec.live) for rec in rounds)
    assert len(calls) == len(triples) < configurations


def _reference_verifier_step(verifier, cells, live, counts):
    """One verifier step, then the halting projection, with no prune:
    the reference kernel for the engine's one-pass _verifier_step.
    Returns (survivors, accepted, rejected, query mass, each non-halting
    target's largest interaction count when counts is given).
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
        w = (a * a.conjugate()).real
        if verifier.is_accepting(key[0]):
            accepted += w
        elif verifier.is_rejecting(key[0]):
            rejected += w
        else:
            survivors[key] = a
            if key[2] != BLANK:
                query_mass += w
    return survivors, accepted, rejected, query_mass, nxt_counts


def _reference_run(verifier, x, prover, cfg):
    """run_protocol keyed by the tape tuples themselves, one dict key
    (state, head, comm, tape) per configuration: the reference for the
    engine's interned tape ids.  The wallclock is left at 0.
    """
    moves = verifier.completed.live_moves
    cells = [moves[s] for s in padded_input(x, verifier.input_alphabet)]
    max_steps = resolve_max_steps(verifier, x, cfg)
    trunc = cfg.tape_trunc if cfg.tape_trunc is not None else max_steps + 2
    halt_target = 1.0 - 0.5 * cfg.tau
    start = (verifier.initial, 0, BLANK, ())
    live = SparseVector({start: 1.0 + 0j})
    counts = {start: 0} if cfg.count_interactions else None
    p_acc = p_rej = pruned_mass = 0.0
    max_queries = 0
    records = [] if cfg.record_steps else None
    steps = 0
    budget_exhausted = False
    for t in range(1, max_steps + 1):
        steps = t
        live, accepted, rejected, query_mass, nxt_counts = (
            _reference_verifier_step(verifier, cells, live, counts))
        p_acc += accepted
        p_rej += rejected
        pruned_mass += live.prune(cfg.prune)
        if counts is not None:
            counts = {key: c for key, c in nxt_counts.items() if key in live}
            if counts:
                max_queries = max(max_queries, max(counts.values()))
        if records is not None:
            records.append(engine.StepRecord(
                step=t, live=sorted(live.items()), p_acc=p_acc, p_rej=p_rej,
                query_mass=query_mass,
            ))
        if t == max_steps:
            budget_exhausted = bool(live) and verifier.two_way
            break
        if verifier.two_way and (not live or p_acc + p_rej >= halt_target):
            break
        nxt = SparseVector()
        nxt_counts = {} if counts is not None else None
        for (q, k, g, y), a in live.items():
            base = counts[(q, k, g, y)] if counts is not None else 0
            for pamp, g2, y2 in prover.apply(t, g, y):
                if len(y2) > trunc:
                    raise BudgetError(
                        "prover history exceeded the %d-record truncation"
                        % trunc)
                key = (q, k, g2, y2)
                nxt.add(key, a * pamp)
                if nxt_counts is not None:
                    nxt_counts[key] = max(nxt_counts.get(key, -1), base)
        pruned_mass += nxt.prune(cfg.prune)
        live = nxt
        if counts is not None:
            counts = nxt_counts
    return engine.RunResult(
        input=x, prover_id=prover.prover_id, p_acc=p_acc, p_rej=p_rej,
        residual=live.norm_sq(), steps=steps,
        interactions=max_queries if cfg.count_interactions else None,
        budget_exhausted=budget_exhausted, step_records=records,
        pruned=pruned_mass,
    )


def _reference_enumeration(verifier, x, cfg):
    """best_schedule_acceptance(method="enumeration") as one run_protocol
    per enumerated schedule: the reference for the engine's trie walk.
    """
    engine._require_schedule_adequacy(verifier)
    witness = None
    runs = 0
    for schedule in enumerate_schedules(verifier.comm_alphabet, len(x) + 1):
        result = run_protocol(verifier, x, schedule, cfg)
        runs += 1
        if witness is None or result.p_acc > witness.p_acc:
            witness = result
            best_writes = dict(schedule.writes)
    return engine.ScheduleSweep(
        input=x, best_p=float(witness.p_acc), schedule=best_writes,
        exact=True, method="enumeration", runs=runs, witness=witness,
    )


def _assert_same_run(got, want):
    # repr is exact for floats and complexes, and tells -0.0 from 0.0
    for name in ("p_acc", "p_rej", "residual", "pruned", "interactions",
                 "steps", "budget_exhausted", "step_records"):
        assert repr(getattr(got, name)) == repr(getattr(want, name))


def _draw_prover(data, v, rounds):
    """A message schedule, a history responder or a comm mixer acting in
    rounds 1..rounds."""
    comm = st.sampled_from(v.comm_alphabet)
    kinds = ["schedule", "replies"]
    if len(v.comm_alphabet) > 1:
        kinds.append("mixer")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "schedule":
        prover = MessageSchedule(data.draw(
            st.dictionaries(st.integers(1, rounds), comm)))
    elif kind == "replies":
        replies = data.draw(st.dictionaries(
            st.tuples(st.integers(1, rounds), comm), comm))
        prover = HistoryResponder(
            lambda t, g: replies.get((t, g), g), prover_id="replies")
    else:
        # a Hadamard on two comm symbols, the second possibly with a new
        # tape: one cached action then holds two outputs
        a, b = data.draw(st.permutations(v.comm_alphabet))[:2]
        s = 1.0 / math.sqrt(2.0)
        ops = {}
        for r in data.draw(st.sets(st.integers(1, rounds), min_size=1)):
            tape = ((r, a),) if data.draw(st.booleans()) else ()
            ops[r] = ([(a, ()), (b, tape)], [[s, s], [s, -s]])
        prover = ExplicitRoundProver(ops, prover_id="mixer")
    return prover


@settings(max_examples=60, deadline=None)
@given(core_tables(two_way=True, splits=(0.5, 1e-8)), st.data())
def test_interned_tapes_match_the_tuple_keyed_reference(kwargs, data):
    v = complete_verifier(**kwargs)
    rounds = 7
    prover = _draw_prover(data, v, rounds)
    for x in SHORT_INPUTS:
        for prune in (0.0, 1e-3):
            cfg = EngineConfig(prune=prune, max_steps=rounds + 1,
                               count_interactions=True, record_steps=True)
            got = run_protocol(v, x, prover, cfg)
            _assert_same_run(got, _reference_run(v, x, prover, cfg))
            assert all(isinstance(key[3], tuple)
                       for rec in got.step_records for key, _ in rec.live)


class BlankLogger(HistoryResponder):
    """A responder whose respond logs the blank observations too, so
    every comm symbol appends a record to the tape."""

    def respond(self, round_index, comm):
        return self.reply(round_index, comm), (round_index, comm)


@settings(max_examples=60, deadline=None)
@given(core_tables(two_way=False, splits=(0.5, 1e-8)), st.data())
def test_interned_tapes_match_the_reference_on_one_way_tables(kwargs, data):
    v = complete_verifier(**kwargs)
    rounds = 3
    if data.draw(st.booleans()):
        comm = st.sampled_from(v.comm_alphabet)
        replies = data.draw(st.dictionaries(
            st.tuples(st.integers(1, rounds), comm), comm))
        prover = BlankLogger(lambda t, g: replies.get((t, g), g),
                             prover_id="blank-logger")
    else:
        prover = _draw_prover(data, v, rounds)
    for x in SHORT_INPUTS:
        for prune in (0.0, 1e-3):
            cfg = EngineConfig(prune=prune, count_interactions=True,
                               record_steps=True)
            _assert_same_run(run_protocol(v, x, prover, cfg),
                             _reference_run(v, x, prover, cfg))


class Collapser(HistoryResponder):
    """A responder whose respond is no permutation: it erases the comm
    cell and logs nothing, so (q, k, m, i) lands on (q, k, blank, i)."""

    def respond(self, round_index, comm):
        return BLANK, None


class SummedCollapser(Collapser):
    """Collapser with apply overridden, so the engine sums its rounds."""

    def apply(self, round_index, comm, tape):
        return [(1.0, BLANK, tape)]


def test_a_responder_that_merges_configurations_is_summed():
    # the step on `^` splits q0 into (q1, blank) and (q1, m); the
    # collapser merges them into amplitude sqrt(2) on (q1, blank)
    half = 1 / math.sqrt(2)
    v = complete_verifier(
        name="merge", input_alphabet=("0",), comm_alphabet=(BLANK, "m"),
        non_halting=("q0", "q1"), accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=False,
        core_rows={LEFT_END: {("q0", BLANK): ((half, "q1", BLANK),
                                              (half, "q1", "m"))},
                   RIGHT_END: {("q1", BLANK): ((1.0, "acc", BLANK),)}},
        head_dir={})
    cfg = EngineConfig(count_interactions=True, record_steps=True)
    got = run_protocol(v, "", Collapser(None), cfg)
    _assert_same_run(got, run_protocol(v, "", SummedCollapser(None), cfg))
    _assert_same_run(got, _reference_run(v, "", Collapser(None), cfg))
    assert got.p_acc == 1.9999999999999996


@pytest.mark.parametrize("name,branches,inputs", [
    ("center", 2, ("010", "0110", "00100")),
    ("center", 3, ("010", "1101011")),
    ("equal_blocks", 2, ("0011", "0101")),
])
def test_interned_tapes_match_the_reference_on_interfering_runs(
        name, branches, inputs):
    # timing branches with equal histories interfere again at the end, so
    # equal tapes reached from different configurations must share an id
    bundle = make_bundle(name, {"branches": branches})
    for x in inputs:
        for prover in [bundle.honest_prover(x), *bundle.adversary_family(x)]:
            for prune in (0.0, 1e-3):
                cfg = EngineConfig(prune=prune, count_interactions=True,
                                   record_steps=True)
                _assert_same_run(
                    run_protocol(bundle.verifier, x, prover, cfg),
                    _reference_run(bundle.verifier, x, prover, cfg))


def test_a_prover_tape_is_entered_once_and_then_found_by_identity(zero):
    # an explicit prover swaps in a 3-record basis tape, then a 6-record
    # one extending it, then a 1-record one that extends neither, and
    # hands that tuple back every later round
    v = zero.verifier
    x = "1010"
    short = ((1, "m"), (2, "m"), (3, "m"))
    long_ = short + ((4, "m"), (5, "m"), (6, "m"))
    other = ((1, "z"),)
    comms = sorted(v.comm_alphabet, key=str)
    n = len(comms)
    swap = [[float(abs(a - b) == n) for b in range(2 * n)]
            for a in range(2 * n)]
    ops = {}
    for r, (y, y2) in enumerate([((), short), (short, long_),
                                 (long_, other)], start=1):
        ops[r] = ([(g, y) for g in comms] + [(g, y2) for g in comms], swap)
    for r in range(4, len(x) + 2):
        ops[r] = ([(g, other) for g in comms],
                  [[float(a == b) for b in range(n)] for a in range(n)])
    prover = ExplicitRoundProver(ops, prover_id="explicit")
    cfg = EngineConfig(record_steps=True, count_interactions=True)
    state = engine.RunState(v, x, cfg)
    while state.verifier_step():
        state.prover_round(prover)
    assert state.t == len(x) + 2
    assert len(state.tapes) == len(long_) + 2
    assert state.tapes[len(long_)] is long_
    assert state.tapes[-1] is other
    _assert_same_run(state.result(prover), _reference_run(v, x, prover, cfg))


def test_step_records_list_tapes_in_tape_order():
    # the 'b' branch comes first, so its tape gets the smaller id, but the
    # records sort by the tapes themselves
    half = 1 / math.sqrt(2)
    rows = {LEFT_END: {("q0", BLANK): ((half, "q1", "b"), (half, "q1", "a"))}}
    rows.update({s: {("q1", BLANK): ((1.0, "q1", BLANK),)}
                 for s in ("0", RIGHT_END)})
    v = complete_verifier(
        name="fan", input_alphabet=("0",), comm_alphabet=(BLANK, "a", "b"),
        non_halting=("q0", "q1"), accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=True, core_rows=rows,
        head_dir={"q0": 1, "q1": 1, "acc": 0, "rej": 0})
    prover = MessageSchedule({1: BLANK})
    cfg = EngineConfig(max_steps=3, record_steps=True)
    got = run_protocol(v, "0", prover, cfg)
    _assert_same_run(got, _reference_run(v, "0", prover, cfg))
    assert [key[3] for key, _ in got.step_records[1].live] == [
        ((1, "a"),), ((1, "b"),)]


@settings(max_examples=60, deadline=None)
@given(core_tables(two_way=False, splits=(0.5, 1e-8)), st.data())
def test_one_way_runs_match_the_reference_that_steps_every_cell(kwargs,
                                                                 data):
    # the engine stops simulating once the live vector is empty; the
    # reference steps through the empty tail
    v = complete_verifier(**kwargs)
    prover = _draw_prover(data, v, rounds=3)
    for x in SHORT_INPUTS:
        for prune in (0.0, 1e-3):
            cfg = EngineConfig(prune=prune, record_steps=True,
                               count_interactions=True,
                               check_conservation=True)
            _assert_same_run(run_protocol(v, x, prover, cfg),
                             _reference_run(v, x, prover, cfg))


# Columns of a 4x4 Hadamard-type unitary on the targets (t1, t2, t3, t4).
# Applied to amplitudes (a, a, b) on columns 1, 2 and 3, targets t1 and
# t4 cancel to exactly 0j after column 2, and column 3 lands on them
# again.
_CANCELLING_COLUMNS = ((0.5, 0.5, 0.5, 0.5), (-0.5, 0.5, 0.5, -0.5),
                       (0.5, -0.5, 0.5, -0.5), (0.5, 0.5, -0.5, -0.5))
_SPREAD = (math.sqrt(0.455), math.sqrt(0.455), 0.3)


def _cancelling_verifier(mix):
    """One-way, on input "0": the step on `^` spreads _SPREAD over three
    branches, and on "0" _CANCELLING_COLUMNS maps them onto four accepting
    states.  mix="verifier" takes that map in the verifier step
    (branches q1..q3, targets acc1..acc4); mix="prover" lets the round-1
    prover take it on the comm cell (branches and targets g1..g4, each
    read into its own accepting state).
    """
    on_zero = {}
    if mix == "verifier":
        comm = (BLANK,)
        live = ("q0", "q1", "q2", "q3")
        spread = tuple(zip(_SPREAD, live[1:], (BLANK,) * 3))
        for j, column in enumerate(_CANCELLING_COLUMNS[:3], start=1):
            on_zero["q%d" % j, BLANK] = tuple(
                (amp, "acc%d" % i, BLANK)
                for i, amp in enumerate(column, start=1))
    else:
        comm = (BLANK, "g1", "g2", "g3", "g4")
        live = ("q0", "q1")
        spread = tuple(zip(_SPREAD, ("q1",) * 3, comm[1:4]))
        for i, g in enumerate(comm[1:], start=1):
            on_zero["q1", g] = ((1.0, "acc%d" % i, BLANK),)
    return complete_verifier(
        name="cancel-" + mix, input_alphabet=("0",), comm_alphabet=comm,
        non_halting=live, accepting=("acc1", "acc2", "acc3", "acc4"),
        rejecting=("rej",), initial="q0", two_way=False,
        core_rows={LEFT_END: {("q0", BLANK): spread}, "0": on_zero},
        head_dir={})


@pytest.mark.parametrize("mix", ["verifier", "prover"])
def test_a_key_that_cancels_to_zero_returns_at_the_end_of_dict_order(mix):
    # targets 1 and 4 cancel to 0j and are entered again after targets 2
    # and 3, so the accepted mass sums in the order 2, 3, 1, 4; a sum that
    # kept the cancelled keys in place would add in the order 1, 2, 3, 4
    v = _cancelling_verifier(mix)
    prover = IdentityProver()
    if mix == "prover":
        basis = [(g, ()) for g in ("g1", "g2", "g3", "g4")]
        prover = ExplicitRoundProver(
            {1: (basis, [list(row) for row in zip(*_CANCELLING_COLUMNS)])})
    cfg = EngineConfig(record_steps=True, count_interactions=True)
    got = run_protocol(v, "0", prover, cfg)
    _assert_same_run(got, _reference_run(v, "0", prover, cfg))
    # the two orders give different floats, so the test tells them apart
    amps = [sum((complex(a) * col[i]
                 for a, col in zip(_SPREAD, _CANCELLING_COLUMNS)), 0j)
            for i in range(4)]
    w = [(z * z.conjugate()).real for z in amps]
    assert got.p_acc == 0.0 + w[1] + w[2] + w[0] + w[3]
    assert got.p_acc != 0.0 + w[0] + w[1] + w[2] + w[3]


def test_query_mass_counts_the_survivors_the_prune_then_drops():
    # the prover sends amplitude 0.02 to comm "m"; on "0" that branch
    # keeps amplitude 0.02 * 0.03 = 6e-4 <= prune on comm "m", so step 2
    # measures it as query mass and then prunes it
    s0, s = 0.02, 0.03
    c0, c = math.sqrt(1 - s0 * s0), math.sqrt(1 - s * s)
    rows = {
        LEFT_END: {("q0", BLANK): ((1.0, "q1", BLANK),)},
        "0": {("q1", BLANK): ((1.0, "q2", BLANK),),
              ("q1", "m"): ((c, "q3", BLANK), (s, "q4", "m"))},
        RIGHT_END: {("q2", BLANK): ((1.0, "acc", BLANK),),
                    ("q3", BLANK): ((1.0, "acc2", BLANK),)},
    }
    v = complete_verifier(
        name="small-query", input_alphabet=("0",), comm_alphabet=(BLANK, "m"),
        non_halting=("q0", "q1", "q2", "q3", "q4"),
        accepting=("acc", "acc2"), rejecting=("rej",), initial="q0",
        two_way=False, core_rows=rows, head_dir={})
    prover = ExplicitRoundProver({1: ([(BLANK, ()), ("m", ())],
                                      [[c0, -s0], [s0, c0]])})
    cfg = EngineConfig(prune=1e-3, record_steps=True,
                       count_interactions=True, check_conservation=True)
    got = run_protocol(v, "0", prover, cfg)
    _assert_same_run(got, _reference_run(v, "0", prover, cfg))
    step2 = got.step_records[1]
    assert [key[:3] for key, _ in step2.live] == [("q2", 2, BLANK),
                                                   ("q3", 2, BLANK)]
    assert step2.query_mass == pytest.approx((s0 * s) ** 2, rel=1e-12)
    assert got.pruned == pytest.approx((s0 * s) ** 2, rel=1e-12)


def _phase_chain(amp, halt):
    """One-way: every row has the one target amp * (next state), so each
    step of a run carries one configuration.  `^` writes m, the cells
    keep it and `$` moves into the halting state halt."""
    return complete_verifier(
        name="chain", input_alphabet=("0",), comm_alphabet=(BLANK, "m"),
        non_halting=("q0", "q1"), accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=False,
        core_rows={LEFT_END: {("q0", BLANK): ((amp, "q1", "m"),)},
                   "0": {("q1", "m"): ((amp, "q1", "m"),)},
                   RIGHT_END: {("q1", "m"): ((amp, halt, BLANK),)}},
        head_dir={})


@pytest.mark.parametrize("amp", [-1.0, 1j, -1j], ids=["-1", "1j", "-1j"])
@pytest.mark.parametrize("halt", ["acc", "rej"])
def test_one_configuration_steps_match_the_reference(amp, halt):
    # the phases -1, 1j and -1j give -0.0 parts that only 0j + a * amp
    # clears; the identity run halts in halt, the erasing schedule into
    # round 2's guard row; prune=1.0 drops step 1's non-blank survivor,
    # whose mass still counts as query mass
    v = _phase_chain(amp, halt)
    for prover in (IdentityProver(), MessageSchedule({2: BLANK})):
        for x in ("", "0", "000"):
            for prune in (0.0, 1.0):
                cfg = EngineConfig(prune=prune, record_steps=True,
                                   count_interactions=True,
                                   check_conservation=True)
                _assert_same_run(run_protocol(v, x, prover, cfg),
                                 _reference_run(v, x, prover, cfg))
    pruned = run_protocol(v, "0", IdentityProver(),
                          EngineConfig(prune=1.0, record_steps=True))
    assert (pruned.pruned, pruned.step_records[0].query_mass) == (1.0, 1.0)


def _reference_mcomp(verifier, x, cfg):
    """run_mcomp stepping every cell, also after the live vector empties."""
    moves = verifier.completed.live_moves
    cells = [moves[s] for s in padded_input(x, verifier.input_alphabet)]
    live = SparseVector({(verifier.initial, 0, BLANK, ()): 1.0 + 0j})
    masses = [0.0]
    p_acc = p_rej = pruned = 0.0
    records = []
    for t in range(1, len(cells) + 1):
        live, accepted, rejected, query_mass, _ = _reference_verifier_step(
            verifier, cells, live, None)
        p_acc += accepted
        p_rej += rejected
        live = SparseVector(
            (key, a) for key, a in live.items() if key[2] == BLANK)
        pruned += live.prune(cfg.prune)
        masses.append(query_mass)
        records.append(engine.StepRecord(
            step=t, live=sorted((key[:3], a) for key, a in live.items()),
            p_acc=p_acc, p_rej=p_rej, query_mass=query_mass,
        ))
    return engine.MCompTrace(
        input=x, masses=masses, p_acc=p_acc, p_rej=p_rej,
        residual=live.norm_sq(), steps=len(cells), pruned=pruned,
        step_records=records,
    )


@settings(max_examples=60, deadline=None)
@given(core_tables(two_way=False, splits=(0.5, 1e-8)))
def test_mcomp_matches_the_reference_that_steps_every_cell(kwargs):
    v = complete_verifier(**kwargs)
    for x in SHORT_INPUTS:
        for prune in (0.0, 1e-3):
            cfg = EngineConfig(prune=prune, record_steps=True)
            got = run_mcomp(v, x, cfg)
            want = _reference_mcomp(v, x, cfg)
            for name in ("masses", "p_acc", "p_rej", "residual", "pruned",
                         "steps", "step_records"):
                assert repr(getattr(got, name)) == repr(getattr(want, name))


def test_one_way_runs_do_not_simulate_the_empty_tail(odd, monkeypatch):
    # every branch of odd on 0101 halts at step 4; steps 5 and 6 are
    # reported with empty records but never stepped
    calls = []
    body = engine._verifier_step

    def counted(*args):
        calls.append(1)
        return body(*args)

    monkeypatch.setattr(engine, "_verifier_step", counted)
    r = run_protocol(odd.verifier, "0101", IdentityProver(),
                     EngineConfig(record_steps=True))
    assert r.steps == 6
    assert not r.budget_exhausted
    assert [len(rec.live) for rec in r.step_records] == [1, 1, 1, 0, 0, 0]
    assert [rec.query_mass for rec in r.step_records[3:]] == [0.0] * 3
    assert len(calls) == 4
    calls.clear()
    trace = run_mcomp(odd.verifier, "0101", EngineConfig(record_steps=True))
    assert len(trace.masses) == len("0101") + 3
    assert trace.masses == pytest.approx([0.0, 0.0, 0.0, 1.0, 0, 0, 0],
                                         abs=1e-12)
    assert trace.steps == 6 and len(trace.step_records) == 6
    assert len(calls) == 3


@pytest.mark.parametrize("budget", [0, -2])
def test_two_way_step_budget_below_one_is_an_engine_error(budget):
    center = make_bundle("center", {"branches": 2})
    with pytest.raises(EngineError, match="step budget must be >= 1"):
        run_protocol(center.verifier, "010", center.honest_prover("010"),
                     EngineConfig(max_steps=budget))


@settings(max_examples=40, deadline=None)
@given(core_tables(two_way=False, max_width=1), st.data())
def test_schedule_trie_matches_the_per_schedule_reference(kwargs, data):
    v = complete_verifier(**kwargs)
    cfg = EngineConfig(
        prune=data.draw(st.sampled_from((0.0, 1e-3))),
        count_interactions=data.draw(st.booleans()),
        record_steps=data.draw(st.booleans()),
        check_conservation=data.draw(st.booleans()))
    for x in SHORT_INPUTS:
        got = best_schedule_acceptance(v, x, cfg, method="enumeration")
        want = _reference_enumeration(v, x, cfg)
        assert got.best_p == want.best_p
        assert got.runs == want.runs
        assert got.schedule == want.schedule
        assert got.witness.prover_id == want.witness.prover_id
        _assert_same_run(got.witness, want.witness)


@settings(max_examples=60, deadline=None)
@given(core_tables(splits=(0.5, 1e-8)), st.sampled_from(SHORT_INPUTS),
       st.data())
def test_forked_runs_equal_the_runs_of_their_whole_schedules(kwargs, x,
                                                             data):
    # run a prefix schedule to round t, fork, and step the forks in turn,
    # each with its own suffix; the forks share one tape table
    v = complete_verifier(**kwargs)
    rounds = 5 if v.two_way else len(x) + 1
    cfg = EngineConfig(prune=data.draw(st.sampled_from((0.0, 1e-3))),
                       max_steps=rounds + 1, record_steps=True,
                       count_interactions=True, check_conservation=True)
    writes = st.dictionaries(st.integers(1, rounds),
                             st.sampled_from(v.comm_alphabet))
    fork_at = data.draw(st.integers(1, rounds))
    prefix = {t: s for t, s in data.draw(writes).items() if t < fork_at}
    provers = [
        MessageSchedule({**prefix, **{t: s for t, s in suffix.items()
                                      if t >= fork_at}})
        for suffix in data.draw(st.lists(writes, min_size=1, max_size=3))]
    state = engine.RunState(v, x, cfg)
    going = state.verifier_step()
    head = MessageSchedule(prefix)
    while going and state.t < fork_at:
        state.prover_round(head)
        going = state.verifier_step()
    branches = [[state.fork(), going] for _ in provers[1:]] + [[state, going]]
    while any(going for _, going in branches):
        for branch, prover in zip(branches, provers):
            if branch[1]:
                branch[0].prover_round(prover)
                branch[1] = branch[0].verifier_step()
    for (fork, _), prover in zip(branches, provers):
        _assert_same_run(fork.result(prover),
                         run_protocol(v, x, prover, cfg))


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return info.value


@pytest.mark.parametrize("case", [
    "tape_trunc", "family_budget", "not_adequate", "not_conserved"])
def test_schedule_trie_raises_what_the_reference_raises(zero, odd, case):
    verifier, x, cfg = odd.verifier, "0101", EngineConfig()
    if case == "tape_trunc":
        # zero writes its state to the comm cell on every live step, so a
        # leaving schedule logs a record each round
        verifier, x, cfg = zero.verifier, "10", EngineConfig(tape_trunc=1)
    elif case == "family_budget":
        # 3 options over 12 rounds: 531 441 schedules, over the budget
        x = "01101001011"
    elif case == "not_adequate":
        verifier, x = leaky_verifier(), "00"
    else:
        cfg = EngineConfig(check_conservation=True, tau=-1.0)
    want = _raised(lambda: _reference_enumeration(verifier, x, cfg))
    got = _raised(lambda: best_schedule_acceptance(
        verifier, x, cfg, method="enumeration"))
    assert type(got) is type(want)
    assert str(got) == str(want)


def test_schedule_trie_steps_each_node_at_most_once(odd, monkeypatch):
    # odd on 0101: 3 options over 5 rounds, 243 schedules of 6 steps each;
    # the trie has 3 ** (t - 1) nodes at step t, and the witness is rerun
    kernel_calls = []
    runs = []
    step, run = engine._verifier_step, engine.run_protocol

    def counted_step(*args):
        kernel_calls.append(1)
        return step(*args)

    def counted_run(*args):
        runs.append(1)
        return run(*args)

    monkeypatch.setattr(engine, "_verifier_step", counted_step)
    monkeypatch.setattr(engine, "run_protocol", counted_run)
    sweep = best_schedule_acceptance(odd.verifier, "0101",
                                     method="enumeration")
    assert sweep.runs == 3 ** 5
    assert len(runs) == 1
    nodes = sum(3 ** (t - 1) for t in range(1, 7))
    assert len(kernel_calls) <= nodes + 6
    assert len(kernel_calls) < sweep.runs * 6 // 4
