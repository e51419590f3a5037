"""Unit tests for the interactive-protocol simulation engine."""

import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qipsim import engine
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
    with pytest.raises(ValidationError, match="incomplete table"):
        best_schedule_acceptance(gappy, "0", method="dp")


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
        mat, basis = build_step_operator(v, x)
        mat = mat.toarray()
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


def test_schedule_best_committed_only_is_no_better(odd):
    free = best_schedule_acceptance(odd.verifier, "10")
    committed = best_schedule_acceptance(odd.verifier, "10",
                                         committed_only=True)
    assert committed.best_p <= free.best_p + 1e-12
    assert free.best_p == pytest.approx(1.0)


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
    {"method": "dp"}, {"method": "enumeration"}, {"committed_only": True},
])
def test_two_way_schedule_sweep_refuses_one_way_options(blocks, kwargs):
    with pytest.raises(EngineError):
        best_schedule_acceptance(blocks.verifier, "01", **kwargs)


@pytest.mark.parametrize("bundle_name", ["zero", "equal_blocks"])
def test_schedule_sweep_rejects_unknown_method(bundle_name):
    verifier = make_bundle(bundle_name).verifier
    with pytest.raises(EngineError, match="unknown sweep method"):
        best_schedule_acceptance(verifier, "01", method="bogus")


def test_announcement_analysis_runs_once_per_verifier(monkeypatch):
    calls = []
    body = engine._announcement_map

    def counted(verifier):
        calls.append(verifier.name)
        return body(verifier)

    monkeypatch.setattr(engine, "_announcement_map", counted)
    blocks = make_bundle("equal_blocks", {"branches": 2})
    for x in ("", "01", "0011", "001"):
        best_schedule_acceptance(blocks.verifier, x)
    center = make_bundle("center", {"branches": 2})
    for x in ("1", "100"):
        with pytest.raises(FamilyInadequacyError, match="comm symbols"):
            best_schedule_acceptance(center.verifier, x)
    assert calls == ["equal_blocks", "center"]
    # callers get their own copy of the cached map
    announcement_map(blocks.verifier).clear()
    assert announcement_map(blocks.verifier)


def test_concurrent_first_analyses_agree():
    # library callers sharing one verifier across threads may fill its
    # cache at the same time
    blocks = make_bundle("equal_blocks", {"branches": 2})
    expected = engine._announcement_map(blocks.verifier)
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
    assert blocks.verifier.analyses["announcement_map"] == (expected, None)


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


def test_halt_mass_target_stops_two_way_runs_early(blocks):
    # on a mismatched input the timing branches halt one after another,
    # so a lowered halting-mass target ends the run before the last branch
    full = run_protocol(blocks.verifier, "001", IdentityProver())
    partial = run_protocol(blocks.verifier, "001", IdentityProver(),
                           EngineConfig(halt_mass_target=0.5))
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


def _reference_run(verifier, x, prover, cfg):
    """run_protocol keyed by the tape tuples themselves, one dict key
    (state, head, comm, tape) per configuration: the reference for the
    engine's interned tape ids.  The wallclock is left at 0.
    """
    cells = [verifier.moves[s] for s in padded_input(x, verifier.input_alphabet)]
    max_steps = resolve_max_steps(verifier, x, cfg)
    trunc = cfg.tape_trunc if cfg.tape_trunc is not None else max_steps + 2
    halt_target = (
        cfg.halt_mass_target if cfg.halt_mass_target is not None
        else 1.0 - 0.5 * cfg.tau
    )
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
            engine._verifier_step(verifier, cells, live, counts))
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


def _assert_same_run(got, want):
    # repr is exact for floats and complexes, and tells -0.0 from 0.0
    for name in ("p_acc", "p_rej", "residual", "pruned", "interactions",
                 "steps", "budget_exhausted", "step_records"):
        assert repr(getattr(got, name)) == repr(getattr(want, name))


@settings(max_examples=60, deadline=None)
@given(core_tables(two_way=True, splits=(0.5, 1e-8)), st.data())
def test_interned_tapes_match_the_tuple_keyed_reference(kwargs, data):
    v = complete_verifier(**kwargs)
    rounds = 7
    comm = st.sampled_from(v.comm_alphabet)
    if data.draw(st.booleans()):
        prover = MessageSchedule(data.draw(
            st.dictionaries(st.integers(1, rounds), comm)))
    else:
        replies = data.draw(st.dictionaries(
            st.tuples(st.integers(1, rounds), comm), comm))
        prover = HistoryResponder(
            lambda t, g: replies.get((t, g), g), prover_id="replies")
    for x in SHORT_INPUTS:
        for prune in (0.0, 1e-3):
            cfg = EngineConfig(prune=prune, max_steps=rounds + 1,
                               count_interactions=True, record_steps=True)
            got = run_protocol(v, x, prover, cfg)
            _assert_same_run(got, _reference_run(v, x, prover, cfg))
            assert all(isinstance(key[3], tuple)
                       for rec in got.step_records for key, _ in rec.live)


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
