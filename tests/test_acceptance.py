"""Acceptance suite: one pass/fail line per shipped guarantee.

Each test checks one end-to-end guarantee of the packaged protocols at
its stated tolerance and runtime budget, and prints a single verdict
line (visible with `pytest -v -s` or on failure).
"""

import itertools
import random
import time

import pytest

from qipsim.automata import (
    run_1rfa,
    run_2npfa,
    validate_public,
    validate_wellformed,
)
from qipsim.engine import (
    EngineConfig,
    best_schedule_acceptance,
    query_weight,
    resolve_max_steps,
    run_protocol,
    sweep_family,
)
from qipsim.provers import (
    IdentityProver,
    MessageSchedule,
    check_classical,
    check_committed,
    enumerate_schedules,
)
from qipsim.zoo import (
    branch_npfa,
    coin_npfa,
    last_option_chooser,
    make_bundle,
    mod3_rfa,
    parity_rfa,
)


def all_strings(max_len, alphabet="01"):
    for n in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            yield "".join(combo)


def acceptance_bundles():
    """Every packaged protocol at the parameters the guarantees quote."""
    return [
        make_bundle("zero"),
        make_bundle("odd"),
        make_bundle("center", {"branches": 2}),
        make_bundle("center", {"branches": 3}),
        make_bundle("center", {"branches": 4}),
        make_bundle("equal_blocks", {"branches": 4}),
        make_bundle("rfa", {"preset": "parity"}),
        make_bundle("rfa", {"preset": "mod3"}),
        make_bundle("npfa", {"preset": "coin"}),
        make_bundle("npfa", {"preset": "branch"}),
    ]


def verdict(line, elapsed, budget):
    assert elapsed < budget, (
        "runtime budget exceeded: %.1fs >= %.0fs" % (elapsed, budget)
    )
    print("PASS %s [%.1fs < %.0fs]" % (line, elapsed, budget))


def test_criterion_01_center_completeness():
    started = time.perf_counter()
    checked = 0
    for branches in (2, 3, 4):
        bundle = make_bundle("center", {"branches": branches})
        for x in all_strings(7):
            if not bundle.language(x):
                continue
            r = run_protocol(bundle.verifier, x, bundle.honest_prover(x))
            assert abs(r.p_acc - 1.0) <= 1e-9, (branches, x, r.p_acc)
            assert r.residual <= 1e-9
            checked += 1
    assert checked == 3 * 85
    verdict("center completeness: honest p_acc=1 on %d positive runs "
            "(N in {2,3,4}, |x|<=7, tol 1e-9)" % checked,
            time.perf_counter() - started, 10.0)


def test_criterion_02_center_soundness():
    started = time.perf_counter()
    checked = 0
    for branches in (2, 3, 4):
        bundle = make_bundle("center", {"branches": branches})
        cap = 1.0 / branches + 1e-9
        for x in all_strings(7):
            if len(x) % 2 == 0 or bundle.language(x):
                continue
            sweep = sweep_family(bundle.verifier, x,
                                 bundle.adversary_family(x))
            assert sweep.best_upper <= cap, (branches, x, sweep.best_upper)
            checked += 1
    assert checked == 3 * 85
    verdict("center soundness: timing-adversary max p_acc upper <= 1/N+1e-9 "
            "on %d odd-length negative sweeps (N in {2,3,4}, |x|<=7)" % checked,
            time.perf_counter() - started, 60.0)


def test_criterion_03_zero_public_protocol():
    started = time.perf_counter()
    bundle = make_bundle("zero")
    members = nonmembers = 0
    for x in all_strings(8):
        if bundle.language(x):
            r = run_protocol(bundle.verifier, x, bundle.honest_prover(x))
            assert abs(r.p_acc - 1.0) <= 1e-9, (x, r.p_acc)
            members += 1
        else:
            sweep = best_schedule_acceptance(bundle.verifier, x)
            assert sweep.exact
            assert sweep.best_p == 0.0, (x, sweep.best_p)
            nonmembers += 1
    assert members + nonmembers == 511
    verdict("zero: honest p_acc=1 on %d members; exhaustive schedule sweep "
            "max p_acc=0 on %d non-members (|x|<=8)" % (members, nonmembers),
            time.perf_counter() - started, 60.0)


def test_criterion_04_reversible_embedding():
    started = time.perf_counter()
    cases = [("parity", parity_rfa()), ("mod3", mod3_rfa())]
    runs = 0
    for preset, machine in cases:
        bundle = make_bundle("rfa", {"preset": preset})
        for x in all_strings(8):
            want = 1.0 if run_1rfa(machine, x).accepted else 0.0
            r = run_protocol(bundle.verifier, x, bundle.honest_prover(x))
            assert r.p_acc == want, (preset, x, r.p_acc)
            sweep = best_schedule_acceptance(bundle.verifier, x)
            assert sweep.best_p == want, (preset, x, sweep.best_p)
            runs += 1
    assert runs == 2 * 511
    verdict("reversible-automaton embedding: bundle outcome equals the "
            "automaton exactly with certainty both directions under the "
            "schedule sweep (%d inputs, |x|<=8)" % runs,
            time.perf_counter() - started, 60.0)


def test_criterion_05_odd_single_query():
    started = time.perf_counter()
    bundle = make_bundle("odd")
    v = bundle.verifier
    count_cfg = EngineConfig(count_interactions=True)
    members = nonmembers = committed_runs = 0
    for x in all_strings(8):
        honest = run_protocol(v, x, bundle.honest_prover(x), count_cfg)
        assert honest.interactions <= 1, (x, honest.interactions)
        all_zero = set(x) <= {"0"}
        if all_zero:
            assert honest.interactions == 0, (x, honest.interactions)
        if bundle.language(x):
            assert abs(honest.p_acc - 1.0) <= 1e-9, (x, honest.p_acc)
            members += 1
        else:
            sweep = best_schedule_acceptance(v, x)
            assert sweep.best_p == 0.0, (x, sweep.best_p)
            nonmembers += 1
            for prover in enumerate_schedules(v.comm_alphabet, len(x) + 1,
                                              committed_only=True):
                r = run_protocol(v, x, prover, count_cfg)
                assert r.interactions <= 1, (x, prover.prover_id)
                if all_zero:
                    assert r.interactions == 0, (x, prover.prover_id)
                committed_runs += 1
    assert members + nonmembers == 511
    verdict("odd: honest p_acc=1 on %d members, schedule-sweep max 0 on %d "
            "non-members, interaction count <=1 in honest and %d committed "
            "runs and =0 on all-zero inputs (|x|<=8)"
            % (members, nonmembers, committed_runs),
            time.perf_counter() - started, 60.0)


def test_criterion_06_equal_blocks():
    started = time.perf_counter()
    bundle = make_bundle("equal_blocks", {"branches": 4})
    for n in range(0, 6):
        x = "0" * n + "1" * n
        r = run_protocol(bundle.verifier, x, bundle.honest_prover(x))
        assert abs(r.p_acc - 1.0) <= 1e-9, (x, r.p_acc)
        assert r.residual <= 1e-9
    negatives = 0
    for x in all_strings(8):
        if bundle.language(x):
            continue
        sweep = best_schedule_acceptance(bundle.verifier, x)
        assert sweep.exact
        assert sweep.best_p <= 0.25 + 1e-9, (x, sweep.best_p)
        negatives += 1
    assert negatives == 511 - 5
    verdict("equal blocks: honest p_acc=1 on 0^n 1^n for n<=5; schedule-sweep "
            "max <= 1/4+1e-9 on %d negatives (N=4, |x|<=8)" % negatives,
            time.perf_counter() - started, 120.0)


def test_criterion_07_npfa_embedding():
    started = time.perf_counter()
    cases = [
        ("coin", coin_npfa(), None),
        ("branch", branch_npfa(), "last"),
    ]
    runs = 0
    for preset, machine, chooser_kind in cases:
        bundle = make_bundle("npfa", {"preset": preset})
        chooser = (last_option_chooser(machine)
                   if chooser_kind else None)
        for x in all_strings(5):
            auto = run_2npfa(machine, x, chooser=chooser)
            assert auto.residual <= 1e-9
            r = run_protocol(bundle.verifier, x, bundle.honest_prover(x))
            assert r.residual <= 1e-9
            assert abs(r.p_acc - auto.p_acc) <= 1e-6, (preset, x, r.p_acc)
            runs += 1
    assert runs == 2 * 63
    verdict("coin/choice embedding: bundle p_acc matches the automaton "
            "within 1e-6 with both runs fully halted (%d inputs, |x|<=5)"
            % runs, time.perf_counter() - started, 60.0)


def test_criterion_08a_step_operator_unitarity():
    started = time.perf_counter()
    inputs = list(all_strings(6))
    for bundle in acceptance_bundles():
        report = validate_wellformed(bundle.verifier, inputs=inputs)
        assert report.ok, (bundle.name, report.summary())
        assert report.worst <= 1e-9, (bundle.name, report.worst)
    verdict("step operators of all %d packaged verifiers are unitary on "
            "every input with |x|<=6 (defect <= 1e-9)"
            % len(acceptance_bundles()),
            time.perf_counter() - started, 120.0)


def test_criterion_08b_probability_conservation():
    started = time.perf_counter()
    cfg = EngineConfig(check_conservation=True, prune=0.0)
    runs = 0
    for bundle in acceptance_bundles():
        for x in all_strings(4):
            run_protocol(bundle.verifier, x, bundle.honest_prover(x), cfg)
            run_protocol(bundle.verifier, x, IdentityProver(), cfg)
            runs += 2
    verdict("per-step probability conservation held within 1e-9 at prune 0 "
            "across %d runs" % runs,
            time.perf_counter() - started, 120.0)


def test_criterion_08c_query_weight_additivity():
    started = time.perf_counter()
    rng = random.Random(20260817)
    one_way = [b for b in acceptance_bundles() if not b.verifier.two_way]
    for _ in range(50):
        bundle = rng.choice(one_way)
        total = rng.randint(0, 8)
        cut = rng.randint(0, total)
        x = "".join(rng.choice("01") for _ in range(cut))
        y = "".join(rng.choice("01") for _ in range(total - cut))
        whole = query_weight(bundle.verifier, "", x + y)
        parts = (query_weight(bundle.verifier, "", x)
                 + query_weight(bundle.verifier, x, y))
        assert abs(whole - parts) <= 1e-9, (bundle.name, x, y, whole, parts)
    verdict("query-weight additivity wt(x)+wt_x(y)=wt(xy) held within 1e-9 "
            "on 50 random pairs with |xy|<=8",
            time.perf_counter() - started, 60.0)


def test_criterion_08d_property_flags():
    started = time.perf_counter()
    for bundle in acceptance_bundles():
        claims = bundle.claims
        assert validate_public(bundle.verifier).ok == claims["public"], \
            bundle.name
        observed_classical = True
        observed_committed = True
        for x in bundle.check_inputs:
            prover = bundle.honest_prover(x)
            rounds = resolve_max_steps(bundle.verifier, x, None)
            if not check_classical(prover, bundle.verifier.comm_alphabet,
                                   rounds).ok:
                observed_classical = False
            if not check_committed(prover, bundle.verifier.comm_alphabet,
                                   rounds).ok:
                observed_committed = False
        assert observed_classical == claims["classical_honest"], bundle.name
        assert observed_committed == claims["committed_honest"], bundle.name
    verdict("publicness/classicality/committedness validators agree with "
            "the declared flags of all %d packaged protocols"
            % len(acceptance_bundles()),
            time.perf_counter() - started, 60.0)


def test_criterion_08e_one_way_halting():
    started = time.perf_counter()
    one_way = [b for b in acceptance_bundles() if not b.verifier.two_way]
    runs = 0
    for bundle in one_way:
        for x in all_strings(5):
            provers = [bundle.honest_prover(x), IdentityProver(),
                       MessageSchedule({1: "#"})]
            for prover in provers:
                r = run_protocol(bundle.verifier, x, prover)
                assert r.steps == len(x) + 2, (bundle.name, x, r.steps)
                assert r.residual <= 1e-9
                assert r.p_acc + r.p_rej == pytest.approx(1.0, abs=1e-9)
                runs += 1
    verdict("one-way runs halt in exactly |x|+2 verifier steps "
            "(%d runs across %d protocols, |x|<=5)" % (runs, len(one_way)),
            time.perf_counter() - started, 60.0)
