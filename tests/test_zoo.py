"""Unit tests for the bundled protocols, pinned to frozen behaviours."""

import itertools

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
    run_protocol,
    sweep_family,
)
from qipsim import zoo
from qipsim.errors import BudgetError, ValidationError
from qipsim.provers import IdentityProver
from qipsim.zoo import (
    BUNDLES,
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


def test_registry_contents():
    assert set(BUNDLES) == {
        "zero", "odd", "center", "equal_blocks", "rfa", "npfa",
    }
    with pytest.raises(ValidationError):
        make_bundle("nope")
    with pytest.raises(ValidationError):
        make_bundle("rfa")  # needs a preset or inline machine
    with pytest.raises(ValidationError):
        make_bundle("npfa", {"preset": "mystery"})


def every_bundle():
    return [
        make_bundle("zero"),
        make_bundle("odd"),
        make_bundle("center", {"branches": 2}),
        make_bundle("equal_blocks", {"branches": 3}),
        make_bundle("rfa", {"preset": "parity"}),
        make_bundle("rfa", {"preset": "mod3"}),
        make_bundle("npfa", {"preset": "coin"}),
        make_bundle("npfa", {"preset": "branch"}),
    ]


@pytest.mark.parametrize("bundle", every_bundle(), ids=lambda b: b.name)
def test_bundle_tables_are_wellformed(bundle):
    report = validate_wellformed(bundle.verifier, inputs=["", "0", "01"])
    assert report.ok, report.summary()
    assert report.worst <= 1e-9


@pytest.mark.parametrize("bundle", every_bundle(), ids=lambda b: b.name)
def test_bundle_publicness_matches_claim(bundle):
    assert validate_public(bundle.verifier).ok == bundle.claims["public"]


@pytest.mark.parametrize("bundle", every_bundle(), ids=lambda b: b.name)
def test_bundle_two_way_flag_matches_claim(bundle):
    assert bundle.verifier.two_way == (not bundle.claims["one_way"])
    if bundle.verifier.two_way:
        assert "suggested_max_steps" in bundle.verifier.metadata


@pytest.mark.parametrize("name,params,member", [
    ("zero", {}, lambda x: bool(x) and x.endswith("0")),
    ("odd", {}, lambda x: "1" in x and x[x.index("1") + 1:].count("0") % 2 == 1),
])
def test_one_way_honest_certainty(name, params, member):
    bundle = make_bundle(name, params)
    for x in all_strings(4):
        assert bundle.language(x) == member(x)
        r = run_protocol(bundle.verifier, x, bundle.honest_prover(x))
        want = 1.0 if member(x) else 0.0
        assert r.p_acc == pytest.approx(want, abs=1e-12), x


@pytest.mark.parametrize("preset,machine", [
    ("parity", parity_rfa()), ("mod3", mod3_rfa()),
])
def test_rfa_bundle_mirrors_the_automaton(preset, machine):
    bundle = make_bundle("rfa", {"preset": preset})
    for x in all_strings(4):
        want = 1.0 if run_1rfa(machine, x).accepted else 0.0
        r = run_protocol(bundle.verifier, x, bundle.honest_prover(x))
        assert r.p_acc == pytest.approx(want, abs=1e-12), x
        assert r.residual == pytest.approx(0.0, abs=1e-12)


def test_rfa_bundle_accepts_inline_machine_tables():
    machine = parity_rfa()
    doc = {
        "name": "inline",
        "input_alphabet": list(machine.input_alphabet),
        "non_halting": list(machine.non_halting),
        "accepting": list(machine.accepting),
        "rejecting": list(machine.rejecting),
        "initial": machine.initial,
        "delta": [[q, s, t] for (q, s), t in machine.delta.items()],
    }
    bundle = make_bundle("rfa", {"machine": doc})
    r = run_protocol(bundle.verifier, "11", bundle.honest_prover("11"))
    want = 1.0 if run_1rfa(machine, "11").accepted else 0.0
    assert r.p_acc == pytest.approx(want, abs=1e-12)


def test_npfa_coin_bundle_matches_the_distribution():
    bundle = make_bundle("npfa", {"preset": "coin"})
    machine = coin_npfa()
    for x in all_strings(3):
        auto = run_2npfa(machine, x)
        r = run_protocol(bundle.verifier, x, bundle.honest_prover(x))
        assert r.p_acc == pytest.approx(auto.p_acc, abs=1e-6), x
        assert r.residual <= 1e-9


def test_npfa_branch_bundle_matches_the_chooser_path():
    bundle = make_bundle("npfa", {"preset": "branch"})
    machine = branch_npfa()
    chooser = last_option_chooser(machine)
    for x in all_strings(3):
        auto = run_2npfa(machine, x, chooser=chooser)
        r = run_protocol(bundle.verifier, x, bundle.honest_prover(x))
        assert r.p_acc == pytest.approx(auto.p_acc, abs=1e-6), x
        # lane-switching accepts exactly the strings containing a 0
        assert auto.p_acc == pytest.approx(1.0 if "0" in x else 0.0)


CENTER_STEPS = {
    2: {"1": 10, "011": 22, "00100": 34},
    4: {"1": 10, "011": 26, "00100": 42},
}


@pytest.mark.parametrize("branches", [2, 4])
def test_center_honest_completeness_and_step_counts(branches):
    bundle = make_bundle("center", {"branches": branches})
    for x, steps in CENTER_STEPS[branches].items():
        assert bundle.language(x)
        r = run_protocol(bundle.verifier, x, bundle.honest_prover(x))
        assert r.p_acc == pytest.approx(1.0, abs=1e-12), x
        assert r.residual == pytest.approx(0.0, abs=1e-12)
        assert r.steps == steps, x


@pytest.mark.parametrize("branches", [2, 3, 4])
def test_center_off_mark_family_caps_at_one_over_branches(branches):
    bundle = make_bundle("center", {"branches": branches})
    sweep = sweep_family(bundle.verifier, "100",
                         bundle.adversary_family("100"))
    assert sweep.best_upper == pytest.approx(1.0 / branches, abs=1e-12)


@pytest.mark.parametrize("x", ["0", "000"])
def test_center_all_zero_inputs_never_accept(x):
    bundle = make_bundle("center", {"branches": 2})
    sweep = sweep_family(bundle.verifier, x, bundle.adversary_family(x))
    assert sweep.best_upper == pytest.approx(0.0, abs=1e-12)


def test_center_adversary_family_shape():
    bundle = make_bundle("center", {"branches": 3})
    family = bundle.adversary_family("0110")
    ids = [p.prover_id for p in family]
    assert ids == ["identity", "mark@1", "mark@2", "mark@3", "mark@4"]


def test_center_needs_two_branches():
    with pytest.raises(ValidationError):
        make_bundle("center", {"branches": 1})


@pytest.mark.parametrize("name", ["center", "equal_blocks"])
@pytest.mark.parametrize("branches", [2, 3, 5])
def test_branch_budget_counts_the_pairs_the_verifier_has(name, branches,
                                                         monkeypatch):
    verifier = make_bundle(name, {"branches": branches}).verifier
    pairs = len(verifier.states) * len(verifier.comm_alphabet)
    monkeypatch.setattr(zoo, "BRANCH_PAIR_BUDGET", pairs)
    make_bundle(name, {"branches": branches})
    monkeypatch.setattr(zoo, "BRANCH_PAIR_BUDGET", pairs - 1)
    with pytest.raises(BudgetError, match="N=%d branches give %d "
                       % (branches, pairs)):
        make_bundle(name, {"branches": branches})


BLOCK_STEPS = {"": 2, "01": 18, "0011": 28, "000111": 38}


def test_equal_blocks_honest_completeness_and_step_counts():
    bundle = make_bundle("equal_blocks", {"branches": 4})
    for x, steps in BLOCK_STEPS.items():
        assert bundle.language(x)
        r = run_protocol(bundle.verifier, x, bundle.honest_prover(x))
        assert r.p_acc == pytest.approx(1.0, abs=1e-12), x
        assert r.residual == pytest.approx(0.0, abs=1e-12)
        assert r.steps == steps, x


@pytest.mark.parametrize("x,cap", [
    ("1", 0.25), ("001", 0.25), ("00011", 0.25), ("10", 0.0), ("0101", 0.0),
])
def test_equal_blocks_negative_sweep_values(x, cap):
    bundle = make_bundle("equal_blocks", {"branches": 4})
    assert not bundle.language(x)
    sweep = best_schedule_acceptance(bundle.verifier, x)
    assert sweep.best_p == pytest.approx(cap, abs=1e-12)
    assert sweep.exact


def test_equal_blocks_language():
    bundle = make_bundle("equal_blocks", {"branches": 2})
    assert bundle.language("")
    assert bundle.language("01")
    assert bundle.language("000111")
    assert not bundle.language("0")
    assert not bundle.language("10")
    assert not bundle.language("00111")


def test_center_language():
    bundle = make_bundle("center", {"branches": 2})
    assert bundle.language("1")
    assert bundle.language("110")
    assert bundle.language("01100")
    assert not bundle.language("10")
    assert not bundle.language("000")
    assert not bundle.language("")
