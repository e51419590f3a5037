"""Unit tests for the spec-file format and the command-line interface."""

import csv
import io
import json
import math

import pytest
from hypothesis import given, settings

from qipsim import automata, cli, engine
from qipsim.automata import BLANK, complete_verifier
from qipsim.cli import main, resolve_spec
from qipsim.engine import run_protocol
from qipsim.errors import ParseError, ValidationError
from qipsim.linalg import make_qft
from qipsim.specfile import (
    bundle_document,
    evaluate_amplitude,
    parse_spec,
    serialize_spec,
    verifier_document,
)
from qipsim.zoo import make_bundle, parity_rfa
from strategies import core_tables

SHIPPED = [
    "zero", "odd", "center", "equal_blocks", "rfa_parity", "rfa_mod3",
    "npfa_coin", "npfa_branch", "toy_explicit",
]


# -- spec files ---------------------------------------------------------------


@pytest.mark.parametrize("token", SHIPPED)
def test_shipped_specs_parse_build_and_round_trip(token):
    loaded = resolve_spec(token)
    bundle = loaded.make()
    assert bundle.verifier.name
    again = parse_spec(serialize_spec(loaded.document), source="round-trip")
    assert again == loaded
    assert serialize_spec(again.document) == serialize_spec(loaded.document)


@settings(max_examples=40, deadline=None)
@given(core_tables())
def test_verifier_documents_round_trip_byte_stable(kwargs):
    text = serialize_spec(verifier_document(complete_verifier(**kwargs)))
    loaded = parse_spec(text)
    assert serialize_spec(loaded) == text
    assert serialize_spec(verifier_document(loaded.make().verifier)) == text


def test_evaluate_amplitude_forms():
    assert evaluate_amplitude(0.5, "here") == 0.5 + 0j
    assert evaluate_amplitude({"re": 0.0, "im": -1.0}, "here") == -1j
    inv = evaluate_amplitude({"invsqrt": 2}, "here")
    assert inv == pytest.approx(1.0 / math.sqrt(2.0))
    four = evaluate_amplitude({"fourier": {"n": 4, "j": 1, "l": 1}}, "here")
    assert four == pytest.approx(1j / 2.0)
    with pytest.raises(ParseError):
        evaluate_amplitude({"mystery": 1}, "here")
    with pytest.raises(ParseError):
        evaluate_amplitude("one half", "here")


@pytest.mark.parametrize("n", range(1, 9))
def test_fourier_form_is_the_make_qft_entry(n):
    mix = make_qft(n)
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            form = evaluate_amplitude({"fourier": {"n": n, "j": j, "l": l}})
            assert abs(form - mix[l - 1, j - 1]) <= 1e-15
            # the entry depends on j and l only modulo n
            assert evaluate_amplitude({"fourier": [n, j + n, l - n]}) == form


def _run_toy_with_amplitude(form, tmp_path):
    doc = json.loads(serialize_spec(resolve_spec("toy_explicit").document))
    doc["rows"]["0"][0]["targets"][0][0] = form
    path = tmp_path / "bad_amplitude.spec"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return main(["run", str(path), "--input", "0"])


@pytest.mark.parametrize("form", [
    {"fourier": ["a", 1, 1]},
    {"fourier": {"n": None, "j": 1, "l": 1}},
    {"fourier": {"n": 4.7, "j": 1, "l": 1}},
    {"fourier": {"n": 4, "j": 1.5, "l": 1}},
    {"fourier": {"n": 4, "j": 1, "l": True}},
    {"fourier": ["4", 1, 1]},
    {"fourier": [float("inf"), 1, 1]},
])
def test_fourier_form_with_a_non_integer_is_a_parse_error(form, tmp_path,
                                                           capsys):
    with pytest.raises(ParseError, match="integers"):
        evaluate_amplitude(form)
    assert _run_toy_with_amplitude(form, tmp_path) == 2
    assert "integers" in capsys.readouterr().err


@pytest.mark.parametrize("order", [2.5, True, "3", None, float("inf")])
def test_invsqrt_order_that_is_not_an_integer_is_a_parse_error(order,
                                                               tmp_path,
                                                               capsys):
    form = {"invsqrt": order}
    with pytest.raises(ParseError, match="integer order"):
        evaluate_amplitude(form)
    assert _run_toy_with_amplitude(form, tmp_path) == 2
    assert "integer order" in capsys.readouterr().err


def test_integral_float_orders_are_integers():
    assert evaluate_amplitude({"invsqrt": 2.0}) == evaluate_amplitude(
        {"invsqrt": 2})
    assert evaluate_amplitude({"fourier": [4.0, 1.0, 3.0]}) == (
        evaluate_amplitude({"fourier": [4, 1, 3]}))


def test_parse_spec_reports_json_position():
    with pytest.raises(ParseError) as err:
        parse_spec('{"format": "qip-spec-1",', source="broken.spec")
    message = str(err.value)
    assert "broken.spec" in message
    assert "line" in message and "column" in message


def test_parse_spec_rejects_wrong_format_tag():
    with pytest.raises(ParseError):
        parse_spec(json.dumps({"format": "qip-spec-0", "kind": "bundle",
                               "bundle": "zero"}))
    with pytest.raises(ParseError):
        parse_spec(json.dumps({"format": "qip-spec-1", "kind": "poem"}))
    with pytest.raises(ParseError):
        parse_spec(json.dumps({"format": "qip-spec-1", "kind": "bundle",
                               "bundle": "unknown-protocol"}))


def test_bundle_document_overrides_claims():
    doc = bundle_document("zero", claims={"completeness": 0.75})
    loaded = parse_spec(serialize_spec(doc))
    bundle = loaded.make()
    assert bundle.claims["completeness"] == 0.75
    assert bundle.claims["public"] is True  # untouched keys survive


def test_verifier_document_export_is_behaviour_preserving():
    bundle = make_bundle("odd")
    doc = verifier_document(bundle.verifier)
    rebuilt = parse_spec(serialize_spec(doc)).make()
    for x in ("", "0", "10", "110", "0100"):
        prover = bundle.honest_prover(x)
        a = run_protocol(bundle.verifier, x, prover)
        b = run_protocol(rebuilt.verifier, x, prover)
        assert b.p_acc == pytest.approx(a.p_acc, abs=1e-12)
        assert b.steps == a.steps


def test_explicit_spec_rejects_rows_for_unknown_symbols():
    loaded = resolve_spec("toy_explicit")
    doc = json.loads(serialize_spec(loaded.document))
    doc["rows"]["2"] = doc["rows"]["1"]
    with pytest.raises(ParseError):
        parse_spec(json.dumps(doc))


def test_resolve_spec_missing_token():
    with pytest.raises(ParseError):
        resolve_spec("no-such-protocol")


def test_toy_explicit_accepts_odd_parity_inputs():
    bundle = resolve_spec("toy_explicit").make()
    for x in ("", "0", "1", "01", "11", "101", "110"):
        r = run_protocol(bundle.verifier, x, bundle.honest_prover(x))
        want = 1.0 if x.count("1") % 2 == 1 else 0.0
        assert r.p_acc == pytest.approx(want, abs=1e-12), x


# -- command line ---------------------------------------------------------------


def test_cli_run_center_honest(capsys):
    code = main(["run", "center", "--N", "3", "--input", "010",
                 "--prover", "honest"])
    out = capsys.readouterr().out
    assert code == 0
    assert "p_acc=[1, 1]" in out
    assert "prover=mark@2" in out


def test_cli_run_counts_interactions(capsys):
    code = main(["run", "odd", "--input", "10", "--count-interactions",
                 "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["interactions"] == 1
    assert rows[0]["p_acc_lower"] == 1


def test_cli_run_empty_input_rejects(capsys):
    code = main(["run", "zero", "--input", "", "--format", "json"])
    assert code == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["p_acc_upper"] == 0
    assert row["p_rej_lower"] == 1
    assert row["steps"] == 2


def test_cli_run_report_field_order(capsys):
    code = main(["run", "zero", "--input", "10", "--format", "csv"])
    assert code == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == ("input,prover_id,p_acc_lower,p_acc_upper,"
                      "p_rej_lower,interactions,steps,wallclock")


def test_cli_run_rejects_foreign_input_symbols(capsys):
    code = main(["run", "zero", "--input", "012"])
    assert code == 3


@pytest.mark.parametrize("token", SHIPPED)
def test_cli_check_shipped_specs_pass(token, capsys):
    assert main(["check", token]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_cli_check_catches_false_public_claim(tmp_path, capsys):
    loaded = resolve_spec("odd")
    doc = json.loads(serialize_spec(loaded.document))
    doc["claims"] = {"public": True}
    path = tmp_path / "liar.spec"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert "public-claim" in capsys.readouterr().out


def test_cli_check_csv_is_a_rule_table(tmp_path, capsys):
    loaded = resolve_spec("npfa_branch")
    doc = json.loads(serialize_spec(loaded.document))
    doc["claims"] = {"public": True}
    path = tmp_path / "liar.spec"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(path), "--format", "csv"]) == 3
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["rule", "ok", "detail"]
    ok = {rule: flag for rule, flag, _ in rows[1:]}
    assert ok["wellformed"] == "True"
    assert ok["public-claim"] == "False"
    assert ok["interaction-bound"] == ""    # skipped: no bound declared
    assert len(rows) == 8


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "zero", "--min-len", "-1", "--max-len", "1"], "--min-len"),
    (["sweep", "zero", "--max-len", "-2"], "--max-len"),
    (["run", "center", "--input", "0001000", "--max-steps", "-3"],
     "--max-steps"),
    (["run", "center", "--input", "0", "--max-steps", "0"], "--max-steps"),
    (["run", "zero", "--input", "01", "--tape-trunc", "-1"], "--tape-trunc"),
    (["check", "zero", "--tau", "nan"], "--tau"),
    (["check", "zero", "--tau", "-1e-9"], "--tau"),
    (["run", "zero", "--input", "01", "--prune", "inf"], "--prune"),
    (["run", "zero", "--input", "01", "--prune", "-0.5"], "--prune"),
    (["check", "zero", "--n-max", "-1"], "--n-max"),
    (["check", "zero", "--n-max", "two"], "--n-max"),
])
def test_cli_rejects_out_of_range_flags(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument %s:" % flag in capsys.readouterr().err


def test_cli_unwritable_out_is_an_error_line(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x"
    code = main(["run", "zero", "--input", "01", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out %s: " % target)
    assert captured.err.count("\n") == 1
    assert not target.exists()


def test_cli_check_catches_incomplete_table(tmp_path, capsys):
    # with row filling disabled, a deleted row leaves a hole in the table;
    # check reports it as a failed rule instead of aborting
    bundle = make_bundle("odd")
    doc = verifier_document(bundle.verifier)
    state, comm = doc["rows"]["0"][0]["source"]
    doc["rows"]["0"] = doc["rows"]["0"][1:]
    path = tmp_path / "gappy.spec"
    path.write_text(serialize_spec(doc), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "FAIL wellformed" in captured.out
    assert "no image for state %r with comm %r on '0'" % (state, comm) \
        in captured.out


def test_cli_check_reports_every_rule_of_an_incomplete_table(tmp_path,
                                                              capsys):
    # fill off, one live row of toy_explicit removed: the wellformed rule
    # names the hole and the declared claims are still checked
    loaded = resolve_spec("toy_explicit")
    doc = verifier_document(loaded.make().verifier,
                            claims=loaded.document["claims"])
    assert not doc["fill"]["guards"] and not doc["fill"]["completion"]
    doc["rows"]["$"] = [entry for entry in doc["rows"]["$"]
                        if entry["source"] != ["qa", BLANK]]
    path = tmp_path / "gappy.spec"
    path.write_text(serialize_spec(doc), encoding="utf-8")
    assert main(["check", str(path), "--format", "json"]) == 3
    report = json.loads(capsys.readouterr().out)
    rules = {r["rule"]: r for r in report["rules"]}
    assert not report["ok"]
    assert rules["wellformed"]["ok"] is False
    assert "worst defect inf" in rules["wellformed"]["detail"]
    assert "no image for state 'qa' with comm '#' on '$'" \
        in rules["wellformed"]["detail"]
    for name in ("public-claim", "one-way-claim", "classical-honest",
                 "committed-honest"):
        assert rules[name]["ok"] is True


def test_cli_sweep_refuses_a_missing_live_row(tmp_path, capsys):
    # the schedule DP reads the same move tables as the run, so a hole
    # on the live path is the same validation error, not a crash
    doc = verifier_document(make_bundle("odd").verifier)
    doc["rows"]["0"] = [entry for entry in doc["rows"]["0"]
                        if entry["source"] != ["q0", BLANK]]
    path = tmp_path / "gappy.spec"
    path.write_text(serialize_spec(doc), encoding="utf-8")
    for argv in (["sweep", str(path), "--inputs", "0"],
                 ["run", str(path), "--input", "0"]):
        assert main(argv) == 3
        assert "incomplete table" in capsys.readouterr().err


def test_dropped_core_row_under_fill_becomes_a_guard(tmp_path):
    # with filling enabled the same deletion keeps the table unitary: the
    # orphaned pair is rerouted to a fresh rejecting guard state
    loaded = resolve_spec("toy_explicit")
    doc = json.loads(serialize_spec(loaded.document))
    dropped_source = doc["rows"]["0"][0]["source"]
    doc["rows"]["0"] = doc["rows"]["0"][1:]
    bundle = parse_spec(json.dumps(doc)).make()
    state, comm = dropped_source
    targets = bundle.verifier.row("0", state, comm)
    assert len(targets) == 1
    assert bundle.verifier.is_rejecting(targets[0][1])


def test_missing_head_direction_is_a_validation_error(tmp_path, capsys):
    # fill disabled: the exported document loses one target's direction
    doc = verifier_document(make_bundle("center").verifier)
    state, comm, _ = doc["head_dir"]["per_target"].pop(0)
    path = tmp_path / "no_dir.spec"
    path.write_text(serialize_spec(doc), encoding="utf-8")
    assert main(["run", str(path), "--input", "1"]) == 3
    assert "no head direction given for target (%r, %r)" % (state, comm) \
        in capsys.readouterr().err
    # fill enabled: a two-way target with no direction fails the same way
    doc = json.loads(serialize_spec(resolve_spec("toy_explicit").document))
    doc["two_way"] = True
    doc["head_dir"] = {"per_state": {}, "per_target": []}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path), "--input", "0"]) == 3
    assert "no head direction given for target" in capsys.readouterr().err


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.spec"
    path.write_text('{"format": "qip-spec-1"', encoding="utf-8")
    assert main(["run", str(path), "--input", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_sweep_zero_nonmembers(capsys):
    code = main(["sweep", "zero", "--min-len", "0", "--max-len", "3",
                 "--only", "nonmembers", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 8  # "", 1, 01, 11, 001, 011, 101, 111
    for row in rows:
        assert row["p_acc_upper"] == 0


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# Engine runs per sweep command below; each reported row is a run the
# certification already made, never a rerun.
SWEEP_RUNS = {
    # leave-all and identity once per input
    "equal_blocks": 30,
    # honest, identity and one mark schedule per cell, per input
    "center": 13,
    # the DP's optimal schedule once per input
    "odd": 15,
}


@pytest.mark.parametrize("argv,rows,announced", [
    # two-way and announced: the analysis succeeds once
    (["sweep", "equal_blocks", "--N", "2", "--max-len", "3"], 15, 1),
    # two-way, not announced: it fails once, then the bundle family runs
    (["sweep", "center", "--N", "2", "--inputs", "1,100,010"], 3, 1),
    # one-way: the schedule DP never needs the announcement map
    (["sweep", "odd", "--max-len", "3"], 15, 0),
])
def test_cli_sweep_builds_and_analyses_once_per_command(
        argv, rows, announced, monkeypatch, capsys):
    builds = _count_calls(monkeypatch, cli, "instantiate")
    analyses = _count_calls(monkeypatch, engine, "_announcement_map")
    runs = _count_calls(monkeypatch, engine, "run_protocol")
    monkeypatch.setattr(cli, "run_protocol", engine.run_protocol)
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == rows
    assert len(builds) == 1
    assert len(analyses) == announced
    assert len(runs) == SWEEP_RUNS[argv[1]]


@pytest.mark.parametrize("token", ["center", "equal_blocks", "odd"])
def test_cli_check_runs_the_per_symbol_check_once(token, monkeypatch, capsys):
    verifier = resolve_spec(token).make().verifier
    n_pairs = len(verifier.states) * len(verifier.comm_alphabet)
    calls = _count_calls(monkeypatch, automata, "check_unitary")
    assert main(["check", token]) == 0
    per_symbol = [m for (m, *_) in calls if m.shape == (n_pairs, n_pairs)]
    assert len(per_symbol) == len(verifier.padded_alphabet)
    # plus one step operator per input of length 0..3
    assert len(calls) == len(per_symbol) + 15


def test_cli_run_tape_truncation_is_a_budget_error(capsys):
    code = main(["run", "center", "--input", "0001000", "--tape-trunc", "1"])
    assert code == 5
    assert capsys.readouterr().err == (
        "error: prover history exceeded the 1-record truncation\n")


def test_cli_sweep_quotes_schedule_ids_in_csv(capsys):
    code = main(["sweep", "zero", "--inputs", "00", "--family", "schedule",
                 "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert '"schedule{' in out or "schedule{}" in out


def test_cli_sweep_enumeration_budget(capsys):
    code = main(["sweep", "zero", "--min-len", "0", "--max-len", "20"])
    assert code == 5
    assert "error:" in capsys.readouterr().err


def test_cli_sweep_explicit_input_list(capsys):
    code = main(["sweep", "center", "--N", "2", "--inputs", "1,100",
                 "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    by_input = {row["input"]: row for row in rows}
    assert by_input["1"]["p_acc_upper"] == 1
    assert by_input["100"]["p_acc_upper"] == pytest.approx(0.5, abs=1e-9)


def test_cli_trace_mcomp_masses(capsys):
    code = main(["trace", "odd", "--input", "01", "--mcomp",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["query_masses"] == [0, 0, 0, 1, 0]


def test_cli_trace_mcomp_csv_header(capsys):
    code = main(["trace", "odd", "--input", "01", "--mcomp",
                 "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "step,query_mass"
    assert len(lines) == 1 + 5


def test_cli_trace_full_run_lists_live_components(capsys):
    code = main(["trace", "zero", "--input", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "state=" in out and "head=" in out and "tape=" in out


def test_cli_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["run", "zero", "--input", "10", "--format", "json",
                 "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rows = json.loads(target.read_text(encoding="utf-8"))
    assert rows[0]["input"] == "10"


def test_cli_n_override_requires_bundle_spec(capsys):
    code = main(["run", "toy_explicit", "--N", "3", "--input", "0"])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["check", "zero", "--N", "5"],
    ["run", "rfa_parity", "--N", "3", "--input", "0"],
    ["sweep", "odd", "--N", "2", "--inputs", "1"],
])
def test_cli_n_override_needs_a_bundle_that_reads_branches(argv, capsys):
    assert main(argv) == 3
    assert "does not read params ['branches']" in capsys.readouterr().err


def test_spec_file_params_the_bundle_does_not_read_are_refused(tmp_path,
                                                                capsys):
    path = tmp_path / "zero3.spec"
    path.write_text(serialize_spec(bundle_document("zero", {"branches": 3})),
                    encoding="utf-8")
    assert main(["run", str(path), "--input", "0"]) == 3
    assert "does not read params ['branches']" in capsys.readouterr().err
    path.write_text(serialize_spec(bundle_document(
        "npfa", {"preset": "coin", "machine": "coin"})), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert "does not read params ['machine']" in capsys.readouterr().err


def _parity_machine_document(**changes):
    machine = parity_rfa()
    doc = {
        "input_alphabet": list(machine.input_alphabet),
        "non_halting": list(machine.non_halting),
        "accepting": list(machine.accepting),
        "rejecting": list(machine.rejecting),
        "initial": machine.initial,
        "delta": [[q, s, t] for (q, s), t in machine.delta.items()],
    }
    doc.update(changes)
    return {key: value for key, value in doc.items() if value is not None}


BRANCHES = "need at least two interference branches, given as an integer"


@pytest.mark.parametrize("bundle,params,message", [
    ("center", {"branches": None}, BRANCHES),
    ("center", {"branches": "3"}, BRANCHES),
    ("center", {"branches": 1}, BRANCHES),
    ("center", {"branches": 2.7}, BRANCHES),
    ("equal_blocks", {"branches": True}, BRANCHES),
    ("rfa", {"machine": _parity_machine_document(input_alphabet=None)},
     "has no 'input_alphabet'"),
    ("rfa", {"machine": _parity_machine_document(initial=["e"])},
     "'initial' must be a string"),
    ("rfa", {"machine": _parity_machine_document(accepting="acc")},
     "'accepting' must be a list of strings"),
    ("rfa", {"machine": _parity_machine_document(delta=[["e", "0"]])},
     "'delta' must be a list of [state, symbol, state] string triples"),
    ("rfa", {"machine": _parity_machine_document(name=7)},
     "'name' must be a string"),
    ("rfa", {"machine": _parity_machine_document(
        delta=_parity_machine_document()["delta"] + [["even", "0", "acc"]])},
     "'delta' lists ('even', '0') twice"),
], ids=["branches-null", "branches-string", "branches-one", "branches-float",
        "branches-bool", "machine-no-alphabet", "machine-initial-list",
        "machine-accepting-string", "machine-delta-pair", "machine-name-int",
        "machine-delta-repeated-key"])
def test_ill_typed_bundle_params_are_validation_errors(bundle, params,
                                                       message, tmp_path,
                                                       capsys):
    path = tmp_path / "bad_params.spec"
    path.write_text(serialize_spec(bundle_document(bundle, params)),
                    encoding="utf-8")
    assert main(["run", str(path), "--input", "0"]) == 3
    assert message in capsys.readouterr().err


def test_integral_float_branches_and_inline_machines_build(tmp_path, capsys):
    for bundle, params in (
            ("center", {"branches": 3.0}),
            ("rfa", {"machine": _parity_machine_document()})):
        path = tmp_path / "good_params.spec"
        path.write_text(serialize_spec(bundle_document(bundle, params)),
                        encoding="utf-8")
        assert main(["run", str(path), "--input", "0"]) == 0
    assert make_bundle("center", {"branches": 3.0}).claims == make_bundle(
        "center", {"branches": 3}).claims


def test_cli_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
