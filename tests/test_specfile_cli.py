"""Unit tests for the spec-file format and the command-line interface."""

import argparse
import ast
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings

from qipsim import automata, cli, engine, zoo
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
            assert abs(form - mix[l - 1][j - 1]) <= 1e-15
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


@pytest.mark.parametrize("form", [{"re": True}, {"im": False},
                                  {"re": "0.5"}])
def test_re_and_im_that_are_not_numbers_are_a_parse_error(form, tmp_path,
                                                          capsys):
    with pytest.raises(ParseError, match="re/im must be numbers"):
        evaluate_amplitude(form)
    assert _run_toy_with_amplitude(form, tmp_path) == 2
    assert "re/im must be numbers" in capsys.readouterr().err


@pytest.mark.parametrize("form", [
    10 ** 400, {"re": 10 ** 400}, {"im": -10 ** 400},
    {"fourier": [10 ** 400, 1, 1]}, {"invsqrt": 10 ** 400},
])
def test_a_number_too_large_for_a_float_is_a_parse_error(form, tmp_path,
                                                         capsys):
    with pytest.raises(ParseError, match="^here: number too large"):
        evaluate_amplitude(form, "here")
    doc = _toy_document()
    doc["rows"]["0"][0]["targets"][0][0] = form
    assert _check_document(doc, tmp_path) == 2
    err = capsys.readouterr().err
    assert "rows['0'][0].targets[0]: number too large for a float" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ['{"re": 1e400}', '{"im": NaN}',
                                  "-Infinity"])
def test_a_non_finite_number_is_a_parse_error(text, tmp_path, capsys):
    # Python's json reads 1e400 as inf, and NaN and Infinity as floats
    form = json.loads(text)
    with pytest.raises(ParseError, match="^here: non-finite number"):
        evaluate_amplitude(form, "here")
    doc = _toy_document()
    doc["rows"]["0"][0]["targets"][0][0] = "AMP"
    path = tmp_path / "edited.spec"
    path.write_text(json.dumps(doc).replace('"AMP"', text), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "rows['0'][0].targets[0]: non-finite number" in err
    assert "Traceback" not in err


def _toy_document():
    return json.loads(serialize_spec(resolve_spec("toy_explicit").document))


def _check_document(doc, tmp_path):
    path = tmp_path / "edited.spec"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return main(["check", str(path)])


@pytest.mark.parametrize("key,value", [
    ("two_way", "false"),
    ("two_way", 0),
    ("fill", {"guards": "no", "completion": "no"}),
    ("fill", {"guards": 1, "completion": 1}),
])
def test_spec_flags_that_are_not_booleans_are_a_parse_error(
        key, value, tmp_path, capsys):
    doc = _toy_document()
    doc[key] = value
    with pytest.raises(ParseError, match="must be (a )?booleans?"):
        parse_spec(json.dumps(doc))
    assert _check_document(doc, tmp_path) == 2
    assert "boolean" in capsys.readouterr().err


@pytest.mark.parametrize("writes", [
    {"1": "#", "01": "#"},
    {" 1": "#", "1": "#"},
])
def test_schedule_writes_naming_one_round_twice_are_a_parse_error(
        writes, tmp_path, capsys):
    doc = _toy_document()
    doc["honest_prover"] = {"type": "schedule", "writes": writes}
    with pytest.raises(ParseError, match="round 1 twice"):
        parse_spec(json.dumps(doc))
    assert _check_document(doc, tmp_path) == 2
    assert "round 1 twice" in capsys.readouterr().err


def test_schedule_writes_outside_the_comm_alphabet_are_a_parse_error(
        tmp_path, capsys):
    doc = _toy_document()
    doc["honest_prover"] = {"type": "schedule", "writes": {"1": "zz"}}
    message = "schedule writes 'zz' in round 1"
    with pytest.raises(ParseError, match=message):
        parse_spec(json.dumps(doc))
    assert _check_document(doc, tmp_path) == 2
    assert message in capsys.readouterr().err
    path = tmp_path / "edited.spec"
    assert main(["run", str(path), "--input", "0"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["bundle", "verifier"])
@pytest.mark.parametrize("claim,value,expected", [
    ("public", "false", "a boolean"),
    ("one_way", 1, "a boolean"),
    ("classical_honest", "yes", "a boolean"),
    ("committed_honest", 0, "a boolean"),
    ("completeness", "1", "a number in [0, 1]"),
    ("completeness", True, "a number in [0, 1]"),
    ("soundness_error", 1.5, "a number in [0, 1]"),
    ("interaction_bound", "many", "an integer >= 0"),
    ("interaction_bound", -1, "an integer >= 0"),
    ("interaction_bound", 1.5, "an integer >= 0"),
])
def test_ill_typed_claims_are_a_parse_error(kind, claim, value, expected,
                                            tmp_path, capsys):
    if kind == "bundle":
        doc = {"format": "qip-spec-1", "kind": "bundle", "bundle": "odd",
               "claims": {claim: value}}
    else:
        doc = _toy_document()
        doc["claims"] = {**doc["claims"], claim: value}
    message = "claim %s must be %s or null" % (claim, expected)
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_spec(json.dumps(doc))
    assert _check_document(doc, tmp_path) == 2
    assert message in capsys.readouterr().err


def test_null_and_well_typed_claims_parse():
    claims = {"public": None, "one_way": True, "completeness": 1,
              "soundness_error": 0.25, "interaction_bound": 2.0,
              "notes": "free text"}
    doc = {"format": "qip-spec-1", "kind": "bundle", "bundle": "odd",
           "claims": claims}
    assert parse_spec(json.dumps(doc)).document["claims"] == claims


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


def test_a_directory_does_not_hide_the_bundled_spec_of_its_name(
        tmp_path, monkeypatch, capsys):
    assert main(["check", "odd"]) == 0
    want = capsys.readouterr().out
    (tmp_path / "odd").mkdir()
    (tmp_path / "zero.spec").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["check", "odd"]) == 0
    assert capsys.readouterr().out == want
    assert resolve_spec("zero.spec") == resolve_spec("zero")
    # a file of that name is still read in place of the bundled spec
    (tmp_path / "rfa_parity").write_text(
        serialize_spec(resolve_spec("toy_explicit").document),
        encoding="utf-8")
    in_place = resolve_spec("rfa_parity")
    assert in_place.source == "rfa_parity"
    assert in_place == resolve_spec("toy_explicit")
    # a directory with no bundled spec of its name is read, and refused
    (tmp_path / "nowhere").mkdir()
    with pytest.raises(ParseError, match="nowhere: Is a directory"):
        resolve_spec("nowhere")


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


@pytest.mark.parametrize("argv", [
    ["check", "center", "--N", "99999"],
    ["sweep", "equal_blocks", "--N", "99999"],
    ["check", "huge.spec"],
])
def test_cli_oversized_branch_count_exits_5_before_building(
        argv, tmp_path, monkeypatch, capsys):
    # a huge N is refused before its Fourier mixer is allocated
    def no_qft(n):
        raise AssertionError("make_qft(%d) was called" % n)

    monkeypatch.setattr(zoo, "make_qft", no_qft)
    (tmp_path / "huge.spec").write_text(json.dumps({
        "format": "qip-spec-1", "kind": "bundle", "bundle": "center",
        "params": {"branches": 99999}}), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: N=99999 ")
    assert "200000 budget" in lines[0]


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
    # tau = 1 prints p_rej>=0 for a certain rejection and tau = 2 passes
    # every check rule vacuously: tau must lie in [0, 0.5)
    (["run", "center", "--N", "2", "--input", "101", "--tau", "1"], "--tau"),
    (["check", "odd", "--tau", "2"], "--tau"),
])
def test_cli_rejects_out_of_range_flags(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument %s:" % flag in capsys.readouterr().err


def test_cli_check_n_max_does_not_change_the_output(capsys):
    # the wellformed rule prints the worst per-symbol defect, which no
    # input length changes, so a large --n-max enumerates nothing
    assert main(["check", "odd", "--n-max", "0"]) == 0
    want = capsys.readouterr().out
    assert main(["check", "odd", "--n-max", "20"]) == 0
    assert capsys.readouterr().out == want


def _loop_spec(tmp_path):
    # one live state sweeping right forever; the honest schedule writes m
    # on the blank in round 25, which only a budget past 24 steps reaches
    rows = {sym: [{"source": ["q", BLANK], "targets": [[1, "q", BLANK]]}]
            for sym in ("^", "0", "1", "$")}
    doc = {
        "format": "qip-spec-1", "kind": "verifier", "name": "loop",
        "two_way": True, "input_alphabet": ["0", "1"],
        "comm_alphabet": [BLANK, "m"],
        "states": {"live": ["q"], "accepting": ["acc"],
                   "rejecting": ["rej"], "initial": "q"},
        "head_dir": {"per_state": {"q": 1}}, "rows": rows,
        "fill": {"guards": True, "completion": True},
        "honest_prover": {"type": "schedule", "writes": {"25": "m"}},
        "claims": {"committed_honest": True},
    }
    path = tmp_path / "loop.spec"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_cli_check_prover_rules_honour_max_steps(tmp_path, capsys):
    spec = _loop_spec(tmp_path)
    assert main(["check", spec]) == 0
    assert main(["check", spec, "--max-steps", "30"]) == 3
    line = [row for row in capsys.readouterr().out.splitlines()
            if "committed-honest" in row][-1]
    assert line.startswith("FAIL committed-honest")
    assert "violated at (25, '#', (), ((1.0, 'm', ()),))" in line
    # the run under that budget meets the write and rejects at step 26
    assert main(["run", spec, "--input", "", "--max-steps", "30"]) == 0
    row = capsys.readouterr().out
    assert "p_rej>=1 " in row and "steps=26 " in row


def test_cli_check_interaction_bound_names_an_input(tmp_path, capsys):
    # README's example verifier: the identity prover never interacts
    rows = {sym: [{"source": ["q0", BLANK], "targets": [[1, "q0", BLANK]]}]
            for sym in ("^", "0", "1")}
    rows["$"] = [{"source": ["q0", BLANK], "targets": [[1, "acc", BLANK]]}]
    doc = {
        "format": "qip-spec-1", "kind": "verifier", "name": "example",
        "two_way": False, "input_alphabet": ["0", "1"],
        "comm_alphabet": [BLANK],
        "states": {"live": ["q0"], "accepting": ["acc"],
                   "rejecting": ["rej"], "initial": "q0"},
        "rows": rows, "fill": {"guards": True, "completion": True},
        "honest_prover": {"type": "identity"},
        "claims": {"interaction_bound": 0},
    }
    path = tmp_path / "example.spec"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert ("ok   interaction-bound    max honest interactions 0 "
            "(input ''), claimed <= 0") in capsys.readouterr().out.splitlines()


# Runs a code snippet in a fresh interpreter where importing numpy or
# scipy fails, then prints the third-party modules the snippet loaded.
IMPORT_PROBE = """
import sys
sys.modules["numpy"] = None  # any import of numpy raises ImportError
sys.modules["scipy"] = None  # and so does any import of scipy
before = set(sys.modules)
%s
print(sorted({m.split(".")[0] for m in set(sys.modules) - before
              if sys.modules[m]} - set(sys.stdlib_module_names) - {"qipsim"}))
"""

COMMANDS = """
from qipsim.cli import main, resolve_spec
for token, extra in %r:
    alphabet = resolve_spec(token).make().verifier.input_alphabet
    x = alphabet[0] + alphabet[-1]
    for argv in (["check"], ["sweep", "--max-len", "3"],
                 ["run", "--input", x], ["trace", "--input", x]):
        argv = argv[:1] + [token] + argv[1:] + extra
        assert main(argv) == 0, argv
"""


def _probe(code):
    src = Path(automata.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE % code],
                          env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize("commands, loaded", [
    # no Fourier amplitudes: neither numpy nor scipy is imported
    ([["check", "odd"], ["sweep", "odd", "--max-len", "3"],
      ["run", "zero", "--input", "0101"]], []),
    # center's Fourier amplitudes are plain Python too: numpy stays out
    ([["check", "center"]], []),
])
def test_commands_import_numpy_only_for_fourier_amplitudes(commands, loaded):
    code = ("from qipsim.cli import main\n"
            "for argv in %r:\n"
            "    assert main(argv) == 0, argv\n" % (commands,))
    assert _probe(code) == repr(loaded)


def test_commands_import_no_third_party_module():
    # every command on every shipped spec, and the Fourier protocols at
    # another branch count, runs on the standard library alone
    runs = [(token, []) for token in SHIPPED] + [
        ("center", ["--N", "4"]), ("equal_blocks", ["--N", "4"])]
    assert _probe(COMMANDS % (runs,)) == "[]"


FULL_TABLES = """
from qipsim.automata import build_step_operator
from qipsim.cli import resolve_spec
from qipsim.linalg import isometry_defect
from qipsim.specfile import verifier_document
for token in %r:
    verifier = resolve_spec(token).make().verifier
    alphabet = verifier.input_alphabet
    for x in ("", alphabet[0] + alphabet[-1]):
        entries, basis = build_step_operator(verifier, x)
        assert isometry_defect(entries, len(basis)) <= 1e-9, (token, x)
    verifier_document(verifier)
"""


def test_the_full_tables_import_no_third_party_module():
    # the step-operator oracle, its isometry check and the export all
    # read the full (completed) tables, whose complements are plain Python
    assert _probe(FULL_TABLES % (SHIPPED,)) == "[]"


def _distribution(requirement):
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower()


def test_runtime_dependencies_are_what_the_package_imports():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    imported = set()
    for path in (root / "src" / "qipsim").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    imported -= set(sys.stdlib_module_names) | {"qipsim"}
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    project = tomllib.loads(pyproject)["project"]
    assert sorted(map(_distribution, project["dependencies"])) == sorted(
        imported)


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
    targets = bundle.verifier.completed.rows["0"][state, comm]
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


def _center_spec_with_step_hint(tmp_path, hint):
    doc = verifier_document(make_bundle("center", {"branches": 2}).verifier)
    doc["metadata"]["suggested_max_steps"] = hint
    path = tmp_path / "step_hint.spec"
    path.write_text(serialize_spec(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("hint", [
    {"per_cell": "x"}, -3, {"per_cell": -5}, True, "12", 0, 2.5, None, [12],
    {}, {"base": 0, "per_cell": 0}, {"base": -1, "per_cell": 3},
    {"per_cell": 3, "steps": 9},
], ids=["per-cell-string", "negative", "per-cell-negative", "bool",
        "string", "zero", "fraction", "null", "list", "empty-form",
        "zero-form", "negative-base", "unknown-key"])
def test_bad_suggested_max_steps_is_a_validation_error(hint, tmp_path,
                                                        capsys):
    spec = _center_spec_with_step_hint(tmp_path, hint)
    assert main(["run", spec, "--input", "010"]) == 3
    err = capsys.readouterr().err
    assert "metadata suggested_max_steps must be an integer >= 1" in err
    # the spec file writes keys in sorted order, as the hints list them
    assert "got %r" % (hint,) in err


@pytest.mark.parametrize("hint,steps", [
    (12, 12), (12.0, 12), ({"per_cell": 2}, 10), ({"base": 7.0}, 7),
    ({"base": 2, "per_cell": 1}, 7),
])
def test_suggested_max_steps_forms_set_the_budget(hint, steps, tmp_path,
                                                  capsys):
    # the run with the identity prover halts after 13 steps, so each of
    # these budgets runs out
    spec = _center_spec_with_step_hint(tmp_path, hint)
    assert main(["run", spec, "--input", "010", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["steps"] == steps


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


@pytest.mark.parametrize("fmt,out", [
    ("text", ""),
    ("json", "[]\n"),
    ("csv", "input,prover_id,p_acc_lower,p_acc_upper,p_rej_lower,"
            "interactions,steps,wallclock\n"),
])
def test_cli_empty_report_prints_no_text_lines(fmt, out, capsys):
    # the empty input is the only word up to length 0, and it is no member
    code = main(["sweep", "zero", "--max-len", "0", "--only", "members",
                 "--format", fmt])
    assert code == 0
    assert capsys.readouterr().out == out


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
    # identity and one mark schedule per cell, per input; the honest
    # prover is the centred mark schedule, whose row is reused
    "center": 10,
    # the DP's optimal schedule once per input
    "odd": 15,
}


@pytest.mark.parametrize("argv,rows,announced", [
    # two-way and announced: the analysis succeeds once
    (["sweep", "equal_blocks", "--N", "2", "--max-len", "3"], 15, 1),
    # two-way, not announced: it fails once, then the bundle family runs
    (["sweep", "center", "--N", "2", "--inputs", "1,100,010"], 3, 1),
    # one-way: the schedule DP needs branch-freeness, never the
    # announcement map
    (["sweep", "odd", "--max-len", "3"], 15, 0),
])
def test_cli_sweep_builds_and_analyses_once_per_command(
        argv, rows, announced, monkeypatch, capsys):
    builds = _count_calls(monkeypatch, cli, "instantiate")
    # each analysis of the live rows reads them once
    analyses = _count_calls(monkeypatch, automata.VerifierSpec, "live_rows")
    runs = _count_calls(monkeypatch, engine, "run_protocol")
    monkeypatch.setattr(cli, "run_protocol", engine.run_protocol)
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == rows
    assert len(builds) == 1
    assert len(analyses) == 1
    assert ("announcement" in vars(analyses[0][0])) == bool(announced)
    assert len(runs) == SWEEP_RUNS[argv[1]]


@pytest.mark.parametrize("token", ["center", "equal_blocks", "odd"])
def test_cli_check_runs_the_per_symbol_check_once(token, monkeypatch, capsys):
    verifier = resolve_spec(token).make().verifier
    n_pairs = len(verifier.states) * len(verifier.comm_alphabet)
    calls = _count_calls(monkeypatch, automata, "isometry_defect")
    operators = _count_calls(monkeypatch, automata, "build_step_operator")
    assert main(["check", token]) == 0
    # one live-column check per padded symbol, no step operator built
    assert len(calls) == len(verifier.padded_alphabet)
    assert all(row < n_pairs
               for (entries, _n_cols) in calls for row, _col, _v in entries)
    assert operators == []


def test_run_sweep_and_check_never_complete_a_table(monkeypatch, capsys):
    # runs read only live rows, and the per-symbol check reads the live
    # columns, so no shipped spec's completion rows are ever built
    completions = _count_calls(monkeypatch, automata, "_complete_symbol")
    for token in SHIPPED:
        for argv in (["check", token], ["run", token, "--input", "01"],
                     ["sweep", token, "--max-len", "1"]):
            assert main(argv) == 0, argv
    capsys.readouterr()
    assert completions == []


FULL_TABLE_READS = {
    "build_step_operator": lambda v: automata.build_step_operator(v, "01"),
    "verifier_document": verifier_document,
    "completed": lambda v: v.completed,
}


@pytest.mark.parametrize("first", sorted(FULL_TABLE_READS))
def test_the_first_full_table_read_completes_it_once(first, monkeypatch):
    verifier = make_bundle("odd").verifier
    completions = _count_calls(monkeypatch, automata, "_complete_symbol")
    FULL_TABLE_READS[first](verifier)
    # one completion is one _complete_symbol call per padded symbol
    assert len(completions) == len(verifier.padded_alphabet)
    for read in FULL_TABLE_READS.values():
        read(verifier)
    assert len(completions) == len(verifier.padded_alphabet)
    assert verifier.completed is verifier.completed


def test_the_given_tables_and_analyses_never_complete_a_table(monkeypatch):
    # equal_blocks N=8 holds 104 given rows; its completed table holds
    # tens of thousands, and none of these reads builds it
    verifier = make_bundle("equal_blocks", {"branches": 8}).verifier
    completions = _count_calls(monkeypatch, automata, "_complete_symbol")
    assert sum(len(table) for table in verifier.rows.values()) == 104
    for read in ("row_class", "head_dir", "live_moves", "per_symbol_defects",
                 "announcement", "branching"):
        getattr(verifier, read)
    list(verifier.live_rows())
    assert completions == []
    assert "completed" not in vars(verifier)


def test_only_the_step_operator_and_the_export_read_completed():
    # every other reader of a verifier reads the tables it was given
    readers = set()
    for path in sorted(Path(automata.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Attribute)
                        and node.attr == "completed"):
                    readers.add("%s.%s" % (path.stem, func.name))
    assert readers == {"automata.build_step_operator",
                       "specfile.verifier_document"}


def test_concurrent_first_completions_agree():
    # library callers sharing one verifier across threads may complete
    # its table at the same time
    expected = serialize_spec(verifier_document(
        make_bundle("center", {"branches": 3}).verifier))
    verifier = make_bundle("center", {"branches": 3}).verifier
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            docs = list(pool.map(
                lambda _: serialize_spec(verifier_document(verifier)),
                range(16), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert docs == [expected] * 16
    assert "completed" in vars(verifier)


@pytest.mark.parametrize("token", ["odd", "toy_explicit"])
def test_export_matches_golden(token):
    # the export reads the completed table: completion on first use must
    # give the rows, classes and directions eager completion gave
    golden = Path(__file__).with_name("golden") / ("export-%s.txt" % token)
    doc = verifier_document(resolve_spec(token).make().verifier)
    assert serialize_spec(doc) == golden.read_text(encoding="utf-8")


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


def test_main_builds_the_parser_once(monkeypatch, capsys):
    cli.build_parser.cache_clear()
    inits = _count_calls(monkeypatch, argparse.ArgumentParser, "__init__")
    assert main(["run", "zero", "--input", "0"]) == 0
    built = len(inits)
    assert built > 0
    assert main(["sweep", "odd", "--inputs", "0,00"]) == 0
    assert len(inits) == built
    capsys.readouterr()


def test_cli_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


# -- refusals, one case each --------------------------------------------------


def _toy(path, value):
    """A builder of the toy_explicit document with the entry at path (a
    tuple of keys and indices) set to value."""
    def build():
        doc = _toy_document()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc
    return build


def _odd(**fields):
    """A builder of the odd bundle document with fields added."""
    return lambda: {"format": "qip-spec-1", "kind": "bundle",
                    "bundle": "odd", **fields}


def _toy_with_a_repeated_row():
    doc = _toy_document()
    doc["rows"]["0"].append(doc["rows"]["0"][0])
    return doc


def _two_way_toy_with_two_faults():
    # the '^' row targets q0 and the later '$' row targets qz, neither of
    # which has a head direction: the earlier row's fault is named
    doc = _toy_document()
    doc["two_way"] = True
    doc["head_dir"] = {"per_state": {"qa": 1, "qb": 1, "acc": 0, "rej": 0},
                       "per_target": []}
    doc["rows"]["^"][0]["targets"][0][1] = "q0"
    doc["rows"]["$"][0]["targets"][0][1] = "qz"
    return doc


_AMP = ("rows", "0", 0, "targets", 0, 0)
_ROW = ("rows", "0", 0)
_CHECK = ["check", "SPEC"]


@pytest.mark.parametrize("spec, argv, code, fragment", [
    pytest.param(_toy(_AMP, True), _CHECK, 2,
                 "rows['0'][0].targets[0]: booleans are not amplitudes",
                 id="amp-bool"),
    pytest.param(_toy(_AMP, {"fourier": {"n": 4, "j": 1}}), _CHECK, 2,
                 "fourier form needs n, j, l (missing 'l')",
                 id="amp-fourier-missing"),
    pytest.param(_toy(_AMP, {"fourier": [4, 1]}), _CHECK, 2,
                 "fourier form needs {n, j, l} or [n, j, l]",
                 id="amp-fourier-shape"),
    pytest.param(_toy(_AMP, {"fourier": [0, 1, 1]}), _CHECK, 2,
                 "fourier order must be positive, got 0",
                 id="amp-fourier-order"),
    pytest.param(_toy(_AMP, {"invsqrt": 0}), _CHECK, 2,
                 "invsqrt order must be positive, got 0",
                 id="amp-invsqrt-order"),
    pytest.param(lambda: [1, 2], _CHECK, 2, "top level must be an object",
                 id="top-list"),
    pytest.param(_odd(params=[1]), _CHECK, 2, "params must be an object",
                 id="bundle-params"),
    pytest.param(_odd(extra=1), _CHECK, 2,
                 "unknown top-level keys ['extra']", id="bundle-extra-key"),
    pytest.param(_odd(claims=[]), _CHECK, 2, "claims must be an object",
                 id="bundle-claims"),
    pytest.param(_toy(("input_alphabet",), "01"), _CHECK, 2,
                 "input_alphabet: expected a list of strings",
                 id="input-alphabet"),
    pytest.param(_toy(("input_alphabet",), ["0", "1", "1"]),
                 ["sweep", "SPEC", "--max-len", "1", "--format", "csv"], 3,
                 "error: duplicate input symbols\n",
                 id="input-alphabet-duplicate"),
    pytest.param(_toy(("bogus",), 1), _CHECK, 2,
                 "unknown top-level keys ['bogus']", id="verifier-extra-key"),
    pytest.param(_toy(("name",), ""), _CHECK, 2,
                 "verifier specs need a non-empty name", id="name"),
    pytest.param(_toy(("states",), []), _CHECK, 2,
                 "states must be an object with live/accepting/rejecting/"
                 "initial", id="states"),
    pytest.param(_toy(("states", "dead"), []), _CHECK, 2,
                 "unknown states keys ['dead']", id="states-extra-key"),
    pytest.param(_toy(("states", "initial"), 3), _CHECK, 2,
                 "states.initial must be a string", id="states-initial"),
    pytest.param(_toy(("fill",), []), _CHECK, 2,
                 "fill must be an object with guards/completion flags",
                 id="fill"),
    pytest.param(_toy(("fill",), {"guards": True, "completion": False}),
                 _CHECK, 2, "fill.guards and fill.completion must match",
                 id="fill-mismatch"),
    pytest.param(_toy(("head_dir",), []), _CHECK, 2,
                 "head_dir must be an object", id="head-dir"),
    pytest.param(_toy(("head_dir", "up"), {}), _CHECK, 2,
                 "unknown head_dir keys ['up']", id="head-dir-extra-key"),
    pytest.param(_toy(("head_dir", "per_state"), []), _CHECK, 2,
                 "head_dir.per_state must map state -> direction",
                 id="head-dir-per-state"),
    pytest.param(_toy(("head_dir", "per_target"), [["qa", "#"]]), _CHECK, 2,
                 "head_dir.per_target entries are [state, comm, direction] "
                 "triples", id="head-dir-per-target"),
    pytest.param(_toy(("head_dir", "per_state"), {"qa": 2}), _CHECK, 2,
                 "head direction at 'qa' must be -1, 0, or 1, got 2",
                 id="head-dir-range"),
    pytest.param(_toy(("rows",), []), _CHECK, 2,
                 "rows must map tape symbols to row lists", id="rows"),
    pytest.param(_toy(("rows", "0"), {}), _CHECK, 2,
                 "rows['0']: expected a list of row objects",
                 id="rows-symbol"),
    pytest.param(_toy(_ROW, "row"), _CHECK, 2,
                 "rows['0'][0]: rows are objects with source/targets/class",
                 id="row"),
    pytest.param(_toy(_ROW + ("source",), ["qa"]), _CHECK, 2,
                 "source must be a [state, comm] pair", id="row-source"),
    pytest.param(_toy_with_a_repeated_row, _CHECK, 2,
                 "rows['0'][2]: duplicate source ('qa', '#')",
                 id="row-duplicate"),
    pytest.param(_toy(_ROW + ("class",), "magic"), _CHECK, 2,
                 "unknown row class 'magic'", id="row-class"),
    pytest.param(_toy(_ROW + ("class",), "guard"), _CHECK, 2,
                 "explicit guard rows require fill disabled",
                 id="row-class-under-fill"),
    pytest.param(_toy(_ROW + ("targets",), []), _CHECK, 2,
                 "targets must be a non-empty list", id="row-targets"),
    pytest.param(_toy(_ROW + ("targets", 0), [1.0, "qa"]), _CHECK, 2,
                 "rows['0'][0].targets[0]: targets are [amplitude, state, "
                 "comm]", id="row-target"),
    pytest.param(_toy(("metadata",), []), _CHECK, 2,
                 "metadata must be an object", id="metadata"),
    pytest.param(_toy(("honest_prover",), "identity"), _CHECK, 2,
                 "honest_prover must be an object", id="honest"),
    pytest.param(_toy(("honest_prover",), {"type": "identity", "writes": {}}),
                 _CHECK, 2, "identity prover takes no extra keys",
                 id="honest-identity-keys"),
    pytest.param(_toy(("honest_prover",), {"type": "schedule", "rounds": {}}),
                 _CHECK, 2, "schedule prover takes writes and prover_id only",
                 id="honest-schedule-keys"),
    pytest.param(_toy(("honest_prover",), {"type": "schedule", "writes": []}),
                 _CHECK, 2, "schedule writes must map round -> symbol",
                 id="honest-writes"),
    pytest.param(_toy(("honest_prover",),
                      {"type": "schedule", "writes": {"x": "#"}}),
                 _CHECK, 2, "schedule round 'x' is not an integer",
                 id="honest-round"),
    pytest.param(_toy(("honest_prover",),
                      {"type": "schedule", "writes": {"0": "#"}}),
                 _CHECK, 2, "schedule writes map rounds >= 1 to symbols",
                 id="honest-round-zero"),
    pytest.param(_toy(("honest_prover",),
                      {"type": "schedule", "writes": {}, "prover_id": 5}),
                 _CHECK, 2, "prover_id must be a string", id="honest-id"),
    pytest.param(_toy(("honest_prover",), {"type": "oracle"}), _CHECK, 2,
                 "unknown honest_prover type 'oracle' (identity or schedule)",
                 id="honest-type"),
    pytest.param(_two_way_toy_with_two_faults, _CHECK, 3,
                 "error: no head direction given for target ('q0', '#')\n",
                 id="first-row-fault-first"),
    pytest.param(_odd(claims={"completeness": 0.5}), _CHECK, 3,
                 "FAIL honest-completeness  honest p_acc 1 on member '10', "
                 "claimed 0.5", id="check-completeness-fails"),
    pytest.param(None, ["check", "DIR"], 2, "Is a directory",
                 id="spec-is-a-directory"),
    pytest.param(None, ["sweep", "odd"], 3,
                 "sweep needs --inputs or a --max-len length range",
                 id="sweep-no-inputs"),
    pytest.param(None, ["sweep", "odd", "--min-len", "3", "--max-len", "2"],
                 3, "--min-len exceeds --max-len", id="sweep-lengths"),
    pytest.param(None, ["sweep", "toy_explicit", "--inputs", "0", "--only",
                        "members"], 3,
                 "--only members needs a bundled language predicate",
                 id="sweep-only-without-language"),
    pytest.param(None, ["sweep", "center", "--inputs", "0", "--family",
                        "schedule"], 4,
                 "state 'seek' has authored rows under 2 comm symbols",
                 id="sweep-schedule-on-center"),
    pytest.param(None, ["run", "odd", "--input", "10", "--prover",
                        "identity"], 0,
                 "input='10' prover=identity p_acc=[0, 0] p_rej>=1 "
                 "interactions=- steps=4", id="run-identity"),
    pytest.param(None, ["trace", "odd", "--input", "1", "--prover",
                        "identity"], 0, "run on '1' with prover identity\n",
                 id="trace-identity"),
])
def test_cli_refusals_and_untried_options(spec, argv, code, fragment,
                                          tmp_path, capsys):
    # spec builds the document written to SPEC; DIR is a directory
    path = tmp_path / "case.spec"
    if spec is not None:
        path.write_text(json.dumps(spec()), encoding="utf-8")
    argv = [{"SPEC": str(path), "DIR": str(tmp_path)}.get(a, a)
            for a in argv]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert fragment in out + err
    assert "Traceback" not in err
