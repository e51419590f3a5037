"""Golden CLI output: every command in every format.

Each case's expected text lives in tests/golden/<case>.txt: an
``exit N`` line, then stdout, then stderr.  `check --format json` keeps
only each rule's name and ok.  `check` in text and csv keeps every
detail string verbatim except the wellformed rule's ``worst defect``
number, masked with ``*``: it is a ~1e-16 defect whose last digits
depend on libm.  `run`, `sweep` and `trace` are kept as printed: their
probabilities and amplitudes are already rounded to 12 significant
digits by the CLI's output layer, and `run`'s wallclock is masked with
``*``.  The `trace` files pin the history tapes the engine reports.
A case whose argv holds OUT writes through ``--out`` to a temporary
file; that file's contents stand in for stdout.

Regenerate after a deliberate output change with
``PYTHONPATH=src python tests/test_golden.py --write``.
"""

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from qipsim.cli import main

GOLDEN = Path(__file__).with_name("golden")

SPECS = (
    ("zero", (), 4), ("odd", (), 4), ("rfa_parity", (), 4),
    ("rfa_mod3", (), 4), ("npfa_coin", (), 3), ("npfa_branch", (), 3),
    ("toy_explicit", (), 4), ("center", (), 4), ("equal_blocks", (), 3),
    ("center", ("--N", "3"), 3), ("center", ("--N", "4"), 3),
    ("equal_blocks", ("--N", "2"), 3),
)

SWEEP_FLAGS = (
    ("auto", ("--family", "auto")),
    ("bundle", ("--family", "bundle")),
    ("auto-prune1e-3", ("--family", "auto", "--prune", "1e-3")),
)

# (spec, extra flags, input) for `run` and `trace`; only odd is one-way,
# so only odd also gets `trace --mcomp`
RUN_SPECS = (
    ("center", ("--N", "2"), "010"), ("equal_blocks", ("--N", "2"), "0011"),
    ("odd", (), "01"), ("npfa_coin", (), "01"),
)
ONE_WAY = {"odd"}
FORMATS = ("text", "json", "csv")

# `check` and `sweep` in the formats the cases above leave out
CHECK_FORMAT_SPECS = (
    ("zero", ()), ("odd", ()), ("center", ("--N", "2")),
    ("equal_blocks", ("--N", "2")), ("npfa_branch", ()), ("toy_explicit", ()),
)
CHECK_FORMATS = ("text", "csv")
SWEEP_FORMAT_SPECS = (
    ("zero", ()), ("center", ("--N", "2")), ("npfa_branch", ()),
)

OUT = "<out>"


def _cases():
    cases = {}
    for spec, extra, max_len in SPECS:
        name = spec + "".join("-N" + v for v in extra[1::2])
        cases["check-" + name] = ["check", spec, *extra, "--format", "json"]
        for suffix, flags in SWEEP_FLAGS:
            cases["sweep-%s-%s" % (name, suffix)] = [
                "sweep", spec, *extra, "--max-len", str(max_len),
                "--format", "csv", *flags,
            ]
    for spec, extra, x in RUN_SPECS:
        name = spec + "".join("-N" + v for v in extra[1::2])
        for fmt in FORMATS:
            flags = (*extra, "--input", x, "--format", fmt)
            cases["run-%s-%s" % (name, fmt)] = [
                "run", spec, *flags, "--count-interactions"]
            cases["trace-%s-%s" % (name, fmt)] = ["trace", spec, *flags]
            if spec in ONE_WAY:
                cases["trace-%s-mcomp-%s" % (name, fmt)] = [
                    "trace", spec, *flags, "--mcomp"]
    for spec, extra in CHECK_FORMAT_SPECS:
        name = spec + "".join("-N" + v for v in extra[1::2])
        for fmt in CHECK_FORMATS:
            cases["check-%s-%s" % (name, fmt)] = [
                "check", spec, *extra, "--format", fmt]
    for spec, extra in SWEEP_FORMAT_SPECS:
        name = spec + "".join("-N" + v for v in extra[1::2])
        for fmt in ("text", "json"):
            cases["sweep-%s-%s" % (name, fmt)] = [
                "sweep", spec, *extra, "--max-len", "3", "--format", fmt]
    cases["run-odd-text-out"] = [*cases["run-odd-text"], "--out", OUT]
    return cases


CASES = _cases()


def render(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "out")
        argv = [str(path) if arg == OUT else arg for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        text = out.getvalue()
        if path.exists():
            text += path.read_text(encoding="utf-8")
    if argv[0] == "check" and "json" not in argv:
        text = re.sub(r"worst defect [^,]+,", "worst defect *,", text)
    elif argv[0] == "check" and text:
        report = json.loads(text)
        text = "".join(
            "%s %s\n" % (r["rule"], json.dumps(r["ok"]))
            for r in [{"rule": report["name"], "ok": report["ok"]},
                      *report["rules"]])
    if argv[0] == "run":
        text = _mask_wallclock(text)
    return "exit %d\n%s%s" % (code, text, err.getvalue())


def _mask_wallclock(text):
    """`run` output with its wallclock value replaced by ``*``."""
    text = re.sub(r"wallclock=\S+", "wallclock=*", text)
    text = re.sub(r'"wallclock": [^\n]+', '"wallclock": "*"', text)
    head, sep, rows = text.partition("\n")
    if head.endswith(",wallclock"):
        text = head + sep + re.sub(r",[^,\n]*$", ",*", rows, flags=re.M)
    return text


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    expected = (GOLDEN / (case + ".txt")).read_text(encoding="utf-8")
    assert render(CASES[case]) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        (GOLDEN / (case + ".txt")).write_text(render(argv), encoding="utf-8")
