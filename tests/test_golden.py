"""Golden CLI output: `sweep --format csv`, `check --format json`
verdicts, and `run`/`trace` in every format.

Each case's expected text lives in tests/golden/<case>.txt: an
``exit N`` line, then stdout, then stderr.  `check` keeps only each
rule's name and ok; its detail strings carry ~1e-16 defects whose last
digits depend on libm.  `run` and `trace` are kept as printed: their
probabilities and amplitudes are already rounded to 12 significant
digits (cli._round12), and `run`'s wallclock is masked with ``*``.
The `trace` files pin the history tapes the engine reports.

Regenerate after a deliberate output change with
``PYTHONPATH=src python tests/test_golden.py --write``.
"""

import contextlib
import io
import json
import re
import sys
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
    return cases


CASES = _cases()


def render(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    if argv[0] == "check" and text:
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
