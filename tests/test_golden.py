"""Golden CLI output: `sweep --format csv` and `check --format json` verdicts.

Each case's expected text lives in tests/golden/<case>.txt: an
``exit N`` line, then stdout, then stderr.  `check` keeps only each
rule's name and ok; its detail strings carry ~1e-16 defects whose last
digits depend on libm, as do `trace` amplitudes, which are left out.

Regenerate after a deliberate output change with
``PYTHONPATH=src python tests/test_golden.py --write``.
"""

import contextlib
import io
import json
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
    return "exit %d\n%s%s" % (code, text, err.getvalue())


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
