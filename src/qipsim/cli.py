"""Command-line front end.

Subcommands:

* ``check`` — load a spec file and validate its declared claims
  (wellformedness, publicness, honest-prover classicality/committedness,
  interaction bound, honest completeness on the bundled check inputs).
  Exit status 0 iff every checked claim validates.
* ``run`` — run one protocol on one input and print a report row.
* ``sweep`` — per-input worst-case acceptance over an adversary family
  (exact message-schedule optimum where certified, otherwise the
  bundle's own family), output in input order.
* ``trace`` — per-step configuration/amplitude listing; with ``--mcomp``
  the proverless comm-projection run with its per-step query mass.

Every command hands one record to `emit`, the one output layer, which
writes it as text, JSON or CSV (``--format``) to stdout or ``--out``,
with floats to 12 significant digits.  Report rows carry, in order:
input, prover id, p_acc lower, p_acc upper, p_rej lower, interactions,
steps, wallclock, each probability clamped to [0, 1] after tau-rounding.
Exit codes: 0 success, 2 parse (also a flag value out of range, an
unreadable spec or an unwritable ``--out``), 3 validation, 4 engine,
5 budget.
"""

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from importlib import resources
from pathlib import Path

from .automata import validate_public, validate_wellformed
from .engine import (
    EngineConfig, MCompTrace, best_schedule_acceptance, resolve_max_steps,
    run_mcomp, run_protocol, sweep_family,
)
from .errors import (
    BudgetError, FamilyInadequacyError, ParseError, QipsimError,
    ValidationError,
)
from .provers import IdentityProver, check_classical, check_committed
from .specfile import LoadedSpec, load_spec, parse_spec

REPORT_FIELDS = (
    "input", "prover_id", "p_acc_lower", "p_acc_upper", "p_rej_lower",
    "interactions", "steps", "wallclock",
)

_SWEEP_INPUT_CAP = 100000


def _g(value):
    return "%.12g" % float(value)


def _tau_round(p, tau):
    p = float(p)
    if abs(p) <= tau:
        p = 0.0
    elif abs(p - 1.0) <= tau:
        p = 1.0
    return min(max(p, 0.0), 1.0)


# -- spec resolution ----------------------------------------------------------


def resolve_spec(token):
    """Load a spec from a file, else a bundled spec (".spec" may be left
    off; importlib.resources finds their directory once per process),
    else whatever else the path names, whose read error then names it:
    a directory named like a bundled spec does not hide that spec."""
    path = Path(token)
    if path.is_file():
        return load_spec(path)
    base = token if token.endswith(".spec") else token + ".spec"
    try:
        res = _bundled_specs().joinpath(base)
        if res.is_file():
            return parse_spec(res.read_text(encoding="utf-8"),
                              source="qipsim:specs/%s" % base)
    except (ImportError, OSError):
        pass
    if path.exists():
        return load_spec(path)
    raise ParseError(
        "spec %r not found: no such file and no bundled spec %r"
        % (token, base)
    )


@functools.cache
def _bundled_specs():
    return resources.files("qipsim").joinpath("specs")


def instantiate(loaded, branches=None):
    """Build a fresh bundle; --N overrides the branch-count parameter."""
    if branches is None:
        return loaded.make()
    if loaded.kind != "bundle":
        raise ValidationError(
            "--N overrides a bundled protocol parameter; %r is an explicit "
            "verifier spec" % (loaded.name,)
        )
    document = dict(loaded.document)
    params = dict(document.get("params") or {})
    params["branches"] = int(branches)
    document["params"] = params
    return LoadedSpec(document, source=loaded.source).make()


def _check_input_string(verifier, x):
    bad = sorted(set(x) - set(verifier.input_alphabet))
    if bad:
        raise ValidationError(
            "input %r uses symbols %s outside the alphabet %s"
            % (x, bad, list(verifier.input_alphabet))
        )


# -- output -------------------------------------------------------------------


def report_row(result, tau, wallclock=None):
    lo, hi = result.acceptance_bounds
    return {
        "input": result.input,
        "prover_id": result.prover_id,
        "p_acc_lower": _tau_round(lo, tau),
        "p_acc_upper": _tau_round(hi, tau),
        "p_rej_lower": _tau_round(min(max(result.p_rej, 0.0), 1.0), tau),
        "interactions": result.interactions,
        "steps": int(result.steps),
        "wallclock": float(result.wallclock if wallclock is None
                           else wallclock),
    }


def _report_record(rows):
    """The record of a list of report rows, for `emit`."""
    lines = [
        "input=%r prover=%s p_acc=[%s, %s] p_rej>=%s interactions=%s "
        "steps=%d wallclock=%s" % (
            row["input"], row["prover_id"],
            _g(row["p_acc_lower"]), _g(row["p_acc_upper"]),
            _g(row["p_rej_lower"]),
            "-" if row["interactions"] is None else row["interactions"],
            row["steps"], _g(row["wallclock"]),
        )
        for row in rows
    ]
    return rows, REPORT_FIELDS, rows, lines


def _round_floats(value):
    """A JSON document with every float rounded to 12 significant digits."""
    if isinstance(value, float):
        return float(_g(value))
    if isinstance(value, dict):
        return {key: _round_floats(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(item) for item in value]
    return value


def _csv_cell(value):
    """A CSV cell: 12 significant digits for a float, empty for None."""
    if value is None:
        return ""
    return _g(value) if isinstance(value, float) else value


def emit(args, document, header, rows, lines):
    """Write one record in the --format asked for, to --out or stdout.

    A record is a JSON document, CSV rows (dicts holding at least the
    header's fields) with their header, and the lines of the text
    report.  This is the only code that turns a record into output.
    """
    if args.format == "json":
        text = json.dumps(_round_floats(document), indent=2) + "\n"
    elif args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_csv_cell(row[f]) for f in header] for row in rows)
        text = buffer.getvalue()
    else:
        text = "".join(line + "\n" for line in lines)
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParseError("cannot write --out %s: %s"
                         % (args.out, exc.strerror or exc)) from None


def engine_config(args, count_interactions=False, record_steps=False):
    return EngineConfig(
        tau=args.tau, prune=args.prune, max_steps=args.max_steps,
        tape_trunc=args.tape_trunc, count_interactions=count_interactions,
        record_steps=record_steps,
    )


# -- check --------------------------------------------------------------------


def _enumerate_inputs(alphabet, lo, hi, cap=_SWEEP_INPUT_CAP):
    out = []
    for n in range(lo, hi + 1):
        for tup in itertools.product(alphabet, repeat=n):
            out.append("".join(tup))
            if len(out) > cap:
                raise BudgetError(
                    "input enumeration exceeded %d strings (lengths %d..%d "
                    "over %d symbols)" % (cap, lo, hi, len(alphabet))
                )
    return out


def cmd_check(args):
    loaded = resolve_spec(args.spec)
    bundle = instantiate(loaded, args.N)
    verifier = bundle.verifier
    claims = bundle.claims or {}
    rules = []

    def rule(name, ok, detail):
        rules.append({"rule": name, "ok": bool(ok), "detail": detail})

    def skip(name, why):
        rules.append({"rule": name, "ok": None, "detail": "skipped: " + why})

    report = validate_wellformed(verifier, tau=args.tau)
    detail = report.summary()
    if not report.ok:
        missing = []
        for sym, defect in sorted(report.per_symbol.items()):
            if defect != defect or defect == float("inf"):
                table = verifier.live_moves[sym]
                absent = [
                    (q, g) for q in verifier.states
                    for g in verifier.comm_alphabet if (q, g) not in table
                ]
                missing.extend(
                    "no image for state %r with comm %r on %r" % (q, g, sym)
                    for q, g in absent[:3]
                )
        if missing:
            detail += "; " + "; ".join(missing)
    rule("wellformed", report.ok, detail)

    if "public" in claims and claims["public"] is not None:
        pub = validate_public(verifier)
        ok = pub.ok == bool(claims["public"])
        rule("public-claim", ok,
             "%s; claimed public=%s" % (pub.summary(), claims["public"]))
    else:
        skip("public-claim", "no publicness claim declared")

    if "one_way" in claims and claims["one_way"] is not None:
        ok = bool(claims["one_way"]) == (not verifier.two_way)
        rule("one-way-claim", ok,
             "verifier two_way=%s; claimed one_way=%s"
             % (verifier.two_way, claims["one_way"]))
    else:
        skip("one-way-claim", "no one-way claim declared")

    check_inputs = [x for x in bundle.check_inputs
                    if set(x) <= set(verifier.input_alphabet)]

    cfg = engine_config(args)
    for claim_key, checker, name in (
            ("classical_honest", check_classical, "classical-honest"),
            ("committed_honest", check_committed, "committed-honest")):
        if claims.get(claim_key) is None:
            skip(name, "no %s claim declared" % claim_key)
            continue
        observed = True
        witness = ""
        for x in check_inputs:
            prover = bundle.honest_prover(x)
            rounds = resolve_max_steps(verifier, x, cfg)
            rep = checker(prover, verifier.comm_alphabet, rounds,
                          tau=args.tau)
            if not rep.ok:
                observed = False
                witness = " (witness input %r: %s)" % (x, rep.summary())
                break
        ok = observed == bool(claims[claim_key])
        rule(name, ok, "observed %s, claimed %s%s"
             % (observed, claims[claim_key], witness))

    if claims.get("interaction_bound") is not None:
        bound = int(claims["interaction_bound"])
        worst = 0
        worst_x = None
        counting = engine_config(args, count_interactions=True)
        for x in check_inputs:
            result = run_protocol(verifier, x, bundle.honest_prover(x),
                                  counting)
            if worst_x is None or result.interactions > worst:
                worst, worst_x = result.interactions, x
        rule("interaction-bound", worst <= bound,
             "max honest interactions %d (input %r), claimed <= %d"
             % (worst, worst_x, bound))
    else:
        skip("interaction-bound", "no interaction bound declared")

    if claims.get("completeness") is not None and bundle.language is not None:
        target = float(claims["completeness"])
        tol = max(args.tau, 1e-9)
        ok = True
        detail = "honest acceptance matches %s on all bundled members" \
            % _g(target)
        for x in check_inputs:
            if not bundle.language(x):
                continue
            result = run_protocol(verifier, x, bundle.honest_prover(x), cfg)
            if abs(result.p_acc - target) > tol or result.residual > tol:
                ok = False
                detail = ("honest p_acc %s on member %r, claimed %s"
                          % (_g(result.p_acc), x, _g(target)))
                break
        rule("honest-completeness", ok, detail)
    else:
        skip("honest-completeness",
             "no completeness claim or no language predicate")

    failed = [r for r in rules if r["ok"] is False]
    lines = []
    for r in rules:
        mark = "--" if r["ok"] is None else ("ok" if r["ok"] else "FAIL")
        lines.append("%-4s %-20s %s" % (mark, r["rule"], r["detail"]))
    lines.append("%s: %d checked, %d failed"
                 % (bundle.name, len(rules), len(failed)))
    emit(args, {"spec": loaded.source, "name": bundle.name,
                "ok": not failed, "rules": rules},
         ("rule", "ok", "detail"), rules, lines)
    return 0 if not failed else 3


# -- run ----------------------------------------------------------------------


def _select_prover(bundle, x, selector):
    if selector == "identity":
        return IdentityProver()
    return bundle.honest_prover(x)


def cmd_run(args):
    bundle = instantiate(resolve_spec(args.spec), args.N)
    _check_input_string(bundle.verifier, args.input)
    prover = _select_prover(bundle, args.input, args.prover)
    cfg = engine_config(args, count_interactions=args.count_interactions)
    result = run_protocol(bundle.verifier, args.input, prover, cfg)
    emit(args, *_report_record([report_row(result, args.tau)]))
    return 0


# -- sweep --------------------------------------------------------------------


def _sweep_inputs(args, bundle):
    if args.inputs is not None:
        inputs = [""] if args.inputs == "" else args.inputs.split(",")
    else:
        if args.max_len is None:
            raise ValidationError(
                "sweep needs --inputs or a --max-len length range")
        if args.min_len > args.max_len:
            raise ValidationError("--min-len exceeds --max-len")
        inputs = _enumerate_inputs(bundle.verifier.input_alphabet,
                                   args.min_len, args.max_len)
    for x in inputs:
        _check_input_string(bundle.verifier, x)
    if args.only != "all":
        if bundle.language is None:
            raise ValidationError(
                "--only %s needs a bundled language predicate" % args.only)
        keep = args.only == "members"
        inputs = [x for x in inputs if bool(bundle.language(x)) == keep]
    return inputs


def _sweep_one(bundle, x, family, cfg, tau):
    verifier = bundle.verifier
    if family in ("auto", "schedule"):
        try:
            sweep = best_schedule_acceptance(verifier, x, cfg)
        except FamilyInadequacyError:
            if family == "schedule":
                raise
        else:
            row = report_row(sweep.witness, tau, wallclock=0.0)
            row["p_acc_upper"] = _tau_round(
                max(row["p_acc_upper"], sweep.best_p), tau)
            return row
    provers = [bundle.honest_prover(x)]
    if family in ("auto", "bundle") and bundle.adversary_family is not None:
        provers.extend(bundle.adversary_family(x))
    elif family == "bundle" and bundle.adversary_family is None:
        raise ValidationError(
            "bundle %r declares no adversary family" % bundle.name)
    witness = sweep_family(verifier, x, provers, cfg).witness
    return report_row(witness, tau, wallclock=0.0)


def cmd_sweep(args):
    bundle = instantiate(resolve_spec(args.spec), args.N)
    inputs = _sweep_inputs(args, bundle)
    cfg = engine_config(args, count_interactions=True)
    rows = [_sweep_one(bundle, x, args.family, cfg, args.tau) for x in inputs]
    emit(args, *_report_record(rows))
    return 0


# -- trace --------------------------------------------------------------------


def _tape_text(tape):
    return ";".join("%d:%s" % (t, g) for t, g in tape) or "-"


def _trace_record(run, tau):
    """The record of a protocol run, or of a comm-projection run when
    `run` is an MCompTrace, for `emit`."""
    p_acc, p_rej = _tau_round(run.p_acc, tau), _tau_round(run.p_rej, tau)
    summary = {"p_acc": p_acc, "p_rej": p_rej, "residual": run.residual,
               "steps": run.steps}
    totals = "p_acc=%s p_rej=%s residual=%s" % (
        _g(p_acc), _g(p_rej), _g(run.residual))
    if isinstance(run, MCompTrace):
        document = {"input": run.input, "query_masses": run.masses,
                    **summary}
        header = ("step", "query_mass")
        rows = [{"step": i, "query_mass": m} for i, m in enumerate(run.masses)]
        lines = ["comm-projection run on %r" % run.input]
        footer = ["query_masses=[%s]" % ", ".join(_g(m) for m in run.masses),
                  totals]
    else:
        records = [{
            "step": rec.step, "p_acc": rec.p_acc, "p_rej": rec.p_rej,
            "query_mass": rec.query_mass,
            "live": [{"state": q, "head": k, "comm": g, "tape": tape,
                      "re": amp.real, "im": amp.imag}
                     for (q, k, g, tape), amp in rec.live],
        } for rec in run.step_records]
        document = {"input": run.input, "prover_id": run.prover_id,
                    **summary, "records": records}
        header = ("step", "state", "head", "comm", "tape", "re", "im")
        rows = [{**live, "step": rec["step"], "tape": _tape_text(live["tape"])}
                for rec in records for live in rec["live"]]
        lines = ["run on %r with prover %s" % (run.input, run.prover_id)]
        footer = [totals + " steps=%d" % run.steps]
    for rec in run.step_records:
        lines.append(
            "step %d  p_acc=%s p_rej=%s query_mass=%s" % (
                rec.step, _g(rec.p_acc), _g(rec.p_rej), _g(rec.query_mass))
        )
        for key, amp in rec.live:
            q, k, g = key[:3]
            tail = " tape=%s" % _tape_text(key[3]) if len(key) == 4 else ""
            mass = (amp * amp.conjugate()).real
            lines.append(
                "  state=%s head=%d comm=%s amp=%s%+.12gi mass=%s%s" % (
                    q, k, g, _g(amp.real), amp.imag, _g(mass), tail)
            )
    return document, header, rows, lines + footer


def cmd_trace(args):
    bundle = instantiate(resolve_spec(args.spec), args.N)
    _check_input_string(bundle.verifier, args.input)
    cfg = engine_config(args, record_steps=True)
    if args.mcomp:
        run = run_mcomp(bundle.verifier, args.input, cfg)
    else:
        prover = _select_prover(bundle, args.input, args.prover)
        run = run_protocol(bundle.verifier, args.input, prover, cfg)
    emit(args, *_trace_record(run, args.tau))
    return 0


# -- parser -------------------------------------------------------------------


def _at_least(low, convert=int, below=math.inf):
    """An argparse type: a finite int (or `convert`) value >= low, and
    below `below` when that is finite."""
    def parse(text):
        value = convert(text)
        if not low <= value < below:
            bounds = (">= %s" % low if below == math.inf
                      else "in [%s, %s)" % (low, below))
            raise argparse.ArgumentTypeError(
                "must be a finite number %s, got %r" % (bounds, text))
        return value
    parse.__name__ = convert.__name__
    return parse


@functools.cache
def build_parser():
    """The qipsim argument parser, built once per process: parse_args
    leaves it unchanged, so every main call shares it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("spec")
    # from tau = 0.5 on, a probability can lie within tau of both 0 and
    # 1, and tau = 2 puts a two-way run's halt target 1 - tau/2 at 0;
    # EngineConfig itself still takes any tau
    common.add_argument("--tau", type=_at_least(0, float, below=0.5),
                        default=1e-9,
                        help="numerical tolerance in [0, 0.5) (default 1e-9)")
    common.add_argument("--prune", type=_at_least(0, float), default=1e-12,
                        help="amplitude prune threshold (default 1e-12)")
    common.add_argument("--max-steps", type=_at_least(1), default=None,
                        help="two-way step budget override")
    common.add_argument("--tape-trunc", type=_at_least(0), default=None,
                        help="history-tape record cap")
    common.add_argument("--format", choices=("text", "csv", "json"),
                        default="text", help="output format")
    common.add_argument("--out", default=None,
                        help="write output to this path instead of stdout")
    common.add_argument("--N", type=int, default=None, dest="N",
                        help="override the bundled branch-count parameter")
    one_run = argparse.ArgumentParser(add_help=False)
    one_run.add_argument("--input", required=True)
    one_run.add_argument("--prover", choices=("honest", "identity"),
                         default="honest")

    parser = argparse.ArgumentParser(
        prog="qipsim",
        description="Simulate and validate interactive proofs whose "
                    "verifiers are small quantum automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[common],
                             help="validate a spec file's declared claims")
    p_check.add_argument("--n-max", type=_at_least(0), default=3,
                         help="accepted and validated for compatibility; "
                              "it no longer changes what check does: every "
                              "input's step defect is at most the worst "
                              "per-symbol defect the wellformed rule prints")
    p_check.set_defaults(func=cmd_check)

    p_run = sub.add_parser("run", parents=[common, one_run],
                           help="run one protocol on one input")
    p_run.add_argument("--count-interactions", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="worst-case acceptance over an adversary "
                                  "family, per input")
    p_sweep.add_argument("--inputs", default=None,
                         help="comma-separated explicit inputs ('' = empty)")
    p_sweep.add_argument("--min-len", type=_at_least(0), default=0)
    p_sweep.add_argument("--max-len", type=_at_least(0), default=None)
    p_sweep.add_argument("--only", choices=("members", "nonmembers", "all"),
                         default="all",
                         help="filter enumerated inputs by the language")
    p_sweep.add_argument("--family",
                         choices=("auto", "schedule", "bundle", "honest"),
                         default="auto",
                         help="adversary family (auto: exact schedule sweep "
                              "where certified, else the bundle's family)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_trace = sub.add_parser("trace", parents=[common, one_run],
                             help="per-step configuration dump")
    p_trace.add_argument("--mcomp", action="store_true",
                         help="proverless comm-projection run with per-step "
                              "query mass")
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QipsimError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
