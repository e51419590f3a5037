"""Span tracer for the benchmark's traced run (``--trace 1``).

It wraps public qipsim functions from outside the program: ``install``
replaces every module binding of each target function, e.g.
``qipsim.cli.run_protocol`` as well as ``qipsim.engine.run_protocol``,
and ``uninstall`` restores them.  The untraced run never imports this
module.

Each wrapped call records a span (name, start, end, parent span, op id)
into flat in-memory arrays; nothing is written until the run ends.  A
span's self time is its duration minus the time its child spans cover;
calls are single-threaded, so children nest and their durations add up.
"""

import functools
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter


def _steps(counters, result):
    counters["steps"] += result.steps


def _verifier_size(counters, result):
    counters["states"] += len(result.states)
    counters["table_rows"] += sum(len(t) for t in result.rows.values())


def _nnz(counters, result):
    counters["nnz"] += result[0].nnz


def _runs(counters, result):
    counters["runs"] += result.runs


# (span name, module, function, hook adding the result to the counters).
# SparseVector (linalg) is left unwrapped: it is only called inside the
# engine's step loop, and wrapping it there would distort that loop, so
# linalg time shows up as engine self time.
TARGETS = (
    ("specfile.parse_spec", "qipsim.specfile", "parse_spec", None),
    ("zoo.make_bundle", "qipsim.zoo", "make_bundle", None),
    ("automata.complete_verifier", "qipsim.automata", "complete_verifier",
     _verifier_size),
    ("automata.validate_wellformed", "qipsim.automata",
     "validate_wellformed", None),
    ("automata.build_step_operator", "qipsim.automata",
     "build_step_operator", _nnz),
    ("automata.validate_public", "qipsim.automata", "validate_public", None),
    ("engine.run_protocol", "qipsim.engine", "run_protocol", _steps),
    ("engine.announcement_map", "qipsim.engine", "announcement_map", None),
    ("engine.best_schedule_acceptance", "qipsim.engine",
     "best_schedule_acceptance", _runs),
    ("engine.sweep_family", "qipsim.engine", "sweep_family", None),
    ("engine.run_mcomp", "qipsim.engine", "run_mcomp", None),
    ("provers.enumerate_schedules", "qipsim.provers", "enumerate_schedules",
     None),
    ("provers.check_classical", "qipsim.provers", "check_classical", None),
    ("provers.check_committed", "qipsim.provers", "check_committed", None),
    ("cli.main", "qipsim.cli", "main", None),
    ("cli.instantiate", "qipsim.cli", "instantiate", None),
)
GENERATORS = {"provers.enumerate_schedules"}

# Per-layer metrics in report order: (name, unit).
PER_LAYER = (
    ("specfile.parse_spec.calls", "count"),
    ("specfile.parse_spec.self_s", "s"),
    ("zoo.make_bundle.calls", "count"),
    ("zoo.make_bundle.self_s", "s"),
    ("zoo.builds_per_item", "builds/item"),
    ("automata.complete_verifier.calls", "count"),
    ("automata.complete_verifier.self_s", "s"),
    ("automata.states", "count"),
    ("automata.table_rows", "count"),
    ("automata.validate_wellformed.calls", "count"),
    ("automata.validate_wellformed.self_s", "s"),
    ("automata.build_step_operator.calls", "count"),
    ("automata.build_step_operator.self_s", "s"),
    ("automata.step_operator_nnz", "count"),
    ("automata.validate_public.self_s", "s"),
    ("engine.run_protocol.calls", "count"),
    ("engine.run_protocol.self_s", "s"),
    ("engine.run_protocol.steps", "count"),
    ("engine.us_per_step", "us"),
    ("engine.announcement_map.calls", "count"),
    ("engine.announcement_map.self_s", "s"),
    ("engine.best_schedule_acceptance.calls", "count"),
    ("engine.best_schedule_acceptance.self_s", "s"),
    ("engine.best_schedule_acceptance.runs", "count"),
    ("engine.sweep_family.self_s", "s"),
    ("engine.run_mcomp.calls", "count"),
    ("engine.run_mcomp.self_s", "s"),
    ("provers.enumerate_schedules.yielded", "count"),
    ("provers.enumerate_schedules.self_s", "s"),
    ("provers.check_classical.self_s", "s"),
    ("provers.check_committed.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.instantiate.calls", "count"),
    ("trace.overhead_frac", "frac"),
)


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.calls = [0] * len(TARGETS)
        self.counters = {k: 0 for k in
                         ("steps", "states", "table_rows", "nnz", "runs",
                          "yielded")}
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.op_id = -1
        self.enabled = False
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, ix):
        i = len(self.span_name)
        self.span_name.append(ix)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self.stack.append(i)
        self.span_start.append(perf_counter())
        return i

    def _close(self, i):
        self.span_end[i] = perf_counter()
        self.stack.pop()

    def _wrap(self, ix, fn, hook):
        tracer = self
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[ix] += 1
            i = tracer._open(ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if hook is not None:
                hook(counters, result)
            return result
        return traced

    def _wrap_generator(self, ix, fn):
        tracer = self

        def steps(it):
            # Time only what next() spends inside the generator.
            while True:
                i = tracer._open(ix)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(i)
                tracer.counters["yielded"] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[ix] += 1
            return steps(fn(*args, **kwargs))
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Replace every qipsim module binding of each target function."""
        for _, module, _, _ in TARGETS:
            importlib.import_module(module)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qipsim"
                                         or name.startswith("qipsim."))]
        for ix, (name, module, attr, hook) in enumerate(TARGETS):
            original = getattr(sys.modules[module], attr)
            if name in GENERATORS:
                wrapper = self._wrap_generator(ix, original)
            else:
                wrapper = self._wrap(ix, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))
        self.enabled = True

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []
        self.enabled = False

    # -- reporting ---------------------------------------------------------

    def self_times(self):
        """Self seconds per target name."""
        n = len(self.span_name)
        covered = [0.0] * n
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += duration[i]
        totals = [0.0] * len(self.names)
        for i in range(n):
            totals[self.span_name[i]] += duration[i] - covered[i]
        return dict(zip(self.names, totals))

    def metrics(self, items, overhead_frac):
        """Every PER_LAYER metric as {name: {"value", "unit"}}."""
        values = {}
        self_s = self.self_times()
        for ix, name in enumerate(self.names):
            values[name + ".calls"] = self.calls[ix]
            values[name + ".self_s"] = self_s[name]
        c = self.counters
        values["zoo.builds_per_item"] = (
            values["zoo.make_bundle.calls"] / items if items else 0.0)
        values["automata.states"] = c["states"]
        values["automata.table_rows"] = c["table_rows"]
        values["automata.step_operator_nnz"] = c["nnz"]
        values["engine.run_protocol.steps"] = c["steps"]
        values["engine.us_per_step"] = (
            1e6 * values["engine.run_protocol.self_s"] / c["steps"]
            if c["steps"] else 0.0)
        values["engine.best_schedule_acceptance.runs"] = c["runs"]
        values["provers.enumerate_schedules.yielded"] = c["yielded"]
        values["trace.overhead_frac"] = overhead_frac
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER}

    def dump(self, path):
        """Write every span as JSON: names plus one row per span."""
        rows = [
            [self.span_name[i], self.span_start[i], self.span_end[i],
             self.span_parent[i], self.span_op[i]]
            for i in range(len(self.span_name))
        ]
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names,
                       "columns": ["name", "start", "end", "parent", "op"],
                       "spans": rows}, handle)
