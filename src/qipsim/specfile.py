"""Spec-file parsing and serialization (format tag "qip-spec-1").

Spec files are JSON documents of two kinds:

* kind ``"bundle"`` — names a bundled protocol plus constructor
  parameters; an optional ``"claims"`` object overrides individual
  declared claims (used e.g. to test that a wrong publicness claim is
  caught by ``check``).

* kind ``"verifier"`` — an explicit transition table: alphabets, state
  partition, per-symbol rows, head directions, an optional honest-prover
  description, claims, and fill flags controlling whether reject-guards
  and the generic unitary completion are synthesized for uncovered
  slots.

Amplitudes may be written as decimal pairs ``{"re": .., "im": ..}`` or
as exact constructor forms: ``{"fourier": {"n": N, "j": J, "l": L}}``
denotes the mixing-matrix entry exp(2*pi*i*J*L/N)/sqrt(N), computed
as ``fourier_entry`` computes it (the bits of ``make_qft``), and
``{"invsqrt": N}`` denotes 1/sqrt(N).  Constructor forms evaluate at
parse time, and the serializer always emits decimal pairs, so
parse -> serialize -> parse is the identity on the parsed document.
"""

import json
import math
from dataclasses import replace

from .automata import (
    CORE, COMPLETION, GUARD, LEFT_END, RIGHT_END, VerifierSpec,
    complete_verifier, resolve_dir,
)
from .errors import ParseError
from .linalg import as_integer, fourier_entry
from .provers import IdentityProver, MessageSchedule
from .zoo import BUNDLES, ProtocolBundle, make_bundle

FORMAT = "qip-spec-1"
SPEC_EXTENSION = ".spec"

_ROW_CLASSES = (CORE, GUARD, COMPLETION)


def _fail(where, message):
    raise ParseError("%s: %s" % (where, message))


# -- amplitudes --------------------------------------------------------------


def evaluate_amplitude(form, where="amplitude"):
    """Evaluate one amplitude document form to a complex number."""
    if isinstance(form, bool):
        _fail(where, "booleans are not amplitudes")
    if isinstance(form, (int, float)):
        return complex(float(form), 0.0)
    if not isinstance(form, dict):
        _fail(where, "expected a number or an object, got %r" % (form,))
    keys = set(form)
    if keys and keys <= {"re", "im"}:
        try:
            return complex(float(form.get("re", 0.0)),
                           float(form.get("im", 0.0)))
        except (TypeError, ValueError):
            _fail(where, "re/im must be numbers, got %r" % (form,))
    if keys == {"fourier"}:
        spec = form["fourier"]
        if isinstance(spec, dict):
            try:
                n, j, l = spec["n"], spec["j"], spec["l"]
            except KeyError as missing:
                _fail(where, "fourier form needs n, j, l (missing %s)" % missing)
        elif isinstance(spec, (list, tuple)) and len(spec) == 3:
            n, j, l = spec
        else:
            _fail(where, "fourier form needs {n, j, l} or [n, j, l]")
        orders = [as_integer(v) for v in (n, j, l)]
        if None in orders:
            _fail(where, "fourier form needs integers n, j, l, got %r"
                  % (spec,))
        n, j, l = orders
        if n <= 0:
            _fail(where, "fourier order must be positive, got %d" % n)
        return fourier_entry(n, j, l)
    if keys == {"invsqrt"}:
        spec = form["invsqrt"]
        if isinstance(spec, dict):
            spec = spec.get("n", spec.get("N"))
        n = as_integer(spec)
        if n is None:
            _fail(where, "invsqrt form needs an integer order, got %r"
                  % (spec,))
        if n <= 0:
            _fail(where, "invsqrt order must be positive, got %d" % n)
        return complex(1.0 / math.sqrt(n), 0.0)
    _fail(where, "unknown amplitude form with keys %s" % sorted(keys))


def amplitude_document(value):
    """Canonical document form of an amplitude: a decimal pair."""
    z = complex(value)
    return {"re": float(z.real), "im": float(z.imag)}


# -- loaded documents ---------------------------------------------------------


class LoadedSpec:
    """A parsed spec document plus a factory for fresh bundle instances.

    ``document`` is the normalized form (constructor amplitudes already
    evaluated to decimal pairs); two LoadedSpecs are equal iff their
    normalized documents are structurally equal.  ``make()`` builds a
    fresh ProtocolBundle each call so concurrent consumers own their
    state.
    """

    def __init__(self, document, source="<string>"):
        self.document = document
        self.source = source

    @property
    def kind(self):
        return self.document["kind"]

    @property
    def name(self):
        if self.kind == "bundle":
            return self.document["bundle"]
        return self.document["name"]

    def __eq__(self, other):
        if not isinstance(other, LoadedSpec):
            return NotImplemented
        return self.document == other.document

    def __repr__(self):
        return "LoadedSpec(kind=%r, name=%r, source=%r)" % (
            self.kind, self.name, self.source)

    def make(self):
        if self.kind == "bundle":
            return _make_from_bundle_document(self.document)
        return _make_from_verifier_document(self.document)


def parse_spec(text, source="<string>"):
    """Parse spec-file text into a LoadedSpec (raises ParseError)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            "%s: line %d column %d: %s"
            % (source, exc.lineno, exc.colno, exc.msg)
        ) from exc
    if not isinstance(raw, dict):
        _fail(source, "top level must be an object")
    fmt = raw.get("format")
    if fmt != FORMAT:
        _fail(source, "unsupported format %r (expected %r)" % (fmt, FORMAT))
    kind = raw.get("kind")
    if kind == "bundle":
        document = _normalize_bundle_document(raw, source)
    elif kind == "verifier":
        document = _normalize_verifier_document(raw, source)
    else:
        _fail(source, "unknown kind %r (expected 'bundle' or 'verifier')"
              % (kind,))
    return LoadedSpec(document, source=source)


def load_spec(path):
    """Read and parse a spec file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError("%s: %s" % (path, exc.strerror or exc)) from exc
    return parse_spec(text, source=str(path))


def serialize_spec(spec):
    """Canonical text for a LoadedSpec or bare document; round-trip stable."""
    document = spec.document if isinstance(spec, LoadedSpec) else spec
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


# -- bundle documents ---------------------------------------------------------


def _normalize_bundle_document(raw, source):
    name = raw.get("bundle")
    if name not in BUNDLES:
        _fail(source, "unknown bundle %r; known: %s"
              % (name, ", ".join(sorted(BUNDLES))))
    params = raw.get("params", {})
    if not isinstance(params, dict):
        _fail(source, "params must be an object")
    allowed = {"format", "kind", "bundle", "params", "claims"}
    extras = set(raw) - allowed
    if extras:
        _fail(source, "unknown top-level keys %s" % sorted(extras))
    document = {
        "format": FORMAT, "kind": "bundle", "bundle": name,
        "params": params,
    }
    if "claims" in raw:
        claims = raw["claims"]
        if not isinstance(claims, dict):
            _fail(source, "claims must be an object")
        document["claims"] = claims
    return document


def _make_from_bundle_document(document):
    bundle = make_bundle(document["bundle"], document.get("params") or {})
    overrides = document.get("claims")
    if overrides:
        bundle = replace(bundle, claims={**bundle.claims, **overrides})
    return bundle


def bundle_document(name, params=None, claims=None):
    """Normalized spec document referencing a bundled protocol."""
    raw = {"format": FORMAT, "kind": "bundle", "bundle": name,
           "params": params or {}}
    if claims:
        raw["claims"] = claims
    return _normalize_bundle_document(raw, "<bundle_document>")


# -- verifier documents -------------------------------------------------------

_VERIFIER_KEYS = {
    "format", "kind", "name", "two_way", "input_alphabet", "comm_alphabet",
    "states", "rows", "head_dir", "fill", "honest_prover", "claims",
    "metadata",
}


def _string_list(raw, where):
    if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
        _fail(where, "expected a list of strings")
    return list(raw)


def _normalize_verifier_document(raw, source):
    extras = set(raw) - _VERIFIER_KEYS
    if extras:
        _fail(source, "unknown top-level keys %s" % sorted(extras))
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        _fail(source, "verifier specs need a non-empty name")
    two_way = bool(raw.get("two_way", False))
    input_alphabet = _string_list(raw.get("input_alphabet"),
                                  source + ": input_alphabet")
    comm_alphabet = _string_list(raw.get("comm_alphabet"),
                                 source + ": comm_alphabet")

    states = raw.get("states")
    if not isinstance(states, dict):
        _fail(source, "states must be an object with live/accepting/"
              "rejecting/initial")
    state_extras = set(states) - {"live", "accepting", "rejecting", "initial"}
    if state_extras:
        _fail(source, "unknown states keys %s" % sorted(state_extras))
    live = _string_list(states.get("live"), source + ": states.live")
    accepting = _string_list(states.get("accepting", []),
                             source + ": states.accepting")
    rejecting = _string_list(states.get("rejecting", []),
                             source + ": states.rejecting")
    initial = states.get("initial")
    if not isinstance(initial, str):
        _fail(source, "states.initial must be a string")

    fill = raw.get("fill", {"guards": True, "completion": True})
    if not isinstance(fill, dict) or set(fill) - {"guards", "completion"}:
        _fail(source, "fill must be an object with guards/completion flags")
    guards = bool(fill.get("guards", True))
    completion = bool(fill.get("completion", True))
    if guards != completion:
        _fail(source, "fill.guards and fill.completion must match in this "
              "format version (synthesize both or author everything)")

    head_dir = raw.get("head_dir", {})
    if not isinstance(head_dir, dict):
        _fail(source, "head_dir must be an object")
    hd_extras = set(head_dir) - {"per_state", "per_target"}
    if hd_extras:
        _fail(source, "unknown head_dir keys %s" % sorted(hd_extras))
    per_state = head_dir.get("per_state", {})
    if not isinstance(per_state, dict):
        _fail(source, "head_dir.per_state must map state -> direction")
    per_state_norm = {}
    for state, d in per_state.items():
        per_state_norm[str(state)] = _direction(d, source, state)
    per_target_norm = []
    for entry in head_dir.get("per_target", []):
        if not (isinstance(entry, list) and len(entry) == 3):
            _fail(source, "head_dir.per_target entries are "
                  "[state, comm, direction] triples")
        state, comm, d = entry
        per_target_norm.append([str(state), str(comm),
                                _direction(d, source, (state, comm))])

    rows_raw = raw.get("rows")
    if not isinstance(rows_raw, dict):
        _fail(source, "rows must map tape symbols to row lists")
    padded = {LEFT_END, RIGHT_END} | set(input_alphabet)
    unknown_syms = set(rows_raw) - padded
    if unknown_syms:
        _fail(source, "rows for symbols outside the padded alphabet: %s"
              % sorted(unknown_syms))
    rows_norm = {}
    for sym in sorted(rows_raw):
        entries = rows_raw[sym]
        where_sym = "%s: rows[%r]" % (source, sym)
        if not isinstance(entries, list):
            _fail(where_sym, "expected a list of row objects")
        norm_entries = []
        seen_sources = set()
        for i, entry in enumerate(entries):
            where = "%s[%d]" % (where_sym, i)
            if not isinstance(entry, dict) or \
                    set(entry) - {"source", "targets", "class"}:
                _fail(where, "rows are objects with source/targets/class")
            src = entry.get("source")
            if not (isinstance(src, list) and len(src) == 2
                    and all(isinstance(s, str) for s in src)):
                _fail(where, "source must be a [state, comm] pair")
            key = (src[0], src[1])
            if key in seen_sources:
                _fail(where, "duplicate source %r" % (key,))
            seen_sources.add(key)
            cls = entry.get("class", CORE)
            if cls not in _ROW_CLASSES:
                _fail(where, "unknown row class %r" % (cls,))
            if cls != CORE and guards:
                _fail(where, "explicit %s rows require fill disabled" % cls)
            targets_raw = entry.get("targets")
            if not isinstance(targets_raw, list) or not targets_raw:
                _fail(where, "targets must be a non-empty list")
            targets = []
            for k, target in enumerate(targets_raw):
                where_t = "%s.targets[%d]" % (where, k)
                if not (isinstance(target, list) and len(target) == 3
                        and isinstance(target[1], str)
                        and isinstance(target[2], str)):
                    _fail(where_t, "targets are [amplitude, state, comm]")
                amp = evaluate_amplitude(target[0], where_t)
                targets.append([amplitude_document(amp),
                                target[1], target[2]])
            norm = {"source": list(key), "targets": targets}
            if cls != CORE:
                norm["class"] = cls
            norm_entries.append(norm)
        rows_norm[sym] = norm_entries

    honest = raw.get("honest_prover", {"type": "identity"})
    honest_norm = _normalize_honest(honest, source)

    document = {
        "format": FORMAT, "kind": "verifier", "name": name,
        "two_way": two_way,
        "input_alphabet": input_alphabet,
        "comm_alphabet": comm_alphabet,
        "states": {"live": live, "accepting": accepting,
                   "rejecting": rejecting, "initial": initial},
        "head_dir": {"per_state": per_state_norm,
                     "per_target": per_target_norm},
        "rows": rows_norm,
        "fill": {"guards": guards, "completion": completion},
        "honest_prover": honest_norm,
    }
    if "claims" in raw:
        if not isinstance(raw["claims"], dict):
            _fail(source, "claims must be an object")
        document["claims"] = raw["claims"]
    if "metadata" in raw:
        if not isinstance(raw["metadata"], dict):
            _fail(source, "metadata must be an object")
        document["metadata"] = raw["metadata"]
    return document


def _direction(d, source, where):
    if isinstance(d, bool) or not isinstance(d, int) or d not in (-1, 0, 1):
        _fail(source, "head direction at %r must be -1, 0, or 1, got %r"
              % (where, d))
    return d


def _normalize_honest(raw, source):
    if not isinstance(raw, dict):
        _fail(source, "honest_prover must be an object")
    kind = raw.get("type")
    if kind == "identity":
        if set(raw) - {"type"}:
            _fail(source, "identity prover takes no extra keys")
        return {"type": "identity"}
    if kind == "schedule":
        if set(raw) - {"type", "writes", "prover_id"}:
            _fail(source, "schedule prover takes writes and prover_id only")
        writes_raw = raw.get("writes", {})
        if not isinstance(writes_raw, dict):
            _fail(source, "schedule writes must map round -> symbol")
        writes = {}
        for key, value in writes_raw.items():
            try:
                t = int(key)
            except (TypeError, ValueError):
                _fail(source, "schedule round %r is not an integer" % (key,))
            if t < 1 or not isinstance(value, str):
                _fail(source, "schedule writes map rounds >= 1 to symbols")
            writes[str(t)] = value
        norm = {"type": "schedule", "writes": writes}
        if "prover_id" in raw:
            if not isinstance(raw["prover_id"], str):
                _fail(source, "prover_id must be a string")
            norm["prover_id"] = raw["prover_id"]
        return norm
    _fail(source, "unknown honest_prover type %r (identity or schedule)"
          % (kind,))


def _make_from_verifier_document(document):
    name = document["name"]
    two_way = document["two_way"]
    head_dir = dict(document["head_dir"]["per_state"])
    head_dir.update(
        ((state, comm), d)
        for state, comm, d in document["head_dir"]["per_target"]
    )

    rows = {}
    classes = {}
    for sym, entries in document["rows"].items():
        table = {}
        table_cls = {}
        for entry in entries:
            key = tuple(entry["source"])
            targets = tuple(
                (complex(amp["re"], amp["im"]), q2, g2)
                for amp, q2, g2 in entry["targets"]
            )
            table[key] = targets
            table_cls[key] = entry.get("class", CORE)
        rows[sym] = table
        classes[sym] = table_cls

    fill = document["fill"]["guards"]
    if fill:
        verifier = complete_verifier(
            name=name, input_alphabet=tuple(document["input_alphabet"]),
            comm_alphabet=tuple(document["comm_alphabet"]),
            non_halting=tuple(document["states"]["live"]),
            accepting=tuple(document["states"]["accepting"]),
            rejecting=tuple(document["states"]["rejecting"]),
            initial=document["states"]["initial"], two_way=two_way,
            core_rows=rows, head_dir=head_dir,
            metadata=document.get("metadata"),
        )
    else:
        resolved = {
            (q2, g2): resolve_dir(head_dir, q2, g2, two_way)
            for table in rows.values()
            for targets in table.values()
            for _, q2, g2 in targets
        }
        verifier = VerifierSpec(
            name=name, input_alphabet=tuple(document["input_alphabet"]),
            comm_alphabet=tuple(document["comm_alphabet"]),
            non_halting=tuple(document["states"]["live"]),
            accepting=tuple(document["states"]["accepting"]),
            rejecting=tuple(document["states"]["rejecting"]),
            initial=document["states"]["initial"], two_way=two_way,
            rows=rows, head_dir=resolved, row_class=classes,
            metadata=document.get("metadata"),
        )

    honest_doc = document["honest_prover"]
    if honest_doc["type"] == "identity":
        def honest(_x):
            return IdentityProver()
    else:
        writes = {int(t): s for t, s in honest_doc["writes"].items()}
        prover_id = honest_doc.get("prover_id")

        def honest(_x, _writes=writes, _pid=prover_id):
            if _pid is None:
                return MessageSchedule(_writes)
            return MessageSchedule(_writes, prover_id=_pid)

    return ProtocolBundle(
        name=name, verifier=verifier, language=None, honest_prover=honest,
        claims=dict(document.get("claims", {})),
    )


def verifier_document(verifier, honest_prover=None, claims=None):
    """Lossless explicit document for a completed VerifierSpec.

    Emits every row (guards and completion included) with fill disabled,
    so parsing rebuilds the identical table.
    """
    rows = {}
    for sym in verifier.padded_alphabet:
        entries = []
        table = verifier.rows.get(sym, {})
        for key in sorted(table):
            cls = verifier.class_of(sym, *key)
            entry = {
                "source": list(key),
                "targets": [
                    [amplitude_document(amp), q2, g2]
                    for amp, q2, g2 in table[key]
                ],
            }
            if cls != CORE:
                entry["class"] = cls
            entries.append(entry)
        rows[sym] = entries
    per_target = [
        [state, comm, int(d)]
        for (state, comm), d in sorted(verifier.head_dir.items())
    ]
    raw = {
        "format": FORMAT, "kind": "verifier", "name": verifier.name,
        "two_way": verifier.two_way,
        "input_alphabet": list(verifier.input_alphabet),
        "comm_alphabet": list(verifier.comm_alphabet),
        "states": {
            "live": list(verifier.non_halting),
            "accepting": list(verifier.accepting),
            "rejecting": list(verifier.rejecting),
            "initial": verifier.initial,
        },
        "head_dir": {"per_state": {}, "per_target": per_target},
        "rows": rows,
        "fill": {"guards": False, "completion": False},
        "honest_prover": honest_prover or {"type": "identity"},
    }
    if claims:
        raw["claims"] = claims
    if verifier.metadata:
        raw["metadata"] = _jsonable(verifier.metadata)
    return _normalize_verifier_document(raw, "<verifier_document>")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
