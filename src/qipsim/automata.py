"""Finite-automaton verifier model, table completion, and validators.

A verifier is stored in unidirectional form: one transition table per
padded input symbol mapping (state, comm symbol) to a superposition of
(state', comm') targets, with head movement a function of the *target*
pair.  One-way verifiers move right on every transition; two-way ones
move -1/0/+1 on a circular tape.

Tables are assembled from three row classes:

- core rows: the authored protocol table (publicness is judged on these);
- guard rows: explicit rejections filling every (live state, comm symbol)
  hole, so unexpected comm contents halt immediately; each live state
  with a hole gets one guard rejecting state, and (q, g) -> (rej~q, g)
  keeps the comm symbol so the guard targets stay distinct.  A guard row
  is fixed by its source, so it is not stored: the verifier keeps the
  map from live state to guard state, and a move table looking up a
  missing row of a guarded live state returns its guard row;
- completion rows: a generic unitary completion on the remaining columns
  (halting-state sources), which the dynamics never reach because halting
  amplitude is measured out before the next step (measure-many
  semantics).

A verifier's tables (rows, row_class, head_dir, live_moves) hold the
rows it was given: the core rows, whose move-table lookups imply the
guard rows.  Runs, sweeps and checks read only these.  A bundle build
reads each core row twice: complete_verifier's one loop normalizes it,
resolves its head directions and counts the holes, and VerifierSpec's
one loop validates it and builds its live_moves row.  The guard and
completion rows are stored only in VerifierSpec.completed, a plain
verifier built on first read and kept; the step operator and the export
are its only readers.

Well-formedness is the unitarity of the step operator on (state, head,
comm).  Checks derive it from the per-symbol tables (validate_wellformed)
and build no step operator; build_step_operator is a plain loop over the
basis, kept as the reference those derivations are tested against; it
returns the (row, column, amplitude) triples that the per-symbol check
hands to linalg.isometry_defect.  The completion's orthonormal
complements come from a plain-Python Householder QR (_complement).
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import EngineError, ValidationError
from .linalg import as_integer, ensure_finite, isometry_defect

LEFT_END = "^"
RIGHT_END = "$"
BLANK = "#"


def padded_input(x, input_alphabet=None):
    """Return the circular tape for input string x: endmarkers included."""
    symbols = tuple(x)
    if input_alphabet is not None:
        bad = [s for s in symbols if s not in input_alphabet]
        if bad:
            raise EngineError(
                "input symbol %r is not in the verifier's alphabet %r"
                % (bad[0], tuple(input_alphabet))
            )
    return (LEFT_END,) + symbols + (RIGHT_END,)


CORE = "core"
GUARD = "guard"
COMPLETION = "completion"


class MoveTable(dict):
    """One padded symbol's moves: {(state, comm): ((amp, state', comm',
    direction), ...)}.

    guards maps live states to their guard states.  Looking up a missing
    row (q, g) of a guarded state q, with g in comm, returns its guard
    row ((1.0, guards[q], g, direction),); looking up any other missing
    row raises ValidationError.
    """

    def __init__(self, symbol, moves, guards, comm, direction):
        super().__init__(moves)
        self.symbol = symbol
        self.guards = guards or {}
        self.comm = frozenset(comm)
        self.direction = direction

    def __missing__(self, key):
        q, g = key
        guard = self.guards.get(q)
        if guard is None or g not in self.comm:
            raise ValidationError(
                "incomplete table: no row for (%r, %r) on %r"
                % (q, g, self.symbol)
            )
        return ((1.0, guard, g, self.direction),)


class VerifierSpec:
    """Unitary verifier description.

    rows: {symbol: {(state, comm): ((amp, state', comm'), ...)}}
    head_dir: {(state', comm'): direction}
    row_class: {symbol: {(state, comm): "core"|"guard"|"completion"}}; a
    row with no class is core.
    live_moves: {padded symbol: MoveTable}, the rows with each target's
    head direction attached, built in the one loop over the rows that
    validates them; an amplitude that is already a finite complex is not
    converted.
    accepting_set, rejecting_set, halting_set: frozensets of the halting
    states, which the engine's step kernel tests membership in.

    Those tables hold the rows the verifier was given, and live_rows()
    iterates them.  A completable verifier (complete_verifier's) is given
    its core rows and guards, {live state: guard state}: each missing row
    (q, g) of a guarded q is the guard row (q, g) -> (guards[q], g), with
    head direction 0 when two-way and +1 when one-way, and live_moves'
    lookups return it.  A plain VerifierSpec (guards None), built from
    explicit rows, is not completable: a missing row stays missing.
    Runs, sweeps, checks and the analyses below read only these tables:
    every row a run reads has a live source, since halting amplitude is
    measured out in the step that reaches it.

    completed is the completed verifier: a plain verifier itself, else a
    plain VerifierSpec holding the given rows, then the guard rows, then
    completion rows on every column those leave free.  Only the step
    operator and the export read it.

    Facts that no input changes are cached properties, computed on
    first read and kept: completed, per_symbol_defects, announcement
    and branching.  The tables are built once in __init__ and never
    mutated, and completion builds a new verifier beside them, so every
    kept fact stays valid.
    """

    def __init__(self, name, input_alphabet, comm_alphabet, non_halting,
                 accepting, rejecting, initial, two_way, rows, head_dir,
                 row_class=None, metadata=None, guards=None):
        self.name = str(name)
        self.input_alphabet = tuple(input_alphabet)
        self.comm_alphabet = tuple(comm_alphabet)
        self.non_halting = tuple(non_halting)
        self.accepting = tuple(accepting)
        self.rejecting = tuple(rejecting)
        self.initial = initial
        self.two_way = bool(two_way)
        self.guards = None if guards is None else dict(guards)
        self.rows = {
            sym: dict(table) for sym, table in rows.items()
        }
        self.head_dir = dict(head_dir)
        self.row_class = {
            sym: dict(table) for sym, table in (row_class or {}).items()
        }
        self.metadata = dict(metadata or {})
        self.live_moves = self._validated_moves()

    @cached_property
    def completed(self):
        """The completed verifier: self when plain, else a plain
        VerifierSpec of the given rows plus the guard rows the guards
        imply, then completion rows on every column those leave free,
        symbol by symbol."""
        if self.guards is None:
            return self
        padded = self.padded_alphabet
        rows = {sym: dict(self.rows.get(sym, {})) for sym in padded}
        row_class = {sym: dict(self.row_class.get(sym, {}))
                     for sym in padded}
        head_dir = dict(self.head_dir)
        guard_dir = 0 if self.two_way else 1
        for q, guard in self.guards.items():
            for g in self.comm_alphabet:
                for sym in padded:
                    if (q, g) not in rows[sym]:
                        rows[sym][q, g] = ((1.0, guard, g),)
                        row_class[sym][q, g] = GUARD
                        head_dir[guard, g] = guard_dir
        for sym in padded:
            _complete_symbol(rows[sym], row_class[sym], self.states,
                             self.comm_alphabet, head_dir, self.two_way)
        return VerifierSpec(
            name=self.name, input_alphabet=self.input_alphabet,
            comm_alphabet=self.comm_alphabet, non_halting=self.non_halting,
            accepting=self.accepting, rejecting=self.rejecting,
            initial=self.initial, two_way=self.two_way, rows=rows,
            head_dir=head_dir, row_class=row_class, metadata=self.metadata)

    # -- analyses of the live tables -------------------------------------

    @cached_property
    def per_symbol_defects(self):
        """{padded symbol: isometry defect of its live table}: one column
        per stored live row, in pair order, where the pair (q, g) has
        index (position of q in states) * |comm| + (position of g in
        comm_alphabet), looked up in two plain dicts.  A guard column is
        a unit vector on a target no other column reaches, so leaving the
        guard columns out changes no Gram entry the others form.  inf
        when a row is missing that neither a guard nor completion
        supplies: a source of an unguarded live state, or any source of
        a plain verifier."""
        defects = {}
        width = len(self.comm_alphabet)
        row_of = {q: i * width for i, q in enumerate(self.states)}
        comm_pos = {g: i for i, g in enumerate(self.comm_alphabet)}
        guards = self.guards
        unguarded = [(q, g) for q in self.non_halting
                     if q not in (guards or {}) for g in self.comm_alphabet]
        for sym, table in self.live_moves.items():
            if len(table) != len(row_of) * width and (
                    guards is None or any(p not in table for p in unguarded)):
                defects[sym] = float("inf")
                continue
            index = {key: row_of[key[0]] + comm_pos[key[1]] for key in table}
            keys = sorted(table, key=index.__getitem__)
            defects[sym] = isometry_defect(
                [(row_of[q2] + comm_pos[g2], j, amp)
                 for j, key in enumerate(keys)
                 for amp, q2, g2, _d in table[key]], len(keys))
        return defects

    @cached_property
    def announcement(self):
        """(announcement map, None) when the verifier is announced (see
        engine.announcement_map), else (None, why it is not)."""
        core = [(sym, key, targets)
                for sym, key, targets, cls in self.live_rows()
                if cls == CORE]
        sources = {}
        for _sym, (q, g), _targets in core:
            sources.setdefault(q, set()).add(g)
        announce = {}
        for q, symbols in sources.items():
            if len(symbols) != 1:
                return None, (
                    "state %r has authored rows under %d comm symbols %r; an "
                    "announced verifier uses exactly one per state"
                    % (q, len(symbols), sorted(symbols)))
            announce[q] = next(iter(symbols))
        for sym, (q, g), targets in core:
            for _amp, q2, g2 in targets:
                if not self.is_halting(q2) and announce.get(q2) != g2:
                    return None, (
                        "component (%r, %r) -> (%r, %r) on %r writes %r but "
                        "the target state announces %r"
                        % (q, g, q2, g2, sym, g2, announce.get(q2)))
        return announce, None

    @cached_property
    def branching(self):
        """Why a message-schedule sweep cannot certify an optimum: the
        first live row with more than one target, or None when the live
        rows are branch-free (the one-way schedule DP's premise)."""
        for sym, (q, g), targets, cls in self.live_rows():
            if cls != COMPLETION and len(targets) > 1:
                return (
                    "verifier %r branches at (%r, %r) on %r: a message-"
                    "schedule sweep cannot certify an optimum over all "
                    "provers; use the protocol's own adversary family"
                    % (self.name, q, g, sym))
        return None

    # -- structure -----------------------------------------------------

    @property
    def states(self):
        return self.non_halting + self.accepting + self.rejecting

    @property
    def padded_alphabet(self):
        return (LEFT_END,) + self.input_alphabet + (RIGHT_END,)

    def is_halting(self, state):
        return state in self.halting_set

    def is_accepting(self, state):
        return state in self.accepting_set

    def is_rejecting(self, state):
        return state in self.rejecting_set

    def live_rows(self):
        """Iterate (symbol, (state, comm), targets, class) over the rows
        the verifier was given, table by table in the order they were
        given; the guard rows its guards imply are not among them."""
        for sym, table in self.rows.items():
            classes = self.row_class.get(sym, {})
            for key, targets in table.items():
                yield sym, key, targets, classes.get(key, CORE)

    def _validated_moves(self):
        """Validate the declarations, then each row, building its
        live_moves row in the same pass; return live_moves."""
        seen = set()
        for group in (self.non_halting, self.accepting, self.rejecting):
            for q in group:
                if q in seen:
                    raise ValidationError("state %r declared twice" % (q,))
                seen.add(q)
        self.accepting_set = frozenset(self.accepting)
        self.rejecting_set = frozenset(self.rejecting)
        self.halting_set = self.accepting_set | self.rejecting_set
        if self.initial not in set(self.non_halting):
            raise ValidationError(
                "initial state %r is not a live state" % (self.initial,)
            )
        if BLANK not in self.comm_alphabet:
            raise ValidationError("comm alphabet must contain the blank %r" % BLANK)
        if len(set(self.comm_alphabet)) != len(self.comm_alphabet):
            raise ValidationError("duplicate comm symbols")
        for sym in self.input_alphabet:
            if not isinstance(sym, str) or len(sym) != 1:
                raise ValidationError(
                    "input symbol %r is not a single character" % (sym,))
        if len(set(self.input_alphabet)) != len(self.input_alphabet):
            raise ValidationError("duplicate input symbols")
        for sym in (LEFT_END, RIGHT_END):
            if sym in self.input_alphabet:
                raise ValidationError(
                    "input alphabet may not contain endmarker %r" % sym
                )
        comm_set = frozenset(self.comm_alphabet)
        head_dir, finite = self.head_dir, math.isfinite
        moves = {sym: MoveTable(sym, (), self.guards, comm_set,
                                0 if self.two_way else 1)
                 for sym in self.padded_alphabet}
        targeted = set()
        for sym, table in self.rows.items():
            if sym not in moves:
                raise ValidationError("transition table for unknown symbol %r" % sym)
            live = moves[sym]
            for (q, g), targets in table.items():
                if q not in seen or g not in comm_set:
                    raise ValidationError(
                        "transition source (%r, %r) references unknown ids" % (q, g)
                    )
                row = []
                for amp, q2, g2 in targets:
                    targeted.add(q2)
                    if not (type(amp) is complex and finite(amp.real)
                            and finite(amp.imag)):
                        ensure_finite(amp, "amplitude at (%r, %r, %r)"
                                      % (sym, q, g))
                    if q2 not in seen or g2 not in comm_set:
                        raise ValidationError(
                            "transition target (%r, %r) references unknown ids"
                            % (q2, g2)
                        )
                    if (q2, g2) not in head_dir:
                        raise ValidationError(
                            "no head direction for target (%r, %r)" % (q2, g2)
                        )
                    row.append((amp, q2, g2, head_dir[q2, g2]))
                live[q, g] = tuple(row)
        self._validate_guards(targeted)
        if "suggested_max_steps" in self.metadata:
            hint = self.metadata["suggested_max_steps"]
            if not _is_step_budget(hint):
                raise ValidationError(
                    "metadata suggested_max_steps must be an integer >= 1 or "
                    "{\"per_cell\": a, \"base\": b} with integers a, b >= 0, "
                    "not both 0; got %r" % (hint,)
                )
        for pair, d in self.head_dir.items():
            if self.two_way:
                if d not in (-1, 0, 1):
                    raise ValidationError(
                        "head direction %r out of range at %r" % (d, pair)
                    )
            elif d != 1:
                raise ValidationError(
                    "one-way verifier must move right; got %r at %r" % (d, pair)
                )
        return moves

    def _validate_guards(self, targeted):
        """Refuse a guard map whose keys are not live states, or whose
        values are not distinct declared rejecting states that no stored
        row targets: only then is each guard row's target its own."""
        guards = self.guards or {}
        live = set(self.non_halting)
        for q, guard in guards.items():
            if q not in live:
                raise ValidationError(
                    "guard key %r is not a live state" % (q,))
            if guard not in self.rejecting_set:
                raise ValidationError(
                    "guard state %r of %r is not a declared rejecting state"
                    % (guard, q))
            if guard in targeted:
                raise ValidationError(
                    "guard state %r of %r is the target of a stored row"
                    % (guard, q))
        if len(set(guards.values())) != len(guards):
            raise ValidationError("two live states share one guard state")


def _is_step_budget(hint):
    """Whether hint budgets at least one step on every input: an integer
    >= 1, or a linear form {"per_cell": a, "base": b} (an absent key is
    0) with integers a, b >= 0 that are not both 0.
    """
    if isinstance(hint, dict):
        if not hint or set(hint) - {"per_cell", "base"}:
            return False
        terms = [as_integer(v) for v in hint.values()]
        return all(n is not None and n >= 0 for n in terms) and sum(terms) >= 1
    n = as_integer(hint)
    return n is not None and n >= 1


def direction_symbol(state, direction):
    """The "state|direction" comm symbol that announces a two-way move."""
    return "%s|%+d" % (state, direction)


def public_symbol(verifier, state, comm_written=None):
    """The comm symbol a public verifier must write when entering `state`.

    One-way: the state id itself.  Two-way: direction_symbol of the state
    and the head movement of the (state, written) target pair.
    """
    if not verifier.two_way:
        return state
    d = verifier.head_dir.get((state, comm_written))
    if d is None:
        raise ValidationError(
            "no head direction recorded for (%r, %r)" % (state, comm_written)
        )
    return direction_symbol(state, d)


# -- table completion ----------------------------------------------------


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, a):
        p = self.parent.setdefault(a, a)
        while p != a:
            self.parent[a] = p = self.parent.setdefault(p, p)
            a = p
            p = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def target_dirs(row_targets, head_dir, two_way, resolved=None):
    """resolved (a new dict when None) with {(state, comm): direction} for
    every target of row_targets, rows read in order: its per-target entry
    in head_dir, else its state's per-state entry, else +1 when one-way;
    else ValidationError, for the first target that has none."""
    resolved = {} if resolved is None else resolved
    for targets in row_targets:
        for _, state, comm in targets:
            if (state, comm) in resolved:
                continue
            if (state, comm) in head_dir:
                resolved[state, comm] = head_dir[state, comm]
            elif state in head_dir:
                resolved[state, comm] = head_dir[state]
            elif two_way:
                raise ValidationError(
                    "no head direction given for target (%r, %r)"
                    % (state, comm))
            else:
                resolved[state, comm] = 1
    return resolved


def complete_verifier(name, input_alphabet, comm_alphabet, non_halting,
                      accepting, rejecting, initial, two_way, core_rows,
                      head_dir, metadata=None, tau=1e-9):
    """Assemble a completable VerifierSpec from authored core rows.

    head_dir may mix per-state entries (state -> direction) with
    per-target entries ((state, comm) -> direction); the latter win.
    One loop reads each core row once, symbol by symbol: it normalizes
    the row's amplitudes to finite complex numbers, resolves its
    targets' directions (so a row's fault is raised before a later
    row's) and counts the row against its source state.  A live state q
    with fewer rows than |comm| * |padded alphabet| has a hole and gets
    one fresh rejecting guard state rej~q (primed on a name clash),
    handed to the VerifierSpec as guards={q: rej~q}: it implies, and no
    table stores, the guard row (q, g) -> (rej~q, g).  Guard targets of
    one state differ in g and those of different states differ in
    state, so each per-symbol table stays injective on them.  The
    verifier's rows are the core rows, with no row_class (each reads as
    core); its completed verifier, built on first read, adds the guard
    rows and a generic unitary completion of the remaining
    (halting-source) columns (identity-preferring, then orthonormal
    complements of partially used target blocks).  The per-symbol check
    of the live columns is made before returning.
    """
    comm_alphabet = tuple(comm_alphabet)
    non_halting = tuple(non_halting)
    accepting = tuple(accepting)
    rejecting = list(rejecting)
    state_set = set(non_halting) | set(accepting) | set(rejecting)
    padded = (LEFT_END,) + tuple(input_alphabet) + (RIGHT_END,)
    for sym in core_rows:
        if sym not in padded:
            raise ValidationError(
                "transition table for unknown symbol %r" % (sym,))

    rows, resolved_dir = {}, {}
    counts = dict.fromkeys(non_halting, 0)
    for sym in padded:
        table = rows[sym] = {}
        for key, targets in core_rows.get(sym, {}).items():
            table[key] = tuple([(ensure_finite(amp), q2, g2)
                                for amp, q2, g2 in targets])
            target_dirs((table[key],), head_dir, two_way, resolved_dir)
            if key[0] in counts:
                counts[key[0]] += 1

    # one fresh rejecting guard state per live state with a hole (a table
    # that miscounts, say by an unknown comm symbol, the VerifierSpec refuses)
    guards = {}
    for q in non_halting:
        if counts[q] == len(comm_alphabet) * len(padded):
            continue
        fresh = "rej~%s" % (q,)
        while fresh in state_set:
            fresh += "'"
        state_set.add(fresh)
        rejecting.append(fresh)
        guards[q] = fresh

    meta = dict(metadata or {})
    meta.setdefault("guard_states", len(guards))
    spec = VerifierSpec(
        name=name, input_alphabet=input_alphabet, comm_alphabet=comm_alphabet,
        non_halting=non_halting, accepting=accepting, rejecting=rejecting,
        initial=initial, two_way=two_way, rows=rows, head_dir=resolved_dir,
        metadata=meta, guards=guards,
    )
    report = validate_wellformed(spec, tau=tau)
    if not report.ok:
        raise ValidationError(
            "table completion failed unitarity: %s" % report.summary()
        )
    return spec


def _complete_symbol(table, classes, all_states, comm_alphabet,
                     resolved_dir, two_way):
    """Fill the missing columns of one per-symbol table in place.

    A free source whose own pair is a free target maps to itself.  The
    other free sources take, in repr order, the orthonormal complements
    of the partially used target blocks (the columns _complement adds to
    each block's columns), then the unused targets as unit vectors.
    """
    all_pairs = [
        (q, g) for q in all_states for g in comm_alphabet
    ]
    used_targets = set()
    for targets in table.values():
        for _, q2, g2 in targets:
            used_targets.add((q2, g2))
    free_sources = [p for p in all_pairs if p not in table]
    free_targets = [p for p in all_pairs if p not in used_targets]

    # identity-preferring pass
    remaining_sources = []
    free_target_set = set(free_targets)
    for p in free_sources:
        if p in free_target_set:
            table[p] = ((1.0, p[0], p[1]),)
            classes[p] = COMPLETION
            free_target_set.discard(p)
            resolved_dir.setdefault(p, 0 if two_way else 1)
        else:
            remaining_sources.append(p)
    if not remaining_sources:
        return

    # group used targets into blocks connected through shared-support rows
    uf = _UnionFind()
    for targets in table.values():
        support = [(q2, g2) for _, q2, g2 in targets]
        for a, b in zip(support, support[1:]):
            uf.union(a, b)
        for a in support:
            uf.find(a)
    blocks = {}
    for targets in table.values():
        support = [(q2, g2) for _, q2, g2 in targets]
        root = uf.find(support[0])
        blocks.setdefault(root, {"targets": set(), "columns": []})
        blocks[root]["targets"].update(support)
        blocks[root]["columns"].append(targets)

    complement_vectors = []  # list of lists of (amp, q2, g2)
    for root in sorted(blocks, key=lambda p: repr(p)):
        block = blocks[root]
        tgt = sorted(block["targets"], key=lambda p: (repr(p[0]), repr(p[1])))
        ncols = len(block["columns"])
        if len(tgt) == ncols:
            continue
        t_index = {p: i for i, p in enumerate(tgt)}
        columns = []
        for targets in sorted(block["columns"], key=repr):
            column = [0j] * len(tgt)
            for amp, q2, g2 in targets:
                column[t_index[q2, g2]] += amp
            columns.append(column)
        for vec in _complement(columns, len(tgt)):
            complement_vectors.append([(z, q2, g2) for z, (q2, g2)
                                       in zip(vec, tgt) if abs(z) > 1e-14])

    # leftover completely-free targets become singleton complement vectors
    for p in sorted(free_target_set, key=lambda p: (repr(p[0]), repr(p[1]))):
        complement_vectors.append([(1.0 + 0j, p[0], p[1])])

    if len(remaining_sources) != len(complement_vectors):
        raise ValidationError(
            "completion bookkeeping mismatch: %d free sources vs %d free targets"
            % (len(remaining_sources), len(complement_vectors))
        )
    for p, vec in zip(sorted(remaining_sources, key=repr), complement_vectors):
        table[p] = tuple((amp, q2, g2) for amp, q2, g2 in vec)
        classes[p] = COMPLETION
        for _, q2, g2 in vec:
            resolved_dir.setdefault((q2, g2), 0 if two_way else 1)


def _complement(columns, m):
    """The trailing m - k columns of the complete QR factor Q of the m x k
    matrix with the given k columns (lists of m complex numbers): an
    orthonormal basis of the complement of their span when they are
    independent.  Q = H_1 ... H_k is the product of the Householder
    reflections H_i = I - tau_i u_i u_i^H, formed as LAPACK forms them
    (beta = -sign(Re alpha) * norm, u_i[i] = 1), the basis
    numpy.linalg.qr(mode="complete") returns.
    """
    a = [list(column) for column in columns]
    reflectors = []
    for i, x in enumerate(a):
        alpha, rest = x[i], x[i + 1:]
        if alpha.imag == 0 and not any(rest):
            continue  # H_i is the identity
        # |x[i:]| scaled by its largest part, as LAPACK's dlapy3 takes it
        parts = (abs(alpha.real), abs(alpha.imag),
                 math.hypot(*map(abs, rest)))
        w = max(parts)
        norm = w * math.sqrt(sum((p / w) ** 2 for p in parts))
        beta = -math.copysign(norm, alpha.real)
        tau = complex((beta - alpha.real) / beta, -alpha.imag / beta)
        scale = 1 / (alpha - beta)
        u = [1.0] + [scale * z for z in rest]
        reflectors.append((i, tau, u))
        for y in a[i + 1:]:
            _reflect(y, i, tau.conjugate(), u)
    basis = []
    for c in range(len(a), m):
        y = [0j] * m
        y[c] = 1.0 + 0j
        for i, tau, u in reversed(reflectors):
            _reflect(y, i, tau, u)
        basis.append(y)
    return basis


def _reflect(y, i, tau, u):
    """y[i:] := (I - tau u u^H) y[i:], in place."""
    s = tau * sum(a.conjugate() * b for a, b in zip(u, y[i:]))
    y[i:] = [b - a * s for a, b in zip(u, y[i:])]


# -- step operators and validators ----------------------------------------


def step_basis(verifier, x):
    """Ordered (state, head, comm) basis labels for one verifier step."""
    tape = padded_input(x, verifier.input_alphabet)
    return list(itertools.product(verifier.states, range(len(tape)),
                                  verifier.comm_alphabet))


def build_step_operator(verifier, x):
    """The verifier-step unitary on (state, head, comm) for input x.

    Returns (entries, basis): the basis in step_basis order, and the
    matrix as (row, column, amplitude) triples over that basis, the form
    linalg.isometry_defect reads.  One loop over the basis labels gives
    one column each, entering each row's targets in row order; a target
    listed twice stays two triples, which isometry_defect sums in that
    order.  Reads the completed verifier's moves, so a completable
    verifier is completed first.  Raises the move table's ValidationError
    at the first basis label whose row is missing.
    """
    moves = verifier.completed.live_moves
    tape = padded_input(x, verifier.input_alphabet)
    length = len(tape)
    basis = step_basis(verifier, x)
    index = {label: i for i, label in enumerate(basis)}
    entries = [(index[q2, (k + d) % length, g2], col, amp)
               for col, (q, k, g) in enumerate(basis)
               for amp, q2, g2, d in moves[tape[k]][q, g]]
    return entries, basis


@dataclass
class WellformedReport:
    ok: bool
    per_symbol: dict = field(default_factory=dict)
    per_input: dict = field(default_factory=dict)
    tau: float = 1e-9

    @property
    def worst(self):
        defects = list(self.per_symbol.values()) + list(self.per_input.values())
        return max(defects) if defects else 0.0

    def summary(self):
        state = "ok" if self.ok else "FAILED"
        return "wellformedness %s (worst defect %.3e, tolerance %.3e)" % (
            state, self.worst, self.tau
        )


def validate_wellformed(verifier, tau=1e-9, inputs=None):
    """Check per-symbol unitarity, and the step operator of each input.

    Per-symbol check: for each padded symbol, the columns of its live
    table (one per row) must be orthonormal.  Orthonormal columns always
    extend to a unitary table, and completion builds that extension on
    the columns no run reads, so the check needs no completion.  Each
    defect is linalg.isometry_defect's on the live columns; a symbol with
    a missing row that completion does not supply (a live source, or
    any source of a plain verifier) has defect inf.  The per-symbol
    defects do not depend on tau: they are the verifier's cached
    per_symbol_defects.

    `inputs` optionally lists strings whose step-operator defects are
    reported as well; they are derived, not built, and never exceed the
    worst per-symbol defect, so `qipsim check` lists none.  The tests
    hold each derived defect equal to isometry_defect of
    build_step_operator's entries.  Head
    movement is a function of the target pair, so the step operator is a
    permutation times a block diagonal of the per-symbol tables of the
    tape's cells.
    Its Gram matrix is therefore block diagonal with the per-symbol Gram
    matrices as blocks, and an input's defect is the largest per-symbol
    defect over the symbols on its tape (inf when one is inf).  ok is
    every defect <= tau.
    """
    per_symbol = dict(verifier.per_symbol_defects)
    per_input = {
        x: max(per_symbol[s] for s in padded_input(x, verifier.input_alphabet))
        for x in (inputs or ())
    }
    defects = list(per_symbol.values()) + list(per_input.values())
    ok = all(d <= tau for d in defects)
    return WellformedReport(ok=ok, per_symbol=per_symbol,
                            per_input=per_input, tau=tau)


@dataclass
class PublicReport:
    ok: bool
    violations: list = field(default_factory=list)

    def summary(self):
        if self.ok:
            return "public: every authored transition announces its target"
        return "not public: %d violating component(s); first: %r" % (
            len(self.violations), self.violations[0]
        )


def validate_public(verifier):
    """Check the public-behavior discipline on authored rows.

    Every nonzero component of a core row must write the target's public
    symbol (state id for one-way verifiers, state|direction for two-way),
    halting targets included.  Guard rows are exempt from the echo form
    but must target rejecting states.
    """
    violations = []
    for sym, (q, g), targets, cls in verifier.live_rows():
        if cls == CORE:
            for amp, q2, g2 in targets:
                if abs(amp) == 0.0:
                    continue
                expected = public_symbol(verifier, q2, g2)
                if g2 != expected:
                    violations.append((sym, (q, g), (q2, g2), expected))
        elif cls == GUARD:
            for _, q2, _ in targets:
                if not verifier.is_rejecting(q2):
                    violations.append(
                        (sym, (q, g), (q2, None), "rejecting target"))
    return PublicReport(ok=not violations, violations=violations)


# -- classical one-way automata (embedding sources) ------------------------


class OneRfaSpec:
    """Deterministic reversible one-way automaton.

    delta maps (state, padded symbol) -> state, total on live states, and
    must be backward-injective per symbol (distinct live sources map to
    distinct targets), which is what the unitary embedding needs.
    """

    def __init__(self, name, input_alphabet, non_halting, accepting,
                 rejecting, initial, delta):
        self.name = name
        self.input_alphabet = tuple(input_alphabet)
        self.non_halting = tuple(non_halting)
        self.accepting = tuple(accepting)
        self.rejecting = tuple(rejecting)
        self.initial = initial
        self.delta = dict(delta)

    @property
    def states(self):
        return self.non_halting + self.accepting + self.rejecting

    @property
    def padded_alphabet(self):
        return (LEFT_END,) + self.input_alphabet + (RIGHT_END,)

    def is_halting(self, q):
        return q in self.accepting or q in self.rejecting


def validate_1rfa_reversible(machine):
    """Check totality and per-symbol backward-injectivity; raise if broken."""
    states = set(machine.states)
    if machine.initial not in set(machine.non_halting):
        raise ValidationError("initial state must be live")
    for q in machine.non_halting:
        for sym in machine.padded_alphabet:
            if (q, sym) not in machine.delta:
                raise ValidationError(
                    "transition missing for (%r, %r)" % (q, sym)
                )
    for (q, sym), q2 in machine.delta.items():
        if q2 not in states:
            raise ValidationError("unknown target state %r" % (q2,))
    for sym in machine.padded_alphabet:
        seen = {}
        for q in machine.non_halting:
            q2 = machine.delta[(q, sym)]
            if q2 in seen:
                raise ValidationError(
                    "not reversible: %r and %r both reach %r on %r"
                    % (seen[q2], q, q2, sym)
                )
            seen[q2] = q
    return True


@dataclass
class RfaRun:
    accepted: bool
    halted: bool
    final_state: str
    steps: int


def run_1rfa(machine, x):
    """Run the deterministic automaton on ^x$; halting states stop the walk."""
    state = machine.initial
    steps = 0
    for sym in padded_input(x, machine.input_alphabet):
        state = machine.delta[(state, sym)]
        steps += 1
        if machine.is_halting(state):
            return RfaRun(
                accepted=state in machine.accepting, halted=True,
                final_state=state, steps=steps,
            )
    return RfaRun(accepted=False, halted=False, final_state=state, steps=steps)


# -- two-way probabilistic/nondeterministic automata ------------------------


class TwoNpfaSpec:
    """Normalized two-way automaton mixing coin states and choice states.

    Coin states branch to exactly two distinct successors with probability
    1/2 each, head moving right.  Choice states offer a list of (state,
    direction) options with direction in {-1, +1}; a chooser callable
    picks one per visit.  The head never stays put.
    """

    def __init__(self, name, input_alphabet, coin_states, choice_states,
                 accepting, rejecting, initial, coin, choice):
        self.name = name
        self.input_alphabet = tuple(input_alphabet)
        self.coin_states = tuple(coin_states)
        self.choice_states = tuple(choice_states)
        self.accepting = tuple(accepting)
        self.rejecting = tuple(rejecting)
        self.initial = initial
        self.coin = dict(coin)
        self.choice = {k: tuple(v) for k, v in choice.items()}

    @property
    def live_states(self):
        return self.coin_states + self.choice_states

    @property
    def states(self):
        return self.live_states + self.accepting + self.rejecting

    @property
    def padded_alphabet(self):
        return (LEFT_END,) + self.input_alphabet + (RIGHT_END,)

    def is_halting(self, q):
        return q in self.accepting or q in self.rejecting


def validate_2npfa_normalized(machine):
    """Check the normal form: totality, fair distinct coins, moving choices."""
    states = set(machine.states)
    live = set(machine.live_states)
    if machine.initial not in live:
        raise ValidationError("initial state must be live")
    if set(machine.coin_states) & set(machine.choice_states):
        raise ValidationError("coin and choice state sets overlap")
    for q in machine.coin_states:
        for sym in machine.padded_alphabet:
            if (q, sym) not in machine.coin:
                raise ValidationError("coin row missing for (%r, %r)" % (q, sym))
            a, b = machine.coin[(q, sym)]
            if a == b:
                raise ValidationError(
                    "coin at (%r, %r) must have two distinct successors" % (q, sym)
                )
            if a not in states or b not in states:
                raise ValidationError("unknown coin successor at (%r, %r)" % (q, sym))
    for q in machine.choice_states:
        for sym in machine.padded_alphabet:
            opts = machine.choice.get((q, sym))
            if not opts:
                raise ValidationError(
                    "choice row missing or empty for (%r, %r)" % (q, sym)
                )
            if len(set(opts)) != len(opts):
                raise ValidationError("duplicate choice at (%r, %r)" % (q, sym))
            for q2, d in opts:
                if q2 not in states:
                    raise ValidationError(
                        "unknown choice target at (%r, %r)" % (q, sym)
                    )
                if d not in (-1, 1):
                    raise ValidationError(
                        "choice direction must be -1 or +1 at (%r, %r)" % (q, sym)
                    )
    return True


@dataclass
class NpfaRun:
    p_acc: float
    p_rej: float
    residual: float
    steps: int


def first_option_chooser(machine):
    """Chooser that always takes the first listed option."""
    def choose(step, state, pos, symbol):
        return machine.choice[(state, symbol)][0]
    return choose


def run_2npfa(machine, x, chooser=None, max_steps=None):
    """Evolve the halting-probability distribution of the automaton on x.

    chooser(step, state, pos, symbol) resolves choice states; it must
    return one of the listed options.  Runs stop when no live mass
    remains or after max_steps (leftover mass is reported as residual,
    never renormalized).
    """
    tape = padded_input(x, machine.input_alphabet)
    length = len(tape)
    if max_steps is None:
        max_steps = 8 * length * max(4, len(machine.states))
    dist = {(machine.initial, 0): 1.0}
    p_acc = 0.0
    p_rej = 0.0
    steps = 0
    for t in range(1, max_steps + 1):
        if not dist:
            break
        steps = t
        nxt = {}

        def land(q2, pos2, pr):
            nonlocal p_acc, p_rej
            if q2 in machine.accepting:
                p_acc += pr
            elif q2 in machine.rejecting:
                p_rej += pr
            else:
                key = (q2, pos2 % length)
                nxt[key] = nxt.get(key, 0.0) + pr

        for (q, pos), pr in dist.items():
            sym = tape[pos]
            if q in machine.coin_states:
                a, b = machine.coin[(q, sym)]
                land(a, pos + 1, pr / 2.0)
                land(b, pos + 1, pr / 2.0)
            else:
                if chooser is None:
                    raise EngineError(
                        "choice state %r reached but no chooser supplied" % (q,)
                    )
                opt = chooser(t, q, pos, sym)
                if opt not in machine.choice[(q, sym)]:
                    raise EngineError(
                        "chooser returned %r, not an option at (%r, %r)"
                        % (opt, q, sym)
                    )
                q2, d = opt
                land(q2, pos + d, pr)
        dist = nxt
    residual = sum(dist.values())
    return NpfaRun(p_acc=p_acc, p_rej=p_rej, residual=residual, steps=steps)
