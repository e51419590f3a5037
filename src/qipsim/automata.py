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
  keeps the comm symbol so the guard targets stay distinct;
- completion rows: a generic unitary completion on the remaining columns
  (halting-state sources), which the dynamics never reach because halting
  amplitude is measured out before the next step.
"""

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse

from .errors import EngineError, ValidationError
from .linalg import check_unitary, ensure_finite

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
    direction), ...)}.  Looking up a missing row raises ValidationError.
    """

    def __init__(self, symbol, moves):
        super().__init__(moves)
        self.symbol = symbol

    def __missing__(self, key):
        raise ValidationError(
            "incomplete table: no row for (%r, %r) on %r"
            % (key[0], key[1], self.symbol)
        )


class CompiledMoves(NamedTuple):
    """One padded symbol's moves as read-only COO arrays over the pair
    index q_index * |comm| + g_index (states x comm_alphabet order): entry
    i sends source pair src[i] to target pair dst[i] with amplitude amp[i]
    and head direction dirs[i].  Entries follow the rows' order.
    """

    src: np.ndarray
    dst: np.ndarray
    dirs: np.ndarray
    amp: np.ndarray


def _compile_moves(table, pair_index):
    entries = [
        (pair_index[key], pair_index[q2, g2], d, amp)
        for key, targets in table.items()
        for amp, q2, g2, d in targets
    ]
    columns = zip(*entries) if entries else ((), (), (), ())
    arrays = [np.array(col, dtype=dtype) for col, dtype
              in zip(columns, (np.int64, np.int64, np.int64, complex))]
    for a in arrays:
        a.setflags(write=False)
    return CompiledMoves(*arrays)


class VerifierSpec:
    """Complete unitary verifier description.

    rows: {symbol: {(state, comm): ((amp, state', comm'), ...)}}
    head_dir: {(state', comm'): direction}
    row_class: {symbol: {(state, comm): "core"|"guard"|"completion"}}
    moves: {padded symbol: MoveTable}, the rows with each target's head
    direction attached; every verifier step reads these.
    compiled: {padded symbol: CompiledMoves}, the move tables as index
    arrays; the step operator and the per-symbol unitarity check read
    these.
    analyses: input-independent results computed once per verifier: the
    engine's announcement map and schedule adequacy, and
    validate_wellformed's per-symbol unitarity defects.  The tables, the
    move tables and their compiled arrays included, are built once in
    __init__ and never mutated afterwards, so all of these stay valid.
    """

    def __init__(self, name, input_alphabet, comm_alphabet, non_halting,
                 accepting, rejecting, initial, two_way, rows, head_dir,
                 row_class=None, metadata=None):
        self.name = str(name)
        self.input_alphabet = tuple(input_alphabet)
        self.comm_alphabet = tuple(comm_alphabet)
        self.non_halting = tuple(non_halting)
        self.accepting = tuple(accepting)
        self.rejecting = tuple(rejecting)
        self.initial = initial
        self.two_way = bool(two_way)
        self.rows = {
            sym: dict(table) for sym, table in rows.items()
        }
        self.head_dir = dict(head_dir)
        self.row_class = {
            sym: dict(table) for sym, table in (row_class or {}).items()
        }
        self.metadata = dict(metadata or {})
        self.analyses = {}
        self._validate_structure()
        self.moves = {
            sym: MoveTable(sym, {
                key: tuple([(amp, q2, g2, self.head_dir[q2, g2])
                            for amp, q2, g2 in targets])
                for key, targets in self.rows.get(sym, {}).items()
            })
            for sym in self.padded_alphabet
        }
        pair_index = {
            pair: i for i, pair in enumerate(
                (q, g) for q in self.states for g in self.comm_alphabet)
        }
        self.compiled = {
            sym: _compile_moves(table, pair_index)
            for sym, table in self.moves.items()
        }

    # -- structure -----------------------------------------------------

    @property
    def states(self):
        return self.non_halting + self.accepting + self.rejecting

    @property
    def padded_alphabet(self):
        return (LEFT_END,) + self.input_alphabet + (RIGHT_END,)

    def is_halting(self, state):
        return state in self._halting_set

    def is_accepting(self, state):
        return state in self._accepting_set

    def is_rejecting(self, state):
        return state in self._rejecting_set

    def row(self, symbol, state, comm):
        table = self.rows.get(symbol)
        if table is None:
            return None
        return table.get((state, comm))

    def class_of(self, symbol, state, comm):
        return self.row_class.get(symbol, {}).get((state, comm), CORE)

    def core_rows(self):
        """Iterate (symbol, (state, comm), targets) over authored rows."""
        for sym in sorted(self.rows):
            for key in sorted(self.rows[sym]):
                if self.class_of(sym, *key) == CORE:
                    yield sym, key, self.rows[sym][key]

    def _validate_structure(self):
        seen = set()
        for group in (self.non_halting, self.accepting, self.rejecting):
            for q in group:
                if q in seen:
                    raise ValidationError("state %r declared twice" % (q,))
                seen.add(q)
        self._halting_set = set(self.accepting) | set(self.rejecting)
        self._accepting_set = set(self.accepting)
        self._rejecting_set = set(self.rejecting)
        if self.initial not in set(self.non_halting):
            raise ValidationError(
                "initial state %r is not a live state" % (self.initial,)
            )
        if BLANK not in self.comm_alphabet:
            raise ValidationError("comm alphabet must contain the blank %r" % BLANK)
        if len(set(self.comm_alphabet)) != len(self.comm_alphabet):
            raise ValidationError("duplicate comm symbols")
        for sym in (LEFT_END, RIGHT_END):
            if sym in self.input_alphabet:
                raise ValidationError(
                    "input alphabet may not contain endmarker %r" % sym
                )
        comm_set = set(self.comm_alphabet)
        padded = set(self.padded_alphabet)
        for sym, table in self.rows.items():
            if sym not in padded:
                raise ValidationError("transition table for unknown symbol %r" % sym)
            for (q, g), targets in table.items():
                if q not in seen or g not in comm_set:
                    raise ValidationError(
                        "transition source (%r, %r) references unknown ids" % (q, g)
                    )
                for amp, q2, g2 in targets:
                    ensure_finite(amp, "amplitude at (%r, %r, %r)" % (sym, q, g))
                    if q2 not in seen or g2 not in comm_set:
                        raise ValidationError(
                            "transition target (%r, %r) references unknown ids"
                            % (q2, g2)
                        )
                    if (q2, g2) not in self.head_dir:
                        raise ValidationError(
                            "no head direction for target (%r, %r)" % (q2, g2)
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


def resolve_dir(head_dir, state, comm, two_way):
    """Direction of target (state, comm): its per-target entry, else its
    per-state entry, else +1 when one-way; else ValidationError."""
    if (state, comm) in head_dir:
        return head_dir[(state, comm)]
    if state in head_dir:
        return head_dir[state]
    if not two_way:
        return 1
    raise ValidationError(
        "no head direction given for target (%r, %r)" % (state, comm))


def complete_verifier(name, input_alphabet, comm_alphabet, non_halting,
                      accepting, rejecting, initial, two_way, core_rows,
                      head_dir, metadata=None, tau=1e-9):
    """Assemble a full VerifierSpec from authored core rows.

    head_dir may mix per-state entries (state -> direction) with
    per-target entries ((state, comm) -> direction); the latter win.
    Guard rows are added for every uncovered (live state, comm) pair:
    (q, g) -> (rej~q, g), one fresh rejecting state per live state with
    a hole (primed on a name clash).  Guard targets of one state differ
    in g and those of different states differ in state, so each
    per-symbol table stays injective on them.  The remaining columns get
    a generic unitary completion (identity-preferring, then orthonormal
    complements of partially used target blocks).  Per-symbol unitarity
    is verified before returning.
    """
    comm_alphabet = tuple(comm_alphabet)
    non_halting = tuple(non_halting)
    accepting = tuple(accepting)
    rejecting = list(rejecting)
    all_states = list(non_halting) + list(accepting) + list(rejecting)
    state_set = set(all_states)
    padded = (LEFT_END,) + tuple(input_alphabet) + (RIGHT_END,)

    rows = {sym: dict(core_rows.get(sym, {})) for sym in padded}
    row_class = {sym: {key: CORE for key in rows[sym]} for sym in padded}
    resolved_dir = {}

    def dir_for(state, comm):
        key = (state, comm)
        if key not in resolved_dir:
            resolved_dir[key] = resolve_dir(head_dir, state, comm, two_way)
        return resolved_dir[key]

    # normalize core targets and resolve their directions
    for sym in padded:
        for key, targets in list(rows[sym].items()):
            norm = tuple(
                (ensure_finite(amp), q2, g2) for amp, q2, g2 in targets
            )
            rows[sym][key] = norm
            for _, q2, g2 in norm:
                dir_for(q2, g2)

    # guard rows: one fresh rejecting state per live state with a hole
    guard_dir = 0 if two_way else 1
    guard_states = []
    for q in non_halting:
        holes = [g for g in comm_alphabet
                 if not all((q, g) in rows[sym] for sym in padded)]
        if not holes:
            continue
        fresh = "rej~%s" % (q,)
        while fresh in state_set:
            fresh += "'"
        state_set.add(fresh)
        rejecting.append(fresh)
        guard_states.append(fresh)
        for g in holes:
            resolved_dir[(fresh, g)] = guard_dir
            for sym in padded:
                if (q, g) not in rows[sym]:
                    rows[sym][(q, g)] = ((1.0, fresh, g),)
                    row_class[sym][(q, g)] = GUARD

    all_states = list(non_halting) + list(accepting) + list(rejecting)

    # completion: fill halting-source columns per symbol
    for sym in padded:
        _complete_symbol(rows[sym], row_class[sym], all_states,
                         comm_alphabet, resolved_dir, two_way)

    meta = dict(metadata or {})
    meta.setdefault("guard_states", len(guard_states))
    spec = VerifierSpec(
        name=name, input_alphabet=input_alphabet, comm_alphabet=comm_alphabet,
        non_halting=non_halting, accepting=accepting, rejecting=rejecting,
        initial=initial, two_way=two_way, rows=rows, head_dir=resolved_dir,
        row_class=row_class, metadata=meta,
    )
    report = validate_wellformed(spec, tau=tau)
    if not report.ok:
        raise ValidationError(
            "table completion failed unitarity: %s" % report.summary()
        )
    return spec


def _complete_symbol(table, classes, all_states, comm_alphabet,
                     resolved_dir, two_way):
    """Fill the missing columns of one per-symbol table."""
    all_pairs = [
        (q, g) for q in all_states for g in comm_alphabet
    ]
    pair_index = {p: i for i, p in enumerate(all_pairs)}
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
        mat = np.zeros((len(tgt), ncols), dtype=complex)
        t_index = {p: i for i, p in enumerate(tgt)}
        for c, targets in enumerate(sorted(block["columns"], key=repr)):
            for amp, q2, g2 in targets:
                mat[t_index[(q2, g2)], c] += amp
        q_full, _ = np.linalg.qr(mat, mode="complete")
        for c in range(ncols, len(tgt)):
            vec = [
                (complex(q_full[i, c]), tgt[i][0], tgt[i][1])
                for i in range(len(tgt))
                if abs(q_full[i, c]) > 1e-14
            ]
            complement_vectors.append(vec)

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


# -- step operators and validators ----------------------------------------


def step_basis(verifier, x):
    """Ordered (state, head, comm) basis labels for one verifier step."""
    tape = padded_input(x, verifier.input_alphabet)
    return list(itertools.product(verifier.states, range(len(tape)),
                                  verifier.comm_alphabet))


def build_step_operator(verifier, x):
    """The verifier-step unitary on (state, head, comm) for input x.

    Returns (matrix, basis) with the matrix in CSR form.  Each symbol's
    compiled arrays are tiled over the tape positions that carry it.
    Raises the move table's ValidationError when the tape scans a symbol
    with a missing row.
    """
    tape = padded_input(x, verifier.input_alphabet)
    return _step_matrix(verifier, tape), step_basis(verifier, x)


def _step_matrix(verifier, tape):
    """build_step_operator's matrix for a padded tape, without the basis."""
    length = len(tape)
    width = len(verifier.comm_alphabet)
    n_pairs = len(verifier.states) * width
    if any(len(verifier.moves[s]) != n_pairs for s in tape):
        # raises at the first missing row in basis order
        for q, k, g in itertools.product(verifier.states, range(length),
                                         verifier.comm_alphabet):
            verifier.moves[tape[k]][q, g]
    cols, rows_ix, data = [], [], []
    for sym in dict.fromkeys(tape):
        c = verifier.compiled[sym]
        ks = np.array([k for k, s in enumerate(tape) if s == sym])[:, None]
        sq, sg = np.divmod(c.src, width)
        dq, dg = np.divmod(c.dst, width)
        cols.append(((sq * length + ks) * width + sg).ravel())
        rows_ix.append(((dq * length + (ks + c.dirs) % length) * width
                        + dg).ravel())
        data.append(np.tile(c.amp, len(ks)))
    # entries reach scipy in basis-loop order (by column, each row's
    # targets in row order), so a target a row lists twice is summed in
    # the same order, bit for bit, as by a loop over the basis
    col = np.concatenate(cols)
    order = np.argsort(col, kind="stable")
    size = n_pairs * length
    return scipy.sparse.csr_matrix(
        (np.concatenate(data)[order],
         (np.concatenate(rows_ix)[order], col[order])),
        shape=(size, size), dtype=complex,
    )


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
    """Check per-symbol unitarity (and optionally whole-step operators).

    Per-symbol check: for each padded symbol, the (state, comm) table must
    be unitary; this implies every whole-step operator is unitary for the
    head arithmetic used here.  `inputs` optionally lists strings whose
    step operators are checked exhaustively as well.  Each defect is
    linalg.check_unitary's on the sparse matrix; a symbol with a missing
    row has defect inf, and so has every input whose tape scans it (its
    step operator is not built).  The per-symbol defects do not depend on
    tau and are computed once per verifier.  ok is every defect <= tau.
    """
    per_symbol = dict(_per_symbol_defects(verifier))
    per_input = {}
    for x in (inputs or ()):
        tape = padded_input(x, verifier.input_alphabet)
        if any(per_symbol[s] == float("inf") for s in tape):
            per_input[x] = float("inf")
            continue
        _, per_input[x] = check_unitary(_step_matrix(verifier, tape))
    defects = list(per_symbol.values()) + list(per_input.values())
    ok = all(d <= tau for d in defects)
    return WellformedReport(ok=ok, per_symbol=per_symbol,
                            per_input=per_input, tau=tau)


def _per_symbol_defects(verifier):
    """{padded symbol: unitarity defect of its table}, kept in
    verifier.analyses after the first call."""
    defects = verifier.analyses.get("per_symbol_defects")
    if defects is not None:
        return defects
    defects = {}
    n_pairs = len(verifier.states) * len(verifier.comm_alphabet)
    for sym, c in verifier.compiled.items():
        if len(verifier.moves[sym]) != n_pairs:
            defects[sym] = float("inf")
            continue
        mat = scipy.sparse.csr_matrix(
            (c.amp, (c.dst, c.src)), shape=(n_pairs, n_pairs), dtype=complex)
        _, defects[sym] = check_unitary(mat)
    verifier.analyses["per_symbol_defects"] = defects
    return defects


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
    for sym, table in verifier.rows.items():
        for (q, g), targets in table.items():
            cls = verifier.class_of(sym, q, g)
            if cls == CORE:
                for amp, q2, g2 in targets:
                    if abs(amp) == 0.0:
                        continue
                    expected = public_symbol(verifier, q2, g2)
                    if g2 != expected:
                        violations.append(
                            (sym, (q, g), (q2, g2), expected)
                        )
            elif cls == GUARD:
                for _, q2, _ in targets:
                    if not verifier.is_rejecting(q2):
                        violations.append(
                            (sym, (q, g), (q2, None), "rejecting target")
                        )
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
