"""Bundled protocols: verifier tables, honest provers, adversary families.

Every bundle packages a complete verifier, the language it is meant to
decide, a constructor for the honest prover, declared claims, and (for
the interference-based two-way protocols) a parameterized adversary
family that realizes the worst case.
"""

import inspect
import math
from dataclasses import dataclass, field

from .automata import (
    BLANK, LEFT_END, RIGHT_END, OneRfaSpec, TwoNpfaSpec, complete_verifier,
    direction_symbol, first_option_chooser, run_1rfa,
    validate_1rfa_reversible, validate_2npfa_normalized,
)
from .errors import ValidationError
from .linalg import as_integer, make_qft
from .provers import HistoryResponder, IdentityProver, MessageSchedule


@dataclass
class ProtocolBundle:
    name: str
    verifier: object
    language: object            # callable str -> bool, or None
    honest_prover: object       # callable str -> Prover
    claims: dict = field(default_factory=dict)
    adversary_family: object = None   # callable str -> [Prover], or None
    check_inputs: tuple = ("", "0", "1", "01", "10", "110")


# -- final-symbol protocol ---------------------------------------------------

def zero_protocol():
    """Accepts strings ending in 0; the comm cell publicly tracks the state.

    The verifier walks right blindly; the prover proves the final symbol
    is next by erasing the comm cell one round before the end.  Erasing
    anywhere else (or not erasing) hits a rejecting row.
    """
    live = ("q0", "q1")
    acc = ("acc_q0", "acc_q1", "acc_blank")
    rej = ("rej_q0", "rej_q1", "rej_blank", "rejx_q0", "rejx_q1", "rejx_blank")
    comm = (BLANK, "q0", "q1") + acc + rej

    def e(state):
        return (1.0, state, state)   # echo rows write the target's id

    observed = {"q0": "q0", "q1": "q1", BLANK: "blank"}
    core = {LEFT_END: {}, "0": {}, "1": {}, RIGHT_END: {}}
    core[LEFT_END][("q0", BLANK)] = (e("q0"),)
    core[LEFT_END][("q0", "q0")] = (e("rej_q0"),)
    core[LEFT_END][("q0", "q1")] = (e("rej_q1"),)
    for g in (BLANK, "q0", "q1"):
        core[LEFT_END][("q1", g)] = (e("rejx_" + observed[g]),)
    for b in ("0", "1"):
        core[b][("q0", "q0")] = (e("q0"),)
        core[b][("q0", "q1")] = (e("rej_q1"),)
        for g in (BLANK, "q0", "q1"):
            core[b][("q1", g)] = (e("rejx_" + observed[g]),)
    core["0"][("q0", BLANK)] = ((1.0, "q1", "q1"),)
    core["1"][("q0", BLANK)] = (e("rej_blank"),)
    for g in (BLANK, "q0", "q1"):
        core[RIGHT_END][("q0", g)] = (e("rej_" + observed[g]),)
        core[RIGHT_END][("q1", g)] = (e("acc_" + observed[g]),)

    verifier = complete_verifier(
        name="zero", input_alphabet=("0", "1"), comm_alphabet=comm,
        non_halting=live, accepting=acc, rejecting=rej, initial="q0",
        two_way=False, core_rows=core, head_dir={},
        metadata={"notes": "public one-way protocol for strings ending in 0"},
    )

    def honest(x):
        if not x:
            return IdentityProver()
        return MessageSchedule({len(x): BLANK}, prover_id="erase-final")

    return ProtocolBundle(
        name="zero", verifier=verifier,
        language=lambda x: bool(x) and x[-1] == "0",
        honest_prover=honest,
        claims={
            "completeness": 1.0, "soundness_error": 0.0, "public": True,
            "classical_honest": True, "committed_honest": True,
            "interaction_bound": None, "one_way": True,
        },
    )


# -- odd-zeros suffix protocol ------------------------------------------------

def odd_zeros_protocol():
    """Accepts 0*1w where w has an odd number of zeros; one query only.

    The verifier silently scans leading zeros; at the first 1 it raises a
    mark in the comm cell (its single query) which the honest prover
    erases immediately; parity of the remaining zeros is tracked in
    state.  A mark left in the cell rejects at the next input symbol.
    """
    live = ("q0", "q1", "q2")
    acc = ("acc",)
    rej = ("rej_nosuffix", "rej_even", "rej_echo")
    comm = (BLANK, "a")
    core = {LEFT_END: {}, "0": {}, "1": {}, RIGHT_END: {}}
    core[LEFT_END][("q0", BLANK)] = ((1.0, "q0", BLANK),)
    core["0"][("q0", BLANK)] = ((1.0, "q0", BLANK),)
    core["0"][("q1", BLANK)] = ((1.0, "q2", BLANK),)
    core["0"][("q2", BLANK)] = ((1.0, "q1", BLANK),)
    core["1"][("q0", BLANK)] = ((1.0, "q1", "a"),)
    core["1"][("q1", BLANK)] = ((1.0, "q1", BLANK),)
    core["1"][("q2", BLANK)] = ((1.0, "q2", BLANK),)
    for b in ("0", "1"):
        core[b][("q1", "a")] = ((1.0, "rej_echo", BLANK),)
    core[RIGHT_END][("q0", BLANK)] = ((1.0, "rej_nosuffix", BLANK),)
    core[RIGHT_END][("q1", BLANK)] = ((1.0, "rej_even", BLANK),)
    core[RIGHT_END][("q2", BLANK)] = ((1.0, "acc", BLANK),)

    verifier = complete_verifier(
        name="odd", input_alphabet=("0", "1"), comm_alphabet=comm,
        non_halting=live, accepting=acc, rejecting=rej, initial="q0",
        two_way=False, core_rows=core, head_dir={},
        metadata={"notes": "single-query protocol; not public by design"},
    )

    def language(x):
        if "1" not in x:
            return False
        suffix = x[x.index("1") + 1:]
        return suffix.count("0") % 2 == 1

    def honest(x):
        return HistoryResponder(lambda t, g: BLANK, prover_id="erase-all")

    return ProtocolBundle(
        name="odd", verifier=verifier, language=language,
        honest_prover=honest,
        claims={
            "completeness": 1.0, "soundness_error": 0.0, "public": False,
            "classical_honest": True, "committed_honest": True,
            "interaction_bound": 1, "one_way": True,
        },
    )


# -- reversible-automaton embedding -------------------------------------------

def rfa_embedding(machine, name=None):
    """Wrap a reversible deterministic automaton as a public protocol.

    The verifier announces each state it enters; the honest prover does
    nothing.  Any tampering with the announcement drives the pair into a
    dedicated mismatch rejection, so every message schedule scores
    exactly what the bare automaton scores.
    """
    validate_1rfa_reversible(machine)
    live = machine.non_halting
    mismatch = {}
    rej = list(machine.rejecting)
    for p in live:
        for q in machine.states:
            if q != p:
                m = "mis~%s~%s" % (p, q)
                mismatch[(p, q)] = m
                rej.append(m)
    comm = (BLANK,) + tuple(machine.states) + tuple(
        mismatch[k] for k in sorted(mismatch)
    )
    core = {sym: {} for sym in machine.padded_alphabet}
    q2 = machine.delta[(machine.initial, LEFT_END)]
    core[LEFT_END][(machine.initial, BLANK)] = ((1.0, q2, q2),)
    for sym in machine.input_alphabet + (RIGHT_END,):
        for p in live:
            t = machine.delta[(p, sym)]
            core[sym][(p, p)] = ((1.0, t, t),)
            for q in machine.states:
                if q != p:
                    m = mismatch[(p, q)]
                    core[sym][(p, q)] = ((1.0, m, m),)

    verifier = complete_verifier(
        name=name or ("rfa~" + machine.name),
        input_alphabet=machine.input_alphabet, comm_alphabet=comm,
        non_halting=live, accepting=machine.accepting, rejecting=rej,
        initial=machine.initial, two_way=False, core_rows=core, head_dir={},
        metadata={"notes": "public state-announcing embedding of a "
                           "reversible automaton"},
    )
    return ProtocolBundle(
        name=name or ("rfa~" + machine.name), verifier=verifier,
        language=lambda x: run_1rfa(machine, x).accepted,
        honest_prover=lambda x: IdentityProver(),
        claims={
            "completeness": 1.0, "soundness_error": 0.0, "public": True,
            "classical_honest": True, "committed_honest": True,
            "interaction_bound": None, "one_way": True,
        },
    )


def parity_rfa():
    """Reversible automaton accepting strings with an even number of 1s."""
    delta = {}
    for q in ("even", "odd"):
        delta[(q, LEFT_END)] = q
        delta[(q, "0")] = q
    delta[("even", "1")] = "odd"
    delta[("odd", "1")] = "even"
    delta[("even", RIGHT_END)] = "acc"
    delta[("odd", RIGHT_END)] = "rej"
    return OneRfaSpec(
        name="parity", input_alphabet=("0", "1"),
        non_halting=("even", "odd"), accepting=("acc",), rejecting=("rej",),
        initial="even", delta=delta,
    )


def mod3_rfa():
    """Reversible automaton accepting strings whose 1-count is 0 mod 3."""
    delta = {}
    for i in range(3):
        q = "c%d" % i
        delta[(q, LEFT_END)] = q
        delta[(q, "0")] = q
        delta[(q, "1")] = "c%d" % ((i + 1) % 3)
    delta[("c0", RIGHT_END)] = "ok"
    delta[("c1", RIGHT_END)] = "bad1"
    delta[("c2", RIGHT_END)] = "bad2"
    return OneRfaSpec(
        name="mod3", input_alphabet=("0", "1"),
        non_halting=("c0", "c1", "c2"), accepting=("ok",),
        rejecting=("bad1", "bad2"), initial="c0", delta=delta,
    )


# -- coin/choice automaton embedding -------------------------------------------

QUERY_MARK = "?"


def _hat(state):
    return state + "^"


def npfa_embedding(machine, name=None, chooser=None):
    """Wrap a coin/choice automaton as a two-way interactive protocol.

    Coin states split into their two successors directly.  Choice states
    park in a marked companion state and post a query mark; the prover
    answers with one of the legal (state, direction) options and the
    verifier executes it, echoing the consumed answer.  Illegal answers
    and unexpected comm contents reject.  The honest prover plays a fixed
    chooser; because a single reply reaches every live branch, the
    chooser must be branch-uniform at each simulation step.
    """
    validate_2npfa_normalized(machine)
    if chooser is None:
        chooser = first_option_chooser(machine)
    live = machine.live_states + tuple(_hat(p) for p in machine.choice_states)
    head_dir = {}
    core = {sym: {} for sym in machine.padded_alphabet}
    for sym in machine.padded_alphabet:
        for p in machine.coin_states:
            a, b = machine.coin[(p, sym)]
            coin_sym = direction_symbol(p, 1)
            amp = 1.0 / math.sqrt(2.0)
            core[sym][(p, BLANK)] = ((amp, a, coin_sym), (amp, b, coin_sym))
            head_dir[(a, coin_sym)] = 1
            head_dir[(b, coin_sym)] = 1
        for p in machine.choice_states:
            hat = _hat(p)
            core[sym][(p, BLANK)] = ((1.0, hat, QUERY_MARK),)
            head_dir[(hat, QUERY_MARK)] = 0
            for q2, d in machine.choice[(p, sym)]:
                echo = direction_symbol(hat, d)
                core[sym][(hat, direction_symbol(q2, d))] = ((1.0, q2, echo),)
                head_dir[(q2, echo)] = d
    comm = [BLANK, QUERY_MARK]
    for targets in core.values():
        for row in targets.values():
            for _, _, g2 in row:
                if g2 not in comm:
                    comm.append(g2)
    for opts in machine.choice.values():
        for q2, d in opts:
            s = direction_symbol(q2, d)
            if s not in comm:
                comm.append(s)

    verifier = complete_verifier(
        name=name or ("npfa~" + machine.name),
        input_alphabet=machine.input_alphabet, comm_alphabet=comm,
        non_halting=live, accepting=machine.accepting,
        rejecting=machine.rejecting, initial=machine.initial, two_way=True,
        core_rows=core, head_dir=head_dir,
        metadata={
            "notes": "interactive embedding of a coin/choice automaton; "
                     "the prover supplies choice resolutions",
            "suggested_max_steps": {
                "per_cell": 16 * max(4, len(machine.states)), "base": 16,
            },
        },
    )

    def honest(x):
        answers = _witness_rounds(machine, x, chooser)
        def reply(t, g):
            if g == BLANK:
                return BLANK
            if g == QUERY_MARK and t in answers:
                return answers[t]
            return BLANK
        return HistoryResponder(reply, prover_id="witness")

    return ProtocolBundle(
        name=name or ("npfa~" + machine.name), verifier=verifier,
        language=None, honest_prover=honest,
        claims={
            "completeness": None, "soundness_error": None, "public": False,
            "classical_honest": True, "committed_honest": True,
            "interaction_bound": None, "one_way": False,
        },
    )


def _witness_rounds(machine, x, chooser):
    """Round-indexed prover answers replaying the chooser's path.

    Simulates the automaton keeping every live branch; each simulation
    step must be kind-uniform (all coins or all choices) and choice steps
    must agree on the option, because one reply reaches every branch.
    """
    from .automata import padded_input
    tape = padded_input(x, machine.input_alphabet)
    length = len(tape)
    live = {(machine.initial, 0)}
    answers = {}
    v_step = 0
    for t in range(1, 8 * length * max(4, len(machine.states)) + 1):
        live = {(q, k) for (q, k) in live if not machine.is_halting(q)}
        if not live:
            break
        kinds = {q in machine.coin_states for (q, k) in live}
        if len(kinds) != 1:
            raise ValidationError(
                "honest prover needs branch-uniform step kinds; supply an "
                "explicit round-keyed witness for machine %r" % machine.name
            )
        if kinds.pop():
            v_step += 1
            nxt = set()
            for (q, k) in live:
                a, b = machine.coin[(q, tape[k])]
                nxt.add((a, (k + 1) % length))
                nxt.add((b, (k + 1) % length))
            live = nxt
        else:
            opts = {
                chooser(t, q, k, tape[k]) for (q, k) in live
            }
            if len(opts) != 1:
                raise ValidationError(
                    "chooser is not branch-uniform at step %d; supply an "
                    "explicit round-keyed witness" % t
                )
            q2, d = opts.pop()
            v_step += 1
            answers[v_step] = direction_symbol(q2, d)
            v_step += 1
            live = {(q2, (k + d) % length) for (_, k) in live}
    return answers


def coin_npfa():
    """Purely probabilistic machine: one fair coin, then halt."""
    coin = {}
    for sym in (LEFT_END, "0", "1", RIGHT_END):
        coin[("flip", sym)] = ("yes", "no")
    return TwoNpfaSpec(
        name="coin", input_alphabet=("0", "1"), coin_states=("flip",),
        choice_states=(), accepting=("yes",), rejecting=("no",),
        initial="flip", coin=coin, choice={},
    )


def branch_npfa():
    """Two live states, purely nondeterministic: may switch lanes on a 0.

    With the lane-switching chooser the run accepts exactly the strings
    containing a 0.
    """
    choice = {
        ("u", LEFT_END): (("u", 1),),
        ("u", "0"): (("u", 1), ("v", 1)),
        ("u", "1"): (("u", 1),),
        ("u", RIGHT_END): (("lose", 1),),
        ("v", LEFT_END): (("v", 1),),
        ("v", "0"): (("v", 1),),
        ("v", "1"): (("v", 1),),
        ("v", RIGHT_END): (("win", 1),),
    }
    return TwoNpfaSpec(
        name="branch", input_alphabet=("0", "1"), coin_states=(),
        choice_states=("u", "v"), accepting=("win",), rejecting=("lose",),
        initial="u", coin={}, choice=choice,
    )


def last_option_chooser(machine):
    """Chooser preferring the last listed option (switches lanes eagerly)."""
    def choose(step, state, pos, symbol):
        return machine.choice[(state, symbol)][-1]
    return choose


def _branch_count(branches):
    n_b = as_integer(branches)
    if n_b is None or n_b < 2:
        raise ValidationError("need at least two interference branches, "
                              "given as an integer; got %r" % (branches,))
    return n_b


# -- centered-mark interference protocol ---------------------------------------

MARK = "1"


def center_protocol(branches=2):
    """Accepts odd-length strings whose middle symbol is 1.

    Phase 1 checks the length parity by walking to the right end and
    back.  Phase 2 walks right again waiting for the prover to raise a
    mark; consuming the mark on a 1-cell splits the run into `branches`
    timing branches.  Branch j then idles 2(N-j) extra steps per cell on
    the way to the right end and 2j extra steps per two cells on the way
    back, so all branches reach the left end together exactly when the
    mark sat in the middle; a final mixing step then accepts with
    certainty.  Off-center marks make the branch arrivals pairwise
    distinct and at most 1/N of the mass accepts.
    """
    n_b = _branch_count(branches)
    js = list(range(1, n_b + 1))
    root = 1.0 / math.sqrt(n_b)
    mix = make_qft(n_b)

    live = ["scan0", "scan1", "rewind", "seek"]
    for j in js:
        live += ["fw%d.%d" % (j, k) for k in range(0, n_b - j + 1)]
        live += ["fx%d.%d" % (j, k) for k in range(1, n_b - j + 1)]
        live += ["turn%d" % j, "fast%d" % j]
        live += ["c%d.%d" % (j, k) for k in range(0, 2 * j + 1)]
    acc = ("fin%d" % n_b,)
    rej = tuple("fin%d" % l for l in range(1, n_b))
    comm = (BLANK, MARK)

    head_dir = {
        ("scan0", BLANK): 1, ("scan1", BLANK): 1,
        ("rewind", BLANK): -1, ("seek", BLANK): 1,
    }
    core = {LEFT_END: {}, "0": {}, "1": {}, RIGHT_END: {}}
    core[LEFT_END][("scan0", BLANK)] = ((1.0, "scan0", BLANK),)
    core[LEFT_END][("rewind", BLANK)] = ((1.0, "seek", BLANK),)
    walk = {}
    walk[("scan0", BLANK)] = ((1.0, "scan1", BLANK),)
    walk[("scan1", BLANK)] = ((1.0, "scan0", BLANK),)
    walk[("rewind", BLANK)] = ((1.0, "rewind", BLANK),)
    walk[("seek", BLANK)] = ((1.0, "seek", BLANK),)
    for j in js:
        fw0 = "fw%d.0" % j
        head_dir[(fw0, MARK)] = 1
        head_dir[(fw0, BLANK)] = 1
        if j < n_b:
            top = "fw%d.%d" % (j, n_b - j)
            walk[(fw0, MARK)] = ((1.0, top, MARK),)
            for k in range(1, n_b - j + 1):
                fwk = "fw%d.%d" % (j, k)
                fxk = "fx%d.%d" % (j, k)
                walk[(fwk, MARK)] = ((1.0, fxk, MARK),)
                head_dir[(fxk, MARK)] = 0
                if k >= 2:
                    walk[(fxk, MARK)] = ((1.0, "fw%d.%d" % (j, k - 1), MARK),)
                    head_dir[("fw%d.%d" % (j, k - 1), MARK)] = 0
            walk[("fx%d.1" % j, MARK)] = ((1.0, fw0, MARK),)
            head_dir[(top, MARK)] = 0
        else:
            walk[(fw0, MARK)] = ((1.0, fw0, MARK),)
        fast = "fast%d" % j
        c0 = "c%d.0" % j
        walk[(fast, MARK)] = ((1.0, c0, MARK),)
        head_dir[(fast, MARK)] = -1
        head_dir[(c0, MARK)] = -1
        for k in range(0, 2 * j):
            walk[("c%d.%d" % (j, k), MARK)] = (
                (1.0, "c%d.%d" % (j, k + 1), MARK),)
            head_dir[("c%d.%d" % (j, k + 1), MARK)] = 0
        walk[("c%d.%d" % (j, 2 * j), MARK)] = ((1.0, fast, MARK),)
    for b in ("0", "1"):
        core[b].update(walk)
    core["1"][("seek", MARK)] = tuple(
        (root, "fw%d.0" % j, BLANK) for j in js
    )
    core[RIGHT_END][("scan1", BLANK)] = ((1.0, "rewind", BLANK),)
    for j in js:
        turn = "turn%d" % j
        core[RIGHT_END][("fw%d.0" % j, MARK)] = ((1.0, turn, MARK),)
        core[RIGHT_END][(turn, MARK)] = ((1.0, "fast%d" % j, MARK),)
        head_dir[(turn, MARK)] = 0
        core[LEFT_END][("c%d.0" % j, MARK)] = tuple(
            (complex(mix[l - 1, j - 1]), "fin%d" % l, BLANK)
            for l in range(1, n_b + 1)
        )
    for l in range(1, n_b + 1):
        head_dir[("fin%d" % l, BLANK)] = 0

    verifier = complete_verifier(
        name="center", input_alphabet=("0", "1"), comm_alphabet=comm,
        non_halting=live, accepting=acc, rejecting=rej, initial="scan0",
        two_way=True, core_rows=core, head_dir=head_dir,
        metadata={
            "notes": "timing-interference protocol; the walk tables were "
                     "normalized so every branch spends 2N-2j+1 steps per "
                     "cell rightward and 2j+2 steps per two cells leftward, "
                     "making centered-mark arrivals coincide exactly",
            "suggested_max_steps": {"per_cell": 3 * n_b + 8, "base": 16},
        },
    )

    def mark_schedule(x, e):
        base = 2 * len(x) + 2
        return MessageSchedule(
            {base + e: MARK, base + e + 1: MARK},
            prover_id="mark@%d" % e,
        )

    def honest(x):
        if not x:
            return IdentityProver()
        return mark_schedule(x, (len(x) + 1) // 2)

    def adversaries(x):
        family = [IdentityProver()]
        family += [mark_schedule(x, e) for e in range(1, len(x) + 1)]
        return family

    return ProtocolBundle(
        name="center", verifier=verifier,
        language=lambda x: len(x) % 2 == 1 and x[(len(x) - 1) // 2] == "1",
        honest_prover=honest,
        claims={
            "completeness": 1.0, "soundness_error": 1.0 / n_b,
            "public": False, "classical_honest": True,
            "committed_honest": False, "interaction_bound": None,
            "one_way": False,
        },
        adversary_family=adversaries,
    )


# -- equal-blocks interference protocol ----------------------------------------

def equal_blocks_protocol(branches=2):
    """Accepts 0^a 1^a; public two-way protocol with a trivial honest prover.

    A format pass walks right (rejecting mixed blocks outright, accepting
    the empty string at the right end, rejecting all-zero strings there),
    returns to the left end, and splits into timing branches.  Branch j
    idles N-j steps per 0-cell and j steps per 1-cell, so arrivals at the
    right end coincide exactly when the block lengths match; a mixing
    step there accepts with certainty, and mismatched blocks leave at
    most 1/N of the mass accepting.  Every row announces its target, so
    any comm tampering rejects immediately.
    """
    n_b = _branch_count(branches)
    js = list(range(1, n_b + 1))
    root = 1.0 / math.sqrt(n_b)
    mix = make_qft(n_b)

    live = ["z", "fz", "zeros", "ones", "back0", "back1a", "back1b", "g"]
    for j in js:
        live.append("m%d" % j)
        live += ["a%d.%d" % (j, k) for k in range(1, n_b - j + 1)]
        live += ["b%d.%d" % (j, k) for k in range(1, j + 1)]
    acc = ("fin%d" % n_b, "acc_empty")
    rej = tuple("fin%d" % l for l in range(1, n_b)) + (
        "rej_mixed", "rej_zeros")

    dirs = {"z": 1, "fz": 1, "zeros": 1, "ones": 1,
            "back0": -1, "back1a": -1, "back1b": -1, "g": -1,
            "acc_empty": 0, "rej_mixed": 0, "rej_zeros": 0}
    for j in js:
        dirs["m%d" % j] = 1
        for k in range(1, n_b - j + 1):
            dirs["a%d.%d" % (j, k)] = 0
        for k in range(1, j + 1):
            dirs["b%d.%d" % (j, k)] = 0
    for l in range(1, n_b + 1):
        dirs["fin%d" % l] = 0

    def pub(state):
        return direction_symbol(state, dirs[state])

    def e(state):
        return (1.0, state, pub(state))

    # The format scan announces every move, so each per-symbol table must
    # stay backward-injective on live states: block self-loops are entered
    # through a one-cell backward detour, putting the entry edge in the
    # left neighbor's table instead of the block symbol's own.
    core = {LEFT_END: {}, "0": {}, "1": {}, RIGHT_END: {}}
    core[LEFT_END][("z", BLANK)] = (e("fz"),)
    core[LEFT_END][("back0", pub("back0"))] = (e("zeros"),)
    core[LEFT_END][("back1a", pub("back1a"))] = (e("ones"),)
    core["0"][("fz", pub("fz"))] = (e("back0"),)
    core["0"][("zeros", pub("zeros"))] = (e("zeros"),)
    core["0"][("back1b", pub("back1b"))] = (e("ones"),)
    core["0"][("ones", pub("ones"))] = (e("rej_mixed"),)
    core["1"][("fz", pub("fz"))] = (e("back1a"),)
    core["1"][("zeros", pub("zeros"))] = (e("back1b"),)
    core["1"][("ones", pub("ones"))] = (e("ones"),)
    core[RIGHT_END][("fz", pub("fz"))] = (e("acc_empty"),)
    core[RIGHT_END][("zeros", pub("zeros"))] = (e("rej_zeros"),)
    core[RIGHT_END][("ones", pub("ones"))] = (e("g"),)
    for b in ("0", "1"):
        core[b][("g", pub("g"))] = (e("g"),)
    core[LEFT_END][("g", pub("g"))] = tuple(
        (root, "m%d" % j, pub("m%d" % j)) for j in js
    )
    for j in js:
        m = "m%d" % j
        if j < n_b:
            core["0"][(m, pub(m))] = (e("a%d.1" % j),)
            for k in range(1, n_b - j):
                core["0"][("a%d.%d" % (j, k), pub("a%d.%d" % (j, k)))] = (
                    e("a%d.%d" % (j, k + 1)),)
            core["0"][("a%d.%d" % (j, n_b - j),
                       pub("a%d.%d" % (j, n_b - j)))] = (e(m),)
        else:
            core["0"][(m, pub(m))] = (e(m),)
        core["1"][(m, pub(m))] = (e("b%d.1" % j),)
        for k in range(1, j):
            core["1"][("b%d.%d" % (j, k), pub("b%d.%d" % (j, k)))] = (
                e("b%d.%d" % (j, k + 1)),)
        core["1"][("b%d.%d" % (j, j), pub("b%d.%d" % (j, j)))] = (e(m),)
        core[RIGHT_END][(m, pub(m))] = tuple(
            (complex(mix[l - 1, j - 1]), "fin%d" % l, pub("fin%d" % l))
            for l in range(1, n_b + 1)
        )

    comm = [BLANK]
    for table in core.values():
        for row in table.values():
            for _, _, g2 in row:
                if g2 not in comm:
                    comm.append(g2)

    verifier = complete_verifier(
        name="equal_blocks", input_alphabet=("0", "1"), comm_alphabet=comm,
        non_halting=live, accepting=acc, rejecting=rej, initial="z",
        two_way=True, core_rows=core, head_dir=dirs,
        metadata={
            "notes": "public timing-interference protocol for equal 0/1 "
                     "blocks; empty input accepted at the right end, "
                     "all-zero inputs rejected there, so the comparison "
                     "walk has a single entry point",
            "suggested_max_steps": {"per_cell": n_b + 6, "base": 16},
        },
    )

    def adversaries(x):
        # Any deviation from the announced transcript lands in a guard
        # row and rejects, so the do-nothing prover dominates the family;
        # a sample of single-round deviations documents that.
        family = [IdentityProver()]
        for t in range(1, min(2 * len(x) + 6, 7)):
            for s in (BLANK, pub("g"), pub("ones")):
                family.append(MessageSchedule(
                    {t: s}, prover_id="poke@%d:%s" % (t, s)))
        return family

    def language(x):
        half = len(x) // 2
        return x == "0" * half + "1" * half

    return ProtocolBundle(
        name="equal_blocks", verifier=verifier, language=language,
        honest_prover=lambda x: IdentityProver(),
        claims={
            "completeness": 1.0, "soundness_error": 1.0 / n_b,
            "public": True, "classical_honest": True,
            "committed_honest": True, "interaction_bound": None,
            "one_way": False,
        },
        adversary_family=adversaries,
    )


# -- registry -----------------------------------------------------------------

def _make_rfa(preset=None, machine=None):
    if preset == "parity":
        return rfa_embedding(parity_rfa(), name="rfa_parity")
    if preset == "mod3":
        return rfa_embedding(mod3_rfa(), name="rfa_mod3")
    if isinstance(machine, dict):
        return rfa_embedding(_rfa_machine(machine))
    raise ValidationError(
        "rfa bundle needs preset 'parity'/'mod3' or an inline machine table"
    )


def _is_strings(value):
    return isinstance(value, (list, tuple)) and all(
        isinstance(v, str) for v in value)


# (key, what it must be, check) for the keys of an inline rfa machine.
_MACHINE_KEYS = (
    ("name", "a string", lambda v: isinstance(v, str)),
    ("input_alphabet", "a list of strings", _is_strings),
    ("non_halting", "a list of strings", _is_strings),
    ("accepting", "a list of strings", _is_strings),
    ("rejecting", "a list of strings", _is_strings),
    ("initial", "a string", lambda v: isinstance(v, str)),
    ("delta", "a list of [state, symbol, state] string triples",
     lambda v: isinstance(v, (list, tuple)) and all(
         _is_strings(e) and len(e) == 3 for e in v)),
)


def _rfa_machine(machine):
    """The OneRfaSpec an inline machine table describes.  Every key but
    name (default "custom") is required; a missing or ill-typed key
    raises ValidationError.
    """
    table = {"name": "custom", **machine}
    for key, what, ok in _MACHINE_KEYS:
        if key not in table:
            raise ValidationError("inline rfa machine has no %r" % key)
        if not ok(table[key]):
            raise ValidationError("inline rfa machine %r must be %s, got %r"
                                  % (key, what, table[key]))
    spec = {key: table[key] for key, _, _ in _MACHINE_KEYS}
    spec["delta"] = {(q, s): t for q, s, t in spec["delta"]}
    return OneRfaSpec(**spec)


def _make_npfa(preset=None):
    if preset == "coin":
        return npfa_embedding(coin_npfa(), name="npfa_coin")
    if preset == "branch":
        machine = branch_npfa()
        return npfa_embedding(machine, name="npfa_branch",
                              chooser=last_option_chooser(machine))
    raise ValidationError("npfa bundle needs preset 'coin' or 'branch'")


# Each factory's keyword parameters are the params its bundle reads.
BUNDLES = {
    "zero": zero_protocol,
    "odd": odd_zeros_protocol,
    "center": center_protocol,
    "equal_blocks": equal_blocks_protocol,
    "rfa": _make_rfa,
    "npfa": _make_npfa,
}


def make_bundle(name, params=None):
    """Instantiate a registered protocol bundle by name.

    Raises ValidationError for an unknown name and for a param the named
    bundle does not read.
    """
    if name not in BUNDLES:
        raise ValidationError(
            "unknown bundle %r; known: %s" % (name, ", ".join(sorted(BUNDLES)))
        )
    params = params or {}
    reads = list(inspect.signature(BUNDLES[name]).parameters)
    unread = sorted(set(params) - set(reads))
    if unread:
        raise ValidationError(
            "bundle %r does not read params %s; it reads %s"
            % (name, unread, reads or "none")
        )
    return BUNDLES[name](**params)
