"""Hypothesis strategies shared by the property tests."""

import math

from hypothesis import strategies as st

from qipsim.automata import BLANK, LEFT_END, RIGHT_END

SYMBOLS = (LEFT_END, "0", "1", RIGHT_END)


@st.composite
def core_tables(draw, two_way=None, max_width=2, splits=(0.5,)):
    """Random authored tables whose rows are orthonormal partial columns.

    Each row sends one live (state, comm) source to up to max_width fresh
    targets, so completion always exists.  A two-target row puts a share
    of its mass drawn from splits on the second target.  two_way=None
    draws the head model; True or False fixes it.  Returns the keyword
    arguments of complete_verifier.
    """
    if two_way is None:
        two_way = draw(st.booleans())
    live = tuple("q%d" % i for i in range(draw(st.integers(1, 3))))
    rejecting = ("rej",) + (("rej~q0",) if draw(st.booleans()) else ())
    states = live + ("acc",) + rejecting
    comm = (BLANK,) + ("a", "b")[:draw(st.integers(0, 2))]
    sources = [(q, g) for q in live for g in comm]
    rows = {}
    for sym in SYMBOLS:
        picked = draw(st.lists(st.sampled_from(sources), unique=True))
        free = draw(st.permutations([(q, g) for q in states for g in comm]))
        table = {}
        for key in picked:
            width = min(draw(st.integers(1, max_width)), len(free))
            if width == 0:
                break
            phase = draw(st.sampled_from((1.0, -1.0, 1j)))
            if width == 1:
                shares = (1.0,)
            else:
                split = draw(st.sampled_from(splits))
                shares = (1.0 - split, split)
            table[key] = tuple(
                (phase * math.sqrt(share), q2, g2)
                for share, (q2, g2) in zip(shares, free[:width])
            )
            free = free[width:]
        rows[sym] = table
    if two_way:
        head_dir = {q: draw(st.sampled_from((-1, 0, 1))) for q in states}
    else:
        head_dir = {}
    return dict(
        name="random", input_alphabet=("0", "1"), comm_alphabet=comm,
        non_halting=live, accepting=("acc",), rejecting=rejecting,
        initial="q0", two_way=two_way, core_rows=rows, head_dir=head_dir,
    )


@st.composite
def announced_tables(draw):
    """Random authored two-way tables that are *announced*.

    Each of 1-3 live states announces one comm symbol (q0 the blank) and
    has its authored rows only under it.  Rows are orthonormal partial
    columns: per symbol, each target slot is used once.  A row's live
    targets are states that have authored rows, and they write their
    own announcement.  Returns the keyword arguments of complete_verifier.
    """
    live = tuple("q%d" % i for i in range(draw(st.integers(1, 3))))
    comm = (BLANK,) + ("a", "b")[:draw(st.integers(0, 2))]
    announce = {q: BLANK if q == "q0" else draw(st.sampled_from(comm))
                for q in live}
    sources = {sym: draw(st.lists(st.sampled_from(live), unique=True))
               for sym in SYMBOLS}
    authored = sorted({q for picked in sources.values() for q in picked})
    halting = [(q, g) for q in ("acc", "rej") for g in comm]
    rows = {}
    for sym, picked in sources.items():
        free = draw(st.permutations(
            [(q, announce[q]) for q in authored] + halting))
        table = {}
        for q in picked:
            width = min(draw(st.integers(1, 2)), len(free))
            if width == 0:
                break
            phase = draw(st.sampled_from((1.0, -1.0, 1j)))
            table[q, announce[q]] = tuple(
                (phase * math.sqrt(1.0 / width), q2, g2)
                for q2, g2 in free[:width]
            )
            free = free[width:]
        rows[sym] = table
    states = live + ("acc", "rej")
    return dict(
        name="announced", input_alphabet=("0", "1"), comm_alphabet=comm,
        non_halting=live, accepting=("acc",), rejecting=("rej",),
        initial="q0", two_way=True, core_rows=rows,
        head_dir={q: draw(st.sampled_from((-1, 0, 1))) for q in states},
    )
