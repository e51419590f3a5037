"""Unit tests for the linear-algebra helpers."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qipsim.errors import LinalgError
from qipsim.linalg import (
    SparseVector,
    check_isometry,
    check_unitary,
    ensure_finite,
    isometry_defect,
    make_qft,
)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_make_qft_is_unitary(n):
    ok, defect = check_unitary(make_qft(n))
    assert ok
    assert defect <= 1e-12


def test_make_qft_dimension_two_layout():
    u = make_qft(2)
    s = 1.0 / math.sqrt(2.0)
    expected = np.array([[-s, s], [s, s]])
    assert np.allclose(u, expected, atol=1e-12)


def test_make_qft_entries_are_roots_of_unity():
    n = 4
    u = make_qft(n)
    for l in range(1, n + 1):
        for j in range(1, n + 1):
            want = cmath.exp(2j * cmath.pi * j * l / n) / math.sqrt(n)
            assert abs(u[l - 1][j - 1] - want) <= 1e-12


@pytest.mark.parametrize("n", range(1, 17))
def test_make_qft_is_numpy_fourier_formula(n):
    idx = np.arange(1, n + 1)
    want = np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)
    u = make_qft(n)
    assert isinstance(u, list) and all(isinstance(row, list) for row in u)
    assert np.abs(np.array(u) - want).max() <= 1e-15


@pytest.mark.parametrize("bad", [0, -1, 2.5])
def test_make_qft_rejects_bad_dimension(bad):
    with pytest.raises(LinalgError):
        make_qft(bad)


def test_check_unitary_flags_nonunitary():
    ok, defect = check_unitary([[1, 0], [0, 2]])
    assert not ok
    assert defect == pytest.approx(3.0)


def test_check_unitary_rejects_nonsquare():
    with pytest.raises(LinalgError):
        check_unitary([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(LinalgError):
        check_unitary([1, 0])
    # a ragged or non-numeric nesting is not a matrix at all
    with pytest.raises(LinalgError, match="not a 2-D numeric matrix"):
        check_unitary([[1, 0], [0]])
    with pytest.raises(LinalgError, match="not a 2-D numeric matrix"):
        check_unitary([["a", "b"], ["c", "d"]])
    # rows of digits are strings, not rows of numbers
    with pytest.raises(LinalgError, match="not a 2-D numeric matrix"):
        check_unitary(["10", "01"])


@pytest.mark.parametrize("check", [check_unitary, check_isometry])
@pytest.mark.parametrize("bad", [
    5, None, [], [1, 0], "ab", [[1, 0], [0]], [["a"]], [["1"]],
    ["10", "01"], (row for row in [[1]]), np.float64(1.0), np.zeros(2),
    np.zeros((1, 1, 1)),
], ids=["scalar", "none", "empty", "flat", "string", "ragged", "letter",
        "digit-string", "string-rows", "generator", "numpy-scalar",
        "numpy-1d", "numpy-3d"])
def test_matrix_checks_refuse_what_is_not_a_matrix(check, bad):
    with pytest.raises(LinalgError, match="not a 2-D numeric matrix"):
        check(bad)


def test_matrix_checks_read_rows_tuples_and_arrays():
    # a 1 x 0 matrix has no columns: an isometry, but not square
    assert check_isometry([[]]) == (True, 0.0)
    with pytest.raises(LinalgError, match="square"):
        check_unitary([[]])
    rows = [[0, 1], [1j, 0]]
    for u in (rows, tuple(map(tuple, rows)), np.array(rows)):
        assert check_unitary(u) == (True, 0.0)


# Entries whose products and sums are exact in floating point, so every
# summation order gives the same Gram matrix.
DYADIC = (0, 1, -1, 0.5, -0.5, 1j, -1j, 0.5j, 2, 1 + 1j)


@st.composite
def small_matrices(draw):
    """Square matrices of size 1-4: signed phase permutations (unitary)
    or dyadic entries, with a column zeroed at times."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        u = np.zeros((n, n), dtype=complex)
        for col, row in enumerate(draw(st.permutations(range(n)))):
            u[row, col] = draw(st.sampled_from((1, -1, 1j, -1j)))
    else:
        u = np.array(draw(st.lists(st.sampled_from(DYADIC), min_size=n * n,
                                   max_size=n * n)),
                     dtype=complex).reshape(n, n)
    if draw(st.booleans()):
        u[:, draw(st.integers(0, n - 1))] = 0
    return u


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_check_unitary_defect_is_the_dense_gram_defect(u):
    # Python's abs is correctly rounded; numpy's vectorised one is not
    gram = u.conj().T @ u - np.eye(u.shape[0])
    want = max(abs(z) for z in gram.ravel().tolist())
    zero_column = not u.any(axis=0).all()
    ok, defect = check_unitary(u.tolist())
    assert defect == want
    assert ok == (want <= 1e-9)
    if zero_column:
        # its Gram diagonal entry is not stored and counts as defect 1
        assert defect >= 1.0


def test_ensure_finite_passes_and_fails():
    assert ensure_finite(0.5 + 0.25j) == 0.5 + 0.25j
    with pytest.raises(LinalgError):
        ensure_finite(float("nan"))
    with pytest.raises(LinalgError):
        ensure_finite(complex(float("inf"), 0.0))


def test_sparse_vector_add_and_cancel():
    v = SparseVector()
    v.add("a", 0.5).add("a", -0.5)
    assert "a" not in v
    assert len(v) == 0
    v.add("b", 1j)
    assert v["b"] == 1j
    assert v["missing"] == 0j


def test_sparse_vector_norms_and_scaling():
    v = SparseVector({"a": 0.6, "b": 0.8j})
    assert v.norm_sq() == pytest.approx(1.0)


def test_sparse_vector_prune_threshold():
    v = SparseVector({"a": 1e-13, "b": 0.9})
    assert v.prune(1e-12) == pytest.approx(1e-26, rel=1e-12)
    assert "a" not in v
    assert v.prune(1e-12) == 0.0
    assert "b" in v


def test_sparse_vector_copy_is_independent():
    v = SparseVector({"a": 1.0})
    w = SparseVector(v)
    w.add("a", 1.0)
    assert v["a"] == 1.0
    assert w["a"] == 2.0


def test_check_isometry_takes_rectangular_matrices():
    assert check_isometry([[1, 0], [0, 1j], [0, 0]]) == (True, 0.0)
    ok, defect = check_isometry([[1.0], [1.0]])
    assert not ok
    assert defect == 1.0
    # a zero column's Gram diagonal entry is not stored: defect 1
    assert check_isometry([[1, 0], [0, 0], [0, 0]]) == (False, 1.0)
    # on a square matrix it is check_unitary
    u = make_qft(3)
    assert check_isometry(u) == check_unitary(u)
    with pytest.raises(LinalgError):
        check_isometry([1, 0])


def _dense(entries, shape):
    """The dense matrix of (row, column, value) triples, a repeated
    (row, column) pair summed in the order given."""
    u = np.zeros(shape, dtype=complex)
    for row, col, value in entries:
        u[row, col] += value
    return u


def _same_check(dense, entries, n_cols):
    """The dense and raw-entry forms of one matrix give the same
    (ok, defect); returns the defect."""
    defect = isometry_defect(entries, n_cols)
    assert check_isometry(dense) == (defect <= 1e-9, defect)
    return defect


def test_isometry_defect_sums_a_repeated_pair_first():
    # (0, 0) is given twice: 0.6 + 0.2j is the summed entry
    entries = [(0, 0, 0.6), (0, 0, 0.2j), (1, 0, 0.8), (2, 1, 1j)]
    dense = _dense(entries, (3, 2))
    assert dense[0, 0] == 0.6 + 0.2j
    defect = _same_check(dense, entries, 2)
    gram = dense.conj().T @ dense - np.eye(2)
    assert defect == max(abs(z) for z in gram.ravel().tolist())
    assert defect > 1e-3


def test_isometry_defect_of_a_stored_zero_or_a_zero_column_is_one():
    # a stored explicit zero forms a Gram diagonal entry of 0
    stored = [(0, 0, 1.0), (1, 1, 0.0)]
    assert _same_check(_dense(stored, (2, 2)), stored, 2) >= 1.0
    # an all-zero column forms none
    dense = [[1, 0], [0, 0], [0, 0]]
    assert _same_check(dense, [(0, 0, 1.0)], 2) >= 1.0
    assert isometry_defect([], 1) == 1.0
    assert isometry_defect([], 0) == 0.0


@pytest.mark.parametrize("n", range(1, 17))
def test_isometry_defect_of_the_fourier_matrix(n):
    u = make_qft(n)
    entries = [(r, c, z) for r, row in enumerate(u)
               for c, z in enumerate(row) if z]
    assert _same_check(u, entries, n) <= 1e-12


def test_isometry_defect_keeps_a_nan():
    # the nan entry is read after the exact one, and still wins
    assert math.isnan(isometry_defect([(0, 0, 1.0), (1, 1, math.nan)], 2))


def _dict_gram_defect(entries, n_cols):
    """A test-local copy of the dict Gram that isometry_defect's direct
    path and per-column dicts replaced: every Gram term goes to a dict
    keyed by (i, j), starting from the first term, rows in increasing
    order."""
    by_row = {}
    for row, col, value in entries:
        cells = by_row.setdefault(row, {})
        cells[col] = cells[col] + value if col in cells else value
    gram = {}
    for row in sorted(by_row):
        cells = by_row[row].items()
        for i, a in cells:
            a = a.conjugate()
            for j, b in cells:
                gram[i, j] = gram[i, j] + a * b if (i, j) in gram else a * b
    deviations = [abs(z - (i == j)) for (i, j), z in gram.items()]
    defect = float(max(deviations, default=0.0))
    if any(map(math.isnan, deviations)):
        defect = math.nan
    if sum(i == j for i, j in gram) < n_cols:
        defect = max(defect, 1.0)
    return defect


_PARTS = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from((0.0, -0.0, 1.0, math.nan, math.inf)),
)
_VALUES = st.one_of(
    _PARTS, st.builds(complex, _PARTS, _PARTS),
    st.sampled_from((0j, complex(-0.0, -0.0), 1 + 0j, complex(0, math.nan))),
)


@st.composite
def sparse_matrices(draw):
    """(entries, n_cols): random (row, column, value) triples, a pair
    sometimes repeated, plus sometimes a block of wide rows over shared
    columns (the Fourier mixing block's shape) or a chain of two-entry
    rows."""
    n_cols = draw(st.integers(0, 7))
    cell = st.tuples(st.integers(0, 9), st.integers(0, max(n_cols, 1) - 1))
    entries = [(r, c, draw(_VALUES)) for r, c in draw(st.lists(cell))]
    if entries and draw(st.booleans()):
        entries.append(draw(st.sampled_from(entries))[:2] + (draw(_VALUES),))
    shape = draw(st.sampled_from(("none", "block", "chain")))
    if shape == "block" and n_cols >= 2:
        cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=2,
                             unique=True))
        for r in draw(st.lists(st.integers(0, 12), min_size=1, unique=True)):
            entries += [(r, c, draw(_VALUES)) for c in cols]
    elif shape == "chain":
        for c in range(n_cols - 1):
            entries += [(20 + c, c, draw(_VALUES)),
                        (20 + c, c + 1, draw(_VALUES))]
    return draw(st.permutations(entries)), n_cols


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_isometry_defect_keeps_the_dict_grams_bits(matrix):
    entries, n_cols = matrix
    assert (repr(isometry_defect(entries, n_cols))
            == repr(_dict_gram_defect(entries, n_cols)))


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_isometry_defect_paths_keep_the_dict_grams_bits(n):
    # a Fourier block beside one-entry rows (the per-column dicts and the
    # direct path), a chain of two-entry rows, and the Fourier block with
    # a zero and a nan stored in it
    u = make_qft(n)
    fourier = [(r, c, z) for r, row in enumerate(u) for c, z in enumerate(row)]
    ones = [(n + k, n + k, 1.0 + 0j) for k in range(3)]
    chain = [(k + c, c, s) for c in range(n + 3)
             for k, s in ((0, 0.6 + 0.8j), (1, 0.8))]
    stored = fourier + [(0, 0, 0.0), (n - 1, n - 1, complex(math.nan, 0))]
    # one-entry rows on the block's columns before and after it: each
    # diagonal sum of 1 and s^2 terms rounds differently in another order
    # (s * s is just above, then just below 2**-53)
    around = [[(-1 - c, c, first) for c in range(n)]
              + [(r, c, s * z) for r, c, z in fourier]
              + [(n + 9 + c, c, last) for c in range(n)]
              for s in (1.0536712127723509e-08, 1.05367121e-08)
              for first, last in ((1.0, s), (s, 1.0))]
    for entries in (fourier + ones, ones + fourier[::-1], chain, stored,
                    *around):
        for n_cols in (n, n + 3, n + 4):
            assert (repr(isometry_defect(entries, n_cols))
                    == repr(_dict_gram_defect(entries, n_cols)))
