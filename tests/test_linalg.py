"""Unit tests for the sparse linear-algebra helpers."""

import cmath
import math

import numpy as np
import pytest
import scipy.sparse

from qipsim.errors import LinalgError
from qipsim.linalg import (
    SparseVector,
    check_unitary,
    ensure_finite,
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


def test_check_unitary_takes_sparse_matrices_as_is():
    dense = make_qft(3)
    assert check_unitary(scipy.sparse.csr_matrix(dense)) == check_unitary(dense)
    ok, defect = check_unitary(scipy.sparse.csc_matrix([[1, 0], [0, 2]]))
    assert not ok
    assert defect == pytest.approx(3.0)
    with pytest.raises(LinalgError):
        check_unitary(scipy.sparse.csr_matrix((2, 3)))
    with pytest.raises(LinalgError):
        check_unitary([1, 0])


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
