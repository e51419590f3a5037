"""Unit tests for the sparse linear-algebra helpers."""

import cmath
import math

import numpy as np
import pytest

from qipsim.errors import LinalgError
from qipsim.linalg import (
    SparseVector,
    check_unitary,
    ensure_finite,
    format_amplitude,
    make_qft,
    vec_apply,
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
    assert v.norm() == pytest.approx(1.0)
    w = v.scaled(0.5)
    assert w.norm_sq() == pytest.approx(0.25)
    assert v.norm_sq() == pytest.approx(1.0)


def test_sparse_vector_prune_threshold():
    v = SparseVector({"a": 1e-13, "b": 0.9}, prune_threshold=1e-12)
    assert v.prune() == pytest.approx(1e-26, rel=1e-12)
    assert "a" not in v
    assert v.prune() == 0.0
    assert "b" in v


def test_sparse_vector_copy_is_independent():
    v = SparseVector({"a": 1.0})
    w = v.copy()
    w.add("a", 1.0)
    assert v["a"] == 1.0
    assert w["a"] == 2.0


def test_format_amplitude_real_and_complex():
    assert format_amplitude(1.0) == "+1.000000"
    assert format_amplitude(-0.5 + 0.25j) == "-0.500000+0.250000i"


def test_vec_apply_block_action():
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
    v = SparseVector({"a": 1.0, "c": 0.5})
    out = vec_apply(hadamard, v, ["a", "b"])
    s = 1.0 / math.sqrt(2.0)
    assert abs(out["a"] - s) <= 1e-12
    assert abs(out["b"] - s) <= 1e-12
    assert out["c"] == 0.5
    assert out.norm_sq() == pytest.approx(1.25)


def test_vec_apply_validates_labels():
    eye = np.eye(2)
    v = SparseVector({"a": 1.0})
    with pytest.raises(LinalgError):
        vec_apply(eye, v, ["a"])
    with pytest.raises(LinalgError):
        vec_apply(eye, v, ["a", "a"])
    with pytest.raises(LinalgError):
        vec_apply(np.ones((2, 3)), v, ["a", "b"])


def test_vec_apply_preserves_norm_for_unitary():
    u = make_qft(3)
    v = SparseVector({0: 0.5, 1: 0.5j, 2: -0.5, "spectator": 0.5})
    out = vec_apply(u, v, [0, 1, 2])
    assert out.norm_sq() == pytest.approx(v.norm_sq())
