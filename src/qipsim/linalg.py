"""Small complex linear-algebra helpers used by the simulation engine."""

import math
import numbers

import numpy as np
import scipy.sparse

from .errors import LinalgError


def make_qft(n):
    """Return the n-by-n discrete-Fourier mixing matrix.

    Entry (l, j) is exp(2*pi*i*j*l/n) / sqrt(n) with 1-based row and
    column indices, so the n=2 instance is [[-1, 1], [1, 1]] / sqrt(2).
    Raises LinalgError for n < 1.
    """
    n = _dimension(n)
    idx = np.arange(1, n + 1)
    return _fourier(np.outer(idx, idx), n)


def fourier_entry(n, j, l):
    """make_qft(n)[l - 1, j - 1] with j and l taken modulo n into 1..n,
    computed as make_qft computes it, so the bits agree.
    """
    n = _dimension(n)
    products = np.array([float(((j - 1) % n + 1) * ((l - 1) % n + 1))])
    return complex(_fourier(products, n)[0])


def as_integer(value):
    """value as an int when it is an integer or an integral float, else
    None; bools and strings are not integers.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def _dimension(n):
    m = as_integer(n)
    if m is None or m < 1:
        raise LinalgError("invalid dimension for mixing matrix: %r" % (n,))
    return m


def _fourier(products, n):
    return np.exp(2j * np.pi * products / n) / math.sqrt(n)


def check_unitary(matrix, tau=1e-9):
    """Return (ok, defect) where defect = max |(U* U - I)_ij|.

    check_isometry's result for a square matrix.  Raises LinalgError when
    the input is not a square matrix.
    """
    u = _gram_input(matrix)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise LinalgError(
            "invalid dimension: unitarity check needs a square matrix, got shape %r"
            % (u.shape,)
        )
    return check_isometry(u, tau)


def check_isometry(matrix, tau=1e-9):
    """Return (ok, defect) where defect = max |(U* U - I)_ij| for an m x n
    matrix U: how far its columns are from orthonormal.

    The matrix is a scipy sparse matrix, used as is, or anything numpy
    reads as a 2-D complex array, which is converted to CSR first; both
    take the same sparse Gram product.  The defect is read off the Gram
    matrix's stored entries, 1 subtracted on the diagonal; a diagonal
    entry it does not store counts as defect 1.  ok is defect <= tau.
    Raises LinalgError when the input is not a 2-D matrix.
    """
    u = _gram_input(matrix)
    if u.ndim != 2:
        raise LinalgError(
            "invalid dimension: isometry check needs a 2-D matrix, got shape %r"
            % (u.shape,)
        )
    if not scipy.sparse.issparse(u):
        u = scipy.sparse.csr_matrix(u)
    # a CSR u gives a CSC Gram matrix, so tocsc() is free on that path
    gram = (u.conj().T @ u).tocsc()
    columns = np.repeat(np.arange(gram.shape[1]), np.diff(gram.indptr))
    on_diagonal = gram.indices == columns
    deviations = np.abs(gram.data - on_diagonal)
    defect = float(np.max(deviations)) if deviations.size else 0.0
    if np.count_nonzero(on_diagonal) < gram.shape[0]:
        defect = max(defect, 1.0)
    return defect <= tau, defect


def _gram_input(matrix):
    if scipy.sparse.issparse(matrix):
        return matrix
    return np.asarray(matrix, dtype=complex)


def ensure_finite(amplitude, context="amplitude"):
    """Validate that a complex amplitude is finite; return it as complex."""
    z = complex(amplitude)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise LinalgError("non-finite %s: %r" % (context, amplitude))
    return z


class SparseVector(dict):
    """Sparse complex vector: a dict from hashable basis labels to their
    amplitudes.  A missing label reads as 0j.
    """

    def __missing__(self, label):
        return 0j

    def add(self, label, amplitude):
        """Accumulate an amplitude onto a basis label; a label whose sum
        cancels to exactly 0 is dropped.
        """
        z = self.get(label, 0j) + amplitude
        if z == 0j:
            self.pop(label, None)
        else:
            self[label] = z
        return self

    def prune(self, threshold):
        """Drop components with magnitude at or below threshold (none when
        threshold <= 0).  Returns the squared norm of the dropped ones.
        """
        if threshold <= 0.0:
            return 0.0
        dropped = [(k, v) for k, v in self.items() if abs(v) <= threshold]
        if not dropped:
            return 0.0
        for k, _ in dropped:
            del self[k]
        return float(sum((v * v.conjugate()).real for _, v in dropped))

    def norm_sq(self):
        return float(sum((v * v.conjugate()).real for v in self.values()))
