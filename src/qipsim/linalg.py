"""Small complex linear-algebra helpers used by the simulation engine.

The isometry check is plain Python and reads one matrix format: the
(row, column, value) triples of isometry_defect.  check_isometry and
check_unitary hand it the nonzero entries of a dense matrix.  numpy is
imported only by the Fourier amplitudes and for a dense matrix.
"""

import math
import numbers

from .errors import LinalgError


def make_qft(n):
    """Return the n-by-n discrete-Fourier mixing matrix.

    Entry (l, j) is exp(2*pi*i*j*l/n) / sqrt(n) with 1-based row and
    column indices, so the n=2 instance is [[-1, 1], [1, 1]] / sqrt(2).
    Raises LinalgError for n < 1.
    """
    import numpy as np
    n = _dimension(n)
    idx = np.arange(1, n + 1)
    return _fourier(np.outer(idx, idx), n)


def fourier_entry(n, j, l):
    """make_qft(n)[l - 1, j - 1] with j and l taken modulo n into 1..n,
    computed as make_qft computes it, so the bits agree.
    """
    import numpy as np
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
    import numpy as np
    return np.exp(2j * np.pi * products / n) / math.sqrt(n)


def check_unitary(matrix, tau=1e-9):
    """Return (ok, defect) where defect = max |(U* U - I)_ij|.

    check_isometry's result for a square matrix.  Raises LinalgError when
    the input is not a square numeric matrix.
    """
    shape, entries = _entries(matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise LinalgError("invalid dimension: unitarity check needs a "
                          "square matrix, got shape %r" % (shape,))
    defect = isometry_defect(entries, shape[1])
    return defect <= tau, defect


def check_isometry(matrix, tau=1e-9):
    """Return (ok, defect) where defect = max |(U* U - I)_ij| for an m x n
    matrix U: how far its columns are from orthonormal.

    The matrix is anything numpy reads as a 2-D complex array; its
    nonzero entries go to isometry_defect.  ok is defect <= tau.  Raises
    LinalgError when the input is not a 2-D numeric matrix.
    """
    shape, entries = _entries(matrix)
    if len(shape) != 2:
        raise LinalgError("invalid dimension: isometry check needs a 2-D "
                          "matrix, got shape %r" % (shape,))
    defect = isometry_defect(entries, shape[1])
    return defect <= tau, defect


def _entries(matrix):
    import numpy as np
    try:
        u = np.asarray(matrix, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise LinalgError("not a 2-D numeric matrix: %s" % exc) from None
    index = u.nonzero()
    return u.shape, zip(*(i.tolist() for i in index), u[index].tolist())


def isometry_defect(entries, n_cols):
    """max |(U* U - I)_ij| for the matrix U with n_cols columns whose
    entries are the given (row, column, value) triples.

    A (row, column) pair given twice is summed in the order given.  Each
    Gram entry sums conj(a) * b over the rows in increasing row order,
    so every caller gets the same bits for the same matrix.  A Gram
    diagonal entry that no row forms is 0, so its defect is 1.  A nan
    anywhere makes the defect nan, as numpy's max would.
    """
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
