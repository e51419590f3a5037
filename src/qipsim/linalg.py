"""Small complex linear-algebra helpers used by the simulation engine.

Plain Python throughout.  The isometry check reads one matrix format:
the (row, column, value) triples of isometry_defect.  check_isometry and
check_unitary hand it the nonzero entries of a matrix given as a
sequence of equal-length rows.
"""

import math
import numbers
from collections import defaultdict
from collections.abc import Sequence

from .errors import LinalgError


def make_qft(n):
    """Return the n-by-n discrete-Fourier mixing matrix as a list of rows.

    Entry [l - 1][j - 1] is exp(2*pi*i*j*l/n) / sqrt(n) with 1-based row
    and column indices, so the n=2 instance is [[-1, 1], [1, 1]] / sqrt(2).
    Raises LinalgError for n < 1.
    """
    n = _dimension(n)
    return [[_fourier(j * l, n) for j in range(1, n + 1)]
            for l in range(1, n + 1)]


def fourier_entry(n, j, l):
    """make_qft(n)[l - 1][j - 1] with j and l taken modulo n into 1..n,
    computed as make_qft computes it, so the bits agree.
    """
    n = _dimension(n)
    return _fourier(((j - 1) % n + 1) * ((l - 1) % n + 1), n)


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


def _fourier(product, n):
    # exp(2*pi*i*product/n) / sqrt(n) as cos + i sin, multiplying by 1/n
    # and 1/sqrt(n) as numpy divides a complex by a real, so each entry
    # has the bits of numpy's np.exp(2j * np.pi * product / n) / np.sqrt(n)
    phase = 2 * math.pi * product * (1.0 / n)
    scale = 1.0 / math.sqrt(n)
    return complex(math.cos(phase) * scale, math.sin(phase) * scale)


def check_unitary(matrix, tau=1e-9):
    """Return (ok, defect) where defect = max |(U* U - I)_ij|.

    check_isometry's result for a square matrix.  Raises LinalgError when
    the input is not a square numeric matrix.
    """
    n_rows, n_cols, entries = _entries(matrix)
    if n_rows != n_cols:
        raise LinalgError("invalid dimension: unitarity check needs a "
                          "square matrix, got shape %r" % ((n_rows, n_cols),))
    defect = isometry_defect(entries, n_cols)
    return defect <= tau, defect


def check_isometry(matrix, tau=1e-9):
    """Return (ok, defect) where defect = max |(U* U - I)_ij| for an m x n
    matrix U: how far its columns are from orthonormal.

    The matrix is a sequence of m rows of n numbers each (a numpy array
    is read through its tolist()); its nonzero entries go to
    isometry_defect.  ok is defect <= tau.  Raises LinalgError when the
    input is not such a matrix.
    """
    _n_rows, n_cols, entries = _entries(matrix)
    defect = isometry_defect(entries, n_cols)
    return defect <= tau, defect


def _entries(matrix):
    """(rows, columns, nonzero (row, column, value) triples) of a matrix
    given as a sequence of equal-length rows of numbers."""
    rows = matrix.tolist() if hasattr(matrix, "tolist") else matrix
    if not _is_sequence(rows):
        raise LinalgError("not a 2-D numeric matrix: %r is not a sequence "
                          "of rows" % (matrix,))
    for row in rows:
        if not _is_sequence(row):
            raise LinalgError("not a 2-D numeric matrix: row %r is not a "
                              "sequence" % (row,))
        for z in row:
            if not isinstance(z, numbers.Number):
                raise LinalgError("not a 2-D numeric matrix: entry %r is "
                                  "not a number" % (z,))
    widths = sorted({len(row) for row in rows})
    if len(widths) != 1:
        raise LinalgError("not a 2-D numeric matrix: row widths %r"
                          % (widths,))
    entries = [(r, c, complex(z)) for r, row in enumerate(rows)
               for c, z in enumerate(row) if z]
    return len(rows), widths[0], entries


def _is_sequence(value):
    return isinstance(value, Sequence) and not isinstance(
        value, (str, bytes, bytearray))


def isometry_defect(entries, n_cols):
    """max |(U* U - I)_ij| for the matrix U with n_cols columns whose
    entries are the given (row, column, value) triples.

    A (row, column) pair given twice is summed in the order given.  Each
    Gram entry has one accumulator and sums conj(a) * b over the rows in
    increasing row order, so every caller gets the same bits for the
    same matrix.  A row with one entry adds to its column's diagonal
    directly; a column of a wider row keeps its Gram row in a dict of
    its own.  A diagonal entry no row forms is 0, so its defect is 1.
    A nan anywhere makes the defect nan, as numpy's max would.
    """
    by_row = {}
    for row, col, value in entries:
        cells = by_row.setdefault(row, {})
        cells[col] = cells[col] + value if col in cells else value
    # gram[i]: the Gram row of a column i of a row with two or more
    # entries; diag: the diagonal entry of every other column
    gram = {i: defaultdict(complex) for cells in by_row.values()
            if len(cells) > 1 for i in cells}
    diag = {}
    for row in sorted(by_row):
        cells = by_row[row].items()
        if len(cells) == 1:
            (i, a), = cells
            if i not in gram:
                z = a.conjugate() * a
                diag[i] = diag[i] + z if i in diag else z
                continue
        for i, a in cells:
            g, a = gram[i], a.conjugate()
            for j, b in cells:
                g[j] += a * b
    deviations = [abs(z - 1) for z in diag.values()]
    for i, g in gram.items():
        deviations += [abs(z - (i == j)) for j, z in g.items()]
    defect = float(max(deviations, default=0.0))
    if any(map(math.isnan, deviations)):
        defect = math.nan
    if len(diag) + len(gram) < n_cols:
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
