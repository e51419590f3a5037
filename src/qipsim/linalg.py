"""Small complex linear-algebra helpers used by the simulation engine."""

import math

import numpy as np

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


def _dimension(n):
    if int(n) != n or n < 1:
        raise LinalgError("invalid dimension for mixing matrix: %r" % (n,))
    return int(n)


def _fourier(products, n):
    return np.exp(2j * np.pi * products / n) / math.sqrt(n)


def check_unitary(matrix, tau=1e-9):
    """Return (ok, defect) where defect = max-norm of (U* U - I).

    Raises LinalgError when the input is not a square matrix.
    """
    u = np.asarray(matrix, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise LinalgError(
            "invalid dimension: unitarity check needs a square matrix, got shape %r"
            % (u.shape,)
        )
    gram = u.conj().T @ u
    defect = float(np.max(np.abs(gram - np.eye(u.shape[0]))))
    return defect <= tau, defect


def ensure_finite(amplitude, context="amplitude"):
    """Validate that a complex amplitude is finite; return it as complex."""
    z = complex(amplitude)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise LinalgError("non-finite %s: %r" % (context, amplitude))
    return z


class SparseVector:
    """Sparse complex vector keyed by arbitrary hashable basis labels.

    Amplitudes with magnitude <= prune_threshold are dropped by prune().
    """

    def __init__(self, amplitudes=None, prune_threshold=0.0):
        self.amplitudes = dict(amplitudes) if amplitudes else {}
        self.prune_threshold = float(prune_threshold)

    def __getitem__(self, label):
        return self.amplitudes.get(label, 0j)

    def __len__(self):
        return len(self.amplitudes)

    def __contains__(self, label):
        return label in self.amplitudes

    def items(self):
        return self.amplitudes.items()

    def labels(self):
        return self.amplitudes.keys()

    def add(self, label, amplitude):
        """Accumulate an amplitude onto a basis label."""
        z = self.amplitudes.get(label, 0j) + amplitude
        if z == 0j:
            self.amplitudes.pop(label, None)
        else:
            self.amplitudes[label] = z
        return self

    def prune(self):
        """Drop components with magnitude at or below the threshold.

        Returns the squared norm of the dropped components.
        """
        t = self.prune_threshold
        if t <= 0.0:
            return 0.0
        dropped = [v for v in self.amplitudes.values() if abs(v) <= t]
        if dropped:
            self.amplitudes = {
                k: v for k, v in self.amplitudes.items() if abs(v) > t
            }
        return float(sum((v * v.conjugate()).real for v in dropped))

    def norm_sq(self):
        return float(sum((v * v.conjugate()).real for v in self.amplitudes.values()))

    def norm(self):
        return math.sqrt(self.norm_sq())

    def scaled(self, factor):
        return SparseVector(
            {k: v * factor for k, v in self.amplitudes.items()},
            self.prune_threshold,
        )

    def copy(self):
        return SparseVector(self.amplitudes, self.prune_threshold)

    def __repr__(self):
        parts = ", ".join(
            "%r: %s" % (k, format_amplitude(v)) for k, v in sorted(
                self.amplitudes.items(), key=lambda kv: repr(kv[0])
            )
        )
        return "SparseVector({%s})" % parts


def format_amplitude(z):
    """Readable fixed-precision rendering of a complex amplitude."""
    z = complex(z)
    if abs(z.imag) < 1e-15:
        return "%+.6f" % z.real
    return "%+.6f%+.6fi" % (z.real, z.imag)


def vec_apply(matrix, vector, labels):
    """Apply a dense square matrix to the block of `vector` spanned by `labels`.

    Labels must be distinct and match the matrix dimension.  Amplitudes on
    labels absent from the vector are treated as zero; components outside
    the block pass through unchanged.  Returns a new SparseVector.
    """
    u = np.asarray(matrix, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise LinalgError(
            "invalid dimension: block apply needs a square matrix, got shape %r"
            % (u.shape,)
        )
    labels = list(labels)
    if len(labels) != u.shape[0]:
        raise LinalgError(
            "label count %d does not match matrix dimension %d"
            % (len(labels), u.shape[0])
        )
    if len(set(labels)) != len(labels):
        raise LinalgError("duplicate basis labels in block apply")
    out = SparseVector(prune_threshold=vector.prune_threshold)
    label_set = set(labels)
    for k, v in vector.items():
        if k not in label_set:
            out.add(k, v)
    block = np.array([vector[lab] for lab in labels], dtype=complex)
    image = u @ block
    for lab, amp in zip(labels, image):
        if amp != 0j:
            out.add(lab, complex(amp))
    out.prune()
    return out
