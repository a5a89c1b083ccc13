"""Circulant matrices and their Fourier diagonalization.

A k x k circulant matrix is determined by its first column
(c_0, ..., c_{k-1}); entry (r, s) of the dense form is c_{(r-s) mod k}.
Its eigenvectors are the discrete Fourier modes
v_{k,j} = (1, w^j, w^{2j}, ..., w^{(k-1)j}) with w = exp(2*pi*i/k), and
the eigenvalue attached to v_{k,j} is
c_0 + c_{k-1} w^j + c_{k-2} w^{2j} + ... + c_1 w^{(k-1)j}.
"""

import numpy as np

from .errors import PreconditionError


def root_of_unity_powers(k):
    """Table of the k distinct powers of w = exp(2*pi*i/k).

    Entry m is w^m, each computed directly from its angle; higher powers
    are read from this table mod k instead of by repeated multiplication,
    which would drift for large exponents.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    return np.exp(2j * np.pi * np.arange(k) / k)


class CirculantMatrix:
    """A circulant matrix stored by its defining vector (first column)."""

    __slots__ = ("vector", "_eigenvalues")

    def __init__(self, values):
        v = np.atleast_1d(np.asarray(values, dtype=np.complex128))
        if v.ndim != 1 or v.size < 1:
            raise PreconditionError("defining vector must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(v)):
            raise PreconditionError("defining vector must be finite")
        v = v.copy()
        v.setflags(write=False)
        self.vector = v
        self._eigenvalues = None

    @property
    def k(self):
        return self.vector.shape[0]

    def row_sum(self):
        """Sum of the defining vector, read from the j = 0 eigenvalue so
        the two are bit-identical."""
        return complex(self.eigenvalues()[0])

    def eigenvalues(self):
        """All k eigenvalues, ordered by Fourier index j = 0..k-1.

        The eigenvalue sum_m c_m w^{-m*j} is the discrete Fourier
        transform of the defining vector, so this is one FFT, computed
        on first use and returned read-only afterwards.  A join reads
        its blocks' eigenvalues from its own stacked transform
        (`JoinSpec.layout`), which holds the same bits.
        """
        if self._eigenvalues is None:
            lam = np.fft.fft(self.vector)
            lam.setflags(write=False)
            self._eigenvalues = lam
        return self._eigenvalues

    def __eq__(self, other):
        if not isinstance(other, CirculantMatrix):
            return NotImplemented
        return self.k == other.k and bool(np.array_equal(self.vector, other.vector))

    def __hash__(self):
        # + 0.0 turns each -0.0 part into +0.0, which __eq__ counts equal
        return hash((self.vector + 0.0).tobytes())

    def __repr__(self):
        entries = ", ".join(repr(complex(c)) for c in self.vector)
        return f"CirculantMatrix([{entries}])"

