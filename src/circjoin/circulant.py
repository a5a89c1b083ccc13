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


def fourier_vector(k, j):
    """The Fourier mode v_{k,j}, entries w^{m*j} for m = 0..k-1."""
    if not 0 <= j < k:
        raise PreconditionError(f"fourier index {j} out of range [0, {k - 1}]")
    return fourier_modes(k, [j])[:, 0]


def fourier_modes(k, js):
    """The k x len(js) matrix whose columns are the Fourier modes v_{k,j}.

    Entry (m, j) is root_of_unity_powers(k)[(m*j) % k]: a gather from one
    table of k exponentials, not an exp per entry.
    """
    js = np.asarray(js, dtype=np.intp)
    return root_of_unity_powers(k)[np.outer(np.arange(k), js) % k]


def dft_matrix(k):
    """The k x k matrix with entry (m, j) = w^{m*j}; columns are v_{k,j}.

    Nonsingular (Vandermonde in the k-th roots of unity), with
    |det| = k^{k/2}.
    """
    return fourier_modes(k, np.arange(k))


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

    def dense(self):
        """Dense expansion; entry (r, s) = c_{(r-s) mod k}."""
        k = self.k
        idx = (np.arange(k)[:, None] - np.arange(k)[None, :]) % k
        return self.vector[idx]

    def eigenvalues(self):
        """All k eigenvalues, ordered by Fourier index j = 0..k-1.

        The eigenvalue sum_m c_m w^{-m*j} is the discrete Fourier
        transform of the defining vector, so this is one FFT, computed
        on first use and returned read-only afterwards.
        """
        if self._eigenvalues is None:
            lam = np.fft.fft(self.vector)
            lam.setflags(write=False)
            self._eigenvalues = lam
        return self._eigenvalues

    def eigenpairs(self):
        """List of (eigenvalue, Fourier eigenvector) pairs, j = 0..k-1."""
        lam = self.eigenvalues()
        e = dft_matrix(self.k)
        return [(complex(lam[j]), e[:, j]) for j in range(self.k)]

    def __eq__(self, other):
        if not isinstance(other, CirculantMatrix):
            return NotImplemented
        return self.k == other.k and bool(np.array_equal(self.vector, other.vector))

    def __hash__(self):
        return hash(self.vector.tobytes())

    def __repr__(self):
        entries = ", ".join(repr(complex(c)) for c in self.vector)
        return f"CirculantMatrix([{entries}])"
