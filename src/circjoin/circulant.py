"""Circulant matrices and their Fourier diagonalization.

A k x k circulant matrix is determined by its first column, the
defining vector (c_0, ..., c_{k-1}); entry (r, s) of the dense form is
c_{(r-s) mod k}.  Its eigenvectors are the discrete Fourier modes
v_{k,j} = (1, w^j, w^{2j}, ..., w^{(k-1)j}) with w = exp(2*pi*i/k), and
the eigenvalue attached to v_{k,j} is
c_0 + c_{k-1} w^j + c_{k-2} w^{2j} + ... + c_1 w^{(k-1)j},
entry j of the DFT np.fft.fft(c).  For a real c the DFT is
conjugate-symmetric, lambda_{k-j} = conj(lambda_j), and for a symmetric
one (c_m = c_{k-m}) it is real.  A join stores and validates the
defining vectors of its blocks (`JoinSpec.vector`) and computes their
eigenvalues by one stacked FFT per block size (`JoinSpec.layout`): the
complex transform, or for a join of real blocks the real transform
with both symmetries kept exactly.
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
