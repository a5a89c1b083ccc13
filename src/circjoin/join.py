"""Joins of circulant matrices: condensed matrix, spectrum, eigenbasis.

A join places circulant blocks C_1, ..., C_d on the diagonal and fills
off-diagonal block (i, j) with the constant a_ij.  Its spectrum splits
into two analytic parts:

* each block contributes its Fourier eigenvalues for indices
  j = 1..k_i-1 (the row-sum mode j = 0 is excluded), with eigenvectors
  supported on that block only;
* the d remaining eigenvalues are those of the d x d condensed matrix,
  whose diagonal holds the block row sums and whose (i, j) entry is
  a_ij * k_j.  Its generalized eigenvectors lift to the join by
  repeating coordinate i k_i times (tensor expansion), preserving
  Jordan chain structure, so the join is diagonalizable exactly when
  the condensed matrix is.

So the block part of a spectrum costs one FFT per distinct block size:
a join stores its defining vectors once, as one array in row order
(`JoinSpec.vector`), and groups its blocks by size (`JoinSpec.layout`),
with the rows each group's blocks occupy and their eigenvalues, and
every per-block quantity and the join's action `JoinSpec.matvec` are
read from that one array and layout.
"""

from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, PreconditionError
from . import smalleig


class BlockGroup(NamedTuple):
    """The g blocks of one size k in a join: their indices `ids` (g,)
    in block order, the (g, k) indices `rows` of their rows in the join,
    their read-only (g, k) stacked `eigenvalues` (Fourier index
    j = 0..k-1 along each row), and `column`, a (g, 1) view of `ids`
    that gathers a per-block quantity as a column to broadcast along
    the rows.  The group's defining vectors are `JoinSpec.vector[rows]`."""

    ids: np.ndarray
    rows: np.ndarray
    eigenvalues: np.ndarray
    column: np.ndarray


class BlockLayout(NamedTuple):
    """What `JoinSpec.layout` returns: the (d,) block row sums (each
    block's j = 0 eigenvalue), the (d,) first row of each block in the
    join, and one `BlockGroup` per distinct block size, by size."""

    row_sums: np.ndarray
    offsets: np.ndarray
    groups: tuple


def _defining_vector(values):
    """One block's defining vector as a nonempty 1-d complex128 array; a
    scalar is a block of size 1."""
    try:
        v = np.atleast_1d(np.asarray(values, dtype=np.complex128))
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"defining vector is not numeric: {exc}") from exc
    if v.ndim != 1 or v.size < 1:
        raise PreconditionError("defining vector must be a nonempty 1-d sequence")
    return v


def _real_fft(c):
    """The DFT along the rows of the real (g, k) array `c`, as a (g, k)
    complex array that keeps the conjugate symmetry of a real
    circulant's spectrum exactly (Van Loan, Computational Frameworks
    for the FFT, section 4.4).

    Indices j = 0..k//2 are np.fft.rfft, whose j = 0 (and for even k,
    j = k/2) entries have an imaginary part of exactly +0.0, and every
    index j > k//2 is the exact conjugate of index k - j.
    """
    half = np.fft.rfft(c, axis=1)
    k, h = c.shape[1], half.shape[1]
    lam = np.empty(c.shape, dtype=np.complex128)
    lam[:, :h] = half
    np.conjugate(half[:, k - h : 0 : -1], out=lam[:, h:])
    return lam


def _hermitian(c):
    """Which rows of the (g, k) array `c` define Hermitian circulants:
    c_0 real and c_(k-m) == conj(c_m) for every m, tested by exact
    equality.  A real row is Hermitian when it is symmetric."""
    return (c[:, 0].imag == 0) & (c[:, 1:] == c[:, :0:-1].conj()).all(axis=1)


class JoinSpec:
    """d circulant blocks, each given by its defining vector (first
    column), plus the d x d table of coupling constants.

    The defining vectors are stored once, concatenated in the join's row
    order as the read-only (n,) array `vector`; `blocks` holds read-only
    views of it, one per block.  Coupling diagonal entries are unused
    and stored as zero.  `JoinSpec.from_vector` builds the same join
    from the concatenated vector and the block sizes.
    """

    __slots__ = ("vector", "blocks", "couplings", "d", "block_sizes", "n", "_layout")

    def __init__(self, blocks, couplings=None):
        parts = [_defining_vector(b) for b in blocks]
        if not parts:
            raise PreconditionError("a join needs at least one block")
        self._store(np.concatenate(parts), tuple(v.shape[0] for v in parts), couplings)

    @classmethod
    def from_vector(cls, vector, sizes, couplings=None):
        """The join of the blocks that cut a copy of the (n,) numeric
        array `vector` into consecutive pieces of the given `sizes`, each
        >= 1 and summing to n."""
        sizes = tuple(sizes)
        vector = np.array(vector, dtype=np.complex128)
        if not sizes or min(sizes) < 1 or vector.shape != (sum(sizes),):
            raise PreconditionError("block sizes must be >= 1 and cut the vector")
        spec = cls.__new__(cls)
        spec._store(vector, sizes, couplings)
        return spec

    def _store(self, vector, sizes, couplings):
        """Check and keep the concatenated defining vectors, a fresh
        complex128 array, and the couplings of blocks of `sizes`."""
        if not np.all(np.isfinite(vector)):
            raise PreconditionError("defining vector must be finite")
        vector.setflags(write=False)
        d = len(sizes)
        if couplings is None:
            couplings = np.zeros((d, d))
        a = np.asarray(couplings, dtype=np.complex128)
        if a.shape != (d, d):
            raise PreconditionError(
                f"coupling table must be {d}x{d}, got shape {a.shape}"
            )
        if not np.all(np.isfinite(a)):
            raise PreconditionError("coupling entries must be finite")
        a = a.copy()
        np.fill_diagonal(a, 0.0)
        a.setflags(write=False)
        self.block_sizes = sizes
        ends = list(accumulate(self.block_sizes))
        self.vector = vector
        self.blocks = tuple(
            vector[end - k : end] for end, k in zip(ends, self.block_sizes)
        )
        self.couplings = a
        self.d = d
        self.n = ends[-1]
        self._layout = None

    def condensed(self):
        """The d x d matrix of block row sums and scaled couplings.

        Raises NumericalError when an entry overflows: finite blocks
        and couplings can still have an infinite row sum or a_ij * k_j.
        """
        sums = self.layout().row_sums
        if not np.all(np.isfinite(sums)):
            raise NumericalError("a block row sum overflows")
        a = self.couplings * np.array(self.block_sizes)
        if not np.all(np.isfinite(a)):
            raise NumericalError("a coupling times a block size overflows")
        np.fill_diagonal(a, sums)
        return a

    def matvec(self, x):
        """A @ x without the dense A, for x of shape (n,).

        Each block acts by FFT circular convolution, and the constant
        off-diagonal blocks act through the block sums of x, so this
        costs O(n log n) and no n x n storage.  The blocks of one size
        share one fft/ifft pair on their `rows` of x (`layout`).
        """
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.n,):
            raise PreconditionError(f"expected an array of shape ({self.n},)")
        layout = self.layout()
        cross = self.couplings @ np.add.reduceat(x, layout.offsets)
        out = np.empty_like(x)
        for _, rows, lam, column in layout.groups:
            # The transforms run in place on fresh arrays, which skips
            # np.fft's output allocation.  The product is lam * spec on a
            # named array: numpy's complex multiply is not bit-commutative,
            # and on a large temporary numpy may evaluate it in place as
            # spec *= lam.
            spec = x[rows]
            np.fft.fft(spec, axis=1, out=spec)
            conv = lam * spec
            np.fft.ifft(conv, axis=1, out=conv)
            conv += cross[column]
            out[rows] = conv
        return out

    def layout(self):
        """The join's blocks grouped by size, as a `BlockLayout`, built
        on first use and shared by everything that reads the blocks.

        Each group's eigenvalues are one FFT along the rows of its
        stacked defining vectors, gathered from `vector` as
        `vector[rows]`.  numpy transforms the rows one by one
        with the plan of a single transform, so each row is the
        transform of the block's vector alone, and a join of d blocks
        of s distinct sizes costs s FFT calls, however large d is.  The
        transform of a complex join is bit for bit np.fft.fft; that of
        a join whose defining vectors are all real is `_real_fft`, which
        keeps the conjugate symmetry of a real block's spectrum exactly.
        A Hermitian block (`_hermitian`), such as a real symmetric one,
        has a real spectrum, stored with imaginary parts of +0.0; its
        real parts keep the bits of its join's transform.  Only a join
        with a real c_0 in some block is tested for them.
        """
        if self._layout is None:
            by_size = {}
            for i, k in enumerate(self.block_sizes):
                by_size.setdefault(k, []).append(i)
            sizes = np.array(self.block_sizes)
            offsets = sizes.cumsum() - sizes
            sums = np.empty(self.d, dtype=np.complex128)
            groups = []
            real = not self.vector.imag.any()
            hermitian = not self.vector[offsets].imag.all()
            for k in sorted(by_size):
                ids = np.array(by_size[k])
                rows = offsets[ids, None] + np.arange(k)
                if real:
                    c = self.vector.real[rows]
                    lam = _real_fft(c)
                else:
                    c = self.vector[rows]
                    lam = np.fft.fft(c, axis=1)
                if hermitian:
                    lam.imag[_hermitian(c)] = 0.0
                lam.setflags(write=False)
                sums[ids] = lam[:, 0]
                groups.append(BlockGroup(ids, rows, lam, ids[:, None]))
            sums.setflags(write=False)
            self._layout = BlockLayout(sums, offsets, tuple(groups))
        return self._layout

    def inf_norm(self):
        """Largest absolute row sum of the dense expansion, read from
        the defining vectors and couplings.

        Each block's sum runs along its row of the size group's stack,
        in numpy's pairwise order; np.add.reduceat on `vector` would sum
        in another order and move the last bit of the default
        tolerances that `kuramoto check` prints.
        """
        sums = np.empty(self.d)
        for ids, rows, *_ in self.layout().groups:
            sums[ids] = np.abs(self.vector[rows]).sum(axis=1)
        return float((sums + np.abs(self.couplings) @ self.block_sizes).max())

    def is_real(self):
        return not (self.vector.imag.any() or self.couplings.imag.any())

    def __eq__(self, other):
        if not isinstance(other, JoinSpec):
            return NotImplemented
        return self.block_sizes == other.block_sizes and bool(
            np.array_equal(self.vector, other.vector)
            and np.array_equal(self.couplings, other.couplings)
        )

    def __repr__(self):
        return f"JoinSpec(d={self.d}, sizes={self.block_sizes})"


@dataclass(frozen=True, eq=False)
class JordanChain:
    """Rows of `vectors` are u_1, ..., u_m with (M - lambda*I) u_1 ~ 0
    and (M - lambda*I) u_r = u_{r-1}."""

    eigenvalue: complex
    vectors: np.ndarray = field(repr=False)

    def __len__(self):
        return self.vectors.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Complete generalized eigendecomposition of a join, in O(n + d^2).

    `block_eigenvalues[i][j - 1]` is the eigenvalue of block i + 1 at
    Fourier index j = 1..k-1 (see `block_eigenpairs`); its eigenvector
    is the Fourier mode v_{k,j} zero-padded to the block's rows, so it
    is never stored.  `condensed_chains` are the Jordan chains of the
    condensed matrix, with vectors in C^d.  The join's chains are their
    tensor expansions, `np.repeat(chain.vectors, block_sizes, axis=1)`,
    built by whoever needs them.  `char_poly` holds the coefficients of
    the condensed matrix's characteristic polynomial and
    `char_poly_bound` a certified bound on the error of each, both from
    the same eig (see `smalleig.char_poly`).
    """

    block_sizes: tuple
    block_eigenvalues: tuple
    condensed_chains: tuple
    diagonalizable: bool
    char_poly: np.ndarray = field(repr=False)
    char_poly_bound: np.ndarray = field(repr=False)

    @property
    def n(self):
        return sum(self.block_sizes)

    @property
    def d(self):
        return len(self.block_sizes)

    def eigenvalues(self):
        """All n eigenvalues as one (n,) complex array, in the report's
        provenance order: each condensed chain's eigenvalue once per
        link, chain by chain, then block b = 1..d at Fourier index
        j = 1..k_b-1.  The first d entries are the condensed ones."""
        chains = self.condensed_chains
        condensed = np.repeat([ch.eigenvalue for ch in chains], [len(ch) for ch in chains])
        return np.concatenate([condensed, *self.block_eigenvalues])

    def reduced_char_poly(self):
        """`char_poly`; raises NumericalError when a coefficient
        overflows."""
        return _finite_char_poly(self.char_poly)


def block_eigenpairs(join):
    """The eigenvalues of the sum(k_i) - d eigenpairs of the join
    inherited from its blocks: one array per block, entry j - 1 for
    Fourier index j = 1..k_i-1.

    For block i and 1 <= j <= k_i - 1 the zero-padded Fourier mode is an
    eigenvector of the whole join because its entries sum to zero, so
    the constant off-diagonal blocks annihilate it.  Each array is a
    read-only view of the block's row of its size group's FFT
    (`JoinSpec.layout`), so nothing is copied.

    Raises NumericalError when one of these eigenvalues overflows: a
    finite defining vector can still have an infinite Fourier transform.
    (The j = 0 eigenvalue is the row sum, which `JoinSpec.condensed`
    checks.)
    """
    out = [None] * join.d
    for group in join.layout().groups:
        lam = group.eigenvalues[:, 1:]
        if not np.isfinite(lam).all():
            raise NumericalError("a block eigenvalue overflows")
        for i, row in zip(group.ids.tolist(), lam):
            out[i] = row
    return tuple(out)


def full_spectrum(join, *, cluster_delta=None, sigma_tol=None):
    """Eigenvalues and a generalized eigenbasis of the join.

    The eigenvalue multiset is the union (multiplicities adding, no
    merging across origins) of the block eigenvalues for j >= 1 and the
    condensed spectrum.  Condensed Jordan chains stay in C^d; a chain of
    the join is the tensor expansion of one, so the decomposition holds
    O(n + d^2) numbers.  The diagonalizable flag mirrors the condensed
    matrix.

    The condensed solve is one `smalleig.eigensystem` call: twin blocks
    are deflated to their exact eigenvalues, and one LAPACK `eig` of
    the q x q quotient that remains (the d x d matrix when no blocks
    are twins), O(q^3), with SVD null spaces only for repeated or
    uncertified eigenvalues.  The reduced characteristic
    polynomial comes from the same eig.  Tolerance keywords are
    forwarded to it.
    """
    block_eigenvalues = block_eigenpairs(join)
    spec = smalleig.eigensystem(
        join.condensed(), cluster_delta=cluster_delta, sigma_tol=sigma_tol
    )
    condensed_chains = tuple(
        JordanChain(eigenvalue=lam, vectors=vecs)
        for lam, _, chains in spec.clusters
        for vecs in chains
    )
    return SpectralDecomposition(
        block_sizes=join.block_sizes,
        block_eigenvalues=block_eigenvalues,
        condensed_chains=condensed_chains,
        diagonalizable=all(len(ch) == 1 for ch in condensed_chains),
        char_poly=spec.char_poly,
        char_poly_bound=spec.char_poly_bound,
    )


def reduced_char_poly(join):
    """Monic degree-d polynomial whose roots are the non-block
    eigenvalues of the join: the characteristic polynomial of the
    condensed matrix.  Coefficients are returned highest degree first.

    One `smalleig.char_poly` call: one Vieta recurrence over the twin
    values and the eigenvalues of one `eig` of the quotient, O(q^3),
    and O(d^2) after it, with no Jordan chains.  A real
    join gets real coefficients.  When the condensed matrix has
    Gaussian-integer entries, as for graph joins, a coefficient is
    exact wherever its certified error bound is below 1/2; the others
    are accurate to that bound.  `full_spectrum` keeps the same
    coefficients and their bounds from its own eig.  Raises
    NumericalError when a coefficient overflows, and ConvergenceError
    when LAPACK does not converge.
    """
    coeffs, _ = smalleig.char_poly(join.condensed())
    return _finite_char_poly(coeffs)


def _finite_char_poly(coeffs):
    if not np.all(np.isfinite(coeffs)):
        raise NumericalError("a reduced_char_poly coefficient overflows")
    return coeffs
