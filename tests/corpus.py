"""Shared generators and oracle helpers for the test suite."""

import mpmath
import numpy as np

from circjoin import CirculantMatrix, JoinSpec, JordanChain


def inf_norm(a):
    a = np.atleast_2d(np.asarray(a))
    return float(np.abs(a).sum(axis=1).max())


def unit_disk(rng, size):
    """Complex samples uniform on the unit disk."""
    r = np.sqrt(rng.uniform(0.0, 1.0, size))
    phase = rng.uniform(0.0, 2.0 * np.pi, size)
    return r * np.exp(1j * phase)


def random_circulant(rng, k):
    return CirculantMatrix(unit_disk(rng, k))


def random_join(rng, dmax=5, kmax=8):
    """Random join with complex entries in the unit disk."""
    d = int(rng.integers(1, dmax + 1))
    blocks = [random_circulant(rng, int(rng.integers(1, kmax + 1))) for _ in range(d)]
    couplings = unit_disk(rng, (d, d))
    return JoinSpec(blocks, couplings)


def random_real_join(rng, dmax=5, kmax=8, unit_couplings=False):
    d = int(rng.integers(1, dmax + 1))
    blocks = [
        CirculantMatrix(rng.uniform(-1.0, 1.0, int(rng.integers(1, kmax + 1))))
        for _ in range(d)
    ]
    if unit_couplings:
        couplings = np.ones((d, d))
    else:
        couplings = rng.uniform(-1.0, 1.0, (d, d))
    return JoinSpec(blocks, couplings)


def lifted_chains(decomposition):
    """The join's Jordan chains: each condensed chain with every vector's
    coordinate i repeated k_i times."""
    return [
        JordanChain(ch.eigenvalue, np.repeat(ch.vectors, decomposition.block_sizes, axis=1))
        for ch in decomposition.condensed_chains
    ]


def padded_fourier_mode(n, start, k, j):
    """The n-vector holding exp(2 pi i m j / k) at row start + m, m < k,
    and zeros elsewhere."""
    v = np.zeros(n, dtype=np.complex128)
    v[start : start + k] = np.exp(2j * np.pi * ((j * np.arange(k)) % k) / k)
    return v


def fourier_matrix(k):
    """The k x k matrix whose column j is the Fourier mode
    exp(2 pi i ((m j) mod k) / k), m = 0..k-1."""
    m = np.arange(k)
    return np.exp(2j * np.pi * (np.outer(m, m) % k) / k)


def dense_circulant(c):
    """The k x k circulant with first column c: entry (r, s) is
    c_{(r - s) mod k}."""
    c = np.asarray(c)
    k = c.shape[0]
    return c[(np.arange(k)[:, None] - np.arange(k)) % k]


def dense_join(spec):
    """The n x n matrix of a join: block i's circulant on the diagonal
    and the constant a_ij filling off-diagonal block (i, j)."""
    sizes = spec.block_sizes
    a = np.repeat(np.repeat(spec.couplings, sizes, axis=0), sizes, axis=1)
    start = 0
    for block, k in zip(spec.blocks, sizes):
        a[start : start + k, start : start + k] = dense_circulant(block.vector)
        start += k
    return a


def condensed_vectors(decomposition):
    """The matrix X whose columns are the condensed chain vectors,
    chains in order, each from u_1 up."""
    return np.array([u for ch in decomposition.condensed_chains for u in ch.vectors]).T


def eigenbasis(decomposition):
    """The join's generalized eigenvectors as columns, block by block:
    the lifted condensed vector i, then block i's Fourier modes
    j = 1..k_i - 1 on its rows.  In this order |det| factors as
    prod_i |det E_{k_i}| * |det X|, with X from `condensed_vectors`."""
    n = decomposition.n
    lifted = [u for ch in lifted_chains(decomposition) for u in ch.vectors]
    cols = []
    start = 0
    for u, k in zip(lifted, decomposition.block_sizes):
        cols.append(u)
        cols.extend(padded_fourier_mode(n, start, k, j) for j in range(1, k))
        start += k
    return np.array(cols).T


def fourier_pairs(decomposition):
    """(eigenvalue, eigenvector) of every block eigenpair of a
    decomposition, the vector built here from the block sizes alone."""
    n = decomposition.n
    start = 0
    for k, lams in zip(decomposition.block_sizes, decomposition.block_eigenvalues):
        for j, lam in enumerate(lams.tolist(), 1):
            yield lam, padded_fourier_mode(n, start, k, j)
        start += k


def dense_decomposition_residual(a, decomposition):
    """Oracle residual: checks every eigenpair and chain link densely."""
    n = a.shape[0]
    worst = 0.0
    for lam, v in fourier_pairs(decomposition):
        worst = max(worst, np.abs(a @ v - lam * v).max())
    for chain in lifted_chains(decomposition):
        shifted = a - chain.eigenvalue * np.eye(n)
        prev = np.zeros(n, dtype=np.complex128)
        for u in chain.vectors:
            worst = max(worst, np.abs(shifted @ u - prev).max())
            prev = u
    return float(worst)


def mpmath_eigenvalues(a, dps=50):
    """Eigenvalues of a square matrix at dps digits, as mpmath numbers."""
    with mpmath.workdps(dps):
        # [0] picks the eigenvalues for every size; mpmath returns a
        # 3-tuple for 1 x 1 input
        return mpmath.eig(mpmath.matrix(np.asarray(a).tolist()))[0]


def multiset_match(actual, expected, tol):
    """Greedy nearest pairing of two eigenvalue multisets.

    Asserts equal sizes and that every actual value finds a distinct
    expected partner within tol; returns the largest paired distance.
    """
    actual = [complex(v) for v in actual]
    pool = [complex(v) for v in expected]
    assert len(actual) == len(pool), (len(actual), len(pool))
    worst = 0.0
    for v in sorted(actual, key=lambda z: (z.real, z.imag)):
        dists = [abs(v - w) for w in pool]
        best = int(np.argmin(dists))
        assert dists[best] <= tol, (v, pool[best], dists[best])
        worst = max(worst, dists[best])
        pool.pop(best)
    return worst


def defective_joins():
    """Hand-built joins whose condensed matrices are defective.

    Upper-triangular coupling patterns keep the condensed matrix exactly
    triangular, so the Jordan structure is unambiguous.
    """
    cases = []
    # 2x2 nilpotent: single chain of length 2
    cases.append(JoinSpec([CirculantMatrix([0.0])] * 2, [[0.0, 1.0], [0.0, 0.0]]))
    # 3x3 single chain of length 3 (strictly upper triangular condensed)
    cases.append(
        JoinSpec(
            [CirculantMatrix([0.0])] * 3,
            [[0.0, 1.0, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
        )
    )
    # repeated eigenvalue, chain lengths 2 + 1
    cases.append(
        JoinSpec(
            [CirculantMatrix([0.5])] * 3,
            [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        )
    )
    # defective block with nontrivial circulant parts
    cases.append(
        JoinSpec(
            [CirculantMatrix([0.0, 1.0, 1.0]), CirculantMatrix([0.0, 1.0, 0.0, 1.0])],
            [[0.0, 0.5], [0.0, 0.0]],
        )
    )
    return cases


def structured_corpus():
    """Joins for structured-vs-dense checks: random complex and real joins,
    the defective cases, degenerate ring joins and a few larger blocks."""
    rng = np.random.default_rng(77)
    cases = [random_join(rng) for _ in range(25)]
    cases += [random_real_join(rng) for _ in range(10)]
    cases += defective_joins()
    # mixed, repeated and interleaved block sizes, drawn from their own
    # stream so the cases around them stay as they were
    mixed = np.random.default_rng(78)
    for sizes in ([3, 5, 3, 1, 5, 8], [1, 4, 1, 4, 1], [37, 64, 2, 37, 64]):
        d = len(sizes)
        cases.append(
            JoinSpec([random_circulant(mixed, k) for k in sizes], unit_disk(mixed, (d, d)))
        )
    cases.append(
        JoinSpec(
            [CirculantMatrix(mixed.uniform(-1.0, 1.0, k)) for k in (3, 5, 3, 1, 5, 8)],
            mixed.uniform(-1.0, 1.0, (6, 6)),
        )
    )
    ring = CirculantMatrix([0.0, 1.0, 0.0, 0.0, 0.0, 1.0])
    cases.append(JoinSpec([ring] * 8, np.ones((8, 8))))
    cases.append(JoinSpec([CirculantMatrix(unit_disk(rng, 300))]))
    cases.append(
        JoinSpec(
            [random_circulant(rng, k) for k in (64, 1, 37, 128)],
            unit_disk(rng, (4, 4)),
        )
    )
    return cases
