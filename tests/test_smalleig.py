import math

import numpy as np
import pytest

from circjoin import smalleig
from circjoin.errors import (
    ConvergenceError,
    IllConditionedError,
    NumericalError,
    PreconditionError,
)

from corpus import inf_norm, mpmath_eigenvalues, multiset_match, unit_disk


def flat(pairs):
    out = []
    for lam, mult in pairs:
        out.extend([lam] * mult)
    return out


def random_complex_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_quadratic_closed_form():
    m = np.array([[1.0, 5.0], [3.0, 4.0]])
    vals = flat(smalleig.eigenvalues(m))
    hi = (5.0 + math.sqrt(69.0)) / 2.0
    lo = (5.0 - math.sqrt(69.0)) / 2.0
    multiset_match(vals, [hi, lo], 1e-12)
    # cross-check against trace and determinant
    assert abs(sum(vals) - 5.0) <= 1e-12
    assert abs(vals[0] * vals[1] - (-11.0)) <= 1e-12


def test_nilpotent_two_by_two():
    assert smalleig.eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]])) == [(0.0 + 0.0j, 2)]


def test_diagonal_matrices():
    vals = np.array([3.0 - 1.0j, -2.0, 0.5 + 0.5j, 7.0])
    pairs = smalleig.eigenvalues(np.diag(vals))
    multiset_match(flat(pairs), vals, 1e-12)
    assert smalleig.eigenvalues(np.diag([3.0, 3.0])) == [(3.0 + 0.0j, 2)]


@pytest.mark.parametrize("d", [3, 4, 5, 8, 12])
def test_matches_generic_solver_on_random(d):
    # 50-digit mpmath eigenvalues, not LAPACK, which smalleig itself calls
    rng = np.random.default_rng(400 + d)
    m = random_complex_matrix(rng, d)
    oracle = [complex(v) for v in mpmath_eigenvalues(m, 50)]
    multiset_match(flat(smalleig.eigenvalues(m)), oracle, 1e-12 * inf_norm(m))


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_similarity_invariance_under_unitary(d):
    rng = np.random.default_rng(500 + d)
    m = random_complex_matrix(rng, d)
    q, _ = np.linalg.qr(random_complex_matrix(rng, d))
    conj = q.conj().T @ m @ q
    multiset_match(
        flat(smalleig.eigenvalues(m)), flat(smalleig.eigenvalues(conj)), 1e-7
    )


@pytest.mark.parametrize("d", [1, 2, 3, 6, 10])
def test_trace_and_determinant_identities(d):
    rng = np.random.default_rng(600 + d)
    m = random_complex_matrix(rng, d)
    vals = flat(smalleig.eigenvalues(m))
    assert len(vals) == d
    assert abs(sum(vals) - np.trace(m)) <= 1e-9 * (1.0 + inf_norm(m))
    det = np.linalg.det(m)
    if abs(det) > 1e-8:
        assert abs(np.prod(vals) - det) <= 1e-7 * abs(det)


def test_permutation_matrix_needs_exceptional_shift():
    # cyclic shift matrices make plain Wilkinson-shift QR cycle
    p = np.zeros((5, 5))
    for i in range(5):
        p[i, (i - 1) % 5] = 1.0
    multiset_match(
        flat(smalleig.eigenvalues(p)),
        np.exp(2j * np.pi * np.arange(5) / 5),
        1e-9,
    )


def test_lapack_failure_is_a_convergence_error(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    with pytest.raises(ConvergenceError, match="did not converge"):
        smalleig.eigenvalues(np.eye(3))


def test_overflowing_cluster_mean_is_a_numerical_error():
    # 1e308 twice merges into one cluster whose sum overflows
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="overflows"):
        smalleig.eigenvalues(np.diag([1e308, 1e308]))


def test_inf_norm_overflow_is_a_numerical_error():
    # an infinite merge distance would report 1e308 and -1e308 as 0 x2
    m = np.array([[1e308, 1e308], [0.0, -1e308]])
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="inf-norm"):
        smalleig.eigenvalues(m)


def test_cluster_merges_nearby_values():
    pairs = smalleig._cluster(np.array([1.0, 1.0 + 1e-9, 5.0]), 1e-7)
    assert pairs == [((1.0 + 5e-10) + 0.0j, 2), (5.0 + 0.0j, 1)]


def reference_cluster(values, delta):
    """The plain greedy scan: every value is compared with every cluster."""
    values = np.asarray(values, dtype=np.complex128)
    order = np.lexsort((values.imag, values.real))
    sums = []
    counts = []
    for idx in order:
        v = values[idx]
        best = -1
        best_dist = np.inf
        for ci in range(len(sums)):
            dist = abs(v - sums[ci] / counts[ci])
            if dist <= delta and dist < best_dist:
                best = ci
                best_dist = dist
        if best < 0:
            sums.append(v)
            counts.append(1)
        else:
            sums[best] += v
            counts[best] += 1
    out = [(complex(sums[i] / counts[i]), counts[i]) for i in range(len(sums))]
    out.sort(key=lambda pair: (pair[0].real, pair[0].imag))
    return out


def assert_cluster_matches_reference(values, delta):
    got = smalleig._cluster(values, delta)
    want = reference_cluster(values, delta)
    # repr tells signed zeros apart, so this is a bit-for-bit comparison
    assert repr(got) == repr(want)
    assert sum(m for _, m in got) == len(values)


def cluster_corpus():
    """(values, delta) cases: random spectra, exact ties, equal real parts,
    tight clusters."""
    rng = np.random.default_rng(21)
    cases = []
    for delta in 10.0 ** np.arange(-12, 1):
        for size in (1, 7, 40, 150):
            centers = unit_disk(rng, max(1, size // 4))
            picks = centers[rng.integers(0, centers.size, size)]
            jitter = delta * rng.uniform(0, 2, size) * unit_disk(rng, size)
            cases.append((picks + jitter, delta))
            cases.append((unit_disk(rng, size), delta))
    for _ in range(30):
        size = int(rng.integers(2, 120))
        grid = (rng.integers(-6, 7, size) + 1j * rng.integers(-6, 7, size)) / 4.0
        cases.append((grid, 0.25))
        cases.append((grid, 0.5))
        cases.append((grid.real + 0.0j, 0.25))
    for delta in (1e-9, 1e-3, 0.3):
        for size in (5, 60, 200):
            cases.append((1j * rng.normal(size=size), delta))
            cases.append((3.0 + 1j * np.round(rng.normal(size=size), 1), delta))
    for delta in (1e-10, 1e-6, 1e-2):
        values = []
        for size in rng.integers(1, 61, 12):
            center = 10.0 * unit_disk(rng, 1)[0]
            values.extend(center + 1e-3 * delta * unit_disk(rng, int(size)))
        cases.append((np.array(values), delta))
    return cases


def test_cluster_matches_reference_scan_on_corpus():
    for values, delta in cluster_corpus():
        assert_cluster_matches_reference(values, delta)


@pytest.mark.parametrize("seed", [0, 1])
def test_cluster_matches_reference_scan_on_block_report(seed):
    # the report's own setting: one 2048-block, delta 1e-9 * (1 + max |v|)
    rng = np.random.default_rng(seed)
    lam = np.fft.fft(rng.uniform(-1.0, 1.0, 2048))[1:]
    assert_cluster_matches_reference(lam, 1e-9 * (1.0 + np.abs(lam).max()))


def test_cluster_matches_reference_scan_on_ring_block():
    # a symmetric ring has every eigenvalue twice (j and k - j)
    v = np.zeros(2048)
    v[[1, 2, 3, -3, -2, -1]] = 1.0
    lam = np.fft.fft(v)[1:]
    assert_cluster_matches_reference(lam, 1e-9 * (1.0 + np.abs(lam).max()))


def chain_relations_hold(m, lam, chains, tol):
    e = m - lam * np.eye(m.shape[0])
    for chain in chains:
        assert np.abs(e @ chain[0]).max() <= tol
        for r in range(1, len(chain)):
            assert np.abs(e @ chain[r] - chain[r - 1]).max() <= tol


def test_jordan_single_block_two():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    chains = smalleig.jordan_chains(m, 0.0, 2)
    assert [len(c) for c in chains] == [2]
    chain_relations_hold(m, 0.0, chains, 1e-12)
    # the eigenvector is along e1, the generalized vector along e2
    u1, u2 = chains[0]
    assert abs(u1[1]) <= 1e-12
    assert abs(u2[0]) <= 1e-12


def test_jordan_diagonal_repeated():
    chains = smalleig.jordan_chains(np.diag([3.0, 3.0]), 3.0, 2)
    assert sorted(len(c) for c in chains) == [1, 1]
    vecs = np.vstack([c[0] for c in chains])
    assert abs(np.linalg.det(vecs)) > 0.5  # spans C^2


def test_jordan_simple_eigenvalue_residual():
    m = np.array([[1.0, 5.0], [3.0, 4.0]])
    lam = (5.0 + math.sqrt(69.0)) / 2.0
    chains = smalleig.jordan_chains(m, lam, 1)
    assert [len(c) for c in chains] == [1]
    chain_relations_hold(m, lam, chains, 1e-10)


def test_jordan_third_order_block():
    lam = 0.75 - 0.25j
    m = lam * np.eye(3) + np.diag([1.0, 1.0], k=1)
    chains = smalleig.jordan_chains(m, lam, 3)
    assert [len(c) for c in chains] == [3]
    chain_relations_hold(m, lam, chains, 1e-10)


def test_jordan_mixed_structure():
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    chains = smalleig.jordan_chains(m, 0.0, 3)
    assert sorted(len(c) for c in chains) == [1, 2]
    chain_relations_hold(m, 0.0, chains, 1e-10)
    stacked = np.hstack([c.T for c in chains])
    assert np.linalg.svd(stacked, compute_uv=False)[-1] >= 1e-6


@pytest.mark.parametrize("s", [-150, -60, 0, 60, 150])
def test_jordan_chains_scale_with_the_matrix(s):
    # a length-3 chain plus an eigenvector: structure and normalized
    # vectors are the same at every power-of-two scale
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 2] = 1.0
    m[0, 3] = 0.5
    ref = smalleig.jordan_chains(m, 0.0, 4)
    scale = 2.0**s
    chains = smalleig.jordan_chains(m * scale, 0.0, 4)
    assert [len(c) for c in chains] == [len(c) for c in ref] == [3, 1]
    chain_relations_hold(m * scale, 0.0, chains, 1e-14 * scale)
    for got, want in zip(chains, ref):
        # link r of a chain of (scale * M) is scale^-r times that of M
        powers = scale ** -np.arange(len(want), dtype=float)
        expect = want * powers[:, None]
        expect /= np.linalg.norm(expect, axis=1).max()
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-15)


def test_jordan_chain_underflow_is_ill_conditioned():
    # a length-3 chain of a matrix of norm 1e200 needs a link of 1e-400
    m = 1e200 * np.diag([1.0, 1.0], k=1)
    with pytest.raises(IllConditionedError, match="underflow"):
        smalleig.jordan_chains(m, 0.0, 3)


def test_jordan_lapack_failure_is_ill_conditioned(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(IllConditionedError, match="SVD did not converge"):
        smalleig.jordan_chains(np.eye(2), 1.0, 2)


def test_jordan_inconsistent_multiplicity_errors():
    with pytest.raises(IllConditionedError):
        smalleig.jordan_chains(np.diag([1.0, 2.0]), 1.0, 2)


def test_jordan_rejects_bad_multiplicity():
    with pytest.raises(PreconditionError):
        smalleig.jordan_chains(np.eye(2), 1.0, 3)


def test_rejects_non_square():
    with pytest.raises(PreconditionError):
        smalleig.eigenvalues(np.ones((2, 3)))
    with pytest.raises(PreconditionError):
        smalleig.eigenvalues(np.array([[np.inf, 0.0], [0.0, 1.0]]))
