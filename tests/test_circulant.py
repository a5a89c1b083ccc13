import mpmath
import numpy as np
import pytest

from circjoin import CirculantMatrix, JoinSpec, root_of_unity_powers
from circjoin.errors import PreconditionError

from corpus import dense_circulant, fourier_matrix, inf_norm, multiset_match, unit_disk


def test_single_entry_eigenpair():
    c = CirculantMatrix([2.0])
    assert np.array_equal(c.eigenvalues(), np.array([2.0 + 0.0j]))
    assert np.array_equal(fourier_matrix(1), np.array([[1.0 + 0.0j]]))
    assert np.array_equal(dense_circulant(c.vector) @ fourier_matrix(1), [[2.0 + 0.0j]])


def test_scaled_identity_eigenvalues():
    eig = CirculantMatrix([2.0, 0.0, 0.0, 0.0]).eigenvalues()
    assert np.array_equal(eig, np.full(4, 2.0 + 0.0j))


def test_alternating_four_eigenvalues():
    c = CirculantMatrix([0.0, 1.0, 0.0, 1.0])
    eig = c.eigenvalues()
    np.testing.assert_allclose(eig, [2.0, 0.0, -2.0, 0.0], atol=1e-12)
    # brute-force oracle: dense expansion and a generic eigensolver
    multiset_match(eig, np.linalg.eigvals(dense_circulant(c.vector)), 1e-10)


@pytest.mark.parametrize("k", range(1, 17))
def test_eigenpair_residuals_random(k):
    rng = np.random.default_rng(100 + k)
    c = CirculantMatrix(unit_disk(rng, k))
    a = dense_circulant(c.vector)
    tol = 1e-9 * (1.0 + inf_norm(a))
    for lam, vec in zip(c.eigenvalues(), fourier_matrix(k).T):
        assert np.abs(a @ vec - lam * vec).max() <= tol


@pytest.mark.parametrize("k", range(1, 17))
def test_trace_identities_random(k):
    rng = np.random.default_rng(200 + k)
    c = CirculantMatrix(unit_disk(rng, k))
    a = dense_circulant(c.vector)
    eig = c.eigenvalues()
    tol = 1e-9 * (1.0 + inf_norm(a) ** 2)
    assert abs(eig.sum() - np.trace(a)) <= tol
    assert abs((eig**2).sum() - np.trace(a @ a)) <= tol


def direct_sum_eigenvalues(c):
    """Reference O(k^2) evaluation c_0 + c_{k-1} w^j + ... + c_1 w^{(k-1)j},
    with the w-powers read from the table mod k."""
    k = c.shape[0]
    powers = root_of_unity_powers(k)
    lam = np.full(k, c[0], dtype=np.complex128)
    j = np.arange(k)
    for m in range(1, k):
        lam += c[k - m] * powers[(m * j) % k]
    return lam


@pytest.mark.parametrize("k", [1, 2, 3, 8, 31, 128])
def test_fft_eigenvalues_match_direct_sum(k):
    rng = np.random.default_rng(400 + k)
    c = rng.normal(size=k) + 1j * rng.normal(size=k)
    got = CirculantMatrix(c).eigenvalues()
    tol = 1e-13 * np.abs(c).sum()
    assert np.abs(got - direct_sum_eigenvalues(c)).max() <= tol


@pytest.mark.parametrize("k", range(1, 17))
def test_fft_eigenvalues_match_mpmath(k):
    rng = np.random.default_rng(500 + k)
    c = unit_disk(rng, k)
    got = CirculantMatrix(c).eigenvalues()
    tol = 1e-13 * np.abs(c).sum()
    with mpmath.workdps(50):
        cm = [mpmath.mpc(z.real, z.imag) for z in c]
        for j in range(k):
            exact = mpmath.fsum(
                cm[m] * mpmath.expjpi(mpmath.mpf(-2 * m * j) / k) for m in range(k)
            )
            assert abs(complex(exact) - got[j]) <= tol


@pytest.mark.parametrize("k", [*range(1, 71), 128, 2048])
def test_stacked_fft_is_the_per_row_fft_bit_for_bit(k):
    # A join transforms each block size's stacked defining vectors in one
    # call, and --verify each stack at length 2k; every printed bit rests
    # on both being exactly the transforms of the rows one at a time.
    rng = np.random.default_rng(k)
    for g in (1, 2, 7, 64):
        v = unit_disk(rng, (g, k))
        v[g // 2 :] = v[0]  # equal rows as well as distinct ones
        rows = np.array([np.fft.fft(row) for row in v])
        assert np.fft.fft(v, axis=1).tobytes() == rows.tobytes()
        rows = np.array([np.fft.fft(row, 2 * k)[::2] for row in v])
        assert np.fft.fft(v, 2 * k, axis=1)[:, ::2].tobytes() == rows.tobytes()


@pytest.mark.parametrize("k", [1, 2, 5, 64])
def test_matvec_matches_dense(k):
    # a one-block join acts as its circulant block
    rng = np.random.default_rng(600 + k)
    c = CirculantMatrix(unit_disk(rng, k))
    spec = JoinSpec([c])
    a = dense_circulant(c.vector)
    tol = 1e-13 * (1.0 + inf_norm(a))
    x = unit_disk(rng, k)
    assert np.abs(spec.matvec(x) - a @ x).max() <= tol


def test_row_sum_examples():
    assert CirculantMatrix([0, 1, 1]).row_sum() == 2.0
    assert CirculantMatrix([0, 1, 0]).row_sum() == 1.0
    assert CirculantMatrix([1 + 1j, 2 - 1j]).row_sum() == 3.0 + 0.0j


@pytest.mark.parametrize("k", [1, 2, 3, 7, 12])
def test_row_sum_is_zero_mode_exactly(k):
    rng = np.random.default_rng(300 + k)
    c = CirculantMatrix(unit_disk(rng, k))
    assert c.row_sum() == c.eigenvalues()[0]


def test_dense_examples():
    assert np.array_equal(dense_circulant(CirculantMatrix([2.5]).vector), [[2.5 + 0j]])
    shift = dense_circulant(CirculantMatrix([0, 1, 0]).vector).real
    assert np.array_equal(shift, np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    k3 = dense_circulant(CirculantMatrix([0, 1, 1]).vector).real
    assert np.array_equal(k3, np.ones((3, 3)) - np.eye(3))


def test_dense_first_column_roundtrip():
    rng = np.random.default_rng(7)
    v = unit_disk(rng, 9)
    assert np.array_equal(dense_circulant(CirculantMatrix(v).vector)[:, 0], v)


def test_root_of_unity_powers_entries():
    k = 7
    powers = root_of_unity_powers(k)
    np.testing.assert_allclose(np.abs(powers), 1.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(powers, np.exp(2j * np.pi * np.arange(k) / k), atol=1e-12)
    # the table is the first-row step of every Fourier mode
    assert np.array_equal(fourier_matrix(k)[1], powers)


def test_invalid_inputs():
    with pytest.raises(PreconditionError):
        CirculantMatrix([])
    with pytest.raises(PreconditionError):
        CirculantMatrix([[1, 2], [3, 4]])
    with pytest.raises(PreconditionError):
        CirculantMatrix([np.nan])
    with pytest.raises(PreconditionError):
        root_of_unity_powers(0)


def test_signed_zeros_hash_equal():
    for zero in (-0.0, complex(0.0, -0.0)):
        a, b = CirculantMatrix([1, 0, 0]), CirculantMatrix([1, zero, 0])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_vector_is_read_only():
    c = CirculantMatrix([0, 1, 0])
    with pytest.raises(ValueError):
        c.vector[0] = 5.0
