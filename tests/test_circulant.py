import mpmath
import numpy as np
import pytest

from circjoin import (
    CirculantMatrix,
    JoinSpec,
    dft_matrix,
    fourier_modes,
    fourier_vector,
    root_of_unity_powers,
)
from circjoin.errors import PreconditionError

from corpus import inf_norm, multiset_match, unit_disk


def test_single_entry_eigenpair():
    pairs = CirculantMatrix([2.0]).eigenpairs()
    assert len(pairs) == 1
    lam, vec = pairs[0]
    assert lam == 2.0
    assert np.array_equal(vec, np.array([1.0 + 0.0j]))


def test_scaled_identity_eigenvalues():
    eig = CirculantMatrix([2.0, 0.0, 0.0, 0.0]).eigenvalues()
    assert np.array_equal(eig, np.full(4, 2.0 + 0.0j))


def test_alternating_four_eigenvalues():
    c = CirculantMatrix([0.0, 1.0, 0.0, 1.0])
    eig = c.eigenvalues()
    np.testing.assert_allclose(eig, [2.0, 0.0, -2.0, 0.0], atol=1e-12)
    # brute-force oracle: dense expansion and a generic eigensolver
    multiset_match(eig, np.linalg.eigvals(c.dense()), 1e-10)


@pytest.mark.parametrize("k", range(1, 17))
def test_eigenpair_residuals_random(k):
    rng = np.random.default_rng(100 + k)
    c = CirculantMatrix(unit_disk(rng, k))
    a = c.dense()
    tol = 1e-9 * (1.0 + inf_norm(a))
    for lam, vec in c.eigenpairs():
        assert np.abs(a @ vec - lam * vec).max() <= tol


@pytest.mark.parametrize("k", range(1, 17))
def test_trace_identities_random(k):
    rng = np.random.default_rng(200 + k)
    c = CirculantMatrix(unit_disk(rng, k))
    a = c.dense()
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


@pytest.mark.parametrize("k", [1, 2, 5, 64])
def test_matvec_matches_dense(k):
    # a one-block join acts as its circulant block
    rng = np.random.default_rng(600 + k)
    c = CirculantMatrix(unit_disk(rng, k))
    spec = JoinSpec([c])
    a = c.dense()
    tol = 1e-13 * (1.0 + inf_norm(a))
    x = unit_disk(rng, k)
    assert np.abs(spec.matvec(x) - a @ x).max() <= tol
    xs = unit_disk(rng, (k, 3))
    assert np.abs(spec.matvec(xs) - a @ xs).max() <= tol


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
    assert np.array_equal(CirculantMatrix([2.5]).dense(), np.array([[2.5 + 0j]]))
    shift = CirculantMatrix([0, 1, 0]).dense().real
    assert np.array_equal(shift, np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    k3 = CirculantMatrix([0, 1, 1]).dense().real
    assert np.array_equal(k3, np.ones((3, 3)) - np.eye(3))


def test_dense_first_column_roundtrip():
    rng = np.random.default_rng(7)
    v = unit_disk(rng, 9)
    assert np.array_equal(CirculantMatrix(v).dense()[:, 0], v)


def test_fourier_vector_entries():
    k = 7
    powers = root_of_unity_powers(k)
    for j in range(k):
        v = fourier_vector(k, j)
        np.testing.assert_allclose(np.abs(v), 1.0, rtol=0, atol=1e-14)
        direct = np.exp(2j * np.pi * np.arange(k) * j / k)
        np.testing.assert_allclose(v, direct, atol=1e-12)
        assert v[1] == powers[j % k]


def test_fourier_modes_are_fourier_vectors_bit_for_bit():
    for k in (1, 2, 7, 12, 97):
        modes = fourier_modes(k, np.arange(k))
        assert modes.shape == (k, k)
        for j in range(k):
            table = root_of_unity_powers(k)[(np.arange(k) * j) % k]
            assert modes[:, j].tobytes() == table.tobytes()
            assert fourier_vector(k, j).tobytes() == table.tobytes()


@pytest.mark.parametrize("k", range(1, 17))
def test_dft_matrix_determinant(k):
    e = dft_matrix(k)
    det = np.linalg.det(e)
    assert abs(det) >= 1e-6
    assert abs(abs(det) - k ** (k / 2.0)) <= 1e-9 * k ** (k / 2.0)
    # unitary up to scaling: E^H E = k I
    np.testing.assert_allclose(
        e.conj().T @ e, k * np.eye(k), atol=1e-9 * (1 + k * k)
    )


def test_invalid_inputs():
    with pytest.raises(PreconditionError):
        CirculantMatrix([])
    with pytest.raises(PreconditionError):
        CirculantMatrix([[1, 2], [3, 4]])
    with pytest.raises(PreconditionError):
        CirculantMatrix([np.nan])
    with pytest.raises(PreconditionError):
        fourier_vector(4, 4)
    with pytest.raises(PreconditionError):
        root_of_unity_powers(0)


def test_vector_is_read_only():
    c = CirculantMatrix([0, 1, 0])
    with pytest.raises(ValueError):
        c.vector[0] = 5.0
