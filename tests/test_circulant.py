import sys

import mpmath
import numpy as np
import pytest

from circjoin import JoinSpec, root_of_unity_powers
from circjoin.errors import PreconditionError
from circjoin.graphs import ring_graph

from corpus import (
    complex_spectrum,
    dense_circulant,
    fourier_matrix,
    inf_norm,
    multiset_match,
    real_spectrum,
    structured_corpus,
    unit_disk,
)


def layout_rows(vectors):
    """Each block's eigenvalues, in block order, read where the program
    computes them: the block's row of its size group's stacked FFT in
    `JoinSpec(vectors).layout()`."""
    rows = [None] * len(vectors)
    for group in JoinSpec(vectors).layout().groups:
        for i, row in zip(group.ids.tolist(), group.eigenvalues):
            rows[i] = row
    return rows


def stacked_blocks(draw, k):
    """Three distinct defining vectors of size k around one of size
    k + 1, so that the oracles check rows of a stacked size group of
    three blocks as well as a group of one."""
    return [draw(k), draw(k + 1), draw(k), draw(k)]


def test_single_entry_eigenpair():
    c = [2.0]
    assert np.array_equal(layout_rows([c])[0], np.array([2.0 + 0.0j]))
    assert np.array_equal(fourier_matrix(1), np.array([[1.0 + 0.0j]]))
    assert np.array_equal(dense_circulant(c) @ fourier_matrix(1), [[2.0 + 0.0j]])


def test_scaled_identity_eigenvalues():
    eig = layout_rows([[2.0, 0.0, 0.0, 0.0]])[0]
    assert np.array_equal(eig, np.full(4, 2.0 + 0.0j))


def test_alternating_four_eigenvalues():
    c = [0.0, 1.0, 0.0, 1.0]
    eig = layout_rows([c])[0]
    np.testing.assert_allclose(eig, [2.0, 0.0, -2.0, 0.0], atol=1e-12)
    # brute-force oracle: dense expansion and a generic eigensolver
    multiset_match(eig, np.linalg.eigvals(dense_circulant(c)), 1e-10)


@pytest.mark.parametrize("k", range(1, 17))
def test_eigenpair_residuals_random(k):
    rng = np.random.default_rng(100 + k)
    vectors = stacked_blocks(lambda m: unit_disk(rng, m), k)
    for c, eig in zip(vectors, layout_rows(vectors)):
        a = dense_circulant(c)
        tol = 1e-9 * (1.0 + inf_norm(a))
        for lam, vec in zip(eig, fourier_matrix(c.size).T):
            assert np.abs(a @ vec - lam * vec).max() <= tol


@pytest.mark.parametrize("k", range(1, 17))
def test_trace_identities_random(k):
    rng = np.random.default_rng(200 + k)
    vectors = stacked_blocks(lambda m: unit_disk(rng, m), k)
    for c, eig in zip(vectors, layout_rows(vectors)):
        a = dense_circulant(c)
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
    vectors = stacked_blocks(lambda m: rng.normal(size=m) + 1j * rng.normal(size=m), k)
    for c, got in zip(vectors, layout_rows(vectors)):
        tol = 1e-13 * np.abs(c).sum()
        assert np.abs(got - direct_sum_eigenvalues(c)).max() <= tol


@pytest.mark.parametrize("k", range(1, 17))
def test_fft_eigenvalues_match_mpmath(k):
    rng = np.random.default_rng(500 + k)
    vectors = stacked_blocks(lambda m: unit_disk(rng, m), k)
    with mpmath.workdps(50):
        for c, got in zip(vectors, layout_rows(vectors)):
            tol = 1e-13 * np.abs(c).sum()
            cm = [mpmath.mpc(z.real, z.imag) for z in c]
            size = len(cm)
            for j in range(size):
                exact = mpmath.fsum(
                    cm[m] * mpmath.expjpi(mpmath.mpf(-2 * m * j) / size)
                    for m in range(size)
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


def real_joins():
    """Every join of the corpus whose blocks are all real, and one with
    blocks of sizes 1, 2, odd and even, symmetric and not, beside a
    size group of 2048."""
    rng = np.random.default_rng(800)
    sizes = (1, 2, 7, 2048, 8, 2048, 9)
    blocks = [rng.uniform(-1.0, 1.0, k) for k in sizes]
    for c in blocks[4:]:
        c[1:] += c[:0:-1].copy()  # symmetric: c_m == c_(k-m)
    joins = [spec for spec in structured_corpus() if not spec.vector.imag.any()]
    return [*joins, JoinSpec(blocks, np.ones((7, 7)))]


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def test_real_blocks_have_exact_conjugate_pairs():
    # lambda_(k-j) == conj(lambda_j) bit for bit; the self-conjugate
    # indices 0 and k/2, and every index of a symmetric block, have an
    # imaginary part of +0.0
    symmetric = 0
    for spec in real_joins():
        for group in spec.layout().groups:
            lam = group.eigenvalues
            k = lam.shape[1]
            mirror = lam[:, (-np.arange(k)) % k]
            assert np.array_equal(bits(mirror.real), bits(lam.real))
            for c, row, back in zip(spec.vector[group.rows].real, lam, mirror):
                if all(c[m] == c[k - m] for m in range(1, k)):
                    symmetric += k > 2
                    assert np.all(bits(row.imag) == 0)
                    continue
                paired = np.arange(k) * 2 % k != 0  # j != k - j
                assert np.array_equal(bits(back.imag)[paired], bits(-row.imag)[paired])
                assert bits(row[0].imag) == 0
                assert k % 2 or bits(row[k // 2].imag) == 0
    assert symmetric >= 4


def test_real_blocks_match_the_complex_transform_within_ulps():
    eps = np.finfo(np.float64).eps
    for spec in real_joins():
        for c, k in zip(spec.blocks, spec.block_sizes):
            lam = JoinSpec([c]).layout().groups[0].eigenvalues[0]
            tol = 2.0 * eps * k * np.abs(c).sum()
            assert np.abs(lam - np.fft.fft(c)).max() <= tol
            assert lam.tobytes() == real_spectrum(c).tobytes()


def assert_matches_mpmath_dft(vectors, rows):
    """Each row is the DFT of its block's vector within 1e-13 ||c||_1,
    against a 50-digit mpmath sum."""
    with mpmath.workdps(50):
        for c, lam in zip(vectors, rows):
            k = len(c)
            tol = 1e-13 * np.abs(c).sum()
            for j in range(k):
                exact = mpmath.fsum(
                    mpmath.mpc(complex(c[m])) * mpmath.expjpi(mpmath.mpf(-2 * m * j) / k)
                    for m in range(k)
                )
                assert abs(complex(exact) - lam[j]) <= tol


@pytest.mark.parametrize("k", [1, 2, 7, 8, 15])
def test_real_blocks_match_mpmath(k):
    rng = np.random.default_rng(900 + k)
    plain = rng.uniform(-1.0, 1.0, k)
    symmetric = plain.copy()
    symmetric[1:] += plain[:0:-1]
    got = layout_rows([plain, symmetric])
    assert_matches_mpmath_dft((plain, symmetric), got)
    assert np.all(bits(got[1].imag) == 0)


def hermitian_block(rng, k):
    """A complex defining vector with c_0 real and c_(k-m) == conj(c_m)
    bit for bit: u_m + conj(u_(k-m)), since addition commutes exactly."""
    u = unit_disk(rng, k)
    return u + np.conj(u[(-np.arange(k)) % k])


@pytest.mark.parametrize("k", [1, 2, 7, 8, 15])
def test_hermitian_blocks_in_complex_joins_match_mpmath(k):
    # a complex Hermitian block and a real symmetric one beside a complex
    # block: the complex transform, with imaginary parts of +0.0
    rng = np.random.default_rng(950 + k)
    symmetric = rng.uniform(-1.0, 1.0, k)
    symmetric[1:] += symmetric[:0:-1].copy()
    vectors = [hermitian_block(rng, k), symmetric, unit_disk(rng, k)]
    got = layout_rows(vectors)
    assert_matches_mpmath_dft(vectors, got)
    assert np.all(bits(got[0].imag) == 0) and np.all(bits(got[1].imag) == 0)


def test_complex_joins_are_the_complex_transform_bit_for_bit():
    joins = [spec for spec in structured_corpus() if spec.vector.imag.any()]
    # real blocks in a join with complex ones take the complex transform;
    # a Hermitian block among them, real symmetric or complex, keeps its
    # real parts and has imaginary parts of +0.0, where np.fft.fft leaves
    # rounding; a block whose c_0 is not real is not Hermitian
    rng = np.random.default_rng(940)
    hermitian = hermitian_block(rng, 12)
    symmetric = rng.uniform(-1.0, 1.0, 12)
    symmetric[1:] += symmetric[:0:-1].copy()
    for c in (hermitian, symmetric):
        assert np.fft.fft(c + 0j).imag.any()
    not_hermitian = hermitian + np.eye(12)[0] * 0.5j
    joins.append(JoinSpec([[0.0, 1.0, 2.0], [1.0, 1j, 0.0], [4.0, 1.0, 1.0], hermitian,
                           not_hermitian, symmetric, [2.0, 1 + 1j, 1 - 1j]]))
    for spec in joins:
        for group in spec.layout().groups:
            for i, row in zip(group.ids.tolist(), group.eigenvalues):
                c = spec.blocks[i]
                assert row.real.tobytes() == np.fft.fft(c).real.tobytes()
                assert row.tobytes() == complex_spectrum(c).tobytes()
    rows = layout_rows(joins[-1].blocks)
    assert not rows[3].imag.any() and not rows[5].imag.any() and rows[4].imag.any()


def test_ring_blocks_beside_a_complex_block_have_real_spectra():
    # the undirected ring's closed form 2 sum_l cos(2 pi j l / k), l = 1..m
    rng = np.random.default_rng(960)
    rings = [ring_graph(k, m).connection_vector for k, m in ((12, 3), (9, 2), (12, 5))]
    got = layout_rows([rings[0], unit_disk(rng, 12), *rings[1:]])
    for c, lam in zip(rings, got[:1] + got[2:]):
        k, m = len(c), int(c.sum()) // 2
        angles = 2.0 * np.pi * np.outer(np.arange(k), np.arange(1, m + 1)) / k
        closed = 2.0 * np.cos(angles).sum(axis=1)
        assert np.all(bits(lam.imag) == 0)
        assert np.abs(lam.real - closed).max() <= 1e-13 * 2 * m


def test_joins_with_no_real_c0_skip_the_hermitian_test(monkeypatch):
    # a block is Hermitian only when its c_0 is real, so a join of random
    # complex blocks makes no per-block test
    def refused(c):
        raise AssertionError("_hermitian called")

    monkeypatch.setattr(sys.modules[JoinSpec.__module__], "_hermitian", refused)
    rng = np.random.default_rng(970)
    spec = JoinSpec([unit_disk(rng, k) for k in (3, 1, 4, 3)], unit_disk(rng, (4, 4)))
    for group in spec.layout().groups:
        for i, row in zip(group.ids.tolist(), group.eigenvalues):
            assert row.tobytes() == np.fft.fft(spec.blocks[i]).tobytes()


@pytest.mark.parametrize("k", [1, 2, 5, 64])
def test_matvec_matches_dense(k):
    # a one-block join acts as its circulant block
    rng = np.random.default_rng(600 + k)
    c = unit_disk(rng, k)
    spec = JoinSpec([c])
    a = dense_circulant(c)
    tol = 1e-13 * (1.0 + inf_norm(a))
    x = unit_disk(rng, k)
    assert np.abs(spec.matvec(x) - a @ x).max() <= tol


def test_row_sum_examples():
    # the two blocks of size 3 share one stacked FFT
    spec = JoinSpec([[0, 1, 1], [1 + 1j, 2 - 1j], [0, 1, 0]])
    assert spec.layout().row_sums.tolist() == [2.0, 3.0 + 0.0j, 1.0]


@pytest.mark.parametrize("k", [1, 2, 3, 7, 12])
def test_row_sum_is_zero_mode_exactly(k):
    rng = np.random.default_rng(300 + k)
    vectors = stacked_blocks(lambda m: unit_disk(rng, m), k)
    spec = JoinSpec(vectors, unit_disk(rng, (4, 4)))
    sums = spec.layout().row_sums
    for i, c in enumerate(vectors):
        assert sums[i : i + 1].tobytes() == np.fft.fft(c)[:1].tobytes()
    # the condensed diagonal holds the same bits
    assert np.diagonal(spec.condensed()).tobytes() == sums.tobytes()


def test_dense_examples():
    assert np.array_equal(dense_circulant(JoinSpec([2.5]).vector), [[2.5 + 0j]])
    shift = dense_circulant(JoinSpec([[0, 1, 0]]).vector).real
    assert np.array_equal(shift, np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    k3 = dense_circulant(JoinSpec([[0, 1, 1]]).vector).real
    assert np.array_equal(k3, np.ones((3, 3)) - np.eye(3))


def test_dense_first_column_roundtrip():
    rng = np.random.default_rng(7)
    v = unit_disk(rng, 9)
    spec = JoinSpec([v[:4], v])
    assert np.array_equal(dense_circulant(spec.blocks[1])[:, 0], v)


def test_root_of_unity_powers_entries():
    k = 7
    powers = root_of_unity_powers(k)
    np.testing.assert_allclose(np.abs(powers), 1.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(powers, np.exp(2j * np.pi * np.arange(k) / k), atol=1e-12)
    # the table is the first-row step of every Fourier mode
    assert np.array_equal(fourier_matrix(k)[1], powers)


def test_invalid_inputs():
    for blocks in ([[]], [[[1, 2], [3, 4]]], [[np.nan]], [[1.0, np.inf]], [["x"]],
                   [[[1, 2], [3]]], [[0, 1], {}]):
        with pytest.raises(PreconditionError):
            JoinSpec(blocks)
    with pytest.raises(PreconditionError):
        root_of_unity_powers(0)


def test_signed_zeros_compare_equal():
    for zero in (-0.0, complex(0.0, -0.0)):
        assert JoinSpec([[1, 0, 0]]) == JoinSpec([[1, zero, 0]])
    # the same vector cut into other blocks is another join
    assert JoinSpec([[1, 0, 0]]) != JoinSpec([[1, 0], [0]], np.zeros((2, 2)))


def test_vector_is_read_only():
    given = np.array([0.0, 1.0, 0.0, 2.0, 3.0])
    spec = JoinSpec([given[:3], given[3:]])
    given[:] = 5.0  # the join keeps its own copy
    assert spec.vector.tolist() == [0, 1, 0, 2, 3]
    for view in (spec.vector, *spec.blocks):
        with pytest.raises(ValueError):
            view[0] = 5.0
    # every block is a view of the one stored vector, in row order
    for spec in structured_corpus():
        assert spec.vector.dtype == np.complex128 and spec.vector.shape == (spec.n,)
        assert np.array_equal(np.concatenate(spec.blocks), spec.vector)
        for block in spec.blocks:
            assert np.shares_memory(block, spec.vector)


def test_from_vector_is_the_join_of_its_pieces():
    for spec in structured_corpus():
        vector = spec.vector.copy()
        again = JoinSpec.from_vector(vector, spec.block_sizes, spec.couplings)
        assert again == spec and again.block_sizes == spec.block_sizes
        assert again.vector.tobytes() == spec.vector.tobytes()
        assert not np.shares_memory(again.vector, vector)  # the join keeps a copy
    real = JoinSpec.from_vector(np.array([0.0, 1.0, 2.0]), [2, 1], [[0, 1], [1, 0]])
    assert real == JoinSpec([[0.0, 1.0], [2.0]], [[0, 1], [1, 0]])
    for sizes in ([], [1, 1], [3, 0], [2, 2], [4, -1]):
        with pytest.raises(PreconditionError):
            JoinSpec.from_vector(np.zeros(3), sizes)
    with pytest.raises(PreconditionError):
        JoinSpec.from_vector([1.0, np.nan], [2])
