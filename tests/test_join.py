import math
import re
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy

import circjoin
from circjoin import (
    CirculantMatrix,
    JoinSpec,
    JordanChain,
    KuramotoSystem,
    block_eigenpairs,
    build_twisted_equilibrium,
    cli,
    full_spectrum,
    integrate,
    reduced_char_poly,
    smalleig,
    tensor_expand,
)
from circjoin.errors import PreconditionError
from circjoin.graphs import (
    complete_graph,
    join as join_graphs,
    remove_cycle_from_complete,
    ring_graph,
)

from corpus import (
    condensed_vectors,
    defective_joins,
    dense_decomposition_residual,
    dense_join,
    eigenbasis,
    fourier_matrix,
    fourier_pairs,
    inf_norm,
    lifted_chains,
    mpmath_eigenvalues,
    multiset_match,
    random_circulant,
    random_join,
    structured_corpus,
    unit_disk,
)


def k8_minus_directed_triangle():
    return JoinSpec(
        [CirculantMatrix([0, 1, 0]), CirculantMatrix([0, 1, 1, 1, 1])],
        np.ones((2, 2)),
    )


def independent_diagonalizable(abar):
    """Defectiveness verdict from a generic eigensolver plus rank checks."""
    d = abar.shape[0]
    vals = np.linalg.eigvals(abar)
    delta = 1e-7 * (1.0 + inf_norm(abar))
    clusters = []
    for v in sorted(vals, key=lambda z: (z.real, z.imag)):
        for c in clusters:
            if abs(v - c[0] / c[1]) <= delta:
                c[0] += v
                c[1] += 1
                break
        else:
            clusters.append([v, 1])
    for s, mult in clusters:
        mu = s / mult
        rank = np.linalg.matrix_rank(
            abar - mu * np.eye(d), tol=1e-8 * (1.0 + inf_norm(abar))
        )
        if d - rank < mult:
            return False
    return True


# ---------------------------------------------------------------------------
# dense expansion
# ---------------------------------------------------------------------------

def test_dense_single_block_is_the_block():
    spec = JoinSpec([CirculantMatrix([0, 1, 0])])
    assert np.array_equal(dense_join(spec).real, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])


def test_dense_two_singletons():
    spec = JoinSpec([CirculantMatrix([0]), CirculantMatrix([0])], np.ones((2, 2)))
    assert np.array_equal(dense_join(spec).real, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_dense_k8_minus_directed_triangle():
    # independent construction: complete graph minus the directed 3-cycle
    expected = np.ones((8, 8)) - np.eye(8)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        expected[a, b] = 0.0
    assert np.array_equal(dense_join(k8_minus_directed_triangle()).real, expected)


def test_couplings_validation():
    with pytest.raises(PreconditionError):
        JoinSpec([CirculantMatrix([0])], np.ones((2, 2)))
    with pytest.raises(PreconditionError):
        JoinSpec([], np.zeros((0, 0)))


# ---------------------------------------------------------------------------
# condensed matrix
# ---------------------------------------------------------------------------

def test_condensed_k8_example():
    abar = k8_minus_directed_triangle().condensed()
    assert np.array_equal(abar.real, np.array([[1.0, 5.0], [3.0, 4.0]]))
    assert np.all(abar.imag == 0.0)


def test_condensed_single_block():
    spec = JoinSpec([CirculantMatrix([0, 1, 1])])
    assert np.array_equal(spec.condensed(), np.array([[2.0 + 0.0j]]))


def test_condensed_complete_blocks():
    spec = JoinSpec(
        [CirculantMatrix([0, 1, 1]), CirculantMatrix([0, 1, 1, 1, 1])],
        np.ones((2, 2)),
    )
    assert np.array_equal(spec.condensed().real, np.array([[2.0, 5.0], [3.0, 4.0]]))


# ---------------------------------------------------------------------------
# block eigenpairs
# ---------------------------------------------------------------------------

def test_block_eigenpairs_empty_for_singleton_blocks():
    spec = JoinSpec([CirculantMatrix([1.0])] * 3, unit_disk(np.random.default_rng(0), (3, 3)))
    assert [lam.shape for lam in block_eigenpairs(spec)] == [(0,)] * 3


def test_block_eigenpairs_k8_example():
    spec = k8_minus_directed_triangle()
    first, second = block_eigenpairs(spec)
    w = np.exp(2j * np.pi / 3)
    np.testing.assert_allclose(first, [w**-1, w**-2], atol=1e-12)  # c_1 w^(-j)
    np.testing.assert_allclose(second, [-1.0] * 4, atol=1e-12)
    a = dense_join(spec)
    tol = 1e-9 * (1.0 + inf_norm(a))
    pairs = list(fourier_pairs(full_spectrum(spec)))
    assert len(pairs) == 2 + 4
    for lam, v in pairs:
        assert np.abs(a @ v - lam * v).max() <= tol


def test_block_eigenpairs_complete_blocks():
    spec = JoinSpec(
        [CirculantMatrix([0, 1, 1]), CirculantMatrix([0, 1, 1, 1, 1])],
        np.ones((2, 2)),
    )
    multiset_match(np.concatenate(block_eigenpairs(spec)), [-1.0] * 6, 1e-12)


def test_block_eigenpairs_are_read_only_views_of_the_block_fft():
    for spec in [k8_minus_directed_triangle(), *structured_corpus()]:
        lams = block_eigenpairs(spec)
        for group in spec.layout().groups:
            for i in group.ids.tolist():
                # a view of the block's row of its size group's FFT,
                # holding the bits of the block's own transform
                assert lams[i].base is group.eigenvalues
                assert lams[i].tobytes() == spec.blocks[i].eigenvalues()[1:].tobytes()
                assert not lams[i].flags.writeable


def test_layout_groups_blocks_by_size():
    rng = np.random.default_rng(5)
    sizes = (3, 5, 3, 1, 5, 3)
    vectors = [unit_disk(rng, k) for k in sizes]
    spec = JoinSpec(vectors, unit_disk(rng, (6, 6)))
    layout = spec.layout()
    assert layout is spec.layout()
    assert [g.ids.tolist() for g in layout.groups] == [[3], [0, 2, 5], [1, 4]]
    starts = np.cumsum((0, *sizes[:-1]))
    assert np.array_equal(layout.offsets, starts)
    for group in layout.groups:
        assert np.array_equal(group.vectors, [vectors[i] for i in group.ids])
        assert np.array_equal(
            group.rows, [np.arange(starts[i], starts[i] + sizes[i]) for i in group.ids]
        )
        for i, row in zip(group.ids, group.eigenvalues):
            assert np.array_equal(row, np.fft.fft(vectors[i]))
    assert np.array_equal(layout.row_sums, [np.fft.fft(v)[0] for v in vectors])
    assert not layout.row_sums.flags.writeable


def test_result_records_compare_by_identity():
    # frozen dataclasses that hold arrays: a generated == would compare
    # the arrays and raise, and a generated hash would hash them
    spec = join_graphs(ring_graph(5, 1), ring_graph(6, 1))
    system = KuramotoSystem(join_graphs(ring_graph(6, 1), ring_graph(6, 1)), 1.0)
    dec = full_spectrum(spec)
    chain = dec.condensed_chains[0]
    twisted = build_twisted_equilibrium(system, 1, [0.0, 0.5])
    trajectory = integrate(system, twisted.theta, 0.01, 2)
    pairs = [
        (dec, full_spectrum(spec)),
        (chain, JordanChain(chain.eigenvalue, chain.vectors)),
        (twisted, build_twisted_equilibrium(system, 1, [0.0, 0.5])),
        (trajectory, integrate(system, twisted.theta, 0.01, 2)),
    ]
    for first, second in pairs:
        assert first == first and first != second
        assert hash(first) == hash(first)
        assert len({first, second}) == 2


def test_block_eigenpair_support():
    # in the eigenbasis, block b's Fourier columns are nonzero exactly on
    # block b's rows
    spec = JoinSpec(
        [CirculantMatrix([0, 1]), CirculantMatrix([0, 1, 1])], np.ones((2, 2))
    )
    m = eigenbasis(full_spectrum(spec))
    for start, size in ((0, 2), (2, 3)):
        cols = m[:, start + 1 : start + size]
        assert np.all(np.delete(cols, np.arange(start, start + size), axis=0) == 0.0)
        assert np.all(np.abs(cols[start : start + size]) > 0.0)


def test_every_exported_name_resolves():
    namespace = {}
    exec("from circjoin import *", namespace)
    for name in circjoin.__all__:
        assert hasattr(circjoin, name), name
        assert namespace[name] is getattr(circjoin, name), name
    for name in ("DENSE_CAP", "SizeCapError", "dft_matrix", "fourier_modes",
                 "fourier_vector", "eigenbasis_matrix"):
        assert not hasattr(circjoin, name), name
    for owner, name in ((circjoin.JoinSpec, "dense"), (circjoin.JoinSpec, "offsets"),
                        (circjoin.CirculantMatrix, "dense"),
                        (circjoin.CirculantMatrix, "eigenpairs"),
                        (circjoin.CirculantGraph, "dense"),
                        (circjoin.SpectralDecomposition, "condensed_vector_matrix"),
                        (cli, "spectrum_report"), (cli, "_pair_lists")):
        assert not hasattr(owner, name), (owner, name)


def test_version_matches_pyproject():
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    versions = re.findall(r'^version = "([^"]+)"$', pyproject.read_text(), re.M)
    assert versions == [circjoin.__version__]


# ---------------------------------------------------------------------------
# tensor expansion
# ---------------------------------------------------------------------------

def test_tensor_expand_examples():
    assert np.array_equal(
        tensor_expand(np.array([1.0, 2.0]), (2, 3)),
        np.array([1.0, 1.0, 2.0, 2.0, 2.0]),
    )
    assert np.array_equal(tensor_expand(np.array([3.5]), (4,)), np.full(4, 3.5))
    # a stack of vectors lifts row by row
    stack = np.array([[1.0, 2.0], [3.0, 4.0j]])
    assert np.array_equal(
        tensor_expand(stack, (1, 2)),
        np.array([tensor_expand(row, (1, 2)) for row in stack]),
    )
    with pytest.raises(PreconditionError):
        tensor_expand(np.array([1.0, 2.0]), (2,))
    with pytest.raises(PreconditionError):
        tensor_expand(stack, (1, 2, 3))
    with pytest.raises(PreconditionError):
        tensor_expand(np.float64(1.0), (1,))


def test_tensor_expand_lifts_condensed_eigenvectors():
    spec = k8_minus_directed_triangle()
    abar = spec.condensed()
    a = dense_join(spec)
    vals, vecs = np.linalg.eig(abar)
    for idx in range(2):
        lifted = tensor_expand(vecs[:, idx], spec.block_sizes)
        assert np.abs(a @ lifted - vals[idx] * lifted).max() <= 1e-9 * (
            1.0 + inf_norm(a)
        )


# ---------------------------------------------------------------------------
# full spectrum
# ---------------------------------------------------------------------------

def test_full_spectrum_join_of_complete_graphs_is_complete():
    spec = JoinSpec(
        [CirculantMatrix([0, 1, 1]), CirculantMatrix([0, 1, 1, 1, 1])],
        np.ones((2, 2)),
    )
    dec = full_spectrum(spec)
    multiset_match(dec.eigenvalue_multiset(), [7.0] + [-1.0] * 7, 1e-10)
    assert dec.diagonalizable


def test_full_spectrum_k8_example():
    dec = full_spectrum(k8_minus_directed_triangle())
    hi = (5.0 + math.sqrt(69.0)) / 2.0
    lo = (5.0 - math.sqrt(69.0)) / 2.0
    w = np.exp(2j * np.pi / 3)
    expected = [hi, lo, w, w.conjugate()] + [-1.0] * 4
    multiset_match(dec.eigenvalue_multiset(), expected, 1e-9)
    # provenance of the two condensed eigenvalues
    condensed = [v for v, p in dec.eigenvalues() if p == "condensed"]
    multiset_match(condensed, [hi, lo], 1e-9)


def test_full_spectrum_defective_two_by_two():
    spec = JoinSpec(
        [CirculantMatrix([0.0]), CirculantMatrix([0.0])], [[0.0, 1.0], [0.0, 0.0]]
    )
    dec = full_spectrum(spec)
    assert dec.eigenvalue_multiset() == [0.0 + 0.0j, 0.0 + 0.0j]
    assert not dec.diagonalizable
    assert [len(ch) for ch in dec.condensed_chains] == [2]


def count_jordan_chains(monkeypatch):
    """Record the multiplicity of every Jordan chain computation, the
    public smalleig.jordan_chains and the solve's own calls alike."""
    calls = []
    jordan_chains = smalleig._jordan_chains

    def counted(matrix, eigenvalue, multiplicity, *args):
        calls.append(multiplicity)
        return jordan_chains(matrix, eigenvalue, multiplicity, *args)

    monkeypatch.setattr(smalleig, "_jordan_chains", counted)
    return calls


def test_condensed_solve_runs_svd_chains_only_for_repeated_eigenvalues(monkeypatch):
    calls = count_jordan_chains(monkeypatch)
    rng = np.random.default_rng(64)
    sizes = rng.integers(2, 9, 64)
    spec = JoinSpec([random_circulant(rng, k) for k in sizes], unit_disk(rng, (64, 64)))
    dec = full_spectrum(spec)
    assert calls == []
    assert dec.diagonalizable and len(dec.condensed_chains) == 64
    # 64 rings: condensed eigenvalues 2 + 6 * 63 (simple) and -4 (x63),
    # whose chains are the Helmert vectors of the one twin class
    dec = full_spectrum(join_graphs(*[ring_graph(6, 1)] * 64))
    assert calls == []
    assert dec.diagonalizable


def test_twin_ring_join_runs_no_jordan_chains_and_only_a_1x1_eig(monkeypatch):
    # 64 equal rings are one twin class, so LAPACK sees the 1 x 1
    # quotient [2 + 63 * 6] and -4 = 2 - 6 takes the Helmert vectors
    calls = count_jordan_chains(monkeypatch)
    shapes = []
    lapack_eig = np.linalg.eig
    monkeypatch.setattr(
        np.linalg, "eig", lambda a: shapes.append(a.shape) or lapack_eig(a)
    )
    spec = join_graphs(*[ring_graph(6, 1)] * 64)
    dec = full_spectrum(spec)
    coeffs = reduced_char_poly(spec)
    assert (calls, shapes) == ([], [(1, 1), (1, 1)])
    assert [(ch.eigenvalue, len(ch)) for ch in dec.condensed_chains] == [
        (-4.0 + 0.0j, 1)
    ] * 63 + [(380.0 + 0.0j, 1)]
    # orthonormal Helmert vectors, in the order of the class's members
    helmert = condensed_vectors(dec)[:, :63]
    assert np.allclose(helmert.conj().T @ helmert, np.eye(63), rtol=0, atol=1e-15)
    for r, u in enumerate(helmert.T, 1):
        want = np.zeros(64)
        want[:r] = 1.0
        want[r] = -r
        assert np.allclose(u, want / math.sqrt(r * (r + 1)), rtol=0, atol=1e-16)
    # (x + 4)^63 (x - 380): c_0..c_6 are certified and exact
    exact = [
        math.comb(63, i) * 4**i - (380 * math.comb(63, i - 1) * 4 ** (i - 1) if i else 0)
        for i in range(65)
    ]
    assert np.all(dec.char_poly_bound[:7] < 0.5)
    assert coeffs[:7].tolist() == [complex(c) for c in exact[:7]]


def test_condensed_solve_mixing_defective_and_simple_is_warning_free(monkeypatch):
    # condensed matrix: a 2x2 Jordan block at 0 and simple eigenvalues
    # 1 and 3; LAPACK's eigenvectors at 0 are parallel, so the
    # eigenvector matrix is singular and no eigenpair is certified
    calls = count_jordan_chains(monkeypatch)
    spec = JoinSpec(
        [[0.0], [0.0], [0.5, 0.5], [3.0]],
        np.triu(np.full((4, 4), 0.25)) + np.diag([1.0, 0.0, 0.0], k=1),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = full_spectrum(spec)
        # the 3x3 single chain has an exactly singular eigenvector matrix
        for defective in defective_joins():
            full_spectrum(defective)
    assert [len(ch) for ch in dec.condensed_chains] == [2, 1, 1]
    assert not dec.diagonalizable
    assert calls[:3] == [2, 1, 1]


def test_full_spectrum_single_block_matches_fourier_decomposition():
    c = CirculantMatrix([0.5, 1.0, -0.25, 2.0])
    dec = full_spectrum(JoinSpec([c]))
    multiset_match(dec.eigenvalue_multiset(), c.eigenvalues(), 1e-10)
    # row-sum mode arrives via the condensed path with a constant vector
    assert len(dec.condensed_chains) == 1
    lifted = lifted_chains(dec)[0].vectors[0]
    assert np.abs(lifted - lifted[0]).max() <= 1e-12


# ---------------------------------------------------------------------------
# reduced characteristic polynomial
# ---------------------------------------------------------------------------

def test_reduced_char_poly_k8_example():
    coeffs = reduced_char_poly(k8_minus_directed_triangle())
    np.testing.assert_allclose(coeffs, [1.0, -5.0, -11.0], atol=1e-12)
    # identities: root sum is the trace of the condensed matrix, product
    # its determinant (row sums 1 and 4, sizes 3 and 5: 1*4 - 15 = -11)
    assert abs(-coeffs[1] - (1.0 + 4.0)) <= 1e-12
    assert abs(coeffs[2] - (1.0 * 4.0 - 3.0 * 5.0)) <= 1e-12


def test_reduced_char_poly_single_block():
    coeffs = reduced_char_poly(JoinSpec([CirculantMatrix([0, 1, 1])]))
    np.testing.assert_allclose(coeffs, [1.0, -2.0], atol=1e-14)


def test_reduced_char_poly_complete_blocks():
    spec = JoinSpec(
        [CirculantMatrix([0, 1, 1]), CirculantMatrix([0, 1, 1, 1, 1])],
        np.ones((2, 2)),
    )
    np.testing.assert_allclose(reduced_char_poly(spec), [1.0, -6.0, -7.0], atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_reduced_char_poly_matches_condensed_roots(d):
    rng = np.random.default_rng(700 + d)
    blocks = [
        CirculantMatrix(unit_disk(rng, int(rng.integers(1, 6)))) for _ in range(d)
    ]
    spec = JoinSpec(blocks, unit_disk(rng, (d, d)))
    coeffs = reduced_char_poly(spec)
    assert coeffs.shape == (d + 1,)
    assert coeffs[0] == 1.0
    oracle = np.poly(np.linalg.eigvals(spec.condensed()))
    np.testing.assert_allclose(coeffs, oracle, atol=1e-8)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_reduced_char_poly_matches_mpmath(d):
    # coefficient i measured against C(d, i) * ||A||^i, its natural scale
    rng = np.random.default_rng(900 + d)
    blocks = [
        CirculantMatrix(unit_disk(rng, int(rng.integers(1, 6)))) for _ in range(d)
    ]
    spec = JoinSpec(blocks, unit_disk(rng, (d, d)))
    a = spec.condensed()
    coeffs = reduced_char_poly(spec)
    with mpmath.workdps(60):
        oracle = [mpmath.mpf(1)]
        for r in mpmath_eigenvalues(a, 60):  # prod (X - r), highest degree first
            oracle = [x - r * y for x, y in zip(oracle + [0], [0] + oracle)]
        oracle = [complex(c) for c in oracle]
    norm = inf_norm(a)
    for i, (c, want) in enumerate(zip(coeffs, oracle)):
        assert abs(c - want) <= 1e-14 * math.comb(d, i) * norm**i


def graph_joins():
    """Integer graph joins with d = 1..8 blocks."""
    sizes = [3, 5, 4, 7, 1, 6, 2, 9]
    cases = []
    for d in range(1, 9):
        cases.append(join_graphs(*[ring_graph(k + 4, 1 + k % 2) for k in sizes[:d]]))
        cases.append(join_graphs(*[complete_graph(k) for k in sizes[:d]]))
    cases.append(remove_cycle_from_complete(8, 3, directed=True))
    cases.append(remove_cycle_from_complete(8, 3, directed=False))
    return cases


@pytest.mark.parametrize("index", range(len(graph_joins())))
def test_reduced_char_poly_is_exact_on_graph_joins(index):
    spec = graph_joins()[index]
    a = spec.condensed()
    assert np.array_equal(a, np.round(a.real))
    expected = sympy.Matrix(a.real.astype(int).tolist()).charpoly().all_coeffs()
    assert reduced_char_poly(spec).tolist() == [complex(int(c)) for c in expected]


def gaussian_poly(roots):
    """prod (x - r), highest degree first, in exact Gaussian-integer
    arithmetic; roots and coefficients are (re, im) pairs of ints."""
    coeffs = [(1, 0)]
    for a, b in roots:
        shifted = coeffs + [(0, 0)]
        for i, (re, im) in enumerate(coeffs, 1):
            x, y = shifted[i]
            shifted[i] = (x - (a * re - b * im), y - (a * im + b * re))
        coeffs = shifted
    return coeffs


def assert_char_poly(spec, exact, magnitudes, rel):
    """reduced_char_poly(spec) against the exact coefficients (complex
    numbers or (re, im) int pairs): within rel * e_i(|lambda|), where
    e_i(|lambda|) is coefficient i of prod (x + |lambda_j|); within the
    certified bound that full_spectrum keeps with the same coefficients;
    and, for a Gaussian-integer condensed matrix, equal wherever that
    bound is below 1/2."""
    coeffs = reduced_char_poly(spec)
    exact = np.array([complex(*c) if isinstance(c, tuple) else c for c in exact])
    error = np.abs(coeffs - exact)
    assert np.all(error <= rel * np.poly(-np.asarray(magnitudes))), np.max(error)
    dec = full_spectrum(spec)
    assert np.array_equal(dec.char_poly, coeffs)
    assert np.all(error <= dec.char_poly_bound)
    a = spec.condensed()
    if np.array_equal(a, np.round(a)):
        rounded = dec.char_poly_bound < 0.5
        assert np.array_equal(coeffs[rounded], exact[rounded])


def test_reduced_char_poly_of_the_64_ring_join():
    # the benchmark's degenerate job: condensed matrix 6 J - 4 I, whose
    # char poly is (x + 4)^63 (x - 380); Leverrier is off by 2e92 e_i
    spec = join_graphs(*[ring_graph(6, 1)] * 64)
    roots = [-4] * 63 + [380]
    exact = gaussian_poly([(r, 0) for r in roots])
    assert_char_poly(spec, exact, np.abs(roots), 1e-13)


def test_reduced_char_poly_runs_one_eig_and_no_jordan_chains(monkeypatch):
    # the -1 of a complete join is repeated, so full_spectrum takes its
    # chains from jordan_chains; the char poly needs none
    spec = join_graphs(*[complete_graph(k) for k in (3, 5, 4, 2)])
    eig_calls = []
    lapack_eig = np.linalg.eig
    monkeypatch.setattr(
        np.linalg, "eig", lambda a: eig_calls.append(a) or lapack_eig(a)
    )
    chain_calls = []
    jordan_chains = smalleig._jordan_chains
    monkeypatch.setattr(
        smalleig,
        "_jordan_chains",
        lambda *args, **kw: chain_calls.append(args) or jordan_chains(*args, **kw),
    )
    # (x - 13)(x + 1)^3, for K_14
    assert reduced_char_poly(spec).tolist() == [1, -10, -36, -38, -13]
    assert (len(eig_calls), len(chain_calls)) == (1, 0)
    full_spectrum(spec)
    assert (len(eig_calls), len(chain_calls)) == (2, 1)


def unimodular(rng, d):
    """A random integer matrix of determinant +-1 (a permuted product of
    unit bidiagonal factors), with an integer inverse."""
    lower = np.eye(d, dtype=np.int64) + np.diag(rng.integers(-1, 2, d - 1), -1)
    upper = np.eye(d, dtype=np.int64) + np.diag(rng.integers(-1, 2, d - 1), 1)
    return np.eye(d, dtype=np.int64)[rng.permutation(d)] @ lower @ upper


def test_reduced_char_poly_of_a_similarity_at_d_128():
    # 1 x 1 blocks make the condensed matrix any matrix: here S diag(lam)
    # S^-1 with unimodular S and nonzero Gaussian-integer lam, so its
    # entries are Gaussian integers and its char poly is exact
    rng = np.random.default_rng(128)
    d = 128
    s = unimodular(rng, d)
    s_inv = np.rint(np.linalg.inv(s)).astype(np.int64)
    assert np.array_equal(s @ s_inv, np.eye(d))
    lam = rng.integers(-3, 4, (2, d))
    lam[0, (lam == 0).all(axis=0)] = 1
    a = (s * lam[0]) @ s_inv + 1j * ((s * lam[1]) @ s_inv)
    spec = JoinSpec([CirculantMatrix([a[i, i]]) for i in range(d)], a)
    assert np.array_equal(spec.condensed(), a)
    roots = list(zip(lam[0].tolist(), lam[1].tolist()))
    assert_char_poly(spec, gaussian_poly(roots), np.hypot(*lam), 1e-12)


@pytest.mark.parametrize("d", [16, 24])
def test_reduced_char_poly_matches_mpmath_relative_to_each_coefficient(d):
    rng = np.random.default_rng(1100 + d)
    blocks = [
        CirculantMatrix(unit_disk(rng, int(rng.integers(1, 6)))) for _ in range(d)
    ]
    spec = JoinSpec(blocks, unit_disk(rng, (d, d)))
    with mpmath.workdps(60):
        roots = mpmath_eigenvalues(spec.condensed(), 60)
        oracle = [mpmath.mpf(1)]
        for r in roots:  # prod (X - r), highest degree first
            oracle = [x - r * y for x, y in zip(oracle + [0], [0] + oracle)]
        oracle = [complex(c) for c in oracle]
        magnitudes = [float(abs(r)) for r in roots]
    assert_char_poly(spec, oracle, magnitudes, 1e-13)


def char_poly_bound_cases():
    """The joins of the exact and mpmath char-poly tests above."""
    cases = graph_joins() + [join_graphs(*[ring_graph(6, 1)] * 64)]
    for d, seed in [*((d, 900 + d) for d in range(1, 7)), (16, 1116), (24, 1124)]:
        rng = np.random.default_rng(seed)
        blocks = [
            CirculantMatrix(unit_disk(rng, int(rng.integers(1, 6)))) for _ in range(d)
        ]
        cases.append(JoinSpec(blocks, unit_disk(rng, (d, d))))
    return cases


@pytest.mark.parametrize("index", range(len(char_poly_bound_cases())))
def test_char_poly_bound_recurrence_matches_np_poly(index, monkeypatch):
    # The bound's e_i(|w|) and e_i(|w| + r) come from one Vieta recurrence
    # over both rows.  np.poly of each row is also within gamma_2d of the
    # exact values, so the two agree within 4 gamma_2d, and so do the
    # bounds built from them, up to the rounding of the bound formula.
    seen = []
    elementary = smalleig._elementary

    def spy(roots):
        seen.append((roots, elementary(roots)))
        return seen[-1][1]

    monkeypatch.setattr(smalleig, "_elementary", spy)
    reduced_char_poly(char_poly_bound_cases()[index])
    [(roots, e)] = seen
    d = roots.shape[1]
    reference = np.array([np.poly(-row) for row in roots])
    finite = np.isfinite(reference)
    assert np.array_equal(np.isfinite(e), finite)
    error = np.abs(e - reference)[finite]
    assert np.all(error <= 4 * smalleig._gamma(2 * d) * reference[finite])

    def bound(e):
        return 2.0 * (e[1] - e[0] + smalleig._gamma(4 * d) * e[0])

    new, old = bound(e), bound(reference)
    finite = np.isfinite(old)
    assert np.array_equal(np.isfinite(new), finite)
    scale = (reference[1] + reference[0])[finite]
    assert np.all(np.abs(new - old)[finite] <= 4 * smalleig._gamma(2 * d + 4) * scale)


# ---------------------------------------------------------------------------
# eigenbasis matrix
# ---------------------------------------------------------------------------

def test_eigenbasis_single_block_determinant():
    k = 5
    dec = full_spectrum(JoinSpec([CirculantMatrix(unit_disk(np.random.default_rng(3), k))]))
    det = np.linalg.det(eigenbasis(dec))
    assert abs(abs(det) - k ** (k / 2.0)) <= 1e-9 * k ** (k / 2.0)


def test_eigenbasis_determinant_factorization():
    spec = JoinSpec(
        [CirculantMatrix([0, 1, 1]), CirculantMatrix([0, 1, 1, 1, 1])],
        np.ones((2, 2)),
    )
    dec = full_spectrum(spec)
    m = eigenbasis(dec)
    lhs = abs(np.linalg.det(m))
    x = condensed_vectors(dec)
    rhs = abs(np.linalg.det(fourier_matrix(3))) * abs(np.linalg.det(fourier_matrix(5))) * abs(
        np.linalg.det(x)
    )
    assert abs(lhs - rhs) <= 1e-8 * rhs


def test_eigenbasis_nonsingular_for_defective_case():
    spec = JoinSpec(
        [CirculantMatrix([0.0]), CirculantMatrix([0.0])], [[0.0, 1.0], [0.0, 0.0]]
    )
    m = eigenbasis(full_spectrum(spec))
    assert abs(np.linalg.det(m)) > 1e-12


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(25))
def test_residuals_and_counts_random(seed):
    rng = np.random.default_rng(8000 + seed)
    spec = random_join(rng)
    dec = full_spectrum(spec)
    n = spec.n
    assert len(dec.eigenvalue_multiset()) == n
    assert sum(len(lam) for lam in dec.block_eigenvalues) == n - spec.d
    assert sum(len(ch) for ch in dec.condensed_chains) == spec.d
    a = dense_join(spec)
    tau = 1e-8 * (1.0 + inf_norm(a))
    assert dense_decomposition_residual(a, dec) <= tau
    tol2 = 1e-8 * (1.0 + inf_norm(a) ** 2)
    vals = np.array(dec.eigenvalue_multiset())
    assert abs(vals.sum() - np.trace(a)) <= tol2
    assert abs((vals**2).sum() - np.trace(a @ a)) <= tol2


@pytest.mark.parametrize("seed", range(10))
def test_two_block_closed_form(seed):
    rng = np.random.default_rng(9000 + seed)
    k1 = int(rng.integers(1, 9))
    k2 = int(rng.integers(1, 9))
    spec = JoinSpec(
        [
            CirculantMatrix(rng.uniform(-1, 1, k1)),
            CirculantMatrix(rng.uniform(-1, 1, k2)),
        ],
        np.ones((2, 2)),
    )
    cs = spec.blocks[0].row_sum().real
    ds = spec.blocks[1].row_sum().real
    disc = math.sqrt((cs - ds) ** 2 + 4.0 * k1 * k2)
    dec = full_spectrum(spec)
    condensed = [v for v, p in dec.eigenvalues() if p == "condensed"]
    multiset_match(condensed, [(cs + ds + disc) / 2.0, (cs + ds - disc) / 2.0], 1e-10)
    assert dec.diagonalizable


def test_diagonalizability_matches_independent_check():
    rng = np.random.default_rng(42)
    corpus = [random_join(rng) for _ in range(20)] + defective_joins()
    for spec in corpus:
        dec = full_spectrum(spec)
        assert dec.diagonalizable == independent_diagonalizable(spec.condensed())


def test_defective_chain_powers_annihilate():
    for spec in defective_joins():
        dec = full_spectrum(spec)
        a = dense_join(spec)
        norm = inf_norm(a)
        for chain in lifted_chains(dec):
            m = len(chain)
            shifted = a - chain.eigenvalue * np.eye(spec.n)
            power = np.linalg.matrix_power(shifted, m)
            tol = 1e-8 * (1.0 + norm) ** m
            assert np.abs(power @ chain.vectors[-1]).max() <= tol


@pytest.mark.parametrize("seed", range(8))
def test_determinant_factorization_random(seed):
    rng = np.random.default_rng(10_000 + seed)
    while True:
        spec = random_join(rng, dmax=4, kmax=8)
        if spec.n <= 32:
            break
    dec = full_spectrum(spec)
    m = eigenbasis(dec)
    lhs = abs(np.linalg.det(m))
    rhs = abs(np.linalg.det(condensed_vectors(dec)))
    for k in spec.block_sizes:
        rhs *= k ** (k / 2.0)
    assert abs(lhs - rhs) <= 1e-6 * max(lhs, rhs)


def test_joinspec_accepts_raw_vectors():
    spec = JoinSpec([[0, 1, 0], [0, 1, 1, 1, 1]], np.ones((2, 2)))
    assert spec == k8_minus_directed_triangle()


def test_eigenvalue_ordering_is_sorted():
    rng = np.random.default_rng(77)
    dec = full_spectrum(random_join(rng))
    vals = dec.eigenvalues()
    keys = [(v.real, v.imag) for v, _ in vals]
    assert keys == sorted(keys)
