"""The matrix-free verification path: structured matvec and residuals
checked against dense oracles built here, and corrupted decompositions
rejected."""

import dataclasses
import io
import json
import sys

import numpy as np
import pytest

from circjoin import JoinSpec, cli, full_spectrum, join, ring_graph
from circjoin.cli import decomposition_residual, emit_join_document, main
from circjoin.errors import PreconditionError

from corpus import (
    dense_decomposition_residual,
    dense_join,
    inf_norm,
    structured_corpus,
    unit_disk,
)

K8_DOC = json.dumps(
    {"blocks": [[0, 1, 0], [0, 1, 1, 1, 1]], "couplings": [[0, 1], [1, 0]]}
)


def two_block_join():
    """Block 1 has well-separated eigenvalues; couplings are nonzero."""
    return JoinSpec(
        [np.arange(8.0), np.array([0.0, 1.0, 0.0])], [[0.0, 0.5], [0.25, 0.0]]
    )


def run_spectrum(doc, flags, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code = main(["spectrum", "-", *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("index", range(len(structured_corpus())))
def test_matvec_matches_dense(index):
    spec = structured_corpus()[index]
    a = dense_join(spec)
    tol = 1e-13 * (1.0 + inf_norm(a))
    rng = np.random.default_rng(index)
    x = unit_disk(rng, spec.n)
    assert np.abs(spec.matvec(x) - a @ x).max() <= tol
    assert abs(spec.inf_norm() - inf_norm(a)) <= 1e-13 * (1.0 + inf_norm(a))
    # bit for bit the pairwise sum of each block alone: `kuramoto check`
    # prints a tolerance made from it
    sums = np.array([np.abs(b).sum() for b in spec.blocks])
    cross = np.abs(spec.couplings) @ spec.block_sizes
    assert spec.inf_norm() == float((sums + cross).max())


def test_matvec_rejects_wrong_shape():
    spec = structured_corpus()[0]
    with pytest.raises(PreconditionError):
        spec.matvec(np.zeros(spec.n + 1))
    with pytest.raises(PreconditionError):
        spec.matvec(np.zeros((spec.n, 2)))
    with pytest.raises(PreconditionError):
        spec.matvec(np.zeros((spec.n, 2, 2)))


@pytest.mark.parametrize("index", range(len(structured_corpus())))
def test_residual_matches_dense_oracle(index):
    spec = structured_corpus()[index]
    dec = full_spectrum(spec)
    a = dense_join(spec)
    residual, _ = decomposition_residual(spec, dec)
    oracle = dense_decomposition_residual(a, dec)
    assert abs(residual - oracle) <= 1e-12 * (1.0 + inf_norm(a))


def corrupt_with(monkeypatch, corrupt):
    def corrupted_spectrum(join, **kwargs):
        return corrupt(full_spectrum(join, **kwargs))

    monkeypatch.setattr(cli, "full_spectrum", corrupted_spectrum)


def replace_first_block_eigenvalues(dec, change):
    """`dec` with block 1's eigenvalues (Fourier indices 1, 2, ...) a
    writable copy that change(copy) edits in place."""
    lam = dec.block_eigenvalues[0].copy()
    change(lam)
    return dataclasses.replace(dec, block_eigenvalues=(lam, *dec.block_eigenvalues[1:]))


def swap_fourier_eigenvalues(dec):
    def swap(lam):
        assert abs(lam[0] - lam[1]) > 0.1
        lam[[0, 1]] = lam[[1, 0]]

    return replace_first_block_eigenvalues(dec, swap)


def replace_first_chain_entry(dec, change):
    """`dec` with coordinate 0 of the first condensed chain vector (every
    row of block 1 once lifted) set to change(old value)."""
    chain = dec.condensed_chains[0]
    vectors = chain.vectors.copy()
    vectors[0, 0] = change(vectors[0, 0])
    chains = (dataclasses.replace(chain, vectors=vectors),) + dec.condensed_chains[1:]
    return dataclasses.replace(dec, condensed_chains=chains)


def perturb_chain_vector(dec):
    return replace_first_chain_entry(dec, lambda x: x + 1e-6)


def test_swapped_fourier_eigenvalues_fail_verification(monkeypatch, capsys):
    spec = two_block_join()
    dec = swap_fourier_eigenvalues(full_spectrum(spec))
    residual, offender = decomposition_residual(spec, dec)
    assert residual > 1.0 and offender.startswith("block 1, fourier index")
    corrupt_with(monkeypatch, swap_fourier_eigenvalues)
    code, out, err = run_spectrum(
        emit_join_document(spec), ["--verify"], monkeypatch, capsys
    )
    assert code == 4 and out == "" and "residual" in err


def faulty_transform(name, j):
    """np.fft's `name` transform with entry j of every transform of more
    than j entries wrong by +1 when it is called without a length: that
    is the cached transform of every block (np.fft.rfft for a join of
    real blocks, np.fft.fft otherwise), consistent everywhere it is
    read, so only the independent length-2k transform of --verify can
    see it."""
    transform = getattr(np.fft, name)

    def faulty(a, n=None, axis=-1, **kwargs):
        lam = transform(a, n, axis, **kwargs)
        if n is None and j < lam.shape[axis]:
            np.moveaxis(lam, axis, -1)[..., j] += 1.0
        return lam

    return faulty


@pytest.mark.parametrize("j", [1, 0])
def test_wrong_block_transform_fails_verification(j, monkeypatch, capsys):
    # block 2 has one entry, so only block 1 has index 1, and at index 0
    # both blocks read an exact residual of 1 and the first one is named;
    # the blocks are real, so index 2 holds the conjugate of index 1
    assert_wrong_transform_fails("rfft", [0, 1, 0], j, monkeypatch, capsys)


@pytest.mark.parametrize("j", [1, 0])
def test_wrong_complex_block_transform_fails_verification(j, monkeypatch, capsys):
    assert_wrong_transform_fails("fft", [0, [1, 1], 0], j, monkeypatch, capsys)


def assert_wrong_transform_fails(name, block, j, monkeypatch, capsys):
    doc = json.dumps({"blocks": [block, [0]], "couplings": [[0, 1], [1, 0]]})
    monkeypatch.setattr(np.fft, name, faulty_transform(name, j))
    code, out, err = run_spectrum(doc, ["--verify"], monkeypatch, capsys)
    assert (code, out) == (4, "")
    assert err.startswith("circjoin: numerical error: residual 1.000e+00")
    assert err.endswith(f"at block 1, fourier index {j}\n")


def test_wrong_condensed_matrix_fails_verification(monkeypatch, capsys):
    # the chains are checked against the blocks and couplings, not against
    # the condensed matrix they were computed from
    spec = two_block_join()
    condensed = JoinSpec.condensed

    def wrong_condensed(self):
        m = condensed(self)
        m[0, 1] *= 1.5
        return m

    monkeypatch.setattr(JoinSpec, "condensed", wrong_condensed)
    dec = full_spectrum(spec)
    residual, offender = decomposition_residual(spec, dec)
    assert residual == pytest.approx(0.747, abs=1e-3)
    assert offender.startswith("condensed chain")
    oracle = dense_decomposition_residual(dense_join(spec), dec)
    assert abs(residual - oracle) <= 1e-12 * (1.0 + spec.inf_norm())
    code, out, err = run_spectrum(
        emit_join_document(spec), ["--verify"], monkeypatch, capsys
    )
    assert (code, out) == (4, "") and offender in err


def reference_block_residual(spec, dec):
    """The Fourier-pair part of decomposition_residual as a loop over
    the blocks, one transform each: (max residual, tag), NaN as inf."""
    worst, tag = -1.0, "none"
    for b, (block, lams) in enumerate(zip(spec.blocks, dec.block_eigenvalues), 1):
        exact = np.fft.fft(block, 2 * block.size)[::2]
        r = np.abs(exact - np.concatenate((np.fft.fft(block)[:1], lams)))
        r[np.isnan(r)] = np.inf
        j = int(np.argmax(r))
        if r[j] > worst:
            worst, tag = float(r[j]), f"block {b}, fourier index {j}"
    return worst, tag


def exact_spectrum_join():
    """Blocks of sizes 4, 3, 4, 3, 5 whose eigenvalues every transform
    gets exactly (each is 2 at every Fourier index), so that residuals
    of wrong eigenvalues can tie exactly."""
    blocks = [[2.0] + [0.0] * (k - 1) for k in (4, 3, 4, 3, 5)]
    return JoinSpec(blocks, np.ones((5, 5)))


@pytest.mark.parametrize(
    "wrong, residual, offender",
    [
        # (block, Fourier index, value) changes, all tying at residual 1
        (
            {(3, 2): 3.0, (2, 2): 1.0, (2, 1): 3.0, (5, 1): 1.0},
            1.0,
            "block 2, fourier index 1",
        ),
        ({(3, 1): 3.0, (1, 3): 3.0}, 1.0, "block 1, fourier index 3"),
        ({(4, 2): 1.0, (5, 4): 3.0, (3, 3): 3.0}, 1.0, "block 3, fourier index 3"),
        # a NaN counts as inf and wins over every tie
        (
            {(1, 1): 3.0, (2, 1): 3.0, (4, 2): np.nan, (5, 4): 3.0},
            np.inf,
            "block 4, fourier index 2",
        ),
        (
            {(4, 2): complex(2.0, np.nan), (5, 4): np.nan},
            np.inf,
            "block 4, fourier index 2",
        ),
    ],
)
def test_offender_is_the_lowest_block_then_index_across_size_groups(
    wrong, residual, offender
):
    spec = exact_spectrum_join()
    dec = full_spectrum(spec)
    lams = [lam.copy() for lam in dec.block_eigenvalues]
    assert all(np.all(lam == 2.0) for lam in lams)
    for (b, j), value in wrong.items():
        lams[b - 1][j - 1] = value
    dec = dataclasses.replace(dec, block_eigenvalues=tuple(lams))
    assert decomposition_residual(spec, dec) == (residual, offender)
    assert reference_block_residual(spec, dec) == (residual, offender)


@pytest.mark.parametrize(
    "spec, distinct_spectra",
    [
        (join(*[ring_graph(6, 1)] * 64), 1),
        # blocks 1 and 3 are equal, blocks 2 and 4 are not
        (
            JoinSpec(
                [[0, 1, 2], [0, 1, 0, 0, 1], [0, 1, 2], [1, 1, 0, 0, 1], range(8)],
                np.ones((5, 5)),
            ),
            4,
        ),
    ],
)
def test_spectrum_work_per_distinct_block_size(
    spec, distinct_spectra, monkeypatch, capsys
):
    # one eigenvalue FFT (real, as the blocks are) and one complex
    # --verify FFT per distinct block size, and one report clustering
    # call whose groups are the distinct block spectra and the condensed
    # eigenvalues, each exactly once
    ffts, clusterings = [], []
    finite_clusters = cli._finite_clusters

    def counted(name):
        transform = getattr(np.fft, name)

        def counted_transform(a, n=None, *args, **kwargs):
            ffts.append((name, np.shape(a), n))
            return transform(a, n, *args, **kwargs)

        return counted_transform

    def counted_clusters(values, delta, groups):
        clusterings.append((values, groups))
        return finite_clusters(values, delta, groups)

    for name in ("fft", "rfft", "ifft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(name))
    monkeypatch.setattr(cli, "_finite_clusters", counted_clusters)
    doc = emit_join_document(spec)
    code, _, err = run_spectrum(doc, ["--verify"], monkeypatch, capsys)
    assert (code, err) == (0, "")
    sizes = sorted(set(spec.block_sizes))
    stacks = [(spec.block_sizes.count(k), k) for k in sizes]
    assert ffts == [("rfft", shape, None) for shape in stacks] + [
        ("fft", shape, 2 * k) for shape, k in zip(stacks, sizes)
    ]
    assert len(clusterings) == 1
    values, groups = clusterings[0]
    segments = [values[groups == g].tobytes() for g in sorted(set(groups.tolist()))]
    decomposition = full_spectrum(spec)
    condensed = decomposition.eigenvalues()[: decomposition.d]
    spectra = [condensed, *decomposition.block_eigenvalues]
    assert len(segments) == distinct_spectra + 1
    assert sorted(segments) == sorted({vals.tobytes() for vals in spectra})
    assert len(condensed) == spec.d


def test_verify_of_a_large_join_needs_no_cap(monkeypatch, capsys):
    rng = np.random.default_rng(16000)
    spec = JoinSpec(
        [rng.standard_normal(8000), rng.standard_normal(8000)],
        rng.standard_normal((2, 2)),
    )
    code, out, err = run_spectrum(
        emit_join_document(spec), ["--verify"], monkeypatch, capsys
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["max_residual"] <= 1e-12 * spec.inf_norm()


def test_perturbed_chain_vector_fails_verification(monkeypatch, capsys):
    spec, _ = cli.parse_join_document(K8_DOC)
    dec = perturb_chain_vector(full_spectrum(spec))
    residual, offender = decomposition_residual(spec, dec)
    assert residual > 1e-6 and offender == "condensed chain 0, depth 1"
    corrupt_with(monkeypatch, perturb_chain_vector)
    code, out, err = run_spectrum(K8_DOC, ["--verify"], monkeypatch, capsys)
    assert code == 4 and out == "" and "residual" in err


def nan_in_chain_vector(dec):
    return replace_first_chain_entry(dec, lambda x: np.nan)


def nan_fourier_eigenvalue(dec):
    def set_nan(lam):
        lam[1] = complex(np.nan, 0.0)

    return replace_first_block_eigenvalues(dec, set_nan)


@pytest.mark.parametrize(
    "corrupt, offender",
    [
        (nan_in_chain_vector, "condensed chain 0, depth 1"),
        (nan_fourier_eigenvalue, "block 1, fourier index 2"),
    ],
)
def test_nan_residual_fails_verification(corrupt, offender, monkeypatch, capsys):
    spec, _ = cli.parse_join_document(K8_DOC)
    assert decomposition_residual(spec, corrupt(full_spectrum(spec))) == (
        np.inf,
        offender,
    )
    corrupt_with(monkeypatch, corrupt)
    code, out, err = run_spectrum(K8_DOC, ["--verify"], monkeypatch, capsys)
    assert (code, out) == (4, "")
    assert err.splitlines() == [
        f"circjoin: numerical error: residual inf exceeds tolerance "
        f"{1e-8 * spec.inf_norm():.3e} at {offender}"
    ]


def test_verify_builds_no_dense_matrix(monkeypatch, capsys):
    docs = [K8_DOC] + [emit_join_document(spec) for spec in structured_corpus()[::5]]
    expected = [
        run_spectrum(doc, ["--verify"], monkeypatch, capsys)[:2] for doc in docs
    ]
    # the package has no dense expansion to build; a second run must
    # print the same bytes
    for doc, (code, out) in zip(docs, expected):
        assert code == 0
        assert "max_residual" in json.loads(out)
        again = run_spectrum(doc, ["--verify"], monkeypatch, capsys)
        assert again[:2] == (code, out)
