"""The matrix-free verification path: structured matvec and residuals
checked against dense oracles, corrupted decompositions rejected, and
no dense expansion built."""

import dataclasses
import io
import json
import sys

import numpy as np
import pytest

from circjoin import JoinSpec, cli, full_spectrum
from circjoin.cli import decomposition_residual, emit_join_document, main
from circjoin.errors import PreconditionError

from corpus import (
    dense_decomposition_residual,
    inf_norm,
    padded_fourier_mode,
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
    a = spec.dense()
    tol = 1e-13 * (1.0 + inf_norm(a))
    rng = np.random.default_rng(index)
    x = unit_disk(rng, spec.n)
    assert np.abs(spec.matvec(x) - a @ x).max() <= tol
    xs = unit_disk(rng, (spec.n, 5))
    assert spec.matvec(xs).shape == (spec.n, 5)
    assert np.abs(spec.matvec(xs) - a @ xs).max() <= tol
    assert abs(spec.inf_norm() - inf_norm(a)) <= 1e-13 * (1.0 + inf_norm(a))


def test_matvec_rejects_wrong_shape():
    spec = structured_corpus()[0]
    with pytest.raises(PreconditionError):
        spec.matvec(np.zeros(spec.n + 1))
    with pytest.raises(PreconditionError):
        spec.matvec(np.zeros((spec.n, 2, 2)))


@pytest.mark.parametrize("index", range(len(structured_corpus())))
def test_residual_matches_dense_oracle(index):
    spec = structured_corpus()[index]
    dec = full_spectrum(spec)
    a = spec.dense()
    residual, _ = decomposition_residual(spec, dec)
    oracle = dense_decomposition_residual(a, dec)
    assert abs(residual - oracle) <= 1e-12 * (1.0 + inf_norm(a))


def test_residual_chunks_do_not_change_the_result(monkeypatch):
    spec = structured_corpus()[-1]
    dec = full_spectrum(spec)
    whole = decomposition_residual(spec, dec)
    monkeypatch.setattr(cli, "VERIFY_CHUNK", 100)
    assert decomposition_residual(spec, dec) == whole


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


def test_row_sum_mode_is_caught_by_the_coupling_leak():
    # the j = 0 mode satisfies C_b v = lambda v inside its block, but the
    # couplings do not annihilate it: rows of block i read a_ib * k_b.
    # A decomposition holds no j = 0 pair, so the per-block check that
    # decomposition_residual runs is given the index explicitly.
    spec = two_block_join()
    lam = spec.blocks[0].row_sum()
    residual, offender = cli._fourier_residual(
        spec, 1, np.array([1, 0, 2]), spec.blocks[0].eigenvalues()[[1, 0, 2]]
    )
    assert residual == pytest.approx(0.25 * 8, rel=1e-12)
    assert offender == "block 1, fourier index 0"
    v = padded_fourier_mode(spec.n, 0, 8, 0)
    oracle = np.abs(spec.dense() @ v - lam * v).max()
    assert residual == pytest.approx(oracle, rel=1e-12)


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

    def no_dense(self, cap=None):
        raise AssertionError("dense expansion built")

    monkeypatch.setattr(JoinSpec, "dense", no_dense)
    for doc, (code, out) in zip(docs, expected):
        assert code == 0
        assert "max_residual" in json.loads(out)
        again = run_spectrum(doc, ["--verify"], monkeypatch, capsys)
        assert again[:2] == (code, out)
