"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
are produced.
"""

import json
import math
import time

import numpy as np
import pytest

from circjoin import (
    JoinSpec,
    KuramotoSystem,
    build_twisted_equilibrium,
    check_equilibrium,
    full_spectrum,
    integrate,
    join,
    remove_cycle_from_complete,
    ring_graph,
)
from circjoin.cli import main as cli_main

from corpus import (
    condensed_vectors,
    defective_joins,
    dense_join,
    eigenbasis,
    fourier_pairs,
    inf_norm,
    lifted_chains,
    multiset_match,
    random_join,
)

CORPUS_SEED = 20260808


def _report(num, desc, ok):
    print(f"[acceptance] criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def corpus500():
    rng = np.random.default_rng(CORPUS_SEED)
    specs = [random_join(rng, dmax=5, kmax=8) for _ in range(500)]
    return [(spec, full_spectrum(spec)) for spec in specs]


def _max_residual(a, decomposition):
    n = a.shape[0]
    worst = 0.0
    for lam, v in fourier_pairs(decomposition):
        worst = max(worst, float(np.abs(a @ v - lam * v).max()))
    for chain in lifted_chains(decomposition):
        shifted = a - chain.eigenvalue * np.eye(n)
        prev = np.zeros(n, dtype=np.complex128)
        for u in chain.vectors:
            worst = max(worst, float(np.abs(shifted @ u - prev).max()))
            prev = u
    return worst


def test_criterion_1_main_theorem_oracle_suite():
    ok = False
    try:
        rng = np.random.default_rng(CORPUS_SEED)
        specs = [random_join(rng, dmax=5, kmax=8) for _ in range(500)]
        start = time.perf_counter()
        for spec in specs:
            dec = full_spectrum(spec)
            assert len(dec.eigenvalues()) == spec.n
            a = dense_join(spec)
            assert _max_residual(a, dec) <= 1e-8 * (1.0 + inf_norm(a))
            m = eigenbasis(dec)
            m = m / np.linalg.norm(m, axis=0)
            assert np.linalg.svd(m, compute_uv=False)[-1] >= 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed <= 60.0, f"oracle suite took {elapsed:.1f}s"
        ok = True
    finally:
        _report(1, "main-theorem oracle suite, 500 random joins", ok)


def test_criterion_2_trace_identities(corpus500):
    ok = False
    try:
        for spec, dec in corpus500:
            a = dense_join(spec)
            tol = 1e-8 * (1.0 + inf_norm(a) ** 2)
            vals = dec.eigenvalues()
            assert abs(vals.sum() - np.trace(a)) <= tol
            assert abs((vals**2).sum() - np.trace(a @ a)) <= tol
        ok = True
    finally:
        _report(2, "trace identities on the same corpus", ok)


def test_criterion_3_two_block_closed_form():
    ok = False
    try:
        rng = np.random.default_rng(CORPUS_SEED + 3)
        for _ in range(200):
            k1 = int(rng.integers(1, 9))
            k2 = int(rng.integers(1, 9))
            spec = JoinSpec(
                [
                    rng.uniform(-1.0, 1.0, k1),
                    rng.uniform(-1.0, 1.0, k2),
                ],
                np.ones((2, 2)),
            )
            dec = full_spectrum(spec)
            assert dec.diagonalizable
            cs, ds = (np.fft.fft(b)[0].real for b in spec.blocks)
            root = math.sqrt((cs - ds) ** 2 + 4.0 * k1 * k2)
            condensed = dec.eigenvalues()[: dec.d]
            multiset_match(
                condensed, [(cs + ds + root) / 2.0, (cs + ds - root) / 2.0], 1e-10
            )
        ok = True
    finally:
        _report(3, "two-block closed form, 200 random real joins", ok)


def test_criterion_4_worked_example_k8_minus_directed_triangle():
    ok = False
    try:
        dec = full_spectrum(remove_cycle_from_complete(8, 3, True))
        hi = (5.0 + math.sqrt(69.0)) / 2.0
        lo = (5.0 - math.sqrt(69.0)) / 2.0
        w = np.exp(2j * np.pi / 3.0)
        expected = [hi, lo, w, w.conjugate(), -1.0, -1.0, -1.0, -1.0]
        multiset_match(dec.eigenvalues(), expected, 1e-9)
        ok = True
    finally:
        _report(4, "K8 minus directed 3-cycle spectrum", ok)


def test_criterion_5_ring_join_formula():
    ok = False
    try:
        rng = np.random.default_rng(CORPUS_SEED + 5)
        done = 0
        while done < 50:
            m1 = int(rng.integers(1, 5))
            m2 = int(rng.integers(1, 5))
            k1 = int(rng.integers(2 * m1 + 2, 2 * m1 + 12))
            k2 = int(rng.integers(2 * m2 + 2, 2 * m2 + 12))
            dec = full_spectrum(join(ring_graph(k1, m1), ring_graph(k2, m2)))
            condensed = dec.eigenvalues()[: dec.d]
            root = math.sqrt((m1 - m2) ** 2 + k1 * k2)
            multiset_match(condensed, [m1 + m2 + root, m1 + m2 - root], 1e-9)
            done += 1
        ok = True
    finally:
        _report(5, "ring-graph join closed form, 50 random cases", ok)


def test_criterion_6_diagonalizability_and_chain_lifting():
    ok = False
    try:
        rng = np.random.default_rng(CORPUS_SEED + 6)
        corpus = [random_join(rng) for _ in range(40)] + defective_joins()
        # joins with zero couplings and equal row sums: diagonalizable
        # with a repeated condensed eigenvalue
        c = [0.0, 1.0, 1.0]
        corpus.append(JoinSpec([c, c, c], np.zeros((3, 3))))
        for spec in corpus:
            dec = full_spectrum(spec)
            abar = spec.condensed()
            assert dec.diagonalizable == _independent_diagonalizable(abar)
            a = dense_join(spec)
            for chain in lifted_chains(dec):
                m = len(chain)
                shifted = a - chain.eigenvalue * np.eye(spec.n)
                tol = 1e-8 * (1.0 + inf_norm(a)) ** m
                power = np.linalg.matrix_power(shifted, m)
                for u in chain.vectors:
                    assert np.abs(power @ u).max() <= tol
                assert np.abs(power @ chain.vectors[-1]).max() <= tol
        ok = True
    finally:
        _report(6, "diagonalizability equivalence and chain lifting", ok)


def _independent_diagonalizable(abar):
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


def _random_symmetric_circulant(rng, k):
    c = np.zeros(k)
    for off in range(1, k // 2 + 1):
        w = rng.uniform(0.2, 1.0)
        c[off] = w
        c[k - off] = w
    return c


def test_criterion_7_kuramoto_twisted_equilibria():
    ok = False
    try:
        rng = np.random.default_rng(CORPUS_SEED + 7)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            k = int(rng.integers(3, 9))
            block = _random_symmetric_circulant(rng, k)
            couplings = rng.uniform(0.0, 0.2, (d, d))
            spec = JoinSpec([block] * d, couplings)
            # modest coupling keeps the linearized growth rate small so
            # roundoff noise cannot be amplified past the drift bound
            system = KuramotoSystem(spec, epsilon=0.05)
            j = int(rng.integers(1, k))
            phis = rng.uniform(-np.pi, np.pi, d)
            state = build_twisted_equilibrium(system, j, phis)
            flag, residual = check_equilibrium(system, state.theta, tol=1e-8)
            assert flag, (d, k, j, residual)
            trajectory = integrate(system, state.theta, 1e-2, 1000)
            drift = np.abs(trajectory.thetas - trajectory.thetas[0]).max()
            assert drift <= 1e-6, (d, k, j, drift)
        ok = True
    finally:
        _report(7, "Kuramoto twisted equilibria, 100 random configs", ok)


def test_criterion_8_determinant_factorization():
    ok = False
    try:
        rng = np.random.default_rng(CORPUS_SEED + 8)
        done = 0
        while done < 30:
            spec = random_join(rng, dmax=4, kmax=8)
            if spec.n > 32:
                continue
            dec = full_spectrum(spec)
            m = eigenbasis(dec)
            lhs = abs(np.linalg.det(m))
            rhs = abs(np.linalg.det(condensed_vectors(dec)))
            for k in spec.block_sizes:
                rhs *= k ** (k / 2.0)
            assert abs(lhs - rhs) <= 1e-6 * max(lhs, rhs)
            done += 1
        ok = True
    finally:
        _report(8, "eigenbasis determinant factorization", ok)


def test_criterion_9_cli_round_trip_and_exit_codes(tmp_path, capsys):
    ok = False
    try:
        doc = json.dumps(
            {"blocks": [[0, 1, 0], [0, 1, 1, 1, 1]], "couplings": [[0, 1], [1, 0]]}
        )
        path = tmp_path / "k8.json"
        path.write_text(doc)

        def run(args):
            code = cli_main(args)
            out = capsys.readouterr()
            return code, out.out

        code1, out1 = run(["spectrum", str(path), "--verify"])
        code2, out2 = run(["spectrum", str(path), "--verify"])
        assert code1 == code2 == 0
        assert out1 == out2  # byte-stable report
        report = json.loads(out1)
        assert report["n"] == 8 and report["diagonalizable"] is True

        # emit -> parse -> emit byte identity
        code, emitted = run(["graph", "remove-cycle", "--n", "8", "--k", "3",
                             "--directed"])
        assert code == 0
        spec_path = tmp_path / "emitted.json"
        spec_path.write_text(emitted)
        code, emitted2 = run(["graph", "remove-cycle", "--n", "8", "--k", "3",
                              "--directed"])
        assert emitted == emitted2

        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert run(["spectrum", str(bad)])[0] == 2
        ragged = tmp_path / "ragged.json"
        ragged.write_text(
            json.dumps({"blocks": [[0, 1], [0, 1]], "couplings": [[0, 1], [1]]})
        )
        assert run(["spectrum", str(ragged)])[0] == 2
        assert run(["graph", "remove-cycle", "--n", "3", "--k", "3"])[0] == 3
        assert run(["spectrum", str(path), "--verify", "--verify-tol", "1e-300"])[0] == 4
        ok = True
    finally:
        _report(9, "CLI round-trip, byte stability, exit codes", ok)
