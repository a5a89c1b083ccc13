"""Independent output checks, run outside the timed region.

Every check recomputes what the program claims from the generated
document alone, with numpy's FFT and LAPACK and the structured join
matvec below; none of it calls into circjoin.  ``check`` returns a list
of problems, empty when the output is correct.
"""

import json
from math import comb

import numpy as np

TWO_PI = 2.0 * np.pi
BLOCK_TOL = 1e-8        # relative to 1 + max |block eigenvalue|
CONDENSED_TOL = 1e-6    # relative to 1 + inf-norm of the condensed matrix
VERIFY_TOL = 1e-8       # the CLI's documented default, relative to 1 + inf-norm
VECTOR_TOL = 1e-12
DRIFT_LIMIT = 1e-9
PHASE_TOL = 1e-9
CHARPOLY_MAX_D = 8      # Leverrier (d > 4) is known to lose digits beyond this


# ---------------------------------------------------------------------------
# the join, computed independently from its document
# ---------------------------------------------------------------------------

def condensed(blocks, couplings):
    """Block row sums on the diagonal, a_ij * k_j off it."""
    sizes = np.array([len(b) for b in blocks])
    a = np.asarray(couplings, dtype=np.complex128) * sizes[None, :]
    np.fill_diagonal(a, [np.sum(b) for b in blocks])
    return a


def join_inf_norm(blocks, couplings):
    sizes = np.array([len(b) for b in blocks])
    off = np.abs(np.asarray(couplings)) * sizes[None, :]
    np.fill_diagonal(off, 0.0)
    return float(max(np.abs(b).sum() + off[i].sum() for i, b in enumerate(blocks)))


def join_matvec(blocks, couplings, x):
    """A @ x without the dense A: per-block circular convolution plus the
    constant off-diagonal blocks acting on block sums."""
    couplings = np.asarray(couplings, dtype=np.complex128)
    offs = np.concatenate([[0], np.cumsum([len(b) for b in blocks])])
    parts = [x[offs[i] : offs[i + 1]] for i in range(len(blocks))]
    sums = np.array([p.sum() for p in parts])
    out = []
    for i, (c, p) in enumerate(zip(blocks, parts)):
        cross = couplings[i] @ sums - couplings[i, i] * sums[i]
        out.append(np.fft.ifft(np.fft.fft(c) * np.fft.fft(p)) + cross)
    return np.concatenate(out)


def twisted_state(k, j, phis):
    """Phase 2*pi*r*j/k + phi_i at position r of block i."""
    ramp = TWO_PI * j * np.arange(k) / k
    return np.concatenate([ramp + phi for phi in phis])


def _wrapped(a, b):
    return np.abs(np.mod(a - b + np.pi, TWO_PI) - np.pi)


# ---------------------------------------------------------------------------
# matching reported clusters against expected values
# ---------------------------------------------------------------------------

def _match(rows, expected, tol, what):
    """Assign every expected value to its nearest reported (mean,
    multiplicity) row; each row must receive exactly its multiplicity,
    every value within tol."""
    expected = np.asarray(expected, dtype=np.complex128).ravel()
    total = sum(m for _, m in rows)
    if total != expected.size:
        return [f"{what}: multiplicities sum to {total}, expected {expected.size}"]
    if not rows:
        return []
    means = np.array([v for v, _ in rows])
    counts = np.zeros(len(rows), dtype=np.int64)
    worst = 0.0
    for chunk in np.array_split(expected, max(1, expected.size // 256)):
        dist = np.abs(chunk[:, None] - means[None, :])
        nearest = dist.argmin(axis=1)
        worst = max(worst, float(dist[np.arange(chunk.size), nearest].max()))
        np.add.at(counts, nearest, 1)
    problems = []
    if worst > tol:
        problems.append(f"{what}: value off by {worst:.3e} > {tol:.3e}")
    if not np.array_equal(counts, [m for _, m in rows]):
        problems.append(f"{what}: multiplicities do not match the expected multiset")
    return problems


# ---------------------------------------------------------------------------
# per-kind checks
# ---------------------------------------------------------------------------

def _expected_groups(data):
    """Provenance -> (expected eigenvalues, tolerance)."""
    if "expected" in data:
        groups = {}
        for prov, vals in data["expected"].items():
            vals = np.asarray(vals, dtype=np.complex128)
            scale = 1.0 + (float(np.abs(vals).max()) if vals.size else 0.0)
            groups[prov] = (vals, BLOCK_TOL * scale)
        return groups
    blocks, couplings = data["blocks"], data["couplings"]
    groups = {}
    for i, c in enumerate(blocks):
        lam = np.fft.fft(c)[1:]
        scale = 1.0 + (float(np.abs(lam).max()) if lam.size else 0.0)
        groups[i + 1] = (lam, BLOCK_TOL * scale)
    abar = condensed(blocks, couplings)
    anorm = float(np.abs(abar).sum(axis=1).max())
    groups["condensed"] = (np.linalg.eigvals(abar), CONDENSED_TOL * (1.0 + anorm))
    return groups


def _check_charpoly(report, data):
    blocks, couplings = data["blocks"], data["couplings"]
    d = len(blocks)
    abar = condensed(blocks, couplings)
    want = np.poly(np.linalg.eigvals(abar))
    got = np.array([complex(re, im) for re, im in report["reduced_char_poly"]])
    if got.shape != want.shape:
        return [f"reduced_char_poly has {got.size} coefficients, expected {want.size}"]
    scale = 1.0 + float(np.abs(abar).sum(axis=1).max())
    tol = np.array([CONDENSED_TOL * comb(d, i) * scale**i for i in range(d + 1)])
    if np.any(np.abs(got - want) > tol):
        return ["reduced_char_poly differs from np.poly of the condensed eigenvalues"]
    return []


def _check_vectors(report, data):
    blocks, couplings = data["blocks"], data["couplings"]
    n = sum(len(b) for b in blocks)
    offs = np.concatenate([[0], np.cumsum([len(b) for b in blocks])])
    lam = [np.fft.fft(c) for c in blocks]
    scale = 1.0 + join_inf_norm(blocks, couplings)
    bad_vectors, bad_values, bad_chains = [], [], []
    circ = report["eigenvectors"]["circulant"]
    for e in circ:
        b, j = e["block"] - 1, e["fourier_index"]
        k = len(blocks[b])
        want = np.zeros(n, dtype=np.complex128)
        want[offs[b] : offs[b + 1]] = np.exp(TWO_PI * 1j * j * np.arange(k) / k)
        got = np.array([complex(re, im) for re, im in e["vector"]])
        if got.shape != want.shape or np.abs(got - want).max() > VECTOR_TOL:
            bad_vectors.append((b + 1, j))
        if abs(complex(*e["eigenvalue"]) - lam[b][j]) > BLOCK_TOL * scale:
            bad_values.append((b + 1, j))
    total = 0
    for ch in report["eigenvectors"]["condensed"]:
        mu = complex(*ch["eigenvalue"])
        prev = np.zeros(n, dtype=np.complex128)
        for u in ch["chain"]:
            u = np.array([complex(re, im) for re, im in u])
            r = join_matvec(blocks, couplings, u) - mu * u - prev
            if np.abs(r).max() > VERIFY_TOL * scale:
                bad_chains.append(mu)
            prev = u
            total += 1
    problems = []
    if len(circ) != n - len(blocks):
        problems.append(f"{len(circ)} circulant eigenvectors, expected {n - len(blocks)}")
    if bad_vectors:
        problems.append(f"{len(bad_vectors)} circulant vectors are not their Fourier "
                        f"modes, first (block, index) {bad_vectors[0]}")
    if bad_values:
        problems.append(f"{len(bad_values)} circulant eigenvalues are off, "
                        f"first (block, index) {bad_values[0]}")
    if bad_chains:
        problems.append(f"{len(bad_chains)} condensed chain vectors fail "
                        f"(A - lambda) u = u_prev, first at {bad_chains[0]:.6g}")
    if total != len(blocks):
        problems.append(f"{total} condensed chain vectors, expected {len(blocks)}")
    return problems


def check_spectrum(job, out):
    data = job.data
    report = json.loads(out)
    problems = []
    groups = _expected_groups(data)
    n = sum(v.size for v, _ in groups.values())
    if report["n"] != n:
        problems.append(f"report n={report['n']}, expected {n}")
    rows = {}
    for row in report["eigenvalues"]:
        rows.setdefault(row["provenance"], []).append(
            (complex(row["re"], row["im"]), row["multiplicity"])
        )
    if set(rows) - set(groups):
        problems.append(f"unexpected provenances {sorted(map(str, set(rows) - set(groups)))}")
    for prov, (vals, tol) in groups.items():
        problems += _match(rows.get(prov, []), vals, tol, f"provenance {prov}")
    if data.get("diagonalizable") is not None and report["diagonalizable"] != data["diagonalizable"]:
        problems.append(f"diagonalizable={report['diagonalizable']}, expected {data['diagonalizable']}")
    if "blocks" in data and len(data["blocks"]) <= CHARPOLY_MAX_D:
        problems += _check_charpoly(report, data)
    if data.get("verify"):
        tol = VERIFY_TOL * (1.0 + join_inf_norm(data["blocks"], data["couplings"]))
        res = report.get("max_residual")
        if res is None or not 0.0 <= res <= tol:
            problems.append(f"max_residual {res!r} not within {tol:.3e}")
    if data.get("eigenvectors"):
        problems += _check_vectors(report, data)
    return problems


def check_doc(job, out):
    doc = json.loads(out)
    want = job.data
    problems = []
    if doc.get("labels") != want["labels"]:
        problems.append(f"labels {doc.get('labels')!r}, expected {want['labels']!r}")
    if doc.get("blocks") != want["blocks"] or doc.get("couplings") != want["couplings"]:
        problems.append("emitted blocks/couplings differ from the closed form")
    return problems


def check_simulate(job, out):
    p = job.data
    n = p["d"] * p["k"]
    lines = out.rstrip("\n").split("\n")
    problems = []
    if len(lines) != p["steps"] + 3:
        return [f"{len(lines)} output lines, expected {p['steps'] + 3}"]
    if lines[0] != "t," + ",".join(f"theta_{i + 1}" for i in range(n)):
        problems.append("CSV header is wrong")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:-1]])
    if data.shape != (p["steps"] + 1, n + 1):
        return problems + [f"trajectory shape {data.shape}, expected {(p['steps'] + 1, n + 1)}"]
    if np.abs(data[:, 0] - p["dt"] * np.arange(p["steps"] + 1)).max() > 1e-12:
        problems.append("time column is not dt * step")
    theta = twisted_state(p["k"], p["j"], p["phis"])
    off = float(_wrapped(data[:, 1:], theta[None, :]).max())
    if off > PHASE_TOL:
        problems.append(f"trajectory leaves the twisted state by {off:.3e}")
    if np.any(np.abs(data[:, 1:]) > np.pi):
        problems.append("phases are not reduced to (-pi, pi]")
    tail = lines[-1]
    if not tail.startswith("# max_drift="):
        problems.append("missing # max_drift line")
    elif not float(tail.split("=", 1)[1]) <= DRIFT_LIMIT:
        problems.append(f"{tail} exceeds {DRIFT_LIMIT}")
    return problems


def check_equilibrium(job, out):
    p = job.data
    rep = json.loads(out)
    problems = []
    if rep.get("equilibrium") is not True:
        problems.append(f"equilibrium={rep.get('equilibrium')!r}")
    if rep.get("fourier_index") != p["j"]:
        problems.append(f"fourier_index={rep.get('fourier_index')!r}, expected {p['j']}")
    if rep.get("phi") != [float(x) for x in p["phis"]]:
        problems.append("phi differs from the requested offsets")
    want = twisted_state(p["k"], p["j"], p["phis"])
    theta = np.array(rep.get("theta0", []), dtype=np.float64)
    if theta.shape != want.shape or float(_wrapped(theta, want).max()) > PHASE_TOL:
        return problems + ["theta0 is not the twisted state"]
    blocks, couplings = p["blocks"], p["couplings"]
    tol = VERIFY_TOL * (1.0 + abs(p["epsilon"]) * join_inf_norm(blocks, couplings))
    z = np.exp(1j * theta)
    velocity = p["epsilon"] * np.imag(np.conj(z) * join_matvec(blocks, couplings, z))
    if float(np.abs(velocity).max()) > tol:
        problems.append(f"independent rhs residual {np.abs(velocity).max():.3e} > {tol:.3e}")
    if not 0.0 <= rep.get("residual", -1.0) <= tol:
        problems.append(f"reported residual {rep.get('residual')!r} > {tol:.3e}")
    return problems


_CHECKS = {
    "spectrum": check_spectrum,
    "doc": check_doc,
    "simulate": check_simulate,
    "equilibrium": check_equilibrium,
}


def check(job, code, out):
    """Problems with one job's exit code and stdout; empty when correct."""
    if code != 0:
        return [f"exit code {code!r}"]
    try:
        return _CHECKS[job.kind](job, out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
