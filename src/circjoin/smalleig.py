"""Eigenvalues and Jordan chains of small dense complex matrices.

Intended for the d x d condensed matrix of a join (d up to a few dozen).
Sizes 1 and 2 use closed forms; larger matrices go through Householder
Hessenberg reduction followed by a shifted QR iteration, eigenvalues
read off the (numerically) triangular result.  Nearby eigenvalues are
merged into clusters with summed multiplicity, and Jordan chains are
recovered from SVD null spaces of powers of (M - lambda*I).
"""

import numpy as np

from .errors import ConvergenceError, IllConditionedError, PreconditionError

DEFAULT_SWEEP_FACTOR = 100  # sweep budget = factor * d^2

_EPS = float(np.finfo(np.float64).eps)


def _as_square(matrix):
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise PreconditionError("expected a square matrix of size >= 1")
    if not np.all(np.isfinite(a)):
        raise PreconditionError("matrix entries must be finite")
    return a


def _inf_norm(a):
    return float(np.abs(a).sum(axis=1).max()) if a.size else 0.0


def _quadratic_roots(trace, det):
    """Roots of X^2 - trace*X + det, the larger-magnitude root first."""
    half = trace / 2.0
    s = np.sqrt(complex(half * half - det))
    if half.real * s.real + half.imag * s.imag < 0.0:
        s = -s
    r1 = half + s
    if r1 == 0.0:
        return 0.0j, 0.0j
    return complex(r1), complex(det / r1)


def _hessenberg(a):
    """Unitary similarity reduction to upper Hessenberg form (Householder)."""
    h = np.array(a, dtype=np.complex128)
    d = h.shape[0]
    for p in range(d - 2):
        x = h[p + 1 :, p].copy()
        nx = float(np.linalg.norm(x))
        if nx <= 1e-300:
            h[p + 2 :, p] = 0.0
            continue
        phase = x[0] / abs(x[0]) if x[0] != 0.0 else 1.0
        v = x
        v[0] += phase * nx
        vn = float(np.linalg.norm(v))
        if vn <= 1e-300:
            continue
        v = v / vn
        h[p + 1 :, p:] -= 2.0 * np.outer(v, v.conj() @ h[p + 1 :, p:])
        h[:, p + 1 :] -= 2.0 * np.outer(h[:, p + 1 :] @ v, v.conj())
        h[p + 2 :, p] = 0.0
    return h


def _givens(a, b):
    """Rotation (c real, s complex) with [c s; -conj(s) c] @ [a; b] = [r; 0]."""
    if b == 0.0:
        return 1.0, 0.0 + 0.0j
    if a == 0.0:
        return 0.0, complex(np.conj(b) / abs(b))
    aa = abs(a)
    r = np.hypot(aa, abs(b))
    return aa / r, complex((a / aa) * np.conj(b) / r)


def _qr_sweep(h, lo, hi, shift):
    """One explicit shifted QR step on the Hessenberg window [lo, hi]."""
    for p in range(lo, hi + 1):
        h[p, p] -= shift
    rotations = []
    for p in range(lo, hi):
        c, s = _givens(h[p, p], h[p + 1, p])
        rotations.append((c, s))
        top = c * h[p, p : hi + 1] + s * h[p + 1, p : hi + 1]
        bot = -np.conj(s) * h[p, p : hi + 1] + c * h[p + 1, p : hi + 1]
        h[p, p : hi + 1] = top
        h[p + 1, p : hi + 1] = bot
        h[p + 1, p] = 0.0
    for i, (c, s) in enumerate(rotations):
        p = lo + i
        rows = slice(lo, min(p + 2, hi + 1))
        left = c * h[rows, p] + np.conj(s) * h[rows, p + 1]
        right = -s * h[rows, p] + c * h[rows, p + 1]
        h[rows, p] = left
        h[rows, p + 1] = right
    for p in range(lo, hi + 1):
        h[p, p] += shift


def _schur_eigenvalues(h, budget):
    """Drive a Hessenberg matrix to triangular form; return its diagonal.

    Eigenvalue-only variant: similarity updates are confined to the
    active window, which is always bracketed by zeroed subdiagonals, so
    panels outside the window never influence the result.
    """
    d = h.shape[0]
    hnorm = max(_inf_norm(h), 1e-300)
    evs = np.empty(d, dtype=np.complex128)
    m = d - 1
    sweeps = 0
    since_deflation = 0
    while m >= 0:
        lo = m
        while lo > 0:
            tst = abs(h[lo - 1, lo - 1]) + abs(h[lo, lo])
            thr = _EPS * tst if tst > 0.0 else _EPS * hnorm
            if abs(h[lo, lo - 1]) <= max(thr, 1e-300):
                h[lo, lo - 1] = 0.0
                break
            lo -= 1
        if lo == m:
            evs[m] = h[m, m]
            m -= 1
            since_deflation = 0
            continue
        if lo == m - 1:
            t = h[lo, lo] + h[m, m]
            det = h[lo, lo] * h[m, m] - h[lo, m] * h[m, lo]
            evs[m], evs[m - 1] = _quadratic_roots(t, det)
            m -= 2
            since_deflation = 0
            continue
        sweeps += 1
        since_deflation += 1
        if sweeps > budget:
            raise ConvergenceError(
                f"QR iteration exceeded its budget of {budget} sweeps"
            )
        if since_deflation % 10 == 0:
            # exceptional shift to break symmetric cycling
            shift = h[m, m] + 0.75 * abs(h[m, m - 1])
        else:
            t = h[m - 1, m - 1] + h[m, m]
            det = h[m - 1, m - 1] * h[m, m] - h[m - 1, m] * h[m, m - 1]
            r1, r2 = _quadratic_roots(t, det)
            shift = r1 if abs(r1 - h[m, m]) <= abs(r2 - h[m, m]) else r2
        _qr_sweep(h, lo, m, shift)
    return evs


def _cluster(values, delta):
    """Greedily merge values within delta of a cluster mean.

    Returns (mean, multiplicity) pairs sorted by (Re, Im); multiplicities
    sum to len(values).  Deterministic: values are visited in (Re, Im)
    order and ties go to the nearest existing cluster, the oldest among
    equals.

    A cluster's mean moves only when it absorbs a value, so once the
    visited real part runs more than 2*delta past it (the factor 2
    covers rounding in the distance) it can never match again.  Such
    clusters are dropped from the front of the window, and each value is
    compared with the rest in one vectorized distance computation.
    Distances use hypot, as abs() of a complex scalar does, so merges
    are exactly those of a one-by-one scan over all clusters.
    """
    values = np.asarray(values, dtype=np.complex128)
    order = np.lexsort((values.imag, values.real))
    sums = []
    counts = []
    means = np.empty(len(values), dtype=np.complex128)
    lo = 0
    for v in values[order]:
        while lo < len(sums) and v.real - means[lo].real > 2.0 * delta:
            lo += 1
        best = -1
        if lo < len(sums):
            window = means[lo : len(sums)]
            dist = np.hypot(v.real - window.real, v.imag - window.imag)
            nearest = int(np.argmin(dist))
            if dist[nearest] <= delta:
                best = lo + nearest
        if best < 0:
            sums.append(v)
            counts.append(1)
            best = len(sums) - 1
        else:
            sums[best] += v
            counts[best] += 1
        means[best] = sums[best] / counts[best]
    out = [(complex(means[i]), counts[i]) for i in range(len(sums))]
    out.sort(key=lambda pair: (pair[0].real, pair[0].imag))
    return out


def eigenvalues(matrix, *, cluster_delta=None, sweep_budget=None):
    """All eigenvalues of a square complex matrix, with multiplicities.

    Returns a list of (eigenvalue, multiplicity) pairs sorted by
    (Re, Im), multiplicities summing to the matrix size.  Any two raw
    eigenvalues within cluster_delta (default 1e-7 * (1 + inf-norm)) are
    merged to their mean.  Sizes 1 and 2 use closed forms; larger sizes
    run shifted QR with a sweep budget of 100 * d^2 by default and raise
    ConvergenceError when it is exhausted.
    """
    a = _as_square(matrix)
    d = a.shape[0]
    if cluster_delta is None:
        cluster_delta = 1e-7 * (1.0 + _inf_norm(a))
    if d == 1:
        raw = np.array([a[0, 0]])
    elif d == 2:
        t = a[0, 0] + a[1, 1]
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        raw = np.array(_quadratic_roots(t, det))
    else:
        budget = sweep_budget if sweep_budget is not None else DEFAULT_SWEEP_FACTOR * d * d
        raw = _schur_eigenvalues(_hessenberg(a), budget)
    return _cluster(raw, cluster_delta)


def eigenvalue_multiset(matrix, **kwargs):
    """Flat list of eigenvalues, each repeated by multiplicity."""
    out = []
    for lam, mult in eigenvalues(matrix, **kwargs):
        out.extend([lam] * mult)
    return out


def _nullspace(a, tol):
    """Orthonormal basis of the numerical null space (columns)."""
    _, sv, vh = np.linalg.svd(a)
    rank = int(np.count_nonzero(sv > tol))
    return vh[rank:].conj().T


def jordan_chains(matrix, eigenvalue, multiplicity, *, sigma_tol=None):
    """Jordan chains of `matrix` at `eigenvalue` with the given algebraic
    multiplicity.

    Each chain is an array of shape (length, d) whose rows u_1, ..., u_m
    satisfy (M - lambda*I) u_1 ~ 0 and (M - lambda*I) u_r = u_{r-1}; the
    lengths sum to `multiplicity`.  Chain structure is read off the
    nullities of (M - lambda*I)^p thresholded at sigma_tol (default
    1e-8 * (1 + inf-norm)); chain tops are chosen orthogonal to the
    lower-power null space and to taller chains, so the assembled chain
    vectors stay well conditioned.

    Raises IllConditionedError when the nullity sequence is inconsistent
    with the requested multiplicity, or when the chain vectors fail the
    independence floor; perturbing the input to separate eigenvalue
    clusters usually resolves this.
    """
    a = _as_square(matrix)
    d = a.shape[0]
    if not 1 <= multiplicity <= d:
        raise PreconditionError(f"multiplicity {multiplicity} out of range [1, {d}]")
    if sigma_tol is None:
        sigma_tol = 1e-8 * (1.0 + _inf_norm(a))
    e = a - eigenvalue * np.eye(d, dtype=np.complex128)

    bad = (
        "nullspace dimensions of (M - lambda*I)^p are inconsistent with "
        f"multiplicity {multiplicity}; the input is numerically ambiguous "
        "at this tolerance, perturb it to separate eigenvalue clusters"
    )
    bases = [np.zeros((d, 0), dtype=np.complex128)]
    nullities = [0]
    power = np.eye(d, dtype=np.complex128)
    index = 0
    for p in range(1, d + 1):
        power = power @ e
        ns = _nullspace(power, sigma_tol)
        nu = ns.shape[1]
        if nu <= nullities[-1] or nu > multiplicity:
            raise IllConditionedError(bad)
        bases.append(ns)
        nullities.append(nu)
        if nu == multiplicity:
            index = p
            break
    if index == 0:
        raise IllConditionedError(bad)

    # blocks_ge[p] = number of chains of length >= p; must be non-increasing
    blocks_ge = {p: nullities[p] - nullities[p - 1] for p in range(1, index + 1)}
    for p in range(1, index):
        if blocks_ge[p] < blocks_ge[p + 1]:
            raise IllConditionedError(bad)

    chains = []
    for p in range(index, 0, -1):
        new_tops = blocks_ge[p] - blocks_ge.get(p + 1, 0)
        if new_tops == 0:
            continue
        occupied = [bases[p - 1]]
        occupied += [ch[p - 1][:, None] for ch in chains if len(ch) >= p]
        occ = np.hstack(occupied)
        cand = bases[p]
        if occ.shape[1]:
            q, _ = np.linalg.qr(occ)
            cand = cand - q @ (q.conj().T @ cand)
        u, sv, _ = np.linalg.svd(cand, full_matrices=False)
        if sv[new_tops - 1] <= 1e-8:
            raise IllConditionedError(bad)
        for t in range(new_tops):
            vecs = [u[:, t]]
            for _ in range(p - 1):
                vecs.append(e @ vecs[-1])
            vecs.reverse()
            chain = np.array(vecs)
            chain = chain / np.linalg.norm(chain, axis=1).max()
            chains.append(chain)

    if sum(len(ch) for ch in chains) != multiplicity:
        raise IllConditionedError(bad)
    stacked = np.hstack([ch.T for ch in chains])
    if np.linalg.svd(stacked, compute_uv=False)[-1] < 1e-6:
        raise IllConditionedError(bad)
    return chains
