"""Eigenvalues and Jordan chains of small dense complex matrices.

Intended for the d x d condensed matrix of a join (d up to a few
hundred).  `eigensystem` is one LAPACK eig (np.linalg.eig), O(d^3):
nearby eigenvalues are merged into clusters with summed multiplicity,
and a simple eigenvalue keeps LAPACK's eigenvector when a residual and
separation certificate proves that the SVD rank test would find one
chain of length 1.  Repeated or uncertified eigenvalues get their
Jordan chains from SVD null spaces of powers of (M - lambda*I)
(`jordan_chains`).  The same eig gives the characteristic polynomial
with a certified error bound per coefficient (`char_poly`), in O(d^2)
after the solve.  Default tolerances are relative to the matrix's
inf-norm, so scaling the input scales the results.

The clustering (`_cluster`, also used for the spectrum report's rows)
first proves which values stay alone, from a bound on how far a greedy
cluster can spread, and emits them directly; only the others go through
the greedy merge loop.
"""

import cmath
import math
from itertools import compress
from math import hypot
from operator import itemgetter, sub
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    IllConditionedError,
    NumericalError,
    PreconditionError,
)


def _as_square(matrix):
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise PreconditionError("expected a square matrix of size >= 1")
    if not np.all(np.isfinite(a)):
        raise PreconditionError("matrix entries must be finite")
    return a


def _inf_norm(a):
    norm = float(np.abs(a).sum(axis=1).max())
    if not np.isfinite(norm):
        raise NumericalError("the inf-norm of the matrix overflows")
    return norm


def _tolerance(name, value, default):
    """`value` as a float, or `default` when it is None.  A given
    tolerance must be finite and >= 0: a NaN passes no comparison and
    a negative one no threshold, so either would change the structure
    found without a word."""
    if value is None:
        return default
    value = float(value)
    if not 0.0 <= value < math.inf:
        raise PreconditionError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def _scale_exponent(norm):
    """t with 2^t the power of two just above `norm`, clamped so that
    2^-t stays finite."""
    return min(max(math.frexp(norm)[1], -1021), 1023)


# the unit roundoff of float64 and half its smallest subnormal
_U = 2.0**-53
_ETA = 2.0**-1075
# how many neighbours on each side, in (Re, Im) order, a value is
# measured against when `_crowded` looks for values near it
_NEIGHBOURS = 8


def _cluster(values, delta):
    """Greedily merge values within delta of a cluster mean.

    Returns (mean, multiplicity, members) triples sorted by (Re, Im),
    where members is the tuple of indices into `values` merged into the
    cluster; multiplicities sum to len(values).  Deterministic: values
    are visited in (Re, Im) order and ties go to the nearest existing
    cluster, the oldest among equals; clusters with equal means keep the
    order in which they were created.

    Values that provably stay alone (see `_crowded`) are emitted directly as
    (value / 1, 1, (index,)): the loop's mean of a one-member cluster is
    its sum divided by 1, a complex division that can flip the sign of a
    zero part, so they take the same division.  Removing them changes no
    merge and no tie, because no other value ever comes within delta of
    them.  Only the rest go through the loop.

    In the loop, a cluster's mean moves only when it absorbs a value, so
    once the visited real part runs more than 2*delta past it (the
    factor 2 covers rounding in the distance) it can never match again.
    Such clusters are dropped from the front of the window, and each
    value is compared with the rest in one vectorized distance
    computation.  Distances use hypot, as abs() of a complex scalar
    does, so merges are exactly those of a one-by-one scan over all
    clusters.
    """
    values = np.asarray(values, dtype=np.complex128)
    order = values.argsort(kind="stable")  # by (Re, Im), NaNs last
    ordered = values[order]
    index = order.tolist()
    z = ordered.tolist()
    rest = _crowded(ordered, delta) if len(z) > 1 else []
    if not rest:
        # the sort's order is the (Re, Im) order of the means
        return [(w / 1, 1, (i,)) for w, i in zip(z, index)]
    sums = []
    members = []
    means = np.empty(len(rest), dtype=np.complex128)
    lo = 0
    for p, v in zip(rest, ordered[rest]):
        while lo < len(sums) and v.real - means[lo].real > 2.0 * delta:
            lo += 1
        best = -1
        if lo < len(sums):
            window = means[lo : len(sums)]
            dist = np.hypot(v.real - window.real, v.imag - window.imag)
            nearest = int(dist.argmin())
            if dist[nearest] <= delta:
                best = lo + nearest
        if best < 0:
            sums.append(v)
            members.append([p])
            best = len(sums) - 1
        else:
            sums[best] += v
            members[best].append(p)
        means[best] = sums[best] / len(members[best])
    # every cluster keyed by its first member's position, which is the
    # order of creation, then sorted stably by mean
    keyed = [
        (group[0], (mean, len(group), tuple([index[p] for p in group])))
        for mean, group in zip(means.tolist(), members)
    ]
    if len(rest) < len(z):
        lone = set(range(len(z))).difference(rest)
        keyed += [(p, (z[p] / 1, 1, (index[p],))) for p in lone]
        keyed.sort()
    out = [cluster for _, cluster in keyed]
    out.sort(key=lambda c: (c[0].real, c[0].imag))
    return out


def _crowded(ordered, delta):
    """Positions in `ordered`, values sorted by (Re, Im), of the values
    that `_cluster` cannot prove to stay alone, in increasing order; all
    the others are singletons of the greedy loop.

    A value is proved alone when every other value lies further than R
    from it, with
        R = 2 (delta (1 + ln N) + 3 N (u M + eta)),
    N values, M their largest |Re| or |Im|, u the unit roundoff and eta
    half the smallest subnormal.  Suppose a cluster's members join in
    the order x_1, x_2, ..., x_p.  Member x_(m+1) joins when its
    computed distance to the computed mean of the first m is within
    delta, so its true distance is within d = delta (1 + 4u) + 2 eta.
    The computed mean of m members is within e_m = sqrt(2) ((m + 1) u M
    + eta) of their exact average a_m (m - 1 additions and a product by
    the rounded 1/m), and a_(m+1) - a_m = (x_(m+1) - a_m) / (m + 1).
    Summing, |x_(m+1) - x_1| <= d H_m + e_m + sum_(j<m) e_j / (j + 1),
    H_m the harmonic number, which is at most delta (1 + 4u) (1 + ln N)
    + 3 N u M + 3 N eta.  So every member of a cluster of two or more
    has another value (x_1, or x_2 for x_1) within (1 + 4u) R / 2.  R
    keeps a factor-2 margin on the drift and on the rounding, which
    covers that factor and the rounding of R and of the distances
    measured here.

    A real block has lambda_(k-j) = conj(lambda_j), so real parts alone
    prove nothing and distances are complex.  Only pairs whose real
    parts lie within R can be near.  Those at most _NEIGHBOURS apart in
    sorted order are measured with hypot.  A pair further apart, with
    real parts within R, has both of its values among the ends of some
    pair exactly _NEIGHBOURS + 1 apart with real parts within R, and
    those ends go to the loop unmeasured.  Every test is "further than
    R", so a NaN proves nothing, and values that are not finite, or so
    large that the sum of their parts overflows, all go to the loop.
    """
    n = len(ordered)
    flat = ordered.view(np.float64).tolist()
    if not math.isfinite(sum(flat)):
        return list(range(n))
    re = flat[0::2]
    im = flat[1::2]
    radius = _isolation_radius(n, delta, max(-re[0], re[-1], max(im), -min(im)))
    # pairs (i, i + step), from step 1 on, whose real parts lie within R
    near = [i for i, gap in enumerate(map(sub, re[1:], re)) if not gap > radius]
    if not near:
        return []
    crowded = [False] * n
    ends = near + [i + 1 for i in near]  # every value of such a pair
    step = 1
    while near and not all(map(crowded.__getitem__, ends)):
        if step > _NEIGHBOURS:
            for i in near:  # too far apart in sorted order to be measured
                crowded[i] = crowded[i + step] = True
            break
        for i in near:
            j = i + step
            if crowded[i] and crowded[j]:
                continue
            if not hypot(re[j] - re[i], im[j] - im[i]) > radius:
                crowded[i] = crowded[j] = True
        step += 1
        near = [i for i in near if i + step < n and not re[i + step] - re[i] > radius]
    return list(compress(range(n), crowded))


def _isolation_radius(n, delta, top):
    """R of `_crowded` for n values whose largest |Re| or |Im| is top."""
    return 2.0 * (delta * (1.0 + math.log(n)) + 3.0 * n * (_U * top + _ETA))


def _finite_clusters(values, delta):
    """_cluster, with an overflowing cluster mean as NumericalError."""
    clusters = _cluster(values, delta)
    if not all(map(cmath.isfinite, map(itemgetter(0), clusters))):
        raise NumericalError("an eigenvalue cluster mean overflows")
    return clusters


class Eigensystem(NamedTuple):
    """What `eigensystem` returns.  `clusters` holds (eigenvalue,
    multiplicity, chains) triples; `char_poly` and `char_poly_bound` are
    what `char_poly` returns, from the same eig."""

    clusters: list
    char_poly: np.ndarray
    char_poly_bound: np.ndarray


def eigensystem(matrix, *, cluster_delta=None, sigma_tol=None):
    """Eigenvalues, multiplicities, Jordan chains and characteristic
    polynomial of a square matrix.

    Returns an `Eigensystem`.  Its clusters are (eigenvalue,
    multiplicity, chains) triples sorted by (Re, Im), multiplicities
    summing to the matrix size; `chains` is what `jordan_chains` returns
    for that cluster.  Eigenvalues within cluster_delta (default
    1e-7 * inf-norm) are merged to their mean, and sigma_tol defaults to
    1e-8 * inf-norm as in `jordan_chains`.

    One np.linalg.eig gives every eigenvalue and eigenvector.  A simple
    eigenvalue whose eigenpair is certified (see `_certified`) to pass
    jordan_chains' nullity test keeps its LAPACK eigenvector (unit norm,
    largest component real) as its one chain; every other cluster, of
    multiplicity > 1 or uncertified, goes to `jordan_chains`.  The
    characteristic polynomial comes from the same eigenpairs, as in
    `char_poly`.  The cost is O(d^3), plus O(d^3) or more per cluster
    that falls back.  Raises ConvergenceError when LAPACK does not
    converge, NumericalError when an eigenvalue overflows, and as
    `jordan_chains` does.
    """
    a = _as_square(matrix)
    norm = _inf_norm(a)
    cluster_delta = _tolerance("cluster_delta", cluster_delta, 1e-7 * norm)
    sigma_tol = _tolerance("sigma_tol", sigma_tol, 1e-8 * norm)
    w, x = _eig(a)
    clusters = _finite_clusters(w, cluster_delta)
    fit = _fit(a, w, x, norm)
    certified = _certified(w, fit, sigma_tol)
    out = []
    for lam, mult, members in clusters:
        if mult == 1 and certified[members[0]]:
            chains = [np.array([x[:, members[0]]])]
        else:
            chains = jordan_chains(a, lam, mult, sigma_tol=sigma_tol)
        out.append((lam, mult, chains))
    return Eigensystem(out, *_char_poly(a, w, x, fit))


def char_poly(matrix):
    """Coefficients of det(x I - M), highest degree first, and a bound on
    the error of each; one np.linalg.eig, O(d^3), and O(d^2) after it.

    The coefficients are np.poly of the eigenvalues w, with the
    eigenvectors X, R = M X - X W (W = diag(w)) and the singular values
    of X as the certificate:

    * M is within R X^-1 of X W X^-1, so by Bauer-Fike every eigenvalue
      of M lies in a disc of radius rho = ||R|| sigma_max / sigma_min^2
      about some w_j.  ||R|| is the computed Frobenius norm plus the
      rounding error of forming R, and sigma_min is lowered by a margin
      for the SVD's own error.
    * A connected group of m such discs holds exactly m eigenvalues of M,
      so the eigenvalues of M pair off with the w_j within 2 m rho
      <= 2 d rho.  This holds for repeated eigenvalues too.
    * Moving each root by at most r moves e_i, the i-th elementary
      symmetric function, by at most e_i(|w| + r) - e_i(|w|); np.poly's
      own rounding adds at most gamma_4d * e_i(|w|).  The bound is twice
      their sum, which covers the rounding of the bound itself.
    * e_i(|w|) and e_i(|w| + r) come from one Vieta recurrence over
      both root vectors (`_elementary`).  Every term is nonnegative, so
      each is within gamma_2d of its value, relatively, and e_0 = 1 is
      exact.  For i >= 1 their difference D_i is at least
      r (d - i + 1) e_(i-1)(|w|) >= r i e_i(|w|) / max|w|, and r is at
      least 4 d (d + 4) u max|w| from the rounding term of ||R||, so
      the rounding of the two terms, gamma_2d (2 e_i(|w|) + D_i), is
      about D_i / (d + 4) or less, which the factor 2 covers too.

    A bound is inf when X is not finite, its SVD fails or X is
    numerically singular.  A real M gets real coefficients.  When every
    entry of M is a Gaussian integer, so is every coefficient, and each
    one whose bound is below 1/2 is rounded to it and is then exact;
    the others stay unrounded.  A coefficient that overflows is returned
    as inf or nan.  Raises ConvergenceError when LAPACK does not
    converge and NumericalError when the inf-norm of M overflows.
    """
    a = _as_square(matrix)
    norm = _inf_norm(a)
    w, x = _eig(a)
    return _char_poly(a, w, x, _fit(a, w, x, norm))


def _eig(a):
    try:
        return np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigenvalue solver: {exc}") from exc


def _gamma(k):
    """gamma_k = k u / (1 - k u), u the unit roundoff of float64."""
    return k * _U / (1.0 - k * _U)


def _fit(a, w, x, norm):
    """(t, r, sv) for the eigenpairs (w_i, x_i) of `a`: 2^t is the power
    of two just above `norm`, r = (M X - X W) / 2^t and sv the singular
    values of X, largest first.  Working on M / 2^t keeps r from
    overflowing or underflowing with the scale of M.  r and sv are None
    when X is not finite or its SVD fails."""
    t = _scale_exponent(norm)
    if not np.all(np.isfinite(x)):
        return t, None, None
    try:
        sv = np.linalg.svd(x, compute_uv=False)
    except np.linalg.LinAlgError:
        return t, None, None
    scale = math.ldexp(1.0, -t)
    return t, (a * scale) @ x - x * (w * scale), sv


def _certified(w, fit, sigma_tol):
    """Boolean mask over the eigenpairs (w_i, x_i) of M, unit-norm x_i,
    from their `_fit`: True where
    sigma_d(M - w_i I) <= sigma_tol < sigma_(d-1)(M - w_i I)
    is proven with a factor-2 margin on each side, so that jordan_chains
    at w_i would find nullity 1, that is, one chain of length 1.

    With R = M X - X W (W = diag(w)), M - w_i I = X (W - w_i I) X^-1 +
    R X^-1, so
      (a) sigma_d <= ||R e_i|| <= sigma_tol / 2, and
      (b) sigma_(d-1) >= gap_i / kappa(X) - ||R|| / sigma_min(X)
          > 2 sigma_tol,
    where gap_i = min_(j != i) |w_j - w_i| (sigma_k(X D X^-1) >=
    sigma_k(D) / kappa(X), and Weyl's inequality for R X^-1; the
    Frobenius norm bounds ||R||_2).  (b) is tested multiplied through
    by sigma_min(X), so a singular X fails it without a division.  The
    quantities are those of M / 2^t, as in jordan_chains, so they
    neither overflow nor underflow with the scale of M.  Nothing is
    certified when X is not finite or its SVD fails.
    """
    t, r, sv = fit
    if r is None:
        return np.zeros(len(w), dtype=bool)
    scale = math.ldexp(1.0, -t)
    tol = sigma_tol * scale
    ws = w * scale
    dist = np.abs(ws[:, None] - ws[None, :])
    np.fill_diagonal(dist, np.inf)
    bound = dist.min(axis=1) * sv[-1] ** 2 / sv[0] - np.linalg.norm(r)
    return (np.linalg.norm(r, axis=0) <= tol / 2) & (bound > 2 * tol * sv[-1])


def _char_poly(a, w, x, fit):
    """`char_poly` of `a` from its eigenpairs (w, X) and their `_fit`.

    Both the coefficients and the bound are formed for M / 2^t and
    coefficient i is then scaled by 2^(t i), so a coefficient overflows
    to inf only when its value is out of range."""
    d = len(w)
    t, r, sv = fit
    scale = math.ldexp(1.0, -t)
    ws = w * scale
    mags = np.abs(ws)
    radius = np.inf
    if r is not None:
        # sigma_min is lowered by the SVD's own error, and ||R|| raised by
        # the rounding of each entry: a complex dot product of length d,
        # a product and a difference
        s_min = sv[-1] - _gamma(4 * d) * sv[0]
        r_norm = np.linalg.norm(r) + 2.0 * _gamma(d + 4) * np.linalg.norm(x) * (
            np.linalg.norm(a * scale) + mags.max()
        )
        if s_min > 0.0:
            radius = 2.0 * d * r_norm * sv[0] / s_min**2
    e, shifted = _elementary(np.array([mags, mags + radius]))
    bound = 2.0 * (shifted - e + _gamma(4 * d) * e)
    poly = np.poly(ws)
    k = t * np.arange(d + 1)
    coeffs = np.empty(d + 1, dtype=np.complex128)
    with np.errstate(over="ignore"):
        coeffs.real = np.ldexp(poly.real, k)
        # a real matrix has a real characteristic polynomial
        coeffs.imag = np.ldexp(poly.imag, k) if a.imag.any() else 0.0
        bound = np.ldexp(bound, k)
    if np.array_equal(a, np.round(a)):
        exact = bound < 0.5
        coeffs[exact] = np.round(coeffs[exact]) + 0.0  # + 0.0 makes -0.0 0.0
    return coeffs, bound


def _elementary(roots):
    """e_0, ..., e_d of each row of an (m, d) array of roots, as an
    (m, d + 1) array: row r holds the coefficients of
    prod_j (x + roots[r, j]), highest degree first.

    One Vieta recurrence for all rows: the coefficients after root j are
    those before it plus root j times those before it, shifted by one
    degree, so d array updates in all.
    """
    m, d = roots.shape
    e = np.zeros((m, d + 1))
    e[:, 0] = 1.0
    for j in range(d):
        e[:, 1 : j + 2] += roots[:, j : j + 1] * e[:, : j + 1]
    return e


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
    lengths sum to `multiplicity`, and each chain is scaled so that its
    longest vector has unit norm.  Chain structure is read off the
    nullities of (M - lambda*I)^p thresholded at sigma_tol (default
    1e-8 * inf-norm); chain tops are chosen orthogonal to the
    lower-power null space and to taller chains, so the assembled chain
    vectors stay well conditioned.

    The work is done on e = (M - lambda*I) / 2^t with 2^t the power of
    two just above the inf-norm, so powers of e cannot overflow: the
    null space of e^p is thresholded at sigma_tol / 2^t, that is,
    (M - lambda*I)^p at sigma_tol * 2^(t*(p-1)).  Since 2^t scales with
    M, scaling M by a power of two scales the chains' links and leaves
    their structure unchanged.

    Raises IllConditionedError when the nullity sequence is inconsistent
    with the requested multiplicity, when the chain vectors fail the
    independence floor or underflow, or when LAPACK's SVD or QR does not
    converge; perturbing the input to separate eigenvalue clusters
    usually resolves this.
    """
    a = _as_square(matrix)
    d = a.shape[0]
    if not 1 <= multiplicity <= d:
        raise PreconditionError(f"multiplicity {multiplicity} out of range [1, {d}]")
    norm = _inf_norm(a)
    sigma_tol = _tolerance("sigma_tol", sigma_tol, 1e-8 * norm)
    t = _scale_exponent(norm)
    e = (a - eigenvalue * np.eye(d, dtype=np.complex128)) * math.ldexp(1.0, -t)
    try:
        scaled = _chains(e, multiplicity, math.ldexp(sigma_tol, -t))
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(
            f"Jordan chains at {complex(eigenvalue)}: LAPACK: {exc}"
        ) from exc
    chains = []
    for chain in scaled:
        if len(chain) > 1:
            # row r = e^(m-r) u_m is 2^(t*(r-m)) (M - lambda*I)^(m-r) u_m:
            # undo the factor, shifted so that none exceeds 1
            k = t * np.arange(len(chain) - 1, -1, -1)
            chain = chain * np.ldexp(1.0, k - k.max())[:, None]
            if not np.abs(chain).max(axis=1).min() > 0.0:
                raise IllConditionedError(
                    f"Jordan chain vectors at {complex(eigenvalue)} underflow"
                )
            chain = chain / np.linalg.norm(chain, axis=1).max()
        chains.append(chain)
    return chains


def _chains(e, multiplicity, sigma_tol):
    """Jordan chains of e at eigenvalue 0, each scaled so that its
    longest vector has unit norm."""
    d = e.shape[0]
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
