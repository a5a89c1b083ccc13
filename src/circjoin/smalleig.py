"""Eigenvalues and Jordan chains of small dense complex matrices.

Intended for the d x d condensed matrix of a join (d up to a few
hundred).  Equal structure is deflated first: indices i != j are twins
when C_ii = C_jj, C_ij = C_ji and rows i, j and columns i, j agree
outside {i, j} (as for equal blocks with equal couplings).  A class of
m twins with inner value C_ij has the exact eigenvalue C_ii - C_ij on
its m - 1 orthonormal Helmert vectors, and the normalized class
indicators span the complementary invariant subspace, on which C acts
as the q x q quotient (`_deflate`).  The split is unitary, so only the
quotient needs LAPACK; a matrix without twins is its own quotient.

`eigensystem` is one LAPACK eig (np.linalg.eig) of the quotient,
O(q^3): the quotient's eigenvalues and the twin eigenvalues are merged
into clusters with summed multiplicity, and a simple eigenvalue keeps
LAPACK's eigenvector when a residual and separation certificate proves
that the SVD rank test would find one chain of length 1.  Repeated or
uncertified eigenvalues get their Jordan chains from SVD null spaces of
powers of (M - lambda*I) (`jordan_chains`).  The same eig gives the
characteristic polynomial with a certified error bound per coefficient
(`char_poly`), in O(d^2) after the solve.  Default tolerances are
relative to the matrix's inf-norm, so scaling the input scales the
results.

The clustering (`_cluster`, also one call for all the groups of values
of a spectrum report) proves with array operations which values stay
alone, from a bound on how far a greedy cluster can spread, and emits
them directly; only the others go through the greedy merge loop.
"""

import math
from functools import cache
from itertools import compress
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


def _cluster(values, delta, groups):
    """Greedily merge values within delta of a cluster mean, apart in
    each group of equal integer labels in `groups`.

    Returns the columns (mean, multiplicity, perm, offsets), one entry
    per cluster sorted by (group, Re, Im): cluster c holds the indices
    perm[offsets[c]:offsets[c + 1]] into `values`, in joining order.
    Values are visited in (group, Re, Im) order and ties go to the
    nearest existing cluster, the oldest among equals; clusters with
    equal means keep the order in which they were created.

    Values that provably stay alone (see `_crowded`) are emitted directly,
    with one array division value / 1: the loop's mean of a one-member
    cluster is its sum divided by 1, a complex division that can flip the
    sign of a zero part.  Removing them changes no merge and no tie,
    because no other value ever comes within delta of them.

    In the loop, a cluster's mean moves only when it absorbs a value, so
    once the visited real part runs more than 2*delta past it (the
    factor 2 covers rounding in the distance) it can never match again.
    Such clusters are dropped from the front of the window, all of them
    when a group starts, and each value is compared with the rest in one
    vectorized distance computation.  Distances use hypot, as abs() of a
    complex scalar does, so merges are exactly those of a one-by-one scan
    over all clusters of the group.
    """
    values = np.asarray(values, dtype=np.complex128)
    order = np.lexsort((values, groups))  # by (group, Re, Im), NaNs last
    ordered = values[order]
    label = np.asarray(groups)[order]
    n = len(ordered)
    rest = _crowded(ordered, delta, label)
    mean = ordered / 1  # a singleton's mean
    if not len(rest):  # the sort's order is the order of the means
        return mean, np.ones(n, dtype=np.intp), order, np.arange(n + 1)
    sums = []
    members = []
    joined = []  # the cluster that each visited value joins
    means = np.empty(len(rest), dtype=np.complex128)
    lo = 0
    group = None
    for p, v, g in zip(rest.tolist(), ordered[rest], label[rest].tolist()):
        if g != group:  # no cluster of another group can match
            lo, group = len(sums), g
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
        joined.append(best)
    # each value's cluster mean and first member, the cluster's order of
    # creation; members share both and keep their order, the joining order
    mean[rest] = means[joined]
    first = np.arange(n)
    first[rest] = [members[c][0] for c in joined]
    key = np.lexsort((first, mean, label))
    head = first[key]
    offsets = np.flatnonzero(np.concatenate(([True], head[1:] != head[:-1], [True])))
    return mean[key[offsets[:-1]]], np.diff(offsets), order[key], offsets


def _crowded(ordered, delta, label):
    """Positions in `ordered`, values sorted by (group, Re, Im) with the
    sorted group labels `label`, of the values that `_cluster` cannot
    prove to stay alone, in increasing order; all the others are
    singletons of the greedy loop.

    A value is proved alone when every other value of its group lies
    further than R from it, with
        R = 2 (delta (1 + ln N) + 3 N (u M + eta)),
    N values in the group, M their largest |Re| or |Im|, u the unit
    roundoff and eta half the smallest subnormal.  Suppose a cluster's
    members join in the order x_1, x_2, ..., x_p.  Member x_(m+1) joins
    when its computed distance to the computed mean of the first m is
    within delta, so its true distance is within d = delta (1 + 4u) +
    2 eta.  The computed mean of m members is within e_m = sqrt(2)
    ((m + 1) u M + eta) of their exact average a_m (m - 1 additions and a
    product by the rounded 1/m), and a_(m+1) - a_m = (x_(m+1) - a_m) /
    (m + 1).  Summing, |x_(m+1) - x_1| <= d H_m + e_m + sum_(j<m) e_j /
    (j + 1), H_m the harmonic number, which is at most delta (1 + 4u)
    (1 + ln N) + 3 N u M + 3 N eta.  So every member of a cluster of two
    or more has another value (x_1, or x_2 for x_1) within (1 + 4u) R /
    2.  R keeps a factor-2 margin on the drift and on the rounding,
    which covers that factor and the rounding of R and of the distances
    measured here.

    A real block has lambda_(k-j) = conj(lambda_j), so real parts alone
    prove nothing and distances are complex.  Only pairs whose real
    parts lie within R can be near.  Those at most _NEIGHBOURS apart in
    sorted order are measured with hypot, one array per step.  A pair
    further apart, with real parts within R, has both of its values
    among the ends of some pair exactly _NEIGHBOURS + 1 apart with real
    parts within R, and those ends go to the loop unmeasured.  Every
    test is "further than R", so a NaN proves nothing, and a group with
    values that are not finite, or so large that the sum of their parts
    overflows, goes to the loop whole; as 2N parts of at most M sum to
    at most 2 N M, only a group with 2 N M > 2^1023 is summed to see.
    """
    n = len(ordered)
    re, im = ordered.real, ordered.imag
    apart = label[1:] != label[:-1]
    # pairs (i, i + step) of a group, from step 1 on, whose real parts
    # lie within R; step 1 takes those within the R of all n values, which
    # bounds every group's R, as a pair further apart fails hypot anyway
    top = float(np.abs(ordered.view(np.float64)).max())
    bound = _isolation_radius(n, delta, top) if 2.0 * n * top <= 2.0**1023 else math.nan
    near = (~(apart | (re[1:] - re[:-1] > bound))).nonzero()[0]
    if not len(near):
        return near
    cut = apart.nonzero()[0] + 1
    starts = np.concatenate(([0], cut))
    size = np.concatenate((cut, [n])) - starts
    top = np.maximum.reduceat(np.abs(ordered.view(np.float64)), 2 * starts)
    radius = [
        _isolation_radius(k, delta, m)
        if 2.0 * k * m <= 2.0**1023
        or math.isfinite(sum(ordered[s : s + k].view(np.float64).tolist()))
        else math.nan
        for s, k, m in zip(starts.tolist(), size.tolist(), top.tolist())
    ]
    radius = np.repeat(radius, size)
    end = np.repeat(starts + size, size)
    paired = np.concatenate((near, near + 1))  # holds both values of any later pair
    crowded = np.zeros(n, dtype=bool)
    step = 1
    while len(near) and not crowded[paired].all():
        far = near + step
        if step > _NEIGHBOURS:  # too far apart in sorted order to be measured
            crowded[near] = crowded[far] = True
            break
        close = ~(np.hypot(re[far] - re[near], im[far] - im[near]) > radius[near])
        crowded[near[close]] = crowded[far[close]] = True
        step += 1
        near = near[near + step < end[near]]
        near = near[~(re[near + step] - re[near] > radius[near])]
    return crowded.nonzero()[0]


def _isolation_radius(n, delta, top):
    """R of `_crowded` for n values whose largest |Re| or |Im| is top."""
    return 2.0 * (delta * (1.0 + math.log(n)) + 3.0 * n * (_U * top + _ETA))


def _finite_clusters(values, delta, groups):
    """_cluster, with an overflowing cluster mean as NumericalError."""
    clusters = _cluster(values, delta, groups)
    if not np.isfinite(clusters[0]).all():
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

    The matrix is first split into its twin eigenvalues and its q x q
    quotient (see the module docstring); without twins the quotient is
    the matrix itself.  One np.linalg.eig of the quotient gives its
    eigenvalues and eigenvectors, and all eigenvalues, each twin value
    lambda_c repeated m_c - 1 times, are clustered together.  Then, by
    cluster:

    * twin values only: one chain of length 1 per Helmert vector, the
      orthonormal (e_(i_1) + ... + e_(i_r) - r e_(i_(r+1))) /
      sqrt(r (r + 1)), r = 1..m - 1, class by class in increasing
      order of members;
    * quotient values only: a simple eigenvalue whose eigenpair is
      certified (see `_certified`) to pass jordan_chains' nullity test
      keeps its LAPACK eigenvector (unit norm, largest component real)
      as its one chain; any other goes to `jordan_chains` of the
      quotient.  Either is lifted to C^d through the normalized class
      indicators, which keeps norms and chain links;
    * both: `jordan_chains` of the whole matrix, as without twins.

    The characteristic polynomial comes from the same eigenpairs, as in
    `char_poly`.  The cost is O(d^2) for the twin search (O(d) when the
    diagonal entries are distinct, O(d^3) at worst, see `_twin_classes`)
    and O(q^3) for the eig, plus O(q^3) or more per cluster that falls
    back.  Raises ConvergenceError when LAPACK does not converge,
    NumericalError when an eigenvalue overflows, and as `jordan_chains`
    does.
    """
    a = _as_square(matrix)
    norm = _inf_norm(a)
    cluster_delta = _tolerance("cluster_delta", cluster_delta, 1e-7 * norm)
    sigma_tol = _tolerance("sigma_tol", sigma_tol, 1e-8 * norm)
    twins, w, x, fit = _solve(a, norm)
    p, t = len(w), fit[0]
    values = np.concatenate([w, twins.values])
    groups = np.zeros(len(values), dtype=int)
    means, mults, perm, offsets = _finite_clusters(values, cluster_delta, groups)
    helmert = twins.helmert()
    vectors = twins.lift(x.T)
    certified = _certified(w, fit, sigma_tol)
    out = []
    for lam, mult, lo, hi in zip(means.tolist(), mults.tolist(), offsets, offsets[1:]):
        members = perm[lo:hi].tolist()
        if min(members) >= p:
            chains = [helmert[i - p][None] for i in sorted(members)]
        elif max(members) >= p:
            chains = _jordan_chains(a, lam, mult, sigma_tol, t)
        elif mult == 1 and certified[members[0]]:
            chains = [vectors[members[0]][None]]
        else:
            chains = _jordan_chains(twins.quotient, lam, mult, sigma_tol, t)
            chains = [twins.lift(chain) for chain in chains]
        out.append((lam, mult, chains))
    return Eigensystem(out, *_char_poly(a, twins, w, x, fit))


def char_poly(matrix):
    """Coefficients of det(x I - M), highest degree first, and a bound on
    the error of each; one np.linalg.eig of the q x q quotient (see the
    module docstring), O(q^3), and O(d^2) after it.

    The coefficients are np.poly of the eigenvalues: the eigenvalues w
    of the quotient Q and the twin values lambda_c, each m_c - 1 times.
    A lambda_c = C_ii - C_ij is exact up to the rounding of that one
    difference, which is 0 when the difference is exact (tested by
    TwoSum).  For the w, the eigenvectors X, R = Q X - X W (W = diag(w))
    and the singular values of X are the certificate:

    * Q is within R X^-1 of X W X^-1, so by Bauer-Fike every eigenvalue
      of Q lies in a disc of radius rho = ||R|| sigma_max / sigma_min^2
      about some w_j.  ||R|| is the computed Frobenius norm plus the
      rounding error of forming R and of forming Q from M, and
      sigma_min is lowered by a margin for the SVD's own error.
    * A connected group of m such discs holds exactly m eigenvalues of Q,
      so the eigenvalues of Q pair off with the w_j within 2 m rho
      <= 2 q rho.  This holds for repeated eigenvalues too.
    * Moving each root by at most its radius r moves e_i, the i-th
      elementary symmetric function, by at most e_i(|w| + r) - e_i(|w|);
      np.poly's own rounding adds at most gamma_4d * e_i(|w|).  The bound
      is twice their sum, which covers the rounding of the bound itself.
    * e_i(|w|) and e_i(|w| + r) come from one Vieta recurrence over
      both root vectors (`_elementary`).  Every term is nonnegative, so
      each is within gamma_2g of its value, relatively, g the number of
      roots, and e_0 = 1 is exact.  For i >= 1 their difference D_i is
      at least sum_j r_j e_(i-1)(|w| without w_j) >= c i e_i(|w|) when
      every r_j >= c |w_j|.  Without twins, g = d and every r_j is at
      least 4 d (d + 4) u max|w| from the rounding term of ||R||, so
      the rounding of the two terms, gamma_2d (2 e_i(|w|) + D_i), is
      about D_i / (d + 4) or less, which the factor 2 covers too.  With
      twins, the recurrence runs over the w and the inexact lambda_c,
      all with the radius rho above, raised to 4 g (g + 4) u max|w_j|
      if that is larger, for the same argument (an inexact lambda_c is
      within u |lambda_c| of its value); the exact lambda_c have radius
      0, and the product of their (x + |lambda_c|)^(m_c - 1) multiplies
      the bound after it, a convolution of nonnegative terms whose
      rounding the factor 2 covers as well.  Without twins, g = d and
      rho is never raised.

    A bound is inf when X is not finite, its SVD fails or X is
    numerically singular.  A real M gets real coefficients.  When every
    entry of M is a Gaussian integer, so is every coefficient, and each
    one whose bound is below 1/2 is rounded to it and is then exact;
    the others stay unrounded.  A coefficient that overflows is returned
    as inf or nan.  Raises ConvergenceError when LAPACK does not
    converge and NumericalError when the inf-norm of M overflows.
    """
    a = _as_square(matrix)
    return _char_poly(a, *_solve(a, _inf_norm(a)))


class _Twins(NamedTuple):
    """The twin classes of a matrix C and its quotient (see `_deflate`).

    `classes` lists the members of each class of two or more, in
    increasing order, classes by first member.  `quotient` is the
    q x q matrix of C on the normalized class indicators, one per
    class and per index in no class, in order of first member, and
    `error` bounds the Frobenius norm of the rounding of forming it, on
    the scale 2^-t of `_fit` (0 when the quotient is C itself).
    `values` holds each class's eigenvalue C_ii - C_ij, m - 1 times,
    class by class.  For `_char_poly`, on the same scale: `loose` holds
    |C_ii - C_ij| of the classes where that difference is inexact, m - 1
    times, and `fixed` the coefficients of the product of
    (x + |C_ii - C_ij|)^(m - 1) over the others, highest degree first.
    Index i of C lies in the class of quotient coordinate `index[i]`,
    whose normalized indicator has the entry `weight[i]` = 1 / sqrt(m)
    there.
    """

    classes: list
    quotient: np.ndarray
    error: float
    values: np.ndarray
    loose: np.ndarray
    fixed: np.ndarray
    index: np.ndarray
    weight: np.ndarray

    def lift(self, chain):
        """A chain of the quotient, rows in C^q, as a chain of C.  Both
        parts are scaled by the real weights, so a weight of 1 keeps
        every bit, signed zeros and non-finite entries included."""
        out = chain[:, self.index]
        out.real *= self.weight
        out.imag *= self.weight
        return out

    def helmert(self):
        """The Helmert vectors of every class, as the rows of a
        (len(values), d) array in the order of `values`: for members
        i_1 < ... < i_m, row r = 1..m - 1 of the class is
        (e_(i_1) + ... + e_(i_r) - r e_(i_(r+1))) / sqrt(r (r + 1))."""
        out = np.zeros((len(self.values), len(self.index)), dtype=np.complex128)
        start = 0
        for members in self.classes:
            r = np.arange(1, len(members))
            h = np.tri(len(r), len(members))
            h[r - 1, r] = -r
            out[start : start + len(r), members] = h / np.sqrt(r * (r + 1))[:, None]
            start += len(r)
        return out


def _twin_classes(a):
    """The classes of two or more twins of `a` (see the module
    docstring), members in increasing order, classes by first member.

    Twins have equal diagonal entries, so only indices that share a
    diagonal value are compared, and a matrix whose d diagonal entries
    are distinct is done in O(d).  Otherwise the row of one twin is the
    row of the other with two entries swapped, and so is its column, so
    twins also share the largest real part of their row and of their
    column: O(d^2) to compute, and indices are compared only within
    groups that agree on all three.  Being twins is transitive: from
    i ~ j and j ~ k, rows i, j and k agree outside {i, j, k} and
    C_ij = C_ik = C_jk = C_ji = C_ki = C_kj, and likewise for columns.
    So a class is its first member's twins, found by comparing that
    member with the rest of its group: O(g) numpy work for C_ij = C_ji,
    g the size of the group, and O(d) for each j that passes it.

    Each round takes one class, or one index in none, out of its group,
    so a group whose members all pass C_ij = C_ji without being twins
    costs O(g^2 d), and the search O(d^3) at worst.  That is the case
    where C is symmetric with a constant diagonal and rows that are
    permutations of one another, as for blocks of one size and row sum
    coupled in a regular pattern: for 128 rings ring(6, 1), each
    coupled to the blocks 1 and 5 places away on either side, the search
    takes about 10 ms on one core of an Intel Xeon, and the solve,
    whose repeated eigenvalues go to SVD chains, about 0.5 s.
    """
    d = len(a)
    diag = a.diagonal().tolist()
    if len(set(diag)) == d:
        return []
    re = a.real
    keys = zip(diag, re.max(axis=1).tolist(), re.max(axis=0).tolist())
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    classes = []
    for group in groups.values():
        while len(group) > 1:
            i, rest = group[0], np.array(group[1:])
            twin = a[i, rest] == a[rest, i]
            if twin.any():
                j = rest[twin]
                same = (a[j] == a[i]) & (a[:, j].T == a[:, i])
                same[:, i] = True
                same[np.arange(len(j)), j] = True
                twin[twin] = same.all(axis=1)
            if twin.any():
                classes.append([i] + rest[twin].tolist())
            group = rest[~twin].tolist()
    classes.sort()
    return classes


def _deflate(a, t):
    """The `_Twins` of `a` on the scale 2^-t; without twins, its quotient
    is `a` itself.

    For a class c of m_c twins, with first member r_c and inner value
    C_ij (i != j in c), C maps every vector that vanishes off c and sums
    to zero on it to (C_ii - C_ij) times itself, since C_kj is the same
    for all j in c when k is outside c.  C_ij is also the same for all
    i in c and j in c', so C maps the normalized indicators
    u_c = (e_(i_1) + ... + e_(i_m)) / sqrt(m_c) among themselves, by the
    quotient Q_cc' = sqrt(m_c m_c') C_(r_c r_c') for c != c' and
    Q_cc = C_(r_c r_c) + (m_c - 1) C_ij.  With U the orthonormal basis
    of Helmert vectors and indicators, C = U (diag(lambda) (+) Q) U*.

    Q_cc is at most the inf-norm of C, but Q_cc' only sqrt(m_c / m_c')
    times it, so near the float range Q can overflow where C does not;
    such a matrix is left undeflated.
    """
    d = len(a)
    undeflated = _Twins([], a, 0.0, *_untwinned(d))
    classes = _twin_classes(a)
    if not classes:
        return undeflated
    firsts = [c[0] for c in classes]
    size = np.ones(d)
    inner = np.zeros(d, dtype=np.complex128)
    keep = np.ones(d, dtype=bool)
    for members in classes:
        size[members[0]] = len(members)
        inner[members[0]] = a[members[0], members[1]]
        keep[members[1:]] = False
    reps = np.flatnonzero(keep)
    index = np.empty(d, dtype=np.intp)
    index[reps] = np.arange(len(reps))
    for members in classes:
        index[members] = index[members[0]]
    m = size[reps]
    mag = np.sqrt(np.outer(m, m))
    block = a[np.ix_(reps, reps)]
    with np.errstate(over="ignore", invalid="ignore"):
        quotient = block * mag
        # sqrt and product off the diagonal, product and sum on it
        error = np.abs(block) * mag
    np.fill_diagonal(quotient, block.diagonal() + (m - 1.0) * inner[reps])
    if not np.isfinite(quotient).all():
        return undeflated
    np.fill_diagonal(error, np.abs(block.diagonal()) + (m - 1.0) * np.abs(inner[reps]))
    scale = math.ldexp(1.0, -t)
    error = np.linalg.norm(error * scale) * _gamma(3)
    # lambda_c = C_ii - C_ij, and whether it is exact, both parts by TwoSum
    x, y = a[firsts, firsts], -inner[firsts]
    lam = x + y
    yv = lam - x
    exact = ((x - (lam - yv)) + (y - yv) == 0.0).tolist()
    repeat = [len(c) - 1 for c in classes]
    mags = np.abs(lam) * scale
    fixed = np.ones(1)
    for n, mag in zip(compress(repeat, exact), compress(mags, exact)):
        # C(n, i) |lambda_c|^i, i = 0..n, by one running product
        k = np.arange(1.0, n + 1.0)
        fixed = np.convolve(fixed, np.cumprod(np.concatenate([[1.0], mag * (n + 1.0 - k) / k])))
    inexact = [not e for e in exact]
    return _Twins(
        classes,
        quotient,
        error,
        np.repeat(lam, repeat),
        np.repeat(mags[inexact], list(compress(repeat, inexact))),
        fixed,
        index,
        1.0 / np.sqrt(size[reps])[index],
    )


@cache
def _untwinned(d):
    """The `_Twins` fields from `values` on of a d x d matrix without
    twins: no twin values, the polynomial 1, and the identity lift.
    They are read-only, as every call shares them."""
    fields = (
        np.zeros(0, dtype=np.complex128),
        np.zeros(0),
        np.ones(1),
        np.arange(d),
        np.ones(d),
    )
    for field in fields:
        field.flags.writeable = False
    return fields


def _solve(a, norm):
    """(twins, w, x, fit): the `_deflate` of `a`, the eigenpairs (w, x)
    of its quotient and their `_fit`, on the scale of `a`'s norm."""
    t = _scale_exponent(norm)
    twins = _deflate(a, t)
    w, x = _eig(twins.quotient)
    return twins, w, x, _fit(twins.quotient, w, x, t)


def _eig(a):
    try:
        return np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigenvalue solver: {exc}") from exc


def _gamma(k):
    """gamma_k = k u / (1 - k u), u the unit roundoff of float64."""
    return k * _U / (1.0 - k * _U)


def _fit(a, w, x, t):
    """(t, r, sv) for the eigenpairs (w_i, x_i) of `a`: r = (M X - X W)
    / 2^t and sv the singular values of X, largest first, with 2^t the
    power of two just above the inf-norm of the matrix that `a` is the
    quotient of.  Working on M / 2^t keeps r from overflowing or
    underflowing with the scale of M.  r and sv are None when X is not
    finite or its SVD fails."""
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


def _char_poly(a, twins, w, x, fit):
    """`char_poly` of `a` from its `_solve`: the twins of `a`, the
    eigenpairs (w, X) of their quotient and their `_fit`.

    Both the coefficients and the bound are formed for M / 2^t and
    coefficient i is then scaled by 2^(t i), so a coefficient overflows
    to inf only when its value is out of range."""
    d, p = len(a), len(w)
    t, r, sv = fit
    scale = math.ldexp(1.0, -t)
    ws = np.concatenate([w, twins.values]) * scale
    mags = np.abs(ws[:p])
    loose = np.concatenate([mags, twins.loose])
    g, top = len(loose), loose.max()
    radius = np.inf
    if r is not None:
        # sigma_min is lowered by the SVD's own error, and ||R|| raised by
        # the rounding of each entry: a complex dot product of length q, a
        # product and a difference, and of forming the quotient
        s_min = sv[-1] - _gamma(4 * p) * sv[0]
        r_norm = np.linalg.norm(r) + 2.0 * _gamma(p + 4) * np.linalg.norm(x) * (
            np.linalg.norm(twins.quotient * scale) + top
        )
        r_norm += twins.error * sv[0]
        if s_min > 0.0:
            radius = 2.0 * p * r_norm * sv[0] / s_min**2
    # the recurrence runs over the w and the inexact twin values, all
    # with the radius above or, where that is smaller, the
    # 4 g (g + 4) u max|w_j| of the argument in `char_poly`, which also
    # covers the rounding of C_ii - C_ij.  The exact twin values
    # (radius 0) multiply the bound after it, as `fixed`, so that the
    # spread is a difference of two close terms only where every root
    # has at least that radius.  All terms are >= 0, so a nan is an inf
    # times 0
    radius = max(radius, 4.0 * g * (g + 4) * _U * top)
    e, shifted = _elementary(np.array([loose, loose + radius]))
    bound = np.convolve(2.0 * (shifted - e + _gamma(4 * d) * e), twins.fixed)
    bound[np.isnan(bound)] = np.inf
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
    return _jordan_chains(a, eigenvalue, multiplicity, sigma_tol, _scale_exponent(norm))


def _jordan_chains(a, eigenvalue, multiplicity, sigma_tol, t):
    """`jordan_chains` of the checked complex matrix `a`, on the scale
    2^t in place of the one of its own inf-norm.  `eigensystem` passes
    the t of the whole matrix for a quotient, so that (Q - lambda I)^p
    is thresholded at sigma_tol * 2^(t (p - 1)) as (C - lambda I)^p
    would be: the split is unitary, so the singular values of the
    latter are those of the former and the |lambda_c - lambda|^p."""
    d = a.shape[0]
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
