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
powers of (M - lambda*I) (`_jordan_chains`).  The same eig gives the
characteristic polynomial with a certified error bound per coefficient
(`char_poly`), one Vieta recurrence for both, in O(d^2) after the
solve.  Default tolerances are relative to the matrix's inf-norm, and
the work is done on the scale of its power of two, so scaling the
input by a power of two scales the results, bit for bit where
LAPACK's eig does.

The clustering (`_cluster`, also one call for all the groups of values
of a spectrum report) proves with array operations, from a bound on how
far a greedy cluster can spread, which values stay alone and which runs
of equal values, such as the m - 1 copies of a twin value, form one
cluster of their own, and emits them directly, a run's mean with the
bits of the loop's; only the others go through the greedy merge loop.
"""

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    IllConditionedError,
    NumericalError,
    PreconditionError,
)


def _checked(matrix):
    """`matrix` as a complex square array, and its inf-norm.  Entries
    that are not finite are looked for only when the norm is not."""
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise PreconditionError("expected a square matrix of size >= 1")
    with np.errstate(over="ignore"):
        norm = float(np.maximum.reduce(np.add.reduce(np.abs(a), 1)))
    if not norm < math.inf:
        if not np.isfinite(a).all():
            raise PreconditionError("matrix entries must be finite")
        raise NumericalError("the inf-norm of the matrix overflows")
    return a, norm


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
# what `_crowded` returns when every value is proved alone
_ALONE = np.zeros(0, dtype=np.intp)


def _cluster(values, delta, groups):
    """Greedily merge values within delta of a cluster mean, apart in
    each group of equal integer labels in `groups`.

    Returns the columns (mean, multiplicity, perm, offsets), one entry
    per cluster sorted by (group, Re, Im): cluster c holds the indices
    perm[offsets[c]:offsets[c + 1]] into `values`, in joining order.
    Values are visited in (group, Re, Im) order and ties go to the
    nearest existing cluster, the oldest among equals; clusters with
    equal means keep the order in which they were created.

    The clusters that `_crowded` proves without the loop are emitted
    directly: a value that provably stays alone, and a run of copies of
    one value that provably forms one cluster of its own, with the mean
    the loop would give it.  Removing them changes no merge and no tie,
    because no other value ever comes within delta of their means.

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
    mean = ordered / 1  # a singleton's mean
    rest, first = _crowded(ordered, delta, label, mean)
    if first is None:
        if not len(rest):  # the sort's order is the order of the means
            return mean, np.ones(n, dtype=np.intp), order, np.arange(n + 1)
        first = np.arange(n)
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
    first[rest] = [members[c][0] for c in joined]
    key = np.lexsort((first, mean, label))
    head = first[key]
    offsets = np.concatenate(([True], head[1:] != head[:-1], [True])).nonzero()[0]
    return mean[key[offsets[:-1]]], offsets[1:] - offsets[:-1], order[key], offsets


def _crowded(ordered, delta, label, mean):
    """The clusters of `_cluster` that need no greedy loop, for the
    values `ordered`, sorted by (group, Re, Im), with the sorted group
    labels `label` and their singleton means `mean`.  Returns (rest,
    first): the positions of the values that the loop must visit, in
    increasing order, and for every other position the first position
    of its cluster, or None when each of those values is alone; the
    mean of a run that forms one cluster (see below) is written into
    `mean` at its positions.

    A run is a maximal set of copies (==) of one value v in one group;
    they are adjacent in sorted order, and a value without copies is a
    run of one.  A run is proved isolated when every value of its group
    that is not a copy of v lies further than R from v, with
        R = 2 (delta (1 + ln N) + 3 N (u M + eta)),
    N values in the group, copies included, M their largest |Re| or
    |Im|, u the unit roundoff and eta half the smallest subnormal.
    Suppose a cluster's members join in the order x_1, x_2, ..., x_p.
    Member x_(m+1) joins when its computed distance to the computed mean
    of the first m is within delta, so its true distance is within d =
    delta (1 + 4u) + 2 eta.  The computed mean of m members is within
    e_m = sqrt(2) ((m + 1) u M + eta) of their exact average a_m (m - 1
    additions and a product by the rounded 1/m), and a_(m+1) - a_m =
    (x_(m+1) - a_m) / (m + 1).  Summing, |x_(m+1) - x_1| <= d H_m + e_m +
    sum_(j<m) e_j / (j + 1), H_m the harmonic number, which is at most
    delta (1 + 4u) (1 + ln N) + 3 N u M + 3 N eta; this holds for any
    value within delta of the mean of the first m, joining or not.  So a
    value within delta of a cluster's mean lies within (1 + 4u) R / 2 of
    the cluster's first member, and R keeps a factor-2 margin on the
    drift and on the rounding, which covers that factor and the rounding
    of R and of the distances measured here.  Hence a copy of an
    isolated v never comes within delta of a cluster begun by another
    value, and no other value within delta of a cluster begun by a copy
    of v: the mean of a run's cluster stays within R / 2 of v, and its
    copies form clusters of their own.

    A run of one is then a singleton, whose mean in the loop is value /
    1, a complex division that can flip the sign of a zero part.  The
    loop visits the copies of a longer run one after another, and they
    form one cluster exactly when each copy is within delta of the mean
    of the copies before it.  That is measured as the loop measures it:
    the running sums added in visiting order (np.add.accumulate, never a
    pairwise sum), each divided by the member count as the loop's
    np.complex128 division does, and the distance taken with hypot.  A
    run that fails (as at delta 0, where the rounded mean can move off
    v) goes to the loop whole, and so does every run of a value that is
    not finite, whose mean is not.

    A real block has lambda_(k-j) = conj(lambda_j), so real parts alone
    prove nothing and distances are complex.  Only pairs whose real
    parts lie within R can be near.  Those at most _NEIGHBOURS runs
    apart in sorted order are measured with hypot, one array per step.
    A pair further apart, with real parts within R, has both of its runs
    among the ends of some pair exactly _NEIGHBOURS + 1 runs apart with
    real parts within R, and those ends go to the loop unmeasured.
    Every test is "further than R", so a NaN proves nothing, and a group
    with values that are not finite, or so large that the sum of their
    parts overflows, goes to the loop whole; as 2N parts of at most M
    sum to at most 2 N M, only a group with 2 N M > 2^1023 is summed to
    see.
    """
    n = len(ordered)
    re, im = ordered.real, ordered.imag
    # pairs (i, i + step) of a group, from step 1 on, whose real parts
    # lie within R; step 1 takes those within the R of all n values, which
    # bounds every group's R, as a pair further apart fails hypot anyway
    top = float(np.maximum.reduce(np.abs(ordered.view(np.float64))))
    bound = _isolation_radius(n, delta, top) if 2.0 * n * top <= 2.0**1023 else math.nan
    far = re[1:] - re[:-1] > bound
    if np.count_nonzero(far) == len(far):
        return _ALONE, None
    apart = label[1:] != label[:-1]
    near = (~(apart | far)).nonzero()[0]
    if not len(near):
        return near, None
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
    # from here on, a run is measured once, at its first copy: lead marks
    # those, and run numbers each position's run; without copies, every
    # run is one value and the positions stay those of the values
    copy = ordered[near] == ordered[near + 1]
    lead = None
    if np.count_nonzero(copy):
        lead = np.ones(n, dtype=bool)
        lead[near[copy] + 1] = False
        run = lead.cumsum() - 1
        near, starts = run[near[~copy]], run[starts]
        size = np.concatenate((starts[1:], run[-1:] + 1)) - starts
        re, im = re[lead], im[lead]
    crowded = np.zeros(len(re), dtype=bool)
    if len(near):
        radius = np.repeat(radius, size)
        end = np.repeat(starts + size, size)
        paired = np.concatenate((near, near + 1))  # holds both runs of any later pair
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
    if lead is None:
        return crowded.nonzero()[0], None
    at = lead.nonzero()[0]
    length = np.bincount(run)
    loop = crowded[run]
    # the isolated runs of two or more copies, those of one length at a
    # time: each is one cluster when every copy lies within delta of the
    # running mean before it, and goes to the loop otherwise
    isolated = ~crowded & (length > 1)
    firsts, length = at[isolated], length[isolated]
    for k in set(length.tolist()):
        pos = firsts[length == k, None] + np.arange(k)
        copies = ordered[pos]
        means = np.add.accumulate(copies, 1) / np.arange(1, k + 1)
        gap = copies[:, 1:] - means[:, :-1]
        one = np.logical_and.reduce(np.hypot(gap.real, gap.imag) <= delta, 1)
        mean[pos[one]] = means[one, -1:]
        loop[pos] = ~one[:, None]
    return loop.nonzero()[0], at[run]


def _isolation_radius(n, delta, top):
    """R of `_crowded` for n values whose largest |Re| or |Im| is top."""
    return 2.0 * (delta * (1.0 + math.log(n)) + 3.0 * n * (_U * top + _ETA))


def _finite_clusters(values, delta, groups):
    """_cluster, with an overflowing cluster mean as NumericalError."""
    clusters = _cluster(values, delta, groups)
    if np.count_nonzero(np.isfinite(clusters[0])) < len(clusters[0]):
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
    summing to the matrix size; `chains` are the cluster's Jordan chains
    (see `_jordan_chains`).  Eigenvalues within cluster_delta (default
    1e-7 * inf-norm) are merged to their mean, and sigma_tol, the
    threshold of the chains' nullity test, defaults to 1e-8 * inf-norm.

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
      certified (see `_certified`) to pass the chains' nullity test
      keeps its LAPACK eigenvector (unit norm, largest component real)
      as its one chain; any other goes to `_jordan_chains` of the
      quotient.  Either is lifted to C^d through the normalized class
      indicators, which keeps norms and chain links;
    * both: `_jordan_chains` of the whole matrix, as without twins.

    The characteristic polynomial comes from the same eigenpairs, as in
    `char_poly`.  The cost is O(d^2) for the twin search (O(d) when the
    diagonal entries are distinct, O(d^3) at worst, see `_twin_classes`)
    and O(q^3) for the eig, plus O(q^3) or more per cluster that falls
    back.  Raises ConvergenceError when LAPACK does not converge,
    NumericalError when an eigenvalue overflows, and as `_jordan_chains`
    does.
    """
    a, norm = _checked(matrix)
    cluster_delta = _tolerance("cluster_delta", cluster_delta, 1e-7 * norm)
    sigma_tol = _tolerance("sigma_tol", sigma_tol, 1e-8 * norm)
    twins, t, w, x, ws, fit = _solve(a, norm)
    p = len(w)
    values = np.concatenate([w, twins.values])
    groups = np.zeros(len(values), dtype=int)
    means, mults, perm, offsets = _finite_clusters(values, cluster_delta, groups)
    vectors = twins.lift(x).T[:, None]  # each a chain of length 1
    certified = _certified(ws, fit, math.ldexp(sigma_tol, -t))
    perm, offsets = perm.tolist(), offsets.tolist()
    out = []
    for lam, mult, lo, hi in zip(means.tolist(), mults.tolist(), offsets, offsets[1:]):
        members = perm[lo:hi]
        if min(members) >= p:
            chains = list(twins.helmert[np.subtract(sorted(members), p), None])
        elif max(members) >= p:
            chains = _jordan_chains(a, lam, mult, sigma_tol, t)
        elif mult == 1 and certified[members[0]]:
            chains = [vectors[members[0]]]
        else:
            chains = _jordan_chains(twins.quotient, lam, mult, sigma_tol, t)
            chains = [twins.lift(chain.T).T for chain in chains]
        out.append((lam, mult, chains))
    return Eigensystem(out, *_char_poly(a, twins, t, ws, fit))


def char_poly(matrix):
    """Coefficients of det(x I - M), highest degree first, and a bound on
    the error of each; one np.linalg.eig of the q x q quotient (see the
    module docstring), O(q^3), and O(d^2) after it.

    The coefficients are those of prod (x - r) over the eigenvalues r:
    the eigenvalues w of the quotient Q and the twin values lambda_c,
    each m_c - 1 times, all from one Vieta recurrence (`_vieta`).  A
    lambda_c = C_ii - C_ij is exact up to the rounding of that one
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
      the recurrence's own rounding adds at most gamma_4d * e_i(|w|), as
      each root adds a complex product (error at most sqrt(2) gamma_2)
      and sum (at most u) to every term.  The bound is twice their sum,
      which covers the rounding of the bound itself.
    * e_i(|w|) and e_i(|w| + r) are two more columns of the same
      recurrence.  Every term is nonnegative, so each is within
      gamma_2g of its value, relatively, g the number of roots, and
      e_0 = 1 is exact.  For i >= 1 their difference D_i is
      at least sum_j r_j e_(i-1)(|w| without w_j) >= c i e_i(|w|) when
      every r_j >= c |w_j|.  Without twins, g = d and every r_j is at
      least 4 d (d + 4) u max|w| from the rounding term of ||R||, so
      the rounding of the two terms, gamma_2d (2 e_i(|w|) + D_i), is
      about D_i / (d + 4) or less, which the factor 2 covers too.  With
      twins, the w and the inexact lambda_c come first, all with the
      radius rho above, raised to 4 g (g + 4) u max|w_j| if that is
      larger, for the same argument (an inexact lambda_c is within
      u |lambda_c| of its value); the exact lambda_c have radius 0 and
      come after the bound is formed, multiplying it by x + |lambda_c|,
      nonnegative terms whose rounding the factor 2 covers as well.
      Without twins, g = d and rho is never raised.

    A bound is inf when X is not finite, its SVD fails or X is
    numerically singular.  A real M gets real coefficients; a complex M
    keeps them as computed, also when its eigenvalues come out closed
    under conjugation, which is then rounding luck.  When every entry
    of M is a Gaussian integer, so is every coefficient, and each one
    whose bound is below 1/2 is rounded to it and is then exact; the
    others stay unrounded.  A coefficient that overflows is returned as
    inf or nan.  Raises ConvergenceError when LAPACK does not converge
    and NumericalError when the inf-norm of M overflows.
    """
    a, norm = _checked(matrix)
    twins, t, _, _, ws, fit = _solve(a, norm)
    return _char_poly(a, twins, t, ws, fit)


class _Twins(NamedTuple):
    """The twin classes of a matrix C and its quotient (see `_deflate`).

    `quotient` is the q x q matrix of C on the normalized class
    indicators, one per class and per index in no class, in order of
    first member, and `error` bounds the Frobenius norm of the rounding
    of forming it, on the scale 2^-t of `_solve` (0 when the quotient is
    C itself).
    `values` holds each class's eigenvalue C_ii - C_ij, m - 1 times,
    class by class, and `helmert` their Helmert vectors (see `_deflate`),
    one row each, in the same order.  For `_char_poly`, on the same
    scale: `roots` holds (-lambda_c, |lambda_c|) for each twin value
    lambda_c, the `loose` ones of the classes where C_ii - C_ij is
    inexact first.  Index i of C lies in the class of quotient
    coordinate `index[i]`, whose normalized indicator has the entry
    `weight[i, 0]` = 1 / sqrt(m) there.
    """

    quotient: np.ndarray
    error: float
    values: np.ndarray
    helmert: np.ndarray
    roots: tuple
    loose: int
    index: np.ndarray
    weight: np.ndarray

    def lift(self, columns):
        """Vectors of the quotient, the columns of a (q, k) array, as
        vectors of C, the columns of a (d, k) array.  Both parts are
        scaled by the real weights, so a weight of 1 keeps every bit,
        signed zeros and non-finite entries included."""
        out = columns[self.index]
        parts = out.view(np.float64)
        parts *= self.weight
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
    For members i_1 < ... < i_m, Helmert vector r = 1..m - 1 of the
    class is (e_(i_1) + ... + e_(i_r) - r e_(i_(r+1))) / sqrt(r (r + 1)).

    Q_cc is at most the inf-norm of C, but Q_cc' only sqrt(m_c / m_c')
    times it, so near the float range Q can overflow where C does not;
    such a matrix is left undeflated.
    """
    d = len(a)
    undeflated = _Twins(a, 0.0, *_untwinned(d))
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
    helmert = np.zeros((d - len(reps), d), dtype=np.complex128)
    start = 0
    for members in classes:
        r = np.arange(1, len(members))
        h = np.tri(len(r), len(members))
        h[r - 1, r] = -r
        helmert[start : start + len(r), members] = h / np.sqrt(r * (r + 1))[:, None]
        start += len(r)
    # the inexact classes' roots first, each class's m - 1 times
    order = sorted(range(len(classes)), key=exact.__getitem__)
    rows = np.repeat(order, [repeat[c] for c in order])
    lam_s, mags = (-lam * scale)[rows], (np.abs(lam) * scale)[rows]
    return _Twins(
        quotient,
        error,
        np.repeat(lam, repeat),
        helmert,
        tuple(zip(lam_s.tolist(), mags.tolist())),
        sum(n for n, e in zip(repeat, exact) if not e),
        index,
        (1.0 / np.sqrt(size[reps])[index])[:, None],
    )


@cache
def _untwinned(d):
    """The `_Twins` fields from `values` on of a d x d matrix without
    twins: no twin values, Helmert vectors or roots, and the identity
    lift.  They are read-only, as every call shares them."""
    values = np.zeros(0, dtype=np.complex128)
    helmert = np.zeros((0, d), dtype=np.complex128)
    index, weight = np.arange(d), np.ones((d, 1))
    for field in (values, helmert, index, weight):
        field.flags.writeable = False
    return values, helmert, (), 0, index, weight


def _solve(a, norm):
    """(twins, t, w, x, ws, fit): the `_Twins` of `a` on the scale 2^-t of
    its inf-norm `norm`, the eigenpairs (w, x) of their quotient,
    ws = w / 2^t and their `_fit`."""
    t = _scale_exponent(norm)
    twins = _deflate(a, t)
    try:
        w, x = np.linalg.eig(twins.quotient)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigenvalue solver: {exc}") from exc
    ws = w * math.ldexp(1.0, -t)
    return twins, t, w, x, ws, _fit(twins.quotient, ws, x, t)


def _gamma(k):
    """gamma_k = k u / (1 - k u), u the unit roundoff of float64."""
    return k * _U / (1.0 - k * _U)


def _fit(q, ws, x, t):
    """For the eigenpairs (w_i, x_i) of `q`, ws = w / 2^t, and R = Q X -
    X W (W = diag(w)), on the scale 2^-t that keeps R from overflowing
    or underflowing: the largest and the smallest singular value of X,
    each ||R e_i||, ||R||_F, ||X||_F and ||Q / 2^t||_F, all formed once;
    or None when X is not finite or its SVD fails."""
    try:
        sv = np.linalg.svd(x, compute_uv=False).tolist()
    except np.linalg.LinAlgError:  # as for a nan in X
        return None
    if not math.isfinite(sum(sv)):  # as for an inf in X
        return None
    qs = q * math.ldexp(1.0, -t)
    r = qs @ x
    r -= x * ws
    squares = np.add.reduce((r.conj() * r).real, 0)
    r_norm = math.sqrt(sum(squares.tolist()))
    x_norm, q_norm = math.sqrt(np.vdot(x, x).real), math.sqrt(np.vdot(qs, qs).real)
    return sv[0], sv[-1], np.sqrt(squares), r_norm, x_norm, q_norm


def _certified(ws, fit, tol):
    """Boolean mask over the eigenpairs (w_i, x_i) of M, unit-norm x_i,
    from ws = w / 2^t, their `_fit` and tol = sigma_tol / 2^t: True
    where
    sigma_d(M - w_i I) <= sigma_tol < sigma_(d-1)(M - w_i I)
    is proven with a factor-2 margin on each side, so that _jordan_chains
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
    quantities are those of M / 2^t, as in _jordan_chains, so they
    neither overflow nor underflow with the scale of M.  Nothing is
    certified when X is not finite or its SVD fails.
    """
    if fit is None:
        return [False] * len(ws)
    s_max, s_min, residuals, r_norm = fit[:4]
    dist = np.abs(ws[:, None] - ws)
    dist.flat[:: len(ws) + 1] = np.inf
    gaps = np.minimum.reduce(dist, 1).tolist()
    return [
        r <= tol / 2 and gap * (s_min * s_min) / s_max - r_norm > 2 * tol * s_min
        for r, gap in zip(residuals.tolist(), gaps)
    ]


def _char_poly(a, twins, t, ws, fit):
    """`char_poly` of `a` from its `_solve`.

    The roots, the coefficients and the bound are formed for M / 2^t,
    and coefficient i is then scaled by 2^(t i), so a coefficient
    overflows to inf only when its value is out of range."""
    d, p = len(a), len(ws)
    # (-r, |r|) for each root r: the w, then the twin values, the g that
    # get a radius first (see `char_poly`), and the largest |r| of those
    roots = [(-z, abs(z)) for z in ws.tolist()]
    roots += twins.roots
    g = p + twins.loose
    top = max(m for _, m in roots[:g])
    radius = math.inf
    if fit is not None:
        # sigma_min is lowered by the SVD's own error, and ||R|| raised by
        # the rounding of each entry: a complex dot product of length q, a
        # product and a difference, and of forming the quotient
        s_max, s_min, _, r_norm, x_norm, q_norm = fit
        s_min -= _gamma(4 * p) * s_max
        r_norm += 2.0 * _gamma(p + 4) * x_norm * (q_norm + top) + twins.error * s_max
        if s_min > 0.0:
            radius = 2.0 * p * r_norm * s_max / s_min**2
    # or, where that is smaller, the 4 g (g + 4) u max|w_j| of the
    # argument in `char_poly`, which also covers the rounding of
    # C_ii - C_ij; the exact twin values' last column is never read
    radius = max(radius, 4.0 * g * (g + 4) * _U * top)
    roots = np.array([(z, m, m + radius) for z, m in roots], dtype=np.complex128)
    # columns: the coefficients, 2 c e_i(|w|) and 2 e_i(|w| + r), with
    # 1 - c exact and at least gamma_4d, so that their difference is the
    # bound, 2 (e_i(|w| + r) - e_i(|w|) + (1 - c) e_i(|w|)).  An infinite
    # radius makes inf times 0 in the imaginary parts of the real
    # columns, and so nans where a real recurrence holds inf (see below)
    coeffs = np.zeros((d + 1, 3), dtype=np.complex128)
    coeffs[0] = 1.0, 2.0 * math.nextafter(1.0 - _gamma(4 * d), 0.0), 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        _vieta(coeffs, roots[:g])
        # the bound, in place of 2 c e_i(|w|), before the exact twin values
        np.subtract(coeffs[:, 2], coeffs[:, 1], out=coeffs[:, 1])
        _vieta(coeffs, roots[g:])
        scaled = np.ldexp(coeffs.view(np.float64), t * np.arange(d + 1)[:, None])
    # every term of the bound is >= 0, so a nan is an inf times 0
    bound = np.fmin(scaled[:, 2], math.inf)
    if not np.count_nonzero(a.imag):  # a real matrix has a real characteristic polynomial
        scaled[:, 1] = 0.0
    coeffs = scaled.view(np.complex128)[:, 0]
    if not np.count_nonzero(np.rint(a) != a):
        exact = bound < 0.5
        coeffs[exact] = np.rint(coeffs[exact]) + 0.0  # + 0.0 makes -0.0 0.0
    return coeffs, bound


def _vieta(coeffs, roots):
    """Multiply the polynomial in each column c of `coeffs`, highest
    degree first and padded with zeros, by prod_j (x + roots[j, c]), in
    place: one Vieta recurrence for all columns, each root two array
    operations over the whole of them, the padding taking root j times 0."""
    head, tail = coeffs[1:], coeffs[:-1]
    for root in roots:
        head += root * tail


def _nullspace(a, tol):
    """Orthonormal basis of the numerical null space (columns)."""
    _, sv, vh = np.linalg.svd(a)
    rank = int(np.count_nonzero(sv > tol))
    return vh[rank:].conj().T


def _jordan_chains(a, eigenvalue, multiplicity, sigma_tol, t):
    """Jordan chains of the checked complex matrix `a` at `eigenvalue`,
    of the given algebraic multiplicity (an int in [1, d]).

    Each chain is an array of shape (length, d) whose rows u_1, ..., u_m
    satisfy (M - lambda*I) u_1 ~ 0 and (M - lambda*I) u_r = u_{r-1}; the
    lengths sum to `multiplicity`, and each chain is scaled so that its
    longest vector has unit norm.  Chain structure is read off the
    nullities of (M - lambda*I)^p thresholded at sigma_tol; chain tops
    are chosen orthogonal to the lower-power null space and to taller
    chains, so the assembled chain vectors stay well conditioned.

    The work is done on e = (M - lambda*I) / 2^t, so powers of e cannot
    overflow: the null space of e^p is thresholded at sigma_tol / 2^t,
    that is, (M - lambda*I)^p at sigma_tol * 2^(t*(p-1)).  With 2^t the
    power of two just above the inf-norm, scaling M by a power of two
    scales the chains' links and leaves their structure unchanged.
    `eigensystem` passes the t of the whole matrix for a quotient, so
    that (Q - lambda I)^p is thresholded as (C - lambda I)^p would be:
    the split is unitary, so the singular values of the latter are those
    of the former and the |lambda_c - lambda|^p.

    Raises IllConditionedError when the nullity sequence is inconsistent
    with the multiplicity, when the chain vectors fail the independence
    floor or underflow, or when LAPACK's SVD or QR does not converge;
    perturbing the input to separate eigenvalue clusters usually
    resolves this.
    """
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
