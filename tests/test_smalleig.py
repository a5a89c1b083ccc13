import math
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from circjoin import JoinSpec, cli, full_spectrum, smalleig
from circjoin.errors import (
    ConvergenceError,
    IllConditionedError,
    NumericalError,
    PreconditionError,
)

from corpus import (
    inf_norm,
    mpmath_eigenvalues,
    multiset_match,
    structured_corpus,
    unit_disk,
)


def eigenvalues(m):
    """(eigenvalue, multiplicity) pairs of `smalleig.eigensystem`."""
    return [(lam, mult) for lam, mult, _ in smalleig.eigensystem(m).clusters]


def flat(pairs):
    out = []
    for lam, mult in pairs:
        out.extend([lam] * mult)
    return out


def random_complex_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_quadratic_closed_form():
    m = np.array([[1.0, 5.0], [3.0, 4.0]])
    vals = flat(eigenvalues(m))
    hi = (5.0 + math.sqrt(69.0)) / 2.0
    lo = (5.0 - math.sqrt(69.0)) / 2.0
    multiset_match(vals, [hi, lo], 1e-12)
    # cross-check against trace and determinant
    assert abs(sum(vals) - 5.0) <= 1e-12
    assert abs(vals[0] * vals[1] - (-11.0)) <= 1e-12


def test_nilpotent_two_by_two():
    assert eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]])) == [(0.0 + 0.0j, 2)]


def test_diagonal_matrices():
    vals = np.array([3.0 - 1.0j, -2.0, 0.5 + 0.5j, 7.0])
    pairs = eigenvalues(np.diag(vals))
    multiset_match(flat(pairs), vals, 1e-12)
    assert eigenvalues(np.diag([3.0, 3.0])) == [(3.0 + 0.0j, 2)]


@pytest.mark.parametrize("d", [3, 4, 5, 8, 12])
def test_matches_generic_solver_on_random(d):
    # 50-digit mpmath eigenvalues, not LAPACK, which smalleig itself calls
    rng = np.random.default_rng(400 + d)
    m = random_complex_matrix(rng, d)
    oracle = [complex(v) for v in mpmath_eigenvalues(m, 50)]
    multiset_match(flat(eigenvalues(m)), oracle, 1e-12 * inf_norm(m))


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_similarity_invariance_under_unitary(d):
    rng = np.random.default_rng(500 + d)
    m = random_complex_matrix(rng, d)
    q, _ = np.linalg.qr(random_complex_matrix(rng, d))
    conj = q.conj().T @ m @ q
    multiset_match(
        flat(eigenvalues(m)), flat(eigenvalues(conj)), 1e-7
    )


@pytest.mark.parametrize("d", [1, 2, 3, 6, 10])
def test_trace_and_determinant_identities(d):
    rng = np.random.default_rng(600 + d)
    m = random_complex_matrix(rng, d)
    vals = flat(eigenvalues(m))
    assert len(vals) == d
    assert abs(sum(vals) - np.trace(m)) <= 1e-9 * (1.0 + inf_norm(m))
    det = np.linalg.det(m)
    if abs(det) > 1e-8:
        assert abs(np.prod(vals) - det) <= 1e-7 * abs(det)


def test_permutation_matrix_needs_exceptional_shift():
    # cyclic shift matrices make plain Wilkinson-shift QR cycle
    p = np.zeros((5, 5))
    for i in range(5):
        p[i, (i - 1) % 5] = 1.0
    multiset_match(
        flat(eigenvalues(p)),
        np.exp(2j * np.pi * np.arange(5) / 5),
        1e-9,
    )


def test_lapack_failure_is_a_convergence_error(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", no_convergence)
    with pytest.raises(ConvergenceError, match="did not converge"):
        smalleig.eigensystem(np.eye(3))


def test_overflowing_cluster_mean_is_a_numerical_error():
    # 1e308 twice merges into one cluster whose sum overflows
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="overflows"):
        smalleig.eigensystem(np.diag([1e308, 1e308]))


def test_inf_norm_overflow_is_a_numerical_error():
    # an infinite merge distance would report 1e308 and -1e308 as 0 x2
    m = np.array([[1e308, 1e308], [0.0, -1e308]])
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="inf-norm"):
        eigenvalues(m)


@pytest.mark.parametrize("call", [smalleig.eigensystem, smalleig.char_poly])
def test_inf_norm_overflow_raises_without_a_warning(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="inf-norm"):
            call(np.full((2, 2), 1e308))


def clusters_of(values, delta, groups=None):
    """_cluster's columns as (mean, multiplicity, members) triples, the
    form of `reference_cluster`, after checking that they fit together:
    the members of every cluster, one permutation of the indices, are
    cut at the offsets, whose differences are the multiplicities.
    Without `groups`, all values are one group."""
    values = np.asarray(values, dtype=np.complex128)
    if groups is None:
        groups = np.zeros(len(values), dtype=int)
    mean, mult, perm, offsets = smalleig._cluster(values, delta, groups)
    assert mean.dtype == np.complex128
    assert offsets[0] == 0 and np.array_equal(np.diff(offsets), mult)
    assert sorted(perm.tolist()) == list(range(len(values)))
    bounds = offsets.tolist()
    return [
        (m, k, tuple(perm[lo:hi].tolist()))
        for m, k, lo, hi in zip(mean.tolist(), mult.tolist(), bounds, bounds[1:])
    ]


def test_cluster_merges_nearby_values():
    clusters = clusters_of(np.array([5.0, 1.0 + 1e-9, 1.0]), 1e-7)
    assert clusters == [((1.0 + 5e-10) + 0.0j, 2, (2, 1)), (5.0 + 0.0j, 1, (0,))]


def test_cluster_keeps_groups_apart():
    # 1 and 1 + 1e-9 merge within group 7 but not across groups 3 and 7;
    # clusters come in order of group, then of mean
    values = [1.0, 5.0, 1.0 + 1e-9, 1.0, 2.0]
    clusters = clusters_of(values, 1e-7, [7, 3, 7, 3, 3])
    assert clusters == [
        (1.0 + 0.0j, 1, (3,)),
        (2.0 + 0.0j, 1, (4,)),
        (5.0 + 0.0j, 1, (1,)),
        ((1.0 + 5e-10) + 0.0j, 2, (0, 2)),
    ]


def complex_order(z):
    """numpy's sort key of a complex value: (Re, Im) with -0.0 equal to
    0.0, then values with a NaN imaginary part by Re, then values with a
    NaN real part by Im, then NaN + NaN j."""
    re_nan, im_nan = math.isnan(z.real), math.isnan(z.imag)
    return (re_nan, im_nan, 0.0 if re_nan else z.real, 0.0 if im_nan else z.imag)


def reference_cluster(values, delta):
    """The plain greedy scan: every value is compared with every cluster."""
    values = np.asarray(values, dtype=np.complex128)
    order = np.lexsort((values.imag, values.real))
    sums = []
    members = []
    for idx in order:
        v = values[idx]
        best = -1
        best_dist = np.inf
        for ci in range(len(sums)):
            dist = abs(v - sums[ci] / len(members[ci]))
            if dist <= delta and dist < best_dist:
                best = ci
                best_dist = dist
        if best < 0:
            sums.append(v)
            members.append([int(idx)])
        else:
            sums[best] += v
            members[best].append(int(idx))
    out = [
        (complex(sums[i] / len(members[i])), len(members[i]), tuple(members[i]))
        for i in range(len(sums))
    ]
    out.sort(key=lambda c: complex_order(c[0]))
    return out


def segmented_reference(values, delta, groups):
    """`reference_cluster` of each group, groups in increasing order of
    label, members as indices into all the values."""
    values = np.asarray(values, dtype=np.complex128)
    groups = np.asarray(groups)
    out = []
    for g in sorted(set(groups.tolist())):
        index = np.flatnonzero(groups == g)
        out += [
            (mean, mult, tuple(index[list(members)].tolist()))
            for mean, mult, members in reference_cluster(values[index], delta)
        ]
    return out


def assert_cluster_matches_reference(values, delta, groups=None):
    if groups is None:
        got, want = clusters_of(values, delta), reference_cluster(values, delta)
    else:
        got = clusters_of(values, delta, groups)
        want = segmented_reference(values, delta, groups)
    # repr tells signed zeros apart, so this is a bit-for-bit comparison
    assert repr(got) == repr(want)


def cluster_corpus():
    """(values, delta) cases: random spectra, exact ties, equal real parts,
    tight clusters."""
    rng = np.random.default_rng(21)
    cases = []
    for delta in 10.0 ** np.arange(-12, 1):
        for size in (1, 7, 40, 150):
            centers = unit_disk(rng, max(1, size // 4))
            picks = centers[rng.integers(0, centers.size, size)]
            jitter = delta * rng.uniform(0, 2, size) * unit_disk(rng, size)
            cases.append((picks + jitter, delta))
            cases.append((unit_disk(rng, size), delta))
    for _ in range(30):
        size = int(rng.integers(2, 120))
        grid = (rng.integers(-6, 7, size) + 1j * rng.integers(-6, 7, size)) / 4.0
        cases.append((grid, 0.25))
        cases.append((grid, 0.5))
        cases.append((grid.real + 0.0j, 0.25))
    for delta in (1e-9, 1e-3, 0.3):
        for size in (5, 60, 200):
            cases.append((1j * rng.normal(size=size), delta))
            cases.append((3.0 + 1j * np.round(rng.normal(size=size), 1), delta))
    for delta in (1e-10, 1e-6, 1e-2):
        values = []
        for size in rng.integers(1, 61, 12):
            center = 10.0 * unit_disk(rng, 1)[0]
            values.extend(center + 1e-3 * delta * unit_disk(rng, int(size)))
        cases.append((np.array(values), delta))
    return cases


def test_cluster_matches_reference_scan_on_corpus():
    for values, delta in cluster_corpus():
        assert_cluster_matches_reference(values, delta)


@pytest.mark.parametrize("seed", [0, 1])
def test_cluster_matches_reference_scan_on_block_report(seed):
    # the report's own setting: one 2048-block, delta 1e-9 * (1 + max |v|)
    rng = np.random.default_rng(seed)
    lam = np.fft.fft(rng.uniform(-1.0, 1.0, 2048))[1:]
    assert_cluster_matches_reference(lam, 1e-9 * (1.0 + np.abs(lam).max()))


def test_cluster_matches_reference_scan_on_ring_block():
    # a symmetric ring has every eigenvalue twice (j and k - j)
    v = np.zeros(2048)
    v[[1, 2, 3, -3, -2, -1]] = 1.0
    lam = np.fft.fft(v)[1:]
    assert_cluster_matches_reference(lam, 1e-9 * (1.0 + np.abs(lam).max()))


def adversarial_cluster_cases():
    """(values, delta) cases at the edges of the singleton proof."""
    rng = np.random.default_rng(33)
    spread = 4.0 + unit_disk(rng, 40)  # isolated values beside every case
    # at delta 0, five copies of x and their rounded mean m form one
    # cluster: m is one ulp from x, so the proof must allow for rounding
    x = 0.31183145201048545 + 0.42332644897257565j
    m = 0.31183145201048545 + 0.4233264489725757j
    # three copies of y and their rounded mean ym: two clusters whose
    # means are equal, which keep the order in which they were created
    y = 0.8277025938204418 + 0.4091991363691613j
    ym = 0.8277025938204418 + 0.4091991363691612j
    cases = []
    for values in ([x] * 5 + [m], [y] * 3 + [ym]):
        cases += [(values, 0.0), (np.concatenate([values, spread]), 0.0)]
    # exact duplicates at delta 0
    dup = unit_disk(rng, 30)
    cases.append((np.concatenate([dup, dup[:10], dup[:3], spread]), 0.0))
    # delta near one ulp of the values, and subnormal
    for delta in (1e-300, 2.0**-52, 5e-324, 1e-310):
        v = unit_disk(rng, 40)
        near = np.concatenate([v[:5] + delta, v[5:10] * (1 + 2.0**-52)])
        cases.append((np.concatenate([v, near]), delta))
    # signed zeros: a one-member mean is value / 1, which can flip them
    parts = (0.0, -0.0, 1.0, -1.0)
    zeros = [complex(a, 2.0 * b) for a in parts for b in parts]
    cases += [(zeros, 0.0), (zeros, 0.5), (np.concatenate([zeros, spread]), 1e-3)]
    # near the top of the float range, where R or a sum of parts overflows
    big = 1e308 * unit_disk(rng, 12)
    pair = np.array([1.5e308 + 1.5e308j, -1e307])
    cases += [(big, 1e299), (big, 1e308), (pair, 2e299), (pair, 1e308)]
    # more than _NEIGHBOURS + 1 equal real parts: a complete block (k - 1
    # eigenvalues -1), a ring block and spread imaginary parts
    for v in ([0.0] + [1.0] * 15, [0.0, 1.0, 1.0, 1.0] + [0.0] * 33 + [1.0, 1.0, 1.0]):
        lam = np.fft.fft(v)[1:]
        cases.append((lam, 1e-9 * np.abs(lam).max()))
    cases.append((np.concatenate([0.5 + 1j * rng.normal(size=30), spread]), 1e-6))
    return cases


def test_cluster_matches_reference_scan_on_adversarial_cases():
    with np.errstate(over="ignore", invalid="ignore"):  # the 1e308 cases
        for values, delta in adversarial_cluster_cases():
            assert_cluster_matches_reference(values, delta)


def test_segmented_cluster_matches_reference_scan_per_group_on_adversarial_cases():
    # each case split into three groups that interleave in real part, with
    # labels out of order, next to a bit-equal copy of the whole case
    with np.errstate(over="ignore", invalid="ignore"):
        for values, delta in adversarial_cluster_cases():
            values = np.asarray(values, dtype=np.complex128)
            split = np.array([5, -2, 11])[np.arange(len(values)) % 3]
            both = np.concatenate([values, values])
            groups = np.concatenate([split, np.full(len(values), 4)])
            assert_cluster_matches_reference(both, delta, groups)


GRID_PARTS = st.sampled_from([-0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0])
VALUES = st.one_of(
    st.builds(complex, GRID_PARTS, GRID_PARTS),
    st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
NANS = st.sampled_from(
    [complex(math.nan, 0.0), complex(0.5, math.nan), complex(math.nan, math.nan)]
)


@settings(max_examples=300)
@given(
    st.lists(st.lists(VALUES, min_size=1, max_size=12), min_size=1, max_size=5),
    st.booleans(),
    st.none() | NANS,
    st.sampled_from([0.0, 1e-9, 0.1, 0.25, 0.3, 1.0]),
    st.randoms(use_true_random=False),
)
def test_segmented_cluster_matches_reference_scan_per_group(
    groups, copy, nan, delta, random
):
    # groups of grid and random values, which interleave in real part; a
    # bit-equal copy of the first group, a NaN in the last, and the values
    # of all groups shuffled together under labels that are not in order
    if copy:
        groups.append(list(groups[0]))
    if nan is not None:
        groups[-1].append(nan)
    labels = random.sample(range(-3, 3 * len(groups)), len(groups))
    pairs = [(z, label) for vals, label in zip(groups, labels) for z in vals]
    random.shuffle(pairs)
    values = np.array([z for z, _ in pairs], dtype=np.complex128)
    assert_cluster_matches_reference(values, delta, [label for _, label in pairs])


def test_clusters_with_equal_means_keep_their_order_of_creation():
    # With delta 0 a value joins only a cluster whose mean it equals.
    # Five copies of x sum to a mean one ulp above x, so the sixth copy
    # starts a second cluster at x; x + ulp then joins the first, whose
    # mean comes back to x.  The two clusters of one group end with
    # bit-equal means and members that interleave in visiting order, so
    # only the creation-order key of the final sort keeps each one whole.
    x = 1.7619154420895458
    values = [x] * 6 + [math.nextafter(x, 2.0)]
    assert clusters_of(values, 0.0) == [
        (complex(x), 6, (0, 1, 2, 3, 4, 6)),
        (complex(x), 1, (5,)),
    ]
    assert_cluster_matches_reference(values, 0.0)


def test_array_division_by_one_keeps_the_bits_of_complex_division():
    # singletons take their mean as one array division by 1, which must
    # give the bits of the loop's complex w / 1 on every value
    parts = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.1, 1.0, 3.0]
    parts += [1e300, 1.7e308, 1.7976931348623157e308]
    parts += [-x for x in parts]
    zs = [complex(a, b) for a in parts for b in parts]
    got = np.asarray(zs) / 1
    want = np.array([z / 1 for z in zs])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def crowded(values, delta):
    """_crowded's positions, as the sorted values they stand for."""
    ordered = np.sort(np.asarray(values, dtype=np.complex128), kind="stable")
    label = np.zeros(len(ordered), dtype=int)
    rest, _ = smalleig._crowded(ordered, delta, label, np.empty_like(ordered))
    return [complex(ordered[p]) for p in rest]


def test_singleton_proof_takes_what_it_can_prove_and_nothing_else():
    # conjugate pairs whose distance 2b lies just inside and just outside R
    rng = np.random.default_rng(34)
    re = np.linspace(-1.0, 1.0, 20)
    delta = 1e-6
    radius = smalleig._isolation_radius(40, delta, 1.0)
    b = radius / 2 * np.where(np.arange(20) % 2, 1 + 1e-6, 1 - 1e-6)
    values = np.concatenate([re + 1j * b, re - 1j * b])
    inside = [z for z in values if abs(2 * z.imag) <= radius]
    assert sorted(crowded(values, delta), key=lambda z: (z.real, z.imag)) == sorted(
        inside, key=lambda z: (z.real, z.imag)
    )
    assert len(inside) == 20
    assert_cluster_matches_reference(values, delta)
    # a NaN, an infinity or a sum of parts that overflows proves nothing
    for bad in (np.nan, np.inf, 1e308 + 1e308j):
        values = np.append(unit_disk(rng, 5), bad)
        assert len(crowded(values, 1e-9)) == 6
    # the rounded-mean case needs the rounding term even at delta 0
    x = 0.31183145201048545 + 0.42332644897257565j
    m = 0.31183145201048545 + 0.4233264489725757j
    assert crowded([x, m, 3.0], 0.0) == [x, m]


def test_singleton_proof_uses_each_groups_own_radius():
    # in each group, pairs apart in real part by just inside and just
    # outside the R of that group's own N and M; group 2's R is about
    # twice group 1's, and R of all the values together more again
    delta = 1e-9
    values, labels, inside = [], [], []
    for label, (scale, margin) in enumerate([(1.0, 1e-6), (1e6, 5e-2)]):
        base = scale * np.linspace(-0.5, 0.5, 6) + 0.5j
        radius = smalleig._isolation_radius(13, delta, scale)
        partner = base + radius * np.where(np.arange(6) % 2, 1 + margin, 1 - margin)
        near = (partner - base).real <= radius
        assert near.tolist() == [True, False] * 3
        values += [*base, *partner, scale]
        labels += [label] * 13
        inside += [*base[near], *partner[near]]
    values = np.array(values)
    order = np.lexsort((values, labels))
    ordered = values[order]
    positions, _ = smalleig._crowded(
        ordered, delta, np.array(labels)[order], np.empty_like(ordered)
    )
    assert sorted(values[order][positions].tolist(), key=complex_order) == sorted(
        inside, key=complex_order
    )
    assert_cluster_matches_reference(values, delta, labels)


def count_loop_values(monkeypatch):
    """Record how many values each _cluster call sends to the greedy loop."""
    counts = []
    crowded_positions = smalleig._crowded

    def counted(ordered, delta, label, mean):
        rest, first = crowded_positions(ordered, delta, label, mean)
        counts.append(len(rest))
        return rest, first

    monkeypatch.setattr(smalleig, "_crowded", counted)
    return counts


def test_report_clustering_loops_only_over_values_with_a_near_neighbour(monkeypatch):
    rng = np.random.default_rng(2048)
    block = rng.uniform(-1.0, 1.0, 2048)
    decomposition = full_spectrum(JoinSpec([block], [[0.5]]))
    counts = count_loop_values(monkeypatch)
    mean, mult, provenance = cli.report_rows(decomposition)
    assert len(mean) == len(mult) == len(provenance) == 2048
    # one call for the report: 2047 block values, all proved singletons,
    # and the condensed eigenvalue
    assert counts == [0]
    # a symmetric ring has every eigenvalue twice (j and k - j), mostly
    # not bit for bit, so the loop visits every value with another value
    # within R that is not a copy of it, and only those; bit-equal pairs
    # are runs that form one cluster without it
    counts.clear()
    v = np.zeros(2048)
    v[[1, 2, 3, -3, -2, -1]] = 1.0
    lam = np.fft.fft(v)[1:]
    delta = 1e-9 * (1.0 + np.abs(lam).max())
    smalleig._cluster(lam, delta, np.zeros(len(lam), dtype=int))
    radius = smalleig._isolation_radius(2047, delta, np.abs(lam.view(np.float64)).max())
    with_near = 0
    for start in range(0, 2047, 256):  # 256 rows of distances at a time
        rows = lam[start : start + 256, None]
        dist = np.where(rows == lam[None, :], np.inf, np.abs(rows - lam[None, :]))
        with_near += int(np.count_nonzero(dist.min(axis=1) <= radius))
    assert counts == [with_near]
    assert 0 < with_near < len(lam) - 50


def test_run_means_keep_the_bits_of_the_loops_sums_and_divisions():
    # a run's running sums are one np.add.accumulate along its copies, and
    # its running means one array division by the member counts; both must
    # give the bits of the loop's np.complex128 sums and divisions, copies
    # that differ only in the signs of zero parts included
    parts = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.1, 1.0, 3.0]
    parts += [1e300, 1.7e308, 1.7976931348623157e308]
    parts += [-x for x in parts]
    zs = np.array([complex(a, b) for a in parts for b in parts])
    counts = np.arange(1, 71)
    rng = np.random.default_rng(35)
    copies = np.repeat(zs[:, None], len(counts), axis=1)
    both = copies.view(np.float64)
    both[both == 0.0] *= rng.choice([1.0, -1.0], np.count_nonzero(both == 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.add.accumulate(copies, 1)
        means = sums / counts
        want_sums, want_means = [], []
        for row in copies:
            total = row[0]
            for k, c in enumerate(row):
                if k:
                    total = total + c
                want_sums.append(total)
                want_means.append(total / (k + 1))
    assert np.array_equal(sums.ravel().view(np.uint64), np.array(want_sums).view(np.uint64))
    assert np.array_equal(means.ravel().view(np.uint64), np.array(want_means).view(np.uint64))


def test_runs_longer_than_the_measured_neighbours_need_no_loop(monkeypatch):
    # runs of 3 to 41 equal values on a grid whose columns share real
    # parts, so a run hides everything beyond _NEIGHBOURS + 1 values from
    # a position-by-position measurement; each run is one cluster
    grid = (np.arange(36) % 6 + 1j * (np.arange(36) // 6)) / 4.0
    values = np.concatenate([np.repeat(grid[::5], [9, 10, 17, 25, 40, 2, 12, 3]), grid])
    counts = count_loop_values(monkeypatch)
    for delta in (0.0, 1e-12, 1e-9, 1e-3):
        assert_cluster_matches_reference(values, delta)
    assert counts == [0, 0, 0, 0]
    assert sorted(m for _, m, _ in clusters_of(values, 1e-9)) == [1] * 28 + [
        3, 4, 10, 11, 13, 18, 26, 41
    ]


def test_runs_that_rounding_splits_go_to_the_loop_whole(monkeypatch):
    # At delta 0 five copies of x sum to a mean one ulp above x, so the
    # sixth copy starts a second cluster: the run is not one cluster and
    # goes to the loop whole.  At a delta of 1e-12 it is one cluster.
    x = 1.7619154420895458
    values = [x] * 9 + [5.0, -3.0 + 1j]
    counts = count_loop_values(monkeypatch)
    assert_cluster_matches_reference(values, 0.0)
    assert_cluster_matches_reference(values, 1e-12)
    assert counts == [9, 0]
    # the second cluster's mean, x, sorts before the first's
    assert [m for _, m, _ in clusters_of(values, 0.0)] == [1, 4, 5, 1]


def test_a_run_is_measured_against_the_radius_of_its_whole_group():
    # 30 copies of a and one b apart in real part by just inside and just
    # outside the R of all 31 values: R counts the copies, so the run and
    # b are proved apart only outside it (R of two values is less than
    # half of it); and b within delta of the run's mean joins its cluster
    delta = 1e-9
    a = 0.3 + 0.2j
    radius = smalleig._isolation_radius(31, delta, 0.3)
    assert smalleig._isolation_radius(2, delta, 0.3) < radius / 2
    for gap in (radius * (1 - 1e-6), radius * (1 + 1e-6), 1.5 * delta, 0.5 * delta):
        values = [a] * 30 + [a + gap]
        assert_cluster_matches_reference(values, delta)
        assert len(crowded(values, delta)) == (31 if gap < radius else 0)
    assert [m for _, m, _ in clusters_of([a] * 30 + [a + delta / 2], delta)] == [31]


def test_equal_runs_in_different_groups_stay_apart(monkeypatch):
    # one value in four groups, runs of 3, 12, 1 and 4 copies, shuffled
    # together; in group 5 a near value sends its run to the loop
    v = 0.25 - 0.5j
    values = [v] * 20 + [v + 1e-10, 2.0]
    groups = [2] * 3 + [0] * 12 + [7] + [5] * 4 + [5, 0]
    order = np.random.default_rng(37).permutation(len(values))
    values, groups = np.array(values)[order], np.array(groups)[order]
    counts = count_loop_values(monkeypatch)
    assert_cluster_matches_reference(values, 1e-9, groups)
    assert counts == [5]
    assert [m for _, m, _ in clusters_of(values, 1e-9, groups)] == [12, 1, 3, 5, 1]


def test_a_run_of_signed_zeros_keeps_the_loops_zero_signs(monkeypatch):
    # 0.0 == -0.0, so values that differ only in the signs of zero parts
    # are copies of one run, visited in the order of the input; the
    # signs of its sums and mean are those of the loop
    zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    ones = [complex(-0.0, 1.0), complex(0.0, 1.0)]
    rng = np.random.default_rng(38)
    counts = count_loop_values(monkeypatch)
    for size in (1, 2, 3, 5, 12):
        for _ in range(8):
            values = list(rng.choice(zeros, size)) + list(rng.choice(ones, size)) + [2.0]
            for delta in (0.0, 1e-9):
                assert_cluster_matches_reference(values, delta)
    assert counts == [0] * 80


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(VALUES, st.integers(1, 70), st.integers(-1, 2)), min_size=1, max_size=6
    ),
    st.sampled_from([0.0, 1e-9, 0.1, 0.25, 1.0]),
    st.randoms(use_true_random=False),
)
def test_repeated_values_match_reference_scan_per_group(draws, delta, random):
    # each drawn value repeated 1 to 70 times in one of four groups, all
    # shuffled together: runs of copies beside each other, across groups,
    # of grid values with signed zeros and next to near values
    pairs = [(z, label) for z, times, label in draws for _ in range(times)]
    random.shuffle(pairs)
    values = np.array([z for z, _ in pairs], dtype=np.complex128)
    assert_cluster_matches_reference(values, delta, [label for _, label in pairs])


def test_a_twin_class_costs_the_solve_and_the_report_no_loop_visit(monkeypatch):
    # 64 rings ring(6, 1) joined with couplings 1: the twin value -4 is
    # 63 bit-equal copies, one run beside 380, in the solve and in the
    # report, whose 69 values are those and the 5 of the one distinct
    # block; only the block's -1 and its near copy reach the loop
    ring = [0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    join = JoinSpec([ring] * 64, np.ones((64, 64)))
    counts = count_loop_values(monkeypatch)
    decomposition = full_spectrum(join)
    assert counts == [0]
    assert [(ch.eigenvalue, len(ch)) for ch in decomposition.condensed_chains[-2:]] == [
        (-4.0, 1),
        (380.0, 1),
    ]
    mean, mult, provenance = cli.report_rows(decomposition)
    assert counts == [0, 2]
    assert sum(mult[provenance == "condensed"]) + sum(mult[provenance == 1]) == 69
    assert mean[0] == -4.0 and mult[0] == 63


def chain_relations_hold(m, lam, chains, tol):
    e = m - lam * np.eye(m.shape[0])
    for chain in chains:
        assert np.abs(e @ chain[0]).max() <= tol
        for r in range(1, len(chain)):
            assert np.abs(e @ chain[r] - chain[r - 1]).max() <= tol


def test_jordan_single_block_two():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    chains = smalleig.jordan_chains(m, 0.0, 2)
    assert [len(c) for c in chains] == [2]
    chain_relations_hold(m, 0.0, chains, 1e-12)
    # the eigenvector is along e1, the generalized vector along e2
    u1, u2 = chains[0]
    assert abs(u1[1]) <= 1e-12
    assert abs(u2[0]) <= 1e-12


def test_jordan_diagonal_repeated():
    chains = smalleig.jordan_chains(np.diag([3.0, 3.0]), 3.0, 2)
    assert sorted(len(c) for c in chains) == [1, 1]
    vecs = np.vstack([c[0] for c in chains])
    assert abs(np.linalg.det(vecs)) > 0.5  # spans C^2


def test_jordan_simple_eigenvalue_residual():
    m = np.array([[1.0, 5.0], [3.0, 4.0]])
    lam = (5.0 + math.sqrt(69.0)) / 2.0
    chains = smalleig.jordan_chains(m, lam, 1)
    assert [len(c) for c in chains] == [1]
    chain_relations_hold(m, lam, chains, 1e-10)


def test_jordan_third_order_block():
    lam = 0.75 - 0.25j
    m = lam * np.eye(3) + np.diag([1.0, 1.0], k=1)
    chains = smalleig.jordan_chains(m, lam, 3)
    assert [len(c) for c in chains] == [3]
    chain_relations_hold(m, lam, chains, 1e-10)


def test_jordan_mixed_structure():
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    chains = smalleig.jordan_chains(m, 0.0, 3)
    assert sorted(len(c) for c in chains) == [1, 2]
    chain_relations_hold(m, 0.0, chains, 1e-10)
    stacked = np.hstack([c.T for c in chains])
    assert np.linalg.svd(stacked, compute_uv=False)[-1] >= 1e-6


@pytest.mark.parametrize("s", [-150, -60, 0, 60, 150])
def test_jordan_chains_scale_with_the_matrix(s):
    # a length-3 chain plus an eigenvector: structure and normalized
    # vectors are the same at every power-of-two scale
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 2] = 1.0
    m[0, 3] = 0.5
    ref = smalleig.jordan_chains(m, 0.0, 4)
    scale = 2.0**s
    chains = smalleig.jordan_chains(m * scale, 0.0, 4)
    assert [len(c) for c in chains] == [len(c) for c in ref] == [3, 1]
    chain_relations_hold(m * scale, 0.0, chains, 1e-14 * scale)
    for got, want in zip(chains, ref):
        # link r of a chain of (scale * M) is scale^-r times that of M
        powers = scale ** -np.arange(len(want), dtype=float)
        expect = want * powers[:, None]
        expect /= np.linalg.norm(expect, axis=1).max()
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-15)


def test_jordan_chain_underflow_is_ill_conditioned():
    # a length-3 chain of a matrix of norm 1e200 needs a link of 1e-400
    m = 1e200 * np.diag([1.0, 1.0], k=1)
    with pytest.raises(IllConditionedError, match="underflow"):
        smalleig.jordan_chains(m, 0.0, 3)


def test_jordan_lapack_failure_is_ill_conditioned(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(IllConditionedError, match="SVD did not converge"):
        smalleig.jordan_chains(np.eye(2), 1.0, 2)


def test_jordan_inconsistent_multiplicity_errors():
    with pytest.raises(IllConditionedError):
        smalleig.jordan_chains(np.diag([1.0, 2.0]), 1.0, 2)


def test_jordan_rejects_bad_multiplicity():
    with pytest.raises(PreconditionError):
        smalleig.jordan_chains(np.eye(2), 1.0, 3)


@pytest.mark.parametrize("multiplicity", [1.5, 1.0, True, np.True_, 0, -1])
def test_jordan_multiplicity_must_be_an_integer_in_range(multiplicity):
    with pytest.raises(PreconditionError, match="multiplicity"):
        smalleig.jordan_chains(np.eye(2), 1.0, multiplicity)


def test_jordan_accepts_numpy_integer_multiplicities():
    chains = smalleig.jordan_chains(np.eye(2), 1.0, np.int64(2))
    assert sorted(len(c) for c in chains) == [1, 1]


@pytest.mark.parametrize(
    "eigenvalue", [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(1.0, -math.inf)]
)
def test_jordan_rejects_a_non_finite_eigenvalue(eigenvalue):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="eigenvalue"):
            smalleig.jordan_chains(np.eye(2), eigenvalue, 1)


@pytest.mark.parametrize("tol", [-1.0, -5e-324, math.nan, math.inf])
def test_tolerances_must_be_finite_and_non_negative(tol):
    # on a 2 x 2 Jordan block a NaN or negative tolerance would report
    # two chains of length 1, or a misleading IllConditionedError
    j2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    join = JoinSpec([[0.0], [0.0]], [[0.0, 1.0], [0.0, 0.0]])
    assert not full_spectrum(join).diagonalizable
    calls = [
        lambda: smalleig.eigensystem(j2, cluster_delta=tol),
        lambda: smalleig.eigensystem(j2, sigma_tol=tol),
        lambda: smalleig.jordan_chains(j2, 0.0, 2, sigma_tol=tol),
        lambda: full_spectrum(join, cluster_delta=tol),
        lambda: full_spectrum(join, sigma_tol=tol),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match="must be finite and >= 0"):
            call()


def eigensystem_or_error(m, **kwargs):
    try:
        return smalleig.eigensystem(m, **kwargs).clusters
    except NumericalError as exc:
        return type(exc)


def svd_path(m, **kwargs):
    """eigensystem with no eigenpair certified, so that every cluster
    goes through jordan_chains."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            smalleig, "_certified", lambda w, *rest: np.zeros(len(w), dtype=bool)
        )
        return eigensystem_or_error(m, **kwargs)


def null_vector_spread(m, lam, u, v):
    """How far apart two unit approximate null vectors u, v of
    E = M - lam*I can be: each is within (||E x|| + sigma_d) /
    sigma_(d-1) of the exact one, so the pair within twice the sum.
    Tiny for a well-separated eigenvalue; for an ill-conditioned one,
    neither vector is determined to 1e-12."""
    e = m - lam * np.eye(len(m))
    sv = np.linalg.svd(e, compute_uv=False)
    if len(sv) == 1:
        return 0.0
    r = np.linalg.norm(e @ u) + np.linalg.norm(e @ v) + 2.0 * sv[-1]
    return 2.0 * r / sv[-2]


def assert_same_as_svd_path(m, **kwargs):
    """Same clusters, chain lengths and errors as the SVD path, and
    simple eigenvectors equal up to a unit phase within 1e-12 plus the
    spread that the conditioning of the null vector allows."""
    got, want = eigensystem_or_error(m, **kwargs), svd_path(m, **kwargs)
    if isinstance(got, type) or isinstance(want, type):
        assert got == want
        return
    assert [c[:2] for c in got] == [c[:2] for c in want]
    for (lam, mult, chains), (_, _, ref) in zip(got, want):
        assert [len(c) for c in chains] == [len(c) for c in ref], lam
        if mult == 1:
            u, v = chains[0][0], ref[0][0]
            phase = np.vdot(v, u)
            diff = np.abs(u - phase / abs(phase) * v).max()
            assert diff <= 1e-12 + null_vector_spread(m, lam, u, v), lam


def similar_to_diagonal(rng, d):
    """S diag(lam) S^-1 with cond(S) from 1e2 to 1e8 and eigenvalues on
    a half-integer grid, so some repeat, half of them moved by ~1e-6."""
    u, _ = np.linalg.qr(random_complex_matrix(rng, d))
    v, _ = np.linalg.qr(random_complex_matrix(rng, d))
    s = u @ np.diag(np.geomspace(1.0, 10.0 ** -rng.uniform(2.0, 8.0), d)) @ v
    lam = np.round(2.0 * rng.normal(size=d)) / 2.0 + 0j
    lam[: d // 2] += 1e-6 * rng.normal(size=d // 2)
    return s @ np.diag(lam) @ np.linalg.inv(s)


def perturbed_jordan(rng, d):
    """A Jordan block at 0 of size m <= d with eps in its corner, so
    its eigenvalues spread by eps^(1/m), from far below to far above
    cluster_delta and sigma_tol, next to the simple eigenvalues
    1, ..., d - m."""
    size = int(rng.integers(1, d + 1))
    a = np.diag(np.arange(d, dtype=np.complex128) - size + 1.0)
    a[:size, :size] = np.diag(np.ones(size - 1), k=1)
    a[size - 1, 0] += 10.0 ** -rng.uniform(3.0, 30.0)
    return a


@settings(max_examples=300)
@given(
    st.sampled_from([random_complex_matrix, similar_to_diagonal, perturbed_jordan]),
    st.integers(1, 16),
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, (1e-9, 1e-7), (1e-12, 1e-12)]),
    st.sampled_from([0, 300, -300]),
)
def test_eigensystem_matches_the_svd_path(family, d, seed, tols, s):
    m = family(np.random.default_rng(seed), d) * 2.0**s
    kwargs = {}
    if tols is not None:
        norm = inf_norm(m)
        kwargs = {"cluster_delta": tols[0] * norm, "sigma_tol": tols[1] * norm}
    assert_same_as_svd_path(m, **kwargs)


@pytest.mark.parametrize("s", [0, 300, -300])
@pytest.mark.parametrize("gap", [1e-9, 5e-8, 2e-7, 1e-6])
def test_eigensystem_near_the_nullity_threshold(gap, s):
    # eigenvalues 0 and `gap` are apart at cluster_delta but within
    # sigma_tol of each other for some tolerances, so M has nullity 2
    # at either one: only half (b) of the certificate sees that
    rng = np.random.default_rng(9)
    diagonal = np.diag([0.0, gap, 1.0]) + 0.3 * np.eye(3, k=2)
    jordan = np.diag([0.0, 0.0, gap, 1.0])
    jordan[0, 1] = 1.0
    x = np.eye(3) + 0.5 * random_complex_matrix(rng, 3)
    similar = x @ np.diag([0.0, gap, 1.0]) @ np.linalg.inv(x)
    scale = 2.0**s
    for m in (diagonal, jordan, similar):
        assert_same_as_svd_path(m * scale)
        for delta, tol in ((1e-9, 1e-7), (1e-10, 2e-8), (1e-10, 1e-6)):
            assert_same_as_svd_path(
                m * scale, cluster_delta=delta * scale, sigma_tol=tol * scale
            )


def test_certificate_rejects_inaccurate_eigenvectors(monkeypatch):
    # eigenvectors off by ~1e-6 keep a clear margin for half (b), but
    # their residuals fail half (a), so jordan_chains decides
    lapack_eig = np.linalg.eig

    def sloppy_eig(a):
        w, x = lapack_eig(a)
        x = x + 1e-6 * random_complex_matrix(np.random.default_rng(0), len(w))
        return w, x / np.linalg.norm(x, axis=0)

    monkeypatch.setattr(np.linalg, "eig", sloppy_eig)
    calls = []
    jordan_chains = smalleig._jordan_chains
    monkeypatch.setattr(
        smalleig,
        "_jordan_chains",
        lambda *args, **kwargs: calls.append(args) or jordan_chains(*args, **kwargs),
    )
    rng = np.random.default_rng(10)
    for d in (2, 5, 8):
        m = random_complex_matrix(rng, d)
        calls.clear()
        assert len(smalleig.eigensystem(m).clusters) == d
        assert len(calls) == d
        assert_same_as_svd_path(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_certificate_skips_non_finite_eigenvectors(monkeypatch, bad):
    lapack_eig = np.linalg.eig

    def broken_eig(a):
        w, x = lapack_eig(a)
        x[0, 0] = bad
        return w, x

    monkeypatch.setattr(np.linalg, "eig", broken_eig)
    m = random_complex_matrix(np.random.default_rng(11), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_as_svd_path(m)


def test_eigensystem_lapack_failure_is_a_convergence_error(monkeypatch):
    # complex input, and the LAPACK error stays attached as the cause
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", no_convergence)
    with pytest.raises(ConvergenceError, match="did not converge") as info:
        smalleig.eigensystem(np.eye(3) * (1.0 + 2.0j))
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_eigensystem_overflowing_cluster_mean_is_a_numerical_error():
    # two distinct finite eigenvalues merged by an explicit cluster_delta
    m = np.diag([1e308, 1.5e308])
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="cluster mean overflows"):
        smalleig.eigensystem(m, cluster_delta=1e308)


def test_rejects_non_square():
    with pytest.raises(PreconditionError):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(PreconditionError):
        eigenvalues(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# twin deflation
# ---------------------------------------------------------------------------


def structure(clusters):
    """(eigenvalue, multiplicity, sorted chain lengths) per cluster."""
    return [(lam, mult, sorted(len(c) for c in chains)) for lam, mult, chains in clusters]


def undeflated_structure(m):
    """The solve without deflation, built here: one eigvals of the whole
    matrix, the same clustering and tolerances, and jordan_chains of the
    whole matrix for every cluster."""
    norm = inf_norm(m)
    w = np.linalg.eigvals(m)
    return structure(
        (lam, mult, smalleig.jordan_chains(m, lam, mult, sigma_tol=1e-8 * norm))
        for lam, mult, _ in clusters_of(w, 1e-7 * norm)
    )


def assert_same_structure(got, want, tol):
    """Clusters paired by nearest eigenvalue: equal multiplicities and
    chain lengths, eigenvalues within tol."""
    assert len(got) == len(want)
    pool = list(want)
    for lam, mult, lengths in got:
        best = min(pool, key=lambda c: abs(c[0] - lam))
        assert abs(best[0] - lam) <= tol, (lam, best)
        assert (mult, lengths) == best[1:], lam
        pool.remove(best)


def test_deflation_keeps_the_structure_of_the_corpus_joins_with_twins():
    twins = [
        spec.condensed()
        for spec in structured_corpus()
        if smalleig._twin_classes(spec.condensed())
    ]
    assert twins
    for m in twins:
        got = structure(smalleig.eigensystem(m).clusters)
        assert_same_structure(got, undeflated_structure(m), 1e-9 * inf_norm(m))


def centralizer(classes, alpha, beta, gamma):
    """The sympy matrix that is alpha[c] on the diagonal of class c,
    beta[c] between two members of c and gamma[c][e] from a member of c
    to one of e != c.  Such matrices commute with every permutation
    within the classes, so sums, products and inverses of them keep the
    classes as twins."""
    d = sum(len(c) for c in classes)
    m = sympy.zeros(d, d)
    for c, rows in enumerate(classes):
        for e, cols in enumerate(classes):
            for i in rows:
                for j in cols:
                    if c != e:
                        m[i, j] = gamma[c][e]
                    else:
                        m[i, j] = alpha[c] if i == j else beta[c]
    return m


# Classes {0, 3, 5}, {1, 6}, {2}, {4} (sizes 3, 2, 1, 1).  J has twin
# values alpha - beta and the quotient alpha + (m - 1) beta on the
# diagonal, m_e gamma[c][e] off it: upper triangular with diagonal
# 1, 1, 3, -1 and a 2 at (0, 1), one Jordan block of length 2 at 1.
TWIN_CLASSES = [[0, 3, 5], [1, 6], [2], [4]]
TWIN_GAMMA = [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
PLANTED = {
    # twin values 4 (x2) and -1, the latter equal to the quotient's -1
    "mixed-simple": (
        [3, 0, 3, -1],
        [-1, 1, 0, 0],
        [(-1, 2, [1, 1]), (1, 2, [2]), (3, 1, [1]), (4, 2, [1, 1])],
    ),
    # twin values 4 (x2) and 1, on the quotient's Jordan block at 1
    "mixed-defective": (
        [3, 1, 3, -1],
        [-1, 0, 0, 0],
        [(-1, 1, [1]), (1, 3, [1, 2]), (3, 1, [1]), (4, 2, [1, 1])],
    ),
    # twin values 4 (x2) and 2, apart from the quotient's eigenvalues
    "defective-quotient": (
        [3, sympy.Rational(3, 2), 3, -1],
        [-1, sympy.Rational(-1, 2), 0, 0],
        [(-1, 1, [1]), (1, 2, [2]), (2, 1, [1]), (3, 1, [1]), (4, 2, [1, 1])],
    ),
}


def unimodular_centralizer(rng, classes):
    """S = L U with L and U unit triangular by classes: det 1, so S and
    S^-1 are integer, and both keep the classes as twins."""
    q = len(classes)
    ones = [1] * q
    zeros = [0] * q
    upper = [[int(rng.integers(-1, 2)) if c < e else 0 for e in range(q)] for c in range(q)]
    lower = [[int(rng.integers(-1, 2)) if c > e else 0 for e in range(q)] for c in range(q)]
    return centralizer(classes, ones, zeros, lower) * centralizer(classes, ones, zeros, upper)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("case", sorted(PLANTED))
def test_deflation_matches_exact_similarities_with_planted_twins(case, seed):
    alpha, beta, want = PLANTED[case]
    j = centralizer(TWIN_CLASSES, alpha, beta, TWIN_GAMMA)
    s = unimodular_centralizer(np.random.default_rng(seed), TWIN_CLASSES)
    exact = s * j * s.inv()
    m = np.array(exact.tolist(), dtype=np.float64).astype(np.complex128)
    assert np.array_equal(m, np.array(exact.evalf(30).tolist(), dtype=np.complex128))
    assert smalleig._twin_classes(m) == [c for c in TWIN_CLASSES if len(c) > 1]
    got = structure(smalleig.eigensystem(m).clusters)
    assert_same_structure(got, [(complex(v), mult, lengths) for v, mult, lengths in want], 1e-6)
    assert_same_structure(got, undeflated_structure(m), 1e-6)
    coeffs, bound = smalleig.char_poly(m)
    charpoly = [complex(c) for c in exact.charpoly().all_coeffs()]
    assert np.all(np.abs(coeffs - charpoly) <= bound)


@st.composite
def twin_structured(draw, entry=None, max_classes=5):
    """A matrix with planted twin classes (sizes 1-4), entries on a
    grid of eighths or arbitrary floats (or drawn from `entry`), and a
    quotient that is upper triangular in class order, so that LAPACK's
    balancing isolates its eigenvalues, which are then exact whatever
    the order of the rows; plus a permutation of the indices."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=max_classes))
    if entry is None:
        entry = st.one_of(
            st.integers(-8, 8).map(lambda v: v / 8.0),
            st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
        )
    q = len(sizes)
    alpha = draw(st.lists(entry, min_size=q, max_size=q))
    beta = draw(st.lists(entry, min_size=q, max_size=q))
    gamma = [[draw(entry) if c < e else 0.0 for e in range(q)] for c in range(q)]
    cls = np.repeat(np.arange(q), sizes)
    d = len(cls)
    m = np.array([[gamma[cls[i]][cls[j]] for j in range(d)] for i in range(d)])
    same = cls[:, None] == cls[None, :]
    m[same] = np.array(beta)[cls][np.nonzero(same)[0]]
    np.fill_diagonal(m, np.array(alpha)[cls])
    perm = np.array(draw(st.permutations(range(d))))
    return m.astype(np.complex128), perm


@settings(max_examples=200)
@given(twin_structured())
def test_permuting_the_blocks_permutes_the_twin_classes(case):
    m, perm = case
    p = m[np.ix_(perm, perm)]  # index i of p is index perm[i] of m
    where = np.argsort(perm)
    assert smalleig._twin_classes(p) == sorted(
        sorted(where[c].tolist()) for c in smalleig._twin_classes(m)
    )
    # the clusters' means come from the same values in the same sorted
    # order; repr tells signed zeros apart, so this is bit for bit
    assert repr(spectrum_or_error(m)) == repr(spectrum_or_error(p))


def spectrum_or_error(m):
    try:
        return [c[:2] for c in smalleig.eigensystem(m).clusters]
    except IllConditionedError as exc:
        return type(exc)


def test_twins_whose_quotient_overflows_are_solved_undeflated():
    # Q_01 = sqrt(3) * 1.5e308 overflows although every entry and the
    # inf-norm of the matrix are finite
    m = np.zeros((4, 4), dtype=np.complex128)
    m[:3, 3] = 1.5e308
    m[3, :3] = 1.0
    assert smalleig._twin_classes(m) == [[0, 1, 2]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert smalleig._deflate(m, 0).quotient is m
        got = structure(smalleig.eigensystem(m).clusters)
    assert_same_structure(got, undeflated_structure(m), 1e-9 * inf_norm(m))


def test_quotient_chains_are_thresholded_on_the_scale_of_the_whole_matrix():
    # A class of 16 beside three singletons: Q_0s = 4 C_0s, so the
    # inf-norm of the quotient (65) rounds up to 2^7 and that of the
    # matrix (29) to 2^5.  The quotient has a Jordan block at 0 and the
    # simple eigenvalue 2^-8, whose square 1.5e-5 lies between the
    # thresholds 1e-8 * 29 * 2^5 and 1e-8 * 29 * 2^7 of (M - 0 I)^2 on
    # the two scales; on the quotient's own scale the nullity of that
    # square would be 3 for a cluster of multiplicity 2
    classes = [list(range(16)), [16], [17], [18]]
    gamma = [[0, 4, 4, 4], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    exact = centralizer(classes, [2, 0, 0, sympy.Rational(1, 256)], [1, 0, 0, 0], gamma)
    m = np.array(exact.tolist(), dtype=np.float64).astype(np.complex128)
    q = smalleig._deflate(m, 0).quotient
    assert (math.frexp(inf_norm(m))[1], math.frexp(inf_norm(q))[1]) == (5, 7)
    got = structure(smalleig.eigensystem(m).clusters)
    want = [(0, 2, [2]), (2**-8, 1, [1]), (1, 15, [1] * 15), (17, 1, [1])]
    assert_same_structure(got, want, 1e-9)
    assert_same_structure(got, undeflated_structure(m), 1e-9)


# ---------------------------------------------------------------------------
# power-of-two scaling, bit for bit
# ---------------------------------------------------------------------------

# entries on a grid of eighths, which repeat and so give twins and
# repeated eigenvalues, or floats far enough from 0 to keep every bit at
# 2^-150 times their size
scalable_entry = st.one_of(
    st.integers(-8, 8).map(lambda v: v / 8.0),
    st.builds(math.copysign, st.floats(2.0**-20, 2.0), st.sampled_from([1.0, -1.0])),
)


@st.composite
def scalable_matrices(draw):
    """A real or complex d x d matrix, d <= 6: dense, mostly without
    twins, or with planted twin classes."""
    if draw(st.booleans()):
        m, _ = draw(twin_structured(scalable_entry, max_classes=3))
        m = m[:6, :6]
        if draw(st.booleans()):
            m = m * (1.0 + 1.0j)  # exact
        return m
    d = draw(st.integers(1, 6))
    parts = st.lists(scalable_entry, min_size=d * d, max_size=d * d)
    m = np.array(draw(parts), dtype=np.complex128).reshape(d, d)
    if draw(st.booleans()):
        m = m + 1j * np.array(draw(parts)).reshape(d, d)
    return m


def is_gaussian_integer(m):
    return np.array_equal(m, np.round(m))


def same_bits(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def lapack_scales(m, s):
    """Whether LAPACK's eig of the twin quotient of 2^s M gives 2^s times
    the eigenvalues of that of M and the same eigenvectors, bit for bit.
    Its eigenvector solver moves an exactly singular pivot by an absolute
    amount, so this fails on some matrices with exact zeros."""
    q = smalleig._deflate(m, 0).quotient
    w, x = np.linalg.eig(q)
    w2, x2 = np.linalg.eig(q * 2.0**s)
    return (
        same_bits(w2.real, np.ldexp(w.real, s))
        and same_bits(w2.imag, np.ldexp(w.imag, s))
        and same_bits(x2.real, x.real)
        and same_bits(x2.imag, x.imag)
    )


@settings(max_examples=300)
@given(scalable_matrices(), st.integers(-150, 150))
def test_char_poly_scales_bit_for_bit_with_powers_of_two(m, s):
    # at 2^s M, coefficient and bound i are 2^(s i) times those at M:
    # both are formed on the scale 2^-t, and t moves with s.  Gaussian-
    # integer coefficients are rounded where the bound is below 1/2,
    # which scaling does not commute with
    scaled = m * 2.0**s
    assume(not is_gaussian_integer(m) and not is_gaussian_integer(scaled))
    assume(lapack_scales(m, s))
    coeffs, bound = smalleig.char_poly(m)
    got, got_bound = smalleig.char_poly(scaled)
    k = s * np.arange(len(coeffs))
    assert np.isfinite(got).all() and np.isfinite(coeffs).all()
    assert same_bits(got.real, np.ldexp(coeffs.real, k))
    assert same_bits(got.imag, np.ldexp(coeffs.imag, k))
    assert same_bits(got_bound, np.ldexp(bound, k))


def eigensystem_clusters(m):
    try:
        return smalleig.eigensystem(m).clusters
    except IllConditionedError as exc:
        return type(exc)


@settings(max_examples=300)
@given(scalable_matrices(), st.integers(-150, 150))
def test_eigensystem_scales_bit_for_bit_with_powers_of_two(m, s):
    # cluster means scale by 2^s (repr tells signed zeros apart), and a
    # chain of length 1, formed on the scale 2^-t, keeps every bit.  Row
    # r of a chain of length L > 1 scales by 2^(s (L - 1 - r)) before the
    # chain is normalized again, which rounds
    assume(lapack_scales(m, s))
    plain, scaled = eigensystem_clusters(m), eigensystem_clusters(m * 2.0**s)
    if isinstance(plain, type) or isinstance(scaled, type):
        assert plain == scaled
        return
    assert len(plain) == len(scaled)
    for (lam, mult, chains), (mu, k, got) in zip(plain, scaled):
        assert repr(mu) == repr(complex(math.ldexp(lam.real, s), math.ldexp(lam.imag, s)))
        assert k == mult and [len(c) for c in got] == [len(c) for c in chains]
        for want, chain in zip(chains, got):
            if len(want) == 1:
                assert same_bits(chain.real, want.real) and same_bits(chain.imag, want.imag)
            else:
                expect = want * np.ldexp(1.0, s * np.arange(len(want)))[::-1, None]
                expect /= np.linalg.norm(expect, axis=1).max()
                assert np.abs(chain - expect).max() <= 1e-15
