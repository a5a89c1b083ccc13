import math

import mpmath
import numpy as np
import pytest

from circjoin import (
    CirculantMatrix,
    JoinSpec,
    KuramotoSystem,
    build_twisted_equilibrium,
    check_equilibrium,
    eigenvector_equilibrium,
    integrate,
    join,
    reduce_phases,
    rhs,
    ring_graph,
)
from circjoin import kuramoto
from circjoin.errors import DivergenceError, NumericalError, PreconditionError

from corpus import dense_join, fourier_matrix, inf_norm

TWO_PI = 2.0 * np.pi


def circular_gap(a, b):
    return np.abs(reduce_phases(np.asarray(a) - np.asarray(b)))


def two_oscillators(eps=1.0):
    spec = JoinSpec([CirculantMatrix([0.0]), CirculantMatrix([0.0])], np.ones((2, 2)))
    return KuramotoSystem(spec, epsilon=eps)


def identical_ring_system(d, k, m=1, eps=0.25, couplings=None):
    g = ring_graph(k, m)
    spec = join(*[g] * d)
    if couplings is not None:
        spec = JoinSpec(spec.blocks, couplings)
    return KuramotoSystem(spec, epsilon=eps)


def test_rhs_zero_state_is_stationary():
    system = identical_ring_system(2, 6)
    assert np.array_equal(rhs(system, np.zeros(system.n)), np.zeros(system.n))


def test_rhs_two_oscillators():
    system = two_oscillators(eps=1.0)
    np.testing.assert_allclose(
        rhs(system, np.array([0.0, np.pi / 2.0])), [1.0, -1.0], atol=1e-15
    )


def test_rhs_global_shift_equivariance_exact():
    # dyadic phases and shifts make theta + c exactly representable, so
    # the pairwise differences (hence the rhs) agree bit for bit
    system = identical_ring_system(3, 5, eps=0.7)
    rng = np.random.default_rng(12)
    theta = rng.integers(-3_000_000, 3_000_001, system.n) * 2.0**-20
    for c in (0.75, -2.5, 1024.0):
        assert np.array_equal(rhs(system, theta + c), rhs(system, theta))


def dense_rhs(network, omega, eps, theta):
    """The O(n^2) formula omega_i + eps * sum_l A_il sin(theta_l - theta_i)."""
    adj = dense_join(network).real
    return omega + eps * (adj * np.sin(theta[None, :] - theta[:, None])).sum(axis=1)


def rhs_tolerance(system):
    return 1e-13 * (1.0 + abs(system.epsilon) * inf_norm(dense_join(system.network)))


# mixed, repeated and interleaved block sizes; matvec transforms the
# blocks of each size together
RHS_SIZES = ([3, 5, 3, 1, 5, 8], [4, 4, 4], [1, 7, 2, 7, 1, 2], [16, 9, 16, 33, 9])


@pytest.mark.parametrize("seed", range(12))
def test_rhs_matches_the_dense_formula(seed):
    rng = np.random.default_rng(seed)
    sizes = RHS_SIZES[seed % len(RHS_SIZES)]
    d = len(sizes)
    network = JoinSpec(
        [CirculantMatrix(rng.uniform(-1.0, 1.0, k)) for k in sizes],
        rng.uniform(-1.0, 1.0, (d, d)),
    )
    omega = rng.normal(size=network.n)
    system = KuramotoSystem(network, epsilon=rng.uniform(-2.0, 2.0), omega=omega)
    tol = rhs_tolerance(system)
    for scale in (np.pi, 20.0):
        theta = rng.uniform(-scale, scale, network.n)
        expected = dense_rhs(network, omega, system.epsilon, theta)
        assert np.abs(rhs(system, theta) - expected).max() <= tol


def test_rhs_matches_mpmath():
    rng = np.random.default_rng(14)
    network = JoinSpec(
        [CirculantMatrix(rng.uniform(-1.0, 1.0, k)) for k in (3, 1, 3, 2)],
        rng.uniform(-1.0, 1.0, (4, 4)),
    )
    omega = rng.normal(size=network.n)
    system = KuramotoSystem(network, epsilon=0.7, omega=omega)
    theta = rng.uniform(-np.pi, np.pi, network.n)
    adj = dense_join(network).real
    with mpmath.workdps(50):
        expected = [
            mpmath.mpf(omega[i])
            + mpmath.mpf(0.7)
            * mpmath.fsum(
                mpmath.mpf(adj[i, l]) * mpmath.sin(mpmath.mpf(theta[l]) - mpmath.mpf(theta[i]))
                for l in range(network.n)
            )
            for i in range(network.n)
        ]
        worst = max(abs(mpmath.mpf(r) - e) for r, e in zip(rhs(system, theta), expected))
    assert worst <= rhs_tolerance(system)


def test_rhs_rejects_wrong_length():
    system = two_oscillators()
    with pytest.raises(PreconditionError):
        rhs(system, np.zeros(3))


def test_system_requires_real_network():
    spec = JoinSpec([CirculantMatrix([0.0, 1j])])
    with pytest.raises(PreconditionError):
        KuramotoSystem(spec)


def test_twisted_state_single_ring():
    system = identical_ring_system(1, 8, eps=0.5)
    for j in range(1, 8):
        state = build_twisted_equilibrium(system, j, [0.0])
        expected = reduce_phases(TWO_PI * j * np.arange(8) / 8.0)
        np.testing.assert_allclose(state.theta, expected, atol=1e-12)
        assert np.abs(rhs(system, state.theta)).max() <= 1e-9


def test_twisted_state_is_nontrivial():
    system = identical_ring_system(2, 6)
    for j in range(1, 6):
        theta = build_twisted_equilibrium(system, j, [0.1, -0.4]).theta
        assert circular_gap(theta, np.full_like(theta, theta[0])).max() > 0.1


def test_twisted_state_two_block_example():
    c = CirculantMatrix([0.0, 1.0, 0.0, 1.0])
    spec = JoinSpec([c, c], np.ones((2, 2)))
    system = KuramotoSystem(spec, epsilon=0.3)
    state = build_twisted_equilibrium(system, 2, [0.0, np.pi / 3.0])
    expected = [0.0, np.pi, 0.0, np.pi,
                np.pi / 3.0, np.pi / 3.0 + np.pi, np.pi / 3.0, np.pi / 3.0 + np.pi]
    assert circular_gap(state.theta, expected).max() <= 1e-12
    ok, residual = check_equilibrium(system, state.theta)
    assert ok, residual


def test_twisted_state_preconditions():
    unequal = KuramotoSystem(
        JoinSpec([CirculantMatrix([0.0, 1.0]), CirculantMatrix([0.0, 0.0])],
                 np.ones((2, 2)))
    )
    with pytest.raises(PreconditionError):
        build_twisted_equilibrium(unequal, 1, [0.0, 0.0])
    asym = KuramotoSystem(
        JoinSpec([CirculantMatrix([0.0, 1.0, 0.0])], np.zeros((1, 1)))
    )
    with pytest.raises(PreconditionError):
        build_twisted_equilibrium(asym, 1, [0.0])
    system = identical_ring_system(1, 6)
    with pytest.raises(PreconditionError):
        build_twisted_equilibrium(system, 0, [0.0])
    with pytest.raises(PreconditionError):
        build_twisted_equilibrium(system, 6, [0.0])
    with pytest.raises(PreconditionError):
        build_twisted_equilibrium(system, 1, [4.0])


@pytest.mark.parametrize(
    "make",
    [
        lambda s: build_twisted_equilibrium(s, 1, [math.nan, 0.0]),
        lambda s: build_twisted_equilibrium(s, 1.5, [0.0, 0.0]),
        lambda s: build_twisted_equilibrium(s, np.float64(1.0), [0.0, 0.0]),
        lambda s: KuramotoSystem(s.network, epsilon=math.nan),
        lambda s: KuramotoSystem(s.network, epsilon=math.inf),
        lambda s: KuramotoSystem(s.network, omega=math.nan),
        lambda s: KuramotoSystem(s.network, omega=[0.0] * 11 + [-math.inf]),
    ],
    ids=["nan-phi", "j-1.5", "j-float", "eps-nan", "eps-inf", "omega-nan", "omega-inf"],
)
def test_constructors_reject_non_integral_index_and_non_finite_input(make):
    # a NaN reaches the phases or the rates, and a non-integral j winds
    # a state that is no equilibrium; a float j is refused even when whole
    with pytest.raises(PreconditionError):
        make(identical_ring_system(2, 6))


def test_constant_states_are_equilibria():
    system = identical_ring_system(3, 4, eps=1.5)
    ok, residual = check_equilibrium(system, np.full(system.n, 0.37))
    assert ok
    assert residual <= 1e-12


def test_random_state_is_not_an_equilibrium():
    system = identical_ring_system(2, 7, eps=1.0)
    rng = np.random.default_rng(5)
    ok, residual = check_equilibrium(system, rng.uniform(-np.pi, np.pi, system.n))
    assert not ok
    assert residual > 1e-3


def test_overflowing_default_tolerance_is_a_numerical_error():
    # 1e-8 * (1 + 1e308 * 8) is infinite, and every residual would pass it
    system = identical_ring_system(2, 6, eps=1e308)
    theta = build_twisted_equilibrium(system, 1, [0.0, 0.0]).theta
    with pytest.raises(NumericalError, match="default equilibrium tolerance"):
        check_equilibrium(system, theta)
    assert check_equilibrium(system, theta, tol=1.0)[1] < np.inf


def test_twisted_grid_all_indices_and_offsets():
    # every fourier index and a grid of random offsets give equilibria,
    # also with non-uniform (still real) couplings
    rng = np.random.default_rng(21)
    couplings = rng.uniform(0.1, 0.9, (3, 3))
    system = identical_ring_system(3, 6, eps=0.8, couplings=couplings)
    for j in range(1, 6):
        for _ in range(10):
            phis = rng.uniform(-np.pi, np.pi, 3)
            state = build_twisted_equilibrium(system, j, phis)
            ok, residual = check_equilibrium(system, state.theta)
            assert ok, (j, phis, residual)


def test_eigenvector_equilibrium_constant_vector():
    system = identical_ring_system(1, 5, eps=1.0)
    lam = system.network.blocks[0].row_sum().real
    theta = eigenvector_equilibrium(system, np.ones(5, dtype=complex), lam)
    assert theta is not None
    np.testing.assert_allclose(theta, np.zeros(5), atol=1e-14)


def test_eigenvector_equilibrium_rejects_zero_support():
    system = identical_ring_system(2, 4, eps=1.0)
    c = system.network.blocks[0]
    lam = c.eigenvalues()[2].real
    w = np.zeros(system.n, dtype=complex)
    w[:4] = fourier_matrix(4)[:, 2]
    assert eigenvector_equilibrium(system, w, lam) is None


def test_eigenvector_equilibrium_complex_eigenvalue():
    g = JoinSpec([CirculantMatrix([0.0, 0.0, 0.0, 1.0])])  # directed 4-cycle
    system = KuramotoSystem(g, epsilon=1.0)
    v = fourier_matrix(4)[:, 1]
    lam = complex(g.blocks[0].eigenvalues()[1])
    assert abs(lam - 1j) < 1e-12
    assert eigenvector_equilibrium(system, v, lam) is None


def test_eigenvector_equilibrium_matches_twisted_state():
    c = CirculantMatrix([0.0, 1.0, 0.0, 1.0])
    spec = JoinSpec([c, c], np.ones((2, 2)))
    system = KuramotoSystem(spec, epsilon=0.5)
    j, phis = 2, np.array([0.2, -1.1])
    v = np.zeros(system.n, dtype=complex)
    v[:4] = np.exp(1j * phis[0]) * fourier_matrix(4)[:, j]
    v[4:] = np.exp(1j * phis[1]) * fourier_matrix(4)[:, j]
    lam = c.eigenvalues()[j].real
    theta = eigenvector_equilibrium(system, v, lam)
    assert theta is not None
    ok, _ = check_equilibrium(system, theta)
    assert ok
    expected = build_twisted_equilibrium(system, j, phis).theta
    assert circular_gap(theta, expected).max() <= 1e-8


def test_eigenvector_equilibrium_does_not_depend_on_scale():
    system = identical_ring_system(2, 6, eps=1.0)
    c = system.network.blocks[0]
    mode = fourier_matrix(6)[:, 1]
    v = np.concatenate([np.exp(0.3j) * mode, np.exp(-1.2j) * mode])
    lam = c.eigenvalues()[1].real
    theta = eigenvector_equilibrium(system, v, lam)
    assert theta is not None
    for scale in (2.0**300, 2.0**-300, 1e9, 1e-9):
        scaled = eigenvector_equilibrium(system, v * scale, lam)
        assert scaled is not None, scale
        if scale in (2.0**300, 2.0**-300):
            assert scaled.tobytes() == theta.tobytes()
        else:
            assert circular_gap(scaled, theta).max() <= 1e-12
    assert eigenvector_equilibrium(system, np.zeros(system.n, dtype=complex), lam) is None


def test_eigenvector_equilibrium_rejects_non_eigenpair():
    system = identical_ring_system(1, 5)
    with pytest.raises(PreconditionError):
        eigenvector_equilibrium(system, np.arange(1.0, 6.0) + 0j, 2.0)


@pytest.mark.parametrize("v, lam", [
    (np.full(8, np.nan + 0j), 2.0),
    (np.full(8, np.inf + 0j), 2.0),
    (np.ones(8, dtype=complex), np.nan),
])
def test_eigenvector_equilibrium_rejects_non_finite_input(v, lam):
    system = KuramotoSystem(join(ring_graph(4, 1), ring_graph(4, 1)), epsilon=1.0)
    with pytest.raises(PreconditionError):
        eigenvector_equilibrium(system, v, lam)


def test_integrate_fixed_point_drift():
    system = identical_ring_system(2, 6, eps=0.25)
    state = build_twisted_equilibrium(system, 1, [0.0, 0.9])
    trajectory = integrate(system, state.theta, 1e-2, 1000)
    assert trajectory.thetas.shape == (1001, system.n)
    drift = np.abs(trajectory.thetas - trajectory.thetas[0]).max()
    assert drift <= 1e-6


def test_integrate_decoupled_is_constant():
    system = identical_ring_system(1, 5, eps=0.0)
    theta0 = np.linspace(-1.0, 2.0, 5)
    trajectory = integrate(system, theta0, 0.05, 50)
    assert np.array_equal(trajectory.thetas, np.tile(theta0, (51, 1)))


def test_two_oscillator_gap_shrinks():
    # reduced dynamics d(gap)/dt = -2 eps sin(gap): in-phase attracts
    system = two_oscillators(eps=1.0)
    theta0 = np.array([0.0, np.pi - 0.1])
    velocity = rhs(system, theta0)
    assert velocity[1] - velocity[0] < 0.0
    trajectory = integrate(system, theta0, 0.05, 200)
    gap0 = theta0[1] - theta0[0]
    gap_end = trajectory.thetas[-1, 1] - trajectory.thetas[-1, 0]
    assert 0.0 < gap_end < gap0


def test_rk4_fourth_order_convergence():
    system = identical_ring_system(1, 5, eps=2.0)
    rng = np.random.default_rng(9)
    theta0 = rng.uniform(-np.pi, np.pi, 5)
    horizon = 0.8

    def endpoint(dt):
        steps = int(round(horizon / dt))
        return integrate(system, theta0, dt, steps).thetas[-1]

    def error(dt):
        return np.abs(endpoint(dt) - endpoint(dt / 8.0)).max()

    ratio = error(0.1) / error(0.05)
    assert 12.0 <= ratio <= 20.0, ratio


def reference_rk4(system, theta0, dt, steps):
    """Every step of classical RK4, in integrate's expression order;
    returns (trajectory, first non-finite step or -1)."""
    out = np.empty((steps + 1, system.n))
    out[0] = th = np.asarray(theta0, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(steps):
            k1 = rhs(system, th)
            k2 = rhs(system, th + 0.5 * dt * k1)
            k3 = rhs(system, th + 0.5 * dt * k2)
            k4 = rhs(system, th + dt * k3)
            th = th + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(th).all():
                return out, s + 1
            out[s + 1] = th
    return out, -1


def count_rate_calls(monkeypatch):
    calls = []
    rate = kuramoto._kuramoto_rhs

    def counted(*args):
        calls.append(None)
        return rate(*args)

    monkeypatch.setattr(kuramoto, "_kuramoto_rhs", counted)
    return calls


def random_symmetric_block(rng, k):
    c = np.zeros(k)
    for off in range(1, k // 2 + 1):
        c[off] = c[k - off] = rng.uniform(0.2, 1.0)
    return CirculantMatrix(c)


def test_integrate_is_the_full_length_loop_on_stable_twisted_states(monkeypatch):
    # criterion 7's configurations: most reach a step that returns its
    # input, and every row after it must still be the reference loop's
    rng = np.random.default_rng(77)
    cases = []
    for _ in range(6):
        d, k = int(rng.integers(1, 5)), int(rng.integers(3, 9))
        spec = JoinSpec([random_symmetric_block(rng, k)] * d, rng.uniform(0.0, 0.2, (d, d)))
        system = KuramotoSystem(spec, epsilon=0.05)
        state = build_twisted_equilibrium(
            system, int(rng.integers(1, k)), rng.uniform(-np.pi, np.pi, d)
        )
        expected, bad = reference_rk4(system, state.theta, 1e-2, 1000)
        assert bad == -1
        cases.append((system, state.theta, expected))
    calls = count_rate_calls(monkeypatch)
    for system, theta0, expected in cases:
        thetas = integrate(system, theta0, 1e-2, 1000).thetas
        assert thetas.tobytes() == expected.tobytes()
    assert len(calls) < 6 * 4 * 1000


@pytest.mark.parametrize("seed", range(3))
def test_integrate_is_the_full_length_loop_when_settling_late(seed, monkeypatch):
    # a perturbed in-phase state converges and returns its input bit for
    # bit only after about a hundred steps
    rng = np.random.default_rng(seed)
    system = identical_ring_system(2, 5, eps=1.0)
    theta0 = 0.3 + rng.uniform(-0.1, 0.1, system.n)
    expected, bad = reference_rk4(system, theta0, 0.05, 1000)
    assert bad == -1
    calls = count_rate_calls(monkeypatch)
    thetas = integrate(system, theta0, 0.05, 1000).thetas
    assert thetas.tobytes() == expected.tobytes()
    assert 4 * 50 < len(calls) < 4 * 500


@pytest.mark.parametrize("seed", range(4))
def test_integrate_is_the_full_length_loop_off_equilibrium(seed):
    rng = np.random.default_rng(seed)
    network = JoinSpec(
        [CirculantMatrix(rng.uniform(-1.0, 1.0, k)) for k in RHS_SIZES[seed]],
        rng.uniform(-1.0, 1.0, (len(RHS_SIZES[seed]),) * 2),
    )
    omega = rng.normal(size=network.n) if seed % 2 else None
    for eps, scale in ((0.6, np.pi), (0.0, np.pi), (1.3, 20.0)):
        system = KuramotoSystem(network, epsilon=eps, omega=omega)
        theta0 = rng.uniform(-scale, scale, network.n)
        expected, bad = reference_rk4(system, theta0, 0.02, 150)
        assert bad == -1
        thetas = integrate(system, theta0, 0.02, 150).thetas
        assert thetas.tobytes() == expected.tobytes()
        if eps == 0.0 and omega is None:
            assert thetas.tobytes() == np.tile(theta0, (151, 1)).tobytes()


def test_a_fixed_point_from_step_0_takes_one_step(monkeypatch):
    system = identical_ring_system(2, 5, eps=0.3)
    calls = count_rate_calls(monkeypatch)
    thetas = integrate(system, np.full(system.n, 0.37), 1e-2, 1000).thetas
    assert len(calls) == 4
    assert thetas.tobytes() == np.full((1001, system.n), 0.37).tobytes()


def test_negative_zero_is_not_taken_for_a_fixed_point(monkeypatch):
    # -0.0 == 0.0, but -0.0 + 0.0 is +0.0: step 1 changes the bits
    system = identical_ring_system(2, 4, eps=0.3)
    calls = count_rate_calls(monkeypatch)
    thetas = integrate(system, np.full(8, -0.0), 1e-2, 100).thetas
    assert len(calls) == 8
    assert np.signbit(thetas[0]).all()
    assert thetas[1:].tobytes() == np.zeros((100, 8)).tobytes()


def test_integrate_divergence_reports_step():
    system = KuramotoSystem(
        JoinSpec([CirculantMatrix([0.0, 1.0])]), epsilon=1.0, omega=1e308
    )
    _, bad = reference_rk4(system, np.zeros(2), 10.0, 5)
    assert bad >= 1
    with pytest.raises(DivergenceError) as err:
        integrate(system, np.zeros(2), 10.0, 5)
    assert err.value.step == bad


def test_integrate_preconditions():
    system = two_oscillators()
    with pytest.raises(PreconditionError):
        integrate(system, np.zeros(2), 0.0, 10)
    with pytest.raises(PreconditionError):
        integrate(system, np.zeros(2), 0.1, 0)
    with pytest.raises(PreconditionError):
        integrate(system, np.zeros(3), 0.1, 10)


@pytest.mark.parametrize(
    "call",
    [
        lambda s, theta: check_equilibrium(s, theta, tol=np.nan),
        lambda s, theta: check_equilibrium(s, theta, tol=-1.0),
        lambda s, theta: check_equilibrium(s, theta, tol=np.inf),
        lambda s, theta: integrate(s, theta, np.nan, 3),
        lambda s, theta: integrate(s, theta, np.inf, 3),
        lambda s, theta: integrate(s, theta, -np.inf, 3),
    ],
    ids=["tol-nan", "tol-negative", "tol-inf", "dt-nan", "dt-inf", "dt-minus-inf"],
)
def test_library_refuses_non_finite_tol_and_dt(call):
    # a NaN tol fails every comparison and a negative one every residual,
    # so the equilibrium below would read False; a NaN or infinite dt
    # made the first RK4 step non-finite, a DivergenceError at step 1
    system = KuramotoSystem(join(ring_graph(6, 1), ring_graph(6, 1)), epsilon=0.3)
    theta = build_twisted_equilibrium(system, 1, [0.0, 0.5]).theta
    assert check_equilibrium(system, theta)[0]
    with pytest.raises(PreconditionError, match="finite"):
        call(system, theta)


def test_reduce_phases_convention():
    vals = np.array([np.pi, -np.pi, 3.0 * np.pi, 0.0, -0.5, TWO_PI])
    reduced = reduce_phases(vals)
    assert np.all(reduced > -np.pi)
    assert np.all(reduced <= np.pi)
    np.testing.assert_allclose(
        reduced, [np.pi, np.pi, np.pi, 0.0, -0.5, 0.0], atol=1e-15
    )
    trajectory = integrate(two_oscillators(), np.array([3.0, -4.0]), 0.1, 5)
    red = trajectory.reduced()
    assert np.all((red > -np.pi) & (red <= np.pi))
