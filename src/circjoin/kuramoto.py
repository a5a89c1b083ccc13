"""Kuramoto phase oscillators coupled on a join of circulant graphs.

The dynamics are d(theta_i)/dt = omega_i + eps * sum_j A_ij *
sin(theta_j - theta_i) with A the real join.  The sum is computed as
Im(conj(z_i) (A z)_i) with z = exp(i theta), so every rate, residual and
eigenvector test is one structured `JoinSpec.matvec`: O(n log n) time,
O(n) memory and no cap on n.
When the network joins d identical real symmetric circulant blocks of
size k, every Fourier index 1 <= j <= k-1 together with per-block phase
offsets phi_1..phi_d yields an explicit equilibrium: block i, position r
carries phase 2*pi*r*j/k + phi_i.  More generally, any eigenvector of A
with a real eigenvalue and entries of one common modulus gives an
equilibrium through its entrywise argument.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, NumericalError, PreconditionError
from .join import JoinSpec
from .smalleig import _tolerance

TWO_PI = 2.0 * np.pi


def reduce_phases(theta):
    """Map phases to the interval (-pi, pi]."""
    theta = np.asarray(theta, dtype=np.float64)
    reduced = np.mod(theta, TWO_PI)
    return np.where(reduced > np.pi, reduced - TWO_PI, reduced)


class KuramotoSystem:
    """Oscillator network on a real join, with coupling strength and
    per-oscillator natural frequencies (zero by default)."""

    __slots__ = ("network", "epsilon", "omega")

    def __init__(self, network, epsilon=1.0, omega=None):
        if not isinstance(network, JoinSpec):
            raise PreconditionError("network must be a JoinSpec")
        if not network.is_real():
            raise PreconditionError("Kuramoto network must have real entries")
        self.network = network
        self.epsilon = float(epsilon)
        if not math.isfinite(self.epsilon):
            raise PreconditionError("epsilon must be finite")
        n = network.n
        if omega is None:
            self.omega = np.zeros(n)
        else:
            om = np.asarray(omega, dtype=np.float64)
            if om.shape == ():
                om = np.full(n, float(om))
            if om.shape != (n,):
                raise PreconditionError(f"omega must be a scalar or length-{n} vector")
            if not np.isfinite(om).all():
                raise PreconditionError("omega must be finite")
            self.omega = om

    @property
    def n(self):
        return self.network.n


def _kuramoto_rhs(theta, network, omega, eps):
    """omega_i + eps * sum_l A[i,l] * sin(theta_l - theta_i), computed as
    omega + eps * Im(conj(z) * A z) with z = exp(i (theta - theta_0)).

    Measuring phases from theta_0 makes the rates depend only on phase
    differences, so a global shift that is exact in floating point
    leaves them bit-identical.
    """
    z = np.exp(1j * (theta - theta[0]))
    return omega + eps * (z.conj() * network.matvec(z)).imag


def _rk4_trajectory(theta0, network, omega, eps, dt, steps):
    """Classical fixed-step RK4; returns (trajectory, bad_step).

    trajectory has steps+1 rows of unreduced phases; bad_step is the
    1-based step at which the state first became non-finite, or -1.

    A step is a function of the bits of its input alone, so once a step
    returns its input bit for bit every later step does too: the
    remaining rows are filled with that state and the loop stops.  The
    comparison is of bytes, not values, so -0.0 is never taken for 0.0.
    """
    n = theta0.shape[0]
    try:
        out = np.empty((steps + 1, n))
    except (ValueError, MemoryError) as exc:  # a size numpy refuses or cannot allocate
        raise PreconditionError(f"{steps} steps of {n} phases: {exc}") from exc
    out[0] = theta0
    th = theta0.copy()
    # overflow/invalid are expected on divergence and reported via bad_step
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(steps):
            k1 = _kuramoto_rhs(th, network, omega, eps)
            k2 = _kuramoto_rhs(th + 0.5 * dt * k1, network, omega, eps)
            k3 = _kuramoto_rhs(th + 0.5 * dt * k2, network, omega, eps)
            k4 = _kuramoto_rhs(th + dt * k3, network, omega, eps)
            nxt = th + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(nxt).all():
                return out, s + 1
            if nxt.tobytes() == th.tobytes():
                out[s + 1:] = th
                break
            out[s + 1] = th = nxt
    return out, -1


def rhs(system, theta):
    """Instantaneous phase velocities at the given state."""
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    if theta.shape != (system.n,):
        raise PreconditionError(f"state must have length {system.n}")
    return _kuramoto_rhs(theta, system.network, system.omega, system.epsilon)


def default_equilibrium_tol(system):
    """1e-8 * (1 + |epsilon| * ||A||_inf); raises NumericalError when it
    overflows, since no residual could exceed an infinite tolerance."""
    anorm = system.network.inf_norm()
    tol = 1e-8 * (1.0 + abs(system.epsilon) * anorm)
    if not np.isfinite(tol):
        raise NumericalError(
            "the default equilibrium tolerance 1e-8 * (1 + |epsilon| * inf-norm) "
            "overflows"
        )
    return tol


def check_equilibrium(system, theta, tol=None):
    """Whether theta is an equilibrium; returns (flag, residual norm).
    A given tol must be finite and >= 0 (PreconditionError)."""
    if tol is None:
        tol = default_equilibrium_tol(system)
    else:
        tol = _tolerance("tol", tol, None)
    residual = float(np.abs(rhs(system, theta)).max())
    return residual <= tol, residual


@dataclass(frozen=True, eq=False)
class TwistedEquilibrium:
    """Twisted equilibrium state: winding index j, per-block offsets,
    and the phase vector (reduced to (-pi, pi])."""

    fourier_index: int
    phis: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)


def build_twisted_equilibrium(system, j, phis):
    """Equilibrium on a join of d identical real symmetric circulant
    blocks: phase 2*pi*r*j/k + phi_i at position r of block i.

    The exponential of this state is the sum over blocks of
    e^{i phi_i} times the zero-padded Fourier mode at index j, an
    eigenvector of the network at the (real) block eigenvalue, which is
    what makes the state stationary.
    """
    network = system.network
    vec = network.blocks[0]
    k = vec.shape[0]
    if network.block_sizes != (k,) * network.d or np.any(
        network.vector.reshape(network.d, k) != vec
    ):
        raise PreconditionError("twisted equilibria need identical blocks")
    if np.any(vec.imag != 0.0) or not np.array_equal(vec[1:], vec[1:][::-1]):
        raise PreconditionError(
            "twisted equilibria need a real symmetric circulant block"
        )
    try:
        j = operator.index(j)
    except TypeError:
        raise PreconditionError(f"fourier index {j!r} is not an integer") from None
    if not 1 <= j <= k - 1:
        raise PreconditionError(f"fourier index {j} out of range [1, {k - 1}]")
    phis = np.atleast_1d(np.asarray(phis, dtype=np.float64))
    if phis.shape != (network.d,):
        raise PreconditionError(f"need one phase offset per block ({network.d})")
    if not np.all(np.abs(phis) <= np.pi + 1e-12):  # a NaN fails too
        raise PreconditionError("phase offsets must lie in [-pi, pi]")
    ramp = TWO_PI * j * np.arange(k) / k
    theta = np.concatenate([ramp + phi for phi in phis])
    phis = phis.copy()
    phis.setflags(write=False)
    theta = reduce_phases(theta)
    theta.setflags(write=False)
    return TwistedEquilibrium(fourier_index=j, phis=phis, theta=theta)


def eigenvector_equilibrium(system, v, eigenvalue):
    """Phase state read off an eigenvector, when the hypotheses hold.

    v must be finite.  It is first scaled by the power of two that
    brings its largest real or imaginary part into [1, 2); that changes
    no argument, so the result does not depend on the scale of v, and
    every modulus is then finite.  Requires (A v ~
    eigenvalue * v) up to 1e-8 * norm(A), with norm(A) the largest
    absolute row sum; returns None unless the eigenvalue is real
    (|Im| <= 1e-10 * norm(A)) and all entries of v share one positive
    modulus to within 1e-8, in which case the entrywise argument of v
    is an equilibrium.  Both tolerances scale with A, so the result
    does not depend on the scale of the network either.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (system.n,):
        raise PreconditionError(f"vector must have length {system.n}")
    if not np.isfinite(v).all():
        raise PreconditionError("vector entries must be finite")
    # the largest part, unlike the largest modulus, cannot overflow; ldexp
    # stays exact where a factor 2.0**-e would overflow (subnormal v)
    parts = np.ascontiguousarray(v).view(np.float64)
    top = float(np.abs(parts).max())
    if top > 0.0:
        v = np.ldexp(parts, 1 - math.frexp(top)[1]).view(np.complex128)
    network = system.network
    anorm = network.inf_norm()
    residual = float(np.abs(network.matvec(v) - eigenvalue * v).max())
    if not residual <= 1e-8 * anorm:  # a NaN residual fails too
        raise PreconditionError(
            f"not an eigenpair: residual {residual:.3e} exceeds tolerance"
        )
    if abs(complex(eigenvalue).imag) > 1e-10 * anorm:
        return None
    moduli = np.abs(v)
    common = float(moduli.mean())
    if common <= 1e-8 or np.abs(moduli - common).max() > 1e-8:
        return None
    return reduce_phases(np.angle(v))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled trajectory; phases are stored unreduced."""

    times: np.ndarray = field(repr=False)
    thetas: np.ndarray = field(repr=False)

    def reduced(self):
        return reduce_phases(self.thetas)


def integrate(system, theta0, dt, steps):
    """Fixed-step classical RK4 from theta0; samples every step.

    Every row is the one a full-length RK4 loop gives, bit for bit.  Once
    a step returns its input unchanged (a state resting on an
    equilibrium), the later rows are copies of it and no rate is
    evaluated for them.  Raises PreconditionError unless 0 < dt < inf
    and steps >= 1, and DivergenceError (carrying the step index) if the
    state stops being finite.
    """
    if not 0.0 < dt < math.inf:
        raise PreconditionError(f"dt must be positive and finite, got {dt!r}")
    steps = int(steps)
    if steps < 1:
        raise PreconditionError("steps must be >= 1")
    theta0 = np.ascontiguousarray(theta0, dtype=np.float64)
    if theta0.shape != (system.n,):
        raise PreconditionError(f"initial state must have length {system.n}")
    thetas, bad = _rk4_trajectory(
        theta0, system.network, system.omega, system.epsilon, float(dt), steps
    )
    if bad >= 0:
        raise DivergenceError(bad)
    times = dt * np.arange(steps + 1)
    return Trajectory(times=times, thetas=thetas)
