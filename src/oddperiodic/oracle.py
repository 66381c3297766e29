"""Independent verification: time integration, shooting, pointwise residuals.

Nothing in this module touches the spectral fixed-point machinery -- no
inverse operator, no solver -- so agreement between a solver output and a
shooting reconstruction is evidence from two genuinely different methods.

The shooting reformulation rests on a boundary-value equivalence that is
worth spelling out.  If u is odd and T-periodic then u(0) = -u(0) = 0 and
u(T/2) = -u(-T/2) = -u(T/2) = 0, so u solves the two-point problem
u(0) = u(T/2) = 0.  Conversely, for odd g and odd forcing, a solution of the
initial value problem with u(0) = 0 reflects oddly into a solution on
[-T/2, T/2] (w(t) = -u(-t) solves the same equation and shares initial data,
so w = u), and u(T/2) = 0 closes it up into a classical T-periodic odd
solution: the first derivative is even, so it matches across the seam.
Root-finding on the initial slope v0 with target u(T/2; v0) = 0 is therefore
an independent route to the same solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .funcspace import (
    OddPeriodicFunction,
    differentiate,
    from_samples,
    grid_samples,
    sup_norm,
)

__all__ = [
    "Trajectory",
    "ShootingResult",
    "CrossValidation",
    "BlowUpError",
    "OracleInconclusiveError",
    "integrate_ivp",
    "shoot",
    "pointwise_residual",
    "ode_residual",
    "cross_validate",
]

# default integrator density: h <= T / _STEPS_PER_PERIOD
_STEPS_PER_PERIOD = 2048
_RECONSTRUCTION_MODES = 256


class BlowUpError(ArithmeticError):
    """The integrated state left the representable range."""

    def __init__(self, t_escape: float):
        self.t_escape = float(t_escape)
        super().__init__(f"trajectory became non-finite near t = {t_escape:.6g}")


class OracleInconclusiveError(RuntimeError):
    """Shooting could not locate a root: no sign change and the secant
    stagnated.  Distinct from 'no solution exists'."""


@dataclass(frozen=True)
class Trajectory:
    """RK4 output: states (u, v) = (u, u') at the nodes t."""

    t: np.ndarray
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class ShootingResult:
    """Converged shooting data.

    Attributes
    ----------
    v0 : float
        Initial slope u'(0) at convergence.
    boundary_defect : float
        u(T/2; v0), |.| <= the shooting tolerance.
    trajectory : Trajectory
        The half-period trajectory on [0, T/2].
    reconstructed : OddPeriodicFunction
        The full-period odd extension, resampled into a sine series.
    """

    v0: float
    boundary_defect: float
    trajectory: Trajectory
    reconstructed: OddPeriodicFunction


@dataclass(frozen=True)
class CrossValidation:
    """Outcome of comparing a candidate solution against shooting."""

    passed: bool
    distance: float
    residual_candidate: float
    residual_oracle: float
    shooting: ShootingResult


def _default_steps(t_end: float, period: float) -> int:
    return max(16, math.ceil(_STEPS_PER_PERIOD * t_end / period))


def integrate_ivp(problem, u0: float, v0: float, t_end: float,
                  steps: int | None = None) -> Trajectory:
    """Classical 4th-order Runge-Kutta for u' = v, v' = k(t) - g(u).

    Deterministic, fixed step h = t_end/steps with global error O(h^4).  The
    default step count keeps h <= T/2048.

    Raises
    ------
    BlowUpError
        If the state becomes non-finite; carries the escape time.
    ValueError
        If steps < 16.
    """
    if steps is None:
        steps = _default_steps(t_end, problem.period)
    steps = int(steps)
    if steps < 16:
        raise ValueError("steps must be >= 16")
    h = t_end / steps
    t = h * np.arange(steps + 1)
    # forcing values at nodes and midpoints are fixed by the grid; hoisting
    # them out of the loop keeps repeated shooting evaluations cheap
    k_node = problem.k(t).tolist()
    k_half = problem.k(t[:-1] + 0.5 * h).tolist()
    g = problem.g.value
    # stepping on Python floats and hoisting the step fractions leaves every
    # bit as is (0.5 * h * k already groups as (0.5 * h) * k); g stays the
    # problem's numpy callable, as math.sin or math.tanh can differ by an ulp
    h2 = 0.5 * h
    h6 = h / 6.0

    u_out = np.empty(steps + 1)
    v_out = np.empty(steps + 1)
    u, v = float(u0), float(v0)
    u_out[0], v_out[0] = u, v
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is detected below
        for i in range(steps):
            ka, kb = k_node[i], k_half[i]
            kc = k_node[i + 1]
            k1u = v
            k1v = ka - float(g(u))
            k2u = v + h2 * k1v
            k2v = kb - float(g(u + h2 * k1u))
            k3u = v + h2 * k2v
            k3v = kb - float(g(u + h2 * k2u))
            k4u = v + h * k3v
            k4v = kc - float(g(u + h * k3u))
            u += h6 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            v += h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if not (math.isfinite(u) and math.isfinite(v)):
                raise BlowUpError(t[i + 1])
            u_out[i + 1], v_out[i + 1] = u, v
    return Trajectory(t=t, u=u_out, v=v_out)


def _reconstruct(traj: Trajectory, period: float,
                 modes: int) -> OddPeriodicFunction:
    """Odd-reflect a half-period trajectory and sine-analyze it.

    When the analysis grid is a subgrid of the RK4 nodes the samples are
    taken directly; otherwise values are linearly interpolated between
    nodes, which caps the oracle accuracy near 1e-7 at default settings.

    The residual boundary defect b = u(T/2) would reflect into a value jump
    of 2b whose sine coefficients decay only like 1/n; subtracting the ramp
    b*t/(T/2) (a perturbation of size <= b, below the oracle floor) restores
    endpoint consistency and keeps the spectral tail clean.
    """
    P = 2 * modes
    n_steps = traj.t.size - 1
    if n_steps % modes == 0:
        half = traj.u[:: n_steps // modes].copy()  # nodes coincide with grid
    else:
        t_half = np.arange(modes + 1) * (period / P)
        half = np.interp(t_half, traj.t, traj.u)
    half -= half[-1] * (np.arange(modes + 1) / modes)
    samples = np.empty(P)
    samples[: modes + 1] = half
    samples[modes + 1 :] = -half[1:modes][::-1]  # u(T - t) = -u(t)
    samples[0] = 0.0
    return from_samples(samples, period, tol=np.inf)


def shoot(problem, v0_bracket, tol: float = 1e-11,
          steps: int | None = None,
          modes: int = _RECONSTRUCTION_MODES) -> ShootingResult:
    """Solve the half-period boundary value problem by shooting on u'(0).

    Finds v0 with |u(T/2; v0)| <= tol.  The bracket midpoint is shot first
    and returned when it meets the tolerance, as it does when the bracket
    is centred on a good slope estimate; the endpoints are then never
    integrated.  Otherwise the endpoints are shot: an endpoint with
    u(T/2) exactly 0 is returned, else bisection runs on a sign change
    (its first midpoint is the one already shot), else the secant
    iteration seeded from the two endpoints.  The accepted slope is not
    integrated again: the trajectory its root test produced is
    odd-reflected to a full period and resampled into an
    OddPeriodicFunction.

    Shooting the midpoint first returns it where the endpoints alone
    would have decided otherwise: over an endpoint with u(T/2) exactly 0,
    over a secant iteration on a bracket without a sign change, and over
    an endpoint that blows up.  An endpoint with u(T/2) exactly 0 is
    returned without shooting the other one, and a blow-up of the
    midpoint reports the midpoint's escape time.  An endpoint equal to the
    midpoint (a degenerate bracket) is not shot again.

    Raises
    ------
    OracleInconclusiveError
        No sign change and the secant iteration stagnated (this does not
        mean no solution exists).
    BlowUpError
        The integration blew up inside the bracket.
    """
    T = problem.period
    t_half = 0.5 * T
    if steps is None:
        steps = _default_steps(t_half, T)
        steps = math.ceil(steps / modes) * modes  # align nodes to the grid
    steps = int(steps)
    traj = None  # trajectory of the slope F was last called with

    def F(v0: float) -> float:
        nonlocal traj
        traj = integrate_ivp(problem, 0.0, v0, t_half, steps=steps)
        return float(traj.u[-1])

    a, b = float(v0_bracket[0]), float(v0_bracket[1])
    m = 0.5 * (a + b)
    fm = F(m)
    traj_m = traj

    def F_end(v0: float) -> float:
        # an endpoint equal to the midpoint (a == b, or adjacent doubles)
        # reuses the midpoint's shot
        nonlocal traj
        if v0 != m:
            return F(v0)
        traj = traj_m
        return fm

    v0 = None
    if abs(fm) <= tol:
        v0 = m
    elif (fa := F_end(a)) == 0.0:
        v0 = a
    elif (fb := F_end(b)) == 0.0:
        v0 = b
    elif fa * fb < 0.0:
        for _ in range(199):  # 200 midpoints with the one shot above
            if fa * fm < 0.0:
                b, fb = m, fm
            else:
                a, fa = m, fm
            if abs(b - a) <= 1e-16 * max(1.0, abs(a), abs(b)):
                break
            m = 0.5 * (a + b)
            fm = F(m)
            if abs(fm) <= tol:
                v0 = m
                break
        if v0 is None:
            raise OracleInconclusiveError(
                "bisection exhausted the bracket without meeting the "
                f"boundary tolerance {tol:.1e}")
    else:
        # secant from the two seeds
        x0, f0, x1, f1 = a, fa, b, fb
        for _ in range(100):
            if abs(f1) <= tol:
                v0 = x1
                break
            denom = f1 - f0
            if denom == 0.0 or not math.isfinite(denom):
                break
            x2 = x1 - f1 * (x1 - x0) / denom
            if not math.isfinite(x2) or abs(x2 - x1) <= 1e-16 * max(1.0, abs(x1)):
                break
            x0, f0 = x1, f1
            x1, f1 = x2, F(x2)
        if v0 is None:
            raise OracleInconclusiveError(
                "no sign change on the bracket and the secant iteration "
                "stagnated; widen the bracket or reseed")

    reconstructed = _reconstruct(traj, T, modes)
    return ShootingResult(v0=v0, boundary_defect=float(traj.u[-1]),
                          trajectory=traj, reconstructed=reconstructed)


def pointwise_residual(problem, u: OddPeriodicFunction,
                       n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """|u''(t_j) + g(u(t_j)) - k(t_j)| on the grid t_j = j*T/P, j = 0..P-1.

    The defect of the differential equation itself, with u'' taken
    spectrally -- independent of the fixed-point formulation.  Returns the
    samples u(t_j) together with the residual, so a caller that needs both
    synthesizes u once.
    """
    upp = grid_samples(differentiate(u, 2), n_points)
    k = grid_samples(problem.k, n_points)
    su = grid_samples(u, n_points)
    with np.errstate(over="ignore", invalid="ignore"):
        return su, np.abs(upp + problem.g.value(su) - k)


def ode_residual(problem, u: OddPeriodicFunction) -> float:
    """max of :func:`pointwise_residual` over a 4N-point grid."""
    return float(np.max(pointwise_residual(problem, u, 4 * u.modes)[1]))


def cross_validate(problem, u: OddPeriodicFunction,
                   tol: float = 1e-6) -> CrossValidation:
    """Check a claimed solution against an independent shooting solve.

    Shooting is seeded from the candidate's own spectral slope u'(0), so it
    converges to the same branch when the candidate is genuine.  Passes iff
    the sup-norm distance and both equation residuals are <= tol.
    """
    v0_guess = float(differentiate(u, 1)(0.0))
    delta = 0.5 * (1.0 + abs(v0_guess))
    shot = shoot(problem, (v0_guess - delta, v0_guess + delta))
    distance = sup_norm(u - shot.reconstructed)
    res_u = ode_residual(problem, u)
    res_o = ode_residual(problem, shot.reconstructed)
    passed = distance <= tol and res_u <= tol and res_o <= tol
    return CrossValidation(passed=passed, distance=distance,
                           residual_candidate=res_u, residual_oracle=res_o,
                           shooting=shot)
