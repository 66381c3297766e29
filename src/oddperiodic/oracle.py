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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .funcspace import (
    OddPeriodicFunction,
    _half_grid,
    _sine_rows,
    differentiate,
    grid_samples,
    sup_norm,
)
from .problems import _check_limits, _row_values

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
    "shooting_distances",
]

# default integrator density: h <= T / _STEPS_PER_PERIOD
_STEPS_PER_PERIOD = 2048
# shooting: the boundary tolerance on |u(T/2)|, the sine order of the
# reconstruction and the RK4 steps of a half-period shot (h = T/2048).  The
# reconstruction grid t_j = j*T/512 falls on every 4th node of a shot.  A
# shot passes its steps to integrate_ivp, where bench/tracer.py reads them.
_SHOOT_TOL = 1e-11
_RECONSTRUCTION_MODES = 256
_HALF_PERIOD_STEPS = _STEPS_PER_PERIOD // 2
_NODE_STRIDE = _HALF_PERIOD_STEPS // _RECONSTRUCTION_MODES
# shoot's walk from a missed midpoint m: the first offset in units of
# 1 + |m| (about RK4's own error in the root) and its growth per step
_WALK_FIRST = 1e-9
_WALK_GROWTH = 16.0
# cross_validate's acceptance tolerance on the distance and both residuals
DEFAULT_CHECK_TOL = 1e-6


class BlowUpError(ArithmeticError):
    """The integrated state left the representable range."""

    def __init__(self, t_escape: float):
        self.t_escape = float(t_escape)
        super().__init__(f"trajectory became non-finite near t = {t_escape:.6g}")


class OracleInconclusiveError(RuntimeError):
    """Shooting could not locate a root: no sign change within the
    bracket, or bisection ran out of doubles short of the tolerance.
    Distinct from 'no solution exists'."""


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
    return max(16, math.ceil(_STEPS_PER_PERIOD * abs(t_end) / period))


def _forcing_samples(problem, t_end: float, steps: int) -> tuple[np.ndarray, ...]:
    """k at the nodes and midpoints of the grid h = t_end/steps, for
    :func:`integrate_ivp` and each row of :func:`_integrate_rows`.  On a
    half-period grid, that of every shot, they are k(j*T/(4*steps)) at even
    and odd j whatever T is: one FFT synthesis of k's coefficients, which
    folds any mode exactly, kept for the last coefficients and steps, so
    all shots of one forcing read the same two arrays.  Any other grid
    evaluates k pointwise."""
    if t_end == 0.5 * problem.period:
        return _half_period_samples(problem.k.coeffs.tobytes(), steps)
    h = t_end / steps
    t = h * np.arange(steps + 1)
    return problem.k(t), problem.k(t[:-1] + 0.5 * h)


@functools.lru_cache(maxsize=1)
def _half_period_samples(coeffs: bytes, steps: int) -> tuple[np.ndarray, ...]:
    k = _half_grid(np.frombuffer(coeffs), 4 * steps)
    k.flags.writeable = False  # every shot of the forcing reads these
    return k[::2], k[1::2]


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
        If t_end is not finite or steps < 16.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if steps is None:
        steps = _default_steps(t_end, problem.period)
    steps = int(steps)
    if steps < 16:
        raise ValueError("steps must be >= 16")
    h = t_end / steps
    t = h * np.arange(steps + 1)
    # forcing values at nodes and midpoints are fixed by the grid
    k_node, k_half = map(np.ndarray.tolist,
                         _forcing_samples(problem, t_end, steps))
    value = problem.g.value

    # stepping on Python floats and hoisting the step fractions leaves every
    # bit as is (0.5 * h * k already groups as (0.5 * h) * k); g stays the
    # problem's numpy callable, as math.sin or math.tanh can differ by an ulp
    def g(x: float) -> float:
        return float(value(x))

    h2 = 0.5 * h
    h6 = h / 6.0

    u_out = np.empty(steps + 1)
    v_out = np.empty(steps + 1)
    u, v = float(u0), float(v0)
    u_out[0], v_out[0] = u, v
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is detected below
        for i in range(steps):
            u, v = _rk4_step(g, u, v, h, h2, h6, k_node[i], k_half[i],
                             k_node[i + 1])
            if not (math.isfinite(u) and math.isfinite(v)):
                raise BlowUpError(t[i + 1])
            u_out[i + 1], v_out[i + 1] = u, v
    return Trajectory(t=t, u=u_out, v=v_out)


def _rk4_step(g, u, v, h, h2, h6, ka, kb, kc):
    """One classical RK4 step of u' = v, v' = k - g(u), on floats or on
    arrays over rows; k is ``ka``, ``kb``, ``kc`` at the step's start,
    middle and end, and h2 = h/2, h6 = h/6."""
    k1u = v
    k1v = ka - g(u)
    k2u = v + h2 * k1v
    k2v = kb - g(u + h2 * k1u)
    k3u = v + h2 * k2v
    k3v = kb - g(u + h2 * k2u)
    k4u = v + h * k3v
    k4v = kc - g(u + h * k3u)
    return (u + h6 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
            v + h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))


def _integrate_rows(problems, v0):
    """:func:`shoot`'s half-period shot for many rows at once, row i from
    u(0) = 0 with slope ``v0[i]`` to T_i/2 in _HALF_PERIOD_STEPS RK4
    steps: one loop over the steps on arrays over the rows.

    Rows of one forcing, as in a sweep pass, read the same samples of k
    (:func:`_forcing_samples`) as one column; rows of different forcings
    stack theirs.  Returns u at the nodes that :func:`_reconstruct` reads,
    every 4th from 0 to T/2, one row per problem, and the mask of the rows
    that blow up.  Rows never mix, so a row that blows up runs on beside
    the others, non-finite to the end, and leaves them untouched; row i
    of u is bitwise that of integrate_ivp at those nodes wherever the mask
    is clear, and integrate_ivp raises BlowUpError wherever it is set.
    """
    n, steps = len(problems), _HALF_PERIOD_STEPS
    t_end = [0.5 * p.period for p in problems]
    h = np.array(t_end) / steps
    samples = [_forcing_samples(p, t_j, steps) for p, t_j in zip(problems, t_end)]
    if all(s is samples[0] for s in samples):
        k_node, k_half = samples[0]
    else:  # forcing at the nodes and midpoints of each row, one step per line
        k_node, k_half = (np.stack(k, axis=1) for k in zip(*samples))
    g = _row_values([p.g for p in problems])
    h2 = 0.5 * h
    h6 = h / 6.0

    u_out = np.empty((_RECONSTRUCTION_MODES + 1, n))
    u = np.zeros(n)
    v = np.array(v0, dtype=float)
    u_out[0] = u
    # a non-finite state stays non-finite, so the last one tells
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            u, v = _rk4_step(g, u, v, h, h2, h6, k_node[i], k_half[i],
                             k_node[i + 1])
            if (i + 1) % _NODE_STRIDE == 0:
                u_out[(i + 1) // _NODE_STRIDE] = u
    return u_out.T, ~(np.isfinite(u) & np.isfinite(v))


def _reconstruct(u_nodes: np.ndarray, period: float) -> OddPeriodicFunction:
    """Odd-reflect a half-period shot and sine-analyze it to 256 modes.

    ``u_nodes`` holds u at t_j = j*T/512, j = 0..256: every 4th node of a
    shot.  The residual boundary defect b = u(T/2) would reflect into a
    value jump of 2b whose sine coefficients decay only like 1/n;
    subtracting the ramp b*t/(T/2) (a perturbation of size <= b, below the
    oracle floor) restores endpoint consistency and keeps the spectral
    tail clean.
    """
    modes = _RECONSTRUCTION_MODES
    P = 2 * modes
    half = np.array(u_nodes, dtype=float)
    half -= half[-1] * (np.arange(modes + 1) / modes)
    samples = np.empty(P)
    samples[: modes + 1] = half
    samples[modes + 1 :] = -half[1:modes][::-1]  # u(T - t) = -u(t)
    samples[0] = 0.0
    return OddPeriodicFunction(period, _sine_rows(samples, modes))


def shoot(problem, v0_bracket) -> ShootingResult:
    """Solve the half-period boundary value problem by shooting on u'(0).

    Finds the root of u(T/2; v0) nearest the bracket's midpoint m, within
    the bracket, to |u(T/2; v0)| <= 1e-11, each shot in 1024 RK4 steps.
    The midpoint is shot first and returned when it meets the tolerance,
    as it does when the bracket is centred on a good slope estimate.
    Otherwise the search walks out from m: it shoots m - d, then m + d,
    for d = 1e-9*(1 + |m|) growing 16-fold up to the bracket's half-width,
    and stops at the first slope whose u(T/2) has the sign opposite to
    m's.  Bisection between that slope and m finds the root.  The accepted
    slope is not integrated again: the trajectory its root test produced
    is odd-reflected to a full period and resampled into an
    OddPeriodicFunction.  This is the one shooting solve: a sweep row
    whose batched midpoint misses comes here too.

    Raises
    ------
    OracleInconclusiveError
        No sign change within the bracket (this does not mean no solution
        exists), or bisection ran out of doubles without meeting the
        tolerance.  A degenerate bracket has no slope to walk to.
    BlowUpError
        The integration blew up inside the bracket.
    """
    t_half = 0.5 * problem.period

    def shot(v0: float) -> tuple[float, Trajectory]:
        traj = integrate_ivp(problem, 0.0, v0, t_half,
                             steps=_HALF_PERIOD_STEPS)
        return float(traj.u[-1]), traj

    a, b = float(v0_bracket[0]), float(v0_bracket[1])
    m = 0.5 * (a + b)
    fm, traj = shot(m)
    v0, f = m, fm
    if abs(fm) > _SHOOT_TOL:
        for v0 in _walk(m, 0.5 * abs(b - a)):
            f, traj = shot(v0)
            if f * fm < 0.0:
                break
        else:
            raise OracleInconclusiveError(
                "no sign change within the bracket; widen it or reseed")
    # bisect between the walk's last slope and m: u(T/2) differs in sign
    x, fx, y = v0, f, m
    while abs(f) > _SHOOT_TOL:
        v0 = 0.5 * (x + y)
        if v0 in (x, y):
            raise OracleInconclusiveError(
                "bisection exhausted the bracket without meeting the "
                f"boundary tolerance {_SHOOT_TOL:.1e}")
        f, traj = shot(v0)
        if f * fx < 0.0:
            y = v0
        else:
            x, fx = v0, f
    return ShootingResult(v0, f, traj,
                          _reconstruct(traj.u[::_NODE_STRIDE], problem.period))


def _walk(m: float, half: float):
    """The slopes m - d, m + d of :func:`shoot`'s walk, for d growing by
    _WALK_GROWTH from _WALK_FIRST*(1 + |m|) up to ``half``, the last d;
    none for half = 0."""
    d = 0.0
    while d < half:
        d = min(half, _WALK_GROWTH * d if d else _WALK_FIRST * (1.0 + abs(m)))
        yield m - d
        yield m + d


def pointwise_residual(problem, u: OddPeriodicFunction,
                       n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """|u''(t_j) + g(u(t_j)) - k(t_j)| on the grid t_j = j*T/P, j = 0..P-1,
    or inf at every t_j if u'' overflows.

    The defect of the differential equation itself, with u'' taken
    spectrally -- independent of the fixed-point formulation.  Returns the
    samples u(t_j) together with the residual, so a caller that needs both
    synthesizes u once.
    """
    su = grid_samples(u, n_points)
    try:
        upp = grid_samples(differentiate(u, 2), n_points)
    except ValueError:  # the series constructor refuses an overflowing u''
        return su, np.full(n_points, math.inf)
    k = grid_samples(problem.k, n_points)
    with np.errstate(over="ignore", invalid="ignore"):
        return su, np.abs(upp + problem.g.value(su) - k)


def ode_residual(problem, u: OddPeriodicFunction) -> float:
    """max of :func:`pointwise_residual` on 4N points."""
    return float(np.max(pointwise_residual(problem, u, 4 * u.modes)[1]))


def _slope_bracket(u: OddPeriodicFunction) -> tuple[float, float]:
    """A shooting bracket centred on the candidate's spectral slope u'(0),
    or NaN ends, which blow up the first shot, where u' overflows."""
    try:
        v0_guess = float(differentiate(u, 1)(0.0))
    except ValueError:  # the series constructor refuses an overflowing u'
        return math.nan, math.nan
    delta = 0.5 * (1.0 + abs(v0_guess))
    return v0_guess - delta, v0_guess + delta


def cross_validate(problem, u: OddPeriodicFunction,
                   tol: float = DEFAULT_CHECK_TOL) -> CrossValidation:
    """Check a claimed solution against an independent shooting solve.

    Shooting is seeded from the candidate's own spectral slope u'(0), so it
    converges to the same branch when the candidate is genuine.  Passes iff
    the sup-norm distance and both equation residuals are <= tol.  Raises
    ProblemError ``bad_tol`` first, and BlowUpError where u' overflows.
    """
    _check_limits(tol=tol)
    shot = shoot(problem, _slope_bracket(u))
    distance = sup_norm(u - shot.reconstructed)
    res_u = ode_residual(problem, u)
    res_o = ode_residual(problem, shot.reconstructed)
    passed = distance <= tol and res_u <= tol and res_o <= tol
    return CrossValidation(passed=passed, distance=distance,
                           residual_candidate=res_u, residual_oracle=res_o,
                           shooting=shot)


def shooting_distances(problems, candidates) -> list[float]:
    """The ``distance`` of :func:`cross_validate` for each problem and its
    candidate, bitwise, without the equation residuals; NaN where shooting
    is inconclusive or blows up, as where the candidate's u' overflows.

    The first midpoints of all rows are shot in one vectorized RK4 loop.
    A row whose midpoint meets the boundary tolerance is reconstructed from
    that shot.  A row whose midpoint misses goes to :func:`shoot` with its
    bracket, which shoots that midpoint once more and goes on from there,
    so the row takes the shots of :func:`cross_validate`.  A row whose
    first shot blows up runs on beside the others to the end of the loop,
    which masks it, and gets NaN without shooting again.  Sequences of
    different lengths raise ValueError.
    """
    if len(problems) != len(candidates):
        raise ValueError(f"{len(problems)} problems but {len(candidates)} "
                         "candidates")
    if not problems:
        return []
    brackets = [_slope_bracket(u) for u in candidates]
    u_mid, blown = _integrate_rows(problems,
                                   [0.5 * (a + b) for a, b in brackets])
    distances = []
    for problem, u, bracket, u_m, blew_up in zip(problems, candidates,
                                                 brackets, u_mid, blown):
        if blew_up:
            distances.append(math.nan)
            continue
        try:
            shot = (_reconstruct(u_m, problem.period)
                    if abs(u_m[-1]) <= _SHOOT_TOL
                    else shoot(problem, bracket).reconstructed)
        except (OracleInconclusiveError, ArithmeticError):
            distances.append(math.nan)
            continue
        distances.append(sup_norm(u - shot))
    return distances
