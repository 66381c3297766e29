"""The second-derivative operator on odd periodic functions and its inverse.

On the full space of T-periodic functions, u -> u'' is resonant: constants
are in its kernel and only mean-zero functions are in its range.  Restricted
to odd functions the kernel is trivial and the operator acts diagonally on
the sine basis, mode n picking up the factor -(2*pi*n/T)^2, so inversion is
exact per mode.  The certified sup-norm bound on the inverse is T^2/2, which
is what every downstream certificate uses; the actual per-mode gains are far
smaller, and that slack is reported, never exploited.

The paper writes the problem as Lu = Nu with Lu = u'' and Nu = k - g(u),
so the solution map is L^-1 N: :func:`fixed_point_map` is
:func:`invert_second_derivative` of :func:`nonlinear_rhs`.  One batched
kernel computes N for every row of an array; it serves ``nonlinear_rhs``
(one row), hence ``fixed_point_map``, and every tick of the solver, which
multiplies its rows by the per-mode gains of L^-1 in place.
"""

from __future__ import annotations

import numpy as np

from .funcspace import (
    OddPeriodicFunction,
    OddSymmetryError,
    _TWO_PI,
    _full_grid,
    _grid_max,
    _sine_rows,
    _symmetry_defects,
)
# bound here only for bench/tests, which rebinds operators.grid_samples
from .funcspace import grid_samples  # noqa: F401

__all__ = [
    "NonFiniteNonlinearityError",
    "inverse_norm_bound",
    "invert_second_derivative",
    "nonlinear_rhs",
    "fixed_point_map",
]


class NonFiniteNonlinearityError(ArithmeticError):
    """g(u) evaluated to inf/nan at some grid node."""


def inverse_norm_bound(period: float) -> float:
    """T^2/2, the certified sup-norm bound on the inverse of u -> u''.

    Raises
    ------
    ValueError
        If period is not positive and finite.
    """
    period = float(period)
    if not np.isfinite(period) or period <= 0.0:
        raise ValueError(f"period must be positive, got {period}")
    return period * period / 2.0


def _neg_gains(period: float, modes: int) -> np.ndarray:
    """-(T/(2*pi*n))^2 for n = 1..modes: the inverse of u -> u'' per sine mode."""
    n = np.arange(1, modes + 1)
    return -(period / (_TWO_PI * n)) ** 2


def invert_second_derivative(f: OddPeriodicFunction) -> OddPeriodicFunction:
    """The unique odd periodic u with u'' = f.

    Diagonal in the sine basis: b_n(u) = -(T/(2*pi*n))^2 * b_n(f).  No mode
    is exceptional because the basis has no constant term -- this is exactly
    the non-resonance that makes the fixed-point formulation well posed.
    """
    return OddPeriodicFunction(f.period, _neg_gains(f.period, f.modes) * f.coeffs)


def _forcing(problem, modes: int) -> np.ndarray:
    """k's sine coefficients zero-padded to max(modes, k.modes) modes."""
    forcing = np.zeros(max(int(modes), problem.k.modes))
    forcing[:problem.k.modes] = problem.k.coeffs
    return forcing


def _nonlinear_parts(g, rows: np.ndarray,
                     forcing: np.ndarray) -> tuple[np.ndarray, ...]:
    """N(u) = k - g(u) for each row u, with one transform of each kind.

    ``g`` sends an array of samples to g's values row by row, and row i of
    ``forcing`` belongs to row i of ``rows``.  Returns the coefficients of
    N(u) for each row, the mask of rows whose g(u) blew up (a blown row's
    output is meaningless) and each row's max|u| on the 4N grid, inf where
    it overflows.  A row whose g(u) is not odd raises OddSymmetryError.
    """
    N = rows.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        su = _full_grid(rows, 4 * N)  # may overflow: g(su) then blows up
        gu = g(su)
        g_max, u_max = np.max(np.abs(gu), axis=1), _grid_max(su)
        # the relative term admits plain rounding at the scale of g(u) (some
        # vectorized kernels are not bitwise sign-symmetric); a genuinely
        # non-odd g sits orders of magnitude above it
        tol = 1e-10 * (1.0 + u_max) + 1e-13 * g_max
        defect = _symmetry_defects(gu)
        analysis = _sine_rows(gu, N)
    # the 1e300 cap keeps the analysis sums representable
    blown = ~(g_max <= 1e300)
    odd = ~(defect > tol)
    if not (odd | blown).all():
        i = np.flatnonzero(~odd & ~blown)[0]
        raise OddSymmetryError(defect[i], tol[i])
    out = forcing.copy()
    out[:, :N] -= analysis
    return out, blown, u_max


def _check_period(problem, u: OddPeriodicFunction) -> None:
    if u.period != problem.period:
        raise ValueError(f"period mismatch: {problem.period!r} vs {u.period!r}")


def nonlinear_rhs(problem, u: OddPeriodicFunction) -> OddPeriodicFunction:
    """N(u) = k - g(u) as an odd periodic function of max(u.modes, k.modes)
    modes.

    g(u) is sampled on a 2x oversampled grid (4N points for N = u.modes) to
    absorb the spectral spreading of the composition, then projected back to
    N modes; k's modes above N pass through.  The samples are checked for
    odd symmetry before projection; failure means g is not actually odd and
    the problem definition is bad.

    Raises
    ------
    NonFiniteNonlinearityError
        If g produces inf/nan (or values above 1e300) at any node.
    OddSymmetryError
        If the sampled g(u(.)) values are not odd-symmetric within
        1e-10 * (1 + max|u|) + 1e-13 * max|g(u)| over the sampling grid.
    """
    _check_period(problem, u)
    out, blown, _ = _nonlinear_parts(problem.g.value, u.coeffs[np.newaxis],
                                     _forcing(problem, u.modes)[np.newaxis])
    if blown[0]:
        raise NonFiniteNonlinearityError(
            "g(u) is non-finite (or beyond overflow scale) on the sampling "
            "grid; the iterate has left the region where this nonlinearity "
            "can be evaluated")
    return OddPeriodicFunction(problem.period, out[0])


def fixed_point_map(problem, u: OddPeriodicFunction) -> OddPeriodicFunction:
    """One application of the solution map L^-1 N: invert u'' = k - g(u).

    The result has max(u.modes, k.modes) modes.  Solutions of
    u'' + g(u) = k are exactly the fixed points of this map.
    """
    return invert_second_derivative(nonlinear_rhs(problem, u))
