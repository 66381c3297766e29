"""Odd and even T-periodic functions as truncated trigonometric series.

The working space is the set of continuous, odd, T-periodic functions,
represented here as finite sine series

    u(t) = sum_{n=1}^{N} b_n sin(2*pi*n*t / T).

Oddness, T-periodicity and zero mean are structural: no sine polynomial can
violate them, so membership never has to be checked after construction.
Truncation order N is the single approximation knob.

Grids are uniform over one full period, t_j = j*T/P for j = 0..P-1.  A grid
of P points resolves sine modes 1..P/2-1 exactly; mode P/2 vanishes
identically on that grid (it aliases to zero), so recovering all N modes of a
function requires sampling on at least 2*(N+1) points.

Grid synthesis and analysis are discrete sine/cosine transforms computed
through numpy's real FFT of the odd (or even) extension: O(P log P) time and
O(P) memory per transform on P points, which is O(N log N) and O(N) for the
grids of a few points per mode used throughout.  Synthesis writes the second
half of the grid as the mirror of the first, which makes grid samples of any
odd series odd-symmetric to the last bit (and of any even series,
even-symmetric).  Point evaluation reduces the argument to [-T/2, T/2] and
pulls the sign out front, so ``u(-t) == -u(t)`` holds exactly in floating
point.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "OddPeriodicFunction",
    "EvenPeriodicFunction",
    "OddSymmetryError",
    "from_samples",
    "grid_samples",
    "sup_norm",
    "mean",
    "odd_symmetry_defect",
    "differentiate",
]

_TWO_PI = 2.0 * np.pi


class OddSymmetryError(ValueError):
    """Samples are not odd-periodic within tolerance; the data is outside
    the working space."""

    def __init__(self, defect: float, tol: float):
        self.defect = float(defect)
        self.tol = float(tol)
        super().__init__(
            f"odd-symmetry defect {defect:.3e} exceeds tolerance {tol:.3e}; "
            "samples do not come from an odd periodic function"
        )


class _PeriodicSeries:
    """Shared plumbing for sine (odd) and cosine (even) series."""

    parity = ""

    def __init__(self, period: float, coeffs) -> None:
        period = float(period)
        if not np.isfinite(period) or period <= 0.0:
            raise ValueError(f"period must be positive and finite, got {period}")
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("coeffs must be a 1-d sequence with at least one mode")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")
        coeffs.flags.writeable = False
        self._period = period
        self._coeffs = coeffs

    @property
    def period(self) -> float:
        return self._period

    @property
    def coeffs(self) -> np.ndarray:
        """Mode coefficients for n = 1..N (read-only)."""
        return self._coeffs

    @property
    def modes(self) -> int:
        """Truncation order N."""
        return self._coeffs.size

    def _reduce(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map t to s in [-T/2, T/2] by periodicity; return (|s|, sign(s)).

        Round-half-even is symmetric under negation, so s(-t) == -s(t)
        bitwise and parity of the evaluation is exact.
        """
        T = self._period
        s = t - T * np.round(t / T)
        return np.abs(s), np.sign(s)

    def _synth_at(self, x: np.ndarray, kernel) -> np.ndarray:
        """Evaluate sum_n c_n * kernel(2*pi*n*x/T) in memory-bounded chunks."""
        freqs = _TWO_PI * np.arange(1, self.modes + 1) / self._period
        flat = x.ravel()
        out = np.empty(flat.size)
        block = max(1, 2_000_000 // self.modes)
        for lo in range(0, flat.size, block):
            hi = min(lo + block, flat.size)
            out[lo:hi] = kernel(np.outer(flat[lo:hi], freqs)) @ self._coeffs
        return out.reshape(x.shape)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(period={self._period!r}, modes={self.modes}, "
            f"coeffs={np.array2string(self._coeffs, threshold=6)})"
        )


class OddPeriodicFunction(_PeriodicSeries):
    """A truncated sine series u(t) = sum b_n sin(2*pi*n*t/T).

    Instances are immutable and safe to share between threads.  Every
    instance is odd, T-periodic and has zero mean by construction, and
    satisfies u(0) = u(T/2) = 0.

    Parameters
    ----------
    period : float
        The period T > 0.
    coeffs : array_like
        Sine coefficients b_1..b_N.
    """

    parity = "odd"

    def __call__(self, t):
        """Evaluate at scalar or array ``t`` (reduced mod T).

        The reduction makes ``u(-t) == -u(t)`` exact, not just up to
        rounding.
        """
        arr = np.asarray(t, dtype=float)
        x, sign = self._reduce(arr)
        val = sign * self._synth_at(x, np.sin)
        return float(val) if arr.ndim == 0 else val

    @classmethod
    def zero(cls, period: float, modes: int = 1) -> "OddPeriodicFunction":
        """The zero element with the requested truncation order."""
        return cls(period, np.zeros(max(int(modes), 1)))

    def with_modes(self, modes: int) -> "OddPeriodicFunction":
        """Copy padded with zero modes or truncated to ``modes``."""
        modes = int(modes)
        if modes < 1:
            raise ValueError("modes must be >= 1")
        out = np.zeros(modes)
        keep = min(modes, self.modes)
        out[:keep] = self._coeffs[:keep]
        return OddPeriodicFunction(self._period, out)

    def _combine(self, other, sign: float) -> "OddPeriodicFunction":
        if not isinstance(other, OddPeriodicFunction):
            return NotImplemented
        if other._period != self._period:
            raise ValueError(
                f"period mismatch: {self._period!r} vs {other._period!r}"
            )
        n = max(self.modes, other.modes)
        out = np.zeros(n)
        out[: self.modes] = self._coeffs
        out[: other.modes] += sign * other._coeffs
        return OddPeriodicFunction(self._period, out)

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __neg__(self):
        return OddPeriodicFunction(self._period, -self._coeffs)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return OddPeriodicFunction(self._period, float(scalar) * self._coeffs)

    __rmul__ = __mul__


class EvenPeriodicFunction(_PeriodicSeries):
    """A truncated cosine series sum a_n cos(2*pi*n*t/T), mean zero.

    Returned by :func:`differentiate` with order 1: the derivative of an odd
    function is even, and the parity tag records that.  Evaluation is
    structurally even: ``f(-t) == f(t)`` exactly.
    """

    parity = "even"

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        x, _ = self._reduce(arr)
        val = self._synth_at(x, np.cos)
        return float(val) if arr.ndim == 0 else val


def _half_grid(coeffs, n_points: int, odd: bool = True) -> np.ndarray:
    """Series values on the half grid t_j = j*T/P, j = 0..P/2, for every row.

    ``coeffs`` holds the coefficients of modes 1..N along its last axis;
    leading axes are rows transformed by one real FFT call.  With c_m the
    coefficient of mode m, the transform of c is sum_m c_m exp(-2*pi*i*m*j/P),
    whose real part is the cosine series and whose imaginary part is minus
    the sine series.  Any N works, since on this grid mode n coincides with
    mode n mod P: the coefficients are folded onto P slots first.
    """
    *rows, N = np.shape(coeffs)
    c = np.zeros((*rows, n_points * (N // n_points + 1)))
    c[..., 1:N + 1] = coeffs
    if N >= n_points:
        c = c.reshape(*rows, -1, n_points).sum(axis=-2)
    if odd:
        # bins 0 and P/2 of a real FFT are real: u(0) = u(T/2) = 0.0 exactly
        return np.fft.rfft(np.negative(c, out=c)).imag
    return np.fft.rfft(c).real


def _full_grid(coeffs, n_points: int, odd: bool = True) -> np.ndarray:
    """:func:`_half_grid` completed to the full grid by mirroring each row."""
    head = _half_grid(coeffs, n_points, odd)
    tail = head[..., n_points // 2 - 1:0:-1]
    return np.concatenate((head, -tail if odd else tail), axis=-1)


def grid_samples(f, n_points: int) -> np.ndarray:
    """Samples of ``f`` at the uniform grid t_j = j*T/P, j = 0..P-1.

    One real FFT of length P evaluates the series on the half grid
    j = 0..P/2 (any N works, see :func:`_half_grid`).  The second half of
    the grid mirrors the first: samples of an odd series are exactly
    odd-symmetric with u(0) = u(T/2) = 0, those of an even series exactly
    even-symmetric.
    """
    P = int(n_points)
    if P < 2 or P % 2:
        raise ValueError("n_points must be even and >= 2")
    return _full_grid(f.coeffs, P, isinstance(f, OddPeriodicFunction))


# samples near overflow give an infinite defect or coefficient, refused below
# or by OddPeriodicFunction; numpy's floating-point warnings would repeat it
@np.errstate(over="ignore", invalid="ignore")
def from_samples(samples, period: float) -> OddPeriodicFunction:
    """Sine-analyze uniform full-period samples of an odd periodic function.

    Parameters
    ----------
    samples : array_like
        Values at t_j = j*T/P, j = 0..P-1, with P even and >= 4.
    period : float
        The period T.

    Returns
    -------
    OddPeriodicFunction
        The interpolating sine polynomial of order P/2: round trips
        reproduce the input samples of any sine polynomial of order <= P/2
        to machine precision.  Mode P/2 is invisible on this grid and
        always comes back 0.

    Raises
    ------
    OddSymmetryError
        If the odd-symmetry defect exceeds 1e-8 * max|sample| (the data is
        not in the working space).
    ValueError
        For non-finite samples or coefficients, or odd or too-short sample
        counts.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or s.size < 4 or s.size % 2:
        raise ValueError("need a 1-d array with an even number (>= 4) of samples")
    if not np.all(np.isfinite(s)):
        raise ValueError("samples must be finite")
    defect = odd_symmetry_defect(s)
    tol = 1e-8 * float(np.max(np.abs(s)))
    if defect > tol:
        raise OddSymmetryError(defect, tol)
    return OddPeriodicFunction(period, _sine_rows(s, s.size // 2))


def _sine_rows(samples: np.ndarray, modes: int) -> np.ndarray:
    """Sine coefficients 1..modes of each row of full-grid samples, from
    one real FFT call and without checks."""
    # the rfft of real data has a real bin P/2: mode P/2 comes back exactly 0
    return -2.0 * np.fft.rfft(samples, norm="forward").imag[..., 1:modes + 1]


def odd_symmetry_defect(samples) -> float:
    """max_j |u(t_j) + u(T - t_j)| over a uniform full-period grid.

    Zero (up to rounding) exactly for samples of odd periodic functions.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or s.size < 2 or s.size % 2:
        raise ValueError("need a 1-d array with an even number of samples")
    return float(_symmetry_defects(s))


def _symmetry_defects(rows: np.ndarray) -> np.ndarray:
    """:func:`odd_symmetry_defect` of each row, without checks."""
    # t_0 pairs with itself, t_j with t_{P-j} = T - t_j for j >= 1
    return np.maximum(abs(2.0 * rows[..., 0]),
                      np.max(np.abs(rows[..., 1:] + rows[..., :0:-1]), axis=-1))


def mean(f) -> float:
    """Mean (1/T) * integral of f over one period, by trapezoidal quadrature.

    Accepts an odd/even series or raw uniform-grid samples over one full
    period.  On a periodic uniform grid the trapezoidal rule reduces to the
    plain sample average.  For any odd series the result is zero up to
    rounding.
    """
    if isinstance(f, _PeriodicSeries):
        samples = grid_samples(f, max(4 * f.modes, 8))
    else:
        samples = np.asarray(f, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("need a 1-d array of samples over one period")
    return float(np.mean(samples))


@np.errstate(over="ignore", invalid="ignore")
def sup_norm(f) -> float:
    """Grid maximum of |f| over 8 * modes equispaced points, inf on overflow.

    A lower bound on the true sup norm (the exact maximum of a
    trigonometric polynomial would need root finding).
    """
    # the mirrored half of the grid holds the same values up to sign
    odd = isinstance(f, OddPeriodicFunction)
    return float(_grid_max(_half_grid(f.coeffs, 8 * f.modes, odd)))


def _grid_max(values: np.ndarray) -> np.ndarray:
    """max|values| along the last axis; inf where it is NaN (an overflow)."""
    norms = np.max(np.abs(values), axis=-1)
    return np.where(np.isnan(norms), np.inf, norms)


# a derivative that overflows is refused by the series constructor
@np.errstate(over="ignore", invalid="ignore")
def differentiate(f: OddPeriodicFunction, order: int):
    """Spectral derivative of an odd series, with explicit parity tags.

    Order 1 returns an :class:`EvenPeriodicFunction` (cosine series with
    coefficients b_n * (2*pi*n/T)); order 2 returns an
    :class:`OddPeriodicFunction` with coefficients -(2*pi*n/T)^2 * b_n.
    """
    if not isinstance(f, OddPeriodicFunction):
        raise TypeError("differentiate expects an OddPeriodicFunction")
    w = _TWO_PI * np.arange(1, f.modes + 1) / f.period
    if order == 1:
        return EvenPeriodicFunction(f.period, w * f.coeffs)
    if order == 2:
        # -(w*w)*b, and -w*(w*b) where that is not finite: w*w overflows for
        # n of about 2100 at T = 1e-150, where inf*0 = nan would stand for 0
        d2 = -(w * w) * f.coeffs
        d2 = np.where(np.isfinite(d2), d2, -w * (w * f.coeffs))
        return OddPeriodicFunction(f.period, d2)
    raise ValueError("order must be 1 or 2")
