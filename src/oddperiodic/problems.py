"""Problem definitions: the triple (g, k, T) plus the data the theory needs.

A problem couples an odd nonlinearity g, an odd T-periodic forcing k of mean
zero, and the period T.  Next to the pointwise callables, g carries the two
pieces of metadata the solvers certify against: an optional global bound on
sup|g'|, and zero or more sublinearity majorant pairs (eps, M) with
|g(x)| <= M + eps*|x|.

Built-in families (parameter name in brackets):

    zero            g = 0
    linear [c]      g = c*x         bound |c|,  majorant (|c|, 0)
    pendulum [a]    g = a*sin(x)    bound |a|,  majorant (0, |a|)
    tanh_g [s]      g = s*tanh(x)   bound |s|,  majorant (0, |s|)
    cubic [c3]      g = c3*x^3      no bound, no majorant (negative-test family)

Construction derives the contraction certificate and the a-priori solution
bound once, and verifies all declared metadata on a symmetric probe grid;
the probe covers a compact window scaled by the a-priori bound when one is
available (the hypotheses are stated globally, the check is not -- a
documented limitation).  Custom nonlinearities may be supplied as (value,
derivative) callable pairs and are validated the same way.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .funcspace import OddPeriodicFunction
from .operators import inverse_norm_bound

__all__ = [
    "ContractionCertificate",
    "Nonlinearity",
    "Problem",
    "ProblemError",
    "FAMILIES",
    "MAX_MODES",
    "builtin",
    "make_problem",
    "parse_problem",
]


# Ceiling on a forcing mode and on a solve's modes: far above any practical
# N, low enough that no input can make an allocation kill the process.
MAX_MODES = 2**16


class ProblemError(ValueError):
    """Problem construction/validation failure with a machine-readable code."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)

    def __reduce__(self):  # args hold the message only: skip __init__
        return type(self).__new__, (type(self), *self.args), self.__dict__


def _shown(value) -> str:
    """``value`` for an error message: its repr, or its type where the repr
    fails (an int over the interpreter's digit limit, alone or nested)."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__}>"


def _check_limits(modes=None, tol=None, max_iter=None) -> None:
    """The one check of the solve limits, for CLI flags and library calls alike:
    ProblemError ``bad_modes``, ``bad_tol`` or ``bad_max_iter`` for the first given
    (not None) of modes outside 1..MAX_MODES, tol not in (0, inf), max_iter < 1."""
    if modes is not None and not 1 <= modes <= MAX_MODES:
        raise ProblemError("bad_modes", f"modes must be in 1..{MAX_MODES}, got {_shown(modes)}")
    if tol is not None and not 0 < tol < math.inf:
        raise ProblemError("bad_tol", f"tol must be positive and finite, got {tol!r}")
    if max_iter is not None and not max_iter >= 1:
        raise ProblemError("bad_max_iter",
                           f"the iteration cap must be at least 1, got {_shown(max_iter)}")


def _number(value, code: str, what: str) -> float:
    """``value`` as a finite float; ProblemError(code) naming ``what`` if not."""
    try:
        if isinstance(value, (bool, np.bool_)):  # float(True) is 1.0
            raise TypeError
        number = float(value)
    except OverflowError:  # an integer whose repr would swamp the message
        raise ProblemError(code, f"{what} is too large for a float") from None
    except (TypeError, ValueError):
        raise ProblemError(code, f"{what} must be a number, got {_shown(value)}") from None
    if not math.isfinite(number):
        raise ProblemError(code, f"{what} must be finite")
    return number


def _period(value) -> float:
    """``value`` as a period T whose T^2 and 2/T^2 are finite and positive:
    the certificate threshold 2/T^2 and the bound T^2/2 are formed from it."""
    period = _number(value, "bad_period", "period")
    square = period * period
    if not (period > 0.0 and 0.0 < square < math.inf and 2.0 / square < math.inf):
        raise ProblemError(
            "bad_period",
            f"period must be positive with finite T^2 and 2/T^2, got {period}")
    return period


@dataclass(frozen=True)
class ContractionCertificate:
    """The uniqueness certificate: lambda = sup|g'| * T^2/2.

    ``holds`` is equivalent to sup|g'| < 2/T^2.  When it holds, Picard
    iteration is guaranteed to converge to the unique odd periodic solution
    and successive step norms contract at least by ``factor``.
    """

    lipschitz_g: float
    norm_bound: float
    factor: float
    holds: bool

    def as_dict(self) -> dict:
        return {
            "lipschitz_g": self.lipschitz_g,
            "norm_bound": self.norm_bound,
            "lambda": self.factor,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class Nonlinearity:
    """An odd scalar nonlinearity with certification metadata.

    Attributes
    ----------
    name : str
        Family name (or a label for custom functions).
    value, derivative : callable
        Vectorized pointwise g and g'.
    gprime_bound : float or None
        Declared global bound on sup|g'|; None if unbounded/undeclared.
    majorants : tuple of (eps, M) pairs
        Declared sublinearity majorants: |g(x)| <= M + eps*|x|.
    params : dict
        Family parameters, for inspection; run records echo the config.
    """

    name: str
    value: Callable
    derivative: Callable
    gprime_bound: float | None = None
    majorants: tuple = ()
    params: dict = field(default_factory=dict)


# each built-in family's g and g' as functions of (*params, x), which its
# Nonlinearity binds to the parameters with functools.partial; a parameter
# may also be a column of per-row values shaped to x, for one call of g
# over many rows (see _row_values)
_VALUES = {
    "zero": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    "linear": lambda c, x: c * np.asarray(x, dtype=float),
    "pendulum": lambda a, x: a * np.sin(x),
    "tanh_g": lambda s, x: s * np.tanh(x),
    # x*x*x (not x**3): exactly sign-symmetric
    "cubic": lambda c3, x: c3 * np.asarray(x, dtype=float) * x * x,
}


def _tanh_derivative(s, x):
    # s*sech(x)^2 with sech(x)^2 = 4e/(1+e)^2 <= 1 from e = exp(-2|x|) <= 1,
    # so no step can overflow
    e = np.exp(-2.0 * np.abs(x))
    return s * (4.0 * e / (1.0 + e) ** 2)


_DERIVATIVES = {
    "zero": _VALUES["zero"],
    "linear": lambda c, x: np.full_like(np.asarray(x, dtype=float), c),
    "pendulum": lambda a, x: a * np.cos(x),
    "tanh_g": _tanh_derivative,
    "cubic": lambda c3, x: 3.0 * c3 * np.asarray(x, dtype=float) * x,
}


def _family(name: str, bound: float | None, majorant: tuple | None,
            **params: float) -> Nonlinearity:
    """The built-in family ``name`` at ``params``, declaring ``bound`` on
    sup|g'| and the one majorant pair ``majorant`` (None: none)."""
    args = tuple(params.values())
    return Nonlinearity(name, partial(_VALUES[name], *args),
                        partial(_DERIVATIVES[name], *args), gprime_bound=bound,
                        majorants=() if majorant is None else (majorant,),
                        params=params)


def _row_values(gs) -> Callable:
    """The function sending row i of an (R, P) or (R,) array through
    ``gs[i].value``.  Where each value is one built-in family's g (an
    override of the bound or majorants keeps it), that is one call of the
    family with each parameter as a column shaped to the array: a column
    times an array makes the IEEE products a scalar makes with each row.
    Any other rows take one call each."""
    values = [g.value for g in gs]
    family = getattr(values[0], "func", None)
    if family in _VALUES.values() and all(
            isinstance(v, partial) and v.func is family for v in values):
        columns = np.array([v.args for v in values], dtype=float).T
        shaped = {1: tuple(columns), 2: tuple(columns[..., np.newaxis])}
        return lambda x: family(*shaped[np.ndim(x)], x)
    return lambda x: np.array([value(row) for value, row in zip(values, x)])


# each family's factory of its parameters, and their names
FAMILIES: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "zero": (lambda: _family("zero", 0.0, (0.0, 0.0)), ()),
    "linear": (lambda c: _family("linear", abs(c), (abs(c), 0.0), c=c), ("c",)),
    "pendulum": (lambda a: _family("pendulum", abs(a), (0.0, abs(a)), a=a), ("a",)),
    "tanh_g": (lambda s: _family("tanh_g", abs(s), (0.0, abs(s)), s=s), ("s",)),
    "cubic": (lambda c3: _family("cubic", None, None, c3=c3), ("c3",)),
}


class Problem:
    """A validated instance of u'' + g(u) = k(t) on period T.

    Validation at construction checks every hypothesis the theory relies on:
    g(0) = 0 and g(-x) = -g(x) on a symmetric probe grid, the declared
    derivative bound dominates the sampled |g'|, and each declared majorant
    pair holds pointwise.  The forcing is odd, periodic and mean-zero by
    type.  Validation derives ``certificate`` and ``apriori_bound``, each
    None where g declares no bound or no usable majorant pair.  Instances
    are immutable after validation and safe to share.
    """

    def __init__(self, period: float, g: Nonlinearity, k: OddPeriodicFunction,
                 label: str = ""):
        period = _period(period)
        if not isinstance(g, Nonlinearity):
            raise ProblemError("bad_params", "g must be a Nonlinearity")
        if not isinstance(k, OddPeriodicFunction):
            raise ProblemError("bad_forcing", "k must be an OddPeriodicFunction")
        if k.period != period:
            raise ProblemError(
                "bad_forcing", f"forcing period {k.period!r} != problem period {period!r}")
        self.period = period
        self.g = g
        self.k = k
        self.label = label or g.name
        self._validate_g()

    @property
    def gprime_bound(self) -> float | None:
        return self.g.gprime_bound

    @property
    def majorants(self) -> tuple:
        return self.g.majorants

    # every non-finite probe value is refused below, by a check that says
    # so; numpy's floating-point warnings would only repeat it
    @np.errstate(all="ignore")
    def _validate_g(self) -> None:
        g = self.g
        nb = inverse_norm_bound(self.period)
        # the contraction certificate lambda = sup|g'| * T^2/2, refused
        # before it overflows downstream when it is negative or not finite
        self.certificate = None
        if g.gprime_bound is not None:
            factor = float(g.gprime_bound) * nb
            if not 0.0 <= factor < math.inf:
                raise ProblemError("bad_derivative_bound",
                                   f"sup|g'| bound {g.gprime_bound} must be >= 0 and give a "
                                   f"finite lambda = bound * T^2/2 at period {self.period}")
            self.certificate = ContractionCertificate(
                float(g.gprime_bound), nb, factor, factor < 1.0)
        # the a-priori bound on sup|u|: the least (T^2/2) * (sum|b_n| + M) /
        # (1 - eps * T^2/2) over the majorant pairs with eps < 2/T^2, as
        # sum|b_n| >= sup|k|; the probe window scales with it.  A NaN eps is
        # not skipped: its NaN bound is refused as a non-finite probe radius.
        k_norm = float(np.sum(np.abs(self.k.coeffs)))
        self.apriori_bound = min(
            (nb * (k_norm + M) / denom for eps, M in g.majorants
             if not (denom := 1.0 - eps * nb) <= 0.0), default=None)
        R = 10.0 * (1.0 + (self.apriori_bound or 0.0))
        if not math.isfinite(2.0 * R):  # the width of the probe grid
            raise ProblemError("bad_forcing", "the a-priori solution bound "
                               "(the probe radius) is not finite")
        xs = np.linspace(-R, R, 1000)
        xs = 0.5 * (xs - xs[::-1])  # exactly symmetric: xs[j] == -xs[-1 - j]
        try:
            gx = np.asarray(g.value(xs), dtype=float)
            gpx = np.asarray(g.derivative(xs), dtype=float)
            g0 = float(g.value(0.0))
        except Exception as exc:
            raise ProblemError("bad_params", f"g callables failed on probe grid: {exc}")
        if gx.shape != xs.shape or gpx.shape != xs.shape:
            raise ProblemError("bad_params", "g callables must be vectorized")
        if not (np.all(np.isfinite(gx)) and np.all(np.isfinite(gpx))):
            raise ProblemError("nonfinite", "g or g' non-finite on probe grid")
        tol = 1e-12 * (1.0 + float(np.max(np.abs(gx))))
        if abs(g0) > tol:
            raise ProblemError("g_origin", f"g(0) = {g0:.3e} != 0: g is not odd")
        defect = float(np.max(np.abs(gx + gx[::-1])))
        if defect > tol:
            raise ProblemError(
                "g_symmetry",
                f"odd-symmetry defect of g is {defect:.3e} on [-{R:.3g}, {R:.3g}]")
        if g.gprime_bound is not None:
            sampled = float(np.max(np.abs(gpx)))
            if sampled > g.gprime_bound * (1.0 + 1e-12) + 1e-300:
                raise ProblemError(
                    "gprime_bound_violated",
                    f"declared sup|g'| bound {g.gprime_bound} is exceeded by "
                    f"sampled value {sampled}")
        for eps, M in g.majorants:
            if not (math.isfinite(eps) and math.isfinite(M)) or eps < 0 or M < 0:
                raise ProblemError("bad_majorant", f"bad majorant pair ({eps}, {M})")
            if np.any(np.abs(gx) > M + eps * np.abs(xs) + tol):
                raise ProblemError(
                    "majorant_violated",
                    f"majorant pair ({eps}, {M}) fails on the probe grid")

    def __repr__(self) -> str:
        return (f"Problem(label={self.label!r}, period={self.period!r}, "
                f"g={self.g.name}, k_modes={self.k.modes})")


def _forcing_series(forcing, period: float) -> OddPeriodicFunction:
    """Realize [(mode, amplitude), ...] pairs as a sine series."""
    amplitudes = {}
    for mode, amp in forcing:
        if not (isinstance(mode, (int, np.integer)) and not isinstance(mode, bool)):
            raise ProblemError(
                "bad_mode", f"forcing mode must be an integer, got {_shown(mode)}")
        if mode < 1:
            raise ProblemError(
                "bad_mode",
                f"forcing mode {_shown(mode)} rejected: mode 0 or below would break "
                "oddness/mean-zero")
        if mode > MAX_MODES:
            raise ProblemError(
                "bad_mode", f"forcing mode {_shown(mode)} is above the ceiling {MAX_MODES}")
        if mode in amplitudes:
            raise ProblemError("bad_forcing", f"duplicate forcing mode {mode}")
        amplitudes[mode] = _number(amp, "bad_forcing", f"amplitude for mode {mode}")
    coeffs = np.zeros(max(amplitudes, default=1))
    for mode, amp in amplitudes.items():
        coeffs[mode - 1] = amp
    return OddPeriodicFunction(period, coeffs)


def make_problem(period: float, g: Nonlinearity, forcing,
                 label: str = "") -> Problem:
    """Build a validated Problem from a nonlinearity and the forcing's
    sine series as (mode, amplitude) pairs; ``Problem(period, g, k)``
    takes a ready OddPeriodicFunction k."""
    period = _period(period)
    return Problem(period, g, _forcing_series(forcing, period), label=label)


def _nonlinearity(family, params) -> Nonlinearity:
    """The built-in ``family`` with ``params``, exactly its parameter names."""
    if not isinstance(family, str) or family not in FAMILIES:
        raise ProblemError(
            "unknown_family",
            f"unknown family {_shown(family)}; choose from {sorted(FAMILIES)}")
    factory, names = FAMILIES[family]
    if params is None:
        params = {}
    if not isinstance(params, Mapping):
        raise ProblemError("bad_params", f"params must be an object, got {_shown(params)}")
    if set(params) != set(names):
        raise ProblemError(
            "bad_params",
            f"family {family!r} takes exactly params {list(names)}, "
            f"got {_shown(sorted(params, key=_shown))}")
    return factory(**{key: _number(val, "bad_params", f"param {key}")
                      for key, val in params.items()})


def builtin(family: str, params: dict | None = None, *, period: float,
            forcing, label: str = "") -> Problem:
    """Instantiate a built-in family as a validated Problem.

    Parameters
    ----------
    family : str
        One of ``zero``, ``linear``, ``pendulum``, ``tanh_g``, ``cubic``.
    params : dict
        Family parameters (see module docstring), e.g. ``{"a": 0.04}``.
    period : float
        The period T.
    forcing : sequence of (mode, amplitude) pairs
        The sine series of k.
    """
    return make_problem(period, _nonlinearity(family, params), forcing,
                        label=label)


_CONFIG_KEYS = {"family", "params", "period", "forcing",
                "derivative_bound", "majorants", "label"}


def _decode(text):
    """The JSON document ``text``; ProblemError("bad_document") if it is none."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ProblemError("bad_document", f"config is not valid JSON: {exc}") from None


def _entries(cfg: dict, key: str, fields: tuple[str, ...], code: str) -> list:
    """``cfg[key]``, an array of objects with exactly ``fields``, as tuples."""
    entries = cfg.get(key, [])
    if not isinstance(entries, list):
        raise ProblemError(code, f"{key} must be an array")
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != set(fields):
            raise ProblemError(
                code, f"each {key} entry must be {{{', '.join(fields)}}}, got {_shown(entry)}")
    return [tuple(entry[name] for name in fields) for entry in entries]


def parse_problem(config) -> Problem:
    """Parse a strict JSON problem config into a validated Problem.

    The document is a flat object with keys ``family``, ``params``,
    ``period``, ``forcing`` (array of {"mode", "amplitude"}), and optional
    ``derivative_bound`` (overrides the family default), ``majorants``
    (array of {"eps", "M"}, appended to the family defaults) and ``label``
    (a string).  Unknown keys are rejected.  Every malformed field raises
    ProblemError with a machine-readable code, as does a document that is
    not such an object.  The overrides are applied to g before the one
    Problem is built, so a config is validated once.

    Fields are checked in this order, and the first failure is raised: the
    document and its keys, ``period``, the shape of ``forcing``, ``family``
    and ``params``, the forcing modes and amplitudes, ``derivative_bound``,
    ``majorants``, ``label``, then g on the probe grid.
    """
    cfg = _decode(config) if isinstance(config, (str, bytes)) else config
    if not isinstance(cfg, dict):
        raise ProblemError("bad_document", "config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ProblemError(
            "unknown_key", f"unknown config keys: {_shown(sorted(unknown, key=_shown))}")
    for key in ("family", "period"):
        if key not in cfg:
            raise ProblemError("missing_key", f"config is missing {key!r}")
    period = _period(cfg["period"])
    forcing = _entries(cfg, "forcing", ("mode", "amplitude"), "bad_forcing")
    g = _nonlinearity(cfg["family"], cfg.get("params"))
    k = _forcing_series(forcing, period)
    if "derivative_bound" in cfg:
        g = replace(g, gprime_bound=_number(
            cfg["derivative_bound"], "bad_derivative_bound", "derivative_bound"))
    if "majorants" in cfg:
        extra = tuple((_number(eps, "bad_majorant", "majorant eps"),
                       _number(M, "bad_majorant", "majorant M"))
                      for eps, M in _entries(cfg, "majorants", ("eps", "M"),
                                             "bad_majorant"))
        g = replace(g, majorants=g.majorants + extra)
    label = cfg.get("label", "")
    if not isinstance(label, str):
        raise ProblemError("bad_document", f"label must be a string, got {_shown(label)}")
    return Problem(period, g, k, label=label)
