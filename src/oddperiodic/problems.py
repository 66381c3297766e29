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

All declared metadata is verified on a symmetric probe grid at construction;
the probe covers a compact window scaled by the a-priori solution bound when
one is available (the hypotheses are stated globally, the check is not -- a
documented limitation).  Custom nonlinearities may be supplied as (value,
derivative) callable pairs and are validated the same way.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .funcspace import OddPeriodicFunction

__all__ = [
    "Nonlinearity",
    "Problem",
    "ProblemError",
    "FAMILIES",
    "MAX_MODES",
    "builtin",
    "make_problem",
    "parse_problem",
]


# Ceiling on a forcing mode and on the CLI's --modes: far above any practical
# N, low enough that no input can make an allocation kill the process.
MAX_MODES = 2**16


class ProblemError(ValueError):
    """Problem construction/validation failure with a machine-readable code."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


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
        Family parameters, echoed into run records.
    """

    name: str
    value: Callable
    derivative: Callable
    gprime_bound: float | None = None
    majorants: tuple = ()
    params: dict = field(default_factory=dict)


def _zero_family() -> Nonlinearity:
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return Nonlinearity("zero", z, z, gprime_bound=0.0, majorants=((0.0, 0.0),))


def _linear_family(c: float) -> Nonlinearity:
    c = float(c)
    return Nonlinearity(
        "linear",
        lambda x: c * np.asarray(x, dtype=float),
        lambda x: np.full_like(np.asarray(x, dtype=float), c),
        gprime_bound=abs(c),
        majorants=((abs(c), 0.0),),
        params={"c": c},
    )


def _pendulum_family(a: float) -> Nonlinearity:
    a = float(a)
    return Nonlinearity(
        "pendulum",
        lambda x: a * np.sin(x),
        lambda x: a * np.cos(x),
        gprime_bound=abs(a),
        majorants=((0.0, abs(a)),),
        params={"a": a},
    )


def _tanh_family(s: float) -> Nonlinearity:
    s = float(s)
    return Nonlinearity(
        "tanh_g",
        lambda x: s * np.tanh(x),
        lambda x: s / np.cosh(x) ** 2,
        gprime_bound=abs(s),
        majorants=((0.0, abs(s)),),
        params={"s": s},
    )


def _cubic_family(c3: float) -> Nonlinearity:
    c3 = float(c3)

    def value(x):
        x = np.asarray(x, dtype=float)
        return c3 * x * x * x  # x*x*x (not x**3): exactly sign-symmetric

    def derivative(x):
        x = np.asarray(x, dtype=float)
        return 3.0 * c3 * x * x

    return Nonlinearity("cubic", value, derivative, params={"c3": c3})


def _row_values(gs) -> Callable:
    """The function sending row i of an array through ``gs[i].value``: one
    call for all rows when they share one g, else one call per row."""
    if all(g is gs[0] for g in gs):
        return gs[0].value
    return lambda x: np.array([g.value(row) for g, row in zip(gs, x)])


FAMILIES: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "zero": (_zero_family, ()),
    "linear": (_linear_family, ("c",)),
    "pendulum": (_pendulum_family, ("a",)),
    "tanh_g": (_tanh_family, ("s",)),
    "cubic": (_cubic_family, ("c3",)),
}


class Problem:
    """A validated instance of u'' + g(u) = k(t) on period T.

    Validation at construction checks every hypothesis the theory relies on:
    g(0) = 0 and g(-x) = -g(x) on a symmetric probe grid, the declared
    derivative bound dominates the sampled |g'|, and each declared majorant
    pair holds pointwise.  The forcing is odd, periodic and mean-zero by
    type.  Instances are immutable after validation and safe to share.
    """

    def __init__(self, period: float, g: Nonlinearity, k: OddPeriodicFunction,
                 label: str = ""):
        period = float(period)
        square = period * period
        # the certificate threshold 2/T^2 and the bound T^2/2 must be finite
        if not (period > 0.0 and 0.0 < square < math.inf and 2.0 / square < math.inf):
            raise ProblemError(
                "bad_period",
                f"period must be positive with finite T^2 and 2/T^2, got {period}")
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

    def _probe_radius(self) -> float:
        # Scale the probe window with the a-priori solution bound when the
        # declared majorants make one available.
        from .solver import MajorantError, apriori_bound

        try:
            scale = apriori_bound(self)
        except (MajorantError, ProblemError):
            scale = 0.0
        return 10.0 * (1.0 + scale)

    def _validate_g(self) -> None:
        g = self.g
        # refused before they overflow downstream: the certificate factor
        # lambda = sup|g'| * T^2/2, formed as certify forms it, and the probe radius
        if g.gprime_bound is not None and not math.isfinite(
                float(g.gprime_bound) * (self.period * self.period / 2.0)):
            raise ProblemError("bad_derivative_bound",
                               f"sup|g'| bound {g.gprime_bound} gives a non-finite "
                               f"lambda = bound * T^2/2 at period {self.period}")
        R = self._probe_radius()
        if not math.isfinite(R):
            raise ProblemError("bad_forcing", "the a-priori solution bound "
                               "(the probe radius) is not finite")
        xs = np.linspace(-R, R, 1000)
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
    pairs = list(forcing)
    seen = set()
    max_mode = 1
    for mode, amp in pairs:
        if not (isinstance(mode, (int, np.integer)) and not isinstance(mode, bool)):
            raise ProblemError("bad_mode", f"forcing mode must be an integer, got {mode!r}")
        if mode < 1:
            raise ProblemError(
                "bad_mode",
                f"forcing mode {mode} rejected: mode 0 or below would break "
                "oddness/mean-zero")
        if mode > MAX_MODES:
            raise ProblemError(
                "bad_mode", f"forcing mode {mode} is above the ceiling {MAX_MODES}")
        if mode in seen:
            raise ProblemError("bad_forcing", f"duplicate forcing mode {mode}")
        seen.add(mode)
        try:
            amp = float(amp)
        except (TypeError, ValueError, OverflowError):
            raise ProblemError(
                "bad_forcing", f"amplitude for mode {mode} must be a number, got {amp!r}")
        if not math.isfinite(amp):
            raise ProblemError("bad_forcing", f"non-finite amplitude for mode {mode}")
        max_mode = max(max_mode, int(mode))
    coeffs = np.zeros(max_mode)
    for mode, amp in pairs:
        coeffs[int(mode) - 1] = float(amp)
    return OddPeriodicFunction(period, coeffs)


def make_problem(period: float, g: Nonlinearity, forcing,
                 label: str = "") -> Problem:
    """Build a validated Problem from a nonlinearity and a forcing.

    ``forcing`` is either a sequence of (mode, amplitude) pairs or an
    already-constructed OddPeriodicFunction with the right period.
    """
    period = float(period)
    if not math.isfinite(period) or period <= 0.0:
        raise ProblemError("bad_period", f"period must be positive, got {period}")
    if isinstance(forcing, OddPeriodicFunction):
        k = forcing
    else:
        k = _forcing_series(forcing, period)
    return Problem(period, g, k, label=label)


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
    if family not in FAMILIES:
        raise ProblemError(
            "unknown_family",
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    factory, names = FAMILIES[family]
    if params is None:
        params = {}
    if not isinstance(params, Mapping):
        raise ProblemError("bad_params", f"params must be an object, got {params!r}")
    if set(params) != set(names):
        raise ProblemError(
            "bad_params",
            f"family {family!r} takes exactly params {list(names)}, got {sorted(params)}")
    values = {}
    for key, val in params.items():
        try:
            values[key] = float(val)
        except (TypeError, ValueError, OverflowError):
            raise ProblemError("bad_params", f"param {key} must be a number, got {val!r}")
        if not math.isfinite(values[key]):
            raise ProblemError("bad_params", f"param {key} must be finite")
    g = factory(**values)
    return make_problem(period, g, forcing, label=label or family)


_CONFIG_KEYS = {"family", "params", "period", "forcing",
                "derivative_bound", "majorants", "label"}


def parse_problem(config) -> Problem:
    """Parse a strict JSON problem config into a validated Problem.

    The document is a flat object with keys ``family``, ``params``,
    ``period``, ``forcing`` (array of {"mode", "amplitude"}), and optional
    ``derivative_bound`` (overrides the family default), ``majorants``
    (array of {"eps", "M"}, appended to the family defaults) and ``label``.
    Unknown keys are rejected.
    """
    if isinstance(config, (str, bytes)):
        try:
            cfg = json.loads(config)
        except json.JSONDecodeError as exc:
            raise ProblemError("bad_document", f"config is not valid JSON: {exc}")
    else:
        cfg = config
    if not isinstance(cfg, dict):
        raise ProblemError("bad_document", "config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ProblemError("unknown_key", f"unknown config keys: {sorted(unknown)}")
    for key in ("family", "period"):
        if key not in cfg:
            raise ProblemError("missing_key", f"config is missing {key!r}")
    family = cfg["family"]
    if family not in FAMILIES:
        raise ProblemError(
            "unknown_family",
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    try:
        period = float(cfg["period"])
    except (TypeError, ValueError):
        raise ProblemError("bad_period", f"period must be a number, got {cfg['period']!r}")

    forcing_cfg = cfg.get("forcing", [])
    if not isinstance(forcing_cfg, list):
        raise ProblemError("bad_forcing", "forcing must be an array")
    pairs = []
    for entry in forcing_cfg:
        if not isinstance(entry, dict) or set(entry) != {"mode", "amplitude"}:
            raise ProblemError(
                "bad_forcing",
                f"each forcing entry must be {{mode, amplitude}}, got {entry!r}")
        mode = entry["mode"]
        if not isinstance(mode, int) or isinstance(mode, bool):
            raise ProblemError("bad_mode", f"forcing mode must be an integer, got {mode!r}")
        pairs.append((mode, entry["amplitude"]))

    problem = builtin(family, cfg.get("params"), period=period, forcing=pairs,
                      label=cfg.get("label", ""))

    g = problem.g
    override = False
    bound = g.gprime_bound
    majorants = g.majorants
    if "derivative_bound" in cfg:
        try:
            bound = float(cfg["derivative_bound"])
        except (TypeError, ValueError):
            raise ProblemError("bad_derivative_bound", "derivative_bound must be a number")
        if not math.isfinite(bound) or bound < 0:
            raise ProblemError("bad_derivative_bound",
                               f"derivative_bound must be >= 0, got {bound}")
        override = True
    if "majorants" in cfg:
        if not isinstance(cfg["majorants"], list):
            raise ProblemError("bad_majorant", "majorants must be an array")
        extra = []
        for entry in cfg["majorants"]:
            if not isinstance(entry, dict) or set(entry) != {"eps", "M"}:
                raise ProblemError(
                    "bad_majorant",
                    f"each majorant must be {{eps, M}}, got {entry!r}")
            try:
                extra.append((float(entry["eps"]), float(entry["M"])))
            except (TypeError, ValueError):
                raise ProblemError("bad_majorant", f"non-numeric majorant {entry!r}")
        majorants = majorants + tuple(extra)
        override = True
    if override:
        g2 = Nonlinearity(g.name, g.value, g.derivative, gprime_bound=bound,
                          majorants=majorants, params=g.params)
        # declared overrides are re-validated from scratch
        problem = Problem(period, g2, problem.k, label=problem.label)
    return problem
