"""Spans around calls into each module of oddperiodic, and the per-layer
metrics derived from them.

The tracer rebinds every public function of the six modules wherever the
name is bound (``operators.grid_samples`` as well as
``funcspace.grid_samples``), so calls between modules and inside a module
are both seen.  Nothing in ``src/`` changes.  Each call becomes one span

    [name, start, end, parent index, job id, note]

kept in memory until the process ends.  ``note`` holds the count recorded at
that boundary (grid points, RK4 steps, iterations, the cross-check verdict).
Pointwise evaluation of a series, ``u(t)`` on either series class, is the
span ``funcspace.evaluate``, so that sine and cosine synthesis outside
``grid_samples`` (the forcing inside the RK4 oracle, the derivative column
of a solution CSV) is charged to ``funcspace`` and not to its caller.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import defaultdict

LAYERS = ("funcspace", "operators", "solver", "oracle", "problems", "cli")
PACKAGE = "oddperiodic"
# series classes whose __call__ is traced as funcspace.evaluate
SERIES_CLASSES = ("OddPeriodicFunction", "EvenPeriodicFunction")

SPAN_NAME, SPAN_START, SPAN_END, SPAN_PARENT, SPAN_JOB, SPAN_NOTE = range(6)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _note_points(args, kwargs, result, exc):
    return int(_arg(args, kwargs, 1, "n_points"))


def _note_evaluate(args, kwargs, result, exc):
    # args[0] is the series, args[1] a float or an array of points
    return int(getattr(args[1], "size", 1))


def _note_samples(args, kwargs, result, exc):
    return len(_arg(args, kwargs, 0, "samples"))


def _note_g_points(args, kwargs, result, exc):
    # nonlinear_rhs samples g(u) on a 4N-point grid
    return 4 * _arg(args, kwargs, 1, "u").modes


def _note_solve(args, kwargs, result, exc):
    if result is None:
        return None
    return [result.iterations, len(result.lambda_path), bool(result.converged)]


def _note_rk4(args, kwargs, result, exc):
    if result is not None:
        return result.t.size - 1
    steps = _arg(args, kwargs, 4, "steps")
    t_escape = getattr(exc, "t_escape", None)
    if steps is None or t_escape is None:
        return None
    return round(t_escape * int(steps) / _arg(args, kwargs, 3, "t_end"))


def _note_cross_validate(args, kwargs, result, exc):
    if exc is not None:
        return {"OracleInconclusiveError": "inconclusive",
                "BlowUpError": "blowup"}.get(type(exc).__name__, "error")
    if result.passed:
        return "passed"
    tol = _arg(args, kwargs, 2, "tol", 1e-6)
    if (result.distance > tol and result.residual_candidate <= tol
            and result.residual_oracle <= tol):
        return "branch_mismatch"
    return "failed"


NOTES = {
    "funcspace.grid_samples": _note_points,
    "funcspace.from_samples": _note_samples,
    "funcspace.evaluate": _note_evaluate,
    "operators.nonlinear_rhs": _note_g_points,
    "solver.solve_picard": _note_solve,
    "solver.solve_continuation": _note_solve,
    "oracle.integrate_ivp": _note_rk4,
    "oracle.cross_validate": _note_cross_validate,
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, None]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[SPAN_START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span[SPAN_END] = clock()
                stack.pop()
                if note is not None:
                    span[SPAN_NOTE] = note(args, kwargs, result, exc)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module, cli.main and the
        series classes' __call__."""
        modules = [importlib.import_module(PACKAGE)]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            modules.append(module)
            public = getattr(module, "__all__", None) or ["main"]
            for attr in public:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        funcspace = importlib.import_module(f"{PACKAGE}.funcspace")
        for name in SERIES_CLASSES:
            cls = getattr(funcspace, name)
            original = vars(cls)["__call__"]
            self._saved.append((cls, "__call__", original))
            cls.__call__ = self._wrap("funcspace.evaluate", original)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its child spans cover.

    Spans of one process nest strictly (one thread), so children never
    overlap and the covered time is the sum of their durations.
    """
    own = [s[SPAN_END] - s[SPAN_START] for s in spans]
    for s in spans:
        parent = s[SPAN_PARENT]
        if parent >= 0:
            own[parent] -= s[SPAN_END] - s[SPAN_START]
    return own


def merge(processes: list[list[list]]) -> list[list]:
    """Concatenate the spans of several processes, re-basing parent links."""
    merged: list[list] = []
    for spans in processes:
        base = len(merged)
        for s in spans:
            s = list(s)
            if s[SPAN_PARENT] >= 0:
                s[SPAN_PARENT] += base
            merged.append(s)
    return merged


# name -> (unit); the per-layer metrics every traced run reports
PER_LAYER = {}
for _fn in ("funcspace.grid_samples", "funcspace.from_samples",
            "funcspace.sup_norm", "funcspace.evaluate",
            "operators.fixed_point_map",
            "solver.solve_picard", "solver.solve_continuation",
            "solver.certify", "oracle.integrate_ivp", "oracle.shoot",
            "oracle.cross_validate", "oracle.ode_residual"):
    PER_LAYER[f"{_fn}.calls"] = "count"
    PER_LAYER[f"{_fn}.self_s"] = "s"
for _fn in ("problems.parse_problem", "problems.builtin"):
    PER_LAYER[f"{_fn}.calls"] = "count"
    PER_LAYER[f"{_fn}.total_s"] = "s"
PER_LAYER.update({
    "funcspace.points": "count",
    "operators.nonlinear_rhs.self_s": "s",
    "operators.invert_second_derivative.self_s": "s",
    "operators.g_points": "count",
    "solver.iterations": "count",
    "solver.lambda_stages": "count",
    "solver.converged_share": "share",
    "oracle.rk4_steps": "count",
    "oracle.inconclusive_share": "share",
    "oracle.blowup_share": "share",
    "oracle.branch_mismatch_share": "share",
    "cli.main.self_s": "s",
    "cli.import_s": "s",
    "cli.csv_rows": "count",
})
for _layer in LAYERS[:-1]:
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update({"trace.spans": "count", "trace.overhead_share": "share"})


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Totals of the per-layer metrics over a list of spans.

    ``cli.import_s``, ``cli.csv_rows`` and ``trace.overhead_share`` are not
    visible in spans; the caller adds them.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    verdicts: dict[str, int] = defaultdict(int)
    solves = converged = 0
    for s, t_self in zip(spans, own):
        name, note = s[SPAN_NAME], s[SPAN_NOTE]
        calls[name] += 1
        self_s[name] += t_self
        self_s[name.split(".")[0]] += t_self
        total_s[name] += s[SPAN_END] - s[SPAN_START]
        if note is None:
            continue
        if name in ("funcspace.grid_samples", "funcspace.from_samples"):
            counts["funcspace.points"] += note
        elif name == "funcspace.evaluate":
            # grid_samples falls back to evaluation and has counted its grid
            parent = s[SPAN_PARENT]
            if parent < 0 or spans[parent][SPAN_NAME] != "funcspace.grid_samples":
                counts["funcspace.points"] += note
        elif name == "operators.nonlinear_rhs":
            counts["operators.g_points"] += note
        elif name == "oracle.integrate_ivp":
            counts["oracle.rk4_steps"] += note
        elif name == "oracle.cross_validate":
            verdicts[note] += 1
        else:  # solve_picard / solve_continuation
            counts["solver.iterations"] += note[0]
            counts["solver.lambda_stages"] += note[1]
            solves += 1
            converged += note[2]

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        head, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[head]
        elif kind == "total_s":
            out[metric] = total_s[head]
        elif kind == "self_s":
            out[metric] = self_s[head]
    out.update(counts)
    checks = calls["oracle.cross_validate"]
    for verdict in ("inconclusive", "blowup", "branch_mismatch"):
        out[f"oracle.{verdict}_share"] = verdicts[verdict] / checks if checks else 0.0
    out["solver.converged_share"] = converged / solves if solves else 0.0
    out["trace.spans"] = len(spans)
    for metric in PER_LAYER:
        out.setdefault(metric, 0)
    return out
