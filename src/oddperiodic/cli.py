"""Command-line front end: solve | certify | verify | sweep | compare.

Machine-readable throughout: every command prints one JSON run record to
stdout (sorted keys, so records are byte-stable up to the wall-time field),
dense function data goes to CSV with header ``t,u,u_prime,residual_pointwise``
and shortest-round-trip decimal floats.

Exit codes: 0 success, 2 input/validation error, 3 certificate does not
hold, 4 non-convergence (best iterate still written), 5 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .funcspace import (
    OddSymmetryError,
    differentiate,
    from_samples,
    grid_samples,
    sup_norm,
)
from .oracle import (
    BlowUpError,
    OracleInconclusiveError,
    cross_validate,
    ode_residual,
    pointwise_residual,
    shooting_distances,
)
from .problems import MAX_MODES, ProblemError, _decode, make_problem, parse_problem
from .solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_MODES,
    DEFAULT_TOL,
    CertificateError,
    MajorantError,
    certify,
    solve,
    solve_many,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CERT = 3
EXIT_NO_CONV = 4
EXIT_VERIFY = 5

CSV_HEADER = ["t", "u", "u_prime", "residual_pointwise"]
MAX_SWEEP_STEPS = 10_000


def _fmt(x) -> str:
    """Shortest decimal that round-trips the double."""
    return repr(float(x))


def _finite_or_null(value):
    """``value`` with every non-finite float inside it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _dumps(record: dict) -> str:
    """Strict JSON: a non-finite float is written as null, not as the
    non-standard tokens Infinity and NaN."""
    return json.dumps(_finite_or_null(record), indent=2, sort_keys=True)


def _emit(record: dict) -> None:
    print(_dumps(record))


def _fail(code: int, error_code: str, message: str) -> int:
    _emit({"error": {"code": error_code, "message": message}})
    return code


def _load(config_path: str):
    cfg = _decode(Path(config_path).read_bytes())
    return cfg, parse_problem(cfg)


def _record(command: str, cfg: dict, problem, options: dict, outcome: dict,
            t0: float) -> dict:
    return {
        "command": command,
        "label": problem.label,
        "config": cfg,
        "options": options,
        "outcome": outcome,
        "wall_time_s": time.perf_counter() - t0,
    }


def _report_outcome(report) -> dict:
    out = {
        "converged": report.converged,
        "regime": report.regime,
        "iterations": report.iterations,
        "residual": report.residual,
        "failure": report.failure,
        "solution_norm": sup_norm(report.solution),
        "solution_modes": report.solution.modes,
        "final_step_norm": report.step_norms[-1] if report.step_norms else None,
        "max_iterate_norm": report.max_iterate_norm,
        "lambda_path": list(report.lambda_path),
        "apriori_bound": report.apriori_bound,
        "certificate": report.certificate.as_dict() if report.certificate else None,
    }
    if not report.converged:
        # divergence diagnostics: the tail of the step history
        out["step_norm_tail"] = [float(s) for s in report.step_norms[-8:]]
    return out


def _write_solution_csv(path: Path, problem, u) -> None:
    P = 4 * u.modes
    t = np.arange(P) * (problem.period / P)
    uvals, res = pointwise_residual(problem, u, P)
    upvals = grid_samples(differentiate(u, 1), P)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in zip(t, uvals, upvals, res):
            writer.writerow([_fmt(x) for x in row])


def _sidecar_path(out: Path) -> Path:
    # appended, not substituted: <out>.json can never clobber another input
    return Path(str(out) + ".json")


def cmd_certify(args) -> int:
    t0 = time.perf_counter()
    cfg, problem = _load(args.config)
    try:
        cert = certify(problem)
    except CertificateError as exc:
        return _fail(EXIT_INPUT, "no_derivative_bound", str(exc))
    outcome = cert.as_dict()
    outcome["threshold"] = 2.0 / problem.period ** 2
    _emit(_record("certify", cfg, problem, {}, outcome, t0))
    return EXIT_OK if cert.holds else EXIT_NO_CERT


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    cfg, problem = _load(args.config)
    try:
        report = solve(problem, method=args.method, tol=args.tol,
                       max_iter=args.max_iter, modes=args.modes)
    except MajorantError as exc:
        return _fail(EXIT_INPUT, "no_majorant", str(exc))
    out = Path(args.out)
    _write_solution_csv(out, problem, report.solution)
    options = {"method": args.method, "tol": args.tol,
               "max_iter": args.max_iter, "modes": args.modes,
               "out": str(out)}
    record = _record("solve", cfg, problem, options, _report_outcome(report), t0)
    _sidecar_path(out).write_text(_dumps(record) + "\n")
    _emit(record)
    return EXIT_OK if report.converged else EXIT_NO_CONV


def _read_solution_csv(path: Path, problem):
    """The finite u column of a solution CSV on this problem's grid."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ProblemError("bad_document",
                               f"unexpected CSV header {header!r}")
        rows = [[float(x) for x in row] for row in reader]
    if len(rows) < 4 or len(rows) % 2 or any(len(row) != 4 for row in rows):
        raise ProblemError("bad_document",
                           "need an even number (>= 4) of rows of 4 numbers")
    data = np.asarray(rows)
    P = data.shape[0]
    expected_t = np.arange(P) * (problem.period / P)
    if not np.all(np.abs(data[:, 0] - expected_t) <= 1e-9 * problem.period):
        raise ProblemError(
            "bad_document",
            "CSV time column is not the uniform grid j*T/P for this problem")
    if not np.all(np.isfinite(data[:, 1])):
        raise ProblemError("bad_document", "CSV u column must be finite")
    return data[:, 1]


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    cfg, problem = _load(args.config)
    try:
        u_col = _read_solution_csv(Path(args.solution), problem)
    except (OSError, ValueError, csv.Error) as exc:
        raise ProblemError("bad_document", f"cannot read solution file: {exc}") from None
    options = {"tol": args.tol, "solution": args.solution}
    try:
        u = from_samples(u_col, problem.period)
    except OddSymmetryError as exc:
        outcome = {"passed": False, "verdict": "not_odd_periodic",
                   "defect": exc.defect, "tolerance": exc.tol}
        _emit(_record("verify", cfg, problem, options, outcome, t0))
        return EXIT_VERIFY
    try:
        cv = cross_validate(problem, u, tol=args.tol)
    except OracleInconclusiveError as exc:
        outcome = {"passed": False, "verdict": "oracle_inconclusive",
                   "residual": ode_residual(problem, u), "message": str(exc)}
        _emit(_record("verify", cfg, problem, options, outcome, t0))
        return EXIT_VERIFY
    except BlowUpError as exc:
        outcome = {"passed": False, "verdict": "oracle_blowup",
                   "t_escape": exc.t_escape,
                   "residual": ode_residual(problem, u)}
        _emit(_record("verify", cfg, problem, options, outcome, t0))
        return EXIT_VERIFY
    outcome = {
        "passed": cv.passed,
        "verdict": "pass" if cv.passed else "fail",
        "residual": cv.residual_candidate,
        "residual_oracle": cv.residual_oracle,
        "distance": cv.distance,
        "shooting_v0": cv.shooting.v0,
    }
    _emit(_record("verify", cfg, problem, options, outcome, t0))
    return EXIT_OK if cv.passed else EXIT_VERIFY


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    cfg, base_problem = _load(args.config)
    if not (1 <= args.steps <= MAX_SWEEP_STEPS
            and np.isfinite(args.start) and np.isfinite(args.stop)):
        return _fail(EXIT_INPUT, "bad_range",
                     f"need finite range and 1 <= steps <= {MAX_SWEEP_STEPS}")
    if args.stop < args.start:
        return _fail(EXIT_INPUT, "bad_range", "sweep range must have stop >= start")
    param = args.param
    if param != "period" and param not in (cfg.get("params") or {}):
        return _fail(EXIT_INPUT, "bad_range",
                     f"unknown sweep parameter {param!r} for this config")
    values = np.linspace(args.start, args.stop, args.steps)
    if param == "period":
        # every row shares the base problem's g, so a batched step makes
        # one g call for all rows
        forcing = list(enumerate(base_problem.k.coeffs.tolist(), start=1))
        problems = [make_problem(float(value), base_problem.g, forcing,
                                 label=base_problem.label) for value in values]
    else:
        problems = [parse_problem({**cfg, "params": {**cfg["params"],
                                                      param: float(value)}})
                    for value in values]
    reports = solve_many(problems, tol=args.tol, max_iter=args.max_iter,
                         modes=args.modes)
    distances = shooting_distances(problems, [r.solution for r in reports])
    rows = []
    for value, report, distance in zip(values, reports, distances):
        cert = report.certificate
        rows.append({
            "param": float(value),
            "lambda": cert.factor if cert is not None else float("nan"),
            "holds": cert is not None and cert.holds,
            "converged": report.converged,
            "iterations": report.iterations,
            "solution_norm": sup_norm(report.solution),
            "residual": report.residual,
            "oracle_distance": distance,
        })
    out = Path(args.out)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "lambda", "holds", "converged", "iterations",
                         "solution_norm", "residual", "oracle_distance"])
        for r in rows:
            writer.writerow([
                _fmt(r["param"]), _fmt(r["lambda"]),
                "true" if r["holds"] else "false",
                "true" if r["converged"] else "false",
                str(r["iterations"]), _fmt(r["solution_norm"]),
                _fmt(r["residual"]), _fmt(r["oracle_distance"]),
            ])
    options = {"param": param, "from": args.start, "to": args.stop,
               "steps": args.steps, "tol": args.tol, "out": str(out)}
    _emit(_record("sweep", cfg, base_problem, options,
                  {"rows": rows, "out": str(out)}, t0))
    return EXIT_OK


def cmd_compare(args) -> int:
    t0 = time.perf_counter()
    cfg, problem = _load(args.config)
    results: dict[str, dict] = {}
    solutions = {}

    picard = solve(problem, method="picard", tol=args.tol,
                   max_iter=args.max_iter, modes=args.modes)
    results["picard"] = _report_outcome(picard)
    if picard.converged:
        solutions["picard"] = picard.solution

    try:
        continuation = solve(problem, method="continuation", tol=args.tol,
                             max_iter=args.max_iter, modes=args.modes)
        results["continuation"] = _report_outcome(continuation)
        if continuation.converged:
            solutions["continuation"] = continuation.solution
    except MajorantError as exc:
        continuation = None
        results["continuation"] = {"skipped": str(exc)}

    reference = solutions.get("continuation") or solutions.get("picard")
    if reference is not None:
        try:
            cv = cross_validate(problem, reference)
            solutions["shooting"] = cv.shooting.reconstructed
            results["shooting"] = {
                "v0": cv.shooting.v0,
                "boundary_defect": cv.shooting.boundary_defect,
                "residual": cv.residual_oracle,
            }
        except (OracleInconclusiveError, ArithmeticError) as exc:
            results["shooting"] = {"failed": str(exc)}
    else:
        results["shooting"] = {"skipped": "no converged solution to seed from"}

    names = sorted(solutions)
    distances = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            distances[f"{a}_vs_{b}"] = sup_norm(solutions[a] - solutions[b])

    outcome = {"methods": results, "distances": distances}
    options = {"tol": args.tol, "max_iter": args.max_iter, "modes": args.modes}
    _emit(_record("compare", cfg, problem, options, outcome, t0))
    if not picard.converged or (continuation is not None and not continuation.converged):
        return EXIT_NO_CONV
    if "shooting" not in solutions:
        return EXIT_VERIFY
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddperiodic",
        description="Odd periodic solutions of u'' + g(u) = k(t): solve, "
                    "certify, verify, sweep, compare.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="step sup-norm stopping tolerance")
        p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                       help="iteration cap (per continuation stage)")
        p.add_argument("--modes", type=int, default=DEFAULT_MODES,
                       help="working sine truncation order")

    p = sub.add_parser("certify", help="evaluate the contraction certificate")
    p.add_argument("config")
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("solve", help="solve and write CSV + JSON sidecar")
    p.add_argument("config")
    p.add_argument("--method", choices=["picard", "continuation", "auto"],
                   default="auto")
    add_solver_flags(p)
    p.add_argument("--out", default="solution.csv")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("verify", help="re-check a solution file independently")
    p.add_argument("config")
    p.add_argument("solution")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="acceptance tolerance for residuals and distance")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("sweep", help="solve across a parameter range")
    p.add_argument("config")
    p.add_argument("--param", required=True,
                   help="'period' or a family parameter name")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    add_solver_flags(p)
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("compare",
                       help="run picard, continuation and shooting side by side")
    p.add_argument("config")
    add_solver_flags(p)
    p.set_defaults(handler=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if hasattr(args, "modes") and not 1 <= args.modes <= MAX_MODES:
        return _fail(EXIT_INPUT, "bad_modes",
                     f"--modes {args.modes} is outside 1..{MAX_MODES}")
    try:
        return args.handler(args)
    except ProblemError as exc:
        return _fail(EXIT_INPUT, exc.code, str(exc))
    except OSError as exc:
        return _fail(EXIT_INPUT, "bad_document", str(exc))


if __name__ == "__main__":
    sys.exit(main())
