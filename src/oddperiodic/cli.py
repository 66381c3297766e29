"""Command-line front end: solve | certify | verify | sweep | compare.

Machine-readable throughout: every command prints one JSON run record to
stdout (sorted keys, so records are byte-stable up to the wall-time field),
dense function data goes to CSV with header ``t,u,u_prime,residual_pointwise``
and shortest-round-trip decimal floats.  A command's handler returns its
options, outcome and exit code, or raises ProblemError; :func:`main` builds
and prints the one record.

Exit codes: 0 success, 2 input/validation error, 3 certificate does not
hold, 4 non-convergence (best iterate still written), 5 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
from array import array
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
# the CSV writer formats this many rows at a time
CSV_BLOCK_ROWS = 1024
SWEEP_COLUMNS = ["param", "lambda", "holds", "converged", "iterations",
                 "solution_norm", "residual", "oracle_distance"]
MAX_SWEEP_STEPS = 10_000
# a sweep solves and shoots its rows in passes of at most this many working
# coefficients (rows x modes), and keeps only the table rows between passes
SWEEP_PASS_COEFFS = 2**18


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


def _cells(column):
    """The CSV cells of one column, made as they are written: true/false,
    decimal integers or the shortest decimals that round-trip the doubles."""
    column = np.asarray(column)
    if column.dtype == bool:
        return map({True: "true", False: "false"}.__getitem__, column.tolist())
    return map(str if column.dtype.kind in "iu" else repr, column.tolist())


def _write_csv(path: Path, header: list[str], columns) -> None:
    """The header, then the rows in blocks of CSV_BLOCK_ROWS: each block is
    one string, so at most one block of cells exists at a time.  No cell
    needs quoting, so a row is its cells joined by commas, as csv.writer
    writes it."""
    columns = [np.asarray(column) for column in columns]
    rows = min(map(len, columns), default=0)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for first in range(0, rows, CSV_BLOCK_ROWS):
            block = [_cells(column[first:first + CSV_BLOCK_ROWS])
                     for column in columns]
            fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")


def cmd_certify(args, cfg, problem):
    try:
        cert = certify(problem)
    except CertificateError as exc:
        raise ProblemError("no_derivative_bound", str(exc))
    outcome = cert.as_dict()
    outcome["threshold"] = 2.0 / problem.period ** 2
    return {}, outcome, EXIT_OK if cert.holds else EXIT_NO_CERT


def cmd_solve(args, cfg, problem):
    try:
        report = solve(problem, method=args.method, tol=args.tol,
                       max_iter=args.max_iter, modes=args.modes)
    except MajorantError as exc:
        raise ProblemError("no_majorant", str(exc))
    u = report.solution
    P = 4 * u.modes
    uvals, res = pointwise_residual(problem, u, P)
    _write_csv(args.out, CSV_HEADER,
               [np.arange(P) * (problem.period / P), uvals,
                grid_samples(differentiate(u, 1), P), res])
    options = {"method": args.method, "tol": args.tol,
               "max_iter": args.max_iter, "modes": args.modes,
               "out": str(args.out)}
    return (options, _report_outcome(report),
            EXIT_OK if report.converged else EXIT_NO_CONV)


def _lines(fh, limit: int):
    """The lines of ``fh``, refusing one longer than ``limit`` characters."""
    while line := fh.readline(limit + 1):
        if len(line) > limit:
            raise ProblemError("bad_document",
                               f"a line is longer than {limit} characters")
        yield line


def _read_solution_csv(path: Path, problem):
    """The finite u column of a solution CSV on this problem's grid."""
    # solve writes at most 4 * MAX_MODES rows, each one line of 4 unquoted
    # numbers (about 100 characters): refuse a longer line or one row more
    max_rows = 4 * MAX_MODES
    with path.open(newline="") as fh:
        reader = csv.reader(_lines(fh, 1024), quoting=csv.QUOTE_NONE)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ProblemError("bad_document",
                               f"unexpected CSV header {header!r}")
        # the numbers go straight into one float64 buffer, row after row
        numbers = array("d")
        rows, ragged = 0, False
        for row in itertools.islice(reader, max_rows + 1):
            numbers.extend(map(float, row))
            rows += 1
            ragged |= len(row) != 4
    if rows > max_rows:
        raise ProblemError("bad_document", f"more than {max_rows} rows")
    if rows < 4 or rows % 2 or ragged:
        raise ProblemError("bad_document",
                           "need an even number (>= 4) of rows of 4 numbers")
    data = np.frombuffer(numbers).reshape(rows, 4)
    expected_t = np.arange(rows) * (problem.period / rows)
    if not np.all(np.abs(data[:, 0] - expected_t) <= 1e-9 * problem.period):
        raise ProblemError(
            "bad_document",
            "CSV time column is not the uniform grid j*T/P for this problem")
    if not np.all(np.isfinite(data[:, 1])):
        raise ProblemError("bad_document", "CSV u column must be finite")
    # a copy, so the buffer is freed on return
    return data[:, 1].copy()


def _verdict(problem, u_col, tol: float) -> dict:
    """The verify outcome of the u column: pass, fail, not_odd_periodic,
    oracle_inconclusive or oracle_blowup."""
    try:
        u = from_samples(u_col, problem.period)
    except OddSymmetryError as exc:
        return {"passed": False, "verdict": "not_odd_periodic",
                "defect": exc.defect, "tolerance": exc.tol}
    try:
        cv = cross_validate(problem, u, tol=tol)
    except OracleInconclusiveError as exc:
        return {"passed": False, "verdict": "oracle_inconclusive",
                "residual": ode_residual(problem, u), "message": str(exc)}
    except BlowUpError as exc:
        return {"passed": False, "verdict": "oracle_blowup",
                "t_escape": exc.t_escape, "residual": ode_residual(problem, u)}
    return {
        "passed": cv.passed,
        "verdict": "pass" if cv.passed else "fail",
        "residual": cv.residual_candidate,
        "residual_oracle": cv.residual_oracle,
        "distance": cv.distance,
        "shooting_v0": cv.shooting.v0,
    }


def cmd_verify(args, cfg, problem):
    try:
        u_col = _read_solution_csv(Path(args.solution), problem)
    except (OSError, ValueError, csv.Error) as exc:
        raise ProblemError("bad_document", f"cannot read solution file: {exc}") from None
    outcome = _verdict(problem, u_col, args.tol)
    return ({"tol": args.tol, "solution": args.solution}, outcome,
            EXIT_OK if outcome["passed"] else EXIT_VERIFY)


def cmd_sweep(args, cfg, base_problem):
    # a finite width also rules out non-finite ends
    if not (1 <= args.steps <= MAX_SWEEP_STEPS
            and math.isfinite(args.stop - args.start)):
        raise ProblemError(
            "bad_range", f"need finite range and 1 <= steps <= {MAX_SWEEP_STEPS}")
    if args.stop < args.start:
        raise ProblemError("bad_range", "sweep range must have stop >= start")
    param = args.param
    if param != "period" and param not in (cfg.get("params") or {}):
        raise ProblemError("bad_range",
                           f"unknown sweep parameter {param!r} for this config")
    values = np.linspace(args.start, args.stop, args.steps).tolist()
    if param == "period":
        # every row shares the base problem's g, so a batched step makes
        # one g call for all rows
        forcing = list(enumerate(base_problem.k.coeffs.tolist(), start=1))

        def row_problem(value):
            return make_problem(value, base_problem.g, forcing,
                                label=base_problem.label)
    else:
        def row_problem(value):
            return parse_problem({**cfg, "params": {**cfg["params"], param: value}})
    rows_per_pass = max(1, SWEEP_PASS_COEFFS
                        // max(args.modes, base_problem.k.modes))
    table = []
    for first in range(0, len(values), rows_per_pass):
        chunk = values[first:first + rows_per_pass]
        problems = [row_problem(value) for value in chunk]
        reports = solve_many(problems, tol=args.tol, max_iter=args.max_iter,
                             modes=args.modes)
        distances = shooting_distances(problems, [r.solution for r in reports])
        for value, report, distance in zip(chunk, reports, distances):
            cert = report.certificate
            table.append((value,
                          cert.factor if cert is not None else float("nan"),
                          cert is not None and cert.holds, report.converged,
                          report.iterations, sup_norm(report.solution),
                          report.residual, distance))
    _write_csv(args.out, SWEEP_COLUMNS, list(zip(*table)))
    options = {"param": param, "from": args.start, "to": args.stop,
               "steps": args.steps, "tol": args.tol, "out": str(args.out)}
    rows = [dict(zip(SWEEP_COLUMNS, row)) for row in table]
    return options, {"rows": rows, "out": str(args.out)}, EXIT_OK


def cmd_compare(args, cfg, problem):
    results: dict[str, dict] = {}
    solutions = {}
    reports = {}
    for method in ("picard", "continuation"):  # only continuation needs majorants
        try:
            report = solve(problem, method=method, tol=args.tol,
                           max_iter=args.max_iter, modes=args.modes)
        except MajorantError as exc:
            results[method] = {"skipped": str(exc)}
            continue
        reports[method] = report
        results[method] = _report_outcome(report)
        if report.converged:
            solutions[method] = report.solution

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

    distances = {f"{a}_vs_{b}": sup_norm(solutions[a] - solutions[b])
                 for a, b in itertools.combinations(sorted(solutions), 2)}

    outcome = {"methods": results, "distances": distances}
    options = {"tol": args.tol, "max_iter": args.max_iter, "modes": args.modes}
    if not all(report.converged for report in reports.values()):
        code = EXIT_NO_CONV
    elif "shooting" not in solutions:
        code = EXIT_VERIFY
    else:
        code = EXIT_OK
    return options, outcome, code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddperiodic",
        description="Odd periodic solutions of u'' + g(u) = k(t): solve, "
                    "certify, verify, sweep, compare.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("config")
        p.set_defaults(handler=handler)
        return p

    def add_solver_flags(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="step sup-norm stopping tolerance")
        p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                       help="iteration cap (per continuation stage)")
        p.add_argument("--modes", type=int, default=DEFAULT_MODES,
                       help="working sine truncation order")

    add_command("certify", cmd_certify, "evaluate the contraction certificate")

    p = add_command("solve", cmd_solve, "solve and write CSV + JSON sidecar")
    p.add_argument("--method", choices=["picard", "continuation", "auto"],
                   default="auto")
    add_solver_flags(p)
    p.add_argument("--out", type=Path, default="solution.csv")

    p = add_command("verify", cmd_verify, "re-check a solution file independently")
    p.add_argument("solution")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="acceptance tolerance for residuals and distance")

    p = add_command("sweep", cmd_sweep, "solve across a parameter range")
    p.add_argument("--param", required=True,
                   help="'period' or a family parameter name")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    add_solver_flags(p)
    p.add_argument("--out", type=Path, default="sweep.csv")

    p = add_command("compare", cmd_compare,
                    "run picard, continuation and shooting side by side")
    add_solver_flags(p)

    return parser


def main(argv=None) -> int:
    """Run one command and print its one JSON record: the run record the
    command's handler fills in, or an error record.  Returns the exit code."""
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        if hasattr(args, "modes") and not 1 <= args.modes <= MAX_MODES:
            raise ProblemError(
                "bad_modes", f"--modes {args.modes} is outside 1..{MAX_MODES}")
        if hasattr(args, "tol") and not 0 < args.tol < math.inf:
            raise ProblemError(
                "bad_tol", f"--tol {args.tol} is not a positive finite number")
        if hasattr(args, "max_iter") and args.max_iter < 1:
            raise ProblemError(
                "bad_max_iter", f"--max-iter {args.max_iter} is below 1")
        cfg = _decode(Path(args.config).read_bytes())
        problem = parse_problem(cfg)
        options, outcome, code = args.handler(args, cfg, problem)
        record = {
            "command": args.command,
            "label": problem.label,
            "config": cfg,
            "options": options,
            "outcome": outcome,
            "wall_time_s": time.perf_counter() - t0,
        }
        if args.command == "solve":
            # appended, not substituted: <out>.json can never clobber an input
            Path(f"{args.out}.json").write_text(_dumps(record) + "\n")
    except ProblemError as exc:
        record, code = {"error": {"code": exc.code, "message": str(exc)}}, EXIT_INPUT
    except OSError as exc:
        record, code = {"error": {"code": "bad_document", "message": str(exc)}}, EXIT_INPUT
    print(_dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
