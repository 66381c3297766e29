"""Command-line front end: solve | certify | verify | sweep | compare.

Machine-readable throughout: every command prints one JSON run record to
stdout (sorted keys, so records are byte-stable up to the wall-time field),
dense function data goes to CSV with header ``t,u,u_prime,residual_pointwise``
and shortest-round-trip decimal floats.  A command's handler returns its
outcome and exit code, or raises ProblemError; :func:`main` checks the
limit flags with the library's rule, records every flag it parsed as the
options and prints the one record: the run record, or an error record that
carries each refusal's code as the library raised it.

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
import os
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
    DEFAULT_CHECK_TOL,
    BlowUpError,
    OracleInconclusiveError,
    cross_validate,
    ode_residual,
    pointwise_residual,
    shooting_distances,
)
from .problems import MAX_MODES, ProblemError, _check_limits, _decode, parse_problem
from .solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_MODES,
    DEFAULT_TOL,
    METHODS,
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
# a sweep solves and shoots its rows in passes and keeps only the table rows
# between them: a pass holds this many working coefficients (rows x modes)
# at most, a row counting as at least 1024, so that a pass holds at most 256
# of a row's objects that do not shrink with N (its problem, report and shot)
SWEEP_PASS_COEFFS = 2**18


def _write_record(record: dict, fh) -> None:
    """Strict JSON into ``fh``: json writes a non-finite float as a NaN or
    Infinity token, reads it back as None and only then streams it, as null."""
    json.dump(json.loads(json.dumps(record), parse_constant=lambda _: None),
              fh, indent=2, sort_keys=True)
    fh.write("\n")


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
    cert = certify(problem)
    outcome = cert.as_dict()
    outcome["threshold"] = 2.0 / problem.period ** 2
    return outcome, EXIT_OK if cert.holds else EXIT_NO_CERT


def cmd_solve(args, cfg, problem):
    report = solve(problem, method=args.method, tol=args.tol,
                   max_iter=args.max_iter, modes=args.modes)
    u = report.solution
    P = 4 * u.modes
    uvals, res = pointwise_residual(problem, u, P)
    _write_csv(args.out, CSV_HEADER,
               [np.arange(P) * (problem.period / P), uvals,
                grid_samples(differentiate(u, 1), P), res])
    return _report_outcome(report), EXIT_OK if report.converged else EXIT_NO_CONV


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
    except ValueError as exc:  # finite samples whose coefficients overflow
        raise ProblemError("bad_document",
                           f"the u column has no finite sine series: {exc}") from None
    try:  # the oracle's slope u'(0) and the residual's u''
        differentiate(u, 1), differentiate(u, 2)
    except ValueError as exc:
        raise ProblemError("bad_document", f"u' or u'' overflows: {exc}") from None
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
    return outcome, EXIT_OK if outcome["passed"] else EXIT_VERIFY


def cmd_sweep(args, cfg, base_problem):
    start, stop = getattr(args, "from"), args.to
    # a finite width also rules out non-finite ends
    if not (1 <= args.steps <= MAX_SWEEP_STEPS and math.isfinite(stop - start)):
        raise ProblemError(
            "bad_range", f"need finite range and 1 <= steps <= {MAX_SWEEP_STEPS}")
    if stop < start:
        raise ProblemError("bad_range", "sweep range must have stop >= start")
    param = args.param
    if param != "period" and param not in (cfg.get("params") or {}):
        raise ProblemError("bad_range",
                           f"unknown sweep parameter {param!r} for this config")
    values = np.linspace(start, stop, args.steps).tolist()

    def row_problem(value):  # the config with the one value replaced
        if param == "period":
            return parse_problem({**cfg, "period": value})
        return parse_problem({**cfg, "params": {**cfg["params"], param: value}})
    rows_per_pass = max(1, SWEEP_PASS_COEFFS
                        // max(args.modes, base_problem.k.modes, 1024))
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
    rows = [dict(zip(SWEEP_COLUMNS, row)) for row in table]
    return {"rows": rows, "out": str(args.out)}, EXIT_OK


def cmd_compare(args, cfg, problem):
    results, solutions = {}, {}
    for method in ("picard", "continuation"):  # only continuation needs majorants
        try:
            report = solve(problem, method=method, tol=args.tol,
                           max_iter=args.max_iter, modes=args.modes)
        except MajorantError as exc:
            results[method] = {"skipped": str(exc)}
            continue
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
    # every method that ran reports whether it converged
    if not all(result.get("converged", True) for result in results.values()):
        return outcome, EXIT_NO_CONV
    return outcome, EXIT_OK if "shooting" in solutions else EXIT_VERIFY


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
                       help="stopping tolerance on the step's l1 norm, "
                            "which bounds its sup norm")
        p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                       help="iteration cap (per continuation stage)")
        p.add_argument("--modes", type=int, default=DEFAULT_MODES,
                       help="working sine truncation order")

    add_command("certify", cmd_certify, "evaluate the contraction certificate")

    p = add_command("solve", cmd_solve, "solve and write CSV + JSON sidecar")
    p.add_argument("--method", choices=METHODS, default="auto")
    add_solver_flags(p)
    p.add_argument("--out", type=Path, default="solution.csv")

    p = add_command("verify", cmd_verify, "re-check a solution file independently")
    p.add_argument("solution")
    p.add_argument("--tol", type=float, default=DEFAULT_CHECK_TOL,
                   help="acceptance tolerance for residuals and distance")

    p = add_command("sweep", cmd_sweep, "solve across a parameter range")
    p.add_argument("--param", required=True,
                   help="'period' or a family parameter name")
    p.add_argument("--from", type=float, required=True, metavar="START")
    p.add_argument("--to", type=float, required=True, metavar="STOP")
    p.add_argument("--steps", type=int, required=True)
    add_solver_flags(p)
    p.add_argument("--out", type=Path, default="sweep.csv")

    p = add_command("compare", cmd_compare,
                    "run picard, continuation and shooting side by side")
    add_solver_flags(p)

    return parser


def main(argv=None) -> int:
    """Run one command and print its one JSON record: the run record, whose
    options are every flag parsed and whose outcome the command's handler
    returns, or an error record.  Returns the exit code."""
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    options = {key: str(value) if isinstance(value, Path) else value
               for key, value in vars(args).items()
               if key not in ("command", "config", "handler")}
    try:
        _check_limits(*map(options.get, ("modes", "tol", "max_iter")))
        cfg = _decode(Path(args.config).read_bytes())
        problem = parse_problem(cfg)
        outcome, code = args.handler(args, cfg, problem)
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
            with Path(f"{args.out}.json").open("w") as fh:
                _write_record(record, fh)
    except ProblemError as exc:
        record, code = {"error": {"code": exc.code, "message": str(exc)}}, EXIT_INPUT
    except OSError as exc:
        record, code = {"error": {"code": "bad_document", "message": str(exc)}}, EXIT_INPUT
    try:
        _write_record(record, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:  # a closed stdout: quiet the exit flush as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
