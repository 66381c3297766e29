"""Child processes of the benchmark, one mode per process.

    child.py setup   CONFIG_DIR [--warmup]      time to a ready workload
    child.py cli     JOB SPANS -- ARGV...        oddperiodic.cli.main, traced
    child.py library CONFIG_DIR RESULT SECONDS TIMEOUT [--trace]

``oddperiodic`` is imported from PYTHONPATH, which the parent sets to the
checkout's ``src``.  The ``setup`` and ``library`` modes write ``ready`` on
stdout once their set-up is done, so the parent can time set-up from process
start.  The harness's own modules are imported only by the modes that use
them, so that a ``setup`` probe loads little besides ``oddperiodic``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import warnings
from pathlib import Path


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def _environment() -> dict:
    """numpy, BLAS and BLAS thread count as this process sees them."""
    import ctypes
    import platform

    import numpy as np

    info = {"python": platform.python_version(), "numpy": np.__version__,
            "blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def _load_problems(config_dir: Path):
    from oddperiodic import parse_problem

    paths = sorted(config_dir.glob("*.json"))
    return [(p, parse_problem(json.loads(p.read_text()))) for p in paths]


class JobTimeout(Exception):
    """A library job ran past its time limit."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_library_job(problem, tol: float) -> dict:
    """certify, then Picard if certified else continuation, then
    cross_validate.  Every outcome becomes a record; nothing escapes."""
    from oddperiodic import (CertificateError, certify, cross_validate,
                             solve_continuation, solve_picard)

    out = {"regime": None, "converged": False, "passed": False, "error": None}
    try:
        try:
            holds = certify(problem).holds
        except CertificateError:
            holds = False
        report = solve_picard(problem) if holds else solve_continuation(problem)
        out.update(regime=report.regime, converged=report.converged,
                   iterations=report.iterations, residual=report.residual)
        check = cross_validate(problem, report.solution, tol=tol)
        out.update(passed=bool(check.passed), distance=check.distance)
    except JobTimeout:
        out["error"] = "timeout"
    except Exception as exc:  # a job's failure is its outcome
        out["error"] = type(exc).__name__
    return out


def _cli_certify_check(problems) -> list[str]:
    """The CLI's certify must agree with the library's certificate."""
    from oddperiodic import certify
    from oddperiodic import cli

    wrong = []
    for path, problem in problems:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(["certify", str(path)])
        cert = certify(problem)
        record = json.loads(text.getvalue())
        if code != (0 if cert.holds else 3) or record["outcome"]["lambda"] != cert.factor:
            wrong.append(f"certify {path.name}: CLI exit {code}, library "
                         f"holds={cert.holds}")
    return wrong


def _warm_up() -> None:
    """Fill the synthesis-table cache before anything is timed."""
    from oddperiodic import parse_problem
    from workloads import LIBRARY_WARMUP, ORACLE_TOL

    for cfg in LIBRARY_WARMUP:
        run_library_job(parse_problem(cfg), ORACLE_TOL)


def _quiet() -> None:
    # strongly nonlinear library problems overflow g in harmless places
    # (cosh of a large trial iterate); keep the child's stderr readable
    warnings.simplefilter("ignore", RuntimeWarning)


def main_setup(argv: list[str]) -> int:
    _quiet()
    _load_problems(Path(argv[0]))
    if "--warmup" in argv:
        _warm_up()
    _ready()
    print(json.dumps(_environment()))
    return 0


def main_cli(argv: list[str]) -> int:
    job, spans_path = argv[0], Path(argv[1])
    cli_argv = argv[argv.index("--") + 1:]
    t0 = time.perf_counter()
    import oddperiodic.cli
    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.job = job
    try:
        return oddperiodic.cli.main(cli_argv)
    finally:
        tracer.uninstall()
        spans_path.write_text(json.dumps({"import_s": import_s,
                                          "spans": tracer.spans}))


def main_library(argv: list[str]) -> int:
    import signal

    from tracer import Tracer, merge
    from workloads import ORACLE_TOL

    config_dir, result_path = Path(argv[0]), Path(argv[1])
    seconds, timeout = float(argv[2]), float(argv[3])
    traced = "--trace" in argv
    _quiet()
    t0 = time.perf_counter()
    import oddperiodic  # noqa: F401
    import oddperiodic.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    # one tracer per traced segment, so that span indices stay local to it
    def segment(job: str) -> Tracer:
        tracer = Tracer()
        tracer.job = job
        if traced:
            tracer.install()
        return tracer

    setup = segment("setup")
    problems = _load_problems(config_dir)
    _warm_up()
    setup.uninstall()
    _ready()
    if traced:
        # the untraced and the traced pass both run the first half of the
        # batch, which keeps a traced run as long as an untraced one
        problems = problems[:len(problems) // 2]

    signal.signal(signal.SIGALRM, _on_alarm)
    passes = []
    start = time.perf_counter()
    # alternate untraced and traced passes when tracing, so that the
    # overhead is measured on the same inputs in the same process
    while not passes or time.perf_counter() - start < seconds or (
            traced and len(passes) < 2):
        tracer = segment(f"pass{len(passes)}") if len(passes) % 2 else Tracer()
        jobs = []
        t_pass = time.perf_counter()
        for path, problem in problems:
            tracer.job = path.stem
            signal.setitimer(signal.ITIMER_REAL, timeout)
            t_job = time.perf_counter()
            try:
                record = run_library_job(problem, ORACLE_TOL)
            finally:
                seconds_job = time.perf_counter() - t_job
                signal.setitimer(signal.ITIMER_REAL, 0)
            record.update(job=path.stem, seconds=seconds_job)
            jobs.append(record)
        tracer.uninstall()
        passes.append({"wall_s": time.perf_counter() - t_pass,
                       "traced": traced and len(passes) % 2 == 1,
                       "jobs": jobs, "spans": tracer.spans})

    check = segment("check")
    wrong = _cli_certify_check(problems)
    check.uninstall()
    result_path.write_text(json.dumps({
        "import_s": import_s, "passes": passes, "wrong": wrong,
        "once_spans": merge([setup.spans, check.spans])}))
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    sys.exit({"setup": main_setup, "cli": main_cli,
              "library": main_library}[mode](rest))
