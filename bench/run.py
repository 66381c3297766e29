"""Benchmark of oddperiodic: three workloads, checked outputs, six
end-to-end metrics, and per-layer metrics from a separate traced run.

    python3 bench/run.py --workload highmodes_cli --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Workloads (see bench/METRICS.md for what each metric should move):
  highmodes_cli    CLI solve then verify at N = 1024 and 2048, one process
                   per command; transform-bound.
  threshold_sweep  CLI period sweeps across the certificate threshold at
                   N = 64; oracle-bound.
  library_batch    in-process certify / solve / cross_validate of seeded
                   random problems at N = 256 on a warm cache.

A run repeats the workload's fixed job list (a pass) until --seconds have
passed, and reports means over passes.  With --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics and the
tracing overhead instead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Inputs, outputs, the
environment stamp and spans are kept in .bench_out/ under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = str(BENCH_DIR / "child.py")

# Hard limit on one workload's run, so that a hanging program still ends
# the benchmark within its time limit.
RUN_LIMIT_S = 165.0
SETUP_REPEATS = {"highmodes_cli": 7, "threshold_sweep": 7, "library_batch": 5}

END_TO_END = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ops_ok_share": "share",
}
WORKLOADS = ("highmodes_cli", "threshold_sweep", "library_batch")


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure)."""


@dataclass
class Child:
    """A finished child process."""

    exit_code: int | None          # None: killed at its timeout
    seconds: float
    rss_mb: float
    ready_s: float | None = None   # time until the child printed 'ready'


@dataclass
class Tally:
    """Operations and checks of one run."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    rss_mb: float = 0.0


def locate_src(root: Path) -> Path:
    """The checkout's src directory, derived from oddperiodic.__file__."""
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.find_spec("oddperiodic")
    if spec is None or spec.origin is None:
        raise BenchError("package oddperiodic not found under src/")
    src = Path(spec.origin).resolve().parent.parent
    if root.resolve() not in src.parents:
        raise BenchError(f"oddperiodic resolves outside the checkout: {src}")
    return src


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    return env


def spawn(argv: list[str], *, cwd: Path, env: dict, timeout: float,
          stdout_path: Path, wait_ready: bool = False) -> Child:
    """Run one child to completion; read its own peak RSS with os.wait4.

    A child that outlives ``timeout`` is killed and reported with exit code
    None.  With ``wait_ready`` the child's first stdout line is read as it
    arrives, to time its set-up.
    """
    timed_out = threading.Event()
    t0 = time.perf_counter()
    with open(stdout_path.with_suffix(".err"), "w") as err:
        if wait_ready:
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                    stderr=err, text=True)
        else:
            with open(stdout_path, "w") as out:
                proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                        stderr=err)

        def kill():
            timed_out.set()
            proc.kill()

        killer = threading.Timer(max(timeout, 0.0), kill)
        killer.start()
        ready_s = None
        if wait_ready:
            line = proc.stdout.readline()
            if line == "ready\n":
                ready_s = time.perf_counter() - t0
            stdout_path.write_text(line + proc.stdout.read())
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        killer.cancel()
        killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out.is_set() else proc.returncode
    return Child(code, seconds, usage.ru_maxrss / 1024.0, ready_s)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with at least a share q of
    the samples at or below it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def tail_rank(jobs_per_pass: int) -> tuple[float, str]:
    """The highest percentile with at least ten jobs of one pass beyond it.

    Fixed per workload from the size of one pass, so that every run reports
    the same percentile however many passes fit in it.
    """
    if jobs_per_pass <= 10:
        return 1.0, "max"
    q = 1.0 - 10.0 / jobs_per_pass
    return q, f"p{100 * q:g}"


class Run:
    """One workload, one seed: inputs, set-up probes, passes, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 src: Path, out_root: Path) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.src = src
        self.env = child_env(src)
        self.start = time.perf_counter()
        self.dir = out_root / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cwd = Path(tempfile.mkdtemp(prefix="cwd-", dir=self.dir))
        self.timeout = workloads.JOB_TIMEOUT_S[workload]
        self.tally = Tally()
        self.walls: list[float] = []        # untraced pass walls
        self.traced_walls: list[float] = []
        self.job_times: dict[str, list[float]] = {}   # untraced, per job
        self.pass_spans: list[list] = []    # per traced pass
        self.once_spans: list[list] = []    # set-up and checks, counted once
        self.import_s: list[float] = []
        self.csv_rows: list[int] = []       # per traced pass

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def child_timeout(self, limit: float) -> float:
        return max(0.0, min(limit, self.remaining()))

    # -------------------------------------------------------------- set-up
    def setup(self, config_dir: Path) -> tuple[list[float], dict]:
        """Time import + parse (+ warm-up) in fresh interpreters.

        Each probe reports the environment it saw on the line after
        ``ready``, outside the timed part.
        """
        argv = [sys.executable, CHILD, "setup", str(config_dir)]
        if self.workload == "library_batch":
            argv.append("--warmup")
        samples = []
        for i in range(SETUP_REPEATS[self.workload]):
            out = self.cwd / f"setup{i}.out"
            child = spawn(argv, cwd=self.cwd, env=self.env,
                          timeout=self.child_timeout(60.0),
                          stdout_path=out, wait_ready=True)
            if child.ready_s is None or child.exit_code != 0:
                raise BenchError(f"set-up probe failed (exit {child.exit_code}); "
                                 f"see {out.with_suffix('.err')}")
            samples.append(child.ready_s)
        info = json.loads(out.read_text().splitlines()[1])
        return samples, info

    def want_pass(self) -> bool:
        if self.remaining() <= 0:
            return False
        elapsed = time.perf_counter() - self.start_passes
        if self.trace:
            return elapsed < self.seconds or not (self.walls and self.traced_walls)
        return elapsed < self.seconds or not self.walls

    # ----------------------------------------------------------- CLI passes
    def cli_pass(self, jobs: list[workloads.Job], traced: bool) -> None:
        spans, rows = [], 0
        t_pass = time.perf_counter()
        for job in jobs:
            t_job = time.perf_counter()
            for k, cmd in enumerate(job.commands):
                stem = f"{job.job_id.replace(':', '_').replace('@', '_')}-{k}"
                if traced:
                    span_file = self.cwd / f"{stem}.spans"
                    argv = [sys.executable, CHILD, "cli", job.job_id,
                            str(span_file), "--", *cmd.argv]
                else:
                    argv = [sys.executable, "-m", "oddperiodic", *cmd.argv]
                out = self.cwd / f"{stem}.out"
                if cmd.kind in ("solve", "sweep"):
                    # a file left by an earlier pass must not stand in for
                    # the output of a command that fails in this one
                    written = self.cwd / cmd.csv_path
                    written.unlink(missing_ok=True)
                    Path(f"{written}.json").unlink(missing_ok=True)
                timeout = self.child_timeout(self.timeout)
                if timeout < 1.0:
                    child = Child(None, 0.0, 0.0)
                else:
                    child = spawn(argv, cwd=self.cwd, env=self.env,
                                  timeout=timeout, stdout_path=out)
                self.tally.rss_mb = max(self.tally.rss_mb, child.rss_mb)
                stdout = out.read_text() if out.exists() else ""
                ops, failed, wrong = workloads.check_command(
                    cmd, child.exit_code, stdout, self.cwd)
                detail = {}
                if failed:
                    err = out.with_suffix(".err")
                    lines = err.read_text().strip().splitlines() if err.exists() else []
                    detail["stderr_tail"] = lines[-1] if lines else ""
                self.count(job.job_id, cmd.kind, ops, failed, wrong,
                           expected=cmd.expect_exit, got=child.exit_code, **detail)
                if traced:
                    rows += workloads.csv_row_count(self.cwd / cmd.csv_path)
                    if span_file.exists():
                        doc = json.loads(span_file.read_text())
                        spans.append(doc["spans"])
                        self.import_s.append(doc["import_s"])
            if not traced:
                self.job_time(job.job_id, time.perf_counter() - t_job)
        wall = time.perf_counter() - t_pass
        if traced:
            self.traced_walls.append(wall)
            self.pass_spans.append(tracer.merge(spans))
            self.csv_rows.append(rows)
        else:
            self.walls.append(wall)

    def job_time(self, job_id: str, seconds: float) -> None:
        self.job_times.setdefault(job_id, []).append(seconds)

    def count(self, job_id, kind, ops, failed, wrong, **detail) -> None:
        self.tally.attempted += ops
        self.tally.failed += failed
        self.tally.wrong.extend(wrong)
        if failed:
            self.tally.failures.append(dict(job=job_id, kind=kind, ops=ops,
                                            failed=failed, **detail))

    def run_cli(self, jobs: list[workloads.Job]) -> None:
        self.start_passes = time.perf_counter()
        while self.want_pass():
            traced = self.trace and len(self.walls) > len(self.traced_walls)
            self.cli_pass(jobs, traced)

    # ------------------------------------------------------- library batch
    def run_library(self, config_dir: Path) -> None:
        result = self.dir / "library_result.json"
        argv = [sys.executable, CHILD, "library", str(config_dir), str(result),
                repr(float(self.seconds)), repr(self.timeout)]
        if self.trace:
            argv.append("--trace")
        child = spawn(argv, cwd=self.cwd, env=self.env,
                      timeout=self.child_timeout(RUN_LIMIT_S),
                      stdout_path=self.cwd / "library.out", wait_ready=True)
        self.tally.rss_mb = max(self.tally.rss_mb, child.rss_mb)
        problems = len(list(config_dir.glob("*.json")))
        if child.exit_code != 0 or not result.exists():
            self.count("library", "worker", problems, problems, [],
                       expected=0, got=child.exit_code)
            return
        doc = json.loads(result.read_text())
        self.tally.wrong.extend(doc["wrong"])
        self.import_s.append(doc["import_s"])
        for p in doc["passes"]:
            for job in p["jobs"]:
                failed = int(not (job["converged"] and job["passed"]))
                self.count(job["job"], "library", 1, failed, [],
                           regime=job["regime"], error=job["error"],
                           distance=job.get("distance"))
                if not p["traced"]:
                    self.job_time(job["job"], job["seconds"])
            if p["traced"]:
                self.traced_walls.append(p["wall_s"])
                self.pass_spans.append(p["spans"])
                self.csv_rows.append(0)
            else:
                self.walls.append(p["wall_s"])
        self.once_spans = doc["once_spans"]

    # -------------------------------------------------------------- metrics
    def end_to_end(self, setup_samples: list[float], jobs_per_pass: int) -> dict:
        q, _ = tail_rank(jobs_per_pass)
        t = self.tally
        # Times are means over the passes, then quantiles over the job list.
        # The host's speed switches between a fast and a slow state every
        # few seconds; a median over passes jumps between the two, a mean
        # follows the share of time spent in each.  A quantile of all samples
        # of a mixed job list would also sit in one job's tail.
        per_job = [statistics.fmean(v) for v in self.job_times.values()]
        return {
            "wall_s": statistics.fmean(self.walls),
            "job_p50_s": statistics.median(per_job),
            "job_tail_s": quantile(per_job, q),
            "peak_rss_mb": t.rss_mb,
            "setup_s": statistics.median(setup_samples),
            "ops_ok_share": 1.0 - t.failed / t.attempted,
        }

    def per_layer(self) -> dict:
        passes = [tracer.layer_metrics(s) for s in self.pass_spans]
        once = tracer.layer_metrics(self.once_spans)
        # shares are taken over the traced passes and the one-off spans
        shares = tracer.layer_metrics(
            tracer.merge([self.once_spans, *self.pass_spans]))
        out = {}
        for name in tracer.PER_LAYER:
            if name.endswith("_share"):
                out[name] = shares[name]
            else:
                out[name] = once[name] + statistics.fmean(p[name] for p in passes)
        out["cli.import_s"] = statistics.median(self.import_s) if self.import_s else 0.0
        out["cli.csv_rows"] = statistics.fmean(self.csv_rows)
        out["trace.overhead_share"] = (statistics.fmean(self.traced_walls)
                                       / statistics.fmean(self.walls) - 1.0)
        return out


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "oddperiodic").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def stamp(run: Run, child_info: dict, passes: int) -> dict:
    """The environment a result was measured in.  Results whose
    ``stamp_key`` differ must not be compared."""
    env = {
        "python": child_info.get("python"),
        "numpy": child_info.get("numpy"),
        "blas": child_info.get("blas"),
        "blas_threads": child_info.get("blas_threads"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "platform": platform.platform(),
    }
    key = hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()[:16]
    return {**env, "stamp_key": key, "git_commit": git_commit(),
            "src_digest": source_digest(run.src), "workload": run.workload,
            "seed": run.seed, "seconds": run.seconds, "trace": int(run.trace),
            "passes": passes}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 src: Path, out_root: Path = ROOT / ".bench_out") -> dict:
    run = Run(workload, seed, seconds, trace, src, out_root)
    if workload == "library_batch":
        config_dir = workloads.library_inputs(run.dir, seed)
        jobs_per_pass = workloads.LIBRARY_PROBLEMS
        setup_samples, child_info = run.setup(config_dir)
        run.run_library(config_dir)
    else:
        make = (workloads.highmodes_jobs if workload == "highmodes_cli"
                else workloads.sweep_jobs)
        jobs = make(run.dir, seed)
        jobs_per_pass = len(jobs)
        setup_samples, child_info = run.setup(run.dir / "configs")
        run.run_cli(jobs)

    t = run.tally
    if not run.walls or t.attempted == 0:
        raise BenchError("no pass completed within the run limit")
    metrics = run.per_layer() if trace else run.end_to_end(setup_samples, jobs_per_pass)
    units = tracer.PER_LAYER if trace else END_TO_END
    result = {
        "workload": workload,
        "correct": not t.wrong,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "tail_percentile": tail_rank(jobs_per_pass)[1],
        "samples": {"passes": len(run.walls), "traced_passes": len(run.traced_walls),
                    "jobs": sum(map(len, run.job_times.values())),
                    "setup": len(setup_samples)},
        "pass_walls_s": run.walls,
        "job_times_s": run.job_times,
        "traced_pass_walls_s": run.traced_walls,
        "setup_samples_s": setup_samples,
        "wrong": t.wrong,
        "failures": t.failures,
        "stamp": stamp(run, child_info, len(run.walls) + len(run.traced_walls)),
    }
    (run.dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    if trace:
        (run.dir / "spans.json").write_text(json.dumps(
            {"once": run.once_spans, "passes": run.pass_spans}))
    shutil.rmtree(run.cwd, ignore_errors=True)
    return result


def print_table(result: dict) -> None:
    s = result["samples"]
    print(f"== {result['workload']}: {s['passes']} passes, {s['jobs']} jobs, "
          f"{s['traced_passes']} traced passes, {s['setup']} set-ups")
    for name, m in result["metrics"].items():
        note = ""
        if name == "job_tail_s":
            note = f"  ({result['tail_percentile']} of job time)"
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}{note}")
    share = result["failed"] / result["attempted"]
    print(f"  {'ops_failed_share':44s} {share:14.6g} share"
          f"  ({result['failed']} of {result['attempted']} operations failed)")
    for wrong in result["wrong"][:10]:
        print(f"  WRONG OUTPUT: {wrong}")
    print(f"  stamp {result['stamp']['stamp_key']}  "
          f"commit {result['stamp']['git_commit']}  seed {result['stamp']['seed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        src = locate_src(ROOT)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace), src)
                   for name in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print_table(result)
    if len(results) == 1:
        r = results[0]
        line = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
