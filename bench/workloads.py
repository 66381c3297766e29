"""Seeded inputs, job lists and output checks for the three workloads.

Every input the program sees is generated here from the workload seed and
written into the run directory, so a result can be re-checked later on the
same inputs or on an unseen seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Acceptance tolerance of every oracle check (the default of ``verify``).
ORACLE_TOL = 1e-6

# Copies of configs/*.json at the commit that defined the benchmark; kept
# here so that a later change to the examples does not change the workload.
BASE_CONFIGS = {
    "pendulum": {
        "family": "pendulum", "params": {"a": 0.04},
        "period": 6.283185307179586,
        "forcing": [{"mode": 1, "amplitude": 0.05}],
        "label": "forced pendulum, certified regime"},
    "tanh": {
        "family": "tanh_g", "params": {"s": 1.0},
        "period": 6.283185307179586,
        "forcing": [{"mode": 1, "amplitude": 0.5}],
        "label": "bounded nonlinearity, continuation regime"},
    "linear_small": {
        "family": "linear", "params": {"c": 0.01},
        "period": 6.283185307179586,
        "forcing": [{"mode": 1, "amplitude": 1.0}],
        "label": "weak linear restoring force"},
    "cubic_large": {
        "family": "cubic", "params": {"c3": 1.0},
        "period": 6.283185307179586,
        "forcing": [{"mode": 1, "amplitude": 5.0}],
        "label": "superlinear negative control"},
}

# (config, truncation order, expected solve exit, expected verify exit).
# cubic_large is the negative control: no certificate and no majorant, so
# solve ends in non-convergence (4) and verify must report failure (5).
HIGHMODES_JOBS = [
    ("pendulum", 1024, 0, 0),
    ("pendulum", 2048, 0, 0),
    ("tanh", 1024, 0, 0),
    ("linear_small", 2048, 0, 0),
    ("cubic_large", 1024, 4, 5),
]

# (config, period from, period to): each range crosses the certificate
# threshold T* = sqrt(2 / sup|g'|).
SWEEP_RANGES = [
    ("pendulum", 1.0, 12.0),
    ("tanh", 0.5, 6.0),
    ("linear_small", 2.0, 20.0),
]
SWEEP_STEPS = 40
SWEEP_MODES = 64

LIBRARY_FAMILIES = ("zero", "linear", "pendulum", "tanh_g")
LIBRARY_PROBLEMS = 240
# Untimed warm-up of the library batch, one fixed problem per family, so
# that the cost of set-up does not depend on the seed.
LIBRARY_WARMUP = [
    {"family": "zero", "params": {}, "period": 6.283185307179586,
     "forcing": [{"mode": 1, "amplitude": 1.0}]},
    BASE_CONFIGS["linear_small"], BASE_CONFIGS["pendulum"], BASE_CONFIGS["tanh"],
]

# Timeout of one CLI command or one library job, in seconds.  Nearly all
# library jobs end within 1 s.  A problem whose continuation stalls (about
# one in 500; one took 57 s to end in step_underflow) is cut at 3 s and
# counts as failed, so that it shows without dominating the pass.
JOB_TIMEOUT_S = {"highmodes_cli": 60.0, "threshold_sweep": 60.0,
                 "library_batch": 3.0}


@dataclass
class Command:
    """One CLI invocation with the exit code a correct program returns."""

    argv: list[str]
    expect_exit: int
    kind: str                      # solve | verify | sweep
    csv_path: str | None = None    # CSV written (solve, sweep) or read (verify)
    modes: int = 0
    sweep: dict | None = None      # sup|g'|, period range and steps of a sweep


@dataclass
class Job:
    job_id: str
    commands: list[Command]


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _sup_gprime(cfg: dict) -> float:
    """sup|g'| of a built-in family, computed here independently: the
    absolute value of its one parameter (0 for ``zero``)."""
    return abs(float(next(iter(cfg["params"].values()), 0.0)))


def highmodes_jobs(run_dir: Path, seed: int) -> list[Job]:
    """solve then verify of each committed config at high truncation order.

    The job list is fixed; the seed only names the run.
    """
    del seed
    cfg_dir = run_dir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name, modes, solve_exit, verify_exit in HIGHMODES_JOBS:
        cfg_path = cfg_dir / f"{name}.json"
        _write_json(cfg_path, BASE_CONFIGS[name])
        sol = f"{name}_{modes}.csv"
        jobs.append(Job(f"{name}@{modes}", [
            Command(["solve", str(cfg_path), "--modes", str(modes), "--out", sol],
                    solve_exit, "solve", csv_path=sol, modes=modes),
            Command(["verify", str(cfg_path), sol], verify_exit, "verify",
                    csv_path=sol, modes=modes),
        ]))
    return jobs


def sweep_jobs(run_dir: Path, seed: int) -> list[Job]:
    """One period sweep per config, each range shifted by a seeded fraction
    of one step so that every seed samples different periods."""
    rng = random.Random(seed)
    cfg_dir = run_dir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name, lo, hi in SWEEP_RANGES:
        cfg = BASE_CONFIGS[name]
        cfg_path = cfg_dir / f"{name}.json"
        _write_json(cfg_path, cfg)
        shift = rng.random() * (hi - lo) / (SWEEP_STEPS - 1)
        start, stop = repr(lo + shift), repr(hi + shift)
        out = f"sweep_{name}.csv"
        argv = ["sweep", str(cfg_path), "--param", "period", "--from", start,
                "--to", stop, "--steps", str(SWEEP_STEPS),
                "--modes", str(SWEEP_MODES), "--out", out]
        jobs.append(Job(f"sweep:{name}", [Command(
            argv, 0, "sweep", csv_path=out,
            sweep={"lipschitz": _sup_gprime(cfg), "start": float(start),
                   "stop": float(stop), "steps": SWEEP_STEPS})]))
    return jobs


def library_inputs(run_dir: Path, seed: int) -> Path:
    """Write the library batch's configs, one file each; return their dir."""
    cfg_dir = run_dir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for i, cfg in enumerate(library_configs(seed)):
        _write_json(cfg_dir / f"lib{i:03d}.json", cfg)
    return cfg_dir


def library_configs(seed: int) -> list[dict]:
    """Stratified random problems for the library batch.

    Families take equal shares.  Within a family the period (U[1, 10]) and
    the family parameter are drawn one per stratum and shuffled, so that two
    seeds give batches of the same make-up with different values.  Each
    problem has 1-3 forcing modes in 1..8 with amplitudes from U[-1, 1].
    Parameters: linear c = U[-1, 1] * 1.9 / T^2 (inside the certificate),
    pendulum a and tanh_g s from U[0, 1], so that sup|g'| <= 1 for both.
    """
    rng = random.Random(seed)
    per_family = -(-LIBRARY_PROBLEMS // len(LIBRARY_FAMILIES))

    def strata(lo, hi):
        vals = [lo + (hi - lo) * (i + rng.random()) / per_family
                for i in range(per_family)]
        rng.shuffle(vals)
        return vals

    columns = {}
    for family in LIBRARY_FAMILIES:
        columns[family] = list(zip(strata(1.0, 10.0), strata(0.0, 1.0)))
    configs = []
    for i in range(LIBRARY_PROBLEMS):
        family = LIBRARY_FAMILIES[i % len(LIBRARY_FAMILIES)]
        period, u = columns[family][i // len(LIBRARY_FAMILIES)]
        params = {
            "zero": {},
            "linear": {"c": (2.0 * u - 1.0) * 1.9 / period ** 2},
            "pendulum": {"a": u},
            "tanh_g": {"s": u},
        }[family]
        modes = sorted(rng.sample(range(1, 9), 1 + i // len(LIBRARY_FAMILIES) % 3))
        forcing = [{"mode": m, "amplitude": rng.uniform(-1.0, 1.0)} for m in modes]
        configs.append({"family": family, "params": params, "period": period,
                        "forcing": forcing, "label": f"library_batch #{i}"})
    return configs


# ---------------------------------------------------------------- checks

def _csv_rows(path: Path) -> tuple[list[str], list[list[str]]] | None:
    if not path.is_file():
        return None
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else None


def csv_row_count(path: Path) -> int:
    """Data rows of a CSV the CLI wrote or read (0 if it is missing)."""
    table = _csv_rows(path)
    return len(table[1]) if table else 0


def check_command(cmd: Command, exit_code: int | None, stdout: str,
                  cwd: Path) -> tuple[int, int, list[str]]:
    """Judge one finished CLI command.

    Returns (operations, failed operations, wrong outputs).  An operation
    fails when it does not end in its expected outcome (a traceback, a
    timeout or an unexpected exit code).  A wrong output is a result that
    contradicts itself or an independent check; it makes the run incorrect.
    """
    wrong: list[str] = []
    record = None
    if exit_code in (0, 4, 5):  # the outcomes whose record is checked
        try:
            record = json.loads(stdout)
        except json.JSONDecodeError:
            wrong.append(f"{cmd.kind}: exit {exit_code} without a JSON record")

    if cmd.kind == "sweep":
        spec = cmd.sweep
        ops = spec["steps"]
        if exit_code != cmd.expect_exit or record is None:
            return ops, ops, wrong
        rows = record.get("outcome", {}).get("rows", [])
        table = _csv_rows(cwd / cmd.csv_path)
        if len(rows) != ops or table is None or len(table[1]) != ops:
            wrong.append("sweep: row count differs from --steps")
            return ops, ops, wrong
        failed = 0
        for i, row in enumerate(rows):
            period = spec["start"] + (spec["stop"] - spec["start"]) * i / (ops - 1)
            lam = spec["lipschitz"] * period ** 2 / 2.0
            if not math.isclose(row["lambda"], lam, rel_tol=1e-9, abs_tol=1e-15):
                wrong.append(f"sweep: lambda {row['lambda']!r} != {lam!r}")
            if row["holds"] != (row["lambda"] < 1.0):
                wrong.append(f"sweep: holds={row['holds']} at lambda {row['lambda']!r}")
            dist = row["oracle_distance"]
            if row["converged"] and not (dist is not None and dist <= ORACLE_TOL):
                failed += 1
        return ops, failed, wrong

    failed = int(exit_code != cmd.expect_exit)
    if record is not None:
        outcome = record.get("outcome", {})
        if cmd.kind == "solve":
            if outcome.get("converged") != (exit_code == 0):
                wrong.append(f"solve: exit {exit_code} but converged="
                             f"{outcome.get('converged')}")
            table = _csv_rows(cwd / cmd.csv_path)
            if table is None or len(table[1]) != 4 * cmd.modes:
                wrong.append("solve: solution CSV missing or not 4N rows")
            if exit_code == 0 and not outcome.get("residual", math.inf) <= ORACLE_TOL:
                wrong.append(f"solve: converged with residual {outcome.get('residual')}")
        elif cmd.kind == "verify":
            if outcome.get("passed") != (exit_code == 0):
                wrong.append(f"verify: exit {exit_code} but passed="
                             f"{outcome.get('passed')}")
    return 1, failed, wrong
