"""Check that two source trees give the same CLI output, byte for byte.

Usage:

    python tools/same_records.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory that holds the ``oddperiodic``
package.  The script runs one fixed set of 128 CLI commands (below) once
per tree, with that tree first on ``PYTHONPATH``, each tree in its own
temporary directory holding a copy of ``configs/``, a fixed set of
malformed solution files for ``verify`` to refuse, the files of the
``verify`` runs that take the oracle's bracket phase, a fixed set of
configs that take the error and override paths of a problem's certificate
and a-priori bound, a config forced at two modes, a config whose iterates
overflow, a config with a derivative bound override for a ``--param``
sweep, a config at period 1e-150, where (2*pi*n/T)^2 overflows, a
config forced at a mode above the 4096 points of a shot's grid of k, and
a config with JSON booleans where numbers belong.  It
then compares what the two runs left: every record
on stdout, every stderr, every exit code, and every CSV and sidecar
written.  The only part left out is the ``wall_time_s`` field of records
and sidecars.  The names of the files that differ are printed, and the
exit code is 1 if any differ, else 0.  A differing record (``.stdout``)
or sidecar (``.json``) that both runs wrote as JSON is followed by the
dotted key paths at which the two differ, list items by index, for
example ``cmd_94.stdout: outcome.apriori_bound``.

Standard library only.  The two trees run side by side, one command at a
time each; on two cores the whole set takes about 90 s.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
NAMES = ("cubic_large", "linear_small", "pendulum", "tanh", "zero")
# the wall time with the separator before it; the rest of a record stays
WALL_TIME = re.compile(rb',?\s*"wall_time_s": [^,\n}]+')
TIMEOUT_S = 600
# a key that one of two JSON objects lacks
_MISSING = object()


def _sweep(cfg, param, start, stop, steps, modes, *extra):
    return ["sweep", cfg, "--param", param,
            "--from", str(start), "--to", str(stop), "--steps", str(steps),
            "--modes", str(modes), *extra]


def malformed_solutions() -> dict[str, str]:
    """Solution files with one defect each, by file name: each starts from
    the closed-form solution u = -sin t of ``configs/zero.json`` on 8
    points."""
    period = json.loads((CONFIGS / "zero.json").read_text())["period"]
    t = [j * period / 8 for j in range(8)]
    header = "t,u,u_prime,residual_pointwise"
    rows = [f"{tj!r},{-math.sin(tj)!r},{-math.cos(tj)!r},0.0" for tj in t]
    t3, u3, rest3 = rows[3].split(",", 2)

    def text(*lines):
        return "".join(line + "\n" for line in lines)

    def row3(line):
        return text(header, *rows[:3], line, *rows[4:])

    return {
        "bad_five_cells.csv": row3(rows[3] + ",0.0"),
        "bad_five_cells_abc.csv": row3(rows[3] + ",abc"),
        "bad_quoted_u.csv": row3(f'{t3},"{u3}",{rest3}'),
        "bad_header.csv": text("t,u,u_prime", *rows),
        "bad_odd_rows.csv": text(header, *rows[:7]),
        "bad_long_line.csv": row3((rows[3] + ",0" * 600)[:1025]),
        "bad_nul_byte.csv": row3(f"{t3},\0{u3},{rest3}"),
        "bad_blank_line.csv": text(header, *rows[:4], "", *rows[4:]),
    }


def shooting_inputs() -> dict[str, str]:
    """Files by name for ``verify`` runs that take :func:`shoot` past its
    first midpoint: the sign-flipped solution u = +sin t of
    ``configs/zero.json`` on 8 points (no root in its bracket, so the
    oracle is inconclusive), a solution on period 1e-150 whose slope u'
    overflows, and a forced pendulum with two odd solutions whose slopes
    share one bracket."""
    zero = json.loads((CONFIGS / "zero.json").read_text())
    period, tiny = zero["period"], 1e-150
    header = "t,u,u_prime,residual_pointwise\n"
    flipped = [f"{j * period / 8!r},{math.sin(j * period / 8)!r},"
               f"{math.cos(j * period / 8)!r},0.0\n" for j in range(8)]
    overflowing = [f"{j * tiny / 8!r},{-1e158 * math.sin(j * period / 8)!r},"
                   "0.0,0.0\n" for j in range(8)]
    return {
        "flipped_sign.csv": header + "".join(flipped),
        "zero_tiny_period.json": json.dumps(dict(zero, period=tiny)),
        "overflowing_slope.csv": header + "".join(overflowing),
        "two_branch_pendulum.json": json.dumps({
            "family": "pendulum", "params": {"a": 0.8510919489882861},
            "period": 8.377995415034054,
            "forcing": [{"mode": 5, "amplitude": -0.18810434416878308},
                        {"mode": 8, "amplitude": 0.4008348930932357},
                        {"mode": 2, "amplitude": -0.44187539730181546}]}),
    }


def derived_constant_configs() -> dict[str, str]:
    """Configs by file name, each ``configs/pendulum.json`` with one
    override: a certificate or a-priori bound that overflows, majorants
    that are refused or unusable at the base period 2*pi, and both
    overrides at once."""
    base = json.loads((CONFIGS / "pendulum.json").read_text())
    overrides = {
        "derived_huge_bound.json": {"derivative_bound": 1e308},
        "derived_huge_amplitude.json": {
            "forcing": [{"mode": 1, "amplitude": 1e308}]},
        "derived_negative_M.json": {"majorants": [{"eps": 0.0, "M": -1.0}]},
        "derived_negative_eps.json": {"majorants": [{"eps": -1.0, "M": 0.0}]},
        "derived_unusable_eps.json": {"majorants": [{"eps": 1.0, "M": 0.0}]},
        "derived_both_overrides.json": {
            "derivative_bound": 0.05, "majorants": [{"eps": 0.0, "M": 0.04}]},
    }
    return {name: json.dumps(dict(base, **override))
            for name, override in overrides.items()}


def multi_mode_configs() -> dict[str, str]:
    """Configs by file name: ``configs/tanh.json`` forced at modes 1 and 3
    (amplitudes 1 and 0.5), so that its a-priori bound and the oracle's
    samples of k take more than one forcing mode."""
    base = json.loads((CONFIGS / "tanh.json").read_text())
    forcing = [{"mode": 1, "amplitude": 1.0}, {"mode": 3, "amplitude": 0.5}]
    return {"tanh_two_modes.json": json.dumps(dict(base, forcing=forcing))}


def overflowing_configs() -> dict[str, str]:
    """Configs by file name: ``configs/linear_small.json`` at period
    1e150, where the inverse's gains (T/(2*pi*n))^2 ~ 2.5e297 make the
    iterate overflow."""
    base = json.loads((CONFIGS / "linear_small.json").read_text())
    return {"linear_huge_period.json": json.dumps(dict(base, period=1e150))}


def bound_override_configs() -> dict[str, str]:
    """Configs by file name: ``configs/tanh.json`` with a derivative_bound
    override of 2, at or above every s of its ``--param`` sweep."""
    base = json.loads((CONFIGS / "tanh.json").read_text())
    return {"tanh_bound_override.json": json.dumps(dict(base, derivative_bound=2.0))}


def tiny_period_configs() -> dict[str, str]:
    """Configs by file name: ``configs/pendulum.json`` at period 1e-150,
    where (2*pi*n/T)^2 overflows for n above about 2100."""
    base = json.loads((CONFIGS / "pendulum.json").read_text())
    return {"pendulum_tiny_period.json": json.dumps(dict(base, period=1e-150))}


def high_mode_configs() -> dict[str, str]:
    """Configs by file name: ``configs/pendulum.json`` forced at mode 1 and
    at mode 5000 (amplitude 1e-8), above the 4096 points on which the
    oracle samples k for a shot, so that the samples fold it."""
    base = json.loads((CONFIGS / "pendulum.json").read_text())
    forcing = base["forcing"] + [{"mode": 5000, "amplitude": 1e-8}]
    return {"pendulum_high_mode.json": json.dumps(dict(base, forcing=forcing))}


def boolean_configs() -> dict[str, str]:
    """Configs by file name: ``configs/pendulum.json`` with JSON booleans
    as its period, its parameter and its forcing amplitude, which are
    refused as numbers."""
    base = json.loads((CONFIGS / "pendulum.json").read_text())
    return {"boolean_numbers.json": json.dumps(dict(
        base, params={"a": True}, period=True,
        forcing=[{"mode": 1, "amplitude": False}]))}


def commands() -> list[list[str]]:
    """The command set: each argv runs as ``python -m oddperiodic argv``."""
    cmds = [
        # the three threshold_sweep ranges, across each certificate threshold
        _sweep("configs/pendulum.json", "period", 1.0, 12.0, 40, 64),
        _sweep("configs/tanh.json", "period", 0.5, 6.0, 40, 64),
        _sweep("configs/linear_small.json", "period", 2.0, 20.0, 40, 64),
        # rows that do not converge
        _sweep("configs/cubic_large.json", "period", 1.0, 8.0, 8, 64),
        # one g per row
        _sweep("configs/pendulum.json", "a", 0.01, 2.0, 20, 64),
        _sweep("configs/tanh.json", "s", 0.1, 8.0, 40, 64),
        # continuation stages that hit the cap and halve their step
        _sweep("configs/tanh.json", "period", 0.5, 6.0, 40, 64, "--max-iter", "40"),
        # 20 rows of 16384 modes: two passes
        _sweep("configs/pendulum.json", "period", 1.0, 12.0, 20, 16384, "--max-iter", "2"),
        # 600 rows of 8 modes: passes of 256, 256 and 88 rows, and a record
        # with null cells
        _sweep("configs/cubic_large.json", "period", 1.0, 40.0, 600, 8),
    ]
    cmds = [argv + ["--out", f"sweep_{i}.csv"] for i, argv in enumerate(cmds)]
    for name in NAMES:
        cfg = f"configs/{name}.json"
        for modes in (64, 1024, 2048):
            out = f"{name}_{modes}.csv"
            cmds.append(["solve", cfg, "--modes", str(modes), "--out", out])
            cmds.append(["verify", cfg, out])
        cmds.append(["compare", cfg, "--modes", "128"])
        cmds.append(["certify", cfg])
        for method in ("picard", "continuation"):
            cmds.append(["solve", cfg, "--method", method, "--modes", "128",
                         "--out", f"{name}_{method}.csv"])
    # one refused value of each solver limit
    cmds += [["solve", "configs/pendulum.json", "--modes", "0",
              "--out", "limit_modes_0.csv"],
             ["solve", "configs/pendulum.json", "--modes", "65537",
              "--out", "limit_modes_65537.csv"],
             _sweep("configs/pendulum.json", "period", 1.0, 12.0, 4, 64,
                    "--tol", "nan", "--out", "limit_tol_nan.csv"),
             ["compare", "configs/pendulum.json", "--max-iter", "0"],
             ["verify", "configs/zero.json", "zero_64.csv", "--tol", "0"]]
    # the reader's error records
    cmds += [["verify", "configs/zero.json", name]
             for name in malformed_solutions()]
    # shoot past its first midpoint: at low truncation orders, on a
    # sign-flipped solution (inconclusive), on a slope that overflows, and
    # on the second of two solutions whose slopes share one bracket
    for name, modes in (("pendulum", 2), ("tanh", 8)):
        out = f"{name}_bracket_{modes}.csv"
        cmds.append(["solve", f"configs/{name}.json", "--modes", str(modes),
                     "--out", out])
        cmds.append(["verify", f"configs/{name}.json", out])
    cmds += [["compare", "configs/tanh.json", "--modes", "8"],
             ["verify", "configs/zero.json", "flipped_sign.csv"],
             ["verify", "zero_tiny_period.json", "overflowing_slope.csv"],
             ["solve", "two_branch_pendulum.json", "--modes", "128",
              "--out", "two_branch_pendulum.csv"],
             ["verify", "two_branch_pendulum.json", "two_branch_pendulum.csv"]]
    for cfg in derived_constant_configs():
        stem = cfg.removesuffix(".json")
        cmds += [
            ["certify", cfg],
            ["solve", cfg, "--method", "continuation", "--modes", "128",
             "--out", f"{stem}_continuation.csv"],
            _sweep(cfg, "period", 1.0, 12.0, 8, 64,
                   "--out", f"{stem}_period.csv"),
            _sweep(cfg, "a", 0.01, 0.06, 6, 64, "--out", f"{stem}_a.csv"),
        ]
    # a forcing of two modes: continuation against its a-priori bound, the
    # oracle, and a period sweep
    for cfg in multi_mode_configs():
        stem = cfg.removesuffix(".json")
        cmds += [["solve", cfg, "--method", "continuation", "--modes", "128",
                  "--out", f"{stem}_continuation.csv"],
                 ["compare", cfg, "--modes", "128"],
                 _sweep(cfg, "period", 0.5, 6.0, 5, 64,
                        "--out", f"{stem}_period.csv")]
    # iterates that overflow: in a solve of each method, in compare, and in
    # sweep rows of huge periods
    for cfg in overflowing_configs():
        stem = cfg.removesuffix(".json")
        cmds += [["solve", cfg, "--method", method,
                  "--out", f"{stem}_{method}.csv"]
                 for method in ("auto", "picard", "continuation")]
        cmds.append(["compare", cfg])
    cmds += [_sweep("configs/linear_small.json", "period", 1e15, 1e20, 2, 256,
                    "--out", "sweep_overflow.csv"),
             _sweep("configs/linear_small.json", "period",
                    "12345678901234567890", 1e308, 1, 1,
                    "--out", "sweep_overflow_fuzz.csv")]
    # --param sweeps of each family with a parameter, one with a bound
    # override, and a period sweep of zero: rows of one family share g
    cmds += [_sweep(cfg, param, start, stop, 5, 64, "--out", f"family_{i}.csv")
             for i, (cfg, param, start, stop) in enumerate([
                 ("configs/linear_small.json", "c", 0.01, 0.5),
                 ("configs/pendulum.json", "a", 0.01, 0.5),
                 ("configs/tanh.json", "s", 0.1, 2.0),
                 ("configs/cubic_large.json", "c3", 0.1, 1.0),
                 ("tanh_bound_override.json", "s", 0.1, 2.0),
                 ("configs/zero.json", "period", 1.0, 12.0)])]
    # u'' where (2*pi*n/T)^2 overflows: solve, then verify the CSV
    for cfg in tiny_period_configs():
        for modes in (2048, 4096):
            out = f"{cfg.removesuffix('.json')}_{modes}.csv"
            cmds += [["solve", cfg, "--modes", str(modes), "--out", out],
                     ["verify", cfg, out]]
    # a forcing mode folded onto the shot grid: solve, verify and a sweep
    for cfg in high_mode_configs():
        stem = cfg.removesuffix(".json")
        cmds += [["solve", cfg, "--modes", "64", "--out", f"{stem}.csv"],
                 ["verify", cfg, f"{stem}.csv"],
                 _sweep(cfg, "period", 1.0, 12.0, 8, 64,
                        "--out", f"{stem}_period.csv")]
    # booleans where numbers belong: refused, not read as 1 and 0
    cmds += [["certify", cfg] for cfg in boolean_configs()]
    return cmds


def run_all(src: Path, workdir: Path) -> None:
    """Run every command with ``src`` first on PYTHONPATH, in ``workdir``;
    command i leaves ``cmd_i.stdout``, ``cmd_i.stderr`` and ``cmd_i.exit``."""
    shutil.copytree(CONFIGS, workdir / "configs")
    for name, text in {**malformed_solutions(), **shooting_inputs(),
                       **derived_constant_configs(),
                       **multi_mode_configs(),
                       **overflowing_configs(), **bound_override_configs(),
                       **tiny_period_configs(), **high_mode_configs(),
                       **boolean_configs()}.items():
        (workdir / name).write_bytes(text.encode())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    for i, argv in enumerate(commands()):
        done = subprocess.run([sys.executable, "-m", "oddperiodic", *argv],
                              cwd=workdir, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
        stem = workdir / f"cmd_{i:02d}"
        stem.with_suffix(".stdout").write_bytes(done.stdout)
        stem.with_suffix(".stderr").write_bytes(done.stderr)
        stem.with_suffix(".exit").write_text(f"{done.returncode}\n")


def _content(path: Path) -> bytes:
    data = path.read_bytes()
    if path.suffix in (".json", ".stdout"):
        data = WALL_TIME.sub(b"", data)
    return data


def differing(a: Path, b: Path) -> list[str]:
    """Relative paths of the files that differ between the two runs, or
    exist in one only."""
    files = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(f) for f in files
                  if not ((a / f).is_file() and (b / f).is_file()
                          and _content(a / f) == _content(b / f)))


def json_paths(a, b, path: tuple = ()) -> list[str]:
    """The dotted key paths at which two parsed JSON values differ; a leaf
    differs where its JSON text does, so -0.0 differs from 0.0."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for key in sorted(a.keys() | b.keys())
                for p in json_paths(a.get(key, _MISSING), b.get(key, _MISSING),
                                    path + (key,))]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in json_paths(x, y, path + (str(i),))]
    same = _MISSING not in (a, b) and json.dumps(a) == json.dumps(b)
    return [] if same else [".".join(path) or "(root)"]


def _record(path: Path):
    """The JSON document in ``path`` without its ``wall_time_s`` field."""
    record = json.loads(path.read_bytes())
    if isinstance(record, dict):
        record.pop("wall_time_s", None)
    return record


def described(a: Path, b: Path, name: str) -> str:
    """``name``, followed for a record or sidecar that both runs wrote as
    JSON by the key paths at which the two differ."""
    if Path(name).suffix not in (".json", ".stdout"):
        return name
    try:
        paths = json_paths(_record(a / name), _record(b / name))
    except (OSError, ValueError):
        return name
    return f"{name}: {', '.join(paths)}" if paths else name


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    srcs = [Path(arg).resolve() for arg in argv]
    for src in srcs:
        if not (src / "oddperiodic" / "__init__.py").is_file():
            print(f"no oddperiodic package under {src}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / "parent", Path(tmp) / "change"]
        for d in dirs:
            d.mkdir()
        threads = [threading.Thread(target=run_all, args=pair)
                   for pair in zip(srcs, dirs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        last = f"cmd_{len(commands()) - 1:02d}.exit"
        if not all((d / last).is_file() for d in dirs):
            print("a run did not complete", file=sys.stderr)
            return 1
        outputs = sum(1 for p in dirs[0].rglob("*") if p.is_file())
        diff = [described(*dirs, name) for name in differing(*dirs)]
    for line in diff:
        print(line)
    print(f"{len(commands())} commands, {outputs} files, {len(diff)} differ",
          file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
