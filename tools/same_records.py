"""Check that two source trees give the same CLI output, byte for byte.

Usage:

    python tools/same_records.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory that holds the ``oddperiodic``
package.  The script runs one fixed set of CLI commands (below) once per
tree, with that tree first on ``PYTHONPATH``, each tree in its own
temporary directory holding a copy of ``configs/`` and a fixed set of
malformed solution files for ``verify`` to refuse.  It then compares what
the two runs left: every record on stdout, every stderr, every exit code,
and every CSV and sidecar written.  The only part left out is the
``wall_time_s`` field of records and sidecars.  The names of the files that
differ are printed, and the exit code is 1 if any differ, else 0.

Standard library only.  The two trees run side by side, one command at a
time each; on two cores the whole set takes about 30 s.
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


def _sweep(name, param, start, stop, steps, modes, *extra):
    return ["sweep", f"configs/{name}.json", "--param", param,
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


def commands() -> list[list[str]]:
    """The command set: each argv runs as ``python -m oddperiodic argv``."""
    cmds = [
        # the three threshold_sweep ranges, across each certificate threshold
        _sweep("pendulum", "period", 1.0, 12.0, 40, 64),
        _sweep("tanh", "period", 0.5, 6.0, 40, 64),
        _sweep("linear_small", "period", 2.0, 20.0, 40, 64),
        # rows that do not converge
        _sweep("cubic_large", "period", 1.0, 8.0, 8, 64),
        # one g per row
        _sweep("pendulum", "a", 0.01, 2.0, 20, 64),
        _sweep("tanh", "s", 0.1, 8.0, 40, 64),
        # continuation stages that hit the cap and halve their step
        _sweep("tanh", "period", 0.5, 6.0, 40, 64, "--max-iter", "40"),
        # 20 rows of 16384 modes: two passes
        _sweep("pendulum", "period", 1.0, 12.0, 20, 16384, "--max-iter", "2"),
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
    # the reader's error records
    cmds += [["verify", "configs/zero.json", name]
             for name in malformed_solutions()]
    return cmds


def run_all(src: Path, workdir: Path) -> None:
    """Run every command with ``src`` first on PYTHONPATH, in ``workdir``;
    command i leaves ``cmd_i.stdout``, ``cmd_i.stderr`` and ``cmd_i.exit``."""
    shutil.copytree(CONFIGS, workdir / "configs")
    for name, text in malformed_solutions().items():
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
        diff = differing(*dirs)
    for name in diff:
        print(name)
    print(f"{len(commands())} commands, {outputs} files, {len(diff)} differ",
          file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
