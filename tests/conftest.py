import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oddperiodic
from oddperiodic import OddPeriodicFunction

# Directory that holds the imported `oddperiodic` package; CLI children get it
# first on PYTHONPATH so they run the same code as the tests from any cwd.
PACKAGE_ROOT = str(Path(oddperiodic.__file__).resolve().parent.parent)
# Far above the slowest child (about 2 s): a hung child fails its own test.
CLI_TIMEOUT_S = 300


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env


def _run_python(*args, cwd):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=cwd, env=_env(), timeout=CLI_TIMEOUT_S)


@pytest.fixture
def run_python():
    """`run_python(*args, cwd=...)` runs `python *args` in `cwd`."""
    return _run_python


@pytest.fixture
def run_cli():
    """`run_cli(*args, cwd=...)` runs `python -m oddperiodic *args` in `cwd`."""
    return lambda *args, cwd: _run_python("-m", "oddperiodic", *args, cwd=cwd)


@pytest.fixture
def spawn_cli():
    """`spawn_cli(*args, cwd=...)` starts `python -m oddperiodic *args` in
    `cwd` with its stdout and stderr on pipes, as bytes."""
    return lambda *args, cwd: subprocess.Popen(
        [sys.executable, "-m", "oddperiodic", *args], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, cwd=cwd, env=_env())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def make_random_odd():
    """Factory for random sine polynomials: (rng, max_modes, period range)."""

    def factory(rng, max_modes=64, t_range=(0.5, 20.0)):
        modes = int(rng.integers(1, max_modes + 1))
        period = float(rng.uniform(*t_range))
        coeffs = rng.uniform(-1.0, 1.0, modes)
        return OddPeriodicFunction(period, coeffs)

    return factory
