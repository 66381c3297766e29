"""Every demo script runs to the end and exits 0."""

from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_zero(tmp_path, run_python, script):
    res = run_python(str(script), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
