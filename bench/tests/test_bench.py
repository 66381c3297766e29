"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests -q
"""

import json
import sys

import pytest

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def src():
    return run.locate_src(run.ROOT)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_STEPS", 3)
    monkeypatch.setattr(workloads, "SWEEP_RANGES", [("pendulum", 6.0, 8.0)])
    monkeypatch.setattr(workloads, "LIBRARY_PROBLEMS", 4)
    monkeypatch.setitem(run.SETUP_REPEATS, "threshold_sweep", 1)
    monkeypatch.setitem(run.SETUP_REPEATS, "library_batch", 1)


def test_spec_names_match_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.PER_LAYER
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25


@pytest.mark.parametrize("workload", ["threshold_sweep", "library_batch"])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_its_unit(workload, trace, tiny, src, tmp_path):
    result = run.run_workload(workload, 3, 0.1, trace, src, tmp_path)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"], result["wrong"]
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    saved = tmp_path / f"{workload}-seed3-trace{int(trace)}"
    assert (saved / "result.json").exists() and any((saved / "configs").iterdir())


def test_span_self_times_are_within_their_parents(src):
    import oddperiodic as op

    problem = op.builtin("tanh_g", {"s": 1.0}, period=6.0, forcing=[(1, 0.5)])
    t = tracer.Tracer()
    t.install()  # rebinds the package names, so call through the package
    try:
        report = op.solve_continuation(problem, modes=32)
        op.cross_validate(problem, report.solution)
    finally:
        t.uninstall()
    spans = t.spans
    own = tracer.self_times(spans)
    assert len(spans) > 100
    for s, self_s in zip(spans, own):
        assert self_s >= -1e-9
        assert self_s <= s[tracer.SPAN_END] - s[tracer.SPAN_START] + 1e-12
        parent = s[tracer.SPAN_PARENT]
        if parent >= 0:
            p = spans[parent]
            assert p[tracer.SPAN_START] <= s[tracer.SPAN_START]
            assert s[tracer.SPAN_END] <= p[tracer.SPAN_END]
    metrics = tracer.layer_metrics(spans)
    assert metrics["solver.solve_continuation.calls"] == 1
    assert metrics["oracle.cross_validate.calls"] == 1
    assert metrics["operators.g_points"] == 4 * 32 * metrics["operators.fixed_point_map.calls"]
    # the oracle evaluates series pointwise (the forcing inside RK4)
    evaluate = [s for s in spans if s[tracer.SPAN_NAME] == "funcspace.evaluate"]
    assert evaluate and metrics["funcspace.evaluate.calls"] == len(evaluate)
    assert all(spans[s[tracer.SPAN_PARENT]][tracer.SPAN_NAME].startswith("oracle.")
               for s in evaluate)


def test_pointwise_evaluation_is_funcspace_and_counted_once(src):
    import numpy as np
    import oddperiodic as op

    u = op.OddPeriodicFunction(2.0, [1.0, 0.5, 0.25])
    du = op.differentiate(u, 1)
    t = tracer.Tracer()
    t.install()
    try:
        u(np.linspace(0.0, 1.0, 7))
        du(0.3)
        op.grid_samples(du, 10)  # cosine series: falls back to evaluation
    finally:
        t.uninstall()
    names = [s[tracer.SPAN_NAME] for s in t.spans]
    assert names == ["funcspace.evaluate", "funcspace.evaluate",
                     "funcspace.grid_samples", "funcspace.evaluate"]
    metrics = tracer.layer_metrics(t.spans)
    assert metrics["funcspace.points"] == 7 + 1 + 10
    assert metrics["funcspace.evaluate.calls"] == 3


def test_uninstall_restores_every_binding(src):
    import oddperiodic.cli
    import oddperiodic.operators

    from oddperiodic.funcspace import EvenPeriodicFunction, OddPeriodicFunction

    before = oddperiodic.operators.grid_samples
    calls = OddPeriodicFunction.__call__, EvenPeriodicFunction.__call__
    t = tracer.Tracer()
    t.install()
    assert oddperiodic.operators.grid_samples is not before
    assert oddperiodic.cli.main.__wrapped__ is not None
    assert OddPeriodicFunction.__call__.__wrapped__ is calls[0]
    t.uninstall()
    assert oddperiodic.operators.grid_samples is before
    assert not hasattr(oddperiodic.cli.main, "__wrapped__")
    assert (OddPeriodicFunction.__call__, EvenPeriodicFunction.__call__) == calls


def test_bad_job_is_counted_as_failed(src, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "pendulum", "params": [], "period": "x"}')
    job = workloads.Job("bad", [workloads.Command(
        ["solve", str(bad), "--out", "s.csv"], 0, "solve", csv_path="s.csv",
        modes=256)])
    r = run.Run("highmodes_cli", 0, 0.1, False, src, tmp_path)
    r.cli_pass([job], traced=False)
    assert (r.tally.attempted, r.tally.failed) == (1, 1)
    assert r.tally.failures[0]["got"] != 0


def test_output_of_an_earlier_pass_does_not_hide_a_failure(src, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(workloads.BASE_CONFIGS["pendulum"]))
    solve = workloads.Command(["solve", str(good), "--modes", "16", "--out", "s.csv"],
                              0, "solve", csv_path="s.csv", modes=16)
    verify = workloads.Command(["verify", str(good), "s.csv"], 0, "verify",
                               csv_path="s.csv", modes=16)
    job = workloads.Job("pendulum@16", [solve, verify])
    r = run.Run("highmodes_cli", 0, 0.1, False, src, tmp_path)
    r.cli_pass([job], traced=False)
    assert (r.tally.attempted, r.tally.failed) == (2, 0)
    # second pass: solve fails before writing; verify must not read pass 1's CSV
    solve.argv[1] = str(tmp_path / "missing.json")
    r.cli_pass([job], traced=False)
    assert (r.tally.attempted, r.tally.failed) == (4, 2)
    assert [f["kind"] for f in r.tally.failures] == ["solve", "verify"]


def test_timeout_is_a_failure(tmp_path):
    child = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"],
                      cwd=tmp_path, env=None, timeout=0.3,
                      stdout_path=tmp_path / "sleep.out")
    assert child.exit_code is None and child.seconds < 10
    cmd = workloads.Command(["verify"], 0, "verify", csv_path="x.csv")
    assert workloads.check_command(cmd, None, "", tmp_path) == (1, 1, [])


def test_wrong_certificate_in_a_sweep_is_caught(tmp_path):
    cmd = workloads.sweep_jobs(tmp_path, 0)[0].commands[0]
    spec = cmd.sweep
    rows = [{"lambda": 0.5, "holds": True, "converged": True,
             "oracle_distance": 0.0}] * spec["steps"]
    (tmp_path / cmd.csv_path).write_text("h\n" + "r\n" * spec["steps"])
    ops, failed, wrong = workloads.check_command(
        cmd, 0, json.dumps({"outcome": {"rows": rows}}), tmp_path)
    assert ops == spec["steps"] and failed == 0 and wrong


def test_library_inputs_depend_only_on_the_seed():
    a, b = workloads.library_configs(5), workloads.library_configs(5)
    assert a == b and a != workloads.library_configs(6)
    assert {c["family"] for c in a} == set(workloads.LIBRARY_FAMILIES)
    for c in a:
        assert 1.0 <= c["period"] <= 10.0 and 1 <= len(c["forcing"]) <= 3


def test_tail_rank_leaves_ten_jobs_beyond():
    assert run.tail_rank(5) == (1.0, "max")
    q, label = run.tail_rank(80)
    assert label == "p87.5"
    values = list(range(1, 81))
    assert sum(v > run.quantile(values, q) for v in values) == 10


def test_job_times_are_taken_per_job_first(src, tmp_path):
    r = run.Run("threshold_sweep", 0, 0.1, False, src, tmp_path)
    r.tally.attempted, r.walls = 1, [6.0, 3.0]
    # three fast passes of seven: the median of all 21 samples is a fast
    # sample of the middle job; each job's mean weighs the passes alike
    for i in range(7):
        scale = 0.5 if i >= 4 else 1.0
        for job, seconds in (("a", 1.0), ("b", 2.0), ("c", 2.2)):
            r.job_time(job, scale * seconds)
    samples = [v for times in r.job_times.values() for v in times]
    assert run.statistics.median(samples) == 1.1
    metrics = r.end_to_end([0.1], 3)
    assert metrics["wall_s"] == 4.5
    assert metrics["job_p50_s"] == pytest.approx(2.0 * 5.5 / 7)
    assert metrics["job_tail_s"] == pytest.approx(2.2 * 5.5 / 7)


def test_missing_program_exits_nonzero(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "library_batch", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60, env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0 and proc.stdout == ""
