"""End-to-end CLI tests: exit codes, file formats, determinism."""

import contextlib
import csv
import io
import itertools
import json
import math
import random
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oddperiodic import MAX_MODES

T2PI = 2.0 * np.pi

PENDULUM = {
    "family": "pendulum",
    "params": {"a": 0.04},
    "period": T2PI,
    "forcing": [{"mode": 1, "amplitude": 0.05}],
    "label": "pendulum",
}
ZERO = {
    "family": "zero",
    "params": {},
    "period": T2PI,
    "forcing": [{"mode": 1, "amplitude": 1.0}],
}
CUBIC = {
    "family": "cubic",
    "params": {"c3": 1.0},
    "period": T2PI,
    "forcing": [{"mode": 1, "amplitude": 5.0}],
}
TANH = {
    "family": "tanh_g",
    "params": {"s": 1.0},
    "period": T2PI,
    "forcing": [{"mode": 1, "amplitude": 0.5}],
}


def write_config(tmp_path, cfg, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_record(stdout: str) -> dict:
    return json.loads(stdout)


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def read_strict(text: str) -> dict:
    """Parse as strict JSON: Infinity, -Infinity and NaN are errors."""
    return json.loads(text, parse_constant=reject_constant)


class TestCertify:
    def test_holding_certificate_exits_zero(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, PENDULUM)
        res = run_cli("certify", cfg, cwd=tmp_path)
        assert res.returncode == 0
        rec = read_record(res.stdout)
        assert rec["outcome"]["holds"] is True
        assert rec["outcome"]["lambda"] == pytest.approx(0.7895683520871487)
        assert rec["outcome"]["threshold"] == pytest.approx(0.05066059182116889)

    def test_failing_certificate_exits_three(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, dict(PENDULUM, params={"a": 1.0}))
        res = run_cli("certify", cfg, cwd=tmp_path)
        assert res.returncode == 3
        assert read_record(res.stdout)["outcome"]["holds"] is False

    @pytest.mark.parametrize("period", [1e-300, 1e300])
    def test_period_without_finite_threshold_exits_two(self, tmp_path, run_cli,
                                                       period):
        cfg = write_config(tmp_path, dict(PENDULUM, period=period))
        res = run_cli("certify", cfg, cwd=tmp_path)
        assert res.returncode == 2
        assert read_record(res.stdout)["error"]["code"] == "bad_period"

    def test_non_numeric_amplitude_exits_two(self, tmp_path, run_cli):
        cfg = write_config(
            tmp_path, dict(PENDULUM, forcing=[{"mode": 1, "amplitude": "x"}]))
        res = run_cli("certify", cfg, cwd=tmp_path)
        assert res.returncode == 2
        assert read_record(res.stdout)["error"]["code"] == "bad_forcing"

    @pytest.mark.parametrize("params", [[0.04], {"a": "x"}],
                             ids=["list", "string"])
    def test_malformed_params_exit_two(self, tmp_path, run_cli, params):
        cfg = write_config(tmp_path, dict(PENDULUM, params=params))
        res = run_cli("certify", cfg, cwd=tmp_path)
        assert res.returncode == 2
        assert read_record(res.stdout)["error"]["code"] == "bad_params"

    def test_forcing_mode_above_ceiling_exits_two(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, dict(
            PENDULUM, forcing=[{"mode": MAX_MODES + 1, "amplitude": 1.0}]))
        res = run_cli("certify", cfg, cwd=tmp_path)
        assert res.returncode == 2
        assert read_record(res.stdout)["error"]["code"] == "bad_mode"

    def test_malformed_config_exits_two(self, tmp_path, run_cli):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        res = run_cli("certify", str(path), cwd=tmp_path)
        assert res.returncode == 2

    def test_unknown_key_exits_two(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, dict(PENDULUM, surprise=1))
        res = run_cli("certify", cfg, cwd=tmp_path)
        assert res.returncode == 2
        assert read_record(res.stdout)["error"]["code"] == "unknown_key"


class TestSolve:
    def test_zero_g_csv_matches_closed_form(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, ZERO)
        res = run_cli("solve", cfg, "--out", "sol.csv", cwd=tmp_path)
        assert res.returncode == 0
        with open(tmp_path / "sol.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        t = np.array([float(r["t"]) for r in rows])
        u = np.array([float(r["u"]) for r in rows])
        np.testing.assert_allclose(u, -np.sin(t), atol=1e-10)
        res_col = np.array([float(r["residual_pointwise"]) for r in rows])
        assert res_col.max() < 1e-10

    def test_pendulum_sidecar_regime(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, PENDULUM)
        res = run_cli("solve", cfg, "--out", "p.csv", cwd=tmp_path)
        assert res.returncode == 0
        sidecar = json.loads((tmp_path / "p.csv.json").read_text())
        assert sidecar["outcome"]["regime"] == "certified_contraction"
        assert sidecar["outcome"]["converged"] is True
        assert sidecar["outcome"]["residual"] <= 1e-8

    def test_divergent_cubic_exits_four_with_diagnostics(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, CUBIC)
        res = run_cli("solve", cfg, "--method", "picard", "--out", "c.csv",
                      cwd=tmp_path)
        assert res.returncode == 4
        sidecar = json.loads((tmp_path / "c.csv.json").read_text())
        assert sidecar["outcome"]["converged"] is False
        assert sidecar["outcome"]["failure"] == "non_finite"
        tail = sidecar["outcome"]["step_norm_tail"]
        assert tail[-1] > tail[0]
        assert (tmp_path / "c.csv").exists()  # best iterate still written

    def test_auto_on_cubic_falls_back_to_picard(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, CUBIC)
        res = run_cli("solve", cfg, "--out", "c.csv", cwd=tmp_path)
        assert res.returncode == 4

    def test_sidecar_determinism(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, PENDULUM)
        run_cli("solve", cfg, "--out", "a.csv", cwd=tmp_path)
        run_cli("solve", cfg, "--out", "b.csv", cwd=tmp_path)
        rec_a = json.loads((tmp_path / "a.csv.json").read_text())
        rec_b = json.loads((tmp_path / "b.csv.json").read_text())
        for rec in (rec_a, rec_b):
            del rec["wall_time_s"]
            rec["options"]["out"] = "X"
        assert json.dumps(rec_a, sort_keys=True) == json.dumps(rec_b, sort_keys=True)
        csv_a = (tmp_path / "a.csv").read_bytes()
        csv_b = (tmp_path / "b.csv").read_bytes()
        assert csv_a == csv_b

    def test_record_round_trips(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, ZERO)
        res = run_cli("solve", cfg, "--out", "z.csv", cwd=tmp_path)
        rec = read_record(res.stdout)
        assert json.loads(json.dumps(rec)) == rec

    @pytest.mark.parametrize("modes", [MAX_MODES + 1, 0, -5])
    def test_modes_outside_range_exits_two(self, tmp_path, run_cli, modes):
        cfg = write_config(tmp_path, PENDULUM)
        res = run_cli("solve", cfg, "--modes", str(modes),
                      "--out", "p.csv", cwd=tmp_path)
        assert res.returncode == 2
        assert read_record(res.stdout)["error"]["code"] == "bad_modes"
        assert not (tmp_path / "p.csv").exists()

    def test_non_finite_values_are_strict_json_null(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, CUBIC)
        res = run_cli("solve", cfg, "--modes", "64", "--out", "c.csv",
                      cwd=tmp_path)
        assert res.returncode == 4
        for text in (res.stdout, (tmp_path / "c.csv.json").read_text()):
            assert read_strict(text)["outcome"]["residual"] is None
        res = run_cli("verify", cfg, "c.csv", cwd=tmp_path)
        assert res.returncode == 5
        outcome = read_strict(res.stdout)["outcome"]
        assert outcome["verdict"] == "oracle_blowup"
        assert outcome["residual"] is None

    def test_continuation_without_majorant_exits_two(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, CUBIC)
        res = run_cli("solve", cfg, "--method", "continuation",
                      "--out", "c.csv", cwd=tmp_path)
        assert res.returncode == 2 and res.stderr == ""
        assert read_record(res.stdout)["error"]["code"] == "no_majorant"

    @pytest.mark.parametrize("argv,code", [
        (["solve", "--tol", "0"], "bad_tol"),
        (["solve", "--method", "continuation", "--tol", "-1"], "bad_tol"),
        (["solve", "--tol", "nan"], "bad_tol"),
        (["sweep", "--param", "period", "--from", "4", "--to", "5",
          "--steps", "2", "--tol", "0"], "bad_tol"),
        (["compare", "--tol", "0"], "bad_tol"),
        (["solve", "--max-iter", "-3"], "bad_max_iter"),
        (["compare", "--max-iter", "0"], "bad_max_iter"),
        # the solution file does not exist: the flag is refused before it
        # is read
        (["verify", "u.csv", "--tol", "-1"], "bad_tol"),
        (["verify", "u.csv", "--tol", "nan"], "bad_tol"),
        (["verify", "u.csv", "--tol", "0"], "bad_tol"),
        (["verify", "u.csv", "--tol", "inf"], "bad_tol"),
    ], ids=["solve_tol_zero", "continuation_tol_negative", "tol_nan",
            "sweep_tol_zero", "compare_tol_zero", "max_iter_negative",
            "max_iter_zero", "verify_tol_negative", "verify_tol_nan",
            "verify_tol_zero", "verify_tol_inf"])
    def test_bad_solver_flag_exits_two(self, tmp_path, run_cli, argv, code):
        cfg = write_config(tmp_path, TANH)
        res = run_cli(argv[0], cfg, *argv[1:], cwd=tmp_path)
        assert res.returncode == 2 and res.stderr == ""
        assert read_record(res.stdout)["error"]["code"] == code
        assert not list(tmp_path.glob("*.csv"))

    def test_sidecar_path_taken_by_a_directory_exits_two(self, tmp_path,
                                                         run_cli):
        cfg = write_config(tmp_path, PENDULUM)
        (tmp_path / "x.csv.json").mkdir()
        res = run_cli("solve", cfg, "--modes", "16", "--out", "x.csv",
                      cwd=tmp_path)
        assert res.returncode == 2 and res.stderr == ""
        # exactly one JSON document on stdout
        assert read_record(res.stdout)["error"]["code"] == "bad_document"

    def test_modes_flag_sets_grid_size(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, ZERO)
        res = run_cli("solve", cfg, "--modes", "64", "--out", "m.csv",
                      cwd=tmp_path)
        assert res.returncode == 0
        n_rows = len((tmp_path / "m.csv").read_text().splitlines()) - 1
        assert n_rows == 4 * 64  # csv rows live on the 4N grid


class TestVerify:
    def test_verify_solver_output_passes(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, PENDULUM)
        run_cli("solve", cfg, "--out", "p.csv", cwd=tmp_path)
        res = run_cli("verify", cfg, "p.csv", cwd=tmp_path)
        assert res.returncode == 0
        rec = read_record(res.stdout)
        assert rec["outcome"]["passed"] is True
        assert rec["outcome"]["distance"] <= 1e-6

    def test_verify_exact_closed_form_file(self, tmp_path, run_cli):
        # hand-built CSV for the zero-g problem: u = -sin t
        cfg = write_config(tmp_path, ZERO)
        P = 256
        t = np.arange(P) * (T2PI / P)
        with open(tmp_path / "exact.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "u", "u_prime", "residual_pointwise"])
            for tj in t:
                writer.writerow([repr(float(tj)), repr(float(-np.sin(tj))),
                                 repr(float(-np.cos(tj))), "0.0"])
        res = run_cli("verify", cfg, "exact.csv", cwd=tmp_path)
        assert res.returncode == 0

    def test_corrupted_column_fails_with_five(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, PENDULUM)
        run_cli("solve", cfg, "--out", "p.csv", cwd=tmp_path)
        lines = (tmp_path / "p.csv").read_text().splitlines()
        fields = lines[40].split(",")
        fields[1] = repr(float(fields[1]) + 0.25)  # single-point spike
        lines[40] = ",".join(fields)
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        res = run_cli("verify", cfg, "bad.csv", cwd=tmp_path)
        assert res.returncode == 5
        assert read_record(res.stdout)["outcome"]["verdict"] == "not_odd_periodic"

    def test_odd_coherent_corruption_fails_on_distance(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, PENDULUM)
        run_cli("solve", cfg, "--out", "p.csv", cwd=tmp_path)
        with open(tmp_path / "p.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        for row in data:
            t = float(row[0])
            row[1] = repr(float(row[1]) + 0.1 * float(np.sin(2 * t)))
        with open(tmp_path / "bad.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(data)
        res = run_cli("verify", cfg, "bad.csv", cwd=tmp_path)
        assert res.returncode == 5
        rec = read_record(res.stdout)
        assert rec["outcome"]["verdict"] == "fail"
        assert rec["outcome"]["distance"] == pytest.approx(0.1, rel=0.1)

    def test_solution_among_several_passes(self, tmp_path, run_cli):
        # outside the contraction regime a second odd solution, of slope
        # u'(0) about 0.455, lies in the bracket of this one's, about 1.728
        cfg = write_config(tmp_path, {
            "family": "pendulum",
            "params": {"a": 0.8510919489882861},
            "period": 8.377995415034054,
            "forcing": [{"mode": 5, "amplitude": -0.18810434416878308},
                        {"mode": 8, "amplitude": 0.4008348930932357},
                        {"mode": 2, "amplitude": -0.44187539730181546}],
        })
        res = run_cli("solve", cfg, "--modes", "128", "--out", "p.csv",
                      cwd=tmp_path)
        assert res.returncode == 0
        assert read_record(res.stdout)["outcome"]["regime"] == "continuation"
        res = run_cli("verify", cfg, "p.csv", cwd=tmp_path)
        assert res.returncode == 0
        outcome = read_record(res.stdout)["outcome"]
        assert outcome["distance"] <= 1e-10
        assert outcome["shooting_v0"] == pytest.approx(1.72793, abs=1e-5)

    def test_oracle_blowup_exits_five(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, CUBIC)
        res = run_cli("solve", cfg, "--modes", "64", "--out", "c.csv",
                      cwd=tmp_path)
        assert res.returncode == 4
        res = run_cli("verify", cfg, "c.csv", cwd=tmp_path)
        assert res.returncode == 5
        outcome = read_record(res.stdout)["outcome"]
        assert outcome["passed"] is False
        assert outcome["verdict"] == "oracle_blowup"
        assert 0.0 < outcome["t_escape"] <= T2PI / 2
        assert "residual" in outcome

    def test_unreadable_solution_exits_two(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, PENDULUM)
        res = run_cli("verify", cfg, "missing.csv", cwd=tmp_path)
        assert res.returncode == 2

    def test_tol_is_the_acceptance_threshold(self, tmp_path, run_cli):
        # the closed-form solution is within 1e-6 of the oracle, not 1e-20
        cfg = write_config(tmp_path, ZERO)
        (tmp_path / "u.csv").write_text(_solution_csv())
        for tol, code, verdict in (("1e-6", 0, "pass"), ("1e-20", 5, "fail")):
            res = run_cli("verify", cfg, "u.csv", "--tol", tol, cwd=tmp_path)
            assert res.returncode == code
            assert read_record(res.stdout)["outcome"]["verdict"] == verdict


def _solution_csv(edit=lambda rows: rows, points=8, period=T2PI) -> str:
    """The closed-form solution u = -sin t of the ZERO config on ``points``
    points, with ``edit`` applied to its rows of cells; another ``period``
    rescales the t column alone."""
    j = np.arange(points)
    rows = [[repr(float(tj)), repr(float(-np.sin(x))), repr(float(-np.cos(x))),
             "0.0"] for tj, x in zip(j * (period / points), j * (T2PI / points))]
    lines = [["t", "u", "u_prime", "residual_pointwise"]] + edit(rows)
    return "".join(",".join(row) + "\n" for row in lines)


def _set_u(value, at=(3,)):
    def edit(rows):
        for j in at:
            rows[j][1] = value
        return rows
    return edit


def _scale_u(factor):
    def edit(rows):
        for row in rows:
            row[1] = repr(float(row[1]) * factor)
        return rows
    return edit


# name -> (config text, solution CSV text or None for certify, exit code)
INPUT_FILES = {
    "config_integer_over_4300_digits": (
        '{"family": "zero", "params": {}, "period": ' + "1" * 5000
        + ', "forcing": []}', None, 2),
    "config_not_utf8": ('{"label": "\udcff"}', None, 2),
    "csv_empty": (json.dumps(ZERO), "", 2),
    "csv_nan_u": (json.dumps(ZERO), _solution_csv(_set_u("nan")), 2),
    "csv_infinite_u": (json.dumps(ZERO), _solution_csv(_set_u("1e999")), 2),
    "csv_one_cell_rows": (
        json.dumps(ZERO), _solution_csv(lambda rows: [r[:1] for r in rows]), 2),
    "csv_three_cell_rows": (
        json.dumps(ZERO), _solution_csv(lambda rows: [r[:3] for r in rows]), 2),
    "csv_quoted_u": (json.dumps(ZERO), _solution_csv(
        lambda rows: [[r[0], f'"{r[1]}"'] + r[2:] for r in rows]), 2),
    "csv_finite_spike": (
        json.dumps(ZERO), _solution_csv(_set_u("0.25")), 5),
    # finite and odd, but its sine coefficients overflow
    "csv_near_max_u": (json.dumps(ZERO), _solution_csv(_scale_u(1e308)), 2),
    # finite, but its odd-symmetry defect u(t) + u(T - t) overflows
    "csv_near_max_even_u": (
        json.dumps(ZERO), _solution_csv(_set_u("1e308", at=(3, 5))), 5),
    # finite coefficients on a period of 1e-150, but u' overflows (and u'')
    "csv_overflowing_slope": (
        json.dumps(dict(ZERO, period=1e-150)),
        _solution_csv(_scale_u(1e158), period=1e-150), 2),
    # u' is finite, u'' overflows
    "csv_overflowing_curvature": (
        json.dumps(dict(ZERO, period=1e-150)),
        _solution_csv(_scale_u(1e150), period=1e-150), 2),
    "csv_intact": (json.dumps(ZERO), _solution_csv(), 0),
}


@pytest.mark.parametrize("modes", [2048, 4096])
def test_tiny_period_solution_is_written_and_verified(tmp_path, run_cli, modes):
    # at T = 1e-150, (2 pi n/T)^2 overflows for n above about 2100, where
    # the solution's b_n are 0: u'' there is -w*(w*b_n), not inf*0 = nan
    cfg = write_config(tmp_path, dict(PENDULUM, period=1e-150))
    res = run_cli("solve", cfg, "--modes", str(modes), "--out", "u.csv",
                  cwd=tmp_path)
    assert res.returncode == 0 and res.stderr == ""
    with (tmp_path / "u.csv").open(newline="") as fh:
        residuals = [float(row[3]) for row in itertools.islice(
            csv.reader(fh), 1, None)]
    assert len(residuals) == 4 * modes and max(residuals) <= 1e-12
    res = run_cli("verify", cfg, "u.csv", cwd=tmp_path)
    assert res.returncode == 0 and res.stderr == ""
    assert read_record(res.stdout)["outcome"]["verdict"] == "pass"


@pytest.mark.parametrize("name", list(INPUT_FILES))
def test_input_file_exit_code(tmp_path, run_cli, name):
    config_text, solution_text, expected = INPUT_FILES[name]
    cfg = tmp_path / "problem.json"
    cfg.write_bytes(config_text.encode("utf-8", "surrogateescape"))
    if solution_text is None:
        res = run_cli("certify", str(cfg), cwd=tmp_path)
    else:
        (tmp_path / "u.csv").write_text(solution_text)
        res = run_cli("verify", str(cfg), "u.csv", cwd=tmp_path)
    assert res.returncode == expected and res.stderr == ""
    record = read_record(res.stdout)
    if expected == 2:
        assert record["error"]["code"] == "bad_document"


@pytest.mark.parametrize("points,expected", [(8, 0), (10, 2)])
def test_solution_csv_row_ceiling(tmp_path, monkeypatch, points, expected):
    from oddperiodic import cli

    monkeypatch.setattr(cli, "MAX_MODES", 2)  # solve writes at most 8 rows
    cfg = write_config(tmp_path, ZERO)
    (tmp_path / "u.csv").write_text(_solution_csv(points=points))
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(["verify", cfg, str(tmp_path / "u.csv")])
    assert code == expected
    if expected == 2:
        assert read_record(stdout.getvalue())["error"]["code"] == "bad_document"


def test_solution_csv_line_ceiling(tmp_path):
    # a row of 300 more cells is refused before its line is read whole
    from oddperiodic import cli

    cfg = write_config(tmp_path, ZERO)
    (tmp_path / "u.csv").write_text(
        _solution_csv(lambda rows: [rows[0] + ["0.0"] * 300] + rows[1:]))
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(["verify", cfg, str(tmp_path / "u.csv")])
    assert code == 2
    assert read_record(stdout.getvalue())["error"] == {
        "code": "bad_document",
        "message": "cannot read solution file: a line is longer than 1024 characters"}


def _reference_cell(value) -> str:
    """The cell of a writer that formats cell by cell."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def test_csv_writer_formats_columns_as_cells(tmp_path):
    from oddperiodic import cli

    floats = [-0.0, 5e-324, -5e-324, 1e-5, 1e16, 1e22, float("nan"),
              float("inf"), -float("inf"), 0.1, 1.0 / 3.0, 1.7976931348623157e308]
    n = len(floats)
    # a solution CSV passes float arrays; a sweep passes columns of Python
    # floats, bools and ints
    columns = [np.array(floats), floats[::-1], [i % 3 == 0 for i in range(n)],
               [i * 10 ** i - 7 for i in range(n)], [-i for i in range(n)]]
    header = [f"c{i}" for i in range(len(columns))]
    cli._write_csv(tmp_path / "new.csv", header, columns)
    with (tmp_path / "ref.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_reference_cell(x) for x in row]
                         for row in zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# the row counts around the writer's block boundaries
BLOCK_ROW_COUNTS = [1, 1023, 1024, 1025, 3 * 1024 + 7]
# where repr switches notation, signed zero, subnormals and non-finite values
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1e-5, 9.999999999999999e-06, 1.0000000000000002e-05, 1e-4,
               1e16, 9999999999999998.0, 1.0000000000000002e16, 1e22,
               float("nan"), float("inf"), -float("inf")]
CELL_VALUES = {
    "float": st.floats() | st.sampled_from(EDGE_FLOATS),
    "int": st.integers(-2**63, 2**63 - 1),
    "bool": st.booleans(),
}


@st.composite
def _csv_columns(draw, rows):
    """Columns of ``rows`` cells, each of floats, ints or bools and each an
    array or a Python list, as the solution and sweep CSVs pass them."""
    # the rows pick from small drawn pools, so that the example stays small
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(CELL_VALUES)),
                              min_size=1, max_size=6)):
        pool = draw(st.lists(CELL_VALUES[kind], min_size=1, max_size=32))
        column = rnd.choices(pool, k=rows)
        columns.append(np.array(column) if draw(st.booleans()) else column)
    return columns


@pytest.mark.parametrize("rows", BLOCK_ROW_COUNTS + [None])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_block_writer_matches_csv_writer(tmp_path, rows, data):
    """_write_csv gives the bytes of csv.writer over the same cells, header
    included; ``rows=None`` draws a small row count."""
    from oddperiodic import cli

    if rows is None:
        rows = data.draw(st.integers(1, 40))
    columns = data.draw(_csv_columns(rows))
    header = data.draw(st.lists(st.text(st.sampled_from('tu_ ,"\n'), max_size=4),
                                min_size=len(columns), max_size=len(columns)))
    cli._write_csv(tmp_path / "new.csv", header, columns)
    with (tmp_path / "ref.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*map(cli._cells, columns)))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _reference_read_solution_csv(path: Path, problem):
    """The list-of-rows reader that _read_solution_csv replaced, kept as the
    reference for its results and errors."""
    from oddperiodic import cli
    from oddperiodic.cli import CSV_HEADER, ProblemError, _lines

    # solve writes at most 4 * MAX_MODES rows, each one line of 4 unquoted
    # numbers (about 100 characters): refuse a longer line or one row more
    max_rows = 4 * cli.MAX_MODES
    with path.open(newline="") as fh:
        reader = csv.reader(_lines(fh, 1024), quoting=csv.QUOTE_NONE)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ProblemError("bad_document",
                               f"unexpected CSV header {header!r}")
        rows = [[float(x) for x in row]
                for row in itertools.islice(reader, max_rows + 1)]
    if len(rows) > max_rows:
        raise ProblemError("bad_document", f"more than {max_rows} rows")
    if len(rows) < 4 or len(rows) % 2 or any(len(row) != 4 for row in rows):
        raise ProblemError("bad_document",
                           "need an even number (>= 4) of rows of 4 numbers")
    data = np.asarray(rows)
    expected_t = np.arange(len(rows)) * (problem.period / len(rows))
    if not np.all(np.abs(data[:, 0] - expected_t) <= 1e-9 * problem.period):
        raise ProblemError(
            "bad_document",
            "CSV time column is not the uniform grid j*T/P for this problem")
    if not np.all(np.isfinite(data[:, 1])):
        raise ProblemError("bad_document", "CSV u column must be finite")
    return data[:, 1]


def _read_outcome(reader, path, problem):
    """The u column's bytes, or the type, message and code of the error."""
    try:
        return reader(path, problem).tobytes()
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc), getattr(exc, "code", None)


FUZZ_CELLS = ["abc", '"0.5"', "", " 1.5 ", "1_0", "nan", "1e999"]


def _rarely(draw) -> bool:
    return draw(st.sampled_from([False, False, False, True]))


@st.composite
def _fuzzed_solution(draw):
    """The lines of a valid 8-row solution (header first) with some of its
    cells, row widths, row count, line ends and bytes changed."""
    lines = [",".join(row) for row in csv.reader(io.StringIO(_solution_csv()))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        row, col = draw(st.integers(1, 8)), draw(st.integers(0, 3))
        cells = lines[row].split(",")
        cells[col] = draw(st.sampled_from(FUZZ_CELLS))
        lines[row] = ",".join(cells)
    if _rarely(draw):
        row = draw(st.integers(1, 8))
        cells = lines[row].split(",")
        lines[row] = ",".join(cells[:3] if draw(st.booleans()) else cells + ["0.0"])
    if _rarely(draw):  # one or two rows more: odd, or over a ceiling of 8
        lines += lines[1:1 + draw(st.integers(1, 2))]
    if _rarely(draw):
        del lines[-1]
    if _rarely(draw):
        lines.insert(draw(st.integers(0, len(lines))), "")
    if _rarely(draw):
        row = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[row])))
        lines[row] = lines[row][:at] + "\0" + lines[row][at:]
    if _rarely(draw):
        row = draw(st.integers(0, len(lines) - 1))
        lines[row] = (lines[row] + ",0" * 600)[:1025]
    ends = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    return "".join(
        line + (draw(st.sampled_from(["\n", "\r\n", "\r"])) if ends == "mixed" else ends)
        for line in lines)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_fuzzed_solution(), ceiling=st.booleans())
@example(text=_solution_csv(_set_u("nan")), ceiling=False)
@example(text=_solution_csv(_set_u("1e999")), ceiling=False)
@example(text=_solution_csv(_set_u(" 1.5 ")), ceiling=False)
def test_solution_reader_matches_list_reader(tmp_path, text, ceiling):
    """On fuzzed files the buffered reader returns the reference reader's u
    column bit for bit, or raises its error with the same message."""
    from oddperiodic import cli
    from oddperiodic.problems import parse_problem

    problem = parse_problem(ZERO)
    path = tmp_path / "u.csv"
    path.write_bytes(text.encode())
    # MAX_MODES = 2 puts the row ceiling at 8 rows
    with mock.patch.object(cli, "MAX_MODES", 2 if ceiling else cli.MAX_MODES):
        expected = _read_outcome(_reference_read_solution_csv, path, problem)
        assert _read_outcome(cli._read_solution_csv, path, problem) == expected


def _traced_peak(fn, *args) -> int:
    """The peak of traced Python allocations, in bytes, while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _solution_columns(rows):
    """The four columns of the closed-form solution of ZERO on ``rows``
    points."""
    t = np.arange(rows) * (T2PI / rows)
    return [t, -np.sin(t), -np.cos(t), np.zeros(rows)]


# Writing or reading a solution of 8192 rows holds one block of cells or one
# float64 buffer; a Python object per cell takes about 1.2 MB to write them
# and 2.0 MB to read them.
def test_solution_csv_write_memory_is_one_block(tmp_path):
    from oddperiodic import cli

    columns = _solution_columns(8192)
    peak = _traced_peak(cli._write_csv, tmp_path / "u.csv", cli.CSV_HEADER,
                        columns)
    assert peak < 512 * 1024


def test_solution_csv_read_memory_is_one_buffer(tmp_path):
    from oddperiodic import cli
    from oddperiodic.problems import parse_problem

    problem = parse_problem(ZERO)
    columns = _solution_columns(8192)
    path = tmp_path / "u.csv"
    cli._write_csv(path, cli.CSV_HEADER, columns)
    assert _traced_peak(cli._read_solution_csv, path, problem) < 768 * 1024
    np.testing.assert_array_equal(cli._read_solution_csv(path, problem),
                                  columns[1])

class TestSweep:
    def test_period_sweep_brackets_threshold(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, PENDULUM)
        res = run_cli("sweep", cfg, "--param", "period", "--from", "1",
                      "--to", "12", "--steps", "23", "--out", "s.csv",
                      cwd=tmp_path)
        assert res.returncode == 0
        with open(tmp_path / "s.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 23
        threshold = np.sqrt(2.0 / 0.04)
        for prev, cur in zip(rows, rows[1:]):
            a, b = float(prev["param"]), float(cur["param"])
            if prev["holds"] != cur["holds"]:
                assert a < threshold < b

    def test_amplitude_sweep_threshold(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, PENDULUM)
        res = run_cli("sweep", cfg, "--param", "a", "--from", "0.04",
                      "--to", "0.06", "--steps", "5", "--out", "s.csv",
                      cwd=tmp_path)
        assert res.returncode == 0
        with open(tmp_path / "s.csv", newline="") as fh:
            rows = {float(r["param"]): r["holds"] for r in csv.DictReader(fh)}
        assert rows[0.04] == "true" and rows[0.05] == "true"
        assert rows[0.055] == "false" and rows[0.06] == "false"

    def test_zero_width_sweep_matches_single_solve(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, PENDULUM)
        res = run_cli("sweep", cfg, "--param", "period", "--from",
                      repr(T2PI), "--to", repr(T2PI), "--steps", "1",
                      "--out", "s.csv", cwd=tmp_path)
        assert res.returncode == 0
        with open(tmp_path / "s.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["holds"] == "true" and row["converged"] == "true"
        assert float(row["lambda"]) == pytest.approx(0.7895683520871487)
        run_cli("solve", cfg, "--out", "p.csv", cwd=tmp_path)
        sidecar = json.loads((tmp_path / "p.csv.json").read_text())
        assert float(row["residual"]) == pytest.approx(
            sidecar["outcome"]["residual"], abs=1e-10)

    def test_bad_range_exits_two(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, PENDULUM)
        res = run_cli("sweep", cfg, "--param", "period", "--from", "5",
                      "--to", "1", "--steps", "3", "--out", "s.csv",
                      cwd=tmp_path)
        assert res.returncode == 2
        res = run_cli("sweep", cfg, "--param", "nonsense", "--from", "1",
                      "--to", "2", "--steps", "2", "--out", "s.csv",
                      cwd=tmp_path)
        assert res.returncode == 2


    def test_steps_above_ceiling_exits_two(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, PENDULUM)
        res = run_cli("sweep", cfg, "--param", "period", "--from", "1",
                      "--to", "2", "--steps", "10001", "--out", "s.csv",
                      cwd=tmp_path)
        assert res.returncode == 2
        assert read_record(res.stdout)["error"]["code"] == "bad_range"
        assert not (tmp_path / "s.csv").exists()


class TestCompare:
    def test_pendulum_three_way_agreement(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, PENDULUM)
        res = run_cli("compare", cfg, cwd=tmp_path)
        assert res.returncode == 0
        rec = read_record(res.stdout)
        distances = rec["outcome"]["distances"]
        assert len(distances) == 3
        assert all(d <= 1e-6 for d in distances.values())

    def test_tanh_flags_uncertified_picard(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, TANH)
        res = run_cli("compare", cfg, cwd=tmp_path)
        assert res.returncode == 0
        rec = read_record(res.stdout)
        assert rec["outcome"]["methods"]["picard"]["regime"] == "uncertified_picard"
        d = rec["outcome"]["distances"]
        assert d["continuation_vs_shooting"] <= 1e-6

    def test_zero_problem_all_methods_zero(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, dict(ZERO, forcing=[]))
        res = run_cli("compare", cfg, cwd=tmp_path)
        assert res.returncode == 0
        rec = read_record(res.stdout)
        assert rec["outcome"]["methods"]["picard"]["solution_norm"] == 0.0
        assert all(d <= 1e-10 for d in rec["outcome"]["distances"].values())

    def test_cubic_exits_four(self, tmp_path, run_cli):
        cfg = write_config(tmp_path, CUBIC)
        res = run_cli("compare", cfg, cwd=tmp_path)
        assert res.returncode == 4


class TestInputContract:
    @pytest.mark.parametrize("override,code", [
        ({"forcing": [{"mode": 1, "amplitude": 1e308}]}, "bad_forcing"),
        ({"derivative_bound": 1e308}, "bad_derivative_bound"),
    ], ids=["amplitude", "derivative_bound"])
    def test_non_finite_bound_exits_two_without_warnings(
            self, tmp_path, run_cli, override, code):
        cfg = write_config(tmp_path, dict(PENDULUM, **override))
        for argv in (["solve", cfg, "--out", "u.csv"], ["certify", cfg]):
            res = run_cli(*argv, cwd=tmp_path)
            assert res.returncode == 2
            assert read_record(res.stdout)["error"]["code"] == code
            assert res.stderr == ""


def run_main(argv) -> tuple[int, dict]:
    """``cli.main(argv)`` in this process: its exit code and its record."""
    from oddperiodic import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, read_record(out.getvalue())


class TestRecordedOptions:
    """A run record's options are every flag the command parsed, a path
    as its string, and nothing else."""

    @pytest.mark.parametrize("argv, options", [
        (["certify"], {}),
        (["solve", "--method", "picard", "--tol", "1e-10", "--max-iter", "50",
          "--modes", "32", "--out", "./p.csv"],
         {"method": "picard", "tol": 1e-10, "max_iter": 50, "modes": 32,
          "out": "p.csv"}),
        (["solve"], {"method": "auto", "tol": 1e-12, "max_iter": 10_000,
                     "modes": 256, "out": "solution.csv"}),
        (["verify", "good.csv", "--tol", "1e-4"],
         {"tol": 1e-4, "solution": "good.csv"}),
        (["sweep", "--param", "period", "--from", "4", "--to", "5",
          "--steps", "2", "--tol", "1e-9", "--max-iter", "50", "--modes", "32",
          "--out", "s.csv"],
         {"param": "period", "from": 4.0, "to": 5.0, "steps": 2, "tol": 1e-9,
          "max_iter": 50, "modes": 32, "out": "s.csv"}),
        (["compare", "--tol", "1e-10", "--max-iter", "500", "--modes", "32"],
         {"tol": 1e-10, "max_iter": 500, "modes": 32}),
    ], ids=["certify", "solve", "solve_defaults", "verify", "sweep", "compare"])
    def test_options_are_the_parsed_flags(self, tmp_path, monkeypatch, argv,
                                          options):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, PENDULUM)
        assert run_main(["solve", cfg, "--modes", "16", "--out", "good.csv"])[0] == 0
        code, record = run_main([argv[0], cfg, *argv[1:]])
        assert code == 0
        assert record["options"] == options


# the edges of each limit, and values far beyond them
LIMIT_TOLS = [5e-324, 1e-12, 1.0, math.inf, -math.inf, math.nan, 0.0, -0.0,
              -1.0]
LIMIT_INTS = [0, 1, -1, MAX_MODES, MAX_MODES + 1]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["solve", "compare", "sweep"]),
       tol=st.one_of(st.sampled_from(LIMIT_TOLS), st.floats()),
       max_iter=st.one_of(st.sampled_from(LIMIT_INTS),
                          st.integers(-2**70, 2**70)),
       modes=st.one_of(st.sampled_from(LIMIT_INTS), st.integers(-2**70, 2**70)))
@example(command="solve", tol=5e-324, max_iter=1, modes=MAX_MODES)
@example(command="sweep", tol=math.nan, max_iter=1, modes=1)
# modes is checked first, then tol, then max_iter
@example(command="compare", tol=0.0, max_iter=0, modes=MAX_MODES + 1)
@example(command="solve", tol=math.inf, max_iter=0, modes=1)
def test_cli_refuses_the_limits_solve_refuses(tmp_path, command, tol,
                                              max_iter, modes):
    """The CLI's error code for the solver flags is the code solve raises,
    or both accept them: then the CLI reads its config, which is missing
    (bad_document), and solve builds its rows, whose loop is stubbed out."""
    from oddperiodic import ProblemError, builtin, solve, solver

    argv = [command, str(tmp_path / "missing.json"), f"--tol={tol!r}",
            f"--max-iter={max_iter}", f"--modes={modes}"]
    if command == "sweep":
        argv += ["--param", "period", "--from", "1", "--to", "2", "--steps", "2"]
    cli_code = run_main(argv)[1]["error"]["code"]
    problem = builtin("pendulum", {"a": 0.04}, period=T2PI, forcing=[(1, 0.05)])
    with mock.patch.object(solver, "_drive", lambda rows, *_: [None] * len(rows)):
        try:
            solve(problem, tol=tol, max_iter=max_iter, modes=modes)
            solve_code = None
        except ProblemError as exc:
            solve_code = exc.code
    assert cli_code == (solve_code or "bad_document")


LINEAR_HUGE_PERIOD = {"family": "linear", "params": {"c": 0.01},
                      "period": 1e150}


@pytest.mark.parametrize("override,argv,code", [
    ({"family": "pendulum", "params": {"a": 0.04}, "period": 1e150},
     ["solve", "--modes", "32", "--max-iter", "50", "--out", "u.csv"], 4),
    ({"family": "linear", "params": {"c": 0.01},
      "forcing": [{"mode": 1, "amplitude": 1e200}]},
     ["compare", "--modes", "32"], 5),
    (LINEAR_HUGE_PERIOD, ["solve", "--method", "picard", "--out", "u.csv"], 4),
    (LINEAR_HUGE_PERIOD,
     ["solve", "--method", "continuation", "--out", "u.csv"], 4),
    (LINEAR_HUGE_PERIOD, ["compare"], 4),
], ids=["solve_huge_period", "compare_huge_forcing", "linear_picard",
        "linear_continuation", "linear_compare"])
def test_overflowing_continuation_step_prints_no_warning(tmp_path, run_cli,
                                                         override, argv, code):
    # continuation steps large enough that the reversal test's dot
    # overflows (a sweep of linear c = 1 over periods 1..9 meets it too,
    # in about 25 s), and iterates whose gains (T/2 pi n)^2 ~ 2.5e297 at
    # T = 1e150 overflow them: each such row ends as non_finite or
    # step_underflow, in a record with exit 4
    cfg = write_config(tmp_path, dict(ZERO, **override))
    res = run_cli(argv[0], cfg, *argv[1:], cwd=tmp_path)
    assert res.returncode == code and res.stderr == ""


def test_sweep_row_takes_one_certificate_and_one_residual(tmp_path,
                                                          monkeypatch):
    import oddperiodic
    import oddperiodic.oracle as oracle
    import oddperiodic.solver as solver
    from oddperiodic import Problem, cli, problems

    calls = {"certify": 0, "pointwise_residual": 0, "_validate_g": 0,
             "_forcing_series": 0}

    def counted(home, name):
        # rebound wherever the name is bound, so every call is seen
        original = getattr(home, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for module in (oddperiodic, solver, oracle, problems, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)

    counted(solver, "certify")
    counted(oracle, "pointwise_residual")
    counted(problems, "_forcing_series")
    validate = Problem._validate_g

    def counted_validate(self):
        calls["_validate_g"] += 1
        return validate(self)

    monkeypatch.setattr(Problem, "_validate_g", counted_validate)
    cfg = write_config(tmp_path, PENDULUM)
    out = tmp_path / "s.csv"
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(["sweep", cfg, "--param", "period", "--from", "4",
                         "--to", "10", "--steps", "6", "--modes", "32",
                         "--out", str(out)])
    assert code == 0
    rows = read_record(stdout.getvalue())["outcome"]["rows"]
    assert len(rows) == 6 and {r["holds"] for r in rows} == {True, False}
    # the certificate is derived by the validation of the base config and
    # of each row, and the sweep reads it there without calling certify;
    # each row is parsed from the config, so the base config and each row
    # realize the forcing pairs once
    assert calls == {"certify": 0, "pointwise_residual": 6, "_validate_g": 7,
                     "_forcing_series": 7}


def test_param_sweep_validates_each_row_once(tmp_path, monkeypatch):
    from oddperiodic import Problem, cli

    calls = []
    original = Problem._validate_g
    monkeypatch.setattr(Problem, "_validate_g",
                        lambda self: calls.append(self.g.params) or original(self))
    cfg = write_config(tmp_path, dict(PENDULUM, derivative_bound=0.2,
                                      majorants=[{"eps": 0.0, "M": 0.2}]))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["sweep", cfg, "--param", "a", "--from", "0.04",
                         "--to", "0.06", "--steps", "3", "--modes", "32",
                         "--out", str(tmp_path / "s.csv")])
    assert code == 0
    # the base config once, then one pass per row
    assert calls == [{"a": 0.04}, {"a": 0.04}, {"a": 0.05}, {"a": 0.06}]


def test_sweep_in_passes_equals_one_pass(tmp_path, monkeypatch):
    from oddperiodic import cli

    cfg = write_config(tmp_path, PENDULUM)
    out = tmp_path / "s.csv"

    def sweep():
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cli.main(["sweep", cfg, "--param", "period", "--from", "4",
                             "--to", "10", "--steps", "10", "--modes", "32",
                             "--out", str(out)])
        assert code == 0
        record = read_record(stdout.getvalue())
        del record["wall_time_s"]
        return record, out.read_bytes()

    one_pass = sweep()
    rows_per_call = []
    solve_many = cli.solve_many

    def counted(problems, **kwargs):
        rows_per_call.append(len(problems))
        return solve_many(problems, **kwargs)

    budget = 4 * 32  # four rows of 32 modes
    monkeypatch.setattr(cli, "SWEEP_PASS_COEFFS", budget)
    monkeypatch.setattr(cli, "solve_many", counted)
    assert sweep() == one_pass
    assert len(rows_per_call) >= 3 and sum(rows_per_call) == 10
    assert max(rows_per_call) * 32 <= budget
    assert {row["holds"] for row in one_pass[0]["outcome"]["rows"]} == {True, False}


@pytest.mark.parametrize("modes,passes", [(8, [256, 256, 88]),
                                          (2048, [128] * 4 + [88])])
def test_sweep_pass_bounds_its_rows(tmp_path, monkeypatch, modes, passes):
    # each row's half-period shot holds its tables of k and u whatever its
    # modes, so a row counts as at least 1024 of a pass's 2^18 working
    # coefficients: 256 rows at 8 modes, 128 at 2048
    from oddperiodic import cli

    rows_per_call = []
    monkeypatch.setattr(cli, "solve_many", lambda problems, **kwargs: (
        rows_per_call.append(len(problems)) or []))
    monkeypatch.setattr(cli, "shooting_distances", lambda *args: [])
    cfg = write_config(tmp_path, PENDULUM)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["sweep", cfg, "--param", "period", "--from", "1",
                         "--to", "3", "--steps", "600", "--modes", str(modes),
                         "--out", str(tmp_path / "s.csv")])
    assert code == 0 and rows_per_call == passes


def test_param_sweep_calls_g_once_per_tick_and_rk4_stage(tmp_path,
                                                        monkeypatch):
    # the rows of a --param sweep share one family, not one g: the batched
    # map makes one call of tanh_g per tick, and the batched midpoint shots
    # four per RK4 step, where one call per row makes 40 and 160
    from oddperiodic import cli, oracle, problems, solver

    phase, calls = [None], {}
    tanh = problems._VALUES["tanh_g"]

    def counted(*args):
        calls[phase[0]] = calls.get(phase[0], 0) + 1
        return tanh(*args)

    def in_phase(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            phase[0] = name
            calls[f"{name} calls"] = calls.get(f"{name} calls", 0) + 1
            try:
                return original(*args)
            finally:
                phase[0] = None

        monkeypatch.setattr(owner, name, wrapper)

    monkeypatch.setitem(problems._VALUES, "tanh_g", counted)
    in_phase(solver, "_nonlinear_parts")
    in_phase(oracle, "_integrate_rows")
    cfg = write_config(tmp_path, TANH)
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(["sweep", cfg, "--param", "s", "--from", "0.1",
                         "--to", "8", "--steps", "40", "--modes", "64",
                         "--out", str(tmp_path / "s.csv")])
    assert code == 0
    assert len(read_record(stdout.getvalue())["outcome"]["rows"]) == 40
    ticks = calls["_nonlinear_parts calls"]
    assert ticks > 1 and calls["_nonlinear_parts"] == ticks
    assert calls["_integrate_rows calls"] == 1
    assert calls["_integrate_rows"] == 4 * 1024


@pytest.mark.parametrize("start", ["0", "-1", "1e-300"])
def test_period_sweep_refuses_a_bad_row_period(tmp_path, start):
    from oddperiodic import cli

    cfg = write_config(tmp_path, PENDULUM)
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(["sweep", cfg, "--param", "period", "--from", start,
                         "--to", "4", "--steps", "3", "--modes", "8",
                         "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert read_strict(stdout.getvalue())["error"]["code"] == "bad_period"


def test_verify_tol_defaults_to_the_oracle_tolerance():
    import inspect

    from oddperiodic import cli, cross_validate, oracle

    args = cli._build_parser().parse_args(["verify", "c.json", "u.csv"])
    default = inspect.signature(cross_validate).parameters["tol"].default
    assert args.tol == default == oracle.DEFAULT_CHECK_TOL


def finite_or_null(value):
    """``value`` with every non-finite float inside it replaced by None:
    the walk the CLI made before json's own tokens did it."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [finite_or_null(item) for item in value]
    return value


RECORD_KEYS = st.text(max_size=8) | st.sampled_from(["NaN", "Infinity", "null"])
RECORD_LEAVES = (
    st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                       2.2250738585072014e-308, 1e308, -1e308])
    | st.integers() | st.booleans() | st.none()
    | st.text(max_size=8)
    | st.sampled_from(["NaN", "Infinity", "-Infinity", "null"]))
RECORDS = st.dictionaries(RECORD_KEYS, st.recursive(
    RECORD_LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(RECORD_KEYS, children, max_size=4)),
    max_leaves=24))


@settings(max_examples=300, deadline=None)
@given(record=RECORDS)
def test_dumps_writes_non_finite_floats_as_null(record):
    from oddperiodic import cli

    fh = io.StringIO()
    cli._write_record(record, fh)
    text = fh.getvalue()
    assert text == json.dumps(finite_or_null(record), indent=2,
                              sort_keys=True) + "\n"
    read_strict(text)


class _Sink:
    """A stream that counts the characters it is given and keeps none."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)


def _sweep_record(rows: int) -> dict:
    """A sweep run record of ``rows`` rows; every 7th row has a NaN
    oracle distance and an infinite residual."""
    table = [{"param": 1.0 + 2e-4 * i, "lambda": 0.1 * i, "holds": i % 3 == 0,
              "converged": True, "iterations": 12, "solution_norm": 0.01 * i,
              "residual": math.inf if i % 7 == 0 else 1e-13 * i,
              "oracle_distance": math.nan if i % 7 == 0 else 1e-12 * i}
             for i in range(rows)]
    return {"command": "sweep", "label": "pendulum", "config": PENDULUM,
            "options": {"param": "period", "steps": rows, "modes": 8},
            "outcome": {"rows": table, "out": "s.csv"}, "wall_time_s": 1.0}


# The record goes into its stream as it is encoded: no joined text and no
# list of json's chunks is held, so the peak is the parsed copy of the
# record, about twice its text (encoding it whole took 7.6 times).
def test_write_record_memory_is_the_parsed_record():
    from oddperiodic import cli

    cli._write_record(_sweep_record(2), _Sink())  # json's first-use costs
    record, sink = _sweep_record(10_000), _Sink()
    peak = _traced_peak(cli._write_record, record, sink)
    assert sink.written > 2_000_000
    assert peak <= 3 * sink.written


def test_a_closed_stdout_keeps_the_exit_code_and_a_quiet_stderr(tmp_path,
                                                                spawn_cli):
    # 300 rows make a record of about 90 KB, more than a pipe buffer holds,
    # so the writer meets the closed pipe
    cfg = write_config(tmp_path, PENDULUM)
    child = spawn_cli("sweep", cfg, "--param", "period", "--from", "1",
                      "--to", "3", "--steps", "300", "--modes", "8",
                      "--out", str(tmp_path / "s.csv"), cwd=tmp_path)
    assert child.stdout.read(10) == b'{\n  "comma'
    child.stdout.close()
    _, stderr = child.communicate(timeout=300)
    assert child.returncode == 0 and stderr == b""


# Numbers across the float line, as argv strings: non-finite, signed zero,
# negatives, the largest doubles, 20-digit integers and a few plain values.
FUZZ_INTS = ["1", "2", "3", "8"] * 2 + ["0", "-1", "9", "12345678901234567890",
                                       "-12345678901234567890"]
FUZZ_NUMBERS = FUZZ_INTS + ["nan", "inf", "-inf", "-0.0", "-2.5", "1e308",
                            "-1e308", "1e-6", "0.5", "4.5", "7"]
FUZZ_FLAGS = {
    "certify": [],
    "solve": ["--method", "--tol", "--max-iter", "--modes", "--out"],
    "verify": ["--tol"],
    "sweep": ["--param", "--from", "--to", "--steps", "--tol", "--max-iter",
              "--modes", "--out"],
    "compare": ["--tol", "--max-iter", "--modes"],
}
SWEEP_REQUIRED = ("--param", "--from", "--to", "--steps")
FUZZ_CONFIGS = ["cubic_large.json", "linear_small.json", "pendulum.json",
                "tanh.json", "zero.json"]
# file arguments: every config, a solution file, a missing path, a directory
FUZZ_PATHS = FUZZ_CONFIGS + ["good.csv", "missing.json", "adir", "out.csv"]
FUZZ_WORDS = ["picard", "continuation", "auto", "period", "a", "s", "c",
              "c3", "-x", "--bogus", "-", ""]


def _fuzz_text():
    # no NUL, surrogate or '/' (argv cannot hold the first two, and every
    # path stays in the working directory); no leading '-' (help flags)
    return st.text(st.characters(exclude_categories=("Cs",),
                                 exclude_characters="\x00/"),
                   max_size=12).filter(lambda s: not s.startswith("-"))


def _mostly(draw, pool):
    """An item of ``pool`` five times in six, else any value or text."""
    if draw(st.integers(0, 5)):
        return draw(st.sampled_from(pool))
    return draw(st.one_of(
        st.sampled_from(FUZZ_NUMBERS + FUZZ_PATHS + FUZZ_WORDS), _fuzz_text()))


@st.composite
def _fuzz_argv(draw):
    """A subcommand, its files, and flags of that command (now and then of
    another) with values of the flag's kind (now and then of any kind)."""
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [command, _mostly(draw, FUZZ_PATHS)]
    if command == "verify":
        argv.append(_mostly(draw, ["good.csv"] * 4 + FUZZ_PATHS))
    # a sweep's four required flags are left out together now and then,
    # --modes (whose default is above the small ceiling) now and then, and
    # the other flags half the time
    flags = []
    required = command == "sweep" and draw(st.integers(0, 19)) > 0
    for flag in FUZZ_FLAGS[command]:
        if flag in SWEEP_REQUIRED:
            if required:
                flags.append(flag)
        elif draw(st.integers(0, 9)) >= (1 if flag == "--modes" else 5):
            flags.append(flag)
    if draw(st.integers(0, 9)) == 0:  # a flag of any command
        flags.append(draw(st.sampled_from(FUZZ_FLAGS["sweep"])))
    # the pools repeat the values that pass the checks, so that runs get
    # as far as the solve, the oracle and the written files
    positive = ["0.5", "1", "4.5", "7"] * 2 + FUZZ_NUMBERS
    kinds = {"--method": ["picard", "continuation", "auto"],
             "--param": ["period"] * 4 + ["a", "s", "c", "c3"],
             "--out": FUZZ_PATHS, "--steps": FUZZ_INTS,
             "--max-iter": FUZZ_INTS, "--modes": FUZZ_INTS}
    for flag in flags:
        value = _mostly(draw, kinds.get(flag, positive))
        # "--flag=value" lets a value that starts with '-' through
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@pytest.fixture
def fuzz_dir(tmp_path, monkeypatch):
    """A working directory holding every config, a solution file of the
    pendulum config at 8 modes and a directory, with the CLI's ceilings
    made small and every solve capped at 20 iterations (the flags are
    under test, not convergence)."""
    from oddperiodic import cli, problems

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "MAX_MODES", 8)
    monkeypatch.setattr(problems, "MAX_MODES", 8)  # the --modes ceiling
    monkeypatch.setattr(cli, "MAX_SWEEP_STEPS", 3)
    for name in ("solve", "solve_many"):
        monkeypatch.setattr(cli, name, lambda *a, _f=getattr(cli, name), **kw: _f(
            *a, **dict(kw, max_iter=min(kw["max_iter"], 20))))
    (tmp_path / "adir").mkdir()
    configs = Path(__file__).resolve().parent.parent / "configs"
    for name in FUZZ_CONFIGS:
        (tmp_path / name).write_bytes((configs / name).read_bytes())
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["solve", "pendulum.json", "--modes", "8",
                         "--out", "good.csv"]) == 0
    return tmp_path


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_fuzz_argv())
# a range whose width overflows a double, a sweep that runs through, and
# one that solves and then cannot write its CSV
@example(argv=["sweep", "pendulum.json", "--param", "period", "--from=-1e308",
               "--to", "1e308", "--steps", "3", "--modes", "8"])
@example(argv=["sweep", "tanh.json", "--param", "period", "--from", "1",
               "--to", "12345678901234567890", "--steps", "3", "--modes", "8"])
@example(argv=["sweep", "pendulum.json", "--param", "a", "--from", "0.04",
               "--to", "0.06", "--steps", "2", "--modes=2", "--out", "adir"])
# a period of 1.2e19, whose iterate overflows after the inverse's gains
@example(argv=["sweep", "linear_small.json", "--param", "period",
               "--from", "12345678901234567890", "--to", "1e308",
               "--steps", "1", "--modes", "1"])
def test_fuzzed_argv_exits_cleanly(fuzz_dir, argv):
    """Any argv ends in argparse's exit 2, or in one strict JSON record
    with a documented exit code, and never in a warning."""
    from oddperiodic import cli

    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2 and out.getvalue() == ""
            code = None
    assert not caught, [str(w.message) for w in caught]
    if code is not None:
        assert code in (0, 2, 3, 4, 5)
        read_strict(out.getvalue())  # exactly one JSON document
