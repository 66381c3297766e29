"""Tests for tools/same_records.py's report of the keys that differ."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_records.py"


@pytest.fixture(scope="module")
def same_records():
    spec = importlib.util.spec_from_file_location("same_records", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_json_paths_name_each_differing_leaf(same_records):
    a = {"outcome": {"apriori_bound": 40.7, "rows": [{"r": 0.0}, {"r": 1}]},
         "only_a": 1, "same": [1, 2]}
    b = {"outcome": {"apriori_bound": 49.3, "rows": [{"r": -0.0}, {"r": 1.0}]},
         "only_b": None, "same": [1, 2]}
    assert same_records.json_paths(a, b) == [
        "only_a", "only_b", "outcome.apriori_bound", "outcome.rows.0.r",
        "outcome.rows.1.r"]
    assert same_records.json_paths({"l": [1]}, {"l": [1, 2]}) == ["l"]
    assert same_records.json_paths([1], {}) == ["(root)"]
    assert same_records.json_paths(a, a) == []


def test_described_names_the_keys_of_records_only(same_records, tmp_path):
    runs = [tmp_path / "parent", tmp_path / "change"]
    for run, bound in zip(runs, (40.7, 49.3)):
        run.mkdir()
        record = {"outcome": {"apriori_bound": bound}, "wall_time_s": bound}
        (run / "cmd_00.stdout").write_text(json.dumps(record))
        (run / "u.csv.json").write_text(json.dumps(record))
        (run / "u.csv").write_text(f"t,u\n0.0,{bound}\n")
        (run / "cmd_01.stdout").write_text("not json" if bound > 41 else "{}")
    assert same_records.differing(*runs) == [
        "cmd_00.stdout", "cmd_01.stdout", "u.csv", "u.csv.json"]
    assert [same_records.described(*runs, name)
            for name in same_records.differing(*runs)] == [
        "cmd_00.stdout: outcome.apriori_bound", "cmd_01.stdout", "u.csv",
        "u.csv.json: outcome.apriori_bound"]
