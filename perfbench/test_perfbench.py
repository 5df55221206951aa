"""Checks of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py

Each test starts ``run.py`` as a user would; the traced runs take about a
minute in all.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def traced(workload, seed):
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_matches_the_metrics_run_py_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


# The counts the benchmark promises to repeat exactly on one seed.
DETERMINISTIC = (
    "lp.pivots_per_op",
    "oracle.systems_per_op",
    "fitting.lp_rows",
    "certificates.ok_ratio",
    "basis.design_calls_per_op",
    "basis.rank_calls_per_op",
    "lp.tableau_mb",
    "failed.count",
)


@pytest.mark.parametrize("workload", ["many_small", "verify_cli", "grid_smooth"])
def test_two_runs_of_a_seed_give_the_same_counts(workload):
    first_details, first = traced(workload, 5)
    second_details, second = traced(workload, 5)
    assert first["correct"] and second["correct"]
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first_details["count_window"] == second_details["count_window"]
    assert first_details["window_pivots"] == second_details["window_pivots"]


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = bench("--workload", "many_small", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""
