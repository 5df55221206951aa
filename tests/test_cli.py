"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from equifit.cli import main
from equifit.fitting import ProblemInstance, objective_value
from equifit.basis import parse_basis_spec


HAT_CSV = "x,y\n0,0\n1,1\n2,0\n"


@pytest.fixture
def hat_csv(tmp_path):
    path = tmp_path / "hat.csv"
    path.write_text(HAT_CSV)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fit_hat_with_certificates(hat_csv, capsys):
    code, out, err = run_cli(
        capsys, "fit", "--data", hat_csv, "--basis", "1, x", "--certify", "--verify"
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["discrepancy"] == pytest.approx(0.5, abs=1e-12)
    assert report["certificate"]["identities_ok"] is True
    assert report["certificate"]["active_count_ok"] is True
    assert report["certificate"]["two_sided_ok"] is True
    assert report["alternation"]["equioscillates"] is True
    assert report["oracle"]["agrees"] is True


def test_report_is_byte_stable_apart_from_timing(hat_csv, capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys,
            "fit",
            "--data",
            hat_csv,
            "--basis",
            "1, x",
            "--certify",
            "--verify",
        )
        assert code == 0
        report = json.loads(out)
        report.pop("timing")
        outputs.append(json.dumps(report, indent=2))
    assert outputs[0] == outputs[1]


def test_report_round_trips_discrepancy(hat_csv, capsys):
    code, out, _ = run_cli(capsys, "fit", "--data", hat_csv, "--basis", "1, x")
    assert code == 0
    report = json.loads(out)
    coefficients = [entry["value"] for entry in report["coefficients"]]
    instance = ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=[0.0, 1.0, 0.0],
        basis=parse_basis_spec("1, x", 1),
    )
    recomputed = objective_value(instance, coefficients)
    assert abs(recomputed - report["discrepancy"]) <= 1e-12


def test_bad_basis_token_exits_2(hat_csv, capsys):
    code, out, err = run_cli(capsys, "fit", "--data", hat_csv, "--basis", "1,q")
    assert code == 2
    assert err.startswith("E2: ")
    assert "q" in err


def test_nan_in_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n0,nan\n1,1\n")
    code, _, err = run_cli(capsys, "fit", "--data", str(path), "--basis", "1")
    assert code == 2
    assert err.startswith("E2: ")


def test_missing_column_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x,z\n0,0\n")
    code, _, err = run_cli(capsys, "fit", "--data", str(path), "--basis", "1")
    assert code == 2


def test_weight_column(tmp_path, capsys):
    path = tmp_path / "weighted.csv"
    path.write_text("x,y,mu\n0,0,2\n1,1,1\n")
    code, out, _ = run_cli(
        capsys, "fit", "--data", str(path), "--basis", "1", "--weights", "mu"
    )
    assert code == 0
    report = json.loads(out)
    assert report["instance"]["weighted"] is True
    assert report["discrepancy"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert report["coefficients"][0]["value"] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_emit_curve(hat_csv, tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        capsys,
        "fit",
        "--data",
        hat_csv,
        "--basis",
        "1, x",
        "--emit-curve",
        str(curve),
        "--grid",
        "10",
    )
    assert code == 0
    lines = curve.read_text().strip().splitlines()
    assert len(lines) == 11
    first_x, first_val = map(float, lines[0].split(","))
    last_x, _ = map(float, lines[-1].split(","))
    assert first_x == pytest.approx(0.0)
    assert last_x == pytest.approx(2.0)
    # Optimal hat fit is the flat midline.
    assert first_val == pytest.approx(0.5, abs=1e-9)


def test_emit_curve_rejected_for_2d(tmp_path, capsys):
    path = tmp_path / "plane.csv"
    path.write_text("x1,x2,y\n0,0,0\n1,0,1\n0,1,2\n")
    code, _, err = run_cli(
        capsys,
        "fit",
        "--data",
        str(path),
        "--basis",
        "1, x, y",
        "--emit-curve",
        str(tmp_path / "c.csv"),
    )
    assert code == 2


def test_two_dimensional_fit(tmp_path, capsys):
    path = tmp_path / "plane.csv"
    path.write_text("x1,x2,y\n0,0,0\n1,0,1\n0,1,2\n1,1,3.5\n")
    code, out, _ = run_cli(
        capsys, "fit", "--data", str(path), "--basis", "1, x, y", "--certify"
    )
    assert code == 0
    report = json.loads(out)
    assert report["instance"]["dimension"] == 2
    assert "skipped" in report["alternation"]


def test_text_format(hat_csv, capsys):
    code, out, _ = run_cli(
        capsys, "fit", "--data", hat_csv, "--basis", "1, x", "--format", "text"
    )
    assert code == 0
    assert "discrepancy" in out
    assert "coefficients" in out


def test_out_file(hat_csv, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "fit", "--data", hat_csv, "--basis", "1, x", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["discrepancy"] == pytest.approx(0.5)


def test_exact_interpolation_certificate_skipped(tmp_path, capsys):
    path = tmp_path / "line.csv"
    path.write_text("x,y\n0,1\n1,2\n")
    code, out, _ = run_cli(
        capsys, "fit", "--data", str(path), "--basis", "1, x", "--certify"
    )
    assert code == 0
    report = json.loads(out)
    assert report["exact_interpolation"] is True
    assert "skipped" in report["certificate"]


def test_selftest_small_run(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--seed", "42", "--instances", "3")
    assert code == 0
    assert "properties passed" in out


def test_selftest_deterministic(capsys):
    first = run_cli(capsys, "selftest", "--seed", "7", "--instances", "2")
    second = run_cli(capsys, "selftest", "--seed", "7", "--instances", "2")
    assert first == second


def test_selftest_zero_instances_exits_2(capsys):
    code, _, err = run_cli(capsys, "selftest", "--instances", "0")
    assert code == 2
    assert err.startswith("E2: ")


def test_basis_not_finite_on_the_data_exits_2(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    path.write_text("x,y\n0,1\n1,2\n2,0\n3,1\n")
    code, out, err = run_cli(capsys, "fit", "--data", str(path), "--basis", "1, 1/x")
    assert code == 2
    assert out == ""
    assert err.startswith("E2: ")
    assert "'1/x'" in err


def test_emit_curve_basis_not_finite_on_the_grid_exits_2(tmp_path, capsys):
    path = tmp_path / "gap.csv"
    path.write_text("x,y\n0,1\n0.25,2\n0.75,0\n1,1\n")
    curve = tmp_path / "c.txt"
    code, out, err = run_cli(
        capsys,
        "fit",
        "--data",
        str(path),
        "--basis",
        "1, 1/(x-0.5)",
        "--emit-curve",
        str(curve),
        "--grid",
        "4",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("E2: ")
    assert "grid x = 0.5" in err
    assert not curve.exists()


def test_verify_beyond_the_oracle_bounds_is_skipped(tmp_path, capsys):
    path = tmp_path / "sixteen.csv"
    rows = [f"{i},{(i * 7) % 5}" for i in range(16)]
    path.write_text("x,y\n" + "\n".join(rows) + "\n")
    code, out, err = run_cli(
        capsys, "fit", "--data", str(path), "--basis", "1, x", "--verify"
    )
    assert code == 0, err
    assert "n <= 15" in json.loads(out)["oracle"]["skipped"]
