"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from equifit.cli import build_parser, main
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


def test_selftest_negative_seed_exits_2(capsys):
    code, out, err = run_cli(capsys, "selftest", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "E2: --seed must be non-negative, got -1\n"


@pytest.mark.parametrize(
    "spec",
    [
        "x\u00b2",
        "1, \u00b2",
        "(" * 200 + "x" + ")" * 200,
        "x^" + "9" * 400,
        "x^" + "9" * 5000,
    ],
    ids=["superscript-name", "superscript-number", "deep-parens",
         "exponent-beyond-float", "exponent-beyond-int-conversion"],
)
def test_malformed_basis_exits_2_with_one_line(tmp_path, capsys, spec):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n0,1\n1,2\n2,0\n3,1\n")
    code, out, err = run_cli(capsys, "fit", "--data", str(path), "--basis", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("E2: ")
    assert err.count("\n") == 1


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


def test_verify_on_a_rank_deficient_basis_is_skipped(tmp_path, capsys):
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, 9)
    path = tmp_path / "sine.csv"
    path.write_text(
        "x,y\n" + "".join(f"{float(a)!r},{float(np.sin(4 * a))!r}\n" for a in x)
    )
    for spec in ("x, 2*x", "x, 3*x", "x, 0.1*x", "1, x, 1+x"):
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--basis", spec, "--verify"
        )
        assert code == 0, (spec, err)
        report = json.loads(out)
        assert report["low_rank"] is True
        assert "rank-deficient" in report["oracle"]["skipped"]


def test_verify_on_ill_conditioned_witness_blocks_is_skipped(tmp_path, capsys):
    # Both used to exit 4: the oracle answered from above the de la Vallee
    # Poussin floor, with a candidate that is not optimal.
    cluster = tmp_path / "cluster.csv"
    cluster_x = [-1.189366533870768, -1.1893675973699462, -1.1893575314804548,
                 -1.189394763190756, -1.1893667830363301]
    cluster.write_text("x,y\n" + "".join(f"{a!r},-0.9\n" for a in cluster_x))
    # A cubic on a window of width 0.015, full rank: no candidate at the
    # floor passes the feasibility test.
    cubic = tmp_path / "cubic.csv"
    cubic.write_text("x,y\n" + "".join(
        f"{a!r},{b!r}\n" for a, b in zip(
            [-1.6509514766112707, -1.6457447478262937, -1.6528384762528707,
             -1.6471325116662507, -1.6605600195852483, -1.647835403796264,
             -1.6595419659003983, -1.6624768732740762, -1.6557736539851227,
             -1.66131535799234],
            [0.29694375038898274, 0.18391863530155175, 0.23115015924921078,
             0.2080454924062576, 0.25065961064799736, 0.2316800161999709,
             0.3162679779190855, 0.36333230053453075, 0.23542497347901778,
             0.25803283980754815],
        )
    ))
    for path, spec in ((cluster, "1, x^2, x^4"), (cubic, "1, x, x^2, x^3")):
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--basis", spec,
            "--certify", "--verify",
        )
        assert code == 0, (spec, err)
        assert json.loads(out)["oracle"]["skipped"]
    assert "floor" in json.loads(out)["oracle"]["skipped"]


def test_csv_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"x,y\n0,\xff\xfe\n1,1\n")
    code, out, err = run_cli(capsys, "fit", "--data", str(path), "--basis", "1")
    assert code == 2
    assert out == ""
    assert err.startswith(f"E2: {path}: not UTF-8 text")
    assert len(err.splitlines()) == 1


def test_malformed_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text('x,y\n0,"' + "1" * 200_000 + '"\n')
    code, out, err = run_cli(capsys, "fit", "--data", str(path), "--basis", "1")
    assert code == 2
    assert out == ""
    assert err.startswith(f"E2: {path}: malformed CSV: field larger than")
    assert len(err.splitlines()) == 1


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "equifit", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: equifit")
    assert "selftest" in done.stdout


def test_verify_agrees_on_values_of_order_1e6(tmp_path, capsys):
    # The oracle's feasibility slack and the agreement tolerance scale with
    # the values; absolute ones rejected the true optimum here (exit 4).
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(0.0, 1.0, 12))
    y = 1e6 * (np.sin(4 * x) + rng.normal(0.0, 0.05, 12))
    path = tmp_path / "large.csv"
    path.write_text(
        "x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y))
    )
    code, out, err = run_cli(
        capsys, "fit", "--data", str(path), "--basis", "1, x, x^2, x^3", "--verify"
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["discrepancy"] == pytest.approx(43931.0097, rel=1e-8)
    assert report["oracle"]["agrees"] is True
    assert report["oracle"]["discrepancy_gap"] <= 1e-8 * report["discrepancy"]


def test_csv_with_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfx,y\n0,0\n1,1\n")
    code, out, err = run_cli(capsys, "fit", "--data", str(path), "--basis", "1, x")
    assert code == 0, err
    report = json.loads(out)
    assert [entry["value"] for entry in report["coefficients"]] == pytest.approx(
        [0.0, 1.0], abs=1e-12
    )


def test_column_named_twice_exits_2(tmp_path, capsys):
    path = tmp_path / "twice.csv"
    path.write_text("x,y,y\n0,0,5\n1,1,6\n")
    code, out, err = run_cli(capsys, "fit", "--data", str(path), "--basis", "1")
    assert code == 2
    assert out == ""
    assert err == f"E2: {path}: column 'y' appears twice in the header\n"


def test_row_with_more_cells_than_the_header_exits_2(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text("x,y\n0,0,7\n1,1\n2,4\n3,9,1,2\n")
    code, out, err = run_cli(capsys, "fit", "--data", str(path), "--basis", "1, x")
    assert code == 2
    assert out == ""
    assert err == f"E2: {path} line 2: 3 cells, but the header names 2 columns\n"


def test_blank_header_line_exits_2(tmp_path, capsys):
    path = tmp_path / "blank_header.csv"
    path.write_text("\nx,y\n0,0\n1,1\n")
    code, out, err = run_cli(capsys, "fit", "--data", str(path), "--basis", "1, x")
    assert code == 2
    assert out == ""
    assert err == f"E2: {path} line 1: blank, header row required\n"


def test_line_numbers_count_blank_lines(tmp_path, capsys):
    path = tmp_path / "gaps.csv"
    path.write_text("x,y\n\n0,0\n\n1,abc\n")
    code, out, err = run_cli(capsys, "fit", "--data", str(path), "--basis", "1, x")
    assert code == 2
    assert out == ""
    assert err == f"E2: {path} line 5: column 'y' has non-numeric value 'abc'\n"


def test_options_do_not_carry_over_between_calls(tmp_path, capsys):
    path = tmp_path / "weighted.csv"
    path.write_text("x,y,w\n0,0,1\n1,1,2\n2,0,1\n3,2,1\n")
    assert build_parser() is build_parser()
    code, out, err = run_cli(
        capsys,
        "fit",
        "--data",
        str(path),
        "--basis",
        "1, x",
        "--weights",
        "w",
        "--certify",
    )
    assert code == 0, err
    first = json.loads(out)
    assert first["instance"]["weighted"] is True
    assert "weighted_residuals" in first and "certificate" in first
    code, out, err = run_cli(capsys, "fit", "--data", str(path), "--basis", "1, x")
    assert code == 0, err
    second = json.loads(out)
    assert second["instance"]["weighted"] is False
    assert "weighted_residuals" not in second
    assert "certificate" not in second
    assert "alternation" not in second


def test_row_with_fewer_cells_than_the_header_exits_2(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("x,y,w\n0,1\n1,2,1\n2,0,1\n")
    code, out, err = run_cli(
        capsys, "fit", "--data", str(path), "--basis", "1, x", "--weights", "w"
    )
    assert code == 2
    assert out == ""
    assert err == f"E2: {path} line 2: 2 cells, but the header names 3 columns\n"


def test_short_row_exits_2_when_the_missing_column_is_unused(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("x,y,w\n0,1,1\n\n1,2\n2,0,1\n")
    code, out, err = run_cli(capsys, "fit", "--data", str(path), "--basis", "1, x")
    assert code == 2
    assert out == ""
    assert err == f"E2: {path} line 4: 2 cells, but the header names 3 columns\n"
