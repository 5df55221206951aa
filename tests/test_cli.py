"""Tests for the command-line interface."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equifit.cli import build_parser, main
from equifit.fitting import ProblemInstance, objective_value
from equifit.basis import parse_basis_spec
from equifit.generators import random_instance
import equifit.cli as cli
import equifit.fitting as fitting
import equifit.selftest as selftest
from equifit.lp import INFEASIBLE, LpSolution


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


def test_dim_1_fits_the_first_coordinate_alone(tmp_path, capsys):
    path = tmp_path / "plane.csv"
    path.write_text("x1,x2,y\n0,5,0\n1,-3,1\n2,7,0\n3,1,2\n")
    code, out, err = run_cli(
        capsys, "fit", "--data", str(path), "--basis", "1, x", "--dim", "1",
        "--certify",
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["instance"]["dimension"] == 1
    assert report["alternation"]["equioscillates"] is True


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_dim_below_1_names_the_flag(hat_csv, capsys, dim):
    code, out, err = run_cli(
        capsys, "fit", "--data", hat_csv, "--basis", "1", "--dim", dim
    )
    assert code == 2
    assert out == ""
    assert err == f"E2: --dim must be at least 1, got {dim}\n"


@pytest.mark.parametrize("dim", [10**6, 10**18], ids=["1e6", "1e18"])
@pytest.mark.parametrize(
    "text, missing", [("x,y\n0,1\n", "x1"), ("x1,x2,y\n0,1,2\n", "x3")]
)
def test_a_huge_dim_costs_no_memory(tmp_path, capsys, dim, text, missing):
    path = tmp_path / "data.csv"
    path.write_text(text)
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--basis", "1", "--dim", str(dim)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == f"E2: {path}: missing column {missing!r}\n"
    assert peak < 1_000_000


def test_text_format(hat_csv, capsys):
    code, out, _ = run_cli(
        capsys, "fit", "--data", hat_csv, "--basis", "1, x", "--format", "text"
    )
    assert code == 0
    assert "discrepancy" in out
    assert "coefficients" in out


@pytest.mark.parametrize(
    "text, spec, lines",
    [
        (
            "x,y\n0,1\n1,2\n",
            "1, x",
            [
                "exact interpolation: the data is matched with zero error",
                "certificate: skipped (exact interpolation (discrepancy ~ 0): "
                "certificates are not defined for this case)",
                "alternation: skipped (alternation analysis needs a "
                "non-degenerate fit)",
                "brute-force check: skipped (need at least m + 1 = 3 points, got 2)",
            ],
        ),
        (
            HAT_CSV,
            "x, 2*x",
            [
                "low rank: the design matrix is rank deficient",
                "certificate: skipped (rank-deficient design: certificates are "
                "not defined)",
                "alternation: skipped (alternation analysis needs a "
                "non-degenerate fit)",
                "brute-force check: skipped (design has rank 1 < m = 2 "
                "(rank-deficient design))",
            ],
        ),
    ],
    ids=["exact-interpolation", "low-rank"],
)
def test_text_report_names_each_skipped_check(tmp_path, capsys, text, spec, lines):
    path = tmp_path / "data.csv"
    path.write_text(text)
    code, out, err = run_cli(
        capsys, "fit", "--data", str(path), "--basis", spec, "--format", "text",
        "--certify", "--verify",
    )
    assert code == 0, err
    report = out.splitlines()
    start = report.index(lines[0])
    assert report[start : start + len(lines)] == lines


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


def test_selftest_failure_prints_the_first_failing_instance(monkeypatch, capsys):
    real = selftest.verify_identities

    def violated(cert, result, instance):
        return dataclasses.replace(real(cert, result, instance), identities_ok=False)

    monkeypatch.setattr(selftest, "verify_identities", violated)
    lines = []
    assert selftest.run_battery(42, 3, lines.append) is False
    at = next(i for i, line in enumerate(lines) if line.startswith("FAIL"))
    assert lines[at].startswith("FAIL certificate identities (3/3): duality gap ")
    assert sum(line.startswith("  failing instance: ") for line in lines) == 1
    payload = json.loads(lines[at + 1].removeprefix("  failing instance: "))
    first = random_instance(np.random.default_rng(42), n=50, m=5)
    assert payload == selftest.serialize_instance(first)
    assert lines[-1] == "6/7 properties passed"

    code, out, _ = run_cli(capsys, "selftest", "--seed", "42", "--instances", "3")
    assert code == 1
    assert "FAIL certificate identities (3/3)" in out


@pytest.mark.parametrize(
    "rows",
    [
        "0,4.5e307\n0.25,0\n0.5,5e307\n0.75,-4e307\n1,1e307\n",
        "0,0\n0.5,4.5e307\n1,-3.5e307\n",
    ],
    ids=["nan-ratios", "nan-optimum"],
)
def test_values_near_the_float_limit_exit_3_with_one_line(tmp_path, capsys, rows):
    path = tmp_path / "huge.csv"
    path.write_text("x,y\n" + rows)
    with np.errstate(all="ignore"):
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--basis", "1, x, x^2"
        )
    assert code == 3
    assert out == ""
    assert err.startswith("E3: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "rows",
    [
        "0,4.5e307\n0.25,0\n0.5,5e307\n0.75,-4e307\n1,1e307\n",
        "0,0\n0.5,4.5e307\n1,-3.5e307\n",
    ],
    ids=["nan-ratios", "nan-optimum"],
)
def test_values_near_the_float_limit_warn_nothing_before_e3(tmp_path, rows):
    # Run as a program with warnings as errors: a numpy RuntimeWarning on
    # the way to the E3 line would end in a traceback and exit 1.
    path = tmp_path / "huge.csv"
    path.write_text("x,y\n" + rows)
    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["-W", "error::RuntimeWarning", "-m", "equifit", "fit", "--data", str(path)]
    done = subprocess.run(
        [sys.executable, *argv, "--basis", "1, x, x^2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("E3: ")
    assert done.stderr.count("\n") == 1


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


def test_emit_curve_on_a_grid_numpy_cannot_allocate_exits_2(hat_csv, tmp_path, capsys):
    # numpy refuses 2^62 + 1 doubles before it allocates anything.
    curve = tmp_path / "c.txt"
    code, out, err = run_cli(
        capsys,
        "fit",
        "--data",
        hat_csv,
        "--basis",
        "1, x",
        "--emit-curve",
        str(curve),
        "--grid",
        str(2**62),
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"E2: cannot emit the curve on {2**62 + 1} points: ")
    assert err.count("\n") == 1
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


def test_verify_certifies_a_design_on_shrunk_abscissae(tmp_path, capsys):
    # x^2 is near 1e-10 here: read from the raw columns, the rank was 2 and
    # both checks were skipped as rank-deficient.
    rng = np.random.default_rng(0)
    u = np.sort(rng.uniform(-1.0, 1.0, 12))
    y = np.sin(3 * u) + 0.1 * rng.standard_normal(12)
    path = tmp_path / "shrunk.csv"
    path.write_text(
        "x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(1e-5 * u, y))
    )
    code, out, err = run_cli(
        capsys, "fit", "--data", str(path), "--basis", "1, x, x^2",
        "--certify", "--verify",
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["low_rank"] is False
    assert report["certificate"]["identities_ok"] is True
    assert report["oracle"]["agrees"] is True
    assert report["discrepancy"] == pytest.approx(0.5714744107964222, rel=1e-12)


@pytest.mark.parametrize("scale", [1e60, 1e-60])
def test_verify_agrees_on_a_cubic_at_extreme_abscissae(tmp_path, capsys, scale):
    # The brute-force check used to be skipped here: the witness blocks of
    # the unscaled columns were too ill-conditioned.
    x = scale * np.linspace(0.0, 1.0, 11)
    y = np.sin(4.0 * x / scale) + 0.1 * np.cos(17.0 * x / scale)
    path = tmp_path / "cubic.csv"
    path.write_text(
        "x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y))
    )
    code, out, err = run_cli(
        capsys, "fit", "--data", str(path), "--basis", "1, x, x^2, x^3",
        "--certify", "--verify", "--format", "text",
    )
    assert code == 0, err
    lines = out.splitlines()
    assert any(line.endswith("identities ok") for line in lines)
    assert any(line.startswith("brute-force check: agrees (") for line in lines)


def test_text_report_names_the_coefficient_gap_of_a_disagreement(
    hat_csv, monkeypatch, capsys
):
    real = cli.compare_with_oracle

    def disagreeing(result):
        comparison = real(result)
        return dataclasses.replace(
            comparison, discrepancy_gap=0.0, coefficient_gap=2.5, agrees=False
        )

    monkeypatch.setattr(cli, "compare_with_oracle", disagreeing)
    code, out, _ = run_cli(
        capsys, "fit", "--data", hat_csv, "--basis", "1, x", "--verify",
        "--format", "text",
    )
    assert code == 4
    assert (
        "brute-force check: DISAGREES (discrepancy gap 0.0, coefficient gap 2.5)"
        in out
    )


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


def test_a_solver_failure_of_the_fit_lp_exits_3_with_one_line(
    hat_csv, monkeypatch, capsys
):
    def failing(lp):
        return LpSolution(status=INFEASIBLE, reason="constraints are inconsistent")

    monkeypatch.setattr(fitting, "solve_lp", failing)
    code, out, err = run_cli(capsys, "fit", "--data", hat_csv, "--basis", "1, x")
    assert code == 3
    assert out == ""
    assert err.startswith("E3: ")
    assert "numeric failure: the fit LP is feasible and bounded" in err
    assert err.count("\n") == 1


def test_values_times_two_to_the_minus_40_scale_the_report_exactly(tmp_path, capsys):
    # Four points and a line: three of them touch the band.  At 2^-40 the
    # values are far below one; they are lifted before the LP and the checks
    # read them, so only d, the coefficients and the residuals change, by
    # exactly 2^-40.
    x = [0.0, 0.3, 0.7, 1.0]
    y = [0.2, 1.1, 0.4, 0.9]
    reports = []
    for k in (0, -40):
        path = tmp_path / f"four{k}.csv"
        rows = "".join(f"{a!r},{float(np.ldexp(b, k))!r}\n" for a, b in zip(x, y))
        path.write_text("x,y\n" + rows)
        code, out, err = run_cli(
            capsys, "fit", "--data", str(path), "--basis", "1, x",
            "--certify", "--verify",
        )
        assert code == 0, err
        reports.append(json.loads(out))
    plain, shrunk = reports
    assert shrunk["discrepancy"] == np.ldexp(plain["discrepancy"], -40)
    for entry, scaled in zip(plain["coefficients"], shrunk["coefficients"]):
        assert scaled["value"] == np.ldexp(entry["value"], -40)
    assert shrunk["active_points"] == plain["active_points"]
    assert len(plain["active_points"]) == 3
    assert shrunk["exact_interpolation"] is plain["exact_interpolation"] is False
    for key in ("identities_ok", "active_count_ok", "two_sided_ok"):
        assert shrunk["certificate"][key] is plain["certificate"][key] is True
    assert shrunk["alternation"] == plain["alternation"]
    assert plain["alternation"]["equioscillates"] is True
    assert shrunk["oracle"]["agrees"] is plain["oracle"]["agrees"] is True


# A weight times a value overflows; a weighted point's coefficient maps back
# through a column scale near 2^1023 and a value scale near 2^970; a
# residual overflows after the LP.
OVERFLOWING_WEIGHT_CSV = "x,y,w\n0,7e9,1e300\n1,1,1\n2,0,1\n"
HUGE_COEFFICIENT_CSV = "x,y,w\n1e8,1e8,1e-300\n0.001,5,0\n"
OVERFLOWING_RESIDUAL_CSV = "x1,x2,y,w\n0,1e-300,-0,0.5\n1e-300,7e9,1e8,1\n2,1e8,1e8,0\n"


@pytest.mark.parametrize(
    "text, spec, expected",
    [(OVERFLOWING_WEIGHT_CSV, "1, x", 2), (OVERFLOWING_RESIDUAL_CSV, "1, x, y", 3)],
    ids=["weight-times-value", "residual"],
)
def test_an_overflow_exits_with_one_line(tmp_path, capsys, text, spec, expected):
    path = tmp_path / "overflow.csv"
    path.write_text(text)
    code, out, err = run_cli(
        capsys, "fit", "--data", str(path), "--basis", spec, "--weights", "w"
    )
    assert code == expected
    assert out == ""
    assert err.startswith(f"E{expected}: ")
    assert err.count("\n") == 1


def test_a_huge_coefficient_maps_back_without_overflow(tmp_path, capsys):
    # alpha = 1e16 interpolates the one weighted point.
    path = tmp_path / "huge.csv"
    path.write_text(HUGE_COEFFICIENT_CSV)
    code, out, err = run_cli(
        capsys, "fit", "--data", str(path), "--basis", "1/x", "--weights", "w"
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["coefficients"][0]["value"] == pytest.approx(1e16, rel=1e-15)
    assert report["exact_interpolation"] is True


NUMBERS = ["0", "1", "-2.5", "7e9", "1e300", "1e-300", "1e-320"]


@st.composite
def csv_texts(draw):
    """Small CSVs: a header of coordinate, value and weight columns, cells
    from a few awkward numbers, some ragged rows and blank lines, and in a
    quarter of them empty and text cells."""
    coords = draw(st.sampled_from([["x"], ["x1", "x2"]]))
    header = draw(st.permutations(coords + ["y"] + draw(st.sampled_from([[], ["w"]]))))
    cells = st.sampled_from(NUMBERS + draw(st.sampled_from([[]] * 3 + [["", "text"]])))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
        width = len(header) + draw(st.sampled_from([0] * 18 + [-1, 1]))
        lines.append(",".join(draw(st.lists(cells, min_size=width, max_size=width))))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(
    text=csv_texts(),
    spec=st.sampled_from(["1", "1, x", "1/x", "1, x, y"]),
    weighted=st.booleans(),
)
@example(text=OVERFLOWING_WEIGHT_CSV, spec="1, x", weighted=True)
@example(text=HUGE_COEFFICIENT_CSV, spec="1/x", weighted=True)
@example(text=OVERFLOWING_RESIDUAL_CSV, spec="1, x, y", weighted=True)
def test_any_csv_exits_0_2_or_3_without_warnings(text, spec, weighted):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w") as handle:
            handle.write(text)
        argv = ["fit", "--data", path, "--basis", spec]
        argv += ["--weights", "w"] if weighted else []
        argv += ["--out", os.path.join(tmp, "report.json")]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stderr(err):
                code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().startswith(f"E{code}: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
