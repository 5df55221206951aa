"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line once its criterion holds (visible with
``pytest -s`` or in verbose runs).  Seeds are fixed so every run checks the
same instances.
"""

import json

import numpy as np
import pytest

from equifit.basis import parse_basis_spec
from equifit.certificates import (
    check_two_sided,
    extract_certificate,
    verify_identities,
)
from equifit.cli import main
from equifit.equioscillation import (
    alternation_pattern,
    one_sided_construction,
    perturbation_step,
    strict_improvement_check,
)
from equifit.fitting import ProblemInstance, fit, objective_value
from equifit.generators import (
    random_instance,
    random_small_instance,
    random_weighted_instance,
    same_sided_reference_config,
)
from equifit.oracle import brute_force_fit


def _report(line):
    print(f"ACCEPTANCE {line}")


@pytest.fixture(scope="module")
def main_suite():
    """100 smooth random instances (n=50, m=5 monomials, 1-D), solved once
    and shared by the structural criteria."""
    rng = np.random.default_rng(20240817)
    solved = []
    for _ in range(100):
        instance = random_instance(rng, n=50, m=5)
        result = fit(instance)
        cert = extract_certificate(result.lp_solution, instance)
        solved.append((instance, result, cert))
    return solved


def test_criterion_1_active_point_count(main_suite):
    for instance, result, _ in main_suite:
        tol = 1e-7 * max(1.0, result.discrepancy)
        active = list(result.active_points)
        assert len(active) >= instance.m + 1, (
            f"only {len(active)} active points"
        )
        gaps = np.abs(
            np.abs(result.scaled_residuals[active]) - result.discrepancy
        )
        assert np.max(gaps) <= tol
    _report("1 PASS active-point count >= m+1 on 100 instances")


def test_criterion_2_overshoot_undershoot_and_dual_halves(main_suite):
    for instance, result, cert in main_suite:
        d = result.discrepancy
        tol = 1e-7 * max(1.0, d)
        assert np.any(result.scaled_residuals >= d - tol), "no undershoot touch"
        assert np.any(result.scaled_residuals <= -d + tol), "no overshoot touch"
        assert abs(cert.overshoot_sum - 0.5) <= 1e-9
        assert abs(cert.undershoot_sum - 0.5) <= 1e-9
        assert check_two_sided(result, cert)
    _report("2 PASS overshoot/undershoot touches with even dual halves")


def test_criterion_3_certificate_identities(main_suite):
    checked = 0
    for instance, result, cert in main_suite:
        report = verify_identities(cert, result, instance)
        tol = 1e-8 * max(1.0, result.discrepancy)
        assert report.strong_duality_gap <= tol
        assert report.beta_sum_residual <= 1e-9
        assert float(np.max(report.orthogonality_residuals)) <= 1e-8
        assert report.residual_pairing_gap <= 1e-8
        assert report.complementarity_violations == 0
        checked += 1
    assert checked == 100
    _report("3 PASS certificate identities on every optimal solve")


def test_criterion_4_brute_force_equivalence():
    rng = np.random.default_rng(512)
    non_unique = 0
    for _ in range(500):
        instance = random_small_instance(rng)
        result = fit(instance)
        oracle = brute_force_fit(instance)
        assert abs(result.discrepancy - oracle.discrepancy) <= 1e-8
        if np.max(np.abs(result.coefficients - oracle.coefficients)) > 1e-7:
            non_unique += 1
            assert (
                objective_value(instance, oracle.coefficients)
                <= oracle.discrepancy + 1e-8
            )
            assert (
                objective_value(instance, result.coefficients)
                <= result.discrepancy + 1e-8
            )
    _report(
        "4 PASS brute-force agreement on 500 instances "
        f"({non_unique} with multiple optima)"
    )


def test_criterion_5_weighted_rescale_equivalence():
    rng = np.random.default_rng(99)
    for _ in range(100):
        instance = random_weighted_instance(rng)
        weighted = fit(instance)
        g = instance.design()
        prescaled = fit(
            ProblemInstance.from_design(
                points=instance.points,
                values=instance.weights * instance.values,
                basis=instance.basis,
                design=instance.weights[:, None] * g,
            )
        )
        assert np.max(
            np.abs(weighted.coefficients - prescaled.coefficients)
        ) <= 1e-8
        assert abs(weighted.discrepancy - prescaled.discrepancy) <= 1e-9
    _report("5 PASS weighted fits equal pre-scaled unweighted fits")


def test_criterion_6_line_fit_to_parabola_samples():
    x = np.linspace(0.0, 1.0, 1001)
    instance = ProblemInstance(
        points=x.reshape(-1, 1),
        values=x**2,
        basis=parse_basis_spec("1, x", 1),
    )
    result = fit(instance)
    # The three-point alternation system at (0, 1/2, 1) gives the line
    # x - 1/8 and discrepancy 1/8; the dense grid contains those points.
    assert result.coefficients == pytest.approx([-0.125, 1.0], abs=1e-6)
    assert result.discrepancy == pytest.approx(0.125, abs=1e-6)
    _report("6 PASS classical line fit to 1001 parabola samples")


def test_criterion_7_one_sided_construction():
    rng = np.random.default_rng(1234)
    for _ in range(50):
        instance = random_instance(rng, n=20, m=3, noise=0.15)
        base = fit(instance)
        overshoot = next(
            i
            for i in base.active_points
            if base.scaled_residuals[i] < 0
        )
        flipped = one_sided_construction(instance, overshoot)
        result = fit(flipped)
        assert abs(result.discrepancy - base.discrepancy) <= 1e-9
        assert np.max(np.abs(result.coefficients - base.coefficients)) <= 1e-8
        assert not alternation_pattern(result, flipped).equioscillates
    _report("7 PASS one-sided construction preserves the optimum, kills alternation")


def test_criterion_8_perturbation_formula_and_improvement():
    rng = np.random.default_rng(4321)
    for _ in range(100):
        instance, reference, pair, epsilon = same_sided_reference_config(rng)
        step = perturbation_step(reference, instance, pair, epsilon)
        denom = max(abs(step.difference), abs(step.product_formula_value))
        assert denom > 0
        assert abs(step.difference - step.product_formula_value) <= 1e-8 * denom
        improvement = strict_improvement_check(reference, instance, pair, epsilon)
        assert improvement.reduced
        assert improvement.max_reference_discrepancy < reference.discrepancy
    _report("8 PASS product formula agreement and strict two-bump improvement")


def test_criterion_9_convexity_of_the_objective():
    rng = np.random.default_rng(777)
    for _ in range(20):
        instance = random_instance(rng, n=25, m=3, noise=0.2)
        g = instance.design()
        y = instance.values
        alphas = rng.uniform(-2, 2, size=(1000, instance.m))
        betas = rng.uniform(-2, 2, size=(1000, instance.m))
        ts = rng.uniform(0, 1, size=1000)
        obj_a = np.max(np.abs(y[None, :] - alphas @ g.T), axis=1)
        obj_b = np.max(np.abs(y[None, :] - betas @ g.T), axis=1)
        mixed = ts[:, None] * alphas + (1 - ts)[:, None] * betas
        obj_mixed = np.max(np.abs(y[None, :] - mixed @ g.T), axis=1)
        assert np.all(obj_mixed <= ts * obj_a + (1 - ts) * obj_b + 1e-12)
    _report("9 PASS convexity of the objective on 20000 random triples")


def test_criterion_10_cli_golden_report(tmp_path, capsys):
    path = tmp_path / "hat.csv"
    path.write_text("x,y\n0,0\n1,1\n2,0\n")
    outputs = []
    for _ in range(2):
        code = main(
            [
                "fit",
                "--data",
                str(path),
                "--basis",
                "1, x",
                "--certify",
                "--verify",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["discrepancy"] == pytest.approx(0.5, abs=1e-12)
        assert report["certificate"]["identities_ok"] is True
        assert report["certificate"]["active_count_ok"] is True
        assert report["certificate"]["two_sided_ok"] is True
        assert report["alternation"]["equioscillates"] is True
        assert report["oracle"]["agrees"] is True
        report.pop("timing")  # wall-clock, the one varying field
        outputs.append(json.dumps(report, indent=2))
    assert outputs[0] == outputs[1]
    _report("10 PASS golden CLI report is byte-stable with all flags true")
