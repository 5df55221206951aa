"""Tests for dual certificates and the optimality identities."""

import dataclasses

import numpy as np
import pytest

from equifit.basis import parse_basis_spec
from equifit.certificates import (
    DualCertificate,
    check_active_point_count,
    check_two_sided,
    extract_certificate,
    verify_identities,
)
from equifit.errors import DegenerateCase, PreconditionError
from equifit.fitting import ProblemInstance, fit
from equifit.lp import INFEASIBLE, LpSolution


def constant_instance(scale=1.0):
    return ProblemInstance(
        points=[[0.0], [1.0]],
        values=[0.0, scale],
        basis=parse_basis_spec("1", 1),
    )


def hat_instance():
    return ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=[0.0, 1.0, 0.0],
        basis=parse_basis_spec("1, x", 1),
    )


def fitted(instance):
    result = fit(instance)
    cert = extract_certificate(result.lp_solution, instance)
    return result, cert


def test_constant_certificate_masses():
    # Hand-solved dual: multiplier 1/2 on the overshoot row of point 0 and
    # 1/2 on the undershoot row of point 1.
    _, cert = fitted(constant_instance())
    assert cert.beta == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-9)
    assert cert.overshoot_sum == pytest.approx(0.5, abs=1e-9)
    assert cert.undershoot_sum == pytest.approx(0.5, abs=1e-9)
    assert cert.dual_objective == pytest.approx(0.5, abs=1e-9)


def test_certificate_invariant_under_value_scaling():
    _, cert1 = fitted(constant_instance(1.0))
    _, cert2 = fitted(constant_instance(2.0))
    assert cert1.beta == pytest.approx(cert2.beta, abs=1e-9)


def test_beta_sums_to_one():
    for instance in (constant_instance(), hat_instance()):
        _, cert = fitted(instance)
        assert cert.overshoot_sum + cert.undershoot_sum == pytest.approx(
            1.0, abs=1e-9
        )
        assert np.all(cert.beta >= 0)


def test_masses_are_read_off_beta_and_judged_by_the_two_sided_check():
    instance = hat_instance()
    result, cert = fitted(instance)
    assert check_two_sided(result, cert) is True
    # Three quarters of the mass on the overshoot rows, a quarter on the others.
    beta = cert.beta * np.tile([1.5, 0.5], instance.n)
    lopsided = DualCertificate(beta=beta, dual_objective=cert.dual_objective)
    assert lopsided.overshoot_sum == float(np.sum(beta[0::2]))
    assert lopsided.undershoot_sum == float(np.sum(beta[1::2]))
    assert (lopsided.overshoot_sum, lopsided.undershoot_sum) == pytest.approx(
        (0.75, 0.25), abs=1e-12
    )
    assert check_two_sided(result, lopsided) is False


def test_identities_on_hat_fit():
    instance = hat_instance()
    result, cert = fitted(instance)
    report = verify_identities(cert, result, instance)
    assert report.strong_duality_gap <= 1e-9
    assert report.beta_sum_residual <= 1e-9
    assert report.value_sum_gap <= 1e-9
    assert np.max(report.orthogonality_residuals) <= 1e-9
    assert report.residual_pairing_gap <= 1e-9
    assert report.complementarity_violations == 0
    assert report.identities_ok
    assert report.active_count_ok
    assert report.two_sided_ok is True


def test_fabricated_beta_flags_sum_violation():
    instance = hat_instance()
    result, cert = fitted(instance)
    fake = DualCertificate(
        beta=cert.beta * 2.0, dual_objective=cert.dual_objective * 2.0
    )
    report = verify_identities(fake, result, instance)
    assert report.beta_sum_residual > 1e-9
    assert not report.identities_ok


def test_combined_orthogonality_is_linear_in_the_rows():
    instance = hat_instance()
    result, cert = fitted(instance)
    report = verify_identities(cert, result, instance)
    bound = (
        instance.m
        * float(np.max(report.orthogonality_residuals))
        * float(np.max(np.abs(result.coefficients)))
    )
    assert report.combined_orthogonality_residual <= bound + 1e-15


def test_active_count_on_line_fits():
    instance = hat_instance()
    result, _ = fitted(instance)
    assert check_active_point_count(result, instance.m)
    parabola = ProblemInstance(
        points=[[0.0], [0.5], [1.0]],
        values=[0.0, 0.25, 1.0],
        basis=parse_basis_spec("1, x", 1),
    )
    result = fit(parabola)
    assert len(result.active_points) == 3
    assert check_active_point_count(result, parabola.m)


def test_exact_interpolation_is_degenerate():
    square = ProblemInstance(
        points=[[0.0], [1.0]],
        values=[1.0, 2.0],
        basis=parse_basis_spec("1, x", 1),
    )
    result = fit(square)
    assert result.exact_interpolation
    with pytest.raises(DegenerateCase):
        extract_certificate(result.lp_solution, square)
    with pytest.raises(DegenerateCase):
        check_active_point_count(result, square.m)


def test_two_sided_requires_constant_first():
    instance = ProblemInstance(
        points=[[1.0], [2.0]],
        values=[0.0, 1.0],
        basis=parse_basis_spec("x", 1),
    )
    result = fit(instance)
    cert = extract_certificate(result.lp_solution, instance)
    with pytest.raises(PreconditionError):
        check_two_sided(result, cert)


def test_two_sided_on_simple_fits():
    for instance in (constant_instance(), hat_instance()):
        result, cert = fitted(instance)
        assert check_two_sided(result, cert) is True


def test_constant_values_degenerate_for_two_sided():
    instance = ProblemInstance(
        points=[[0.0], [1.0]],
        values=[3.0, 3.0],
        basis=parse_basis_spec("1", 1),
    )
    result = fit(instance)
    with pytest.raises(DegenerateCase):
        extract_certificate(result.lp_solution, instance)


def test_complementarity_on_random_instances():
    rng = np.random.default_rng(29)
    basis = parse_basis_spec("1, x, x^2", 1)
    for _ in range(25):
        points = np.sort(rng.uniform(0, 1, 20)).reshape(-1, 1)
        values = np.sin(4 * points[:, 0]) + 0.1 * rng.standard_normal(20)
        instance = ProblemInstance(points=points, values=values, basis=basis)
        result = fit(instance)
        cert = extract_certificate(result.lp_solution, instance)
        report = verify_identities(cert, result, instance)
        assert report.complementarity_violations == 0
        assert report.identities_ok


def quadratic_instance():
    """The first instance of the random test above: 20 points, 4 touch."""
    rng = np.random.default_rng(29)
    points = np.sort(rng.uniform(0, 1, 20)).reshape(-1, 1)
    values = np.sin(4 * points[:, 0]) + 0.1 * rng.standard_normal(20)
    return ProblemInstance(
        points=points, values=values, basis=parse_basis_spec("1, x, x^2", 1)
    )


@pytest.mark.parametrize("target", ["other-row", "non-touch-point"])
def test_a_multiplier_off_the_touch_rows_is_one_violation(target):
    instance = quadratic_instance()
    result, cert = fitted(instance)
    assert verify_identities(cert, result, instance).complementarity_violations == 0
    source = int(np.argmax(cert.beta))
    assert source // 2 in result.active_points
    if target == "other-row":
        row = source ^ 1
    else:
        off = min(set(range(instance.n)) - set(result.active_points))
        row = 2 * off + source % 2
    beta = cert.beta.copy()
    beta[row], beta[source] = beta[source], 0.0
    moved = DualCertificate(beta=beta, dual_objective=cert.dual_objective)
    report = verify_identities(moved, result, instance)
    assert report.complementarity_violations == 1
    assert not report.identities_ok


def test_complementarity_reads_the_fit_touch_set_near_the_band_width():
    # d of order 1e-9 to 1e-5, around the band BAND_TOL * max(1, lifted d)
    # that decides the fit's touch set: below it every point touches.
    rng = np.random.default_rng(0)
    bases = {
        m: parse_basis_spec(", ".join(["1", "x"] + [f"x^{k}" for k in range(2, m)]), 1)
        for m in range(2, 6)
    }
    certified = 0
    for draw in range(600):
        n, m = int(rng.integers(6, 40)), int(rng.integers(2, 6))
        x = np.sort(rng.uniform(-1.0, 1.0, n))
        y = np.polynomial.polynomial.polyval(x, rng.standard_normal(m))
        y = y + 10 ** rng.uniform(-10, -6) * rng.standard_normal(n)
        weights = None
        if draw % 3 == 0:
            weights = rng.uniform(0.1, 10.0, n)
            weights[rng.integers(n)] = 0.0
        instance = ProblemInstance(
            points=x[:, None], values=y, basis=bases[m], weights=weights
        )
        result = fit(instance)
        if result.exact_interpolation or result.low_rank:
            continue
        cert = extract_certificate(result.lp_solution, instance)
        report = verify_identities(cert, result, instance)
        assert report.complementarity_violations == 0
        assert report.identities_ok
        certified += 1
    assert certified >= 500


def weighted_hat(weight):
    return ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=[0.0, 1.0, 0.0],
        basis=parse_basis_spec("1, x", 1),
        weights=np.full(3, weight),
    )


def test_two_sided_reads_the_weighted_constant_column():
    # The constant column times 1 - 1e-13 is lifted by 2, and divided back
    # exactly: it is the constant to within CONSTANT_COLUMN_TOL.
    instance = weighted_hat(1.0 - 1e-13)
    assert instance.column_scale[0] == 2.0
    result, cert = fitted(instance)
    assert check_two_sided(result, cert) is True
    assert verify_identities(cert, result, instance).two_sided_ok is True
    # Times 2 it is lifted to the constant 1, but the weighted column is 2.
    instance = weighted_hat(2.0)
    assert instance.column_scale[0] == 0.5
    result, cert = fitted(instance)
    with pytest.raises(PreconditionError, match="identically 1"):
        check_two_sided(result, cert)
    report = verify_identities(cert, result, instance)
    assert report.two_sided_ok is None
    assert report.identities_ok


def _not_optimal(result, cert, instance):
    extract_certificate(LpSolution(status=INFEASIBLE), instance)


def _no_dual(result, cert, instance):
    extract_certificate(dataclasses.replace(result.lp_solution, dual=None), instance)


def _short_dual(result, cert, instance):
    solution = dataclasses.replace(result.lp_solution, dual=cert.beta[:4])
    extract_certificate(solution, instance)


def _short_beta(result, cert, instance):
    verify_identities(dataclasses.replace(cert, beta=cert.beta[:4]), result, instance)


def _short_fit(result, cert, instance):
    short = dataclasses.replace(result, coefficients=result.coefficients[:2])
    verify_identities(cert, short, instance)


@pytest.mark.parametrize(
    "call, message",
    [
        (_not_optimal, "needs an optimal solve, got infeasible"),
        (_no_dual, "solution does not belong to this instance"),
        (_short_dual, "solution does not belong to this instance"),
        (_short_beta, "certificate does not match the instance size"),
        (_short_fit, "fit does not match the instance size"),
    ],
    ids=["not-optimal", "no-dual", "short-dual", "short-beta", "short-fit"],
)
def test_certificate_preconditions_name_the_mismatch(call, message):
    instance = quadratic_instance()
    result, cert = fitted(instance)
    with pytest.raises(PreconditionError, match=message):
        call(result, cert, instance)
