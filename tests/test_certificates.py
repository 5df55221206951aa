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
from equifit.equioscillation import alternation_pattern
from equifit.errors import DegenerateCase, PreconditionError
from equifit.fitting import ProblemInstance, fit
from equifit.generators import monomial_basis, random_instance
from equifit.oracle import compare_with_oracle
from equifit.tolerances import ROUNDING_UNITS


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


def row_multipliers(cert, n):
    """The certificate's weights on the fit LP's 2n rows, interleaved per
    point as (overshoot row, undershoot row)."""
    beta = np.zeros(2 * n)
    beta[2 * cert.reference + (cert.signs > 0)] = cert.weights
    return beta


def test_constant_certificate_masses():
    # Hand-solved dual: multiplier 1/2 on the overshoot row of point 0 and
    # 1/2 on the undershoot row of point 1.
    _, cert = fitted(constant_instance())
    assert row_multipliers(cert, 2) == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-9)
    assert cert.overshoot_sum == pytest.approx(0.5, abs=1e-9)
    assert cert.undershoot_sum == pytest.approx(0.5, abs=1e-9)
    assert cert.dual_objective == pytest.approx(0.5, abs=1e-9)


def test_certificate_invariant_under_value_scaling():
    _, cert1 = fitted(constant_instance(1.0))
    _, cert2 = fitted(constant_instance(2.0))
    beta1, beta2 = row_multipliers(cert1, 2), row_multipliers(cert2, 2)
    assert beta1 == pytest.approx(beta2, abs=1e-9)


def test_beta_sums_to_one():
    for instance in (constant_instance(), hat_instance()):
        _, cert = fitted(instance)
        assert cert.overshoot_sum + cert.undershoot_sum == pytest.approx(
            1.0, abs=1e-9
        )
        assert np.all(cert.weights >= 0)


def test_masses_are_read_off_beta_and_judged_by_the_two_sided_check():
    instance = hat_instance()
    result, cert = fitted(instance)
    assert check_two_sided(result, cert) is True
    # Three quarters of the mass on the overshoot rows, a quarter on the others.
    weights = cert.weights * np.where(cert.signs < 0, 1.5, 0.5)
    lopsided = dataclasses.replace(cert, weights=weights)
    assert lopsided.overshoot_sum == float(np.sum(weights[cert.signs < 0]))
    assert lopsided.undershoot_sum == float(np.sum(weights[cert.signs > 0]))
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
    fake = dataclasses.replace(
        cert, weights=cert.weights * 2.0, dual_objective=cert.dual_objective * 2.0
    )
    report = verify_identities(fake, result, instance)
    assert report.beta_sum_residual > 1e-9
    assert not report.identities_ok


def test_a_perturbed_beta_fails_within_the_rounding_unit():
    # Moving 1e-9 of weight between the two nonzero weights of lowest point
    # index leaves gaps near 1e-9, far above the rounding of a residual on
    # data of order one; the identities fail and the report shows the gaps.
    x = np.linspace(0.0, 1.0, 30)
    y = np.sin(3.0 * x) + 0.05 * np.random.default_rng(0).normal(0.0, 1.0, 30)
    instance = ProblemInstance(
        points=x[:, None], values=y, basis=parse_basis_spec("1, x, x^2", 1)
    )
    result, cert = fitted(instance)
    assert verify_identities(cert, result, instance).identities_ok
    weights = cert.weights.copy()
    nonzero = np.flatnonzero(weights)
    first, second = nonzero[np.argsort(cert.reference[nonzero])][:2]
    weights[first] += 1e-9
    weights[second] -= 1e-9
    perturbed = dataclasses.replace(cert, weights=weights)
    report = verify_identities(perturbed, result, instance)
    assert not report.identities_ok
    assert report.value_sum_gap == pytest.approx(8.4e-10, rel=0.01)
    assert np.max(report.orthogonality_residuals) == pytest.approx(3.9e-10, rel=0.02)


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
    assert check_active_point_count(result)
    parabola = ProblemInstance(
        points=[[0.0], [0.5], [1.0]],
        values=[0.0, 0.25, 1.0],
        basis=parse_basis_spec("1, x", 1),
    )
    result = fit(parabola)
    assert len(result.active_points) == 3
    assert check_active_point_count(result)


def test_a_rank_zero_fit_certifies():
    # Both columns vanish on the data: the span is {0}, the fit is zero, d
    # is max |y| at points 1 and 3, and one touch is the vertex count.
    instance = ProblemInstance(
        points=np.linspace(0.0, 1.0, 5)[:, None],
        values=[0.0, 1.0, 0.0, 1.0, 0.3],
        basis=parse_basis_spec("0*x, x-x", 1),
    )
    assert instance.rank == 0
    result, cert = fitted(instance)
    assert result.low_rank and result.discrepancy == 1.0
    report = verify_identities(cert, result, instance)
    assert report.identities_ok and report.active_count_ok
    assert compare_with_oracle(result).agrees


@pytest.mark.parametrize(
    "spec", ["1, x, 2*x", "x, 1 - x, 1"], ids=["doubled-x", "split-constant"]
)
def test_a_dependent_list_certifies_and_alternates_on_its_span(spec):
    # Both lists span the lines: rank 2 of 3, so r + 1 = 3 alternating
    # touches, and the certificate splits its mass in halves.
    x = np.linspace(-1.0, 1.0, 9)
    instance = ProblemInstance(
        points=x[:, None], values=np.cos(3.0 * x), basis=parse_basis_spec(spec, 1)
    )
    assert instance.rank == 2
    result, cert = fitted(instance)
    assert result.low_rank
    report = verify_identities(cert, result, instance)
    assert report.identities_ok and report.active_count_ok
    assert report.two_sided_ok is True
    pattern = alternation_pattern(result, instance)
    assert pattern.equioscillates and len(pattern) == 3
    assert compare_with_oracle(result).agrees


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
        check_active_point_count(result)


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
    source = int(np.argmax(cert.weights))
    assert cert.reference[source] in result.active_points
    reference, signs = cert.reference.copy(), cert.signs.copy()
    if target == "other-row":
        signs[source] = -signs[source]
    else:
        reference[source] = min(set(range(instance.n)) - set(result.active_points))
    moved = DualCertificate(reference, signs, cert.weights, cert.dual_objective)
    report = verify_identities(moved, result, instance)
    assert report.complementarity_violations == 1
    assert not report.identities_ok


def test_complementarity_reads_the_fit_touch_set_near_the_band_width():
    # Noise of 1e-10 to 1e-6 on polynomial data: d far above the band, the
    # fit's rounding unit of about 1e-14 that decides its touch set, and
    # small enough that an absolute band would take in most points.  599 of
    # the 600 fits certify, each on the points within 64 roundings of d (at
    # a band of 1e-7, 521 certified and 79 were flagged exact).
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
        if result.exact_interpolation:
            continue
        cert = extract_certificate(result.lp_solution, instance)
        report = verify_identities(cert, result, instance)
        assert report.complementarity_violations == 0
        assert report.identities_ok
        certified += 1
    assert certified >= 590


def weighted_hat(weight):
    return ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=[0.0, 1.0, 0.0],
        basis=parse_basis_spec("1, x", 1),
        weights=np.full(3, weight),
    )


def test_two_sided_reads_the_weighted_constant_column():
    # The lifted design is an orthonormal basis of the span, so no column of
    # it is the constant: the check asks whether the constant lies in that
    # span, here that of the constant times 1 - 1e-13.
    instance = weighted_hat(1.0 - 1e-13)
    lifted = instance.lifted_design_and_values()[0]
    assert lifted.T @ lifted == pytest.approx(np.eye(2), abs=1e-15)
    assert np.ptp(np.abs(lifted[:, 0])) > 0.1
    result, cert = fitted(instance)
    assert check_two_sided(result, cert) is True
    assert verify_identities(cert, result, instance).two_sided_ok is True
    # Times 2 the weighted column is 2, and it spans the same line.
    instance = weighted_hat(2.0)
    result, cert = fitted(instance)
    assert check_two_sided(result, cert) is True
    report = verify_identities(cert, result, instance)
    assert report.two_sided_ok is True
    assert report.identities_ok


def test_two_sided_reads_the_span_not_the_first_column():
    # x and 1 - x span the constant, though neither column is it.
    instance = ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=[0.0, 1.0, 0.0],
        basis=parse_basis_spec("x, 1 - x", 1),
    )
    result, cert = fitted(instance)
    assert check_two_sided(result, cert) is True
    assert verify_identities(cert, result, instance).two_sided_ok is True


@pytest.mark.parametrize(
    "weights",
    [[0.7, 1.9, 1.2, 0.6, 1.4], [1.0, 1.0, 1.0, 1.0, 0.0]],
    ids=["random", "zero-weight"],
)
def test_two_sided_gives_no_verdict_off_the_weighted_span(weights):
    # The weighted constant w is not a multiple of 1 on the data, so the
    # halves need not follow, and the check leaves its verdict open.
    instance = ProblemInstance(
        points=[[0.0], [1.0], [2.0], [3.0], [4.0]],
        values=[0.0, 1.0, 0.0, 2.0, 1.0],
        basis=parse_basis_spec("1, x", 1),
        weights=weights,
    )
    result, cert = fitted(instance)
    with pytest.raises(PreconditionError, match="constant in the span"):
        check_two_sided(result, cert)
    report = verify_identities(cert, result, instance)
    assert report.two_sided_ok is None
    assert report.identities_ok


def test_the_identities_refuse_an_instance_other_than_the_fits():
    # The same data in reverse order: the fit's residuals and multipliers
    # would be read against the wrong points.
    instance = random_instance(np.random.default_rng(2), n=20, m=3)
    reversed_data = ProblemInstance(
        points=instance.points[::-1], values=instance.values[::-1], basis=instance.basis
    )
    result, cert = fitted(instance)
    assert verify_identities(cert, result, instance).identities_ok
    with pytest.raises(PreconditionError, match="fit does not belong to this instance"):
        verify_identities(cert, result, reversed_data)


def test_a_column_below_the_float_exponent_range_keeps_its_rank():
    # The column 1e-320 x lifts by its own uncapped power of two to [1, 2),
    # so the rank is 2 and the fit certifies, as with 1e-300 x.  A column
    # lift capped at 2^1023 left it at 4e-12 of the constant, below the
    # rank rule: rank 1, and a fit by the constant alone.
    instance = ProblemInstance(
        points=np.arange(5.0)[:, None],
        values=[0.0, 1.0, 0.0, 1.0, 0.3],
        basis=parse_basis_spec("1, 1e-320*x", 1),
    )
    assert instance.rank == 2
    result, cert = fitted(instance)
    assert not result.low_rank
    report = verify_identities(cert, result, instance)
    assert report.identities_ok and report.active_count_ok
    assert compare_with_oracle(result).agrees


def test_a_large_y_fit_is_judged_in_the_data_rounding_unit():
    # The second instance of the large-|y| family of scripts/census.py,
    # drawn as there.  Values near 1e9 round by u = 1.7e-6, and the band
    # is 64 u, the fit's own rounding unit.  The recomputed residual bound
    # misses the optimum by 9.3e-9, within one u (the tableau simplex
    # missed by 4.7e-7), and the fit certifies.
    rng = np.random.default_rng(3)
    for _ in range(2):
        n, m = int(rng.integers(8, 40)), int(rng.integers(2, 6))
        x = rng.uniform(-1.0, 1.0, n)
        c = rng.normal(0.0, 1.0, m)
        y = 1e9 * np.polynomial.polynomial.polyval(x, c) + rng.normal(0.0, 1.0, n)
    assert (n, m) == (39, 4)
    instance = ProblemInstance(points=x[:, None], values=y, basis=monomial_basis(m))
    result, cert = fitted(instance)
    d = result.discrepancy
    gap = abs(float(np.max(np.abs(result.scaled_residuals))) - d)
    u = np.finfo(float).eps * (
        np.max(np.abs(y)) + np.max(np.abs(instance.lifted_design_and_values()[0]))
        * np.sum(np.abs(result.lp_solution.primal[1:]))
    )
    assert result.active_tol == pytest.approx(ROUNDING_UNITS * u, rel=1e-12)
    assert gap <= u
    report = verify_identities(cert, result, instance)
    assert report.identities_ok and report.active_count_ok


def _no_dual(result, cert, instance):
    extract_certificate(dataclasses.replace(result.lp_solution, weights=None), instance)


def _short_dual(result, cert, instance):
    solution = dataclasses.replace(result.lp_solution, weights=cert.weights[:2])
    extract_certificate(solution, instance)


def _foreign_reference(result, cert, instance):
    solution = result.lp_solution
    moved = dataclasses.replace(solution, reference=solution.reference + instance.n)
    extract_certificate(moved, instance)


def _short_beta(result, cert, instance):
    short = dataclasses.replace(cert, weights=cert.weights[:2])
    verify_identities(short, result, instance)


def _short_fit(result, cert, instance):
    short = dataclasses.replace(result, coefficients=result.coefficients[:2])
    verify_identities(cert, short, instance)


@pytest.mark.parametrize(
    "call, message",
    [
        (_no_dual, "solution does not belong to this instance"),
        (_short_dual, "solution does not belong to this instance"),
        (_foreign_reference, "solution does not belong to this instance"),
        (_short_beta, "certificate does not match the instance size"),
        (_short_fit, "fit does not match the instance size"),
    ],
    ids=["no-dual", "short-dual", "foreign-reference", "short-beta", "short-fit"],
)
def test_certificate_preconditions_name_the_mismatch(call, message):
    instance = quadratic_instance()
    result, cert = fitted(instance)
    with pytest.raises(PreconditionError, match=message):
        call(result, cert, instance)
