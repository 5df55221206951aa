"""Tests for LP assembly and the minimax fit.

Expected values for the small cases were derived by hand from the witness
systems: residuals at m+1 active points sit at +-d, which gives a square
linear system in (coefficients, d).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equifit.basis import BasisFunction, parse_basis_spec
from equifit.certificates import extract_certificate, verify_identities
from equifit.equioscillation import alternation_pattern
from equifit.errors import SolverError
from equifit.fitting import (
    ProblemInstance,
    assemble_primal,
    fit,
    objective_value,
)
from equifit.lp import INFEASIBLE, LpSolution
import equifit.fitting as fitting


def constant_instance():
    return ProblemInstance(
        points=[[0.0], [1.0]],
        values=[0.0, 1.0],
        basis=parse_basis_spec("1", 1),
    )


def hat_instance():
    return ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=[0.0, 1.0, 0.0],
        basis=parse_basis_spec("1, x", 1),
    )


def parabola_sample_instance():
    return ProblemInstance(
        points=[[0.0], [0.5], [1.0]],
        values=[0.0, 0.25, 1.0],
        basis=parse_basis_spec("1, x", 1),
    )


def test_assemble_single_point_rows():
    instance = ProblemInstance(
        points=[[0.0]], values=[5.0], basis=parse_basis_spec("1", 1)
    )
    lp = assemble_primal(instance)
    assert lp.constraint_matrix.tolist() == [[1.0, -1.0], [-1.0, -1.0]]
    assert lp.rhs.tolist() == [5.0, -5.0]
    assert lp.objective.tolist() == [0.0, 1.0]


def test_unit_weights_assemble_identically():
    plain = hat_instance()
    weighted = ProblemInstance(
        points=plain.points,
        values=plain.values,
        basis=plain.basis,
        weights=[1.0, 1.0, 1.0],
    )
    a, b = assemble_primal(plain), assemble_primal(weighted)
    assert np.array_equal(a.constraint_matrix, b.constraint_matrix)
    assert np.array_equal(a.rhs, b.rhs)


def test_weight_scales_one_row_pair():
    instance = ProblemInstance(
        points=[[0.0], [1.0]],
        values=[1.0, 2.0],
        basis=parse_basis_spec("1", 1),
        weights=[2.0, 1.0],
    )
    lp = assemble_primal(instance)
    # Point 0's pair is doubled in the design entries and the rhs; the
    # weighted column [2, 1] is scaled by 1/2, and the bound column stays -1.
    assert lp.constraint_matrix.tolist() == [
        [1.0, -1.0],
        [-1.0, -1.0],
        [0.5, -1.0],
        [-0.5, -1.0],
    ]
    assert lp.rhs.tolist() == [2.0, -2.0, 2.0, -2.0]


def test_constant_fit_balances_two_values():
    result = fit(constant_instance())
    assert result.coefficients == pytest.approx([0.5], abs=1e-9)
    assert result.discrepancy == pytest.approx(0.5, abs=1e-9)
    assert result.residuals == pytest.approx([-0.5, 0.5], abs=1e-9)
    assert result.active_points == (0, 1)
    assert not result.exact_interpolation
    assert not result.low_rank


def test_hat_fit_is_flat_midline():
    result = fit(hat_instance())
    assert result.coefficients == pytest.approx([0.5, 0.0], abs=1e-9)
    assert result.discrepancy == pytest.approx(0.5, abs=1e-9)
    assert result.residuals == pytest.approx([-0.5, 0.5, -0.5], abs=1e-9)
    assert len(result.active_points) == 3


def test_parabola_sample_fit():
    result = fit(parabola_sample_instance())
    assert result.coefficients == pytest.approx([-0.125, 1.0], abs=1e-9)
    assert result.discrepancy == pytest.approx(0.125, abs=1e-9)
    assert result.residuals == pytest.approx([0.125, -0.125, 0.125], abs=1e-9)


def test_weighted_constant_fit():
    instance = ProblemInstance(
        points=[[0.0], [1.0]],
        values=[0.0, 1.0],
        basis=parse_basis_spec("1", 1),
        weights=[2.0, 1.0],
    )
    result = fit(instance)
    # Balance equation 2|a| = |1 - a| gives a = 1/3, d = 2/3.
    assert result.coefficients == pytest.approx([1.0 / 3.0], abs=1e-9)
    assert result.discrepancy == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_exact_interpolation_flagged():
    instance = ProblemInstance(
        points=[[0.0], [1.0]],
        values=[3.0, 3.0],
        basis=parse_basis_spec("1", 1),
    )
    result = fit(instance)
    assert result.exact_interpolation
    assert result.discrepancy == pytest.approx(0.0, abs=1e-9)


def test_low_rank_flagged():
    instance = ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=[0.0, 1.0, 0.5],
        basis=parse_basis_spec("x, 2*x", 1),
    )
    result = fit(instance)
    assert result.low_rank


def test_objective_value_consistency():
    instance = hat_instance()
    result = fit(instance)
    assert objective_value(instance, result.coefficients) == pytest.approx(
        result.discrepancy, abs=1e-9
    )


def test_objective_value_zero_coefficients():
    instance = constant_instance()
    assert objective_value(instance, [0.0]) == pytest.approx(1.0)


def test_random_coefficients_never_beat_the_fit():
    rng = np.random.default_rng(11)
    instance = parabola_sample_instance()
    best = fit(instance).discrepancy
    for _ in range(1000):
        candidate = rng.uniform(-3, 3, size=2)
        assert objective_value(instance, candidate) >= best - 1e-9


@given(
    st.floats(0, 1),
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=2, max_size=2),
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=2, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_objective_is_convex_in_coefficients(t, alpha, beta):
    instance = hat_instance()
    alpha = np.array(alpha)
    beta = np.array(beta)
    mixed = objective_value(instance, t * alpha + (1 - t) * beta)
    bound = t * objective_value(instance, alpha) + (1 - t) * objective_value(
        instance, beta
    )
    assert mixed <= bound + 1e-12


def test_translation_covariance_with_constant_in_basis():
    rng = np.random.default_rng(3)
    points = np.sort(rng.uniform(0, 1, 12)).reshape(-1, 1)
    values = np.sin(3 * points[:, 0]) + 0.1 * rng.standard_normal(12)
    basis = parse_basis_spec("1, x, x^2", 1)
    base = fit(ProblemInstance(points=points, values=values, basis=basis))
    shifted = fit(
        ProblemInstance(points=points, values=values + 2.5, basis=basis)
    )
    assert shifted.discrepancy == pytest.approx(base.discrepancy, abs=1e-9)
    assert shifted.coefficients[0] == pytest.approx(
        base.coefficients[0] + 2.5, abs=1e-9
    )
    assert shifted.coefficients[1:] == pytest.approx(
        base.coefficients[1:], abs=1e-9
    )


def test_scale_covariance():
    instance = parabola_sample_instance()
    base = fit(instance)
    scaled = fit(
        ProblemInstance(
            points=instance.points,
            values=3.0 * instance.values,
            basis=instance.basis,
        )
    )
    assert scaled.discrepancy == pytest.approx(3.0 * base.discrepancy, abs=1e-9)
    assert scaled.coefficients == pytest.approx(
        3.0 * base.coefficients, abs=1e-8
    )


def test_weighted_fit_matches_prescaled_unweighted_fit():
    rng = np.random.default_rng(5)
    points = np.sort(rng.uniform(0, 1, 10)).reshape(-1, 1)
    values = np.cos(2 * points[:, 0]) + 0.05 * rng.standard_normal(10)
    weights = rng.uniform(0.1, 10.0, 10)
    basis = parse_basis_spec("1, x", 1)
    weighted = fit(
        ProblemInstance(points=points, values=values, basis=basis, weights=weights)
    )
    g = weighted.instance.design()
    prescaled = fit(
        ProblemInstance(
            points=points,
            values=weights * values,
            basis=basis,
            design_override=weights[:, None] * g,
        )
    )
    assert weighted.coefficients == pytest.approx(prescaled.coefficients, abs=1e-9)
    assert weighted.discrepancy == pytest.approx(prescaled.discrepancy, abs=1e-9)


def test_zero_weight_point_excluded_from_active_set():
    instance = ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=[0.0, 1.0, 100.0],
        basis=parse_basis_spec("1", 1),
        weights=[1.0, 1.0, 0.0],
    )
    result = fit(instance)
    assert result.discrepancy == pytest.approx(0.5, abs=1e-9)
    assert 2 not in result.active_points


@pytest.mark.parametrize("weighted", [False, True])
def test_each_basis_function_is_evaluated_once_per_instance(monkeypatch, weighted):
    calls = {}
    original = BasisFunction.evaluate

    def counting(self, points):
        calls[self.label] = calls.get(self.label, 0) + 1
        return original(self, points)

    monkeypatch.setattr(BasisFunction, "evaluate", counting)
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 1.0, 25)
    instance = ProblemInstance(
        points=x[:, None],
        values=np.sin(4.0 * x) + 0.05 * rng.standard_normal(25),
        basis=parse_basis_spec("1, x, x^2", 1),
        weights=rng.uniform(0.5, 2.0, 25) if weighted else None,
    )
    result = fit(instance)
    cert = extract_certificate(result.lp_solution, instance)
    report = verify_identities(cert, result, instance)
    alternation_pattern(result, instance)
    assert report.identities_ok
    assert calls == {"1": 1, "x": 1, "x^2": 1}


def test_instance_rank_is_the_weighted_design_rank():
    basis = parse_basis_spec("1, x", 1)
    full = ProblemInstance(points=[[0.0], [1.0], [2.0]], values=[0, 1, 0], basis=basis)
    assert full.rank == 2
    # Only one point carries weight, so the weighted design has rank one.
    single = ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=[0, 1, 0],
        basis=basis,
        weights=[0.0, 1.0, 0.0],
    )
    assert single.rank == 1
    assert fit(single).low_rank


@pytest.mark.parametrize(
    "values, weights, expected",
    [
        ([0.0, 0.0, 0.0], None, 1.0),
        ([0.5, -1.0, 0.25], None, 1.0),
        ([0.5, -0.75, 0.25], None, 2.0),
        ([0.1, 0.2, 0.3], [3.0, 1.0, 2.0], 2.0),
        ([0.3, 5.0, 0.25], [0.5, 0.0, 1.0], 4.0),
        ([7.0, -3.0, 0.5], None, 1.0),
    ],
    ids=["zeros", "max-one", "max-0.75", "weighted", "zero-weight", "above-one"],
)
def test_value_scale_lifts_values_below_one(values, weights, expected):
    instance = ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=values,
        basis=parse_basis_spec("1, x", 1),
        weights=weights,
    )
    assert instance.value_scale == expected
    _, y = instance.scaled_design_and_values()
    rhs = assemble_primal(instance).rhs
    assert np.array_equal(rhs[0::2], y * expected)


def test_subnormal_values_are_lifted_and_fit():
    # Without the lift, 1e-310 reads as zero: the hat was an exact
    # interpolation with d = 0.
    instance = ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=[0.0, 1e-310, 0.0],
        basis=parse_basis_spec("1, x", 1),
    )
    assert instance.value_scale == 2.0**1023
    result = fit(instance)
    assert not result.exact_interpolation
    assert result.discrepancy == pytest.approx(5e-311, rel=1e-9)
    assert np.all(np.isfinite(result.coefficients))
    assert result.active_points == (0, 1, 2)


def test_a_fit_lp_that_ends_other_than_optimal_is_a_numeric_failure(monkeypatch):
    # The fit LP is feasible (alpha = 0, z = max |w y|) and bounded below by
    # z >= 0, so an "infeasible" verdict can only come from rounding.
    def failing(lp):
        return LpSolution(status=INFEASIBLE, reason="constraints are inconsistent")

    monkeypatch.setattr(fitting, "solve_lp", failing)
    with pytest.raises(SolverError) as info:
        fit(hat_instance())
    message = str(info.value)
    assert message.startswith("numeric failure: the fit LP is feasible and bounded")
    assert "status infeasible: constraints are inconsistent" in message
