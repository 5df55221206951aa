"""Tests for the lifted problem and the minimax fit.

Expected values for the small cases were derived by hand from the witness
systems: residuals at m+1 active points sit at +-d, which gives a square
linear system in (coefficients, d).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equifit.basis import BasisFunction, design_matrix, parse_basis_spec
from equifit.certificates import extract_certificate, verify_identities
from equifit.equioscillation import alternation_pattern
from equifit.errors import DimensionMismatch, SolverError
from equifit.fitting import ProblemInstance, fit, objective_value
from equifit.oracle import compare_with_oracle


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
    # The fit LP's two rows of a point, |y_i - u_i alpha| <= z, read its
    # lifted design row and value.
    instance = ProblemInstance(
        points=[[0.0]], values=[5.0], basis=parse_basis_spec("1", 1)
    )
    g, y = instance.lifted_design_and_values()
    assert g.tolist() == [[1.0]]
    assert y.tolist() == [5.0]


def test_unit_weights_assemble_identically():
    plain = hat_instance()
    weighted = ProblemInstance(
        points=plain.points,
        values=plain.values,
        basis=plain.basis,
        weights=[1.0, 1.0, 1.0],
    )
    (g_a, y_a), (g_b, y_b) = (
        plain.lifted_design_and_values(),
        weighted.lifted_design_and_values(),
    )
    assert np.array_equal(g_a, g_b)
    assert np.array_equal(y_a, y_b)


def test_weight_scales_one_row_pair():
    instance = ProblemInstance(
        points=[[0.0], [1.0]],
        values=[1.0, 2.0],
        basis=parse_basis_spec("1", 1),
        weights=[2.0, 1.0],
    )
    g, y = instance.lifted_design_and_values()
    # Point 0's value is doubled, and so is its row of the weighted design
    # [2, 1], whose lifted column is that vector of unit length.
    assert np.abs(g[:, 0]) == pytest.approx(np.array([2.0, 1.0]) / np.sqrt(5.0))
    assert y.tolist() == [2.0, 2.0]


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
        ProblemInstance.from_design(
            points=points,
            values=weights * values,
            basis=basis,
            design=weights[:, None] * g,
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
    # A zero-weight point's data-unit residual comes from its design row.
    expected = instance.values - instance.design() @ result.coefficients
    assert result.residuals[2] == expected[2]
    assert result.residuals[2] == pytest.approx(99.5, abs=1e-9)


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


@pytest.mark.parametrize("weighted", [False, True])
def test_the_fits_rounding_unit_is_decided_once_per_fit(monkeypatch, weighted):
    # The exchange's stop decides the band and its last pricing pass the
    # lifted residuals; the fit, the certificate and the oracle read both,
    # and the fit runs no SVD of its own.
    rng = np.random.default_rng(5)
    x = np.linspace(-1.0, 1.0, 12)
    instance = ProblemInstance(
        points=x[:, None],
        values=np.exp(x) + 0.05 * rng.standard_normal(12),
        basis=parse_basis_spec("1, x, x^2", 1),
        weights=rng.uniform(0.5, 2.0, 12) if weighted else None,
    )
    units, svds = [], []
    rounding_tol, svd = ProblemInstance.rounding_tol, np.linalg.svd

    def recording_unit(self, lifted):
        units.append(np.array(lifted, dtype=float))
        return rounding_tol(self, lifted)

    def recording_svd(*args, **kwargs):
        svds.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(ProblemInstance, "rounding_tol", recording_unit)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    result = fit(instance)
    assert svds == []
    report = verify_identities(
        extract_certificate(result.lp_solution, instance), result, instance
    )
    assert report.identities_ok and compare_with_oracle(result).agrees
    alpha = result.lp_solution.primal[1:]
    assert sum(np.array_equal(unit, alpha) for unit in units) == 1
    solution = result.lp_solution
    g, y = instance.lifted_design_and_values()
    assert solution.band == rounding_tol(instance, alpha) == result.band
    assert np.array_equal(solution.residuals, y - g @ alpha)
    assert result.lifted_residuals is solution.residuals


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
    result = fit(single)
    assert result.low_rank
    expected = single.values - single.design() @ result.coefficients
    assert np.array_equal(result.residuals[[0, 2]], expected[[0, 2]])
    assert result.residuals[1] == pytest.approx(expected[1], abs=1e-12)


def test_a_rank_deficient_fit_puts_its_coefficients_on_independent_columns():
    # 2*x repeats x, so the first independent columns, 1 and x, carry the
    # fit and 2*x gets 0, where the minimum-norm combination split the
    # slope 4/3 between x and 2*x.
    instance = ProblemInstance(
        points=[[0.0], [1.0], [2.0], [3.0]],
        values=[1.0, 2.0, 2.5, 5.0],
        basis=parse_basis_spec("1, x, 2*x", 1),
    )
    result = fit(instance)
    assert result.low_rank
    assert result.discrepancy == pytest.approx(7 / 12, rel=1e-12)
    assert result.coefficients[:2] == pytest.approx([5 / 12, 4 / 3], rel=1e-12)
    assert result.coefficients[2] == 0.0


@pytest.mark.parametrize(
    "values, weights, expected",
    [
        ([0.0, 0.0, 0.0], None, 0),
        ([0.5, -1.0, 0.25], None, 0),
        ([0.5, -0.75, 0.25], None, 1),
        ([0.1, 0.2, 0.3], [3.0, 1.0, 2.0], 1),
        ([0.3, 5.0, 0.25], [0.5, 0.0, 1.0], 2),
        ([7.0, -3.0, 0.5], None, 0),
        (np.ldexp([0.5, -1.0, 0.25], -1060), None, 1060),
    ],
    ids=[
        "zeros", "max-one", "max-0.75", "weighted", "zero-weight", "above-one",
        "subnormal",
    ],
)
def test_value_scale_lifts_values_below_one(values, weights, expected):
    # The value scale is 2^value_exponent, uncapped: values of largest
    # magnitude 2^-1060 lift to 1.
    instance = ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=values,
        basis=parse_basis_spec("1, x", 1),
        weights=weights,
    )
    assert instance.value_exponent == expected
    y = instance.values if weights is None else instance.weights * instance.values
    lifted = instance.lifted_design_and_values()[1]
    assert np.array_equal(lifted, np.ldexp(y, expected))


def test_subnormal_values_are_lifted_and_fit():
    # Without the lift, 1e-310 reads as zero: the hat was an exact
    # interpolation with d = 0.
    instance = ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=[0.0, 1e-310, 0.0],
        basis=parse_basis_spec("1, x", 1),
    )
    assert instance.value_exponent == 1030
    result = fit(instance)
    assert not result.exact_interpolation
    assert result.discrepancy == pytest.approx(5e-311, rel=1e-9)
    assert np.all(np.isfinite(result.coefficients))
    assert result.active_points == (0, 1, 2)


def test_values_below_the_float_exponent_range_lift_uncapped_and_certify():
    # (0, 1, 0, 1, 0.3) times 2^-1060: max |y| = 2^-1060 lifts by 2^1060,
    # and d is exactly 2^-1060 times the 0.5 of the unscaled data.  A lift
    # capped at 2^1023 left the values below one, where the absolute
    # exact-interpolation floor flagged the fit exact with all 5 points
    # active, and the certificate was refused.
    instance = ProblemInstance(
        points=np.arange(5.0)[:, None],
        values=np.ldexp([0.0, 1.0, 0.0, 1.0, 0.3], -1060),
        basis=parse_basis_spec("1, x", 1),
    )
    assert instance.value_exponent == 1060
    result = fit(instance)
    assert result.discrepancy == np.ldexp(1.0, -1061)
    assert not result.exact_interpolation
    assert result.active_points == (0, 1, 2, 3)
    cert = extract_certificate(result.lp_solution, instance)
    report = verify_identities(cert, result, instance)
    assert report.identities_ok and report.active_count_ok
    assert compare_with_oracle(result).agrees


def test_a_fit_lp_that_ends_other_than_optimal_is_a_numeric_failure(monkeypatch):
    # The ratio test keeps the reference system regular in exact
    # arithmetic, so a singular one comes from rounding: fit reports the
    # exchange's own reason.  Every 3 x 3 solve is singular here: the hat's
    # reference systems (rank 2).
    solve = np.linalg.solve

    def singular(a, b):
        if len(a) == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SolverError, match="^fit LP failed: Singular matrix$"):
        fit(hat_instance())


HAT = {"points": [[0.0], [1.0], [2.0]], "values": [0.0, 1.0, 0.0]}


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"points": np.zeros((0, 1)), "values": []}, "need at least one point"),
        ({"values": [0.0, 1.0]}, r"3 points but values have shape \(2,\)"),
        ({"points": np.zeros((3, 2))}, "dimension 2, basis expects 1"),
        ({"values": [0.0, np.nan, 0.0]}, "points and values must be finite"),
        ({"weights": [1.0, 1.0]}, r"weights have shape \(2,\), expected \(3,\)"),
        ({"weights": [1.0, -1.0, 1.0]}, "weights must be finite and nonnegative"),
        ({"weights": [0.0, 0.0, 0.0]}, "weights must not all be zero"),
    ],
    ids=[
        "no-points",
        "values-shape",
        "point-dimension",
        "not-finite",
        "weights-shape",
        "negative-weight",
        "zero-weights",
    ],
)
def test_instance_validation_names_the_bad_input(changes, message):
    data = {**HAT, "basis": parse_basis_spec("1, x", 1), **changes}
    with pytest.raises(DimensionMismatch, match=message):
        ProblemInstance(**data)


def test_from_design_rejects_a_design_of_the_wrong_shape():
    with pytest.raises(DimensionMismatch, match=r"design override has shape \(3, 1\)"):
        ProblemInstance.from_design(
            **HAT, basis=parse_basis_spec("1, x", 1), design=np.ones((3, 1))
        )


def _n_row_arrays(instance):
    """Every 2-D array with n rows that the instance holds, other than its
    points, looking into tuples of attributes."""
    found = []
    for value in vars(instance).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray) and item is not instance.points:
                if item.ndim == 2 and item.shape[0] == instance.n:
                    found.append(item)
    return found


@pytest.mark.parametrize("weighted", [False, True])
def test_an_instance_built_from_a_basis_holds_one_n_by_m_array(weighted):
    rng = np.random.default_rng(4)
    x = np.linspace(0.0, 1.0, 40)
    instance = ProblemInstance(
        points=x[:, None],
        values=np.cos(3.0 * x),
        basis=parse_basis_spec("1, x, x^2", 1),
        weights=rng.uniform(0.5, 2.0, 40) if weighted else None,
    )
    held = _n_row_arrays(instance)
    u_r = instance.lifted_design_and_values()[0]
    assert len(held) == 1 and held[0] is u_r
    assert u_r.shape == (40, 3)


def test_design_is_evaluated_on_demand_and_a_given_design_is_kept():
    instance = hat_instance()
    assert np.array_equal(
        instance.design(), design_matrix(instance.basis, instance.points)
    )
    assert np.array_equal(instance.design([2, 0]), instance.design()[[2, 0]])
    design = np.array([[1.0, 0.0], [-1.0, -1.0], [1.0, 2.0]])
    given = ProblemInstance.from_design(
        **HAT, basis=parse_basis_spec("1, x", 1), design=design
    )
    assert np.array_equal(given.design(), design)
    assert np.array_equal(design, [[1.0, 0.0], [-1.0, -1.0], [1.0, 2.0]])
    assert len(_n_row_arrays(given)) == 2


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_unweighted_residuals_are_the_scaled_residuals_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-1.0, 1.0, 30))
    instance = ProblemInstance(
        points=x[:, None],
        values=np.exp(x) + 0.01 * rng.standard_normal(30),
        basis=parse_basis_spec("1, x, x^2", 1),
    )
    result = fit(instance)
    assert np.array_equal(result.residuals, result.scaled_residuals)
    direct = instance.values - instance.design() @ result.coefficients
    assert result.residuals == pytest.approx(direct, abs=1e-12)


def test_objective_value_needs_one_coefficient_per_basis_function():
    message = r"expected 2 coefficients, got shape \(3,\)"
    with pytest.raises(DimensionMismatch, match=message):
        objective_value(hat_instance(), [0.0, 0.0, 0.0])
