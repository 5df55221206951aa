"""Tests for alternation analysis, the one-sided construction, and the
perturbation argument."""

import numpy as np
import pytest

from equifit.basis import parse_basis_spec
from equifit.equioscillation import (
    ReferenceSet,
    alternation_pattern,
    lagrange_interpolate,
    one_sided_construction,
    perturbation_step,
    strict_improvement_check,
)
from equifit.errors import (
    DegenerateCase,
    DimensionError,
    DuplicateNodeError,
    PreconditionError,
)
from equifit.fitting import ProblemInstance, fit
from equifit.generators import random_instance, same_sided_reference_config


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


def test_parabola_sample_alternates():
    instance = parabola_sample_instance()
    pattern = alternation_pattern(fit(instance), instance)
    assert pattern.signs == (1, -1, 1)
    assert len(pattern) == 3
    assert pattern.equioscillates


def test_hat_alternates():
    instance = hat_instance()
    pattern = alternation_pattern(fit(instance), instance)
    assert pattern.signs == (-1, 1, -1)
    assert pattern.equioscillates


def test_alternation_rejects_higher_dimensions():
    instance = ProblemInstance(
        points=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        values=[0.0, 1.0, 2.0],
        basis=parse_basis_spec("1, x", 2),
    )
    result = fit(instance)
    with pytest.raises(DimensionError):
        alternation_pattern(result, instance)


def test_one_sided_construction_preserves_optimum_and_flips_side():
    instance = hat_instance()
    base = fit(instance)
    # The middle point undershoots (+d); flipping it is symmetric to the
    # canonical overshoot case.
    flipped = one_sided_construction(instance, 1)
    result = fit(flipped)
    assert result.discrepancy == pytest.approx(base.discrepancy, abs=1e-9)
    assert result.coefficients == pytest.approx(base.coefficients, abs=1e-8)
    assert result.scaled_residuals[1] == pytest.approx(
        -base.scaled_residuals[1], abs=1e-9
    )
    pattern = alternation_pattern(result, flipped)
    assert pattern.signs == (-1, -1, -1)
    assert not pattern.equioscillates


def test_one_sided_construction_on_overshoot_point():
    instance = parabola_sample_instance()
    base = fit(instance)
    # Point 1 has scaled residual -d: the combination overshoots the value.
    assert base.scaled_residuals[1] == pytest.approx(-base.discrepancy, abs=1e-9)
    flipped = one_sided_construction(instance, 1)
    result = fit(flipped)
    assert result.discrepancy == pytest.approx(base.discrepancy, abs=1e-9)
    assert not alternation_pattern(result, flipped).equioscillates


def test_an_extra_same_signed_touch_keeps_the_alternation():
    # The constant fit to (0, 1, 1) has d = 0.5 and touches (-, +, +):
    # points 0 and 1 alternate, the r + 1 = 2 that the theory needs.
    instance = ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=[0.0, 1.0, 1.0],
        basis=parse_basis_spec("1", 1),
    )
    pattern = alternation_pattern(fit(instance), instance)
    assert pattern.signs == (-1, 1, 1)
    assert pattern.equioscillates


def test_one_touch_run_equioscillates_at_rank_zero():
    # The span is {0}, so r + 1 = 1 touch suffices; both touches are +.
    instance = ProblemInstance(
        points=np.linspace(0.0, 1.0, 5)[:, None],
        values=[0.0, 1.0, 0.0, 1.0, 0.3],
        basis=parse_basis_spec("0*x, x-x", 1),
    )
    pattern = alternation_pattern(fit(instance), instance)
    assert pattern.signs == (1, 1)
    assert pattern.equioscillates


def test_one_sided_construction_is_an_involution():
    instance = hat_instance()
    twice = one_sided_construction(one_sided_construction(instance, 1), 1)
    assert np.allclose(twice.values, instance.values)
    assert np.allclose(twice.design(), instance.design())
    again = fit(twice)
    base = fit(instance)
    assert again.discrepancy == pytest.approx(base.discrepancy, abs=1e-12)
    assert again.coefficients == pytest.approx(base.coefficients, abs=1e-12)


def test_one_sided_construction_requires_active_point():
    rng = np.random.default_rng(31)
    instance = random_instance(rng, n=15, m=2)
    result = fit(instance)
    inactive = next(
        i for i in range(instance.n) if i not in result.active_points
    )
    with pytest.raises(PreconditionError):
        one_sided_construction(instance, inactive)


def test_one_sided_construction_keeps_the_weights_and_the_optimum():
    rng = np.random.default_rng(1)
    instance = random_instance(rng, n=30, m=3, weights=rng.uniform(0.1, 10.0, 30))
    base = fit(instance)
    j = base.active_points[0]
    flipped = one_sided_construction(instance, j)
    assert np.array_equal(flipped.weights, instance.weights)
    result = fit(flipped)
    assert result.discrepancy == base.discrepancy
    assert np.array_equal(result.coefficients, base.coefficients)
    assert np.sign(result.scaled_residuals[j]) == -np.sign(base.scaled_residuals[j])
    assert abs(result.scaled_residuals[j]) == pytest.approx(base.discrepancy, abs=1e-9)
    inactive = next(i for i in range(instance.n) if i not in base.active_points)
    with pytest.raises(PreconditionError, match="weighted residual"):
        one_sided_construction(instance, inactive)


def test_alternation_refuses_an_instance_other_than_the_fits():
    instance = random_instance(np.random.default_rng(2), n=20, m=3)
    reversed_data = ProblemInstance(
        points=instance.points[::-1], values=instance.values[::-1], basis=instance.basis
    )
    result = fit(instance)
    assert alternation_pattern(result, instance).equioscillates
    with pytest.raises(PreconditionError, match="fit does not belong to this instance"):
        alternation_pattern(result, reversed_data)


def test_lagrange_identity_line():
    poly = lagrange_interpolate([0.0, 1.0], [0.0, 1.0])
    assert poly(0.5) == pytest.approx(0.5)
    assert poly.degree == 1


def test_lagrange_through_hat_nodes():
    # Solving the 3x3 Vandermonde for (0,0), (1,1), (2,0) gives 2x - x^2,
    # whose value at 3 is -3.
    poly = lagrange_interpolate([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert poly(3.0) == pytest.approx(-3.0, abs=1e-12)
    assert poly(np.array([0.0, 1.0, 2.0])) == pytest.approx([0.0, 1.0, 0.0])


def test_lagrange_single_node_constant():
    poly = lagrange_interpolate([5.0], [7.0])
    assert poly(123.0) == pytest.approx(7.0)
    assert poly.degree == 0


def test_lagrange_duplicate_nodes_rejected():
    with pytest.raises(DuplicateNodeError):
        lagrange_interpolate([0.0, 1.0, 1.0 + 1e-15], [1.0, 2.0, 3.0])


def test_lagrange_refuses_nodes_one_rounding_apart_far_from_zero():
    # The gap, one ulp of 1e8, is 1.5e-8: far below the 1.4e-6 rounding unit
    # of nodes near 1e8.
    with pytest.raises(DuplicateNodeError, match="rounding unit"):
        lagrange_interpolate([1e8, np.nextafter(1e8, np.inf)], [1.0, 2.0])


def test_lagrange_accepts_a_gap_above_the_rounding_unit():
    # A gap of 1e-13 is 7 rounding units of nodes of magnitude one.
    poly = lagrange_interpolate([0.0, 1e-13, 1.0], [0.0, 1e-13, 1.0])
    assert poly(0.5) == pytest.approx(0.5, abs=1e-12)


def test_lagrange_reproduces_node_values():
    rng = np.random.default_rng(41)
    nodes = np.sort(rng.uniform(-1, 1, 6))
    values = rng.uniform(-5, 5, 6)
    poly = lagrange_interpolate(nodes, values)
    out = poly(nodes)
    assert np.all(
        np.abs(out - values) <= 1e-9 * np.maximum(1.0, np.abs(values))
    )


def three_node_reference(epsilon=0.01):
    """The worked pair configuration: candidate x (a line), nodes 0, 1, 2,
    same-sided pair at positions (1, 2)."""
    z = np.array([0.0, 1.0, 2.0])
    candidate = z.copy()  # the line f(x) = x
    d = 0.5
    signs = np.array([-1, 1, 1])
    values = candidate + d * signs
    instance = ProblemInstance(
        points=z.reshape(-1, 1),
        values=values,
        basis=parse_basis_spec("1, x", 1),
    )
    reference = ReferenceSet(indices=(0, 1, 2), signs=tuple(signs), discrepancy=d)
    return instance, reference, epsilon


def test_perturbation_product_formula_worked_example():
    instance, reference, epsilon = three_node_reference(0.01)
    step = perturbation_step(reference, instance, 1, epsilon)
    # prod over the single remaining node z=0: (2 - 0) / (1 - 0) = 2.
    assert step.product_formula_value == pytest.approx(0.02, abs=1e-15)
    assert step.difference == pytest.approx(0.02, abs=1e-12)
    assert step.agrees


def test_perturbation_zero_epsilon():
    instance, reference, _ = three_node_reference()
    step = perturbation_step(reference, instance, 1, 0.0)
    assert step.difference == pytest.approx(0.0, abs=1e-15)
    assert step.product_formula_value == 0.0
    assert step.agrees


def test_perturbation_linear_in_epsilon():
    instance, reference, _ = three_node_reference()
    small = perturbation_step(reference, instance, 1, 0.01)
    large = perturbation_step(reference, instance, 1, 0.02)
    assert large.difference == pytest.approx(2 * small.difference, rel=1e-9)
    assert large.product_formula_value == pytest.approx(
        2 * small.product_formula_value, rel=1e-12
    )


def same_sided_line():
    """Values 0.75, 1.25, 0.75 at 0, 1, 2 around the line 0.25 + 0.5 x at
    d = 0.5, with the pair (0, 1) on one side."""
    instance = ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=[0.75, 1.25, 0.75],
        basis=parse_basis_spec("1, x", 1),
    )
    return instance, ReferenceSet((0, 1, 2), (1, 1, -1), 0.5)


def test_a_small_bump_agrees_within_the_rounding_unit():
    # At 1e-9 the move is 5.000000413701855e-10 against 5e-10: one rounding
    # of values near one, yet 8e-8 of the move itself.
    instance, reference = same_sided_line()
    for epsilon in (0.05, 1e-6, 1e-9):
        step = perturbation_step(reference, instance, 0, epsilon)
        assert step.product_formula_value == pytest.approx(epsilon / 2, rel=1e-15)
        assert step.agrees


@pytest.mark.parametrize("scale", [1e-6, 1e-9, 1e-12])
def test_perturbation_agrees_on_random_configs_at_small_epsilon(scale):
    rng = np.random.default_rng(5)
    for _ in range(300):
        instance, reference, pair, _ = same_sided_reference_config(rng)
        epsilon = scale * reference.discrepancy
        assert perturbation_step(reference, instance, pair, epsilon).agrees


def test_perturbation_requires_same_sided_pair():
    instance, reference, _ = three_node_reference()
    with pytest.raises(PreconditionError):
        perturbation_step(reference, instance, 0, 0.01)


def test_perturbation_positivity_and_agreement_on_random_configs():
    rng = np.random.default_rng(53)
    for _ in range(60):
        instance, reference, pair, epsilon = same_sided_reference_config(rng)
        step = perturbation_step(reference, instance, pair, epsilon)
        assert step.agrees
        assert step.product_formula_value > 0
        assert step.difference > 0


def test_strict_improvement_on_random_configs():
    rng = np.random.default_rng(59)
    for _ in range(60):
        instance, reference, pair, epsilon = same_sided_reference_config(rng)
        check = strict_improvement_check(reference, instance, pair, epsilon)
        assert check.reduced
        assert check.max_reference_discrepancy < reference.discrepancy
        assert 0 < check.delta <= 0.25 * epsilon + 1e-15


def with_off_reference_points(rng, low, high):
    """A same-sided configuration plus 1-5 points off its reference, each
    at between low and high times d from the candidate, on either side."""
    instance, reference, pair, epsilon = same_sided_reference_config(rng)
    z = instance.points[:, 0]
    d = reference.discrepancy
    candidate = lagrange_interpolate(
        z[:-1], instance.values[:-1] - d * np.array(reference.signs[:-1])
    )
    count = int(rng.integers(1, 6))
    x = rng.uniform(0.0, 1.0, count)
    sides = rng.choice([-1.0, 1.0], count)
    y = candidate(x) + d * sides * rng.uniform(low, high, count)
    extended = ProblemInstance(
        points=np.concatenate([z, x])[:, None],
        values=np.concatenate([instance.values, y]),
        basis=instance.basis,
    )
    return extended, reference, pair, epsilon


def test_strict_improvement_with_points_inside_the_band_off_the_reference():
    rng = np.random.default_rng(67)
    for _ in range(60):
        instance, reference, pair, epsilon = with_off_reference_points(rng, 0.0, 0.9)
        check = strict_improvement_check(reference, instance, pair, epsilon)
        assert check.reduced
        assert 0 < check.delta <= 0.25 * epsilon + 1e-15


def test_strict_improvement_rejects_a_point_outside_the_band():
    rng = np.random.default_rng(71)
    for _ in range(10):
        instance, reference, pair, epsilon = with_off_reference_points(rng, 2.0, 2.0)
        with pytest.raises(PreconditionError, match="off the reference set"):
            strict_improvement_check(reference, instance, pair, epsilon)


def test_polynomial_fits_equioscillate():
    rng = np.random.default_rng(61)
    for _ in range(40):
        t = int(rng.integers(1, 4))
        instance = random_instance(rng, n=30, m=t + 1, noise=0.2)
        pattern = alternation_pattern(fit(instance), instance)
        assert pattern.equioscillates
        assert len(pattern) >= t + 2


def test_strict_improvement_refuses_a_weighted_instance():
    # Its candidate sits at q - d * s, the band of unit weights; with weights
    # the band is another, so the check answers for neither.
    instance, reference, epsilon = three_node_reference()
    weighted = ProblemInstance(
        points=instance.points,
        values=instance.values,
        basis=instance.basis,
        weights=np.full(3, 2.0),
    )
    assert strict_improvement_check(reference, instance, 1, epsilon).reduced
    with pytest.raises(PreconditionError, match="defined for unweighted instances"):
        strict_improvement_check(reference, weighted, 1, epsilon)


def _planar(instance, reference, epsilon):
    planar = ProblemInstance(
        points=np.column_stack([instance.points[:, 0], np.zeros(3)]),
        values=instance.values,
        basis=parse_basis_spec("1, x", 2),
    )
    perturbation_step(reference, planar, 1, epsilon)


def _short(instance, reference, epsilon):
    reference = ReferenceSet((0, 1), reference.signs[:2], reference.discrepancy)
    perturbation_step(reference, instance, 0, epsilon)


def _unsorted(instance, reference, epsilon):
    reference = ReferenceSet((1, 0, 2), reference.signs, reference.discrepancy)
    perturbation_step(reference, instance, 1, epsilon)


def _bad_signs(instance, reference, epsilon):
    reference = ReferenceSet(reference.indices, (-1, 0, 1), reference.discrepancy)
    perturbation_step(reference, instance, 1, epsilon)


def _pair_out_of_range(instance, reference, epsilon):
    perturbation_step(reference, instance, 2, epsilon)


def _step_epsilon(instance, reference, epsilon):
    perturbation_step(reference, instance, 1, 0.2 * reference.discrepancy)


def _improvement_epsilon(instance, reference, epsilon):
    strict_improvement_check(reference, instance, 1, 0.0)


def _weighted(instance, reference, epsilon):
    weighted = ProblemInstance(
        points=instance.points,
        values=instance.values,
        basis=instance.basis,
        weights=np.ones(3),
    )
    perturbation_step(reference, weighted, 1, epsilon)


def _degenerate_one_sided(instance, reference, epsilon):
    line = ProblemInstance(
        points=instance.points, values=[0.0, 1.0, 2.0], basis=instance.basis
    )
    one_sided_construction(line, 0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (_planar, DimensionError, "perturbation analysis is one-dimensional"),
        (_short, PreconditionError, "must carry rank \\+ 1 = 3 points, got 2"),
        (_unsorted, PreconditionError, "must be sorted by coordinate"),
        (_bad_signs, PreconditionError, "signs must be \\+-1, one per point"),
        (_pair_out_of_range, PreconditionError, "pair position 2 out of range"),
        (_step_epsilon, PreconditionError, "epsilon must lie in \\[0, 0.1"),
        (_improvement_epsilon, PreconditionError, "epsilon must lie in \\(0, 0.1"),
        (_weighted, PreconditionError, "defined for unweighted instances"),
        (_degenerate_one_sided, DegenerateCase, "needs a non-degenerate fit"),
    ],
    ids=[
        "planar",
        "short",
        "unsorted",
        "bad-signs",
        "pair-out-of-range",
        "step-epsilon",
        "improvement-epsilon",
        "weighted",
        "degenerate",
    ],
)
def test_perturbation_and_one_sided_preconditions_name_the_fault(call, error, message):
    instance, reference, epsilon = three_node_reference()
    with pytest.raises(error, match=message):
        call(instance, reference, epsilon)
