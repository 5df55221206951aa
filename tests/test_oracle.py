"""Tests for the brute-force reference solver and its agreement with the LP."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from equifit.basis import parse_basis_spec
from equifit.errors import NoCandidate, TooLarge
from equifit.fitting import ProblemInstance, fit, objective_value
from equifit.oracle import (
    AGREE_COEFFICIENT_TOL,
    AGREE_DISCREPANCY_TOL,
    FEASIBILITY_SLACK,
    brute_force_fit,
    compare_with_oracle,
)


def test_constant_two_points():
    instance = ProblemInstance(
        points=[[0.0], [1.0]], values=[0.0, 1.0], basis=parse_basis_spec("1", 1)
    )
    result = brute_force_fit(instance)
    assert result.discrepancy == pytest.approx(0.5, abs=1e-12)
    assert result.witness_subset == (0, 1)
    assert result.witness_signs == (-1, 1)


def test_hat_three_points():
    instance = ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=[0.0, 1.0, 0.0],
        basis=parse_basis_spec("1, x", 1),
    )
    result = brute_force_fit(instance)
    assert result.discrepancy == pytest.approx(0.5, abs=1e-12)
    assert result.witness_subset == (0, 1, 2)
    assert result.witness_signs == (-1, 1, -1)


def test_parabola_samples():
    instance = ProblemInstance(
        points=[[0.0], [0.5], [1.0]],
        values=[0.0, 0.25, 1.0],
        basis=parse_basis_spec("1, x", 1),
    )
    result = brute_force_fit(instance)
    assert result.discrepancy == pytest.approx(0.125, abs=1e-12)
    assert result.coefficients == pytest.approx([-0.125, 1.0], abs=1e-12)


def test_size_bounds_enforced():
    big = ProblemInstance(
        points=np.arange(16.0).reshape(-1, 1),
        values=np.zeros(16),
        basis=parse_basis_spec("1", 1),
    )
    with pytest.raises(TooLarge):
        brute_force_fit(big)
    wide = ProblemInstance(
        points=np.arange(8.0).reshape(-1, 1),
        values=np.zeros(8),
        basis=parse_basis_spec("1, x, x^2, x^3, x^4", 1),
    )
    with pytest.raises(TooLarge):
        brute_force_fit(wide)


def test_rank_deficient_design_reports_no_candidate():
    instance = ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=[0.0, 1.0, 0.3],
        basis=parse_basis_spec("x, 2*x", 1),
    )
    with pytest.raises(NoCandidate):
        brute_force_fit(instance)


def test_weights_fold_into_the_oracle():
    instance = ProblemInstance(
        points=[[0.0], [1.0]],
        values=[0.0, 1.0],
        basis=parse_basis_spec("1", 1),
        weights=[2.0, 1.0],
    )
    result = brute_force_fit(instance)
    assert result.discrepancy == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert result.coefficients == pytest.approx([1.0 / 3.0], abs=1e-12)


def test_determinism():
    rng = np.random.default_rng(2)
    instance = ProblemInstance(
        points=np.sort(rng.uniform(0, 1, 9)).reshape(-1, 1),
        values=rng.uniform(-1, 1, 9),
        basis=parse_basis_spec("1, x", 1),
    )
    a = brute_force_fit(instance)
    b = brute_force_fit(instance)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.discrepancy == b.discrepancy
    assert a.witness_subset == b.witness_subset
    assert a.witness_signs == b.witness_signs


def test_oracle_and_lp_agree_on_random_instances():
    rng = np.random.default_rng(17)
    monomials = {1: "1", 2: "1, x", 3: "1, x, x^2"}
    for _ in range(120):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 2, 13))
        points = np.sort(rng.uniform(0, 1, n))
        while np.min(np.diff(points)) < 1e-3:
            points = np.sort(rng.uniform(0, 1, n))
        values = np.sin(5 * points) + 0.3 * rng.standard_normal(n)
        instance = ProblemInstance(
            points=points.reshape(-1, 1),
            values=values,
            basis=parse_basis_spec(monomials[m], 1),
        )
        lp_fit = fit(instance)
        oracle = brute_force_fit(instance)
        assert abs(lp_fit.discrepancy - oracle.discrepancy) <= 1e-8
        if not np.allclose(lp_fit.coefficients, oracle.coefficients, atol=1e-7):
            # Non-unique optimum: both coefficient vectors must achieve it.
            assert objective_value(instance, oracle.coefficients) <= (
                oracle.discrepancy + 1e-8
            )
            assert objective_value(instance, lp_fit.coefficients) <= (
                lp_fit.discrepancy + 1e-8
            )


def test_witness_signs_alternate_for_polynomial_bases():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(6, 13))
        points = np.sort(rng.uniform(0, 1, n))
        while np.min(np.diff(points)) < 1e-3:
            points = np.sort(rng.uniform(0, 1, n))
        values = np.exp(points) + 0.2 * rng.standard_normal(n)
        instance = ProblemInstance(
            points=points.reshape(-1, 1),
            values=values,
            basis=parse_basis_spec("1, x, x^2", 1),
        )
        result = brute_force_fit(instance)
        ordered = sorted(
            range(len(result.witness_subset)),
            key=lambda k: points[result.witness_subset[k]],
        )
        signs = [result.witness_signs[k] for k in ordered]
        assert all(a == -b for a, b in zip(signs, signs[1:]))



def test_compare_with_oracle_judges_optimality_not_the_coefficients():
    # The two points at x = 0 fix d = 1 and the constant at 1; any slope in
    # [3, 5] is optimal too, so the optimum is not unique.
    instance = ProblemInstance(
        points=[[0.0], [0.0], [1.0]],
        values=[0.0, 2.0, 5.0],
        basis=parse_basis_spec("1, x", 1),
    )
    result = fit(instance)
    comparison = compare_with_oracle(result)
    # The LP and the oracle land on different slopes, both optimal.
    assert comparison.coefficient_gap > AGREE_COEFFICIENT_TOL
    assert comparison.agrees

    worse = replace(result, discrepancy=result.discrepancy + 10 * AGREE_DISCREPANCY_TOL)
    comparison = compare_with_oracle(worse)
    assert comparison.discrepancy_gap > AGREE_DISCREPANCY_TOL
    assert not comparison.agrees


def test_rank_deficient_bases_report_no_candidate():
    # Each basis spans at most m - 1 dimensions on the data, so every
    # (m+1)-point witness system is singular; roundoff must not let one
    # through (its coefficients would be of order 1e16).
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, 9)
    for spec in ("x, 2*x", "x, 3*x", "x, 0.1*x", "1, x, 1+x"):
        instance = ProblemInstance(
            points=x.reshape(-1, 1),
            values=np.sin(4 * x),
            basis=parse_basis_spec(spec, 1),
        )
        assert instance.rank < instance.m
        with pytest.raises(NoCandidate, match="rank"):
            brute_force_fit(instance)


def _plain_loop_oracle(instance):
    """Every (subset, sign) system solved on its own, in enumeration order;
    returns the best feasible candidate and every feasible discrepancy."""
    g, y = instance.scaled_design_and_values()
    n, m = instance.n, instance.m
    best = None
    feasible = []
    for subset in itertools.combinations(range(n), m + 1):
        rows = list(subset)
        for signs in itertools.product((-1.0, 1.0), repeat=m + 1):
            system = np.column_stack([g[rows], signs])
            try:
                solution = np.linalg.solve(system, y[rows])
            except np.linalg.LinAlgError:
                continue
            alpha, d = solution[:m], solution[m]
            max_abs = np.max(np.abs(y - g @ alpha))
            if d >= -FEASIBILITY_SLACK and max_abs <= d + FEASIBILITY_SLACK:
                feasible.append(d)
                if best is None or d < best[0]:
                    best = (d, subset, signs)
    return best, np.array(feasible)


def _differential_instances(rng, count):
    bases = {1: "1", 2: "1, x", 3: "1, x, x^2", 4: "1, x, x^2, x^3"}
    even_bases = {2: "1, x^2", 3: "1, x^2, x^4"}
    most_points = {1: 10, 2: 8, 3: 7, 4: 6}
    for k in range(count):
        kind = ("plain", "duplicated", "symmetric")[k % 3]
        m = int(rng.integers(2, 4)) if kind == "symmetric" else int(rng.integers(1, 5))
        n = int(rng.integers(m + 1, most_points[m] + 1))
        x = rng.uniform(-1.0, 1.0, n)
        spec = bases[m]
        if kind == "duplicated":
            x[: n // 3] = x[n - n // 3 :]
        elif kind == "symmetric":
            half = rng.uniform(0.1, 1.0, (n + 1) // 2)
            x = np.concatenate([half, -half])[:n]
            spec = even_bases[m]
        values = np.cos(rng.uniform(1.0, 5.0) * x) + 0.1 * rng.standard_normal(n)
        weights = rng.uniform(0.1, 10.0, n) if rng.uniform() < 0.3 else None
        yield ProblemInstance(
            points=x.reshape(-1, 1),
            values=values,
            basis=parse_basis_spec(spec, 1),
            weights=weights,
        )


def test_oracle_matches_a_plain_loop_over_every_witness_system():
    rng = np.random.default_rng(29)
    compared = unique = 0
    for instance in _differential_instances(rng, 150):
        if instance.rank < instance.m:
            with pytest.raises(NoCandidate):
                brute_force_fit(instance)
            continue
        result = brute_force_fit(instance)
        (d, subset, signs), feasible = _plain_loop_oracle(instance)
        scale = max(1.0, d)
        assert abs(result.discrepancy - max(d, 0.0)) <= 1e-12 * scale
        assert objective_value(instance, result.coefficients) <= (
            result.discrepancy + FEASIBILITY_SLACK
        )
        compared += 1
        if np.sum(feasible <= d + 1e-9 * scale) == 1:
            unique += 1
            assert result.witness_subset == subset
            assert result.witness_signs == tuple(int(s) for s in signs)
    assert compared >= 120 and unique >= 60
