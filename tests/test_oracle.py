"""Tests for the brute-force reference solver and its agreement with the LP."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from equifit.basis import parse_basis_spec
from equifit.errors import NoCandidate, SolverError, TooLarge
from equifit.fitting import ProblemInstance, fit, objective_value
from equifit.oracle import (
    AGREE_COEFFICIENT_TOL,
    AGREE_DISCREPANCY_TOL,
    FEASIBILITY_SLACK,
    brute_force_fit,
    compare_with_oracle,
    factor_witness_subsets,
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
    # Slope 4 is optimal but no vertex, so it differs by at least 1 from
    # the oracle's answer, whichever vertex (slope 3 or 5) rounding picks.
    other_optimum = replace(result, coefficients=np.array([1.0, 4.0]))
    comparison = compare_with_oracle(other_optimum)
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


def _monomial_blocks(rng, count, m, clustered=False, weighted=False):
    """``count`` witness blocks (m+1 points, basis 1, x, ..., x^(m-1)), with
    points in [-1, 1] or clustered in a width of 1e-4, rows optionally
    weighted over e^-6..e^6."""
    x = rng.uniform(-1.0, 1.0, (count, m + 1))
    if clustered:
        x = x[:, :1] + 1e-4 * x
    blocks = x[:, :, None] ** np.arange(m)
    if weighted:
        blocks *= np.exp(rng.uniform(-6.0, 6.0, (count, m + 1, 1)))
    return blocks


def test_factors_do_not_depend_on_the_stack():
    rng = np.random.default_rng(41)
    for m in range(1, 5):
        blocks = _monomial_blocks(rng, 40, m, weighted=True)
        blocks[3, :, m - 1] = 0.0
        full = factor_witness_subsets(blocks)
        order = rng.permutation(40)[:17]
        shuffled = factor_witness_subsets(blocks[order])
        for k, i in enumerate(order):
            alone = factor_witness_subsets(blocks[i : i + 1])
            for whole, part, single in zip(full, shuffled, alone):
                assert np.array_equal(whole[i], part[k], equal_nan=True)
                assert np.array_equal(whole[i], single[0], equal_nan=True)


@pytest.mark.parametrize("clustered", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
def test_factors_match_lapack_qr(clustered, weighted):
    # Householder QR is backward stable: G^T lam is small against |G| alone,
    # while lam and G^+ G - I carry the condition number.
    rng = np.random.default_rng(43)
    eps = np.finfo(float).eps
    for m in range(1, 5):
        blocks = _monomial_blocks(rng, 200, m, clustered, weighted)
        lam, pinv, full_rank = factor_witness_subsets(blocks)
        assert np.all(full_rank)
        size = np.linalg.norm(blocks, ord=2, axis=(1, 2))
        cond = np.linalg.cond(blocks)
        reference = np.linalg.qr(blocks, mode="complete")[0][:, :, m]
        sign = np.sign(np.sum(lam * reference, axis=1))[:, None]
        assert np.all(np.max(np.abs(lam - sign * reference), axis=1) <= 50 * eps * cond)
        null_residual = np.linalg.norm(np.einsum("krc,kr->kc", blocks, lam), axis=1)
        assert np.all(null_residual <= 10 * eps * size)
        identity_error = np.max(np.abs(pinv @ blocks - np.eye(m)), axis=(1, 2))
        assert np.all(identity_error <= 50 * eps * cond)


def test_a_block_with_a_zero_column_is_never_a_witness():
    # Points 0, 1 and 2 share x = 0, so the block of subset (0, 1, 2) has a
    # zero x column: it is outside the full-rank mask (its pseudo-inverse is
    # not finite), though its lam is still a unit null vector.
    instance = ProblemInstance(
        points=[[0.0], [0.0], [0.0], [1.0], [2.0], [3.0]],
        values=[0.0, 1.0, 2.0, 1.0, 1.0, 1.0],
        basis=parse_basis_spec("1, x", 1),
    )
    g, _ = instance.scaled_design_and_values()
    block = g[[0, 1, 2]][None]
    lam, pinv, full_rank = factor_witness_subsets(block)
    assert not full_rank[0]
    assert not np.all(np.isfinite(pinv))
    assert np.linalg.norm(lam[0]) == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(block[0].T @ lam[0])) <= 1e-14
    result = brute_force_fit(instance)
    assert result.witness_subset != (0, 1, 2)
    assert result.discrepancy == pytest.approx(1.0, abs=1e-12)
    assert objective_value(instance, result.coefficients) <= 1.0 + FEASIBILITY_SLACK


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


def _full_scan(instance):
    """Every (subset, sign) candidate scored at once, in one matrix product,
    as the oracle did before it skipped the candidates below the floor;
    returns the first minimum in enumeration order, or None."""
    g, y = instance.scaled_design_and_values()
    n, m = instance.n, instance.m
    subsets = np.array(list(itertools.combinations(range(n), m + 1)))
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m + 1)))
    lam, pinv, full_rank = factor_witness_subsets(g[subsets])
    y_s = y[subsets]
    lam_signs = lam @ signs.T
    solvable = full_rank[:, None] & (lam_signs != 0.0)
    with np.errstate(all="ignore"):
        ds = np.sum(lam * y_s, axis=1)[:, None] / lam_signs
        alphas = pinv @ y_s[:, :, None] - ds[:, None, :] * (pinv @ signs.T)
        alphas = np.ascontiguousarray(np.moveaxis(alphas, 1, 0))
        residuals = g @ alphas.reshape(m, -1)
        residuals -= y[:, None]
        max_abs = np.max(np.abs(residuals), axis=0).reshape(ds.shape)
    slack = FEASIBILITY_SLACK * max(1.0, float(np.max(np.abs(y))))
    feasible = (
        solvable & np.isfinite(max_abs) & (ds >= -slack) & (max_abs <= ds + slack)
    )
    if not np.any(feasible):
        return None
    best_subset, best_sign = np.unravel_index(
        int(np.argmin(np.where(feasible, ds, np.inf))), ds.shape
    )
    return (
        alphas[:, best_subset, best_sign],
        float(max(ds[best_subset, best_sign], 0.0)),
        tuple(int(i) for i in subsets[best_subset]),
        tuple(int(s) for s in signs[best_sign]),
    )


def _pruning_instances(rng, count):
    """Verify-sized instances (n 8-15, m 2-4, n=15, m=4 first): plain,
    with points repeated exactly, symmetric about 0 with an even basis
    (both give candidates of equal d), and clustered in a width of 1e-4 to
    1e-1, where the coefficients are large and rounding decides some
    feasibility tests, or leaves the floor without a feasible candidate.
    About 30% weighted over e^-6..e^6, about 30% with values x 1e6."""
    bases = {2: "1, x", 3: "1, x, x^2", 4: "1, x, x^2, x^3"}
    even_bases = {2: "1, x^2", 3: "1, x^2, x^4", 4: "1, x^2, x^4, x^6"}
    for k in range(count):
        kind = ("plain", "repeated", "symmetric", "clustered")[k % 4]
        if k < 4:
            n, m = 15, 4
        else:
            n, m = int(rng.integers(8, 16)), int(rng.integers(2, 5))
        x = rng.uniform(-1.0, 1.0, n)
        y = np.cos(rng.uniform(1.0, 5.0) * x) + 0.1 * rng.standard_normal(n)
        w = np.exp(rng.uniform(-6.0, 6.0, n)) if rng.uniform() < 0.3 else None
        spec = bases[m]
        if kind == "repeated":
            tail = slice(n - n // 3, n)
            x[: n // 3], y[: n // 3] = x[tail], y[tail]
            if w is not None:
                w[: n // 3] = w[tail]
        elif kind == "symmetric":
            half = (n + 1) // 2
            x = np.concatenate([x[:half], -x[:half]])[:n]
            y = np.concatenate([y[:half], y[:half]])[:n]
            if w is not None:
                w = np.concatenate([w[:half], w[:half]])[:n]
            spec = even_bases[m]
        elif kind == "clustered":
            x = x[0] + 10 ** rng.uniform(-4.0, -1.0) * x
        if rng.uniform() < 0.3:
            y = 1e6 * y
        yield ProblemInstance(
            points=x.reshape(-1, 1),
            values=y,
            basis=parse_basis_spec(spec, 1),
            weights=w,
        )


def _narrow_cubic():
    """A cubic on a window of width 0.015: the coefficients are near 1e6,
    so the residuals of the candidates round to either side of the
    feasibility slack, and none at the floor passes; the full scan's
    first minimum lies above the floor, so it is not optimal."""
    x = [-1.6509514766112707, -1.6457447478262937, -1.6528384762528707,
         -1.6471325116662507, -1.6605600195852483, -1.647835403796264,
         -1.6595419659003983, -1.6624768732740762, -1.6557736539851227,
         -1.66131535799234]
    y = [0.29694375038898274, 0.18391863530155175, 0.23115015924921078,
         0.2080454924062576, 0.25065961064799736, 0.2316800161999709,
         0.3162679779190855, 0.36333230053453075, 0.23542497347901778,
         0.25803283980754815]
    return ProblemInstance(
        points=np.reshape(x, (-1, 1)),
        values=y,
        basis=parse_basis_spec("1, x, x^2, x^3", 1),
    )


# Instances whose witness blocks are too ill-conditioned for any candidate
# at the floor to pass: the full scan answers from above the floor, above
# the LP's optimum, and the oracle raises NoCandidate.
ABOVE_THE_FLOOR = (0, 56, 76, 92)
# Of those, the fits whose coefficients (near 1e8 on instance 92) round the
# recomputed residuals by more than fit's residual-bound slack, which does
# not grow with them: fit raises instead of returning the LP's optimum.
FIT_RAISES = (92,)


def test_pruned_scan_returns_the_full_scan_answer():
    rng = np.random.default_rng(31)
    compared = 0
    instances = [_narrow_cubic(), *_pruning_instances(rng, 100)]
    for index, instance in enumerate(instances):
        expected = _full_scan(instance) if instance.rank >= instance.m else None
        if expected is None or index in ABOVE_THE_FLOOR:
            with pytest.raises(NoCandidate):
                brute_force_fit(instance)
            if index in FIT_RAISES:
                with pytest.raises(SolverError, match="recomputed residual bound"):
                    fit(instance)
            elif expected is not None:
                assert fit(instance).discrepancy < expected[1]
            continue
        result = brute_force_fit(instance)
        coefficients, discrepancy, subset, signs = expected
        assert result.witness_subset == subset
        assert result.witness_signs == signs
        assert result.discrepancy == discrepancy
        assert np.array_equal(result.coefficients, coefficients)
        compared += 1
    assert compared >= 80
