"""Invariance of the fit: transformations of the data or of the basis that
leave the minimax problem the same must leave its discrepancy, its active
set, its rank and its certificate's verdicts the same."""

import numpy as np
import pytest

from equifit.basis import parse_basis_spec
from equifit.certificates import extract_certificate, verify_identities
from equifit.errors import DegenerateCase
from equifit.fitting import ProblemInstance, fit


def _monomials(m, variable="x"):
    return ", ".join(["1"] + [f"{variable}^{j}" for j in range(1, m)])


def _instances(seed, count=150):
    """Noisy sine samples, n 10-64 and m 3-6; every other one weighted."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n, m = int(rng.integers(10, 65)), int(rng.integers(3, 7))
        x = np.sort(rng.uniform(0.0, 1.0, n))
        y = np.sin(rng.uniform(1.0, 6.0) * x) + 0.05 * rng.standard_normal(n)
        w = rng.uniform(0.2, 5.0, n) if k % 2 else None
        yield x, y, w, m


def _fit(x, y, w, spec):
    result = fit(
        ProblemInstance(
            points=x[:, None], values=y, basis=parse_basis_spec(spec, 1), weights=w
        )
    )
    return result.discrepancy, result.active_points


def _permuted(x, y, w, m):
    order = np.random.default_rng(x.size).permutation(x.size)
    d, active = _fit(x[order], y[order], None if w is None else w[order], _monomials(m))
    return d, tuple(sorted(int(order[i]) for i in active)), 1.0


def _shifted_values(x, y, w, m):
    return (*_fit(x, y + 3.7, w, _monomials(m)), 1.0)


def _scaled_values(x, y, w, m):
    return (*_fit(x, 1e3 * y, w, _monomials(m)), 1e3)


def _values_times_1e_6(x, y, w, m):
    return (*_fit(x, 1e-6 * y, w, _monomials(m)), 1e-6)


def _values_times_1e_9(x, y, w, m):
    return (*_fit(x, 1e-9 * y, w, _monomials(m)), 1e-9)


def _shifted_basis(x, y, w, m):
    return (*_fit(x, y, w, _monomials(m, "(x - 0.5)")), 1.0)


def _scaled_points(x, y, w, m):
    return (*_fit(1e-4 * x, y, w, _monomials(m)), 1.0)


def _scaled_basis(x, y, w, m):
    spec = ", ".join(["1e-6"] + [f"1e-6*x^{j}" for j in range(1, m)])
    return (*_fit(x, y, w, spec), 1.0)


@pytest.mark.parametrize(
    "transform",
    [
        _permuted,
        _shifted_values,
        _scaled_values,
        _shifted_basis,
        _scaled_points,
        _scaled_basis,
        _values_times_1e_6,
        _values_times_1e_9,
    ],
)
def test_fit_is_invariant(transform):
    for x, y, w, m in _instances(17):
        d, active = _fit(x, y, w, _monomials(m))
        d_new, active_new, factor = transform(x, y, w, m)
        expected = factor * d
        assert abs(d_new - expected) <= 1e-9 * expected
        assert active_new == active


def _verdicts(x, y, w, spec, value_factor=1.0):
    instance = ProblemInstance(
        points=x[:, None],
        values=value_factor * y,
        basis=parse_basis_spec(spec, 1),
        weights=w,
    )
    result = fit(instance)
    try:
        cert = extract_certificate(result.lp_solution, instance)
    except DegenerateCase:
        return instance.rank, result.low_rank, None, None
    report = verify_identities(cert, result, instance)
    return instance.rank, result.low_rank, report.identities_ok, report.active_count_ok


def _basis_times(factor):
    return lambda m: ", ".join([factor] + [f"{factor}*x^{j}" for j in range(1, m)])


@pytest.mark.parametrize(
    "point_factor, spec, value_factor",
    [
        (1e-4, _monomials, 1.0),
        (1e-5, _monomials, 1.0),
        (1.0, _basis_times("1e-6"), 1.0),
        (1.0, _basis_times("1e9"), 1.0),
        (1.0, _monomials, 1e-6),
        (1.0, _monomials, 1e-9),
    ],
    ids=[
        "points-1e-4",
        "points-1e-5",
        "basis-1e-6",
        "basis-1e9",
        "values-1e-6",
        "values-1e-9",
    ],
)
def test_rank_and_certificate_do_not_depend_on_scale(point_factor, spec, value_factor):
    for x, y, w, m in _instances(17):
        expected = _verdicts(x, y, w, _monomials(m))
        assert _verdicts(point_factor * x, y, w, spec(m), value_factor) == expected


def _exact_fit(x, y, w, m):
    instance = ProblemInstance(
        points=x[:, None], values=y, basis=parse_basis_spec(_monomials(m), 1), weights=w
    )
    result = fit(instance)
    try:
        report = verify_identities(
            extract_certificate(result.lp_solution, instance), result, instance
        )
        verdicts = (report.identities_ok, report.active_count_ok, report.two_sided_ok)
    except DegenerateCase as exc:
        verdicts = str(exc)
    flags = (result.exact_interpolation, result.low_rank)
    return result, (result.lp_solution.iterations, result.active_points, flags, verdicts)


@pytest.mark.parametrize("k", [10, 20, 30, 40])
def test_values_times_two_to_the_minus_k_scale_the_fit_exactly(k):
    # Values below one are lifted by a power of two before the LP and every
    # check read them, so d and the coefficients scale exactly, and the
    # pivots, the active set, the flags and the verdicts do not change.
    for x, y, w, m in _instances(17):
        result, facts = _exact_fit(x, y, w, m)
        shrunk, shrunk_facts = _exact_fit(x, np.ldexp(y, -k), w, m)
        assert shrunk.discrepancy == np.ldexp(result.discrepancy, -k)
        assert np.array_equal(shrunk.coefficients, np.ldexp(result.coefficients, -k))
        assert shrunk_facts == facts


def test_weighted_family_scaled_near_one_fits_and_certifies():
    # tests/test_highs.py's weighted family, seed 5, with no scipy needed.
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, 10_000)
    y = np.sin(rng.uniform(1.0, 6.0) * x + rng.uniform(0.0, np.pi))
    y = y + rng.normal(0.0, 0.05, x.size)
    w = np.exp(rng.uniform(-12.0, 12.0, x.size))
    basis = parse_basis_spec(_monomials(6), 1)

    def certified(values):
        instance = ProblemInstance(points=x[:, None], values=values, basis=basis, weights=w)
        result = fit(instance)
        report = verify_identities(
            extract_certificate(result.lp_solution, instance), result, instance
        )
        assert report.identities_ok
        return result.discrepancy

    reference = certified(y)
    assert certified(np.ldexp(y, -16)) == pytest.approx(np.ldexp(reference, -16), rel=1e-9)
