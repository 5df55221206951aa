"""Large fits checked against scipy's HiGHS on the same minimax problem.

The HiGHS problem is built here from the data, not from equifit's LP
assembly: minimize d over (c, d) subject to |w_i (y_i - g_i . c)| <= d.
equifit's fit must certify, and its discrepancy must agree with HiGHS's
optimum to 1e-6 relative.
"""

import numpy as np
import pytest

from equifit.basis import design_matrix, parse_basis_spec
from equifit.certificates import extract_certificate, verify_identities
from equifit.fitting import ProblemInstance, fit

optimize = pytest.importorskip("scipy.optimize")

N = 10_000
# Monomials of degree at most 5.
BASIS = "1, x, x^2, x^3, x^4, x^5"


def smooth_data(rng, n):
    x = rng.uniform(-1.0, 1.0, n)
    y = np.sin(rng.uniform(1.0, 6.0) * x + rng.uniform(0.0, np.pi))
    return x, y + rng.normal(0.0, 0.05, n)


def family(name, seed):
    """Points, values and weights of one adversarial family."""
    rng = np.random.default_rng(seed)
    if name == "duplicated":
        # Every point four times over, with the same value: many tied rows.
        x, y = smooth_data(rng, N // 4)
        return np.tile(x, 4), np.tile(y, 4), None
    x, y = smooth_data(rng, N)
    if name == "smooth":
        return x, y, None
    if name == "scaled":
        return x, 1e8 * y, None
    if name == "weighted":
        return x, y, np.exp(rng.uniform(-12.0, 12.0, N))
    raise ValueError(name)


def highs_discrepancy(design, values, weights):
    """The minimax optimum, solved by HiGHS."""
    w = np.ones(values.size) if weights is None else weights
    wg, wy = w[:, None] * design, w * values
    ones = np.ones((values.size, 1))
    m = design.shape[1]
    result = optimize.linprog(
        c=np.r_[np.zeros(m), 1.0],
        A_ub=np.vstack([np.hstack([-wg, -ones]), np.hstack([wg, -ones])]),
        b_ub=np.r_[-wy, wy],
        bounds=[(None, None)] * m + [(0.0, None)],
        method="highs",
    )
    assert result.status == 0, result.message
    return float(result.fun)


@pytest.mark.parametrize("name", ["smooth", "scaled", "weighted", "duplicated"])
def test_large_fit_agrees_with_highs(name):
    x, y, w = family(name, seed=5)
    instance = ProblemInstance(
        points=x[:, None], values=y, basis=parse_basis_spec(BASIS, 1), weights=w
    )
    result = fit(instance)
    report = verify_identities(
        extract_certificate(result.lp_solution, instance), result, instance
    )
    assert report.identities_ok
    d = result.discrepancy
    assert abs(d - highs_discrepancy(instance.design(), y, w)) <= 1e-6 * max(1.0, d)


def test_shrunk_abscissae_fit_agrees_with_highs_on_the_unshrunk_design():
    # x * 1e-5 spans the same space as x.  The reference is HiGHS on the
    # unshrunk design: its tolerances are absolute too, and on the shrunk
    # design it returns a discrepancy far above the optimum.
    x, y, _ = family("smooth", seed=5)
    basis = parse_basis_spec(BASIS, 1)
    instance = ProblemInstance(points=1e-5 * x[:, None], values=y, basis=basis)
    result = fit(instance)
    report = verify_identities(
        extract_certificate(result.lp_solution, instance), result, instance
    )
    assert report.identities_ok
    d = result.discrepancy
    reference = highs_discrepancy(design_matrix(basis, x[:, None]), y, None)
    assert abs(d - reference) <= 1e-6 * max(1.0, d)
