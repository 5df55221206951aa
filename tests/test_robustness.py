"""Fits that the basis's own columns, as the lifted design, failed: the
benchmark's noiseless grid_smooth fits, where long simplex runs drifted or
an absolute zero level took a tiny d for an interpolation, and a cubic at
shifted abscissae, whose monomial columns are nearly parallel."""

import importlib.util
import pathlib
import runpy
import sys

import numpy as np
import pytest

from equifit.certificates import extract_certificate, verify_identities
from equifit.fitting import ProblemInstance, fit, objective_value

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def grid_smooth(tmp_path_factory):
    """The exp/m6 input of a grid_smooth (seed, block), read from the
    benchmark's workloads module, which is loaded but not changed."""
    spec = importlib.util.spec_from_file_location(
        "robustness_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    workdir = str(tmp_path_factory.mktemp("grid_smooth"))

    def exp_m6(seed, block):
        workload = workloads.WORKLOADS["grid_smooth"](seed, workdir)
        inp = next(i for i in workload.block(block) if i.label == "exp/m6")
        return workload, inp

    return exp_m6


# (seed, block) of exp/m6 fits whose simplex run on the scaled monomial
# columns ended at a basis that violated feasibility, or whose recomputed
# residual bound missed the LP optimum (5/4, 9/11).
RAISED = ((1, 5), (3, 4), (4, 4), (4, 9), (5, 4), (7, 3), (9, 2), (9, 11))
# (seed, block) of exp/m6 fits that reported a d 85-92% below the max |r|
# of their own coefficients.
BELOW_MAX_R = ((10, 4), (8, 6), (2, 9), (3, 2))


@pytest.mark.parametrize("seed, block", RAISED)
def test_grid_smooth_fits_that_raised_certify(grid_smooth, seed, block):
    workload, inp = grid_smooth(seed, block)
    out = workload.op(inp)
    outcome = workload.check(inp, out)
    assert outcome.status == "ok", outcome.note
    assert outcome.certified


@pytest.mark.parametrize("seed, block", BELOW_MAX_R)
def test_grid_smooth_fits_reach_their_discrepancy(grid_smooth, seed, block):
    workload, inp = grid_smooth(seed, block)
    result = workload.op(inp)[0]
    worst = objective_value(result.instance, result.coefficients)
    assert not result.exact_interpolation
    assert result.discrepancy <= worst <= 1.01 * result.discrepancy


# (seed, block, d) of exp/m6 fits whose d is below 1e-9: an absolute zero
# level of 1e-9 flagged them as exact interpolations, with no certificate.
# Their band is the fit's rounding unit, about 1e-14, so they are not.
TINY_D = ((1, 1, 7.1e-10), (4, 11, 5.2e-11), (6, 1, 5.2e-11), (7, 7, 8.1e-11))


@pytest.mark.parametrize("seed, block, d", TINY_D)
def test_grid_smooth_fits_of_tiny_d_certify_and_equioscillate(
    grid_smooth, seed, block, d
):
    workload, inp = grid_smooth(seed, block)
    result, report, pattern = workload.op(inp)
    assert not result.exact_interpolation
    assert result.discrepancy == pytest.approx(d, rel=0.01)
    assert len(result.active_points) >= result.instance.rank + 1
    assert report.identities_ok and report.active_count_ok
    assert pattern.equioscillates
    outcome = workload.check(inp, (result, report, pattern))
    assert outcome.status == "ok", outcome.note
    assert outcome.certified


def test_a_cubic_at_abscissae_shifted_by_100_fits_and_certifies():
    # Instance 162 of the census's shift family: 12 points, the cubic
    # monomials.  On the scaled monomial columns at x near 100, the
    # recomputed residual bound missed the LP optimum by 2.7e-7.  The
    # columns are nearly parallel there, so the optimum itself moves by
    # some 1e-9 relative.
    census = runpy.run_path(str(ROOT / "scripts" / "census.py"))
    u, y, basis = list(census["shift_instances"](163))[162]
    assert basis.size == 4 and u.size == 12
    reference = fit(ProblemInstance(points=u[:, None], values=y, basis=basis))
    instance = ProblemInstance(points=(u + 100.0)[:, None], values=y, basis=basis)
    result = fit(instance)
    assert not (result.low_rank or result.exact_interpolation)
    report = verify_identities(
        extract_certificate(result.lp_solution, instance), result, instance
    )
    assert report.identities_ok and report.active_count_ok
    assert result.discrepancy == pytest.approx(reference.discrepancy, rel=1e-6)
    assert objective_value(instance, result.coefficients) == pytest.approx(
        reference.discrepancy, rel=1e-6
    )
