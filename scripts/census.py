#!/usr/bin/env python3
"""Count the fits that fail on two robustness families, and exit 1 when a
count is above its limit.

* ``grid_smooth``: the benchmark's noiseless sin, exp and Runge fits
  (``perfbench/workloads.py``, loaded read-only), seeds 1-10, blocks 0-11:
  1080 certified fits.  Counts the fits that raise, and the returned fits
  whose max |r|, the largest weighted residual of the returned coefficients
  in data units, is more than 1% above their reported d; a fit flagged as
  an exact interpolation (d within rounding of 0) has no relative gap to
  judge, and is not counted.  Also counts the returned fits whose reported
  d is below zero.
* ``shift``: 300 instances drawn from ``default_rng(5)``, in this order:
  n = integers(10, 40), the monomials of degree integers(1, 4),
  u = uniform(-0.5, 0.5, n) and y = normal(0, 1, n).  Each is fitted at
  x = u + 100 and, as the reference, at x = u.  Counts the shifted fits that
  raise; the full-rank ones whose certificate fails (the identities or the
  active-point count); those whose max |r| is worse than the reference
  fit's d by more than 1e-6 relative; and those whose reported d is below
  zero.

Prints one line per family and exits 1 when a count exceeds ``LIMITS``:

    PYTHONPATH=src python scripts/census.py
"""

import pathlib
import sys
import tempfile

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from fit_digest import ROOT, _load  # noqa: E402

GRID_SEEDS = range(1, 11)
GRID_BLOCKS = 12
SHIFT = 100.0
SHIFT_INSTANCES = 300

# The counts at or below which the census passes.
LIMITS = {
    "grid_smooth raised": 1,
    "grid_smooth above d": 0,
    "grid_smooth negative d": 0,
    "shift raised": 0,
    "shift uncertified": 0,
    "shift worse": 0,
    "shift negative d": 0,
}


# equifit is imported inside the functions, from the source tree that
# run() has put on the path.


def grid_smooth(workloads, seeds=GRID_SEEDS, blocks=GRID_BLOCKS):
    """(fits, raised, above d, negative d) over the grid_smooth fits of the
    seeds."""
    from equifit import objective_value

    fits = raised = above = negative = 0
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            workload = workloads.WORKLOADS["grid_smooth"](seed, workdir)
            for index in range(blocks):
                for inp in workload.block(index):
                    out, exc = workload.execute(inp)
                    fits += 1
                    if exc is not None:
                        raised += 1
                        continue
                    result = out[0]
                    negative += result.discrepancy < 0
                    worst = objective_value(result.instance, result.coefficients)
                    if not result.exact_interpolation:
                        above += worst > 1.01 * result.discrepancy
    return fits, raised, above, negative


def shift_instances(count=SHIFT_INSTANCES):
    """(u, y, basis) of the shift family, drawn in order."""
    from equifit.generators import monomial_basis

    rng = np.random.default_rng(5)
    for _ in range(count):
        n = int(rng.integers(10, 40))
        degree = int(rng.integers(1, 4))
        u = rng.uniform(-0.5, 0.5, n)
        y = rng.normal(0.0, 1.0, n)
        yield u, y, monomial_basis(degree + 1)


def shift(count=SHIFT_INSTANCES):
    """(fits, raised, uncertified, worse, negative d) over the shift family
    at x = u + SHIFT."""
    import equifit as ef

    raised = uncertified = worse = negative = 0
    for u, y, basis in shift_instances(count):
        reference = ef.fit(ef.ProblemInstance(points=u[:, None], values=y, basis=basis))
        instance = ef.ProblemInstance(points=(u + SHIFT)[:, None], values=y, basis=basis)
        try:
            result = ef.fit(instance)
        except ef.EquifitError:
            raised += 1
            continue
        negative += result.discrepancy < 0
        worst = ef.objective_value(instance, result.coefficients)
        worse += worst > reference.discrepancy * (1.0 + 1e-6)
        if result.low_rank or result.exact_interpolation:
            continue
        cert = ef.extract_certificate(result.lp_solution, instance)
        report = ef.verify_identities(cert, result, instance)
        uncertified += not (report.identities_ok and report.active_count_ok)
    return count, raised, uncertified, worse, negative


def run(src=ROOT / "src", seeds=GRID_SEEDS, blocks=GRID_BLOCKS, count=SHIFT_INSTANCES):
    """Print one line per family; return the counts named as in LIMITS."""
    workloads = _load(src)
    fits, raised, above, negative = grid_smooth(workloads, seeds, blocks)
    print(
        f"grid_smooth: {fits} fits, {raised} raised, {above} with max|r| > 1.01 d, "
        f"{negative} with d < 0"
    )
    shifted, shift_raised, uncertified, worse, shift_negative = shift(count)
    print(
        f"shift c={SHIFT:g}: {shifted} fits, {shift_raised} raised, "
        f"{uncertified} uncertified, {worse} worse than the reference, "
        f"{shift_negative} with d < 0"
    )
    return {
        "grid_smooth raised": raised,
        "grid_smooth above d": above,
        "grid_smooth negative d": negative,
        "shift raised": shift_raised,
        "shift uncertified": uncertified,
        "shift worse": worse,
        "shift negative d": shift_negative,
    }


if __name__ == "__main__":
    counts = run(*sys.argv[1:2])
    over = [name for name, limit in LIMITS.items() if counts[name] > limit]
    for name in over:
        print(f"{name}: {counts[name]} above the limit {LIMITS[name]}")
    sys.exit(1 if over else 0)
