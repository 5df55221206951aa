#!/usr/bin/env python3
"""Count the fits that fail on seven robustness families, and exit 1 when
a count is above its limit.

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
  x = u + c, for c = 100 and c = 1000, and, as the reference, at x = u.
  Counts the shifted fits that raise; those flagged ``low_rank``; those
  not flagged exact whose certificate fails (the identities or the
  active-point count, on the span the rank rule keeps); those whose max
  |r| is worse than the reference fit's d by more than 1e-6 relative; and
  those whose reported d is below zero.
* ``large |y|``: 400 instances drawn from ``default_rng(3)``, in this
  order: n = integers(8, 40), m = integers(2, 6), x = uniform(-1, 1, n),
  c = normal(0, 1, m) and y = 1e9 * sum_j c_j x^j + normal(0, 1, n), the
  sum by ``np.polynomial.polynomial.polyval`` (another order of summation
  rounds y otherwise and moves the counts by a few), with the monomials
  1, x, ..., x^(m-1).  Counts the fits that raise, those flagged
  ``low_rank`` or as exact interpolations, and those not flagged exact
  whose certificate fails.
* ``offset``: 400 instances drawn from ``default_rng(7)``, in this order:
  n = integers(8, 16), m = integers(1, 5), x = uniform(0, 10, n),
  offset = 10.0 ** int(choice([6, 9, 12])) and y = offset +
  normal(0, 5, n), with the monomials 1, x, ..., x^(m-1).  Counts the fits
  that raise, and of the others those the brute-force oracle skips (it
  raises) and those on which it disagrees with the fit
  (``compare_with_oracle``).
* ``near-tie``: 400 instances drawn from ``default_rng(11)``, in this
  order: n = integers(4, 16), x = uniform(0, 1, n), y = normal(0, 1, n);
  then the second-largest y is set to the largest minus
  10.0 ** uniform(-12, -9.5), and the basis is the constant.  Counts the
  fits that raise, and of the others those the brute-force oracle skips
  and those where its lifted d is below the fit's by more than the fit's
  rounding unit (``ProblemInstance.rounding_tol`` of its lifted
  coefficients): a candidate that misses its own d by more than rounding.
* ``tiny-scale``: 400 instances drawn from ``default_rng(13)``, in this
  order: n = integers(6, 16), m = integers(1, 5), x = uniform(0, 1, n),
  k = integers(1000, 1061) and y = ldexp(normal(0, 1, n), -k), with the
  monomials 1, x, ..., x^(m-1): values from 2^-1000 down into the
  subnormals.  Counts the fits that raise, those flagged as exact
  interpolations, the others whose certificate fails, and of all fits
  returned those the brute-force oracle skips and those on which it
  disagrees with the fit.
* ``dependent lists``: 400 instances drawn from ``default_rng(17)``, in
  this order: n = integers(6, 16), x = uniform(-1, 1, n), line =
  uniform(-1, 1, 2) and y = normal(0, 1, n); instance k takes list k % 4
  of ``DEPENDENT_LISTS``, whose functions are dependent on the data: the
  1-D lists at x, the 2-D ones at the collinear points (x, line[0] +
  line[1] x).  Counts the fits that raise, and of the others those whose
  certificate fails (an exact interpolation has none), those the
  brute-force oracle skips and those on which it disagrees with the fit.

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
SHIFTS = (100.0, 1000.0)
SHIFT_INSTANCES = 300
LARGE_Y_INSTANCES = 400
OFFSET_INSTANCES = 400
NEAR_TIE_INSTANCES = 400
TINY_SCALE_INSTANCES = 400
DEPENDENT_INSTANCES = 400
# (spec, dimension) of the dependent-lists family; on its points the lists
# have rank 2, 3, 2 and 3.
DEPENDENT_LISTS = (
    ("1, x, 2*x", 1),
    ("x, 1 - x, 1, x^2", 1),
    ("1, x, y, x + y", 2),
    ("1, x, y, x*y", 2),
)

# The counts at or below which the census passes.  At c = 1000 the rank
# rule finds 121 cubics rank-deficient, and their fits are the worse ones:
# they certify on the span the rule keeps, but the rule drops a direction
# that the floats still carry, so they are not optimal over the full list;
# every large-|y| fit certifies, since fit's band and the certificate
# identities allow 64 rounding units of the lifted residual, and the oracle
# agrees on every offset fit, and answers no near tie below the optimum,
# since its feasibility test and agreement read the rounding unit alone.
# The lifts of the values and of the columns are uncapped powers of two,
# and every check reads the lifted numbers, so values down into the
# subnormals fit, certify and agree with the oracle like any others.  Every
# check reads the rank, so a list of dependent functions fits, certifies
# and agrees with the oracle on its span.
LIMITS = {
    "grid_smooth raised": 0,
    "grid_smooth above d": 0,
    "grid_smooth negative d": 0,
    "shift c=100 raised": 0,
    "shift c=100 low_rank": 0,
    "shift c=100 uncertified": 0,
    "shift c=100 worse": 0,
    "shift c=100 negative d": 0,
    "shift c=1000 raised": 0,
    "shift c=1000 low_rank": 121,
    "shift c=1000 uncertified": 0,
    "shift c=1000 worse": 121,
    "shift c=1000 negative d": 0,
    "large |y| raised": 0,
    "large |y| low_rank": 0,
    "large |y| exact": 0,
    "large |y| uncertified": 0,
    "offset raised": 0,
    "offset skipped": 0,
    "offset disagree": 0,
    "near-tie raised": 0,
    "near-tie skipped": 0,
    "near-tie below": 0,
    "tiny-scale raised": 0,
    "tiny-scale exact": 0,
    "tiny-scale uncertified": 0,
    "tiny-scale skipped": 0,
    "tiny-scale disagree": 0,
    "dependent lists raised": 0,
    "dependent lists uncertified": 0,
    "dependent lists skipped": 0,
    "dependent lists disagree": 0,
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


def _certifies(result):
    """The certificate's identities and active-point count both hold."""
    import equifit as ef

    cert = ef.extract_certificate(result.lp_solution, result.instance)
    report = ef.verify_identities(cert, result, result.instance)
    return report.identities_ok and report.active_count_ok


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


def shift(c, count=SHIFT_INSTANCES):
    """(fits, raised, low_rank, uncertified, worse, negative d) over the
    shift family at x = u + c."""
    import equifit as ef

    raised = low_rank = uncertified = worse = negative = 0
    for u, y, basis in shift_instances(count):
        reference = ef.fit(ef.ProblemInstance(points=u[:, None], values=y, basis=basis))
        instance = ef.ProblemInstance(points=(u + c)[:, None], values=y, basis=basis)
        try:
            result = ef.fit(instance)
        except ef.EquifitError:
            raised += 1
            continue
        negative += result.discrepancy < 0
        worst = ef.objective_value(instance, result.coefficients)
        worse += worst > reference.discrepancy * (1.0 + 1e-6)
        low_rank += result.low_rank
        if not result.exact_interpolation:
            uncertified += not _certifies(result)
    return count, raised, low_rank, uncertified, worse, negative


def large_y_instances(count=LARGE_Y_INSTANCES):
    """(x, y, basis) of the large-|y| family, drawn in order."""
    from equifit.generators import monomial_basis

    rng = np.random.default_rng(3)
    for _ in range(count):
        n = int(rng.integers(8, 40))
        m = int(rng.integers(2, 6))
        x = rng.uniform(-1.0, 1.0, n)
        c = rng.normal(0.0, 1.0, m)
        y = 1e9 * np.polynomial.polynomial.polyval(x, c) + rng.normal(0.0, 1.0, n)
        yield x, y, monomial_basis(m)


def large_y(count=LARGE_Y_INSTANCES):
    """(fits, raised, low_rank, exact, uncertified) over the large-|y|
    family."""
    import equifit as ef

    raised = low_rank = exact = uncertified = 0
    for x, y, basis in large_y_instances(count):
        try:
            result = ef.fit(ef.ProblemInstance(points=x[:, None], values=y, basis=basis))
        except ef.EquifitError:
            raised += 1
            continue
        low_rank += result.low_rank
        exact += result.exact_interpolation
        if not result.exact_interpolation:
            uncertified += not _certifies(result)
    return count, raised, low_rank, exact, uncertified


def offset_instances(count=OFFSET_INSTANCES):
    """(x, y, basis) of the offset family, drawn in order."""
    from equifit.generators import monomial_basis

    rng = np.random.default_rng(7)
    for _ in range(count):
        n = int(rng.integers(8, 16))
        m = int(rng.integers(1, 5))
        x = rng.uniform(0.0, 10.0, n)
        offset = 10.0 ** int(rng.choice([6, 9, 12]))
        y = offset + rng.normal(0.0, 5.0, n)
        yield x, y, monomial_basis(m)


def offset(count=OFFSET_INSTANCES):
    """(fits, raised, skipped, disagree) over the offset family."""
    import equifit as ef
    from equifit.oracle import compare_with_oracle

    raised = skipped = disagree = 0
    for x, y, basis in offset_instances(count):
        try:
            result = ef.fit(ef.ProblemInstance(points=x[:, None], values=y, basis=basis))
        except ef.EquifitError:
            raised += 1
            continue
        try:
            disagree += not compare_with_oracle(result).agrees
        except ef.EquifitError:
            skipped += 1
    return count, raised, skipped, disagree


def near_tie_instances(count=NEAR_TIE_INSTANCES):
    """(x, y, basis) of the near-tie family, drawn in order."""
    from equifit.generators import monomial_basis

    rng = np.random.default_rng(11)
    for _ in range(count):
        n = int(rng.integers(4, 16))
        x = rng.uniform(0.0, 1.0, n)
        y = rng.normal(0.0, 1.0, n)
        second, first = np.argsort(y)[-2:]
        y[second] = y[first] - 10.0 ** rng.uniform(-12.0, -9.5)
        yield x, y, monomial_basis(1)


def near_tie(count=NEAR_TIE_INSTANCES):
    """(fits, raised, skipped, below) over the near-tie family."""
    import equifit as ef
    from equifit.oracle import brute_force_fit

    raised = skipped = below = 0
    for x, y, basis in near_tie_instances(count):
        instance = ef.ProblemInstance(points=x[:, None], values=y, basis=basis)
        try:
            result = ef.fit(instance)
        except ef.EquifitError:
            raised += 1
            continue
        try:
            oracle = brute_force_fit(instance)
        except ef.EquifitError:
            skipped += 1
            continue
        fit_d = max(result.lp_solution.objective_value, 0.0)
        unit = instance.rounding_tol(result.lp_solution.primal[1:])
        below += fit_d - oracle.lifted_discrepancy > unit
    return count, raised, skipped, below


def tiny_scale_instances(count=TINY_SCALE_INSTANCES):
    """(x, y, basis) of the tiny-scale family, drawn in order."""
    from equifit.generators import monomial_basis

    rng = np.random.default_rng(13)
    for _ in range(count):
        n = int(rng.integers(6, 16))
        m = int(rng.integers(1, 5))
        x = rng.uniform(0.0, 1.0, n)
        k = int(rng.integers(1000, 1061))
        y = np.ldexp(rng.normal(0.0, 1.0, n), -k)
        yield x, y, monomial_basis(m)


def tiny_scale(count=TINY_SCALE_INSTANCES):
    """(fits, raised, exact, uncertified, skipped, disagree) over the
    tiny-scale family."""
    import equifit as ef
    from equifit.oracle import compare_with_oracle

    raised = exact = uncertified = skipped = disagree = 0
    for x, y, basis in tiny_scale_instances(count):
        try:
            result = ef.fit(ef.ProblemInstance(points=x[:, None], values=y, basis=basis))
        except ef.EquifitError:
            raised += 1
            continue
        exact += result.exact_interpolation
        if not result.exact_interpolation:
            uncertified += not _certifies(result)
        try:
            disagree += not compare_with_oracle(result).agrees
        except ef.EquifitError:
            skipped += 1
    return count, raised, exact, uncertified, skipped, disagree


def dependent_instances(count=DEPENDENT_INSTANCES):
    """(points, y, basis) of the dependent-lists family, drawn in order."""
    from equifit import parse_basis_spec

    rng = np.random.default_rng(17)
    for k in range(count):
        n = int(rng.integers(6, 16))
        x = rng.uniform(-1.0, 1.0, n)
        line = rng.uniform(-1.0, 1.0, 2)
        y = rng.normal(0.0, 1.0, n)
        spec, dimension = DEPENDENT_LISTS[k % len(DEPENDENT_LISTS)]
        points = np.column_stack([x, line[0] + line[1] * x][:dimension])
        yield points, y, parse_basis_spec(spec, dimension)


def dependent(count=DEPENDENT_INSTANCES):
    """(fits, raised, uncertified, skipped, disagree) over the
    dependent-lists family."""
    import equifit as ef
    from equifit.oracle import compare_with_oracle

    raised = uncertified = skipped = disagree = 0
    for points, y, basis in dependent_instances(count):
        try:
            result = ef.fit(ef.ProblemInstance(points=points, values=y, basis=basis))
        except ef.EquifitError:
            raised += 1
            continue
        uncertified += result.exact_interpolation or not _certifies(result)
        try:
            disagree += not compare_with_oracle(result).agrees
        except ef.EquifitError:
            skipped += 1
    return count, raised, uncertified, skipped, disagree


def run(src=ROOT / "src", seeds=GRID_SEEDS, blocks=GRID_BLOCKS, count=None):
    """Print one line per family; return the counts named as in LIMITS.
    ``count`` takes the first instances of each drawn family (all of them
    by default)."""
    workloads = _load(src)
    fits, raised, above, negative = grid_smooth(workloads, seeds, blocks)
    print(
        f"grid_smooth: {fits} fits, {raised} raised, {above} with max|r| > 1.01 d, "
        f"{negative} with d < 0"
    )
    counts = {
        "grid_smooth raised": raised,
        "grid_smooth above d": above,
        "grid_smooth negative d": negative,
    }
    for c in SHIFTS:
        found = shift(c, count or SHIFT_INSTANCES)
        fits, raised, low_rank, uncertified, worse, negative = found
        print(
            f"shift c={c:g}: {fits} fits, {raised} raised, {low_rank} low_rank, "
            f"{uncertified} uncertified, {worse} worse than the reference, "
            f"{negative} with d < 0"
        )
        names = ("raised", "low_rank", "uncertified", "worse", "negative d")
        counts.update(zip([f"shift c={c:g} {name}" for name in names], found[1:]))
    found = large_y(count or LARGE_Y_INSTANCES)
    fits, raised, low_rank, exact, uncertified = found
    print(
        f"large |y|: {fits} fits, {raised} raised, {low_rank} low_rank, "
        f"{exact} exact, {uncertified} uncertified"
    )
    names = ("raised", "low_rank", "exact", "uncertified")
    counts.update(zip([f"large |y| {name}" for name in names], found[1:]))
    found = offset(count or OFFSET_INSTANCES)
    fits, raised, skipped, disagree = found
    print(
        f"offset: {fits} fits, {raised} raised, {skipped} skipped by the oracle, "
        f"{disagree} where the oracle disagrees"
    )
    names = ("raised", "skipped", "disagree")
    counts.update(zip([f"offset {name}" for name in names], found[1:]))
    found = near_tie(count or NEAR_TIE_INSTANCES)
    fits, raised, skipped, below = found
    print(
        f"near-tie: {fits} fits, {raised} raised, {skipped} skipped by the oracle, "
        f"{below} where the oracle's d is below the fit's"
    )
    names = ("raised", "skipped", "below")
    counts.update(zip([f"near-tie {name}" for name in names], found[1:]))
    found = tiny_scale(count or TINY_SCALE_INSTANCES)
    fits, raised, exact, uncertified, skipped, disagree = found
    print(
        f"tiny-scale: {fits} fits, {raised} raised, {exact} exact, "
        f"{uncertified} uncertified, {skipped} skipped by the oracle, "
        f"{disagree} where the oracle disagrees"
    )
    names = ("raised", "exact", "uncertified", "skipped", "disagree")
    counts.update(zip([f"tiny-scale {name}" for name in names], found[1:]))
    found = dependent(count or DEPENDENT_INSTANCES)
    fits, raised, uncertified, skipped, disagree = found
    print(
        f"dependent lists: {fits} fits, {raised} raised, {uncertified} "
        f"uncertified, {skipped} skipped by the oracle, {disagree} where the "
        f"oracle disagrees"
    )
    names = ("raised", "uncertified", "skipped", "disagree")
    counts.update(zip([f"dependent lists {name}" for name in names], found[1:]))
    return counts


if __name__ == "__main__":
    counts = run(*sys.argv[1:2])
    over = [name for name, limit in LIMITS.items() if counts[name] > limit]
    for name in over:
        print(f"{name}: {counts[name]} above the limit {LIMITS[name]}")
    sys.exit(1 if over else 0)
