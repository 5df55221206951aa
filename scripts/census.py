#!/usr/bin/env python3
"""Count the fits that fail on seven robustness families, and exit 1 when
a count is above its limit.

Two tables drive the census.  ``FAMILIES`` holds one row per family: its
label, its fits, and the checks it takes.  ``CHECKS`` holds one entry per
count: the phrase it prints after, and its test on a returned fit.  Every
family counts the fits that raise, and of the fits it returns those that
fail each check of its row; its count ``name`` is gated by
``LIMITS[f"{label} {name}"]``.  A new family is one row, a new count one
entry.

The families:

* ``grid_smooth``: the benchmark's noiseless sin, exp and Runge fits
  (``perfbench/workloads.py``, loaded read-only), seeds 1-10, blocks 0-11:
  1080 certified fits.
* ``shift c=100`` and ``shift c=1000``: 300 instances drawn from
  ``default_rng(5)``, in this order: n = integers(10, 40), the monomials
  of degree integers(1, 4), u = uniform(-0.5, 0.5, n) and
  y = normal(0, 1, n).  Each is fitted at x = u + c, for c = 100 and
  c = 1000, and, as the reference, at x = u; a pair whose reference fit
  raises counts as raised.
* ``large |y|``: 400 instances drawn from ``default_rng(3)``, in this
  order: n = integers(8, 40), m = integers(2, 6), x = uniform(-1, 1, n),
  c = normal(0, 1, m) and y = 1e9 * sum_j c_j x^j + normal(0, 1, n), the
  sum by ``np.polynomial.polynomial.polyval`` (another order of summation
  rounds y otherwise and moves the counts by a few), with the monomials
  1, x, ..., x^(m-1).
* ``offset``: 400 instances drawn from ``default_rng(7)``, in this order:
  n = integers(8, 16), m = integers(1, 5), x = uniform(0, 10, n),
  offset = 10.0 ** int(choice([6, 9, 12])) and y = offset +
  normal(0, 5, n), with the monomials 1, x, ..., x^(m-1).
* ``near-tie``: 400 instances drawn from ``default_rng(11)``, in this
  order: n = integers(4, 16), x = uniform(0, 1, n), y = normal(0, 1, n);
  then the second-largest y is set to the largest minus
  10.0 ** uniform(-12, -9.5), and the basis is the constant.
* ``tiny-scale``: 400 instances drawn from ``default_rng(13)``, in this
  order: n = integers(6, 16), m = integers(1, 5), x = uniform(0, 1, n),
  k = integers(1000, 1061) and y = ldexp(normal(0, 1, n), -k), with the
  monomials 1, x, ..., x^(m-1): values from 2^-1000 down into the
  subnormals.
* ``dependent lists``: 400 instances drawn from ``default_rng(17)``, in
  this order: n = integers(6, 16), x = uniform(-1, 1, n), line =
  uniform(-1, 1, 2) and y = normal(0, 1, n); instance k takes list k % 4
  of ``DEPENDENT_LISTS``, whose functions are dependent on the data: the
  1-D lists at x, the 2-D ones at the collinear points (x, line[0] +
  line[1] x).

The checks on a returned fit; max |r| is the largest weighted residual of
its coefficients in data units:

* ``above d``: max |r| is more than 1% above the reported d; a fit flagged
  as an exact interpolation (d within rounding of 0) has no relative gap
  to judge, and is not counted.
* ``low_rank``, ``exact``: the fit is flagged ``low_rank``, or as an
  exact interpolation.
* ``uncertified``: the fit is flagged exact, so it has no certificate, or
  its certificate fails (the identities or the active-point count, on the
  span the rank rule keeps).
* ``worse``: max |r| is worse than the reference fit's d by more than
  1e-6 relative.
* ``negative d``: the reported d is below zero.
* ``skipped``, ``disagree``: the brute-force oracle raises, or it
  disagrees with the fit (``compare_with_oracle``).
* ``below``: the oracle's lifted d is below the fit's by more than the
  fit's rounding unit (``FitResult.band``): a candidate that misses its
  own d by more than rounding.

Prints one line per family and exits 1 when a count exceeds ``LIMITS``:

    PYTHONPATH=src python scripts/census.py
"""

import functools
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


class Fit:
    """One fit of a family: its result (None when the fit raised) and the
    reference fit's d where the family has one.  Its methods other than
    ``worst`` and ``oracle`` are the tests of ``CHECKS`` that take more than
    a line; the module docstring says what each counts.  The oracle's
    comparison is made at most once per fit."""

    def __init__(self, result, reference=None):
        self.result, self.reference = result, reference

    def worst(self):
        """max |r| of the returned coefficients."""
        from equifit import objective_value

        return objective_value(self.result.instance, self.result.coefficients)

    @functools.cached_property
    def oracle(self):
        """``compare_with_oracle`` of the fit, or None when the oracle
        raises."""
        import equifit as ef
        from equifit.oracle import compare_with_oracle

        try:
            return compare_with_oracle(self.result)
        except ef.EquifitError:
            return None

    def above_d(self):
        result = self.result
        return not result.exact_interpolation and self.worst() > 1.01 * result.discrepancy

    def uncertified(self):
        import equifit as ef

        if self.result.exact_interpolation:
            return True
        cert = ef.extract_certificate(self.result.lp_solution, self.result.instance)
        report = ef.verify_identities(cert, self.result, self.result.instance)
        return not (report.identities_ok and report.active_count_ok)

    def worse(self):
        return self.worst() > self.reference * (1.0 + 1e-6)

    def disagrees(self):
        return self.oracle is not None and not self.oracle.agrees

    def below(self):
        if self.oracle is None:
            return False
        fit_d = max(self.result.lp_solution.objective_value, 0.0)
        return fit_d - self.oracle.oracle.lifted_discrepancy > self.result.band


# name: (the phrase its count prints before, its test on a returned fit;
# the module docstring says what each test counts).  Every family counts
# "raised", the fits that raise, in run() itself.
CHECKS = {
    "raised": ("raised", None),
    "above d": ("with max|r| > 1.01 d", Fit.above_d),
    "low_rank": ("low_rank", lambda fit: fit.result.low_rank),
    "exact": ("exact", lambda fit: fit.result.exact_interpolation),
    "uncertified": ("uncertified", Fit.uncertified),
    "worse": ("worse than the reference", Fit.worse),
    "negative d": ("with d < 0", lambda fit: fit.result.discrepancy < 0),
    "skipped": ("skipped by the oracle", lambda fit: fit.oracle is None),
    "disagree": ("where the oracle disagrees", Fit.disagrees),
    "below": ("where the oracle's d is below the fit's", Fit.below),
}


def _fit(points, y, basis):
    """``fit`` of a drawn instance, or None when it raises."""
    import equifit as ef

    points = np.reshape(points, (len(y), -1))
    try:
        return ef.fit(ef.ProblemInstance(points=points, values=y, basis=basis))
    except ef.EquifitError:
        return None


def grid_smooth(workloads, seeds, blocks, count):
    """The benchmark's grid_smooth fits of the seeds and blocks."""
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            workload = workloads.WORKLOADS["grid_smooth"](seed, workdir)
            for index in range(blocks):
                for inp in workload.block(index):
                    out, exc = workload.execute(inp)
                    yield Fit(None if exc is not None else out[0])


def shifted(c):
    """The shift family's fits at x = u + c, each with the d of its
    reference fit at x = u; a pair whose reference fit raises counts as
    raised."""

    def fits(workloads, seeds, blocks, count):
        for u, y, basis in shift_instances(count) if count else shift_instances():
            reference = _fit(u, y, basis)
            if reference is None:
                yield Fit(None)
            else:
                yield Fit(_fit(u + c, y, basis), reference.discrepancy)

    return fits


def drawn(instances):
    """The fits of a drawn family's first ``count`` instances (all of them
    by default)."""

    def fits(workloads, seeds, blocks, count):
        for points, y, basis in instances(count) if count else instances():
            yield Fit(_fit(points, y, basis))

    return fits


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


# label: (its fits, the checks it takes besides "raised").  Each fits
# source takes run()'s workloads module, seeds, blocks and count.
FAMILIES = {
    "grid_smooth": (grid_smooth, ("above d", "negative d")),
    **{
        f"shift c={c:g}": (shifted(c), ("low_rank", "uncertified", "worse", "negative d"))
        for c in SHIFTS
    },
    "large |y|": (drawn(large_y_instances), ("low_rank", "exact", "uncertified")),
    "offset": (drawn(offset_instances), ("skipped", "disagree")),
    "near-tie": (drawn(near_tie_instances), ("skipped", "below")),
    "tiny-scale": (
        drawn(tiny_scale_instances), ("exact", "uncertified", "skipped", "disagree")
    ),
    "dependent lists": (drawn(dependent_instances), ("uncertified", "skipped", "disagree")),
}


def run(src=ROOT / "src", seeds=GRID_SEEDS, blocks=GRID_BLOCKS, count=None):
    """Print one line per family; return the counts named as in LIMITS.
    ``count`` takes the first instances of each drawn family (all of them
    by default)."""
    workloads = _load(src)
    counts = {}
    for label, (fits, checks) in FAMILIES.items():
        found = dict.fromkeys(("raised",) + checks, 0)
        total = 0
        for fit in fits(workloads, seeds, blocks, count):
            total += 1
            if fit.result is None:
                found["raised"] += 1
                continue
            for name in checks:
                found[name] += bool(CHECKS[name][1](fit))
        line = ", ".join(f"{n} {CHECKS[name][0]}" for name, n in found.items())
        print(f"{label}: {total} fits, {line}")
        counts.update((f"{label} {name}", n) for name, n in found.items())
    return counts


def main(args=()):
    """Run the census on SRC (the first argument, default: this checkout's
    src); print each count above its limit, and return 1 if there is one."""
    counts = run(*args[:1])
    over = [name for name, limit in LIMITS.items() if counts[name] > limit]
    for name in over:
        print(f"{name}: {counts[name]} above the limit {LIMITS[name]}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
