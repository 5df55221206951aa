#!/usr/bin/env python3
"""Build, fit and certify one large instance, and report the time and
memory of each layer.

The data are n evenly spaced points in [0, 1] with values sin(3x) plus
N(0, 0.01^2) noise from a seeded generator, fitted by the monomials
1, x, ..., x^(m-1), with n = 100 000 and m = 6 unless given others, on
the command line or to run().  Prints the instance's build time, its
tracemalloc peak and the memory it retains; then the fit time and its
exchange count, and the tracemalloc peak of a second, traced fit.  Exits 1
unless the instance retains at most ``max_retained`` times (rank + 1) * n
doubles (U_r and the lifted values), the certificate identities hold,
the fit takes at most ``max_seconds`` and its peak stays within
``max_peak_doubles`` times n doubles: beyond the instance the exchange
holds a few n-vectors and O(rank^2) more.

    PYTHONPATH=src python scripts/large_fit.py
    PYTHONPATH=src python scripts/large_fit.py 1000000 6
"""

import sys
import time
import tracemalloc

import numpy as np

from equifit import ProblemInstance, extract_certificate, fit, verify_identities
from equifit.generators import monomial_basis


def run(n=100_000, m=6, max_peak_doubles=6.0, max_retained=1.1, max_seconds=1.0):
    x = np.linspace(0.0, 1.0, n)
    y = np.sin(3.0 * x) + np.random.default_rng(0).normal(0.0, 0.01, n)
    points, basis = x[:, None], monomial_basis(m)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        instance = ProblemInstance(points=points, values=y, basis=basis)
        build_seconds = time.perf_counter() - start
        retained, build_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    retained_limit = max_retained * (instance.rank + 1) * n * 8
    peak_limit = max_peak_doubles * n * 8

    start = time.perf_counter()
    result = fit(instance)
    seconds = time.perf_counter() - start
    report = verify_identities(
        extract_certificate(result.lp_solution, instance), result, instance
    )
    tracemalloc.start()
    try:
        fit(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    print(f"n={n} m={m}: discrepancy {result.discrepancy:.12g}")
    print(
        f"instance {build_seconds:.3f} s, tracemalloc peak {build_peak / 1e6:.1f} MB, "
        f"retains {retained / 1e6:.2f} MB (limit {retained_limit / 1e6:.2f} MB: "
        f"{max_retained:g} x (rank + 1) x n doubles)"
    )
    print(
        f"fit {seconds:.3f} s (limit {max_seconds:g} s), "
        f"{result.lp_solution.iterations} exchanges"
    )
    print(
        f"tracemalloc peak {peak / 1e6:.2f} MB, {peak / (8 * n):.2f} doubles per point "
        f"(limit {peak_limit / 1e6:.2f} MB: {max_peak_doubles:g} x n doubles)"
    )
    print(f"certificate identities: {'ok' if report.identities_ok else 'FAILED'}")
    return (
        retained <= retained_limit
        and report.identities_ok
        and seconds <= max_seconds
        and peak <= peak_limit
    )


if __name__ == "__main__":
    sys.exit(0 if run(*map(int, sys.argv[1:3])) else 1)
