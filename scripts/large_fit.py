#!/usr/bin/env python3
"""Fit and certify one large instance, and report its time and memory.

The data are n evenly spaced points in [0, 1] with values sin(3x) plus
N(0, 0.01^2) noise from a seeded generator, fitted by the monomials
1, x, ..., x^(m-1), with n = 100 000 and m = 6 unless run() is given
others.  Prints the fit time, the pivot count and the
tracemalloc peak of a second, traced fit, and exits 1 unless the
certificate identities hold and the peak stays within 120 MB.

    PYTHONPATH=src python scripts/large_fit.py
"""

import sys
import time
import tracemalloc

import numpy as np

from equifit import ProblemInstance, extract_certificate, fit, verify_identities
from equifit.generators import monomial_basis


def run(n=100_000, m=6, max_peak_mb=120.0):
    x = np.linspace(0.0, 1.0, n)
    y = np.sin(3.0 * x) + np.random.default_rng(0).normal(0.0, 0.01, n)
    instance = ProblemInstance(points=x[:, None], values=y, basis=monomial_basis(m))

    start = time.perf_counter()
    result = fit(instance)
    seconds = time.perf_counter() - start
    report = verify_identities(
        extract_certificate(result.lp_solution, instance), result, instance
    )
    tracemalloc.start()
    try:
        fit(instance)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()

    print(f"n={n} m={m}: discrepancy {result.discrepancy:.12g}")
    print(f"fit {seconds:.3f} s, {result.lp_solution.iterations} pivots")
    print(f"tracemalloc peak {peak_mb:.1f} MB (limit {max_peak_mb:g} MB)")
    print(f"certificate identities: {'ok' if report.identities_ok else 'FAILED'}")
    return report.identities_ok and peak_mb <= max_peak_mb


if __name__ == "__main__":
    sys.exit(0 if run() else 1)
