#!/usr/bin/env python3
"""Fit a line to dense samples of x^2 and inspect the certificate.

The best uniform line through x^2 on [0, 1] is x - 1/8 with maximum error
1/8, touching at 0, 1/2, and 1 with alternating signs.  Writes plot-ready
curve samples next to this script.
"""

import pathlib

import numpy as np

from equifit import (
    ProblemInstance,
    alternation_pattern,
    design_matrix,
    extract_certificate,
    fit,
    parse_basis_spec,
    verify_identities,
)


def run(n=1001, out_path=None):
    x = np.linspace(0.0, 1.0, n)
    basis = parse_basis_spec("1, x", 1)
    instance = ProblemInstance(points=x.reshape(-1, 1), values=x**2, basis=basis)
    result = fit(instance)

    print(f"coefficients: {result.coefficients}")
    print(f"discrepancy:  {result.discrepancy:.12f}  (exact value 0.125)")

    cert = extract_certificate(result.lp_solution, instance)
    report = verify_identities(cert, result, instance)
    print(f"duality gap:  {report.strong_duality_gap:.3e}")
    print(f"active count: {report.active_point_count} (need >= {instance.rank + 1})")

    pattern = alternation_pattern(result, instance)
    signs = "".join("+" if s > 0 else "-" for s in pattern.signs)
    print(f"touch signs:  {signs} (equioscillates: {pattern.equioscillates})")

    if out_path is None:
        out_path = pathlib.Path(__file__).with_name("parabola_curve.csv")
    grid = np.linspace(0.0, 1.0, 201)
    fitted = design_matrix(basis, grid.reshape(-1, 1)) @ result.coefficients
    with open(out_path, "w") as handle:
        for xi, vi in zip(grid, fitted):
            handle.write(f"{xi!r},{vi!r}\n")
    print(f"curve samples written to {out_path}")


if __name__ == "__main__":
    run()
