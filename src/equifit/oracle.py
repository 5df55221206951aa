"""Brute-force reference solver for small instances.

At an optimum of the minimax fit there is a witness subset of m+1 points
whose residuals all sit at the discrepancy with definite signs.  This
module enumerates every subset of that size and every sign pattern, solves
the square system for (coefficients, discrepancy), and keeps the best
globally feasible candidate.  It exists to check the LP path, not to
compete with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NoCandidate, TooLarge
from .fitting import FitResult, ProblemInstance, objective_value

MAX_POINTS = 15
MAX_BASIS = 4

# Absolute slack for global feasibility of a candidate; square solves at
# this scale are accurate to machine precision.
FEASIBILITY_SLACK = 1e-9

# A fit agrees with the oracle when the discrepancies match; coefficients
# that differ are accepted if the oracle's achieve their discrepancy too
# (the optimum need not be unique).
AGREE_DISCREPANCY_TOL = 1e-8
AGREE_COEFFICIENT_TOL = 1e-7


@dataclass
class OracleResult:
    coefficients: np.ndarray
    discrepancy: float
    witness_subset: tuple[int, ...]
    witness_signs: tuple[int, ...]


@dataclass
class OracleComparison:
    """A fit checked against the brute-force optimum of its instance."""

    oracle: OracleResult
    discrepancy_gap: float
    coefficient_gap: float
    agrees: bool


def brute_force_fit(instance: ProblemInstance) -> OracleResult:
    """Enumerate witness subsets and sign patterns; return the best feasible
    candidate.

    Requires n <= 15 and m <= 4 (raises TooLarge otherwise).  Weights are
    folded in by pre-scaling rows and values.  Raises NoCandidate when every
    witness system is singular, which signals a rank-deficient design.
    """
    n, m = instance.n, instance.m
    if n > MAX_POINTS or m > MAX_BASIS:
        raise TooLarge(
            f"brute force accepts n <= {MAX_POINTS}, m <= {MAX_BASIS}; "
            f"got n={n}, m={m}"
        )
    if n < m + 1:
        raise NoCandidate(f"need at least m + 1 = {m + 1} points, got {n}")

    g, y = instance.scaled_design_and_values()
    subsets = list(itertools.combinations(range(n), m + 1))
    signs = np.array(
        list(itertools.product((-1.0, 1.0), repeat=m + 1)), dtype=float
    )
    n_subsets = len(subsets)
    n_signs = signs.shape[0]

    # One square system per (subset, sign pattern): unknowns are the m
    # coefficients and the discrepancy.
    systems = np.empty((n_subsets, n_signs, m + 1, m + 1))
    rhs = np.empty((n_subsets, n_signs, m + 1))
    for si, subset in enumerate(subsets):
        rows = g[list(subset)]
        systems[si, :, :, :m] = rows[None, :, :]
        systems[si, :, :, m] = signs
        rhs[si, :, :] = y[list(subset)][None, :]

    flat = systems.reshape(-1, m + 1, m + 1)
    flat_rhs = rhs.reshape(-1, m + 1)
    dets = np.linalg.det(flat)
    solvable = np.abs(dets) > 0.0
    if not np.any(solvable):
        raise NoCandidate("every witness system is singular (rank-deficient design)")

    solutions = np.full((flat.shape[0], m + 1), np.nan)
    solutions[solvable] = np.linalg.solve(
        flat[solvable], flat_rhs[solvable][..., None]
    )[..., 0]

    with np.errstate(all="ignore"):
        alphas = solutions[:, :m]
        ds = solutions[:, m]
        residual_matrix = y[None, :] - alphas @ g.T
        max_abs = np.max(np.abs(residual_matrix), axis=1)
    feasible = (
        solvable
        & np.isfinite(max_abs)
        & (ds >= -FEASIBILITY_SLACK)
        & (max_abs <= ds + FEASIBILITY_SLACK)
    )
    if not np.any(feasible):
        raise NoCandidate("no witness system yields a feasible candidate")

    # Systems are ordered by (subset lexicographic, sign lexicographic), so
    # the first minimum is the canonical tie-break.
    ds_masked = np.where(feasible, ds, np.inf)
    best = int(np.argmin(ds_masked))
    subset = subsets[best // n_signs]
    sign = signs[best % n_signs]
    return OracleResult(
        coefficients=alphas[best].copy(),
        discrepancy=float(max(ds[best], 0.0)),
        witness_subset=tuple(int(i) for i in subset),
        witness_signs=tuple(int(s) for s in sign),
    )


def compare_with_oracle(result: FitResult) -> OracleComparison:
    """Brute-force the fit's instance and compare the two optima; raises
    what ``brute_force_fit`` raises (TooLarge, NoCandidate)."""
    oracle = brute_force_fit(result.instance)
    discrepancy_gap = abs(result.discrepancy - oracle.discrepancy)
    coefficient_gap = float(np.max(np.abs(result.coefficients - oracle.coefficients)))
    agrees = discrepancy_gap <= AGREE_DISCREPANCY_TOL and (
        coefficient_gap <= AGREE_COEFFICIENT_TOL
        or objective_value(result.instance, oracle.coefficients)
        <= oracle.discrepancy + AGREE_DISCREPANCY_TOL
    )
    return OracleComparison(oracle, discrepancy_gap, coefficient_gap, bool(agrees))
