"""Brute-force reference solver for small instances.

At an optimum of the minimax fit there is a witness subset S of m+1 points
whose residuals all sit at the discrepancy d with definite signs s, so
that [G_S | s][alpha; d] = y_S.  This module tries every subset and every
sign pattern and keeps the best globally feasible candidate.  It exists to
check the LP path, not to compete with it.

The systems of one subset share G_S, so each subset is factored once: a
complete QR of the (m+1) x m block G_S gives the null vector lam of G_S^T
(the last column of Q) and the pseudo-inverse G_S^+ = R^-1 Q_1^T.  Every
sign pattern is then read off with matmuls (Stiefel's levelled reference):
d_s = lam^T y_S / lam^T s and alpha_s = G_S^+ (y_S - d_s s).  The cost is
C(n, m+1) small QRs plus O(C(n, m+1) * 2^(m+1) * n * m) multiply-adds for
the candidates' residuals at all n points.
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


def factor_witness_subsets(blocks: np.ndarray):
    """Factor a stack of witness blocks G_S, shape (k, m+1, m), once each.

    Returns ``(null_vectors, pseudo_inverses, full_rank)``: the unit vectors
    lam, shape (k, m+1), with G_S^T lam = 0; the pseudo-inverses
    G_S^+ = R^-1 Q_1^T, shape (k, m, m+1); and a mask of the blocks whose R
    has no zero on its diagonal (outside it the pseudo-inverse is not
    finite).  For any sign pattern s, [G_S | s][alpha; d] = y_S is singular
    exactly when the block is outside the mask or lam^T s = 0; otherwise
    d = lam^T y_S / lam^T s and alpha = G_S^+ (y_S - d s).
    """
    m = blocks.shape[2]
    q, r = np.linalg.qr(blocks, mode="complete")
    diagonal = np.diagonal(r, axis1=1, axis2=2)
    # Back-substitute R_1 X = Q_1^T one row at a time, all blocks at once:
    # a zero on a diagonal then spoils only its own block, where a batched
    # solve would raise for the whole stack.
    pseudo_inverses = np.swapaxes(q[:, :, :m], 1, 2).copy()
    with np.errstate(all="ignore"):
        for i in reversed(range(m)):
            pseudo_inverses[:, i] -= np.einsum(
                "kj,kjc->kc", r[:, i, i + 1 : m], pseudo_inverses[:, i + 1 :]
            )
            pseudo_inverses[:, i] /= diagonal[:, i, None]
    return q[:, :, m], pseudo_inverses, np.all(diagonal != 0.0, axis=1)


def brute_force_fit(instance: ProblemInstance) -> OracleResult:
    """Enumerate witness subsets and sign patterns; return the best feasible
    candidate.

    Requires n <= 15 and m <= 4 (raises TooLarge otherwise).  Weights are
    folded in by pre-scaling rows and values.  Raises NoCandidate when the
    design's rank is below m (its optimum need not have an (m+1)-point
    witness) or when no witness system yields a feasible candidate.
    """
    n, m = instance.n, instance.m
    if n > MAX_POINTS or m > MAX_BASIS:
        raise TooLarge(
            f"brute force accepts n <= {MAX_POINTS}, m <= {MAX_BASIS}; "
            f"got n={n}, m={m}"
        )
    if n < m + 1:
        raise NoCandidate(f"need at least m + 1 = {m + 1} points, got {n}")
    if instance.rank < m:
        raise NoCandidate(
            f"design has rank {instance.rank} < m = {m} (rank-deficient design)"
        )

    g, y = instance.scaled_design_and_values()
    subsets = np.array(list(itertools.combinations(range(n), m + 1)))
    signs = np.array(
        list(itertools.product((-1.0, 1.0), repeat=m + 1)), dtype=float
    )
    lam, pinv, full_rank = factor_witness_subsets(g[subsets])
    y_s = y[subsets]

    # One row per subset, one column per sign pattern.
    lam_signs = lam @ signs.T
    solvable = full_rank[:, None] & (lam_signs != 0.0)
    with np.errstate(all="ignore"):
        ds = np.sum(lam * y_s, axis=1)[:, None] / lam_signs
        # alphas[:, i, j] = G_S^+ (y_S - d s) for subset i and sign pattern
        # j, laid out so that one matrix product gives every residual.
        alphas = pinv @ y_s[:, :, None] - ds[:, None, :] * (pinv @ signs.T)
        alphas = np.ascontiguousarray(np.moveaxis(alphas, 1, 0))
        residuals = g @ alphas.reshape(m, -1)
        residuals -= y[:, None]
        max_abs = np.max(np.abs(residuals, out=residuals), axis=0).reshape(ds.shape)
    feasible = (
        solvable
        & np.isfinite(max_abs)
        & (ds >= -FEASIBILITY_SLACK)
        & (max_abs <= ds + FEASIBILITY_SLACK)
    )
    if not np.any(feasible):
        raise NoCandidate("no witness system yields a feasible candidate")

    # Candidates are ordered by (subset lexicographic, sign lexicographic),
    # so the first minimum is the canonical tie-break.
    best_subset, best_sign = np.unravel_index(
        int(np.argmin(np.where(feasible, ds, np.inf))), ds.shape
    )
    return OracleResult(
        coefficients=alphas[:, best_subset, best_sign].copy(),
        discrepancy=float(max(ds[best_subset, best_sign], 0.0)),
        witness_subset=tuple(int(i) for i in subsets[best_subset]),
        witness_signs=tuple(int(s) for s in signs[best_sign]),
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
