"""The fit LP's solver: the exchange.

``exchange`` solves the fit LP, min h subject to |y - U alpha| <= h, as a
revised simplex on its dual, whose r + 1 equality rows make a basis a
reference of r + 1 signed points (Stiefel's exchange).  One step costs a
residual pass, O(n * r), and two (r + 1)-square solves per exchange, the
final weights solved once at the stop; memory beyond the design is
O(n + r^2).  ``fit`` calls it; its docstring states the rules.
Its solution is its final reference: the r + 1 points, their signs and
their weights, the dual optimum that the certificate reads; and the
rounding unit it stopped within, with its last pricing pass, which fit,
the certificate and the oracle read in place of recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure
from .tolerances import RANK_TOL, WEIGHT_UNIT


@dataclass
class LpSolution:
    """The exchange's optimum and the reference it ends on.

    ``primal`` holds the bound h, then the coefficients alpha of the
    design's columns; ``objective_value`` is h.  ``reference`` holds the
    indices of the r + 1 reference points, ``signs`` their sigma, +1 where
    the value lies above the fit (a residual at +h) and -1 where it lies
    below, and ``weights`` their dual multipliers w >= 0, which sum to one;
    ``dual_objective`` is sum_i w_i sigma_i y_i.  With n <= r the three are
    empty.  ``residuals`` are the last pricing pass, y - U alpha at the
    returned alpha, not LP slacks; ``band`` is the unit the exchange
    stopped within, ``tolerance(alpha)`` at that alpha, the fit's rounding
    unit.  ``iterations`` counts the exchanges.
    """

    primal: np.ndarray
    objective_value: float
    reference: np.ndarray
    signs: np.ndarray
    weights: np.ndarray
    dual_objective: float
    residuals: np.ndarray
    band: float
    iterations: int = 0


def _independent_rows(design: np.ndarray, candidates: np.ndarray):
    """Pivoted Gram-Schmidt over the rows ``candidates`` of ``design``: r
    rows, each the largest part off the span of those before it, or None
    when some part is at most ``RANK_TOL`` (the rows of U_r have at most
    unit length)."""
    rest = design[candidates]
    picked = []
    for _ in range(design.shape[1]):
        norms = np.einsum("ij,ij->i", rest, rest)
        k = int(np.argmax(norms))
        if not norms[k] > RANK_TOL**2:
            return None
        q = rest[k] / np.sqrt(norms[k])
        rest -= np.outer(rest @ q, q)
        picked.append(int(candidates[k]))
    return picked


def _start(design: np.ndarray, values: np.ndarray):
    """A first reference of r + 1 points and its signs.

    r independent rows of a strided sample of at most 64 (r + 1) rows, or
    of every row when the sample lacks a direction; then the point where
    their interpolant misses most.  The signs are those of the null vector
    lam of U_S^T, from one solve against the picked rows P, lam =
    [-P^-T u; 1] with u the added point's row, oriented so that the
    levelled h = lam . y_S / ||lam||_1 is not negative: the weights
    |lam| / ||lam||_1 then solve the reference system, so the reference
    is a feasible basis of the dual.
    """
    n, r = design.shape
    rows = np.arange(0, n, -(-n // (64 * (r + 1))))
    picked = _independent_rows(design, rows)
    if picked is None:
        picked = _independent_rows(design, np.arange(n))
    miss = np.abs(values - design @ np.linalg.solve(design[picked], values[picked]))
    miss[picked] = -1.0
    reference = np.array(picked + [int(np.argmax(miss))])
    lam = np.append(np.linalg.solve(design[picked].T, -design[reference[-1]]), 1.0)
    sigma = np.where(lam < 0, -1.0, 1.0)
    if lam @ values[reference] < 0:
        sigma = -sigma
    return reference, sigma


@np.errstate(all="ignore")
def exchange(design: np.ndarray, values: np.ndarray, tolerance, budget=None):
    """Solve the fit LP, min h subject to |values - design . alpha| <= h, by
    the exchange: a revised simplex on its dual.

    The dual has r + 1 equality rows, sum_i w_i sigma_i u_i = 0 and
    sum_i w_i = 1 with w >= 0, so a basis is a reference S of r + 1 points
    with signs sigma, and its prices are the levelled solution of
    [sigma * U_S | 1] [alpha; h] = sigma * y_S, whose residuals are
    sigma * h on S.  Each step prices every point by one residual pass,
    enters the point j of worst |r_j| and leaves by the ratio test on the
    weights w = B^-1 e_(r+1) against B^-1 [s_j u_j; 1], s_j the sign of
    r_j and B = [sigma * U_S | 1]^T, both from one solve of B against the
    two right-hand sides: two solves per exchange, the final weights
    solved once at the stop.  The weights sum to one, so the ratio test
    reads their own rounding unit, u = ``WEIGHT_UNIT``, 64 eps: a
    direction entry above u * max |direction| is eligible, and the
    lowest-index point among the ratios within u of the least leaves.
    Every system is solved anew from the data, in one (r + 1)-square array
    per fit whose first r columns each step refills.  After an exchange
    that does not raise h, the next enters the lowest-index point that
    improves, until h rises: a cycle is a run of exchanges that do not
    raise h, each after its first a step of Bland's rule, which does not
    cycle.  The exchange stops when max |r| - h <= tolerance(alpha), the
    fit's rounding unit.  With n <= r the orthonormal design is square,
    alpha = design^T values and h = 0.

    Returns the ``LpSolution``: primal (h, alpha), and the final reference
    S, its signs sigma and its weights w, which solve the dual;
    ``dual_objective`` is sum w_i sigma_i y_i, ``residuals`` the last
    pricing pass, values - design . alpha at the returned alpha (not LP
    slacks), ``band`` the stop's unit tolerance(alpha), and ``iterations``
    counts exchanges.  A weight that rounds below zero by at most u is set
    to zero.  Raises NumericFailure past ``budget`` exchanges (50 (n + r + 1)
    by default), on a weight further below zero, and when the gap
    max |r| - h - tolerance(alpha) is not finite, which is when a residual,
    h or the unit is not; LinAlgError when the reference system is
    singular, which the ratio test rules out in exact arithmetic.
    """
    n, r = design.shape
    if n <= r:
        alpha = design.T @ values
        empty = np.zeros(0)
        return LpSolution(
            primal=np.append(0.0, alpha),
            objective_value=0.0,
            reference=np.zeros(0, dtype=int),
            signs=empty,
            weights=empty,
            dual_objective=0.0,
            residuals=values - design @ alpha,
            band=float(tolerance(alpha)),
        )
    if budget is None:
        budget = 50 * (n + r + 1)
    reference, sigma = _start(design, values)
    system = np.ones((r + 1, r + 1))
    unit = np.zeros(r + 1)
    unit[r] = 1.0
    steps = 0
    best = -np.inf
    while True:
        system[:, :r] = sigma[:, None] * design[reference]
        levelled = np.linalg.solve(system, sigma * values[reference])
        alpha, h = levelled[:r], levelled[r]
        residuals = values - design @ alpha
        size = np.abs(residuals)
        slack = float(tolerance(alpha))
        # Not finite when a residual, h or the unit is not; and as
        # fl(|r_i| - h) rises with |r_i|, gap > 0 when some |r_i| - h > slack.
        gap = np.max(size) - h - slack
        if not np.isfinite(gap):
            raise NumericFailure("the reference system is not finite", steps)
        if gap <= 0:
            break
        # After an exchange that does not raise h, Bland's rule enters.
        enter = int(np.argmax(size) if h > best else np.argmax(size - h > slack))
        best = max(best, h)
        steps += 1
        if steps > budget:
            raise NumericFailure(
                f"the exchange exceeded its budget of {budget} exchanges", steps
            )
        side = np.sign(residuals[enter])
        both = np.column_stack((unit, np.append(side * design[enter], 1.0)))
        weights, direction = np.linalg.solve(system.T, both).T
        # The entries sum to one, so some entry is eligible unless the
        # direction is not finite or rounding swamps it.
        rows = np.flatnonzero(direction > WEIGHT_UNIT * np.max(np.abs(direction)))
        ratios = np.maximum(weights[rows], 0.0) / direction[rows]
        ties = rows[ratios <= ratios.min(initial=np.inf) + WEIGHT_UNIT]
        if ties.size == 0:
            raise NumericFailure(
                "ratio test kept no reference point: the reference system "
                "is not finite or is singular in working precision",
                steps,
            )
        leave = int(ties[np.argmin(reference[ties])])
        reference[leave] = enter
        sigma[leave] = side

    weights = np.linalg.solve(system.T, unit)
    # Written so that a NaN weight fails.
    if not np.min(weights) >= -WEIGHT_UNIT:
        raise NumericFailure(f"negative dual multiplier {np.min(weights):.3e}", steps)
    weights = np.maximum(weights, 0.0)
    return LpSolution(
        primal=np.append(h, alpha),
        objective_value=float(h),
        reference=reference,
        signs=sigma,
        weights=weights,
        dual_objective=float(weights @ (sigma * values[reference])),
        residuals=residuals,
        band=slack,
        iterations=steps,
    )
