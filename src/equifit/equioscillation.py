"""Alternation structure of one-dimensional fits.

For a polynomial basis of degree t, an optimal fit touches the discrepancy
band at t + 2 points with strictly alternating residual signs.  This module
analyzes that pattern, constructs the one-sided counterexample showing the
pattern is a polynomial phenomenon (flipping a design row and its value
keeps the optimum but puts the touch point on one side), and provides the
interpolation-based perturbation argument as a numerical check: bumping a
candidate at one of two same-sided touch points moves the neighbour by an
explicit product factor, and a second bump pulls every touch point strictly
inside the band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCase,
    DimensionError,
    DuplicateNodeError,
    PreconditionError,
)
from .fitting import FitResult, ProblemInstance, fit
from .tolerances import NODE_GAP_TOL, PRODUCT_AGREE_TOL


@dataclass
class ReferenceSet:
    """Active points of a 1-D fit, sorted by coordinate, with residual signs.

    ``indices`` point into the instance; ``signs`` are +-1 per entry (sign
    of the scaled residual); ``discrepancy`` is the band width.  Instances
    may also be built by hand to probe hypothetical configurations.
    """

    indices: tuple[int, ...]
    signs: tuple[int, ...]
    discrepancy: float
    equioscillates: bool | None = None

    def __len__(self) -> int:
        return len(self.indices)


@dataclass
class LagrangePolynomial:
    """Polynomial through distinct nodes, evaluated in barycentric form."""

    nodes: np.ndarray
    node_values: np.ndarray
    weights: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.nodes) - 1

    def __call__(self, x):
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        diff = xv[:, None] - self.nodes[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = self.weights[None, :] / diff
            out = (terms @ self.node_values) / np.sum(terms, axis=1)
        hit_row, hit_col = np.nonzero(diff == 0.0)
        out[hit_row] = self.node_values[hit_col]
        return float(out[0]) if np.ndim(x) == 0 else out


def lagrange_interpolate(nodes, values) -> LagrangePolynomial:
    """Interpolant through (nodes, values); nodes must be pairwise distinct.

    Distinctness is judged against the node span: a gap at or below
    1e-12 * span raises DuplicateNodeError.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if nodes.ndim != 1 or nodes.shape != values.shape:
        raise DimensionError("nodes and values must be one-dimensional and equal length")
    if len(nodes) > 1:
        span = float(np.max(nodes) - np.min(nodes))
        order = np.sort(nodes)
        min_gap = float(np.min(np.diff(order)))
        if min_gap <= NODE_GAP_TOL * span:
            raise DuplicateNodeError(
                f"nodes are not distinct: minimum gap {min_gap!r} over span {span!r}"
            )
    weights = np.ones(len(nodes))
    for k in range(len(nodes)):
        others = np.delete(nodes, k)
        weights[k] = 1.0 / np.prod(nodes[k] - others)
    return LagrangePolynomial(nodes=nodes, node_values=values, weights=weights)


def _sorted_active(fit_result: FitResult, instance: ProblemInstance):
    if instance.dimension != 1:
        raise DimensionError(
            f"alternation analysis is one-dimensional; points have dimension "
            f"{instance.dimension}"
        )
    if fit_result.exact_interpolation or fit_result.low_rank:
        raise DegenerateCase("alternation analysis needs a non-degenerate fit")
    active = list(fit_result.active_points)
    xs = instance.points[active, 0]
    order = np.argsort(xs)
    xs = xs[order]
    if len(xs) > 1 and np.min(np.diff(xs)) <= 0.0:
        raise PreconditionError("active points share a coordinate")
    return [active[k] for k in order]


def alternation_pattern(
    fit_result: FitResult, instance: ProblemInstance
) -> ReferenceSet:
    """Active points sorted by coordinate with their residual signs.

    ``equioscillates`` is true when the signs strictly alternate and at
    least m + 1 points are active (degree t = m - 1 needs t + 2 touches).
    """
    indices = _sorted_active(fit_result, instance)
    signs = tuple(
        1 if fit_result.scaled_residuals[i] >= 0 else -1 for i in indices
    )
    alternates = all(a == -b for a, b in zip(signs, signs[1:]))
    return ReferenceSet(
        indices=tuple(indices),
        signs=signs,
        discrepancy=fit_result.discrepancy,
        equioscillates=bool(alternates and len(indices) >= instance.m + 1),
    )


def one_sided_construction(instance: ProblemInstance, j: int) -> ProblemInstance:
    """Flip the design row and value of an active point.

    The two LP rows of point j swap places, so the modified instance is the
    same program: the optimal coefficients and discrepancy carry over, while
    the residual at j changes side.  Applied at every touch point of one
    sign, this forces a data set whose best fit touches the band on a single
    side, so equioscillation is not automatic for general bases.

    The canonical use flips an overshoot point (scaled residual -d); the
    construction is symmetric, so an undershoot point is accepted too.
    Raises PreconditionError when j is not active (or the instance is
    weighted) and DegenerateCase for degenerate fits.
    """
    if instance.weights is not None:
        raise PreconditionError(
            "the one-sided construction is defined for unweighted instances"
        )
    result = fit(instance)
    if result.exact_interpolation or result.low_rank:
        raise DegenerateCase("one-sided construction needs a non-degenerate fit")
    if j not in result.active_points:
        raise PreconditionError(
            f"point {j} does not touch the discrepancy band "
            f"(|residual| = {abs(result.residuals[j])!r}, d = {result.discrepancy!r})"
        )
    design = instance.design().copy()
    design[j] = -design[j]
    values = instance.values.copy()
    values[j] = -values[j]
    return ProblemInstance(
        points=instance.points.copy(),
        values=values,
        basis=instance.basis,
        design_override=design,
    )


def _reference_geometry(reference: ReferenceSet, instance: ProblemInstance, j: int):
    idx = list(reference.indices)
    if instance.dimension != 1:
        raise DimensionError("perturbation analysis is one-dimensional")
    if len(idx) != instance.m + 1:
        raise PreconditionError(
            f"reference must carry m + 1 = {instance.m + 1} points, got {len(idx)}"
        )
    z = instance.points[idx, 0]
    if np.any(np.diff(z) <= 0):
        raise PreconditionError("reference points must be sorted by coordinate")
    q = instance.values[idx]
    s = np.asarray(reference.signs, dtype=float)
    if s.shape != z.shape or not np.all(np.abs(s) == 1.0):
        raise PreconditionError("reference signs must be +-1, one per point")
    if not 0 <= j < len(z) - 1:
        raise PreconditionError(f"pair position {j} out of range")
    if reference.signs[j] != reference.signs[j + 1]:
        raise PreconditionError(
            "the pair must sit on the same side of the candidate; alternating "
            "signs are the expected pattern, there is nothing to refute"
        )
    # The reference pins the candidate's values at its nodes: the data sits
    # at signed distance d from the candidate.
    f_vals = q - reference.discrepancy * s
    return z, q, s, f_vals


@dataclass
class PerturbationStep:
    """Outcome of bumping the candidate at one node of a same-sided pair."""

    new_value: float  # perturbed interpolant at the neighbour node
    difference: float  # change against the candidate at the neighbour node
    product_formula_value: float
    agrees: bool


def perturbation_step(
    reference: ReferenceSet,
    instance: ProblemInstance,
    j: int,
    epsilon: float,
) -> PerturbationStep:
    """Bump the candidate by epsilon at node j and re-interpolate.

    Positions j and j+1 of the reference must carry equal signs (the
    configuration under refutation).  The interpolant through the remaining
    nodes and the bumped value moves at node j+1 by

        epsilon * prod over i != j, j+1 of (z[j+1] - z[i]) / (z[j] - z[i]),

    which is positive for an adjacent pair: no node lies between z[j] and
    z[j+1], so every factor is positive.  Returns the directly computed
    difference, the closed form, and whether they agree to 1e-8 relative.
    """
    z, _, s, f_vals = _reference_geometry(reference, instance, j)
    if not 0.0 <= epsilon <= 0.1 * reference.discrepancy:
        raise PreconditionError(
            f"epsilon must lie in [0, 0.1 * discrepancy], got {epsilon!r}"
        )

    keep = [i for i in range(len(z)) if i != j + 1]
    bumped = f_vals[keep].copy()
    bumped[keep.index(j)] += epsilon
    perturbed = lagrange_interpolate(z[keep], bumped)

    new_value = float(perturbed(z[j + 1]))
    difference = new_value - float(f_vals[j + 1])

    others = [i for i in range(len(z)) if i not in (j, j + 1)]
    product = float(np.prod((z[j + 1] - z[others]) / (z[j] - z[others])))
    formula = epsilon * product

    denom = max(abs(difference), abs(formula))
    agrees = denom == 0.0 or abs(difference - formula) <= PRODUCT_AGREE_TOL * denom
    return PerturbationStep(
        new_value=new_value,
        difference=difference,
        product_formula_value=formula,
        agrees=bool(agrees),
    )


@dataclass
class ImprovementCheck:
    """Outcome of the two-bump argument: with the chosen delta, does every
    reference point end strictly inside the discrepancy band?"""

    delta: float
    max_reference_discrepancy: float
    reduced: bool


def strict_improvement_check(
    reference: ReferenceSet,
    instance: ProblemInstance,
    j: int,
    epsilon: float,
) -> ImprovementCheck:
    """Second half of the perturbation argument.

    First bump the candidate toward the data at node j (skipping node j+1)
    and interpolate; then shift every kept node value by a small step toward
    its data point and interpolate again.  For a small enough step the
    second interpolant beats the candidate at every reference point,
    proving the same-sided configuration was not optimal.

    The step is chosen provably safe: at most min(epsilon, gap)/4 (gap
    being the candidate's slack at off-reference points), shrunk further
    when the interpolation transfer onto node j+1 would otherwise eat its
    freshly won margin.  PreconditionError when no positive step is left.
    """
    z, q, s, f_vals = _reference_geometry(reference, instance, j)
    d = reference.discrepancy
    if not 0.0 < epsilon <= 0.1 * d:
        raise PreconditionError(
            f"epsilon must lie in (0, 0.1 * discrepancy], got {epsilon!r}"
        )

    keep = [i for i in range(len(z)) if i != j + 1]
    # Bump toward the data: the pair's sign says which side the data is on.
    toward = f_vals[keep].copy()
    toward[keep.index(j)] += float(s[j]) * epsilon
    f_prime = lagrange_interpolate(z[keep], toward)

    # Slack of the candidate off the reference set bounds how far the second
    # bump may go.  The candidate extends off its nodes as the degree-t
    # interpolant of its values.
    candidate = lagrange_interpolate(z[keep], f_vals[keep])
    off = [i for i in range(instance.n) if i not in reference.indices]
    if off:
        off_res = np.abs(instance.values[off] - candidate(instance.points[off, 0]))
        gap = d - float(np.max(off_res))
        if gap <= 0:
            raise PreconditionError(
                "the candidate violates its discrepancy off the reference set"
            )
    else:
        gap = d

    f_prime_at = f_prime(z)
    margins = q - f_prime_at
    delta = 0.25 * min(epsilon, gap)
    # Transfer of the node bumps onto the uninterpolated node j+1.
    basis_rows = []
    for pos in range(len(keep)):
        unit = np.zeros(len(keep))
        unit[pos] = 1.0
        basis_rows.append(lagrange_interpolate(z[keep], unit)(z[j + 1]))
    transfer = float(np.dot(np.sign(margins[keep]), np.asarray(basis_rows)))
    own_margin = d - abs(margins[j + 1])
    if np.sign(margins[j + 1]) * transfer < 0 and abs(transfer) > 0:
        delta = min(delta, 0.5 * own_margin / abs(transfer))
    if delta <= 0:
        raise PreconditionError(f"delta must be positive, got {delta!r}")

    second = f_prime_at[keep] + delta * np.sign(margins[keep])
    f_second = lagrange_interpolate(z[keep], second)
    discrepancies = np.abs(q - f_second(z))
    worst = float(np.max(discrepancies))
    return ImprovementCheck(
        delta=float(delta),
        max_reference_discrepancy=worst,
        reduced=bool(worst < d),
    )
