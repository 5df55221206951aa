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
from .tolerances import rounding_tol


@dataclass
class ReferenceSet:
    """Active points of a 1-D fit, sorted by coordinate, with residual signs.

    ``indices`` point into the instance; ``signs`` are +-1 per entry (sign
    of the lifted residual); ``discrepancy`` is the band width.  Instances
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

    Distinctness is judged in the nodes' rounding unit: a gap at or below
    ``rounding_tol(max |nodes|, 0, 0)``, 64 roundings of their magnitude,
    raises DuplicateNodeError.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if nodes.ndim != 1 or nodes.shape != values.shape:
        raise DimensionError("nodes and values must be one-dimensional and equal length")
    if len(nodes) > 1:
        min_gap = float(np.min(np.diff(np.sort(nodes))))
        unit = float(rounding_tol(np.max(np.abs(nodes)), 0.0, 0.0))
        if min_gap <= unit:
            raise DuplicateNodeError(
                f"nodes are not distinct: minimum gap {min_gap!r} within their "
                f"rounding unit {unit!r}"
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
    if fit_result.exact_interpolation:
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

    ``equioscillates`` is true when the signs, in that order, hold at least
    r + 1 runs, r the rank: some r + 1 of the touches alternate (degree
    t = r - 1 needs t + 2), and an extra touch beside one of its own sign
    does not spoil them.
    ``instance`` must be the fit's own, ``fit_result.instance``.
    """
    if instance is not fit_result.instance:
        raise PreconditionError("fit does not belong to this instance")
    indices = _sorted_active(fit_result, instance)
    signs = tuple(
        1 if fit_result.lifted_residuals[i] >= 0 else -1 for i in indices
    )
    runs = len(signs) and 1 + sum(a != b for a, b in zip(signs, signs[1:]))
    return ReferenceSet(
        indices=tuple(indices),
        signs=signs,
        discrepancy=fit_result.discrepancy,
        equioscillates=runs >= instance.rank + 1,
    )


def one_sided_construction(instance: ProblemInstance, j: int) -> ProblemInstance:
    """Flip the design row and value of an active point.

    The two LP rows of point j swap places, so the modified instance is the
    same program, whatever the weights: the optimal coefficients and
    discrepancy carry over, while the weighted residual at j changes side.
    Applied at every touch point of one sign, this forces a data set whose
    best fit touches the band on a single side, so equioscillation is not
    automatic for general bases.

    The canonical use flips an overshoot point (scaled residual -d); the
    construction is symmetric, so an undershoot point is accepted too.
    Raises PreconditionError when j is not active and DegenerateCase for
    an exact interpolation.
    """
    result = fit(instance)
    if result.exact_interpolation:
        raise DegenerateCase("one-sided construction needs a non-degenerate fit")
    if j not in result.active_points:
        raise PreconditionError(
            f"point {j} does not touch the discrepancy band (|weighted "
            f"residual| = {abs(result.scaled_residuals[j])!r}, "
            f"d = {result.discrepancy!r})"
        )
    flip = np.where(np.arange(instance.n) == j, -1.0, 1.0)
    return ProblemInstance.from_design(
        points=instance.points.copy(),
        values=flip * instance.values,
        basis=instance.basis,
        design=flip[:, None] * instance.design(),
        weights=instance.weights,
    )


def _reference_geometry(reference: ReferenceSet, instance: ProblemInstance, j: int):
    idx = list(reference.indices)
    if instance.dimension != 1:
        raise DimensionError("perturbation analysis is one-dimensional")
    if instance.weights is not None:
        raise PreconditionError(
            "the perturbation analysis is defined for unweighted instances"
        )
    if len(idx) != instance.rank + 1:
        raise PreconditionError(
            f"reference must carry rank + 1 = {instance.rank + 1} points, "
            f"got {len(idx)}"
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
    # at signed distance d from the candidate, unweighted.
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
    difference, the closed form, and whether they agree within the rounding
    unit of the three numbers compared, ``rounding_tol(|f[j+1]| + |formula|,
    1, l * b)``: the interpolant's value sum_k l_k b_k at z[j+1], with l_k
    from its barycentric weights and b the bumped values, the candidate's
    value there, and the closed form.
    The candidate sits at q - d * s, the band of unit weights, so a
    weighted instance raises PreconditionError.
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

    # The rounding of the interpolant's barycentric value sum_k l_k b_k at
    # z[j+1], and of the two numbers it is compared with.
    terms = perturbed.weights / (z[j + 1] - perturbed.nodes)
    unit = rounding_tol(
        abs(f_vals[j + 1]) + abs(formula), 1.0, terms / np.sum(terms) * bumped
    )
    agrees = abs(difference - formula) <= unit
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
    freshly won margin.  PreconditionError when no positive step is left,
    and, as for ``perturbation_step``, on a weighted instance.
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
    off = [i for i in range(instance.n) if i not in reference.indices]
    if off:
        candidate = lagrange_interpolate(z[keep], f_vals[keep])
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
    # Transfer of the node bumps onto the uninterpolated node j+1: the
    # interpolant of their signs, read there.
    transfer = float(lagrange_interpolate(z[keep], np.sign(margins[keep]))(z[j + 1]))
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
