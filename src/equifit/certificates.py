"""Optimality certificates for minimax fits.

The fit LP has two rows per point: the overshoot row (combination above
the value) and the undershoot row.  Its dual optimum is the exchange's
final reference, ``FitResult.lp_solution``: r + 1 points S, r the rank,
their signs sigma, +1 for the undershoot row (the value above the fit) and
-1 for the overshoot row, and their weights w, the row multipliers that
are not zero.  They certify optimality:

* ``w >= 0`` and ``sum(w) = 1`` (the bound column of the LP);
* each direction of the span is orthogonal to the data under ``w sigma``:
  sum_S w_i sigma_i u_i cancels for each column of the lifted design, an
  orthonormal basis of the span;
* nonzero weights sit only on points of ``FitResult.active_points``, on
  the side of the residual's sign (complementary slackness);
* pairing ``w sigma`` with the residuals reproduces the discrepancy, and
  with the values the maximized dual functional sum_S w_i sigma_i y_i.

Note on orientation: the undershoot-minus-overshoot sum of ``w * value``,
sum_S w_i sigma_i y_i, equals the discrepancy; the reversed orientation
comes out at minus it.  ``verify_identities`` records this in its notes
rather than silently flipping a sign.

Every identity is judged on ``ProblemInstance.lifted_design_and_values()``
and the fit's lifted solution and lifted residuals, against the fit's
rounding unit, and the weights, which sum to one, against their own unit,
``WEIGHT_UNIT``.  The fit's rounding unit, ``ProblemInstance.rounding_tol``
of its lifted coefficients, is decided once, in ``lp``, by the exchange's
stop (``LpSolution.band``, which ``fit`` keeps as ``FitResult.band``): the
certificate reads it, as the oracle comparison does, and never computes
it again.  Value-sized gaps are reported in data units
(``ProblemInstance.data_units``), and orthogonality per direction of the
span (r entries).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateCase, PreconditionError
from .fitting import FitResult, ProblemInstance
from .lp import LpSolution
from .tolerances import RANK_TOL, WEIGHT_UNIT, interpolates_exactly


@dataclass
class DualCertificate:
    """The dual optimum of a solved fit: the indices of its reference
    points, their signs sigma (+1 on the undershoot row, -1 on the
    overshoot row), their nonnegative weights and the lifted dual objective
    sum w_i sigma_i y_i.  The masses on the two row families are the
    weights' sums by sign."""

    reference: np.ndarray
    signs: np.ndarray
    weights: np.ndarray
    dual_objective: float

    @property
    def overshoot_sum(self) -> float:
        return float(np.sum(self.weights[self.signs < 0]))

    @property
    def undershoot_sum(self) -> float:
        return float(np.sum(self.weights[self.signs > 0]))


@dataclass
class CertificateReport:
    """Numeric residuals of every certificate identity, plus pass flags."""

    strong_duality_gap: float
    beta_sum_residual: float
    value_sum_gap: float
    orthogonality_residuals: np.ndarray
    combined_orthogonality_residual: float
    residual_pairing_gap: float
    complementarity_violations: int
    active_point_count: int
    active_count_ok: bool
    two_sided_ok: bool | None
    identities_ok: bool
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        out = asdict(self)
        out["orthogonality_residuals"] = self.orthogonality_residuals.tolist()
        out["notes"] = list(self.notes)
        return out


def _require_analyzable(exact_interpolation: bool):
    if exact_interpolation:
        raise DegenerateCase(
            "exact interpolation (discrepancy ~ 0): certificates are not "
            "defined for this case"
        )


def _on_points(reference, signs, weights, n: int) -> bool:
    """True when the three are 1-D arrays of one length, and the
    reference holds indices of points of an instance of n."""
    reference = np.asarray(reference)
    return bool(
        reference.ndim == 1
        and np.issubdtype(reference.dtype, np.integer)
        and np.shape(signs) == np.shape(weights) == reference.shape
        and np.all((reference >= 0) & (reference < n))
    )


def extract_certificate(
    solution: LpSolution, instance: ProblemInstance
) -> DualCertificate:
    """Pull the reference, signs and weights out of a solved fit LP.

    Raises DegenerateCase on exact interpolation, a lifted d within the
    rounding unit of its coefficients (``solution.band``, fit's band), and
    PreconditionError when the solution's reference is not one on the
    instance's points.
    """
    _require_analyzable(interpolates_exactly(solution.objective_value, solution.band))
    if not _on_points(solution.reference, solution.signs, solution.weights, instance.n):
        raise PreconditionError("solution does not belong to this instance")
    return DualCertificate(
        reference=solution.reference.copy(),
        signs=solution.signs.copy(),
        weights=solution.weights.copy(),
        dual_objective=float(solution.dual_objective),
    )


def verify_identities(
    cert: DualCertificate, fit_result: FitResult, instance: ProblemInstance
) -> CertificateReport:
    """Evaluate every certificate identity numerically.

    All residual fields are magnitudes; ``identities_ok`` aggregates them at
    the certificate tolerance.  The fabricated-certificate path is
    supported: weights that fail an identity show up as a large residual,
    not an exception.  ``instance`` must be the fit's own,
    ``fit_result.instance``; PreconditionError otherwise.
    """
    if instance is not fit_result.instance:
        raise PreconditionError("fit does not belong to this instance")
    if not _on_points(cert.reference, cert.signs, cert.weights, instance.n):
        raise PreconditionError("certificate does not match the instance size")
    if len(fit_result.coefficients) != instance.m:
        raise PreconditionError("fit does not match the instance size")
    _require_analyzable(fit_result.exact_interpolation)

    # Value-sized gaps are judged lifted and reported in data units.
    g, y = instance.lifted_design_and_values()
    alpha = fit_result.lp_solution.primal[1:]
    d = fit_result.lp_solution.objective_value
    points, weights = cert.reference, cert.weights
    signed = cert.signs * weights
    residual = fit_result.lifted_residuals[points]
    tol = fit_result.band

    strong_duality_gap = abs(cert.dual_objective - d)
    beta_sum_residual = abs(float(np.sum(weights)) - 1.0)

    # Optimal-value identity; holds with the undershoot rows (sigma = +1)
    # leading.  The overshoot-leading orientation comes out at -d.
    value_sum_gap = abs(float(signed @ y[points]) - d)

    orthogonality = g[points].T @ signed
    combined = abs(float(alpha @ orthogonality))

    residual_pairing_gap = abs(float(signed @ residual) - d)

    # A weight belongs on a touch point whose residual's sign is its own:
    # a residual at +d makes the undershoot row tight, one at -d the
    # overshoot row.
    active = np.zeros(instance.n, dtype=bool)
    active[list(fit_result.active_points)] = True
    touch = active[points] & (residual * cert.signs > 0)
    violations = int(np.sum((weights > WEIGHT_UNIT) & ~touch))

    active_count = len(fit_result.active_points)
    active_count_ok = check_active_point_count(fit_result)

    two_sided: bool | None
    try:
        two_sided = check_two_sided(fit_result, cert)
    except PreconditionError:
        two_sided = None

    identities_ok = (
        strong_duality_gap <= tol
        and beta_sum_residual <= WEIGHT_UNIT
        and value_sum_gap <= tol
        and float(np.max(np.abs(orthogonality), initial=0.0)) <= tol
        and combined <= tol
        and residual_pairing_gap <= tol
        and violations == 0
        and np.all(weights >= -WEIGHT_UNIT)
    )

    notes = (
        "value sums follow the undershoot-minus-overshoot orientation; "
        "the reversed orientation equals minus the discrepancy",
    )
    return CertificateReport(
        strong_duality_gap=float(instance.data_units(strong_duality_gap)),
        beta_sum_residual=beta_sum_residual,
        value_sum_gap=float(instance.data_units(value_sum_gap)),
        orthogonality_residuals=np.abs(orthogonality),
        combined_orthogonality_residual=float(instance.data_units(combined)),
        residual_pairing_gap=float(instance.data_units(residual_pairing_gap)),
        complementarity_violations=violations,
        active_point_count=active_count,
        active_count_ok=active_count_ok,
        two_sided_ok=two_sided,
        identities_ok=bool(identities_ok),
        notes=notes,
    )


def check_active_point_count(fit_result: FitResult) -> bool:
    """True when at least r + 1 points sit at the discrepancy, r the rank,
    all of them within the band: lifted residuals against the LP's d,
    floored at zero.

    This is the vertex structure of the fit: with r + 1 unknowns, the bound
    and one per column of the lifted design, an optimal basic solution pins
    that many rows.
    """
    _require_analyzable(fit_result.exact_interpolation)
    active = fit_result.active_points
    if len(active) < fit_result.instance.rank + 1:
        return False
    d = max(fit_result.lp_solution.objective_value, 0.0)
    gaps = np.abs(np.abs(fit_result.lifted_residuals[list(active)]) - d)
    return bool(np.max(gaps) <= fit_result.band)


def check_two_sided(fit_result: FitResult, cert: DualCertificate) -> bool:
    """True when the fit touches the band from above at one active point
    and from below at another, and the certificate splits its mass evenly
    across the two row families.

    Requires the constant to lie in the span of the weighted basis
    functions on the data, the span of the lifted design: then the
    certificate's orthogonality to the constant splits its mass in halves,
    and the constant lets the fit slide vertically until both sides touch.
    The all-ones vector, at unit length, may leave a part off that span of
    at most ``RANK_TOL``, the rank's own test of a new direction; raises
    PreconditionError otherwise.
    """
    g = fit_result.instance.lifted_design_and_values()[0]
    ones = np.full(len(g), len(g) ** -0.5)
    if np.linalg.norm(ones - g @ (g.T @ ones)) > RANK_TOL:
        raise PreconditionError(
            "the two-sided check needs the constant in the span of the "
            "weighted basis functions on the evaluation points"
        )
    _require_analyzable(fit_result.exact_interpolation)

    touching = fit_result.lifted_residuals[list(fit_result.active_points)]
    has_undershoot = bool(np.any(touching > 0))
    has_overshoot = bool(np.any(touching < 0))
    halves = (
        abs(cert.overshoot_sum - 0.5) <= WEIGHT_UNIT
        and abs(cert.undershoot_sum - 0.5) <= WEIGHT_UNIT
    )
    return has_overshoot and has_undershoot and halves
