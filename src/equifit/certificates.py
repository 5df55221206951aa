"""Optimality certificates for minimax fits.

The fit LP interleaves two rows per point: the overshoot row (combination
above the value) at even 0-based positions, the undershoot row at odd
positions.  The row multipliers ``beta`` returned by the solver certify
optimality:

* ``beta >= 0`` and ``sum(beta) = 1`` (the bound column of the LP);
* each basis function is ``beta``-orthogonal to the data: the overshoot
  and undershoot sums of ``beta * basis(x)`` cancel;
* nonzero multipliers sit only on the rows of ``FitResult.active_points``
  that touch the band, by the residual's sign (complementary slackness);
* pairing ``beta`` with the signed residuals reproduces the discrepancy,
  matching the maximized dual functional ``-rhs . beta``.

Note on orientation: the overshoot-minus-undershoot sum of ``beta * value``
equals *minus* the discrepancy; the identity holds with the undershoot sum
first.  ``verify_identities`` records this in its notes rather than
silently flipping a sign.

Every identity is judged on ``ProblemInstance.lifted_design_and_values()``
and the fit's lifted solution, ``FitResult.lp_solution``, against the
tolerance of the lifted d; value-sized gaps are reported in data units.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateCase, PreconditionError
from .fitting import FitResult, ProblemInstance
from .lp import OPTIMAL, LpSolution
from .tolerances import (
    CONSTANT_COLUMN_TOL,
    MULTIPLIER_TOL,
    agreement_tol,
    interpolates_exactly,
)


@dataclass
class DualCertificate:
    """Nonnegative row multipliers of a solved fit; their masses on the
    overshoot (even) and undershoot (odd) rows are read off ``beta``."""

    beta: np.ndarray
    dual_objective: float

    @property
    def overshoot_sum(self) -> float:
        return float(np.sum(self.beta[0::2]))

    @property
    def undershoot_sum(self) -> float:
        return float(np.sum(self.beta[1::2]))


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


def _require_analyzable(exact_interpolation: bool, low_rank: bool):
    if exact_interpolation:
        raise DegenerateCase(
            "exact interpolation (discrepancy ~ 0): certificates are not "
            "defined for this case"
        )
    if low_rank:
        raise DegenerateCase("rank-deficient design: certificates are not defined")


def extract_certificate(
    solution: LpSolution, instance: ProblemInstance
) -> DualCertificate:
    """Pull the row multipliers out of a solved fit LP.

    Raises DegenerateCase on exact interpolation or a rank-deficient
    design, and PreconditionError when the solution is not optimal.
    """
    if solution.status != OPTIMAL:
        raise PreconditionError(
            f"certificate extraction needs an optimal solve, got {solution.status}"
        )
    if solution.dual is None or len(solution.dual) != 2 * instance.n:
        raise PreconditionError("solution does not belong to this instance")
    exact = interpolates_exactly(solution.objective_value)  # lifted, like fit's
    _require_analyzable(exact, instance.rank < instance.m)
    return DualCertificate(
        beta=solution.dual.copy(),
        dual_objective=float(solution.dual_objective) / instance.value_scale,
    )


def verify_identities(
    cert: DualCertificate, fit_result: FitResult, instance: ProblemInstance
) -> CertificateReport:
    """Evaluate every certificate identity numerically.

    All residual fields are magnitudes; ``identities_ok`` aggregates them at
    the certificate tolerance.  The fabricated-certificate path is
    supported: a beta that fails an identity shows up as a large residual,
    not an exception.
    """
    if len(cert.beta) != 2 * instance.n:
        raise PreconditionError("certificate does not match the instance size")
    if len(fit_result.coefficients) != instance.m:
        raise PreconditionError("fit does not match the instance size")
    _require_analyzable(fit_result.exact_interpolation, fit_result.low_rank)

    # Value-sized gaps are judged lifted and reported in data units.
    g, y = instance.lifted_design_and_values()
    lift = instance.value_scale
    alpha = fit_result.lp_solution.primal[: instance.m]
    d = fit_result.lp_solution.objective_value
    b_over = cert.beta[0::2]
    b_under = cert.beta[1::2]
    residual = y - g @ alpha
    tol = agreement_tol(d)

    strong_duality_gap = abs(cert.dual_objective * lift - d)
    beta_sum_residual = abs(float(np.sum(cert.beta)) - 1.0)

    # Optimal-value identity; holds with the undershoot sum leading.  The
    # overshoot-leading orientation comes out at -d.
    value_sum = float(b_under @ y - b_over @ y)
    value_sum_gap = abs(value_sum - d)

    orthogonality = g.T @ (b_over - b_under)
    combined = abs(float(alpha @ orthogonality))

    pairing = float(b_under @ residual - b_over @ residual)
    residual_pairing_gap = abs(pairing - d)

    # The fit's touch rows, interleaved per point like the LP's rows: a
    # residual at -d makes the overshoot row tight, one at +d the undershoot.
    active = list(fit_result.active_points)
    touch = np.zeros((instance.n, 2), dtype=bool)
    touch[active] = fit_result.scaled_residuals[active, None] * [-1.0, 1.0] > 0
    violations = int(np.sum((cert.beta > MULTIPLIER_TOL) & ~touch.ravel()))

    active_count = len(fit_result.active_points)
    active_count_ok = check_active_point_count(fit_result, instance.m)

    two_sided: bool | None
    try:
        two_sided = check_two_sided(fit_result, cert)
    except PreconditionError:
        two_sided = None

    identities_ok = (
        strong_duality_gap <= tol
        and beta_sum_residual <= MULTIPLIER_TOL
        and value_sum_gap <= tol
        and float(np.max(np.abs(orthogonality))) <= tol
        and combined <= tol
        and residual_pairing_gap <= tol
        and violations == 0
        and np.all(cert.beta >= -MULTIPLIER_TOL)
    )

    notes = (
        "value sums follow the undershoot-minus-overshoot orientation; "
        "the reversed orientation equals minus the discrepancy",
    )
    return CertificateReport(
        strong_duality_gap=strong_duality_gap / lift,
        beta_sum_residual=beta_sum_residual,
        value_sum_gap=value_sum_gap / lift,
        orthogonality_residuals=np.abs(orthogonality),
        combined_orthogonality_residual=combined / lift,
        residual_pairing_gap=residual_pairing_gap / lift,
        complementarity_violations=violations,
        active_point_count=active_count,
        active_count_ok=active_count_ok,
        two_sided_ok=two_sided,
        identities_ok=bool(identities_ok),
        notes=notes,
    )


def check_active_point_count(fit_result: FitResult, m: int) -> bool:
    """True when at least m + 1 points sit at the discrepancy, all of them
    within the active tolerance.

    This is the vertex structure of the fit: with m + 1 unknowns, an
    optimal basic solution pins that many rows.
    """
    _require_analyzable(fit_result.exact_interpolation, fit_result.low_rank)
    active = fit_result.active_points
    if len(active) < m + 1:
        return False
    gaps = np.abs(
        np.abs(fit_result.scaled_residuals[list(active)]) - fit_result.discrepancy
    )
    return bool(np.max(gaps) <= fit_result.active_tol)


def check_two_sided(fit_result: FitResult, cert: DualCertificate) -> bool:
    """True when the fit touches the band from above at one active point
    and from below at another, and the certificate splits its mass evenly
    across the two row families.

    Requires the first basis function, times the weights, to be identically
    one on the data (the constant lets the fit slide vertically until both
    sides touch); raises PreconditionError otherwise.
    """
    instance = fit_result.instance
    # The column scale is a power of two, so this is the weighted column.
    first = instance.lifted_design_and_values()[0][:, 0] / instance.column_scale[0]
    if np.max(np.abs(first - 1.0)) > CONSTANT_COLUMN_TOL:
        raise PreconditionError(
            "the two-sided check needs the first basis function to be "
            "identically 1 on the evaluation points"
        )
    _require_analyzable(fit_result.exact_interpolation, fit_result.low_rank)

    touching = fit_result.scaled_residuals[list(fit_result.active_points)]
    has_undershoot = bool(np.any(touching > 0))
    has_overshoot = bool(np.any(touching < 0))
    halves = (
        abs(cert.overshoot_sum - 0.5) <= MULTIPLIER_TOL
        and abs(cert.undershoot_sum - 0.5) <= MULTIPLIER_TOL
    )
    return has_overshoot and has_undershoot and halves
