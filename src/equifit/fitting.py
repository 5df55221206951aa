"""Best uniform approximation of a finite point set by a basis combination.

The fit minimizes the largest (optionally weighted) absolute residual over
the data.  It is computed exactly by assembling a linear program with one
variable per coefficient plus the bound variable, and two rows per point:
an overshoot row (combination above the value) and an undershoot row.
Nonnegative weights enter by rescaling each point's design row and value,
which reduces the weighted problem to an unweighted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet, design_matrix, matrix_rank_estimate
from .errors import DimensionMismatch, EquifitError, SolverError
from .lp import FREE, OPTIMAL, LinearProgram, LpSolution, solve_lp
from .tolerances import ACTIVE_TOL_FACTOR, VERTEX_SLACK, interpolates_exactly


@dataclass
class ProblemInstance:
    """Data of one approximation problem.

    ``points`` is an (n, p) array, ``values`` the n targets, ``weights`` an
    optional nonnegative n-vector.  ``design_override`` replaces the design
    matrix computed from the basis; it supports point-wise surgery on the
    design (row sign flips, row rescaling) that no closed-form basis list
    expresses.

    The design, its weighted form, its column scale and its rank are derived
    once, here, and every later step reads them; a basis function that is
    not finite at some point raises EvaluationError from the constructor.

    ``column_scale`` holds, per weighted design column, the power of two (at
    most 2^1023) that puts its largest magnitude in [1, 2).  The tolerances
    are absolute, so the fit LP, the rank and the certificate's orthogonality
    residuals read the columns times this exact scale, which a basis
    function's coefficient absorbs: none depends on that function's scale.

    ``value_scale`` is 1 unless max |w y| is below one; then it is the power
    of two (at most 2^1023) that lifts it into [1, 2).  The fit LP, the
    fit's checks, the certificate and the oracle read the values times this
    exact scale, which d and the coefficients absorb, and divide back what
    they return.
    """

    points: np.ndarray
    values: np.ndarray
    basis: BasisSet
    weights: np.ndarray | None = None
    design_override: np.ndarray | None = None
    column_scale: np.ndarray = field(init=False, repr=False)
    value_scale: float = field(init=False, repr=False)
    rank: int = field(init=False)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.values = np.asarray(self.values, dtype=float)
        n = self.points.shape[0]
        if n < 1:
            raise DimensionMismatch("need at least one point")
        if self.values.shape != (n,):
            raise DimensionMismatch(
                f"{n} points but values have shape {self.values.shape}"
            )
        if self.points.shape[1] != self.basis.dimension:
            raise DimensionMismatch(
                f"points have dimension {self.points.shape[1]}, basis expects "
                f"{self.basis.dimension}"
            )
        if not np.all(np.isfinite(self.points)) or not np.all(
            np.isfinite(self.values)
        ):
            raise DimensionMismatch("points and values must be finite")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (n,):
                raise DimensionMismatch(
                    f"weights have shape {self.weights.shape}, expected ({n},)"
                )
            if not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0):
                raise DimensionMismatch("weights must be finite and nonnegative")
            if not np.any(self.weights > 0):
                raise DimensionMismatch("weights must not all be zero")
        if self.design_override is not None:
            self.design_override = np.asarray(self.design_override, dtype=float)
            if self.design_override.shape != (n, self.basis.size):
                raise DimensionMismatch(
                    f"design override has shape {self.design_override.shape}, "
                    f"expected ({n}, {self.basis.size})"
                )
            self._design = self.design_override
        else:
            self._design = design_matrix(self.basis, self.points)
        w = self.weights
        if w is None:
            self._scaled = (self._design, self.values)
        else:
            self._scaled = (w[:, None] * self._design, w * self.values)
        exponent = np.frexp(np.max(np.abs(self._scaled[0]), axis=0))[1]
        self.column_scale = np.ldexp(1.0, np.minimum(1 - exponent, 1023))
        exponent = np.frexp(np.max(np.abs(self._scaled[1])) or 1.0)[1]
        self.value_scale = float(np.ldexp(1.0, np.clip(1 - exponent, 0, 1023)))
        self.rank = matrix_rank_estimate(self._scaled[0] * self.column_scale)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def m(self) -> int:
        return self.basis.size

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def design(self) -> np.ndarray:
        return self._design

    def scaled_design_and_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Design rows and values with the weights folded in, in data units."""
        return self._scaled


@dataclass
class FitResult:
    """Coefficients and discrepancy of a solved instance.

    ``residuals`` are the raw gaps value - combination; ``scaled_residuals``
    fold in the weights and are what the discrepancy bounds.  ``active_points``
    lists the indices whose scaled residual magnitude reaches the
    discrepancy, less the band ``active_tol`` (zero-weight points never
    qualify).  The LP solution is kept for certificate extraction; it holds
    lifted values, times ``instance.value_scale``.
    """

    instance: ProblemInstance
    coefficients: np.ndarray
    discrepancy: float
    residuals: np.ndarray
    scaled_residuals: np.ndarray
    active_points: tuple[int, ...]
    active_tol: float
    exact_interpolation: bool
    low_rank: bool
    lp_solution: LpSolution = field(repr=False)


def assemble_primal(instance: ProblemInstance) -> LinearProgram:
    """Build the fit LP: variables (coefficients..., bound), rows interleaved
    per point as (overshoot row, undershoot row).

    Row 2i holds "combination(x_i) - z <= y_i", row 2i+1 holds
    "-combination(x_i) - z <= -y_i"; with weights, design row and value are
    pre-multiplied by the point's weight, then by ``instance.column_scale``
    (coefficient columns) and ``instance.value_scale`` (values).
    """
    g, y = instance.scaled_design_and_values()
    g, y = g * instance.column_scale, y * instance.value_scale
    n, m = g.shape
    matrix = np.zeros((2 * n, m + 1))
    rhs = np.zeros(2 * n)
    matrix[0::2, :m] = g
    matrix[1::2, :m] = -g
    matrix[:, m] = -1.0
    rhs[0::2] = y
    rhs[1::2] = -y
    objective = np.zeros(m + 1)
    objective[m] = 1.0
    return LinearProgram(
        objective=objective,
        constraint_matrix=matrix,
        rhs=rhs,
        variable_kinds=(FREE,) * (m + 1),
    )


def fit(instance: ProblemInstance) -> FitResult:
    """Solve the minimax fit for an instance.

    The discrepancy is the LP optimum; residuals are recomputed from the
    coefficients rather than read off LP slacks.  Raises SolverError when
    the LP layer fails, or ends other than optimal, which for this feasible,
    bounded LP is a numeric failure.

    ``lp_solution.primal`` holds the lifted coefficients of
    ``assemble_primal``'s scaled columns; ``coefficients`` those of the basis.
    """
    m = instance.m
    try:
        solution = solve_lp(assemble_primal(instance))
    except EquifitError as exc:
        raise SolverError(f"fit LP failed: {exc}") from exc
    if solution.status != OPTIMAL:
        raise SolverError(
            f"numeric failure: the fit LP is feasible and bounded, but the "
            f"solver ended with status {solution.status}: {solution.reason}"
        )

    lift = instance.value_scale
    coefficients = solution.primal[:m] * instance.column_scale / lift
    lifted_d = float(solution.objective_value)
    discrepancy = lifted_d / lift
    residuals = instance.values - instance.design() @ coefficients
    w = instance.weights
    scaled = residuals.copy() if w is None else w * residuals

    max_scaled = float(np.max(np.abs(scaled)))
    # Written so that a NaN bound or optimum fails the check.
    if not abs(max_scaled * lift - lifted_d) <= VERTEX_SLACK * max(1.0, lifted_d):
        raise SolverError(
            f"recomputed residual bound {max_scaled!r} is inconsistent with "
            f"the LP optimum {discrepancy!r}"
        )

    active_tol = ACTIVE_TOL_FACTOR * max(1.0, lifted_d) / lift
    active = np.abs(scaled) >= discrepancy - active_tol
    if w is not None:
        active &= w > 0
    return FitResult(
        instance=instance,
        coefficients=coefficients,
        discrepancy=discrepancy,
        residuals=residuals,
        scaled_residuals=scaled,
        active_points=tuple(int(i) for i in np.flatnonzero(active)),
        active_tol=active_tol,
        exact_interpolation=interpolates_exactly(lifted_d),
        low_rank=instance.rank < m,
        lp_solution=solution,
    )


def objective_value(instance: ProblemInstance, coefficients: np.ndarray) -> float:
    """Largest (weighted) absolute residual of the given coefficients."""
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (instance.m,):
        raise DimensionMismatch(
            f"expected {instance.m} coefficients, got shape {coefficients.shape}"
        )
    residuals = instance.values - instance.design() @ coefficients
    if instance.weights is not None:
        residuals = instance.weights * residuals
    return float(np.max(np.abs(residuals)))
