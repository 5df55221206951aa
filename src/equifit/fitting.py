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
from .tolerances import BAND_TOL, interpolates_exactly


@dataclass
class ProblemInstance:
    """Data of one approximation problem.

    ``points`` is an (n, p) array, ``values`` the n targets, ``weights`` an
    optional nonnegative n-vector.  ``design_override`` replaces the design
    matrix computed from the basis; it supports point-wise surgery on the
    design (row sign flips, row rescaling) that no closed-form basis list
    expresses.

    The design, its scales, the lifted problem and its rank are derived
    once, here, and every later step reads them; a basis function that is
    not finite at some point raises EvaluationError from the constructor.

    ``column_scale`` holds, per weighted design column, the power of two (at
    most 2^1023) that puts its largest magnitude in [1, 2).  ``value_scale``
    is 1 unless max |w y| is below one; then it is the power of two (at most
    2^1023) that lifts it into [1, 2).  ``lifted_design_and_values()`` is the
    weighted design and values times these exact scales.  The tolerances are
    absolute, so the fit LP, the rank, the certificate and the oracle read
    this one pair, and none depends on a basis function's scale or the
    data's: coefficients map back by ``basis_coefficients``, and d by
    ``value_scale``.
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
        g, y = self._design, self.values
        if self.weights is not None:
            with np.errstate(over="ignore"):
                g, y = self.weights[:, None] * g, self.weights * y
            if not (np.all(np.isfinite(g)) and np.all(np.isfinite(y))):
                raise DimensionMismatch(
                    "weighted design and values must be finite: a weight "
                    "times a design entry or value overflows"
                )
        exponent = np.frexp(np.max(np.abs(g), axis=0))[1]
        self.column_scale = np.ldexp(1.0, np.minimum(1 - exponent, 1023))
        exponent = np.frexp(np.max(np.abs(y)) or 1.0)[1]
        self.value_scale = float(np.ldexp(1.0, np.clip(1 - exponent, 0, 1023)))
        self._lifted = (g * self.column_scale, y * self.value_scale)
        self.rank = matrix_rank_estimate(self._lifted[0])

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

    def lifted_design_and_values(self) -> tuple[np.ndarray, np.ndarray]:
        """The weighted design times ``column_scale`` and the weighted values
        times ``value_scale``: the problem every check of a fit reads."""
        return self._lifted

    def basis_coefficients(self, lifted: np.ndarray) -> np.ndarray:
        """Map coefficients of the lifted design's columns to the basis's."""
        # One exact factor, so that no intermediate product overflows.
        return lifted * (self.column_scale / self.value_scale)


@dataclass
class FitResult:
    """Coefficients and discrepancy of a solved instance.

    ``residuals`` are the raw gaps value - combination; ``scaled_residuals``
    fold in the weights and are what the discrepancy bounds.  ``active_points``
    lists the indices whose scaled residual magnitude reaches the
    discrepancy, less the band ``active_tol`` (zero-weight points never
    qualify): the one touch set, on the side of the residual's sign, that
    the certificate and the alternation analysis read.  The LP solution is
    that of the instance's lifted problem; the certificate reads it.
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
    "-combination(x_i) - z <= -y_i", on the lifted design and values of
    ``instance.lifted_design_and_values()``.
    """
    g, y = instance.lifted_design_and_values()
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


@np.errstate(all="ignore")
def fit(instance: ProblemInstance) -> FitResult:
    """Solve the minimax fit for an instance.

    The discrepancy is the LP optimum; residuals are recomputed from the
    coefficients rather than read off LP slacks.  Raises SolverError when
    the LP layer fails, or ends other than optimal, which for this feasible,
    bounded LP is a numeric failure.  Like ``solve_lp``, it runs with
    numpy's floating-point warnings silenced: a residual that overflows
    fails the residual-bound check, which fails on inf and NaN.

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
    coefficients = instance.basis_coefficients(solution.primal[:m])
    lifted_d = float(solution.objective_value)
    discrepancy = lifted_d / lift
    residuals = instance.values - instance.design() @ coefficients
    w = instance.weights
    scaled = residuals.copy() if w is None else w * residuals

    max_scaled = float(np.max(np.abs(scaled)))
    band = BAND_TOL * max(1.0, lifted_d)
    # Written so that a NaN bound or optimum fails the check.
    if not abs(max_scaled * lift - lifted_d) <= band:
        raise SolverError(
            f"recomputed residual bound {max_scaled!r} is inconsistent with "
            f"the LP optimum {discrepancy!r}"
        )

    active_tol = band / lift
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
