"""Best uniform approximation of a finite point set by a basis combination.

The fit minimizes the largest (optionally weighted) absolute residual over
the data.  It is the linear program whose first variable is the bound,
followed by one variable per column of the lifted design (an orthonormal
basis of the span of the weighted basis functions on the data), with two
rows per point: an overshoot row (combination above the value) and an
undershoot row.  ``fit`` solves it by the exchange (``lp.exchange``), a
revised simplex on its dual of r + 1 rows, r the rank, on the lifted
design and values, with no matrix of rows.
Nonnegative weights enter by rescaling each point's design row and value,
which reduces the weighted problem to an unweighted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet, design_matrix, singular_value_rank
from .errors import DimensionMismatch, EquifitError, SolverError
from .lp import LpSolution, exchange
from .tolerances import RANK_TOL, interpolates_exactly, rounding_tol


@dataclass
class ProblemInstance:
    """Data of one approximation problem.

    ``points`` is an (n, p) array, ``values`` the n targets, ``weights`` an
    optional nonnegative n-vector.  ``from_design`` builds an instance on a
    given design in place of the basis's.

    The lifted problem and its rank are derived once, here, and every later
    step reads them; a basis function that is not finite at some point
    raises EvaluationError from the constructor.  The instance keeps one
    n x m array, U_r: the design is evaluated once, weighted and scaled in
    place, and released after the SVD, and ``design()`` evaluates the
    basis again on demand.

    The optimum depends only on the span of the weighted design's columns,
    so the lifted problem is posed on an orthonormal basis of that span.
    Each weighted column is first scaled by the power of two that puts its
    largest magnitude in [1, 2), so that no basis function's scale decides
    the rank; one SVD, U S V^T, of that design then gives the rank r
    (``singular_value_rank``), the lifted design U_r and the map back.  At
    full rank the map back is V_r S_r^-1.  Below it, the first r columns,
    in basis order, that one Gram-Schmidt pass over the rows of V_r finds
    independent under ``RANK_TOL`` carry the fit, and every other column's
    coefficient is 0.  The weighted values are lifted by 2^k, k =
    ``value_exponent``: 0 unless max |w y| is below one, and then the
    exponent that puts it in [1, 2).  Neither power of two is capped, and
    both are applied by ``np.ldexp``, exact barring overflow, which the
    lift into [1, 2) rules out.  The tolerances are absolute, so the fit
    LP, the certificate and the oracle read the pair
    ``lifted_design_and_values()`` and judge lifted numbers alone, and none
    depends on a basis function's scale or the data's.  Data units are a
    view of the lifted numbers: coefficients map back by
    ``basis_coefficients``, and every value-sized number by ``data_units``.
    """

    points: np.ndarray
    values: np.ndarray
    basis: BasisSet
    weights: np.ndarray | None = None
    value_exponent: int = field(init=False, repr=False)
    rank: int = field(init=False)

    @classmethod
    def from_design(cls, points, values, basis, design, weights=None):
        """An instance on ``design``, an (n, m) array, in place of the
        basis evaluated at the points: point-wise surgery on the design
        (row sign flips, row rescaling) that no closed-form basis list
        expresses.  The design is copied once to be lifted, never mutated,
        and kept for ``design()``, since no basis reproduces it."""
        instance = cls.__new__(cls)
        vars(instance).update(points=points, values=values, basis=basis, weights=weights)
        instance.__post_init__(design)
        return instance

    def __post_init__(self, design=None):
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
        self._design = design if design is None else np.asarray(design, dtype=float)
        g, y = self.design(), self.values
        if g.shape != (n, self.m):
            raise DimensionMismatch(
                f"design override has shape {g.shape}, expected ({n}, {self.m})"
            )
        if self.weights is not None:
            with np.errstate(over="ignore"):
                g, y = np.multiply(g, self.weights[:, None], out=g), self.weights * y
            if not (np.all(np.isfinite(g)) and np.all(np.isfinite(y))):
                raise DimensionMismatch(
                    "weighted design and values must be finite: a weight "
                    "times a design entry or value overflows"
                )
        column_exponents = 1 - np.frexp(np.max(np.abs(g), axis=0))[1]
        top = np.max(np.abs(y)) or 1.0
        k = self.value_exponent = max(0, 1 - int(np.frexp(top)[1]))
        np.ldexp(g, column_exponents, out=g)
        u, sigma, vt = np.linalg.svd(g, full_matrices=False)
        del g  # U_r is the one n x m array the instance keeps
        self.rank = r = singular_value_rank(sigma)
        max_design = float(np.max(np.abs(u[:, :r]), initial=0.0))
        self._lifted = (u[:, :r], np.ldexp(y, k))
        self._maxima = (float(np.max(np.abs(self._lifted[1]))), max_design)
        v_r = vt[:r].T
        span_map = v_r / sigma[:r]
        if r < self.m:
            picked, q = [], np.zeros((r, 0))
            for j, row in enumerate(v_r):
                rest = row - q @ (q.T @ row)
                norm = np.linalg.norm(rest)
                if norm > RANK_TOL and len(picked) < r:
                    picked.append(j)
                    q = np.column_stack([q, rest / norm])
            span_map = np.zeros_like(span_map)
            span_map[picked] = np.linalg.solve(v_r[picked].T, np.diag(1.0 / sigma[:r]))
        self._to_basis = (span_map, column_exponents - k)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def m(self) -> int:
        return self.basis.size

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def design(self, rows=slice(None)) -> np.ndarray:
        """A new array of the data-unit design at ``rows`` (every row by
        default): the basis evaluated anew, or the rows of the design the
        instance was built from (``from_design``)."""
        if self._design is None:
            return design_matrix(self.basis, self.points[rows])
        return self._design[rows].copy()

    def lifted_design_and_values(self) -> tuple[np.ndarray, np.ndarray]:
        """U_r, the orthonormal basis of the span (n x rank), and the
        weighted values times 2^``value_exponent``: the problem every check
        of a fit reads."""
        return self._lifted

    def basis_coefficients(self, lifted: np.ndarray) -> np.ndarray:
        """Map coefficients of the lifted design's columns to the basis's:
        V_r S_r^-1 maps them to the scaled columns', then one power of two
        per column, its exponent less ``value_exponent``, applied last by
        ``np.ldexp``, so that no intermediate product overflows."""
        span_map, exponents = self._to_basis
        return np.ldexp(span_map @ lifted, exponents)

    def rounding_tol(self, lifted: np.ndarray):
        """``tolerances.rounding_tol`` of lifted coefficients, or of a stack
        of them, one per row, from the maxima of |U_r| and of |lifted
        values| taken once, here."""
        return rounding_tol(*self._maxima, lifted)

    def data_units(self, lifted):
        """A value-sized lifted number, or array of them, in data units:
        times 2^-``value_exponent``, the one map of the value lift back.
        Exact unless the data-unit number is subnormal, where it rounds, as
        the data do; no check of a fit reads it."""
        return np.ldexp(lifted, -self.value_exponent)

    def reported_discrepancy(self, lifted_d: float) -> float:
        """Map a lifted discrepancy to data units: floored at zero, as a
        maximum of absolute values is, then ``data_units``.  A lifted d
        below zero is rounding around an exact interpolation."""
        return float(self.data_units(max(lifted_d, 0.0)))


@dataclass
class FitResult:
    """Coefficients and discrepancy of a solved instance.

    ``lifted_residuals`` fold in the weights and the value lift and are
    what the LP's d bounds: y - U_r alpha on the instance's lifted problem,
    the exchange's last pricing pass (``LpSolution.residuals``), which
    every check of the fit reads.  ``band`` is the fit's rounding unit,
    ``ProblemInstance.rounding_tol`` of its lifted coefficients, decided
    once, by the exchange's stop (``LpSolution.band``): ``active_points``
    lists the indices whose lifted residual magnitude reaches d less the
    band (zero-weight points never qualify), the one touch set, on the
    side of the residual's sign, that the certificate and the alternation
    analysis read, and ``exact_interpolation`` says that d is within the
    band.  The LP
    solution is the exchange's on the instance's lifted problem: d is its
    optimum, and its final reference, signs and weights are the dual
    certificate.
    ``residuals`` are the gaps value - combination in data units, for the
    report: the lifted residuals in data units divided by
    the weight where it is positive (unweighted, ``scaled_residuals``
    exactly), and value minus the design row times the coefficients at a
    zero-weight point, the one place the design is evaluated again.
    ``discrepancy``, ``scaled_residuals`` and ``active_tol`` are data-unit
    views of d, the lifted residuals and the band, through
    ``ProblemInstance.data_units``.  ``low_rank`` says that the rank r is
    below m: the fit and every check of it are then over the r-dimensional
    span that the rank rule keeps, which is not optimality over the full
    list when the rule drops a direction the floats still carry.
    """

    instance: ProblemInstance
    coefficients: np.ndarray
    residuals: np.ndarray
    lifted_residuals: np.ndarray
    active_points: tuple[int, ...]
    band: float
    exact_interpolation: bool
    lp_solution: LpSolution = field(repr=False)

    @property
    def low_rank(self) -> bool:
        return self.instance.rank < self.instance.m

    @property
    def discrepancy(self) -> float:
        return self.instance.reported_discrepancy(self.lp_solution.objective_value)

    @property
    def scaled_residuals(self) -> np.ndarray:
        return self.instance.data_units(self.lifted_residuals)

    @property
    def active_tol(self) -> float:
        return float(self.instance.data_units(self.band))


@np.errstate(all="ignore")
def fit(instance: ProblemInstance) -> FitResult:
    """Solve the minimax fit for an instance.

    The discrepancy is the LP optimum, mapped to data units by
    ``instance.reported_discrepancy``; the lifted residuals are the
    exchange's last pricing pass at the returned coefficients, still not
    LP slacks, and the residual-bound check and the active band read them.
    The band is ``ProblemInstance.rounding_tol`` of the lifted
    coefficients, 64 roundings of a lifted residual: the unit that
    ``lp.exchange``, which solves the LP on
    ``instance.lifted_design_and_values()``, stopped within, read off its
    solution and not computed again.  A lifted d
    within the band is an exact interpolation (``interpolates_exactly``).
    Raises SolverError when the exchange fails.  Like
    ``exchange``, it runs with numpy's floating-point warnings silenced: a
    residual that overflows, lifted or in data units, or a coefficient that
    overflows in data units, fails a check of its own.

    ``lp_solution.primal`` holds the lifted bound, then the coefficients of
    the lifted design's columns, read as ``primal[1:]``; ``coefficients``
    holds those of the basis.
    """
    try:
        solution = exchange(*instance.lifted_design_and_values(), instance.rounding_tol)
    except (EquifitError, np.linalg.LinAlgError) as exc:
        raise SolverError(f"fit LP failed: {exc}") from exc

    lifted_d = float(solution.objective_value)
    alpha = solution.primal[1:]
    lifted_residuals, band = solution.residuals, solution.band
    max_lifted = float(np.max(np.abs(lifted_residuals)))
    # Written so that a NaN bound or optimum fails the check.
    if not abs(max_lifted - lifted_d) <= band:
        bound, optimum = instance.data_units([max_lifted, lifted_d]).tolist()
        raise SolverError(
            f"recomputed residual bound {bound!r} is inconsistent "
            f"with the LP optimum {optimum!r}"
        )

    coefficients = instance.basis_coefficients(alpha)
    residuals = instance.data_units(lifted_residuals)
    active = np.abs(lifted_residuals) >= lifted_d - band
    if instance.weights is not None:
        active &= instance.weights > 0
        residuals /= instance.weights
        off = np.flatnonzero(instance.weights == 0)
        if off.size:
            residuals[off] = instance.values[off] - instance.design(off) @ coefficients
    if not (np.all(np.isfinite(coefficients)) and np.all(np.isfinite(residuals))):
        raise SolverError("a coefficient or residual overflows in data units")
    return FitResult(
        instance=instance,
        coefficients=coefficients,
        residuals=residuals,
        lifted_residuals=lifted_residuals,
        active_points=tuple(int(i) for i in np.flatnonzero(active)),
        band=band,
        exact_interpolation=interpolates_exactly(lifted_d, band),
        lp_solution=solution,
    )


def objective_value(instance: ProblemInstance, coefficients: np.ndarray) -> float:
    """Largest (weighted) absolute residual of the given coefficients, in
    data units, on the design evaluated anew (``instance.design()``)."""
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (instance.m,):
        raise DimensionMismatch(
            f"expected {instance.m} coefficients, got shape {coefficients.shape}"
        )
    residuals = instance.values - instance.design() @ coefficients
    if instance.weights is not None:
        residuals = instance.weights * residuals
    return float(np.max(np.abs(residuals)))
