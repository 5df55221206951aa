"""Dense two-phase simplex for inequality-form linear programs.

Problems are stated as

    minimize   objective . vars
    subject to constraint_matrix . vars <= rhs

with each variable marked free or nonnegative.  The solver returns an
optimal basic solution together with the nonnegative multipliers of the
``<=`` rows, so callers get a primal vertex and a dual certificate from a
single solve.  Sign convention for the duals: ``beta >= 0`` row-wise and
the dual functional is ``-rhs . beta``, maximized; at an optimum it equals
the primal objective.

Both phases pivot by Bland's rule.  The entering column is the lowest-index
allowed column whose reduced cost is below ``-PIVOT_TOL``.  The ratio test
runs over the rows whose entry in that column exceeds ``PIVOT_TOL``; among
the rows whose ratio lies within ``RATIO_TIE_TOL`` of the minimum, the row
whose basic column has the lowest index leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericFailure

FREE = "free"
NONNEGATIVE = "nonnegative"

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

FEAS_TOL = 1e-9
# Entries smaller than this are treated as zero during pivot selection.
PIVOT_TOL = 1e-10
# Ratios within this of the minimum ratio count as tied in the ratio test.
RATIO_TIE_TOL = 1e-12


@dataclass
class LinearProgram:
    """An inequality-form LP: minimize objective.x subject to A x <= rhs."""

    objective: np.ndarray
    constraint_matrix: np.ndarray
    rhs: np.ndarray
    variable_kinds: tuple[str, ...]

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.constraint_matrix = np.asarray(self.constraint_matrix, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.variable_kinds = tuple(self.variable_kinds)
        if self.constraint_matrix.ndim != 2:
            raise DimensionMismatch("constraint matrix must be two-dimensional")
        r, v = self.constraint_matrix.shape
        if r < 1 or v < 1:
            raise DimensionMismatch("need at least one row and one variable")
        if self.objective.shape != (v,):
            raise DimensionMismatch(
                f"objective has shape {self.objective.shape}, expected ({v},)"
            )
        if self.rhs.shape != (r,):
            raise DimensionMismatch(f"rhs has shape {self.rhs.shape}, expected ({r},)")
        if len(self.variable_kinds) != v:
            raise DimensionMismatch(
                f"{len(self.variable_kinds)} variable kinds for {v} variables"
            )
        for kind in self.variable_kinds:
            if kind not in (FREE, NONNEGATIVE):
                raise DimensionMismatch(f"unknown variable kind {kind!r}")
        for name, arr in (
            ("objective", self.objective),
            ("constraint matrix", self.constraint_matrix),
            ("rhs", self.rhs),
        ):
            if not np.all(np.isfinite(arr)):
                raise DimensionMismatch(f"{name} contains non-finite entries")

    @property
    def num_rows(self) -> int:
        return self.constraint_matrix.shape[0]

    @property
    def num_vars(self) -> int:
        return self.constraint_matrix.shape[1]


@dataclass
class LpSolution:
    """Outcome of a solve.

    For ``status == "optimal"`` the fields hold the primal vertex, its
    objective value, the nonnegative row multipliers, the maximized dual
    value ``-rhs . dual``, and the indices of tight rows.  Otherwise
    ``reason`` explains the infeasibility / unboundedness.
    """

    status: str
    primal: np.ndarray | None = None
    objective_value: float | None = None
    dual: np.ndarray | None = None
    dual_objective: float | None = None
    active_rows: tuple[int, ...] = ()
    iterations: int = 0
    reason: str = ""


def _standard_columns(lp: LinearProgram):
    """Split free variables into nonnegative pairs.

    Returns the column matrix, its costs, and a map from standard columns
    back to (original variable, sign).
    """
    cols = []
    costs = []
    col_map = []
    for j, kind in enumerate(lp.variable_kinds):
        cols.append(lp.constraint_matrix[:, j])
        costs.append(lp.objective[j])
        col_map.append((j, 1.0))
        if kind == FREE:
            cols.append(-lp.constraint_matrix[:, j])
            costs.append(-lp.objective[j])
            col_map.append((j, -1.0))
    return np.column_stack(cols), np.array(costs), col_map


class _Simplex:
    """Tableau state for one solve.  Not shared between solves."""

    def __init__(self, lp: LinearProgram, max_iterations: int):
        self.lp = lp
        self.max_iterations = max_iterations
        self.iterations = 0

        r = lp.num_rows
        a_struct, c_struct, self.col_map = _standard_columns(lp)
        n_struct = a_struct.shape[1]
        rhs = lp.rhs.astype(float)

        self.needs_artificial = bool(np.any(rhs < 0))
        blocks = [a_struct, np.eye(r)]
        if self.needs_artificial:
            blocks.append(np.where(rhs < 0, -1.0, 0.0)[:, None])
        self.work = np.hstack(blocks)
        self.n_struct = n_struct
        self.art_col = n_struct + r if self.needs_artificial else -1
        ncols = self.work.shape[1]

        self.cost = np.zeros(ncols)
        self.cost[:n_struct] = c_struct
        self.allowed = np.ones(ncols, dtype=bool)

        # Tableau rows hold B^-1 [work | rhs]; slacks form the initial basis.
        self.tableau = np.hstack([self.work, rhs[:, None]])
        self.basis = np.arange(n_struct, n_struct + r)

    def _pivot(self, row: int, col: int):
        t = self.tableau
        t[row] /= t[row, col]
        factors = t[:, col].copy()
        factors[row] = 0.0
        t -= np.outer(factors, t[row])
        # Zero the pivot column explicitly; drift here corrupts later ratios.
        t[:, col] = 0.0
        t[row, col] = 1.0
        self.basis[row] = col
        self.iterations += 1
        if self.iterations > self.max_iterations:
            raise NumericFailure(
                f"simplex exceeded {self.max_iterations} pivots",
                iterations=self.iterations,
            )

    def _optimize(self, cost: np.ndarray):
        """Pivot by Bland's rule until no allowed column improves ``cost``.

        Returns None at the optimum, or the entering column when the
        objective decreases without bound along it.
        """
        t = self.tableau
        while True:
            reduced = cost - cost[self.basis] @ t[:, :-1]
            reduced[self.basis] = 0.0
            improving = self.allowed & (reduced < -PIVOT_TOL)
            if not improving.any():
                return None
            enter = int(np.argmax(improving))
            col = t[:, enter]
            rows = np.flatnonzero(col > PIVOT_TOL)
            if rows.size == 0:
                return enter
            ratios = t[rows, -1] / col[rows]
            ties = rows[ratios <= ratios.min() + RATIO_TIE_TOL]
            self._pivot(int(ties[np.argmin(self.basis[ties])]), enter)

    def phase_one(self) -> bool:
        """Drive the single artificial variable to zero.  False if the
        constraints are inconsistent."""
        if not self.needs_artificial:
            return True
        # One pivot on the most negative row makes the tableau feasible.
        worst = int(np.argmin(self.tableau[:, -1]))
        self._pivot(worst, self.art_col)
        phase_cost = np.zeros_like(self.cost)
        phase_cost[self.art_col] = 1.0
        if self._optimize(phase_cost) is not None:  # pragma: no cover
            raise NumericFailure(
                "infeasibility phase claims an unbounded direction",
                iterations=self.iterations,
            )

        scale = max(1.0, float(np.max(np.abs(self.lp.rhs))))
        where = np.flatnonzero(self.basis == self.art_col)
        if where.size:
            row = int(where[0])
            if self.tableau[row, -1] > FEAS_TOL * scale:
                return False
            # Artificial stuck in the basis at level zero: pivot it out if
            # any real column can take its place.
            real = np.abs(self.tableau[row, : self.art_col]) > PIVOT_TOL
            if real.any():
                self._pivot(row, int(np.argmax(real)))
        self.allowed[self.art_col] = False
        return True

    def extract(self) -> LpSolution:
        """Recompute the vertex and its multipliers from the final basis."""
        lp = self.lp
        basis_cols = self.work[:, self.basis]
        try:
            x_basic = np.linalg.solve(basis_cols, lp.rhs)
            y = np.linalg.solve(basis_cols.T, self.cost[self.basis])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by pivoting
            raise NumericFailure(f"singular final basis: {exc}", self.iterations)

        primal = np.zeros(lp.num_vars)
        for pos, col in enumerate(self.basis):
            if col < self.n_struct:
                var, sign = self.col_map[col]
                primal[var] += sign * x_basic[pos]

        beta = -y
        if np.min(beta) < -1e-6:
            raise NumericFailure(
                f"negative dual multiplier {np.min(beta):.3e}", self.iterations
            )
        beta = np.maximum(beta, 0.0)

        activity = lp.constraint_matrix @ primal
        slack = lp.rhs - activity
        row_scale = np.maximum(1.0, np.abs(lp.rhs))
        worst = float(np.max(-slack / row_scale))
        if worst > 100 * FEAS_TOL:
            raise NumericFailure(
                f"optimal basis violates feasibility by {worst:.3e}", self.iterations
            )
        active = tuple(int(i) for i in np.flatnonzero(slack <= 1e-7 * row_scale))

        objective = float(lp.objective @ primal)
        dual_objective = -float(lp.rhs @ beta)
        return LpSolution(
            status=OPTIMAL,
            primal=primal,
            objective_value=objective,
            dual=beta,
            dual_objective=dual_objective,
            active_rows=active,
            iterations=self.iterations,
        )


def solve_lp(lp: LinearProgram, max_iterations: int | None = None) -> LpSolution:
    """Solve an inequality-form LP with Bland's rule.

    The entering column is the lowest-index column with reduced cost below
    ``-PIVOT_TOL``; the leaving row is, among the rows whose ratio lies
    within ``RATIO_TIE_TOL`` of the minimum ratio, the one whose basic
    column has the lowest index.  Columns are numbered as the standard form
    lays them out: each variable in order (a free one as its + and - parts),
    then one slack per row, then the phase-one artificial.

    Returns an optimal vertex plus complementary duals, or a solution with
    status ``infeasible`` / ``unbounded`` and a reason string.  Raises
    NumericFailure when pivoting exceeds the iteration budget (default
    ``50 * (rows + vars)``).
    """
    if max_iterations is None:
        max_iterations = 50 * (lp.num_rows + lp.num_vars)
    state = _Simplex(lp, max_iterations)
    if not state.phase_one():
        return LpSolution(
            status=INFEASIBLE,
            iterations=state.iterations,
            reason="constraints are inconsistent: the infeasibility residual "
            "could not be driven to zero",
        )
    enter = state._optimize(state.cost)
    if enter is not None:
        if enter < state.n_struct:
            var, sign = state.col_map[enter]
            direction = f"variable {var} toward {'+' if sign > 0 else '-'}infinity"
        else:  # pragma: no cover - slack columns cannot be improving
            direction = f"column {enter}"
        return LpSolution(
            status=UNBOUNDED,
            iterations=state.iterations,
            reason=f"objective decreases without bound along {direction}",
        )
    return state.extract()


def dual_of(lp: LinearProgram) -> LinearProgram:
    """The dual of an inequality-form LP, itself in inequality form.

    The dual variables are the nonnegative row multipliers ``beta``.  Free
    primal variables induce equality rows ``A^T beta = -objective`` (emitted
    as `<=` pairs), nonnegative ones a single `<=` row.  The emitted problem
    minimizes ``rhs . beta``, so the maximized dual functional of the
    original program is the *negation* of the emitted optimum; two
    applications restore the original optimal value.
    """
    at = lp.constraint_matrix.T
    rows = []
    rhs = []
    for j, kind in enumerate(lp.variable_kinds):
        if kind == FREE:
            rows.append(at[j])
            rhs.append(-lp.objective[j])
        # A_j^T beta >= -c_j, stated as a <= row.  For free variables this
        # pairs with the row above to form the equality.
        rows.append(-at[j])
        rhs.append(lp.objective[j])
    return LinearProgram(
        objective=lp.rhs.copy(),
        constraint_matrix=np.array(rows),
        rhs=np.array(rhs),
        variable_kinds=(NONNEGATIVE,) * lp.num_rows,
    )
