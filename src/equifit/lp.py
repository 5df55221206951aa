"""Two-phase tableau simplex for inequality-form linear programs.

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

Cost model, for r rows and c standard columns (free variables split in two):

* The tableau B^-1 [A | I | artificial | rhs], of size r x (r + c + 2),
  is built in place and is the one array above O(r * c).
* A pivot row is 0 in every basic column but the leaving one, so a pivot
  changes only the nonbasic columns (at most c + 1), the leaving column
  and rhs: O(r * c) work.  On the fit LP of n points and m basis
  functions that is O(n * m) per pivot.
* Pricing reads only the basic rows with nonzero cost.  The fit LP has at
  most one: the bound variable's in phase 2, the artificial's in phase 1.
* Extraction solves the k x k core of the final basis, its tight rows
  against its non-slack columns, not two r x r systems.  k is at most the
  number of variables plus one: m + 2 on the fit LP.

When the nonbasic columns are more than about an eighth of the row
(``ncols <= 8 * (ncols - r + 2)``, small or wide LPs), numpy's per-call
overhead outweighs that saving, and each pivot updates the whole tableau
instead, with an r x ncols temporary.  Either update gives the same
tableau bit for bit.
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

    Returns, per standard column, the original variable it stands for and
    its sign.
    """
    var = []
    sign = []
    for j, kind in enumerate(lp.variable_kinds):
        var.append(j)
        sign.append(1.0)
        if kind == FREE:
            var.append(j)
            sign.append(-1.0)
    return np.array(var, dtype=int), np.array(sign)


class _Simplex:
    """Tableau state for one solve.  Not shared between solves."""

    def __init__(self, lp: LinearProgram, max_iterations: int):
        self.lp = lp
        self.max_iterations = max_iterations
        self.iterations = 0

        r = lp.num_rows
        self.col_var, self.col_sign = _standard_columns(lp)
        n_struct = self.col_var.size
        self.n_struct = n_struct
        self.needs_artificial = bool(np.any(lp.rhs < 0))
        self.art_col = n_struct + r if self.needs_artificial else -1
        ncols = n_struct + r + int(self.needs_artificial)
        # Column-sparse pivots once the ncols - r nonbasic columns are a
        # small share of the row (see the module docstring).
        self.sparse = ncols > 8 * (ncols - r + 2)

        # Tableau rows hold B^-1 [A | I | artificial | rhs], built in place;
        # slacks form the initial basis.  A sparse solve stores it by column,
        # so that each column it updates or ratio-tests is contiguous.
        t = np.zeros((r, ncols + 1), order="F" if self.sparse else "C")
        t[:, :n_struct] = lp.constraint_matrix[:, self.col_var] * self.col_sign
        t[np.arange(r), n_struct + np.arange(r)] = 1.0
        if self.needs_artificial:
            t[lp.rhs < 0, self.art_col] = -1.0
        t[:, -1] = lp.rhs
        self.tableau = t
        self.basis = np.arange(n_struct, n_struct + r)
        # One flag per tableau column, rhs included (never basic).
        self.is_basic = np.zeros(ncols + 1, dtype=bool)
        self.is_basic[self.basis] = True

        self.cost = np.zeros(ncols)
        self.cost[:n_struct] = lp.objective[self.col_var] * self.col_sign
        self.allowed = np.ones(ncols, dtype=bool)

    def _pivot(self, row: int, col: int):
        t = self.tableau
        self.is_basic[self.basis[row]] = False
        if self.sparse:
            # Only the nonbasic columns, the leaving one and rhs can be
            # nonzero in the pivot row; every other column stays as it is.
            # The tableau is stored by column, so t.T gathers whole columns.
            reach = np.flatnonzero(~self.is_basic)
            t[row, reach] /= t[row, col]
            factors = t[:, col].copy()
            factors[row] = 0.0
            t.T[reach] -= np.outer(t[row, reach], factors)
        else:
            t[row] /= t[row, col]
            factors = t[:, col].copy()
            factors[row] = 0.0
            t -= np.outer(factors, t[row])
        # Zero the pivot column explicitly; drift here corrupts later ratios.
        t[:, col] = 0.0
        t[row, col] = 1.0
        self.basis[row] = col
        self.is_basic[col] = True
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
            # Only the basic rows with nonzero cost enter the reduced costs.
            basic_cost = cost[self.basis]
            costed = np.flatnonzero(basic_cost)
            reduced = cost - basic_cost[costed] @ t[costed, :-1]
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
        """Recompute the vertex and its multipliers from the final basis.

        A basic slack takes up its own row and fixes that row's multiplier
        at 0, so the basis system reduces to its core: the tight rows (those
        whose slack is nonbasic) against the other basic columns.  The core
        is k x k, with k at most the number of variables plus one.
        """
        lp = self.lp
        n_struct = self.n_struct
        rows = np.flatnonzero(~self.is_basic[n_struct : n_struct + lp.num_rows])
        cols = np.flatnonzero(self.is_basic[:n_struct])
        var, sign = self.col_var[cols], self.col_sign[cols]
        core = lp.constraint_matrix[rows][:, var] * sign
        core_cost = self.cost[cols]
        if self.needs_artificial and self.is_basic[self.art_col]:
            # Left basic at level zero, the artificial is a core column too.
            core = np.column_stack([core, np.where(lp.rhs[rows] < 0, -1.0, 0.0)])
            core_cost = np.append(core_cost, 0.0)
        try:
            x_core = np.linalg.solve(core, lp.rhs[rows])
            y_core = np.linalg.solve(core.T, core_cost)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by pivoting
            raise NumericFailure(f"singular final basis: {exc}", self.iterations)

        primal = np.bincount(var, sign * x_core[: cols.size], minlength=lp.num_vars)

        beta = np.zeros(lp.num_rows)
        beta[rows] = -y_core
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
            var, sign = state.col_var[enter], state.col_sign[enter]
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
