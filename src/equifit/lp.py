"""Two LP solvers: the exchange for the fit LP, and a two-phase tableau
simplex for inequality-form linear programs.

``exchange`` solves the fit LP, min h subject to |y - U alpha| <= h, as a
revised simplex on its dual, whose r + 1 equality rows make a basis a
reference of r + 1 signed points (Stiefel's exchange).  One step costs a
residual pass, O(n * r), and three (r + 1)-square solves; memory beyond the
design is O(n + r^2).  ``fit`` calls it; its docstring states the rules.

``solve_lp`` is the general solver, and the reference the exchange is
tested against.  Problems are stated as

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

Cost model, for r rows and k tableau columns (the standard columns, a
free variable counted twice, plus the artificial when some rhs is
negative):

* The tableau is condensed: it keeps B^-1 times the nonbasic columns and
  rhs, an r x (k + 1) array, and never the r basic columns, which are
  identity columns.  A pivot exchanges a basic and a nonbasic label, and
  the leaving column takes the entering one's place.  Time and memory are
  O(r * k) per pivot: O(n * m) on the fit LP of n points and m basis
  functions, whose tableau is 2n x (2m + 4).  The pivots and their
  results are those of the full tableau B^-1 [A | I | artificial | rhs]
  bit for bit.
* The tableau is stored column-major, so the passes over one column that
  each pivot makes (its copy and zeroing, the ratio test's gathers) read
  contiguous memory, not every cache line of the tableau.
* Pricing reads only the basic rows with nonzero cost.  The fit LP has at
  most one: the bound variable's in phase 2, the artificial's in phase 1.
* Extraction solves the square core of the final basis, its tight rows
  against its non-slack columns, not two r x r systems.  Its order is at
  most the number of variables: m + 1 on the fit LP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericFailure
from .tolerances import (
    BAND_TOL,
    FEAS_TOL,
    MULTIPLIER_TOL,
    PIVOT_TOL,
    RANK_TOL,
    RATIO_TIE_TOL,
    rounding_tol,
)

FREE = "free"
NONNEGATIVE = "nonnegative"

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


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
    objective value, the nonnegative row multipliers and the maximized dual
    value ``-rhs . dual``.  Otherwise ``reason`` explains the infeasibility /
    unboundedness.  ``iterations`` counts the pivots of both phases, or the
    exchange's steps, ``phase_one_iterations`` those of phase 1 alone (0 for
    the exchange, which has no phase 1).
    """

    status: str
    primal: np.ndarray | None = None
    objective_value: float | None = None
    dual: np.ndarray | None = None
    dual_objective: float | None = None
    iterations: int = 0
    phase_one_iterations: int = 0
    reason: str = ""


def _standard_columns(lp: LinearProgram):
    """Split free variables into nonnegative pairs.

    Returns, per standard column, the original variable it stands for and
    its sign: a free variable's two columns are adjacent, + then -.
    """
    free = np.array([kind == FREE for kind in lp.variable_kinds])
    var = np.repeat(np.arange(free.size), 1 + free)
    return var, np.where(np.diff(var, prepend=-1) == 0, -1.0, 1.0)


class _Simplex:
    """Condensed tableau state for one solve.  Not shared between solves.

    Columns carry labels in the standard-form order: the standard columns,
    one slack per row, then the artificial.  ``basis[i]`` is the label basic
    in row i and ``nonbasic[j]`` the label of tableau column j.
    """

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

        # The slacks form the initial basis, so the tableau starts as the
        # standard columns, the artificial and rhs.
        self.basis = np.arange(n_struct, n_struct + r)
        self.nonbasic = np.arange(n_struct + int(self.needs_artificial))
        t = np.empty((r, self.nonbasic.size + 1), order="F")
        np.multiply(
            lp.constraint_matrix[:, self.col_var], self.col_sign, out=t[:, :n_struct]
        )
        if self.needs_artificial:
            self.nonbasic[-1] = self.art_col
            t[:, n_struct] = np.where(lp.rhs < 0, -1.0, 0.0)
        t[:, -1] = lp.rhs
        self.tableau = t
        # Reused by every pivot for the rank-one update; fits of up to a
        # thousand points run 2-3% faster than with a fresh np.outer each.
        self.update = np.empty_like(t)

        self.cost = np.zeros(ncols)
        self.cost[:n_struct] = lp.objective[self.col_var] * self.col_sign
        self.allowed = np.ones(ncols, dtype=bool)

    def _pivot(self, row: int, pos: int):
        """Exchange the label basic in ``row`` with nonbasic column ``pos``."""
        t = self.tableau
        factors = t[:, pos].copy()
        factors[row] = 0.0
        pivot = t[row, pos]
        # The leaving column e_row takes the entering column's place; the
        # update gives it the full tableau's values, up to a zero's sign.
        t[:, pos] = 0.0
        t[row, pos] = 1.0
        t[row] /= pivot
        np.multiply(factors[:, None], t[row], out=self.update)
        t -= self.update
        self.basis[row], self.nonbasic[pos] = self.nonbasic[pos], self.basis[row]
        self.iterations += 1
        if self.iterations > self.max_iterations:
            raise NumericFailure(
                f"simplex exceeded {self.max_iterations} pivots",
                iterations=self.iterations,
            )

    def _optimize(self, cost: np.ndarray):
        """Pivot by Bland's rule until no allowed column improves ``cost``.

        Returns None at the optimum, or the entering label when the
        objective decreases without bound along it; NumericFailure instead
        when the tableau it stops on is not finite.
        """
        t = self.tableau
        enter = None
        while True:
            # Only the basic rows with nonzero cost enter the reduced costs.
            basic_cost = cost[self.basis]
            costed = np.flatnonzero(basic_cost)
            reduced = cost[self.nonbasic] - basic_cost[costed] @ t[costed, :-1]
            improving = np.flatnonzero(
                self.allowed[self.nonbasic] & (reduced < -PIVOT_TOL)
            )
            if improving.size == 0:
                break
            pos = int(improving[np.argmin(self.nonbasic[improving])])
            col = t[:, pos]
            rows = np.flatnonzero(col > PIVOT_TOL)
            if rows.size == 0:
                enter = int(self.nonbasic[pos])
                break
            ratios = t[rows, -1] / col[rows]
            ties = rows[ratios <= ratios.min() + RATIO_TIE_TOL]
            if ties.size == 0:
                # A NaN ratio makes the minimum NaN, and no row compares to it.
                raise NumericFailure(
                    "ratio test kept no row: the tableau is not finite",
                    iterations=self.iterations,
                )
            self._pivot(int(ties[np.argmin(self.basis[ties])]), pos)
        # NaN reduced costs and ratios compare false, so check the verdict.
        if not np.all(np.isfinite(t)):
            raise NumericFailure("the tableau is not finite", self.iterations)
        return enter

    def phase_one(self) -> bool:
        """Drive the single artificial variable to zero.  False if the
        constraints are inconsistent."""
        if not self.needs_artificial:
            return True
        # One pivot of the artificial, the last tableau column, on the most
        # negative row makes the tableau feasible.
        worst = int(np.argmin(self.tableau[:, -1]))
        self._pivot(worst, self.n_struct)
        phase_cost = np.zeros_like(self.cost)
        phase_cost[self.art_col] = 1.0
        if self._optimize(phase_cost) is not None:  # pragma: no cover
            raise NumericFailure(
                "infeasibility phase claims an unbounded direction",
                iterations=self.iterations,
            )

        where = np.flatnonzero(self.basis == self.art_col)
        if where.size:
            row = int(where[0])
            # A level below FEAS_TOL * max(1, max |rhs|) counts as zero.
            if self.tableau[row, -1] > FEAS_TOL * max(1.0, np.max(np.abs(self.lp.rhs))):
                return False
            # Artificial stuck in the basis at level zero: pivot it out for the
            # lowest nonbasic (hence real) label that can take its place.  Its
            # row of B^-1 times its 0/-1 column is 1, so a finite row has one.
            real = np.flatnonzero(np.abs(self.tableau[row, :-1]) > PIVOT_TOL)
            if not real.size:
                raise NumericFailure("artificial row has no pivot", self.iterations)
            self._pivot(row, int(real[np.argmin(self.nonbasic[real])]))
        self.allowed[self.art_col] = False
        return True

    def extract(self) -> LpSolution:
        """Recompute the vertex and its multipliers from the final basis.

        A basic slack takes up its own row and fixes that row's multiplier
        at 0, so the basis system reduces to its core: the tight rows (those
        whose slack is nonbasic) against the other basic columns, all real:
        phase 1 leaves no artificial basic.  The core is square, of order
        at most the number of variables.  A multiplier that rounds below
        zero by at most ``MULTIPLIER_TOL``, the certificate's zero level, is
        set to zero; one further below fails the solve.
        """
        lp = self.lp
        n_struct = self.n_struct
        is_basic = np.zeros(self.cost.size, dtype=bool)
        is_basic[self.basis] = True
        rows = np.flatnonzero(~is_basic[n_struct : n_struct + lp.num_rows])
        cols = np.flatnonzero(is_basic[:n_struct])
        var, sign = self.col_var[cols], self.col_sign[cols]
        core = lp.constraint_matrix[rows][:, var] * sign
        try:
            x_core = np.linalg.solve(core, lp.rhs[rows])
            y_core = np.linalg.solve(core.T, self.cost[cols])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by pivoting
            raise NumericFailure(f"singular final basis: {exc}", self.iterations)

        primal = np.bincount(var, sign * x_core, minlength=lp.num_vars)

        beta = np.zeros(lp.num_rows)
        beta[rows] = -y_core
        # Each check is written so that a NaN fails it.
        if not np.min(beta) >= -MULTIPLIER_TOL:
            raise NumericFailure(
                f"negative dual multiplier {np.min(beta):.3e}", self.iterations
            )
        beta = np.maximum(beta, 0.0)

        # A row may exceed its rhs by BAND_TOL * max(1, |rhs_i|), or else by
        # its own rounding unit, rounding_tol(|rhs_i|, max |A_i|, x), which
        # is worked out only for the rows beyond the band.  A NaN excess and
        # a unit that is not finite fail.
        excess = lp.constraint_matrix @ primal - lp.rhs
        over = np.flatnonzero(~(excess / np.maximum(1.0, np.abs(lp.rhs)) <= BAND_TOL))
        if over.size:
            unit = rounding_tol(
                np.abs(lp.rhs[over]),
                np.max(np.abs(lp.constraint_matrix[over]), axis=1),
                primal,
            )
            over = over[~((excess[over] <= unit) & np.isfinite(unit))]
        if over.size:
            raise NumericFailure(
                f"optimal basis violates feasibility by {np.max(excess[over]):.3e}",
                self.iterations,
            )

        return LpSolution(
            status=OPTIMAL,
            primal=primal,
            objective_value=float(lp.objective @ primal),
            dual=beta,
            dual_objective=-float(lp.rhs @ beta),
            iterations=self.iterations,
        )


@np.errstate(all="ignore")
def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve an inequality-form LP with Bland's rule.

    The entering column is the lowest-index column with reduced cost below
    ``-PIVOT_TOL``; the leaving row is, among the rows whose ratio lies
    within ``RATIO_TIE_TOL`` of the minimum ratio, the one whose basic
    column has the lowest index.  Columns are numbered as the standard form
    lays them out: each variable in order (a free one as its + and - parts),
    then one slack per row, then the phase-one artificial.

    Returns an optimal vertex plus complementary duals, or a solution with
    status ``infeasible`` / ``unbounded`` and a reason string.  Raises
    NumericFailure when pivoting exceeds the iteration budget of
    ``50 * (rows + vars)`` pivots, and when the tableau stops being finite: the
    ratio test and the end of each phase check for that, and extraction's
    checks fail on NaN, so numpy's floating-point warnings are silenced.
    """
    state = _Simplex(lp, 50 * (lp.num_rows + lp.num_vars))
    feasible = state.phase_one()
    phase_one = state.iterations
    if not feasible:
        return LpSolution(
            status=INFEASIBLE,
            iterations=phase_one,
            phase_one_iterations=phase_one,
            reason="constraints are inconsistent: the infeasibility residual "
            "could not be driven to zero",
        )
    enter = state._optimize(state.cost)
    if enter is not None:
        if enter < state.n_struct:
            var, sign = state.col_var[enter], state.col_sign[enter]
            direction = f"variable {var} toward {'+' if sign > 0 else '-'}infinity"
        else:
            direction = f"the slack of row {enter - state.n_struct}"
        return LpSolution(
            status=UNBOUNDED,
            iterations=state.iterations,
            phase_one_iterations=phase_one,
            reason=f"objective decreases without bound along {direction}",
        )
    solution = state.extract()
    solution.phase_one_iterations = phase_one
    return solution


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
    lam of U_S^T, oriented so that the levelled h = lam . y_S / ||lam||_1 is
    not negative: the weights |lam| / ||lam||_1 then solve the reference
    system, so the reference is a feasible basis of the dual.
    """
    n, r = design.shape
    rows = np.arange(0, n, -(-n // (64 * (r + 1))))
    picked = _independent_rows(design, rows)
    if picked is None:
        picked = _independent_rows(design, np.arange(n))
    miss = np.abs(values - design @ np.linalg.solve(design[picked], values[picked]))
    miss[picked] = -1.0
    reference = np.array(picked + [int(np.argmax(miss))])
    lam = np.linalg.svd(design[reference].T)[2][-1]
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
    r_j and B = [sigma * U_S | 1]^T: the lowest-index point among the
    ratios within ``RATIO_TIE_TOL`` of the least.  Every system is solved
    anew from the data.  After 2 (r + 1) steps without a rise in h the
    entering point is the lowest-index one that improves, which makes the
    rule Bland's, and it does not cycle.  The exchange stops when
    max |r| - h <= tolerance(alpha), the fit's rounding unit.  With n <= r
    the orthonormal design is square, alpha = design^T values and h = 0.

    Returns the ``LpSolution`` of ``fitting.assemble_primal``'s program:
    primal (h, alpha), and 2n multipliers interleaved per point (overshoot,
    undershoot), w_i on the row of the reference point i that its sign
    makes tight and zero elsewhere; ``dual_objective`` is sum w_i sigma_i
    y_i and ``iterations`` counts exchanges.  A weight that rounds below
    zero by at most ``MULTIPLIER_TOL`` is set to zero.  Raises
    NumericFailure past ``budget`` exchanges (50 (n + r + 1) by default),
    on a weight further below zero, and when the systems stop being finite;
    LinAlgError when one is singular, which the ratio test rules out in
    exact arithmetic.
    """
    n, r = design.shape
    if n <= r:
        alpha = design.T @ values
        return LpSolution(
            status=OPTIMAL,
            primal=np.append(0.0, alpha),
            objective_value=0.0,
            dual=np.zeros(2 * n),
            dual_objective=0.0,
        )
    if budget is None:
        budget = 50 * (n + r + 1)
    reference, sigma = _start(design, values)
    unit = np.zeros(r + 1)
    unit[r] = 1.0
    steps = stalled = 0
    best = -np.inf
    while True:
        system = np.empty((r + 1, r + 1))
        system[:, :r] = sigma[:, None] * design[reference]
        system[:, r] = 1.0
        levelled = np.linalg.solve(system, sigma * values[reference])
        weights = np.linalg.solve(system.T, unit)
        alpha, h = levelled[:r], levelled[r]
        residuals = values - design @ alpha
        size = np.abs(residuals)
        slack = float(tolerance(alpha))
        # Written so that a NaN residual, h or unit fails.
        if not (np.all(np.isfinite(size)) and np.isfinite(h) and np.isfinite(slack)):
            raise NumericFailure("the reference system is not finite", steps)
        improving = size - h > slack
        if not improving.any():
            break
        if h > best:
            best, stalled = h, 0
        else:
            stalled += 1
        bland = stalled >= 2 * (r + 1)
        enter = int(np.argmax(improving) if bland else np.argmax(size))
        steps += 1
        if steps > budget:
            raise NumericFailure(
                f"the exchange exceeded its budget of {budget} exchanges", steps
            )
        side = np.sign(residuals[enter])
        column = np.append(side * design[enter], 1.0)
        direction = np.linalg.solve(system.T, column)
        rows = np.flatnonzero(direction > PIVOT_TOL)
        ratios = np.maximum(weights[rows], 0.0) / direction[rows]
        ties = rows[ratios <= ratios.min(initial=np.inf) + RATIO_TIE_TOL]
        if ties.size == 0:
            raise NumericFailure(
                "ratio test kept no reference point: the reference system "
                "is not finite",
                steps,
            )
        leave = int(ties[np.argmin(reference[ties])])
        reference[leave] = enter
        sigma[leave] = side

    # Written so that a NaN weight fails.
    if not np.min(weights) >= -MULTIPLIER_TOL:
        raise NumericFailure(f"negative dual multiplier {np.min(weights):.3e}", steps)
    weights = np.maximum(weights, 0.0)
    dual = np.zeros(2 * n)
    dual[2 * reference + (sigma > 0)] = weights
    return LpSolution(
        status=OPTIMAL,
        primal=np.append(h, alpha),
        objective_value=float(h),
        dual=dual,
        dual_objective=float(weights @ (sigma * values[reference])),
        iterations=steps,
    )


def dual_of(lp: LinearProgram) -> LinearProgram:
    """The dual of an inequality-form LP, itself in inequality form.

    The dual variables are the nonnegative row multipliers ``beta``.  Free
    primal variables induce equality rows ``A^T beta = -objective`` (emitted
    as `<=` pairs), nonnegative ones a single `<=` row.  The emitted problem
    minimizes ``rhs . beta``, so the maximized dual functional of the
    original program is the *negation* of the emitted optimum; two
    applications restore the original optimal value.
    """
    var, sign = _standard_columns(lp)
    # A_j^T beta >= -objective_j is stated as a <= row of sign -1; a free
    # variable's + row before it makes the pair an equality.
    sign[np.array(lp.variable_kinds)[var] != FREE] = -1.0
    return LinearProgram(
        objective=lp.rhs.copy(),
        constraint_matrix=sign[:, None] * lp.constraint_matrix.T[var],
        rhs=-sign * lp.objective[var],
        variable_kinds=(NONNEGATIVE,) * lp.num_rows,
    )
