"""Tests for the exchange, fit's solver, and for the dense tableau simplex
that the tests hold as its reference."""

import itertools
import pathlib
import runpy
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equifit.basis import parse_basis_spec
from equifit.certificates import extract_certificate, verify_identities
from equifit.errors import DimensionMismatch, NumericFailure
from equifit.fitting import ProblemInstance, fit
from equifit.generators import (
    monomial_basis,
    random_small_instance,
    random_weighted_instance,
)
from equifit.lp import _independent_rows, exchange
from equifit.tolerances import WEIGHT_UNIT, rounding_tol

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

# -- The reference: a dense two-phase tableau simplex -----------------------
#
# A general solver for inequality-form LPs, min objective . x subject to
# A x <= rhs, each variable free or nonnegative.  It pivots by Bland's rule
# on the full tableau B^-1 [A_std | I | artificial | rhs], and it is what
# the exchange is checked against on the fit LP (``fit_program``).

# A tableau entry too small to pivot on, and ratios that tie with the least.
PIVOT_TOL = 1e-10
RATIO_TIE_TOL = 1e-12
# A phase-1 level that counts as zero, relative to max(1, max |rhs|); the
# multipliers' zero level; how far a recomputed row may exceed its rhs,
# relative to max(1, |rhs_i|), before its own rounding unit is asked.
FEAS_TOL = 1e-9
MULTIPLIER_TOL = 1e-9
BAND_TOL = 100 * FEAS_TOL

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
class Solution:
    """A solve's status; at an optimum its vertex, objective value, the
    nonnegative row multipliers and the maximized dual value -rhs . dual;
    else ``reason``.  ``iterations`` counts the pivots of both phases."""

    status: str
    primal: np.ndarray | None = None
    objective_value: float | None = None
    dual: np.ndarray | None = None
    dual_objective: float | None = None
    iterations: int = 0
    phase_one_iterations: int = 0
    reason: str = ""


def standard_columns(lp):
    """Per standard column, the variable it stands for and its sign: a free
    variable splits into two adjacent nonnegative columns, + then -."""
    free = np.array([kind == FREE for kind in lp.variable_kinds])
    var = np.repeat(np.arange(free.size), 1 + free)
    return var, np.where(np.diff(var, prepend=-1) == 0, -1.0, 1.0)


class Tableau:
    """The dense tableau of one solve.  Columns carry labels in the
    standard-form order: each variable (a free one as its + then - part),
    one slack per row, then the artificial when some rhs is negative.
    ``basis[i]`` is the label basic in row i."""

    def __init__(self, lp: LinearProgram, max_iterations: int):
        self.lp = lp
        self.max_iterations = max_iterations
        self.iterations = 0
        r = lp.num_rows
        self.col_var, self.col_sign = standard_columns(lp)
        self.n_struct = self.col_var.size
        self.needs_artificial = bool(np.any(lp.rhs < 0))
        self.art_col = self.n_struct + r if self.needs_artificial else -1
        blocks = [lp.constraint_matrix[:, self.col_var] * self.col_sign, np.eye(r)]
        if self.needs_artificial:
            blocks.append(np.where(lp.rhs < 0, -1.0, 0.0)[:, None])
        self.tableau = np.hstack(blocks + [lp.rhs[:, None]])
        self.basis = np.arange(self.n_struct, self.n_struct + r)
        self.cost = np.zeros(self.tableau.shape[1] - 1)
        self.cost[: self.n_struct] = lp.objective[self.col_var] * self.col_sign
        self.allowed = np.ones(self.cost.size, dtype=bool)

    def pivot(self, row: int, col: int):
        t = self.tableau
        t[row] /= t[row, col]
        factors = t[:, col].copy()
        factors[row] = 0.0
        t -= np.outer(factors, t[row])
        t[:, col] = 0.0
        t[row, col] = 1.0
        self.basis[row] = col
        self.iterations += 1
        if self.iterations > self.max_iterations:
            raise NumericFailure(
                f"simplex exceeded {self.max_iterations} pivots",
                iterations=self.iterations,
            )

    def optimize(self, cost: np.ndarray):
        """Pivot by Bland's rule until no allowed column improves ``cost``:
        the lowest improving label enters, and among the rows whose ratio
        lies within RATIO_TIE_TOL of the least, the one whose basic label is
        lowest leaves.  Returns None at the optimum, or the entering label
        when the objective decreases without bound along it; NumericFailure
        when the tableau it stops on is not finite."""
        t = self.tableau
        enter = None
        while True:
            # Only the basic rows with nonzero cost enter the reduced costs.
            basic_cost = cost[self.basis]
            costed = np.flatnonzero(basic_cost)
            reduced = cost - basic_cost[costed] @ t[costed, :-1]
            reduced[self.basis] = 0.0
            improving = np.flatnonzero(self.allowed & (reduced < -PIVOT_TOL))
            if improving.size == 0:
                enter = None
                break
            enter = int(improving[0])
            rows = np.flatnonzero(t[:, enter] > PIVOT_TOL)
            if rows.size == 0:
                break
            ratios = t[rows, -1] / t[rows, enter]
            ties = rows[ratios <= ratios.min() + RATIO_TIE_TOL]
            if ties.size == 0:
                # A NaN ratio makes the minimum NaN, and no row compares to it.
                raise NumericFailure(
                    "ratio test kept no row: the tableau is not finite",
                    iterations=self.iterations,
                )
            self.pivot(int(ties[np.argmin(self.basis[ties])]), enter)
        # NaN reduced costs and ratios compare false, so check the verdict.
        if not np.all(np.isfinite(t)):
            raise NumericFailure("the tableau is not finite", self.iterations)
        return enter

    def phase_one(self) -> bool:
        """Drive the artificial to zero; False if the rows are inconsistent.
        One pivot of the artificial on the most negative row makes the
        tableau feasible."""
        if not self.needs_artificial:
            return True
        self.pivot(int(np.argmin(self.tableau[:, -1])), self.art_col)
        phase_cost = np.zeros_like(self.cost)
        phase_cost[self.art_col] = 1.0
        if self.optimize(phase_cost) is not None:
            raise NumericFailure(
                "phase 1 claims an unbounded direction", self.iterations
            )
        where = np.flatnonzero(self.basis == self.art_col)
        if where.size:
            row = int(where[0])
            # A level below FEAS_TOL * max(1, max |rhs|) counts as zero.
            if self.tableau[row, -1] > FEAS_TOL * max(1.0, np.max(np.abs(self.lp.rhs))):
                return False
            # Pivot the artificial out for the lowest real label that can
            # take its place: its row of B^-1 times its 0/-1 column is 1, so
            # a finite row has one, and basic columns are 0 there.
            real = np.flatnonzero(np.abs(self.tableau[row, : self.art_col]) > PIVOT_TOL)
            if not real.size:
                raise NumericFailure("artificial row has no pivot", self.iterations)
            self.pivot(row, int(real[0]))
        self.allowed[self.art_col] = False
        return True

    def extract(self) -> Solution:
        """The vertex and its multipliers from the final basis's square
        core: the tight rows (nonbasic slack) against the basic structural
        columns.  A multiplier below -MULTIPLIER_TOL, and a row exceeded by
        more than BAND_TOL * max(1, |rhs_i|) and its own rounding unit,
        rounding_tol(|rhs_i|, max |A_i|, x), fail the solve."""
        lp, n_struct = self.lp, self.n_struct
        is_basic = np.zeros(self.cost.size, dtype=bool)
        is_basic[self.basis] = True
        rows = np.flatnonzero(~is_basic[n_struct : n_struct + lp.num_rows])
        cols = np.flatnonzero(is_basic[:n_struct])
        var, sign = self.col_var[cols], self.col_sign[cols]
        core = lp.constraint_matrix[rows][:, var] * sign
        primal = np.bincount(
            var, sign * np.linalg.solve(core, lp.rhs[rows]), minlength=lp.num_vars
        )
        beta = np.zeros(lp.num_rows)
        beta[rows] = -np.linalg.solve(core.T, self.cost[cols])
        if not np.min(beta) >= -MULTIPLIER_TOL:
            raise NumericFailure(
                f"negative dual multiplier {np.min(beta):.3e}", self.iterations
            )
        beta = np.maximum(beta, 0.0)
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
        return Solution(
            status=OPTIMAL,
            primal=primal,
            objective_value=float(lp.objective @ primal),
            dual=beta,
            dual_objective=-float(lp.rhs @ beta),
            iterations=self.iterations,
        )


@np.errstate(all="ignore")
def reference_solve(lp: LinearProgram) -> Solution:
    """Solve ``lp`` on a dense tableau: phase 1, then phase 2, then
    extraction.  Raises NumericFailure past 50 * (rows + vars) pivots and
    when the tableau stops being finite."""
    state = Tableau(lp, 50 * (lp.num_rows + lp.num_vars))
    feasible = state.phase_one()
    phase_one = state.iterations
    if not feasible:
        return Solution(
            status=INFEASIBLE,
            iterations=phase_one,
            phase_one_iterations=phase_one,
            reason="constraints are inconsistent",
        )
    enter = state.optimize(state.cost)
    if enter is not None:
        if enter < state.n_struct:
            var, sign = state.col_var[enter], state.col_sign[enter]
            direction = f"variable {var} toward {'+' if sign > 0 else '-'}infinity"
        else:
            direction = f"the slack of row {enter - state.n_struct}"
        return Solution(
            status=UNBOUNDED,
            iterations=state.iterations,
            phase_one_iterations=phase_one,
            reason=f"objective decreases without bound along {direction}",
        )
    solution = state.extract()
    solution.phase_one_iterations = phase_one
    return solution


def dual_of(lp: LinearProgram) -> LinearProgram:
    """The dual of an inequality-form LP, in inequality form: nonnegative
    row multipliers beta, A^T beta = -objective on the free variables (as
    <= pairs) and >= on the nonnegative ones, minimizing rhs . beta, the
    negation of the maximized dual functional."""
    var, sign = standard_columns(lp)
    # A_j^T beta >= -objective_j is stated as a <= row of sign -1; a free
    # variable's + row before it makes the pair an equality.
    sign[np.array(lp.variable_kinds)[var] != FREE] = -1.0
    return LinearProgram(
        objective=lp.rhs.copy(),
        constraint_matrix=sign[:, None] * lp.constraint_matrix.T[var],
        rhs=-sign * lp.objective[var],
        variable_kinds=(NONNEGATIVE,) * lp.num_rows,
    )


def fit_program(instance):
    """The fit LP of an instance: variables (bound, then one coefficient per
    column of the lifted design), rows interleaved per point as (overshoot
    row u_i alpha - z <= y_i, undershoot row -u_i alpha - z <= -y_i)."""
    g, y = instance.lifted_design_and_values()
    n, r = g.shape
    matrix = np.empty((2 * n, r + 1))
    matrix[:, 0] = -1.0
    matrix[0::2, 1:], matrix[1::2, 1:] = g, -g
    objective = np.zeros(r + 1)
    objective[0] = 1.0
    return LinearProgram(
        objective=objective,
        constraint_matrix=matrix,
        rhs=np.ravel(np.column_stack([y, -y])),
        variable_kinds=(FREE,) * (r + 1),
    )


def enumerate_vertex_optimum(lp):
    """Independent check: enumerate all basis-sized row subsets, solve each
    square system, keep feasible points, return the best objective.

    Only valid for all-free variables and bounded problems; used to verify
    the simplex on small instances.  A point is feasible within the phase-1
    allowance FEAS_TOL * max(1, max |b|) that ``reference_solve`` grants.
    """
    a = lp.constraint_matrix
    b = lp.rhs
    v = lp.num_vars
    slack = FEAS_TOL * max(1.0, float(np.max(np.abs(b))))
    best = None
    best_x = None
    for subset in itertools.combinations(range(lp.num_rows), v):
        sub = a[list(subset)]
        try:
            x = np.linalg.solve(sub, b[list(subset)])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.all(a @ x <= b + slack):
            value = float(lp.objective @ x)
            if best is None or value < best - 1e-12:
                best = value
                best_x = x
    return best, best_x


def constant_basis_lp():
    """Rows of the two-point constant fit: alpha - z <= 0, -alpha - z <= 0,
    alpha - z <= 1, -alpha - z <= -1."""
    return LinearProgram(
        objective=[0.0, 1.0],
        constraint_matrix=[[1, -1], [-1, -1], [1, -1], [-1, -1]],
        rhs=[0.0, 0.0, 1.0, -1.0],
        variable_kinds=(FREE, FREE),
    )


def test_single_tight_constraint():
    lp = LinearProgram(
        objective=[1.0],
        constraint_matrix=[[-1.0]],
        rhs=[-3.0],
        variable_kinds=(FREE,),
    )
    sol = reference_solve(lp)
    assert sol.status == OPTIMAL
    assert sol.primal == pytest.approx([3.0])
    assert sol.objective_value == pytest.approx(3.0)
    assert sol.dual == pytest.approx([1.0])


def test_two_variable_polyhedron_matches_vertex_enumeration():
    lp = constant_basis_lp()
    sol = reference_solve(lp)
    best, best_x = enumerate_vertex_optimum(lp)
    assert best == pytest.approx(0.5)
    assert best_x == pytest.approx([0.5, 0.5])
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(best, abs=1e-12)
    assert sol.primal == pytest.approx([0.5, 0.5], abs=1e-12)


def test_unbounded_below():
    lp = LinearProgram(
        objective=[1.0],
        constraint_matrix=[[1.0]],
        rhs=[5.0],
        variable_kinds=(FREE,),
    )
    sol = reference_solve(lp)
    assert sol.status == UNBOUNDED
    assert sol.reason


@pytest.mark.parametrize(
    "kinds",
    [(NONNEGATIVE,), (NONNEGATIVE, FREE)],
    ids=["one-variable", "free-second-variable"],
)
def test_unbounded_reason_names_the_row_whose_slack_grows(kinds):
    # min -x s.t. -x <= -1, x >= 0: after phase 1, x = 1 + s is basic and
    # the objective falls as the slack s of the one row grows.
    lp = LinearProgram(
        objective=[-1.0] + [0.0] * (len(kinds) - 1),
        constraint_matrix=[[-1.0] + [0.0] * (len(kinds) - 1)],
        rhs=[-1.0],
        variable_kinds=kinds,
    )
    sol = reference_solve(lp)
    assert sol.status == UNBOUNDED
    assert sol.reason == "objective decreases without bound along the slack of row 0"


def test_infeasible_pair():
    lp = LinearProgram(
        objective=[1.0],
        constraint_matrix=[[1.0], [-1.0]],
        rhs=[0.0, -3.0],
        variable_kinds=(FREE,),
    )
    sol = reference_solve(lp)
    assert sol.status == INFEASIBLE
    assert sol.reason


def test_nonnegative_variable_kind_respected():
    # minimize -x subject to x <= 4, x >= 0
    lp = LinearProgram(
        objective=[-1.0],
        constraint_matrix=[[1.0]],
        rhs=[4.0],
        variable_kinds=(NONNEGATIVE,),
    )
    sol = reference_solve(lp)
    assert sol.status == OPTIMAL
    assert sol.primal == pytest.approx([4.0])


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        LinearProgram(
            objective=[1.0, 2.0],
            constraint_matrix=[[1.0]],
            rhs=[1.0],
            variable_kinds=(FREE,),
        )
    with pytest.raises(DimensionMismatch):
        LinearProgram(
            objective=[np.inf],
            constraint_matrix=[[1.0]],
            rhs=[1.0],
            variable_kinds=(FREE,),
        )


def test_complementary_slackness_and_strong_duality():
    lp = constant_basis_lp()
    sol = reference_solve(lp)
    slack = lp.rhs - lp.constraint_matrix @ sol.primal
    for i, beta in enumerate(sol.dual):
        assert beta >= 0
        if beta > 1e-9:
            assert slack[i] <= 1e-7
    gap = abs(sol.objective_value - sol.dual_objective)
    assert gap <= 1e-8 * max(1.0, abs(sol.objective_value))


def test_dual_of_reproduces_primal_duals():
    lp = constant_basis_lp()
    sol = reference_solve(lp)
    dual = dual_of(lp)
    assert dual.num_vars == 4
    assert all(kind == NONNEGATIVE for kind in dual.variable_kinds)
    dual_sol = reference_solve(dual)
    assert dual_sol.status == OPTIMAL
    # The emitted problem minimizes rhs.beta, so the maximized dual value is
    # its negation.
    assert -dual_sol.objective_value == pytest.approx(0.5, abs=1e-9)
    assert dual_sol.primal == pytest.approx(sol.dual, abs=1e-9)


def test_one_row_dual_value():
    lp = LinearProgram(
        objective=[1.0],
        constraint_matrix=[[-1.0]],
        rhs=[-3.0],
        variable_kinds=(FREE,),
    )
    dual = reference_solve(dual_of(lp))
    assert dual.status == OPTIMAL
    assert -dual.objective_value == pytest.approx(3.0, abs=1e-9)


def test_double_dual_restores_optimal_value():
    for lp in (
        constant_basis_lp(),
        LinearProgram(
            objective=[1.0],
            constraint_matrix=[[-1.0]],
            rhs=[-3.0],
            variable_kinds=(FREE,),
        ),
    ):
        original = reference_solve(lp)
        twice = reference_solve(dual_of(dual_of(lp)))
        assert twice.status == OPTIMAL
        assert twice.objective_value == pytest.approx(
            original.objective_value, abs=1e-9
        )


def test_determinism():
    # Two fits of one instance take the same exchanges to the same bits.
    instance = random_small_instance(np.random.default_rng(5))
    first, second = fit(instance).lp_solution, fit(instance).lp_solution
    assert first.iterations == second.iterations >= 1
    for name in ("primal", "reference", "signs", "weights"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name
    assert first.dual_objective == second.dual_objective


def test_iteration_budget_reported():
    state = Tableau(constant_basis_lp(), max_iterations=1)
    with pytest.raises(NumericFailure) as err:
        state.phase_one()
        state.optimize(state.cost)
    assert err.value.iterations is not None


@st.composite
def random_bounded_lp(draw):
    """Small random LPs with a box constraint so they stay bounded.

    Matrix entries are zero or bounded away from the pivot tolerance; the
    solver does not rescale pathologically-scaled rows (no presolve).
    """
    v = draw(st.integers(1, 3))
    r = draw(st.integers(1, 4))
    entries = st.floats(-5, 5, allow_nan=False, allow_infinity=False).map(
        lambda x: 0.0 if abs(x) < 1e-3 else x
    )
    a = [[draw(entries) for _ in range(v)] for _ in range(r)]
    b = [draw(st.floats(-3, 10, allow_nan=False, allow_infinity=False)) for _ in range(r)]
    c = [draw(entries) for _ in range(v)]
    # Box rows keep every variable in [-20, 20].
    for j in range(v):
        row = [0.0] * v
        row[j] = 1.0
        a.append(row)
        b.append(20.0)
        row = [0.0] * v
        row[j] = -1.0
        a.append(row)
        b.append(20.0)
    return LinearProgram(
        objective=c,
        constraint_matrix=a,
        rhs=b,
        variable_kinds=(FREE,) * v,
    )


@given(random_bounded_lp())
# Phase 1 accepts the 1.1e-9 violation of row 0 under its allowance of 2e-8.
@example(
    LinearProgram(
        objective=[0.0],
        constraint_matrix=[[0.0], [1.0], [-1.0]],
        rhs=[-1.14117128e-09, 20.0, 20.0],
        variable_kinds=(FREE,),
    )
)
# The optimum is 0 at x = 0, but the reference's allowance of 2e-8 on the
# row -0.5 x <= 0 reaches x = -4e-8, an objective 1.2e-7 lower.
@example(
    LinearProgram(
        objective=[3.0],
        constraint_matrix=[[-0.25], [0.0], [0.0], [-0.5], [1.0], [-1.0]],
        rhs=[1e-8, 0.0, 0.0, 0.0, 20.0, 20.0],
        variable_kinds=(FREE,),
    )
)
@settings(max_examples=150, deadline=None)
def test_weak_and_strong_duality_on_random_instances(lp):
    sol = reference_solve(lp)
    assert sol.status in (OPTIMAL, INFEASIBLE)
    if sol.status != OPTIMAL:
        return
    scale = max(1.0, abs(sol.objective_value))
    # Strong duality at the returned pair.
    assert abs(sol.objective_value - sol.dual_objective) <= 1e-8 * scale
    # Feasibility of both sides.
    assert np.all(
        lp.constraint_matrix @ sol.primal - lp.rhs
        <= 1e-7 * np.maximum(1.0, np.abs(lp.rhs))
    )
    assert np.all(sol.dual >= 0)
    stationarity = lp.constraint_matrix.T @ sol.dual + lp.objective
    assert np.max(np.abs(stationarity)) <= 1e-7 * scale
    # Vertex enumeration agrees on the optimal value.  Its vertices may
    # break each row by the allowance, and by weak duality that lowers the
    # optimum by at most the allowance times the sum of the multipliers.
    best, _ = enumerate_vertex_optimum(lp)
    assert best is not None
    allowance = FEAS_TOL * max(1.0, float(np.max(np.abs(lp.rhs)))) * np.sum(sol.dual)
    assert sol.objective_value >= best - 1e-7 * scale
    assert sol.objective_value <= best + 1e-7 * scale + allowance


def test_beale_cycling_example_terminates_under_bland():
    """Beale's LP: every ratio test in its first pivots ties at zero, and
    a largest-coefficient rule with naive tie breaking cycles on it."""
    lp = LinearProgram(
        objective=[-0.75, 20.0, -0.5, 6.0],
        constraint_matrix=[
            [0.25, -8.0, -1.0, 9.0],
            [0.5, -12.0, -0.5, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        rhs=[0.0, 0.0, 1.0],
        variable_kinds=(NONNEGATIVE,) * 4,
    )
    sol = reference_solve(lp)
    assert sol.status == OPTIMAL
    assert sol.iterations == 6
    assert sol.phase_one_iterations == 0
    assert sol.objective_value == pytest.approx(-1.25, abs=1e-12)
    assert np.allclose(sol.primal, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(sol.dual, [0.0, 1.5, 1.25], atol=1e-12)


def _loop_bland(state, cost):
    """Reference for ``Tableau.optimize``: pricing over every row, and both
    pivot choices made by plain loops over the labels and rows."""
    t = state.tableau
    while True:
        reduced = cost - cost[state.basis] @ t[:, :-1]
        enter = None
        for label in range(len(cost)):
            if label in state.basis or not state.allowed[label]:
                continue
            if reduced[label] < -PIVOT_TOL:
                enter = label
                break
        if enter is None:
            return None
        ratios = {}
        for i in range(len(state.basis)):
            if t[i, enter] > PIVOT_TOL:
                ratios[i] = t[i, -1] / t[i, enter]
        if not ratios:
            return enter
        low = min(ratios.values())
        tied = [i for i, ratio in ratios.items() if ratio <= low + RATIO_TIE_TOL]
        state.pivot(min(tied, key=lambda i: state.basis[i]), enter)


def test_pivot_choices_match_a_loop_reference(monkeypatch):
    # Small integer data make degenerate vertices and ratio ties common.
    rng = np.random.default_rng(11)
    problems = []
    for _ in range(150):
        r, v = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        problems.append(
            LinearProgram(
                objective=rng.integers(-3, 4, v),
                constraint_matrix=rng.integers(-2, 3, (r, v)),
                rhs=rng.integers(-1, 3, r),
                variable_kinds=tuple(rng.choice([FREE, NONNEGATIVE], v)),
            )
        )
    solved = [reference_solve(lp) for lp in problems]
    monkeypatch.setattr(Tableau, "optimize", _loop_bland)
    for lp, sol in zip(problems, solved):
        ref = reference_solve(lp)
        assert (ref.status, ref.iterations) == (sol.status, sol.iterations)
        assert ref.reason == sol.reason
        if sol.status == OPTIMAL:
            assert np.array_equal(ref.primal, sol.primal)
            assert np.array_equal(ref.dual, sol.dual)
    assert {sol.status for sol in solved} == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def seeded_lps():
    """The 150 small integer LPs of the loop-reference test above."""
    rng = np.random.default_rng(11)
    for _ in range(150):
        r, v = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        yield LinearProgram(
            objective=rng.integers(-3, 4, v),
            constraint_matrix=rng.integers(-2, 3, (r, v)),
            rhs=rng.integers(-1, 3, r),
            variable_kinds=tuple(rng.choice([FREE, NONNEGATIVE], v)),
        )


def fit_instance(n, weighted, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    y = np.sin(rng.uniform(1.0, 6.0) * x + rng.uniform(0.0, np.pi))
    y = y + rng.normal(0.0, 0.05, n)
    weights = rng.uniform(0.1, 10.0, n) if weighted else None
    basis = parse_basis_spec("1, x, x^2, x^3", 1)
    return ProblemInstance(points=x[:, None], values=y, basis=basis, weights=weights)


@pytest.mark.parametrize("n", [12, 300])
@pytest.mark.parametrize("weighted", [False, True])
def test_fit_lps_match_the_dense_reference(n, weighted):
    # The exchange's optimum is the tableau's within the fit's rounding
    # unit, and its weights, on the rows their signs make tight, are
    # multipliers of the tableau's program: nonnegative, dual feasible
    # (A^T beta = -objective) and of dual value -rhs . beta, its optimum.
    for seed in range(3):
        instance = fit_instance(n, weighted, seed)
        lp = fit_program(instance)
        reference = reference_solve(lp)
        solution = exchange(*instance.lifted_design_and_values(), instance.rounding_tol)
        unit = instance.rounding_tol(solution.primal[1:])
        assert abs(solution.objective_value - reference.objective_value) <= unit
        beta = np.zeros(lp.num_rows)
        beta[2 * solution.reference + (solution.signs > 0)] = solution.weights
        assert np.all(beta >= 0)
        stationarity = lp.constraint_matrix.T @ beta + lp.objective
        assert np.max(np.abs(stationarity)) <= WEIGHT_UNIT
        assert abs(-lp.rhs @ beta - reference.objective_value) <= unit


def test_phase_one_of_a_fit_lp_ends_in_two_pivots():
    # The bound is the first column: after the artificial's pivot onto the
    # most negative row, Bland's rule enters it there, and phase 1 is done.
    for seed in range(30):
        rng = np.random.default_rng(seed)
        for instance in (random_small_instance(rng), random_weighted_instance(rng)):
            solution = reference_solve(fit_program(instance))
            assert solution.phase_one_iterations <= 2
            assert solution.iterations >= solution.phase_one_iterations


def float_limit_line_lp():
    """The fit LP of the line through five values near 1e307, one of them 0,
    on the columns 1 and x themselves: variables (bound, constant, slope),
    rows interleaved per point as (overshoot row, undershoot row)."""
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    y = np.array([4.5e307, 0.0, 5e307, -4e307, 1e307])
    rows = np.column_stack([-np.ones(5), np.ones(5), x])
    matrix = np.empty((10, 3))
    matrix[0::2], matrix[1::2] = rows, rows * [1.0, -1.0, -1.0]
    return LinearProgram(
        objective=[1.0, 0.0, 0.0],
        constraint_matrix=matrix,
        rhs=np.ravel(np.column_stack([y, -y])),
        variable_kinds=(FREE,) * 3,
    )


def row_rounding_unit(lp, i, x):
    """Row i's own rounding unit at x: rounding_tol(|rhs_i|, max |A_i|, x)."""
    return rounding_tol(np.abs(lp.rhs[i]), np.max(np.abs(lp.constraint_matrix[i])), x)


def test_a_vertex_may_miss_a_row_by_its_own_rounding():
    # Row 2, the overshoot row of the point with y = 0, has rhs 0: its
    # recomputed excess is about 2.5e291, far past the BAND_TOL band, and
    # within the row's rounding unit at values near 1e307, about 2.4e294.
    lp = float_limit_line_lp()
    sol = reference_solve(lp)
    assert sol.status == OPTIMAL
    assert sol.primal == pytest.approx([3.5e307, 5.5e307, -8e307], rel=1e-12)
    excess = lp.constraint_matrix[2] @ sol.primal - lp.rhs[2]
    assert lp.rhs[2] == 0.0
    assert excess == pytest.approx(2.495e291, rel=1e-3)
    assert row_rounding_unit(lp, 2, sol.primal) == pytest.approx(2.416e294, rel=1e-3)
    assert BAND_TOL < excess <= row_rounding_unit(lp, 2, sol.primal)


def test_a_row_whose_terms_overflow_is_judged_in_its_unit():
    # Doubling row 2 keeps every term finite, and doubles its excess, but
    # its terms summed in magnitude overflow.  The row's unit scales each
    # term by 64 eps first, so it stays finite and admits the row.
    lp = float_limit_line_lp()
    lp.constraint_matrix[2] *= 2.0
    with np.errstate(over="ignore"):
        assert np.abs(lp.constraint_matrix[2]) @ [3.5e307, 5.5e307, 8e307] == np.inf
    sol = reference_solve(lp)
    assert sol.status == OPTIMAL
    assert sol.primal == pytest.approx([3.5e307, 5.5e307, -8e307], rel=1e-12)
    excess = lp.constraint_matrix[2] @ sol.primal - lp.rhs[2]
    assert excess == pytest.approx(4.99e291, rel=1e-3)
    unit = row_rounding_unit(lp, 2, sol.primal)
    assert unit == pytest.approx(4.832e294, rel=1e-3)
    assert excess <= unit


def bound_and_tiny_row_lp(second_bound):
    """minimize -x1 - x2 over x >= 0 with x1 <= 1e308, x2 <= second_bound
    and 1e-300 x1 <= 0: the last row's entry is below PIVOT_TOL, so the
    ratio test passes over it, x1 goes to 1e308, and that row is off by
    1e8, far beyond the rounding of its own terms, which are near 1e8."""
    return LinearProgram(
        objective=[-1.0, -1.0],
        constraint_matrix=[[1.0, 0.0], [0.0, 1.0], [1e-300, 0.0]],
        rhs=[1e308, second_bound, 0.0],
        variable_kinds=(NONNEGATIVE, NONNEGATIVE),
    )


def test_a_rounding_allowance_that_overflows_refuses_the_vertex():
    # With x2 <= 1, the tiny row's unit is about 1.4e-6, and its excess of
    # 1e8 refuses the vertex.  With x2 <= 1e308, ||x||_1 overflows, so the
    # unit is not finite and refuses the vertex by itself.
    lp = bound_and_tiny_row_lp(1.0)
    assert row_rounding_unit(lp, 2, [1e308, 1.0]) == pytest.approx(1.421e-6, rel=1e-3)
    lp_overflow = bound_and_tiny_row_lp(1e308)
    with np.errstate(over="ignore"):
        assert row_rounding_unit(lp_overflow, 2, [1e308, 1e308]) == np.inf
    for lp in (lp, lp_overflow):
        with pytest.raises(NumericFailure, match=r"violates feasibility by 1\.000e\+08"):
            reference_solve(lp)


def test_an_ordinary_row_violation_is_refused():
    # The row 1e-10 x <= 0 has no entry above PIVOT_TOL, so the ratio test
    # passes over it and x goes to 1e4: the row is off by 1e-6.
    lp = LinearProgram(
        objective=[-1.0],
        constraint_matrix=[[1.0], [1e-10]],
        rhs=[1e4, 0.0],
        variable_kinds=(NONNEGATIVE,),
    )
    with pytest.raises(NumericFailure, match=r"violates feasibility by 1\.000e-06"):
        reference_solve(lp)


def exchange_with_the_weight(value, monkeypatch):
    """The exchange on the hat, whose first reference is its three points,
    so that it stops with no step, with the least of the weights it solves
    for, (1/4, 1/2, 1/4), replaced by value.  The weights solve
    B w = e_(r+1), B the reference system transposed, whose last row is all
    ones."""
    solve = np.linalg.solve

    def patched(a, b):
        x = solve(a, b)
        if np.all(a[-1] == 1.0) and np.array_equal(b, [0.0, 0.0, 1.0]):
            x[np.argmin(x)] = value
        return x

    monkeypatch.setattr(np.linalg, "solve", patched)
    instance = ProblemInstance(
        points=[[0.0], [1.0], [2.0]],
        values=[0.0, 1.0, 0.0],
        basis=parse_basis_spec("1, x", 1),
    )
    return exchange(*instance.lifted_design_and_values(), instance.rounding_tol)


def test_a_multiplier_below_the_certificates_zero_level_is_refused(monkeypatch):
    # The zero level is the weights' unit, 64 eps = 1.4e-14.
    for value, shown in ((-1e-8, r"-1\.000e-08"), (-1e-13, r"-1\.000e-13")):
        with pytest.raises(NumericFailure, match=f"negative dual multiplier {shown}"):
            exchange_with_the_weight(value, monkeypatch)
        monkeypatch.undo()


def test_a_multiplier_within_the_certificates_zero_level_is_zero(monkeypatch):
    solution = exchange_with_the_weight(-1e-15, monkeypatch)
    assert solution.iterations == 0
    assert sorted(solution.weights.tolist()) == [0.0, 0.25, 0.5]


@pytest.mark.parametrize("n, m", [(1000, 4), (10_000, 6)])
def test_a_fit_peaks_within_six_doubles_per_point(n, m):
    # Beyond the instance, a fit holds a few n-vectors (the residuals,
    # their magnitudes, the lifted residuals, and on a step of Bland's rule
    # the improving mask) and O(r^2) more: 5.2 and 4.1 doubles per point
    # measured here.  Six is the bound that scripts/large_fit.py gates at
    # n = 1e5 and 1e6.
    x = np.linspace(0.0, 1.0, n)
    y = np.sin(3.0 * x) + np.random.default_rng(0).normal(0.0, 0.01, n)
    instance = ProblemInstance(points=x[:, None], values=y, basis=monomial_basis(m))
    tracemalloc.start()
    try:
        fit(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * n * 8


def test_phase_one_never_leaves_the_artificial_basic():
    # The artificial's row of B^-1 times its 0/-1 column is 1, so on a
    # finite tableau phase 1 can always pivot it out.
    lps = list(seeded_lps())
    lps += [
        fit_program(fit_instance(n, weighted, seed))
        for n in (12, 300)
        for weighted in (False, True)
        for seed in range(3)
    ]
    pivoted_out = 0
    for lp in lps:
        state = Tableau(lp, 50 * (lp.num_rows + lp.num_vars))
        if state.phase_one():
            assert state.art_col not in state.basis
            pivoted_out += state.needs_artificial
    assert pivoted_out >= 50


def test_a_phase_one_tableau_that_is_not_finite_is_a_numeric_failure():
    # Pivots on entries of order 1e300 overflow the tableau to NaN, and the
    # artificial cannot leave the basis.
    lp = LinearProgram(
        objective=[2.0, 0.0],
        constraint_matrix=[[-2e300, 1e200], [0.0, 2e300], [2e-300, -1e300]],
        rhs=[1e-300, 0.0, -2e300],
        variable_kinds=(NONNEGATIVE, NONNEGATIVE),
    )
    with pytest.raises(NumericFailure, match="not finite"):
        reference_solve(lp)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"constraint_matrix": [1.0, 2.0]}, "must be two-dimensional"),
        ({"constraint_matrix": np.zeros((0, 2)), "rhs": []}, "at least one row"),
        ({"rhs": [1.0]}, r"rhs has shape \(1,\), expected \(2,\)"),
        ({"variable_kinds": (FREE,)}, "1 variable kinds for 2 variables"),
        ({"variable_kinds": (FREE, "integer")}, "unknown variable kind 'integer'"),
    ],
    ids=["not-2d", "no-rows", "rhs-shape", "kinds-count", "unknown-kind"],
)
def test_lp_validation_names_the_bad_input(changes, message):
    data = {
        "objective": [1.0, 1.0],
        "constraint_matrix": [[1.0, 0.0], [0.0, 1.0]],
        "rhs": [1.0, 1.0],
        "variable_kinds": (FREE, NONNEGATIVE),
        **changes,
    }
    with pytest.raises(DimensionMismatch, match=message):
        LinearProgram(**data)


@pytest.mark.parametrize(
    "matrix, rhs, objective, kinds",
    [
        (
            [[-2, -1e200], [0, -2e200], [-2, 0], [-1e-300, -2]],
            [2, -1, -2, -2e150],
            [0, 0],
            (FREE, NONNEGATIVE),
        ),
        ([[0, 1e300], [1e-300, 2]], [2e300, -1e300], [-1, 1], (NONNEGATIVE, FREE)),
        (
            [
                [-1e150, -2e150],
                [2e150, -2e150],
                [-1e150, -1e300],
                [0, 2e200],
                [-2e200, -1],
            ],
            [-1e300, -2e300, 1, -2e300, 1],
            [-1, 1],
            (FREE, FREE),
        ),
    ],
    ids=["once-optimal", "once-unbounded", "once-infeasible"],
)
def test_no_status_is_read_off_a_tableau_that_is_not_finite(
    matrix, rhs, objective, kinds
):
    # Pivots on entries of order 1e300 leave NaN or inf in the tableau, and
    # NaN reduced costs or ratios compare false.  Read as they stood, these
    # tableaux said optimal, unbounded and infeasible.
    lp = LinearProgram(
        objective=objective, constraint_matrix=matrix, rhs=rhs, variable_kinds=kinds
    )
    with pytest.raises(NumericFailure, match="the tableau is not finite"):
        reference_solve(lp)


# -- The exchange: fit's solver, on the (r + 1)-row dual of the fit LP -------


def two_d_instance(rng):
    n = int(rng.integers(8, 25))
    points = rng.uniform(-1.0, 1.0, (n, 2))
    values = np.sin(2.0 * points[:, 0]) + points[:, 1] ** 2 + 0.1 * rng.normal(size=n)
    spec = ("1, x, y", "1, x, y, x*y")[int(rng.integers(0, 2))]
    return ProblemInstance(points=points, values=values, basis=parse_basis_spec(spec, 2))


def census_dependent_instances(count):
    """The first ``count`` instances of the dependent-lists family of
    scripts/census.py: 1-D lists at x, 2-D ones at collinear points."""
    census = runpy.run_path(str(SCRIPTS / "census.py"))
    for points, y, basis in census["dependent_instances"](count):
        yield ProblemInstance(points=points, values=y, basis=basis)


def degenerate_instance(rng):
    """Integer values at repeated integer abscissae, fitted by 1, x, x^2:
    steps that do not raise h, and ties in the ratio test, are common (6
    and 14 of the 34 steps of seeds 0 to 24)."""
    n = int(rng.integers(6, 13))
    x = rng.integers(-2, 3, n).astype(float)
    y = rng.integers(-1, 2, n).astype(float)
    return ProblemInstance(points=x[:, None], values=y, basis=monomial_basis(3))


def seeded(family):
    return lambda count: (family(np.random.default_rng(seed)) for seed in range(count))


@pytest.mark.parametrize(
    "instances",
    [
        seeded(random_small_instance),
        seeded(random_weighted_instance),
        seeded(two_d_instance),
        census_dependent_instances,
        seeded(degenerate_instance),
    ],
    ids=["1-d", "weighted", "2-d", "dependent", "degenerate"],
)
def test_the_exchange_matches_the_tableau_simplex_within_the_rounding_unit(instances):
    for instance in instances(25):
        solution = fit(instance).lp_solution
        reference = reference_solve(fit_program(instance))
        alpha = solution.primal[1:]
        assert abs(solution.objective_value - reference.objective_value) <= (
            instance.rounding_tol(alpha)
        )
        # The dual optimum is a reference: r + 1 distinct points, signs of
        # +-1, and weights that are nonnegative and sum to one.
        assert np.unique(solution.reference).size == instance.rank + 1
        assert set(solution.signs.tolist()) <= {-1.0, 1.0}
        assert np.all(solution.weights >= 0.0)
        assert abs(np.sum(solution.weights) - 1.0) <= WEIGHT_UNIT


def test_at_most_rank_points_interpolate_with_no_exchange():
    for points, spec in (([0.0, 0.5, 1.0], "1, x, x^2"), ([0.0, 1.0], "1, x, x^2")):
        instance = ProblemInstance(
            points=np.array(points)[:, None],
            values=[0.3, -1.2, 2.0][: len(points)],
            basis=parse_basis_spec(spec, 1),
        )
        assert instance.n <= instance.rank
        result = fit(instance)
        assert result.discrepancy == 0.0 and result.exact_interpolation
        assert result.lp_solution.iterations == 0
        assert np.max(np.abs(result.residuals)) <= 1e-14


def test_a_rank_zero_list_fits_the_zero_function():
    # The span is {0}: d is max |y|, at the one point that reaches it, whose
    # overshoot row (sign -1: the value lies below the fit) carries the
    # whole multiplier.
    instance = ProblemInstance(
        points=np.linspace(0.0, 1.0, 3)[:, None],
        values=[0.5, -2.0, 1.0],
        basis=parse_basis_spec("0*x, x-x", 1),
    )
    assert instance.rank == 0
    result = fit(instance)
    assert result.discrepancy == 2.0
    assert np.all(result.coefficients == 0.0)
    assert result.active_points == (1,)
    solution = result.lp_solution
    assert (solution.reference.tolist(), solution.signs.tolist()) == ([1], [-1.0])
    assert solution.weights.tolist() == [1.0]


def test_an_exhausted_exchange_budget_is_a_numeric_failure():
    instance = random_small_instance(np.random.default_rng(3))
    problem = instance.lifted_design_and_values()
    steps = exchange(*problem, instance.rounding_tol).iterations
    assert steps >= 1
    assert exchange(*problem, instance.rounding_tol, budget=steps).iterations == steps
    with pytest.raises(NumericFailure, match=f"budget of {steps - 1} exchanges"):
        exchange(*problem, instance.rounding_tol, budget=steps - 1)


def test_the_grid_smooth_fit_that_raised_on_the_tableau_certifies():
    # grid_smooth seed 10, block 2, runge/m6 of the benchmark: the tableau
    # simplex drifted over a long Bland run and raised "optimal basis
    # violates feasibility by 3.882e-04".
    x = np.linspace(-1.0, 1.0, 400)
    instance = ProblemInstance(
        points=x[:, None],
        values=1.0 / (1.0 + 13.715092031335185 * x**2),
        basis=monomial_basis(6),
    )
    result = fit(instance)
    report = verify_identities(
        extract_certificate(result.lp_solution, instance), result, instance
    )
    assert report.identities_ok and report.active_count_ok
    assert result.discrepancy == pytest.approx(0.160235525417, rel=1e-9)


def test_the_start_falls_back_to_every_row_when_its_sample_lacks_a_direction(
    monkeypatch,
):
    # Every even row sits at x = 0, so the start's stride-2 sample of 100
    # rows spans the constant alone, and it picks its rows from all 200.
    n = 200
    x = np.linspace(0.1, 1.0, n)
    x[::2] = 0.0
    instance = ProblemInstance(
        points=x[:, None],
        values=np.sin(3.0 * x) + 0.01 * np.cos(40.0 * np.arange(n)),
        basis=parse_basis_spec("1, x", 1),
    )
    searched = []

    def recording(design, candidates):
        picked = _independent_rows(design, candidates)
        searched.append((len(candidates), picked is not None))
        return picked

    monkeypatch.setattr("equifit.lp._independent_rows", recording)
    result = fit(instance)
    assert searched == [(100, False), (200, True)]
    assert result.lp_solution.iterations == 1
    report = verify_identities(
        extract_certificate(result.lp_solution, instance), result, instance
    )
    assert report.identities_ok and report.active_count_ok


def test_a_reference_system_that_is_not_finite_is_a_numeric_failure():
    # Values at the float limit, alternating in sign: the levelled line's
    # residuals overflow.  A rounding unit that is NaN or infinite fails the
    # same way, at the first pricing pass.
    overflowing = ProblemInstance(
        points=np.arange(4.0)[:, None],
        values=[1.7e308, -1.7e308, 1.7e308, -1.7e308],
        basis=monomial_basis(2),
    )
    plain = random_small_instance(np.random.default_rng(3))
    for instance, tolerance in (
        (overflowing, overflowing.rounding_tol),
        (plain, lambda alpha: np.nan),
        (plain, lambda alpha: np.inf),
    ):
        with pytest.raises(
            NumericFailure, match="^the reference system is not finite$"
        ) as info:
            exchange(*instance.lifted_design_and_values(), tolerance)
        assert info.value.iterations == 0


def test_an_exchange_solves_its_transposed_system_once_per_exchange_and_at_the_stop(
    monkeypatch,
):
    # Two solves in the start; then, in the one system the fit allocates,
    # a levelled solve per pass, a transposed solve per exchange against
    # e_(r+1) and the entering column together, and one against e_(r+1)
    # alone at the stop: 2 steps + 4 solves in all.
    instance = random_small_instance(np.random.default_rng(3))
    problem = instance.lifted_design_and_values()
    solve, calls = np.linalg.solve, []

    def counting(a, b):
        calls.append((a, np.ndim(b)))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    steps = exchange(*problem, instance.rounding_tol).iterations
    assert steps >= 1
    assert len(calls) == 2 * steps + 4
    assert [ndim for _, ndim in calls[2:]] == [1, 2] * steps + [1, 1]
    systems = [a if a.base is None else a.base for a, _ in calls[2:]]
    assert all(system is systems[0] for system in systems)


def recorded_steps(monkeypatch):
    """Record the exchange's solves of order above one, by kind: the
    levelled solution [alpha; h] (its system's last column is all ones),
    and each column of a solve of the transposed system (its last row is
    all ones): the weights against e_(r+1) and an entering point's
    direction against anything else.  An exchange solves for both in one
    call, and the stop for the weights alone."""
    solve, steps = np.linalg.solve, {"levelled": [], "weights": [], "direction": []}

    def recording(a, b):
        x = solve(a, b)
        if len(a) > 1 and np.all(a[-1] == 1.0):
            unit = np.zeros(len(a))
            unit[-1] = 1.0
            for column, rhs in zip(np.atleast_2d(x.T), np.atleast_2d(b.T)):
                kind = "weights" if np.array_equal(rhs, unit) else "direction"
                steps[kind].append(column)
        elif len(a) > 1 and np.all(a[:, -1] == 1.0):
            steps["levelled"].append(x)
        return x

    monkeypatch.setattr(np.linalg, "solve", recording)
    return steps


def test_a_degenerate_integer_fit_stalls_ties_and_certifies(monkeypatch):
    # Repeated abscissae: the first exchange leaves h at 1/2, so the second
    # enters by Bland's rule; its ratio test ties two reference points at
    # 1/2, the least ratio, and it reaches d = 1.  The third enters at
    # worst |r| again and leaves h at 1.
    instance = ProblemInstance(
        points=np.array([2.0, -2.0, -2.0, -2.0, 1.0, -2.0, 2.0, 2.0])[:, None],
        values=[1.0, 0.0, -1.0, 0.0, 0.0, 1.0, 0.0, -1.0],
        basis=monomial_basis(3),
    )
    steps = recorded_steps(monkeypatch)
    result = fit(instance)
    assert result.discrepancy == 1.0
    assert result.lp_solution.iterations == 3
    bounds = [float(x[-1]) for x in steps["levelled"]]
    assert bounds == pytest.approx([0.5, 0.5, 1.0, 1.0], abs=1e-15)
    weights, direction = steps["weights"][1], steps["direction"][1]
    eligible = direction > 1e-12
    assert np.count_nonzero(eligible) == 2
    ratios = weights[eligible] / direction[eligible]
    assert ratios == pytest.approx([0.5, 0.5], abs=1e-15)
    report = verify_identities(
        extract_certificate(result.lp_solution, instance), result, instance
    )
    assert report.identities_ok and report.active_count_ok


def test_an_exchange_that_does_not_raise_h_hands_the_next_to_blands_rule(monkeypatch):
    # Seed 17 of the degenerate family.  The first exchange takes h from
    # 1/2 to just below it, so the second enters by Bland's rule, the
    # lowest-index improving point; it leaves h at 1/2, so the third does
    # too, and raises h to 11/18, so the fourth enters at worst |r|.
    # Entering at worst |r| throughout ends in 3 exchanges on {4, 5, 7, 8},
    # with the same d.
    instance = degenerate_instance(np.random.default_rng(17))
    steps = recorded_steps(monkeypatch)
    result = fit(instance)
    assert result.discrepancy == pytest.approx(0.625, abs=1e-15)
    assert result.lp_solution.iterations == 4
    assert sorted(result.lp_solution.reference.tolist()) == [0, 4, 5, 8]
    bounds = [float(x[-1]) for x in steps["levelled"]]
    assert bounds == pytest.approx([0.5, 0.5, 0.5, 11 / 18, 0.625], abs=1e-15)
    report = verify_identities(
        extract_certificate(result.lp_solution, instance), result, instance
    )
    assert report.identities_ok and report.active_count_ok


def test_every_degenerate_fit_of_two_thousand_seeds_certifies():
    # Ties in the ratio test are common in this family, and an exchange
    # reads its weights from the two-column solve that gives its direction,
    # whose bits may differ from a one-column solve's: this guards the
    # tie-break.  Seeds 0 to 1999 take 2072 exchanges.
    for seed in range(2000):
        instance = degenerate_instance(np.random.default_rng(seed))
        result = fit(instance)
        if not result.exact_interpolation:
            report = verify_identities(
                extract_certificate(result.lp_solution, instance), result, instance
            )
            assert report.identities_ok and report.active_count_ok, seed


def test_a_direction_that_is_not_finite_keeps_no_reference_point(monkeypatch):
    # The entering point's direction, the second column of the exchange's
    # transposed solve, solves to NaNs: no entry is eligible, and the ratio
    # test refuses rather than pick a leaving point.
    solve = np.linalg.solve

    def patched(a, b):
        x = solve(a, b)
        if np.all(a[-1] == 1.0) and np.ndim(b) == 2:
            x[:, 1] = np.nan
        return x

    instance = random_small_instance(np.random.default_rng(3))
    problem = instance.lifted_design_and_values()
    monkeypatch.setattr(np.linalg, "solve", patched)
    with pytest.raises(NumericFailure, match="^ratio test kept no reference point") as info:
        exchange(*problem, instance.rounding_tol)
    assert info.value.iterations == 1
