"""Tests for the dense simplex and its dual extraction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equifit.errors import DimensionMismatch, NumericFailure
from equifit.lp import (
    FREE,
    INFEASIBLE,
    NONNEGATIVE,
    OPTIMAL,
    PIVOT_TOL,
    RATIO_TIE_TOL,
    UNBOUNDED,
    LinearProgram,
    dual_of,
    solve_lp,
)


def enumerate_vertex_optimum(lp):
    """Independent check: enumerate all basis-sized row subsets, solve each
    square system, keep feasible points, return the best objective.

    Only valid for all-free variables and bounded problems; used to verify
    the simplex on small instances.
    """
    a = lp.constraint_matrix
    b = lp.rhs
    v = lp.num_vars
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
        if np.all(a @ x <= b + 1e-9):
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
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.primal == pytest.approx([3.0])
    assert sol.objective_value == pytest.approx(3.0)
    assert sol.dual == pytest.approx([1.0])
    assert sol.active_rows == (0,)


def test_two_variable_polyhedron_matches_vertex_enumeration():
    lp = constant_basis_lp()
    sol = solve_lp(lp)
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
    sol = solve_lp(lp)
    assert sol.status == UNBOUNDED
    assert sol.reason


def test_infeasible_pair():
    lp = LinearProgram(
        objective=[1.0],
        constraint_matrix=[[1.0], [-1.0]],
        rhs=[0.0, -3.0],
        variable_kinds=(FREE,),
    )
    sol = solve_lp(lp)
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
    sol = solve_lp(lp)
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
    sol = solve_lp(lp)
    slack = lp.rhs - lp.constraint_matrix @ sol.primal
    for i, beta in enumerate(sol.dual):
        assert beta >= 0
        if beta > 1e-9:
            assert slack[i] <= 1e-7
    gap = abs(sol.objective_value - sol.dual_objective)
    assert gap <= 1e-8 * max(1.0, abs(sol.objective_value))


def test_dual_of_reproduces_primal_duals():
    lp = constant_basis_lp()
    sol = solve_lp(lp)
    dual = dual_of(lp)
    assert dual.num_vars == 4
    assert all(kind == NONNEGATIVE for kind in dual.variable_kinds)
    dual_sol = solve_lp(dual)
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
    dual = solve_lp(dual_of(lp))
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
        original = solve_lp(lp)
        twice = solve_lp(dual_of(dual_of(lp)))
        assert twice.status == OPTIMAL
        assert twice.objective_value == pytest.approx(
            original.objective_value, abs=1e-9
        )


def test_determinism():
    lp = constant_basis_lp()
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert np.array_equal(a.primal, b.primal)
    assert np.array_equal(a.dual, b.dual)
    assert a.objective_value == b.objective_value
    assert a.active_rows == b.active_rows


def test_iteration_budget_reported():
    lp = constant_basis_lp()
    with pytest.raises(NumericFailure) as err:
        solve_lp(lp, max_iterations=1)
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
@settings(max_examples=150, deadline=None)
def test_weak_and_strong_duality_on_random_instances(lp):
    sol = solve_lp(lp)
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
    # Vertex enumeration agrees on the optimal value.
    best, _ = enumerate_vertex_optimum(lp)
    assert best is not None
    assert sol.objective_value == pytest.approx(best, abs=1e-7 * scale)


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
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.iterations == 6
    assert sol.objective_value == pytest.approx(-1.25, abs=1e-12)
    assert np.allclose(sol.primal, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(sol.dual, [0.0, 1.5, 1.25], atol=1e-12)


def _loop_bland(state, cost):
    """Reference for ``_Simplex._optimize``: the same pricing, with both
    pivot choices made by plain loops over columns and rows."""
    t = state.tableau
    while True:
        reduced = cost - cost[state.basis] @ t[:, :-1]
        reduced[state.basis] = 0.0
        enter = None
        for j in range(len(cost)):
            if state.allowed[j] and reduced[j] < -PIVOT_TOL:
                enter = j
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
        state._pivot(min(tied, key=lambda i: state.basis[i]), enter)


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
    solved = [solve_lp(lp) for lp in problems]
    monkeypatch.setattr("equifit.lp._Simplex._optimize", _loop_bland)
    for lp, sol in zip(problems, solved):
        ref = solve_lp(lp)
        assert (ref.status, ref.iterations) == (sol.status, sol.iterations)
        assert ref.reason == sol.reason
        if sol.status == OPTIMAL:
            assert np.array_equal(ref.primal, sol.primal)
            assert np.array_equal(ref.dual, sol.dual)
    assert {sol.status for sol in solved} == {OPTIMAL, INFEASIBLE, UNBOUNDED}
