"""Tests for the dense simplex and its dual extraction."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equifit.basis import parse_basis_spec
from equifit.errors import DimensionMismatch, NumericFailure
from equifit.fitting import ProblemInstance, assemble_primal, fit
from equifit.lp import (
    FREE,
    INFEASIBLE,
    NONNEGATIVE,
    OPTIMAL,
    PIVOT_TOL,
    RATIO_TIE_TOL,
    UNBOUNDED,
    LinearProgram,
    LpSolution,
    _Simplex,
    dual_of,
    solve_lp,
)
from equifit.tolerances import FEAS_TOL


def enumerate_vertex_optimum(lp):
    """Independent check: enumerate all basis-sized row subsets, solve each
    square system, keep feasible points, return the best objective.

    Only valid for all-free variables and bounded problems; used to verify
    the simplex on small instances.  A point is feasible within the
    phase-1 allowance FEAS_TOL * max(1, max |b|) that ``solve_lp`` grants.
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
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.primal == pytest.approx([3.0])
    assert sol.objective_value == pytest.approx(3.0)
    assert sol.dual == pytest.approx([1.0])


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
    sol = solve_lp(lp)
    assert sol.status == UNBOUNDED
    assert sol.reason == "objective decreases without bound along the slack of row 0"


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


def test_iteration_budget_reported():
    state = _Simplex(constant_basis_lp(), max_iterations=1)
    with pytest.raises(NumericFailure) as err:
        state.phase_one()
        state._optimize(state.cost)
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
    pivot choices made by plain loops over the nonbasic labels and rows."""
    t = state.tableau
    while True:
        reduced = cost[state.nonbasic] - cost[state.basis] @ t[:, :-1]
        enter = None
        for j, label in enumerate(state.nonbasic):
            if not state.allowed[label] or reduced[j] >= -PIVOT_TOL:
                continue
            if enter is None or label < state.nonbasic[enter]:
                enter = j
        if enter is None:
            return None
        ratios = {}
        for i in range(len(state.basis)):
            if t[i, enter] > PIVOT_TOL:
                ratios[i] = t[i, -1] / t[i, enter]
        if not ratios:
            return int(state.nonbasic[enter])
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


def reference_solve(lp):
    """The plain dense tableau simplex, as a reference for ``solve_lp``.

    Every pivot updates the whole tableau, pricing is one product of the
    basic costs with every tableau row, and the vertex and its multipliers
    come from two r x r solves with the final basis.  The pivot rule and the
    checks are the ones ``solve_lp`` documents.  Returns the solution and
    the final basis.
    """
    r, v = lp.num_rows, lp.num_vars
    cols, costs, col_map = [], [], []
    for j, kind in enumerate(lp.variable_kinds):
        for sign in (1.0, -1.0) if kind == FREE else (1.0,):
            cols.append(sign * lp.constraint_matrix[:, j])
            costs.append(sign * lp.objective[j])
            col_map.append((j, sign))
    n_struct = len(cols)
    blocks = [np.column_stack(cols), np.eye(r)]
    needs_artificial = bool(np.any(lp.rhs < 0))
    if needs_artificial:
        blocks.append(np.where(lp.rhs < 0, -1.0, 0.0)[:, None])
    work = np.hstack(blocks)
    t = np.hstack([work, lp.rhs[:, None]])
    art = n_struct + r
    cost = np.zeros(work.shape[1])
    cost[:n_struct] = costs
    allowed = np.ones(work.shape[1], dtype=bool)
    basis = np.arange(n_struct, n_struct + r)
    iterations = 0

    def pivot(row, col):
        nonlocal t, iterations
        t[row] /= t[row, col]
        factors = t[:, col].copy()
        factors[row] = 0.0
        t -= np.outer(factors, t[row])
        t[:, col] = 0.0
        t[row, col] = 1.0
        basis[row] = col
        iterations += 1
        assert iterations <= 50 * (r + v)

    def optimize(c):
        while True:
            reduced = c - c[basis] @ t[:, :-1]
            reduced[basis] = 0.0
            improving = allowed & (reduced < -PIVOT_TOL)
            if not improving.any():
                return None
            enter = int(np.argmax(improving))
            rows = np.flatnonzero(t[:, enter] > PIVOT_TOL)
            if rows.size == 0:
                return enter
            ratios = t[rows, -1] / t[rows, enter]
            ties = rows[ratios <= ratios.min() + RATIO_TIE_TOL]
            pivot(int(ties[np.argmin(basis[ties])]), enter)

    if needs_artificial:
        pivot(int(np.argmin(t[:, -1])), art)
        phase_cost = np.zeros_like(cost)
        phase_cost[art] = 1.0
        assert optimize(phase_cost) is None
        where = np.flatnonzero(basis == art)
        if where.size:
            row = int(where[0])
            if t[row, -1] > FEAS_TOL * max(1.0, float(np.max(np.abs(lp.rhs)))):
                return LpSolution(status=INFEASIBLE, iterations=iterations), basis
            real = np.abs(t[row, :art]) > PIVOT_TOL
            if real.any():
                pivot(row, int(np.argmax(real)))
        allowed[art] = False
    if optimize(cost) is not None:
        return LpSolution(status=UNBOUNDED, iterations=iterations), basis

    x_basic = np.linalg.solve(work[:, basis], lp.rhs)
    beta = -np.linalg.solve(work[:, basis].T, cost[basis])
    primal = np.zeros(v)
    for pos, col in enumerate(basis):
        if col < n_struct:
            j, sign = col_map[col]
            primal[j] += sign * x_basic[pos]
    assert np.min(beta) >= -1e-6
    beta = np.maximum(beta, 0.0)
    slack = lp.rhs - lp.constraint_matrix @ primal
    row_scale = np.maximum(1.0, np.abs(lp.rhs))
    assert np.max(-slack / row_scale) <= 100 * FEAS_TOL
    solution = LpSolution(
        status=OPTIMAL,
        primal=primal,
        objective_value=float(lp.objective @ primal),
        dual=beta,
        iterations=iterations,
    )
    return solution, basis


def solve_keeping_state(lp, monkeypatch):
    """``solve_lp`` plus the solver state it ended in."""
    states = []
    init = _Simplex.__init__

    def recording_init(self, *args):
        init(self, *args)
        states.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(_Simplex, "__init__", recording_init)
        solution = solve_lp(lp)
    (state,) = states
    return solution, state


def assert_matches_reference(lp, monkeypatch):
    solution, state = solve_keeping_state(lp, monkeypatch)
    ref, ref_basis = reference_solve(lp)
    assert (solution.status, solution.iterations) == (ref.status, ref.iterations)
    assert np.array_equal(state.basis, ref_basis)
    if ref.status == OPTIMAL:
        for new, old in ((solution.primal, ref.primal), (solution.dual, ref.dual)):
            scale = max(1.0, float(np.max(np.abs(old))))
            assert np.max(np.abs(new - old)) <= 1e-12 * scale
    return solution, state


def condensed_shape(lp):
    """The condensed tableau's shape: one row per constraint; the standard
    columns (a free variable as two), the artificial when some rhs is
    negative, and rhs."""
    k = lp.num_vars + lp.variable_kinds.count(FREE) + int(np.any(lp.rhs < 0))
    return lp.num_rows, k + 1


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


def test_seeded_lps_match_the_dense_reference(monkeypatch):
    for lp in seeded_lps():
        assert_matches_reference(lp, monkeypatch)


def test_tall_lps_match_the_dense_reference(monkeypatch):
    # Tall LPs with several basic columns that carry a cost, so that
    # pricing sums more than one row.  Each LP holds a known integer
    # point, and some have box rows.
    rng = np.random.default_rng(12)
    statuses = []
    for _ in range(30):
        r, v = int(rng.integers(90, 120)), int(rng.integers(2, 5))
        kinds = tuple(rng.choice([FREE, NONNEGATIVE], v))
        a = rng.integers(-3, 4, (r, v))
        point = rng.integers(0, 3, v)
        rhs = a @ point + rng.integers(0, 3, r)
        box = int(rng.integers(0, 3)) * v
        a = np.vstack([a, np.eye(v), -np.eye(v)])[: r + box]
        rhs = np.concatenate([rhs, np.full(2 * v, 10)])[: r + box]
        lp = LinearProgram(
            objective=rng.integers(-3, 4, v),
            constraint_matrix=a,
            rhs=rhs,
            variable_kinds=kinds,
        )
        solution, state = assert_matches_reference(lp, monkeypatch)
        assert state.tableau.shape == condensed_shape(lp)
        statuses.append(solution.status)
    assert statuses.count(OPTIMAL) >= 20


def fit_lp(n, weighted, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    y = np.sin(rng.uniform(1.0, 6.0) * x + rng.uniform(0.0, np.pi))
    y = y + rng.normal(0.0, 0.05, n)
    weights = rng.uniform(0.1, 10.0, n) if weighted else None
    basis = parse_basis_spec("1, x, x^2, x^3", 1)
    instance = ProblemInstance(points=x[:, None], values=y, basis=basis, weights=weights)
    return assemble_primal(instance)


@pytest.mark.parametrize("n", [12, 300])
@pytest.mark.parametrize("weighted", [False, True])
def test_fit_lps_match_the_dense_reference(n, weighted, monkeypatch):
    for seed in range(3):
        lp = fit_lp(n, weighted, seed)
        _, state = assert_matches_reference(lp, monkeypatch)
        assert state.tableau.shape == condensed_shape(lp)


def test_a_fit_allocates_little_beyond_its_tableau():
    n, m = 1000, 4
    x = np.linspace(0.0, 1.0, n)
    y = np.sin(3.0 * x) + np.random.default_rng(0).normal(0.0, 0.01, n)
    basis = parse_basis_spec("1, x, x^2, x^3", 1)
    instance = ProblemInstance(points=x[:, None], values=y, basis=basis)
    # 2n rows; m + 1 free variables split in two, 2n slacks, the artificial
    # and rhs.
    tableau_bytes = 2 * n * (2 * (m + 1) + 2 * n + 2) * 8
    tracemalloc.start()
    try:
        fit(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * tableau_bytes


def test_a_large_fit_allocates_a_few_condensed_tableaux():
    n, m = 10_000, 6
    x = np.linspace(0.0, 1.0, n)
    y = np.sin(3.0 * x) + np.random.default_rng(0).normal(0.0, 0.01, n)
    basis = parse_basis_spec("1, x, x^2, x^3, x^4, x^5", 1)
    instance = ProblemInstance(points=x[:, None], values=y, basis=basis)
    # 2n rows; m + 1 free variables split in two, the artificial and rhs.
    # The full tableau would add 2n slack columns: 3.2 GB here.
    tableau_bytes = 2 * n * (2 * (m + 1) + 2) * 8
    tracemalloc.start()
    try:
        fit(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * tableau_bytes
    # Column-major, so that a pivot's passes over one column are contiguous.
    state = _Simplex(assemble_primal(instance), max_iterations=1)
    assert state.tableau.flags.f_contiguous


def test_phase_one_never_leaves_the_artificial_basic():
    # The artificial's row of B^-1 times its 0/-1 column is 1, so on a
    # finite tableau phase 1 can always pivot it out.
    lps = list(seeded_lps())
    lps += [fit_lp(n, weighted, seed) for n in (12, 300) for weighted in (False, True)
            for seed in range(3)]
    pivoted_out = 0
    for lp in lps:
        state = _Simplex(lp, 50 * (lp.num_rows + lp.num_vars))
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
        solve_lp(lp)


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
        solve_lp(lp)
