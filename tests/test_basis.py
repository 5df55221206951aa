"""Tests for the basis grammar, design matrices, and rank estimation."""

import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equifit.basis import (
    BasisFunction,
    BasisSet,
    design_matrix,
    format_basis_spec,
    parse_basis_spec,
    singular_value_rank,
)
from equifit.errors import DimensionError, EvaluationError, ParseError


def test_monomials_one_dimensional():
    basis = parse_basis_spec("1, x, x^2", 1)
    assert basis.size == 3
    assert basis.dimension == 1
    row = design_matrix(basis, [[2.0]])
    assert row[0] == pytest.approx([1.0, 2.0, 4.0])


def test_two_dimensional_with_product():
    basis = parse_basis_spec("1, x, y, x*y", 2)
    assert basis.size == 4
    row = design_matrix(basis, [[3.0, 4.0]])
    assert row[0] == pytest.approx([1.0, 3.0, 4.0, 12.0])


def test_dangling_operator_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_basis_spec("1, x*", 1)
    assert err.value.position == 5
    assert err.value.expected


def test_unknown_name_reported():
    with pytest.raises(ParseError) as err:
        parse_basis_spec("1, q", 1)
    assert "q" in str(err.value)


def test_variable_beyond_dimension():
    with pytest.raises(DimensionError):
        parse_basis_spec("1, y", 1)
    with pytest.raises(DimensionError):
        parse_basis_spec("x4", 3)


def test_aliases_match_numbered_variables():
    a = parse_basis_spec("x + y + z", 3)
    b = parse_basis_spec("x1 + x2 + x3", 3)
    pts = np.array([[1.0, 2.0, 4.0], [0.5, -1.0, 2.0]])
    assert design_matrix(a, pts) == pytest.approx(design_matrix(b, pts))


def test_cosine_of_difference():
    basis = parse_basis_spec("cos(y - x)", 2)
    row = design_matrix(basis, [[0.0, 0.0]])
    assert row[0] == pytest.approx([1.0])


def test_unary_functions_and_powers():
    basis = parse_basis_spec("exp(x), sin(x), x^-1, -x^2", 1)
    row = design_matrix(basis, [[2.0]])
    assert row[0] == pytest.approx([np.exp(2.0), np.sin(2.0), 0.5, -4.0])


def test_division_by_zero_identifies_point_and_function():
    basis = parse_basis_spec("1 / x", 1)
    with pytest.raises(EvaluationError) as err:
        design_matrix(basis, [[1.0], [0.0]])
    assert err.value.point_index == 1
    assert err.value.label == "1 / x"


def test_number_formats():
    basis = parse_basis_spec("2.5, 1e-2, 3.5e2", 1)
    row = design_matrix(basis, [[0.0]])
    assert row[0] == pytest.approx([2.5, 0.01, 350.0])


def test_non_integer_exponent_rejected():
    with pytest.raises(ParseError):
        parse_basis_spec("x^2.5", 1)
    with pytest.raises(ParseError):
        parse_basis_spec("x^y", 2)


def test_labels_preserve_source_text():
    basis = parse_basis_spec("1,  x * y , cos(x)", 2)
    assert basis.labels == ("1", "x * y", "cos(x)")


_EXPR_LEAVES = st.one_of(
    st.floats(-4, 4, allow_nan=False, allow_infinity=False).map(
        lambda v: f"{abs(v)!r}"
    ),
    st.sampled_from(["x", "x1"]),
)


@st.composite
def random_expression(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(_EXPR_LEAVES)
    kind = draw(st.sampled_from(["add", "sub", "mul", "pow", "call", "neg", "paren"]))
    a = draw(random_expression(depth=depth + 1))
    if kind == "add":
        b = draw(random_expression(depth=depth + 1))
        return f"{a} + {b}"
    if kind == "sub":
        b = draw(random_expression(depth=depth + 1))
        return f"{a} - {b}"
    if kind == "mul":
        b = draw(random_expression(depth=depth + 1))
        return f"{a} * {b}"
    if kind == "pow":
        return f"({a})^{draw(st.integers(0, 3))}"
    if kind == "call":
        fn = draw(st.sampled_from(["sin", "cos"]))
        return f"{fn}({a})"
    if kind == "neg":
        return f"-({a})"
    return f"({a})"


@given(random_expression())
@settings(max_examples=120, deadline=None)
def test_parse_format_round_trip(source):
    basis = parse_basis_spec(source, 1)
    reparsed = parse_basis_spec(format_basis_spec(basis), 1)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.0, 2.0, size=(100, 1))
    original = design_matrix(basis, pts)
    again = design_matrix(reparsed, pts)
    scale = np.maximum(1.0, np.abs(original))
    assert np.all(np.abs(original - again) <= 1e-12 * scale)


@given(random_expression())
@settings(max_examples=120, deadline=None)
def test_compiled_evaluation_matches_python_eval(source):
    # Python's own parser and numpy evaluate the same source independently:
    # its precedence and associativity agree with the grammar's for + - * ^,
    # unary minus and calls.
    pts = np.random.default_rng(7).uniform(-2.0, 2.0, size=(100, 1))
    names = {"x": pts[:, 0], "x1": pts[:, 0], "sin": np.sin, "cos": np.cos}
    with np.errstate(all="ignore"):
        expected = eval(source.replace("^", "**"), {"__builtins__": {}}, names)
    compiled = design_matrix(parse_basis_spec(source, 1), pts)[:, 0]
    scale = np.maximum(1.0, np.abs(expected))
    assert np.all(np.abs(compiled - expected) <= 1e-12 * scale)


_SPEC_TEXT = st.one_of(
    st.text(),
    st.text(alphabet="xyz1290.eE+-*/^(), \u00b2\u0663", max_size=40),
)


@given(_SPEC_TEXT)
@example("x\u00b2")
@example("1, \u00b2")
@example("(" * 200 + "x" + ")" * 200)
@example("-" * 1000 + "x")
@example("+".join(["1"] * 1000))
@example("x^" + "9" * 400)
@example("x^" + "9" * 5000)
@example("x" + "1" * 5000)
@settings(max_examples=300, deadline=None)
def test_any_text_parses_or_raises_a_package_error(text):
    pts = np.random.default_rng(3).uniform(-2.0, 2.0, size=(5, 2))
    try:
        g = design_matrix(parse_basis_spec(text, 2), pts)
    except (ParseError, DimensionError, EvaluationError):
        return
    assert g.shape[0] == 5 and np.all(np.isfinite(g))


def test_long_chains_fold_left_to_right():
    pts = np.random.default_rng(5).uniform(-2.0, 2.0, size=(50, 1))
    x = pts[:, 0]
    total, quotient = x.copy(), x.copy()
    for k in range(1, 1000):
        total = total + x if k % 2 else total - 0.5 * x
        quotient = quotient / x if k % 2 else quotient * x
    spec = "".join(" + x" if k % 2 else " - 0.5 * x" for k in range(1, 1000))
    product = "".join(" / x" if k % 2 else " * x" for k in range(1, 1000))
    g = design_matrix(parse_basis_spec(f"x{spec}, x{product}", 1), pts)
    assert np.array_equal(g[:, 0], total)
    assert np.array_equal(g[:, 1], quotient)


def test_a_parsed_basis_pickles():
    basis = parse_basis_spec("1, x, cos(y - x)^2, -x/3", 2)
    pts = np.random.default_rng(11).uniform(-2.0, 2.0, size=(20, 2))
    again = pickle.loads(pickle.dumps(basis))
    assert again.labels == basis.labels
    assert np.array_equal(design_matrix(again, pts), design_matrix(basis, pts))


def test_evaluation_too_deep_for_the_stack_is_an_evaluation_error():
    basis = parse_basis_spec("-" * 300 + "x", 1)
    assert design_matrix(basis, [[2.0]])[0, 0] == 2.0

    def evaluate_at_depth(k):
        return evaluate_at_depth(k - 1) if k else design_matrix(basis, [[2.0]])

    with pytest.raises(EvaluationError, match="nested too deeply"):
        evaluate_at_depth(sys.getrecursionlimit() - 250)


def test_design_matrix_deterministic():
    basis = parse_basis_spec("1, x, exp(x), cos(x)", 1)
    pts = np.linspace(-1, 1, 17).reshape(-1, 1)
    first = design_matrix(basis, pts)
    second = design_matrix(basis, pts)
    assert np.array_equal(first, second)


def test_rank_of_identity():
    assert singular_value_rank(np.linalg.svd(np.eye(3), compute_uv=False)) == 3


def test_rank_deficit_from_repeated_column():
    m = np.array([[1.0, 2.0, 2.0], [3.0, 4.0, 4.0], [5.0, 6.0, 6.0]])
    assert singular_value_rank(np.linalg.svd(m, compute_uv=False)) == 2


def test_vandermonde_full_rank_on_distinct_points():
    basis = parse_basis_spec("1, x, x^2", 1)
    pts = np.array([[0.3], [1.1], [2.4]])
    g = design_matrix(basis, pts)
    # Independent confirmation: the Vandermonde determinant of distinct
    # points is the product of pairwise differences, hence nonzero.
    det = np.prod(
        [pts[j, 0] - pts[i, 0] for i in range(3) for j in range(i + 1, 3)]
    )
    assert abs(det) > 1e-12
    assert singular_value_rank(np.linalg.svd(g, compute_uv=False)) == 3


def _design_with_singular_values(rng, n, sigma):
    """U diag(sigma) V^T with random orthonormal U (n x m) and V (m x m)."""
    u, _ = np.linalg.qr(rng.standard_normal((n, sigma.size)))
    v, _ = np.linalg.qr(rng.standard_normal((sigma.size, sigma.size)))
    return (u * sigma) @ v.T


@pytest.mark.parametrize("m", [2, 3, 5, 7])
def test_rank_counts_singular_values_above_the_threshold(m):
    # RANK_TOL is 1e-10: a smallest singular value 1e-9 of the largest
    # counts, one of 1e-11 does not.
    rng = np.random.default_rng(m)
    for n in (m, m + 1, 40):
        for last, rank in ((1e-9, m), (1e-11, m - 1)):
            sigma = 3.0 * np.geomspace(1.0, last, m)
            g = _design_with_singular_values(rng, n, sigma)
            assert singular_value_rank(np.linalg.svd(g, compute_uv=False)) == rank
            assert singular_value_rank(np.linalg.svd(g.T, compute_uv=False)) == rank
