"""Basis-function lists: a small expression grammar compiled to numpy.

A basis spec is a comma-separated list of expressions over the coordinates
``x1..xp`` (with aliases ``x, y, z`` when the dimension is at most 3),
numeric literals, ``+ - * /``, integer powers ``^``, parentheses, and the
unary functions ``exp``, ``cos``, ``sin``.  Example::

    parse_basis_spec("1, x, x^2, cos(y - x)", dimension=2)

The parser compiles each expression straight to its evaluator, a
module-level function bound with ``functools.partial`` that maps an (n, p)
array of points to an n-vector; a parsed basis therefore pickles.  Each
function's label is its source text, which is also how a basis renders.
``design_matrix`` stacks the columns, and ``singular_value_rank`` is the one
rank rule: ``ProblemInstance`` applies it to the singular values of the one
SVD of its scaled weighted design.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionError, EvaluationError, ParseError
from .tolerances import RANK_TOL

_FUNCTIONS = {"exp": np.exp, "cos": np.cos, "sin": np.sin}
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
_ALIASES = {"x": 1, "y": 2, "z": 3}


# ---------------------------------------------------------------------------
# Evaluators: bound with partial, each maps (n, p) points to an n-vector


def _number(value, pts):
    return np.full(pts.shape[0], value)


def _variable(index, pts):
    return pts[:, index].copy()


def _power(base, exponent, pts):
    return base(pts) ** exponent


def _apply(function, arg, pts):
    return function(arg(pts))


def _fold(first, rest, pts):
    """A chain ``a op b op c ...`` applied left to right, as the grammar
    groups it, without a level of nesting per term."""
    out = first(pts)
    for op, operand in rest:
        out = op(out, operand(pts))
    return out


def _chain(first, rest):
    return partial(_fold, first, tuple(rest)) if rest else first


# ---------------------------------------------------------------------------
# Tokenizer / parser

_OPERATORS = {"+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH", "^": "CARET",
              "(": "LPAREN", ")": "RPAREN", ",": "COMMA"}


# Blanks, then a number, a name or an operator; any other character is an
# error.  \d is a decimal digit, exactly what int() and float() accept
# (str.isdigit would also take '²'), and a name starts with a letter and goes
# on with letters, digits and _.
_TOKEN = re.compile(
    r"\s*(?:(?P<NUMBER>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)|(?P<NAME>[^\W\d_]\w*)"
    r"|(?P<OPERATOR>[-+*/^(),])|(?P<BAD>\S))"
)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        word, pos = match[kind], match.start(kind)
        if kind == "BAD":
            raise ParseError(
                f"unexpected character {word!r} at position {pos}",
                position=pos,
                expected=("number", "name", "operator"),
                found=word,
            )
        tokens.append(_Token(_OPERATORS.get(word, kind), word, pos))
    tokens.append(_Token("END", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the grammar

        list     := expr ("," expr)*
        expr     := term (("+" | "-") term)*
        term     := unary (("*" | "/") unary)*
        unary    := ("+" | "-") unary | power
        power    := atom ("^" signed integer)?
        atom     := NUMBER | variable | func "(" expr ")" | "(" expr ")"
    """

    def __init__(self, text: str, dimension: int):
        self.text = text
        self.dimension = dimension
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        found = tok.text if tok.kind != "END" else "end of input"
        raise ParseError(
            f"expected {' or '.join(expected)} at position {tok.pos}, found {found}",
            position=tok.pos,
            expected=expected,
            found=found,
        )

    def expect(self, kind, expected):
        if self.peek().kind != kind:
            self.fail(expected)
        return self.advance()

    def parse_list(self):
        functions = [self.parse_function()]
        while self.peek().kind == "COMMA":
            self.advance()
            functions.append(self.parse_function())
        if self.peek().kind != "END":
            self.fail(("','", "end of input"))
        return functions

    def parse_function(self):
        start = self.peek().pos
        evaluator = self.parse_expr()
        last = self.tokens[self.pos - 1]
        return BasisFunction(evaluator, self.text[start:last.pos + len(last.text)])

    def parse_expr(self):
        first, rest = self.parse_term(), []
        while self.peek().kind in ("PLUS", "MINUS"):
            op = _BINARY[self.advance().text]
            rest.append((op, self.parse_term()))
        return _chain(first, rest)

    def parse_term(self):
        first, rest = self.parse_unary(), []
        while self.peek().kind in ("STAR", "SLASH"):
            op = _BINARY[self.advance().text]
            rest.append((op, self.parse_unary()))
        return _chain(first, rest)

    def parse_unary(self):
        if self.peek().kind == "MINUS":
            self.advance()
            return partial(_apply, np.negative, self.parse_unary())
        if self.peek().kind == "PLUS":
            self.advance()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        if self.peek().kind == "CARET":
            self.advance()
            sign = 1
            if self.peek().kind == "MINUS":
                self.advance()
                sign = -1
            tok = self.expect("NUMBER", ("integer exponent",))
            try:
                exponent = sign * int(tok.text)
                float(exponent)  # numpy converts the exponent to float64
            except (ValueError, OverflowError):
                raise ParseError(
                    f"exponent must be an integer within the float range, got "
                    f"{tok.text} at position {tok.pos}",
                    position=tok.pos,
                    expected=("integer exponent",),
                    found=tok.text,
                ) from None
            node = partial(_power, node, exponent)
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return partial(_number, float(tok.text))
        if tok.kind == "LPAREN":
            self.advance()
            node = self.parse_expr()
            self.expect("RPAREN", ("')'",))
            return node
        if tok.kind == "NAME":
            self.advance()
            if tok.text in _FUNCTIONS:
                self.expect("LPAREN", ("'(' after function name",))
                arg = self.parse_expr()
                self.expect("RPAREN", ("')'",))
                return partial(_apply, _FUNCTIONS[tok.text], arg)
            return partial(_variable, self.variable_index(tok))
        self.fail(("number", "variable", "'('"))

    def variable_index(self, tok: _Token) -> int:
        name = tok.text
        if name in _ALIASES:
            if self.dimension > 3:
                raise ParseError(
                    f"alias {name!r} is only available for dimension <= 3 "
                    f"(position {tok.pos}); use x1..x{self.dimension}",
                    position=tok.pos,
                    expected=("x1..xp",),
                    found=name,
                )
            index = _ALIASES[name]
            digits = str(index)
        elif name.startswith("x") and name[1:].isdecimal():
            digits = name[1:].lstrip("0") or "0"
            # No dimension has 19 digits, and int() refuses over 4300.
            index = int(digits) if len(digits) < 19 else sys.maxsize
            if index == 0:
                raise ParseError(
                    f"variables are numbered from x1 (position {tok.pos})",
                    position=tok.pos,
                    expected=("x1..xp",),
                    found=name,
                )
        else:
            raise ParseError(
                f"unknown name {name!r} at position {tok.pos}",
                position=tok.pos,
                expected=("number", "variable", "exp", "cos", "sin"),
                found=name,
            )
        if index > self.dimension:
            raise DimensionError(
                f"{name!r} references coordinate {digits} but the dimension is "
                f"{self.dimension}"
            )
        return index - 1


# ---------------------------------------------------------------------------
# Public types and operations


@dataclass(frozen=True)
class BasisFunction:
    """One member of a basis list: its compiled evaluator and its source
    text, the label."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (n, p) array of points, returning an n-vector.

        Raises EvaluationError when any point yields a non-finite value
        (division by zero, overflow, ...), identifying the point, or when
        the expression nests deeper than the recursion limit allows here.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        with np.errstate(all="ignore"):
            try:
                out = self.evaluator(pts)
            except RecursionError:
                raise EvaluationError(
                    f"basis function {self.label!r} is nested too deeply to evaluate",
                    label=self.label,
                ) from None
        out = np.asarray(out, dtype=float)
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            i = int(bad[0])
            raise EvaluationError(
                f"basis function {self.label!r} is not finite at point "
                f"{i} = {pts[i].tolist()}",
                point_index=i,
                label=self.label,
            )
        return out


@dataclass(frozen=True)
class BasisSet:
    """An ordered list of basis functions over a fixed dimension."""

    functions: tuple[BasisFunction, ...]
    dimension: int

    def __post_init__(self):
        if not self.functions:
            raise DimensionError("a basis needs at least one function")
        if self.dimension < 1:
            raise DimensionError("dimension must be at least 1")

    @property
    def size(self) -> int:
        return len(self.functions)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.functions)


def parse_basis_spec(text: str, dimension: int) -> BasisSet:
    """Parse a comma-separated basis spec into a BasisSet.

    Raises ParseError (with position and expected tokens) on bad syntax or
    nesting deeper than Python's recursion limit, and DimensionError when an
    expression references a coordinate beyond ``dimension``.
    """
    if dimension < 1:
        raise DimensionError("dimension must be at least 1")
    parser = _Parser(text, dimension)
    try:
        functions = parser.parse_list()
    except RecursionError:
        tok = parser.peek()
        raise ParseError(
            f"expression nested too deeply at position {tok.pos}",
            position=tok.pos,
            found=tok.text,
        ) from None
    return BasisSet(functions=tuple(functions), dimension=dimension)


def format_basis_spec(basis: BasisSet) -> str:
    """Render a basis back to spec syntax: its labels, which are each
    expression's source text, so parsing the result reproduces the same
    functions."""
    return ", ".join(basis.labels)


def design_matrix(basis: BasisSet, points: np.ndarray) -> np.ndarray:
    """Evaluate every basis function at every point: entry (i, j) is the
    j-th function at the i-th point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != basis.dimension:
        raise DimensionError(
            f"points have dimension {pts.shape[1]}, basis expects {basis.dimension}"
        )
    columns = [f.evaluate(pts) for f in basis.functions]
    return np.column_stack(columns)


def singular_value_rank(sigma: np.ndarray) -> int:
    """Numerical rank: the number of singular values above ``RANK_TOL``
    times the largest one."""
    return int(np.count_nonzero(sigma > RANK_TOL * sigma.max(initial=0.0)))
