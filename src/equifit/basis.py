"""Basis-function lists: a small expression grammar and design-matrix evaluation.

A basis spec is a comma-separated list of expressions over the coordinates
``x1..xp`` (with aliases ``x, y, z`` when the dimension is at most 3),
numeric literals, ``+ - * /``, integer powers ``^``, parentheses, and the
unary functions ``exp``, ``cos``, ``sin``.  Example::

    parse_basis_spec("1, x, x^2, cos(y - x)", dimension=2)

Evaluation is vectorized: a basis function maps an (n, p) array of points
to an n-vector, and ``design_matrix`` stacks those columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EvaluationError, ParseError

_FUNCTIONS = {"exp": np.exp, "cos": np.cos, "sin": np.sin}
_ALIASES = {"x": 1, "y": 2, "z": 3}

RANK_TOL = 1e-10


# ---------------------------------------------------------------------------
# Expression tree


@dataclass(frozen=True)
class Num:
    value: float

    def evaluate(self, pts):
        return np.full(pts.shape[0], self.value)

    def to_string(self, prec=0):
        if self.value < 0:
            text = f"({self.value!r})"
        else:
            text = repr(self.value)
        return text


@dataclass(frozen=True)
class Var:
    index: int  # 0-based coordinate

    def evaluate(self, pts):
        return pts[:, self.index].copy()

    def to_string(self, prec=0):
        return f"x{self.index + 1}"


@dataclass(frozen=True)
class Neg:
    child: object

    def evaluate(self, pts):
        return -self.child.evaluate(pts)

    def to_string(self, prec=0):
        inner = self.child.to_string(3)
        return f"(-{inner})" if prec > 1 else f"-{inner}"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: object
    right: object

    def evaluate(self, pts):
        a = self.left.evaluate(pts)
        b = self.right.evaluate(pts)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        return a / b

    def to_string(self, prec=0):
        mine = 1 if self.op in "+-" else 2
        left = self.left.to_string(mine)
        # Right operand binds one level tighter so that a - (b - c) and
        # a / (b * c) keep their parentheses.
        right = self.right.to_string(mine + 1)
        text = f"{left} {self.op} {right}"
        return f"({text})" if prec > mine else text


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int

    def evaluate(self, pts):
        return self.base.evaluate(pts) ** self.exponent

    def to_string(self, prec=0):
        text = f"{self.base.to_string(5)}^{self.exponent}"
        # A power cannot be the base of another power without parentheses.
        return f"({text})" if prec > 4 else text


@dataclass(frozen=True)
class Call:
    name: str
    arg: object

    def evaluate(self, pts):
        return _FUNCTIONS[self.name](self.arg.evaluate(pts))

    def to_string(self, prec=0):
        return f"{self.name}({self.arg.to_string(0)})"


# ---------------------------------------------------------------------------
# Tokenizer / parser

_OPERATORS = {"+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH", "^": "CARET",
              "(": "LPAREN", ")": "RPAREN", ",": "COMMA"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append(_Token(_OPERATORS[ch], ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                mark = i
                i += 1
                if i < n and text[i] in "+-":
                    i += 1
                if i < n and text[i].isdigit():
                    while i < n and text[i].isdigit():
                        i += 1
                else:
                    i = mark  # the e belongs to a following name, not the number
            tokens.append(_Token("NUMBER", text[start:i], start))
            continue
        if ch.isalpha():
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("NAME", text[start:i], start))
            continue
        raise ParseError(
            f"unexpected character {ch!r} at position {i}",
            position=i,
            expected=("number", "name", "operator"),
            found=ch,
        )
    tokens.append(_Token("END", "", n))
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
        exprs = [(self.pos_start(), self.parse_expr())]
        while self.peek().kind == "COMMA":
            self.advance()
            exprs.append((self.pos_start(), self.parse_expr()))
        if self.peek().kind != "END":
            self.fail(("','", "end of input"))
        spans = []
        for idx, (start, expr) in enumerate(exprs):
            end = exprs[idx + 1][0] if idx + 1 < len(exprs) else len(self.text)
            label = self.text[start:end].strip().rstrip(",").strip()
            spans.append((expr, label))
        return spans

    def pos_start(self):
        return self.peek().pos

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek().kind in ("STAR", "SLASH"):
            op = self.advance().text
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek().kind == "MINUS":
            self.advance()
            return Neg(self.parse_unary())
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
            if any(c in tok.text for c in ".eE"):
                raise ParseError(
                    f"exponent must be an integer, got {tok.text} at position {tok.pos}",
                    position=tok.pos,
                    expected=("integer exponent",),
                    found=tok.text,
                )
            node = Power(node, sign * int(tok.text))
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Num(float(tok.text))
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
                return Call(tok.text, arg)
            return Var(self.variable_index(tok))
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
        elif name.startswith("x") and name[1:].isdigit():
            index = int(name[1:])
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
                f"{name!r} references coordinate {index} but the dimension is "
                f"{self.dimension}"
            )
        return index - 1


# ---------------------------------------------------------------------------
# Public types and operations


@dataclass(frozen=True)
class BasisFunction:
    """One member of a basis list: an expression tree plus a display label."""

    root: object
    label: str

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (n, p) array of points, returning an n-vector.

        Raises EvaluationError when any point yields a non-finite value
        (division by zero, overflow, ...), identifying the point.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        with np.errstate(all="ignore"):
            out = self.root.evaluate(pts)
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

    def to_string(self) -> str:
        """Canonical, re-parseable rendering of the expression tree."""
        return self.root.to_string(0)


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

    Raises ParseError (with position and expected tokens) on bad syntax and
    DimensionError when an expression references a coordinate beyond
    ``dimension``.
    """
    if dimension < 1:
        raise DimensionError("dimension must be at least 1")
    parser = _Parser(text, dimension)
    spans = parser.parse_list()
    functions = tuple(BasisFunction(expr, label) for expr, label in spans)
    return BasisSet(functions=functions, dimension=dimension)


def format_basis_spec(basis: BasisSet) -> str:
    """Render a basis back to spec syntax; parsing the result reproduces the
    same functions."""
    return ", ".join(f.to_string() for f in basis.functions)


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


def matrix_rank_estimate(matrix: np.ndarray) -> int:
    """Numerical rank via Gram-Schmidt with column pivoting.

    At each step the column with the largest remaining norm is chosen; its
    norm is the pivot.  Columns stop counting once the pivot falls below
    ``RANK_TOL`` times the first (largest) pivot.
    """
    work = np.array(matrix, dtype=float, copy=True)
    if work.ndim != 2:
        raise DimensionError("rank estimation expects a matrix")
    n, m = work.shape
    rank = 0
    first_pivot = None
    for _ in range(min(n, m)):
        norms = np.linalg.norm(work, axis=0)
        j = int(np.argmax(norms))
        pivot = norms[j]
        if first_pivot is None:
            if pivot == 0.0:
                break
            first_pivot = pivot
        if pivot <= RANK_TOL * first_pivot:
            break
        rank += 1
        q = work[:, j] / pivot
        work -= np.outer(q, q @ work)
        work[:, j] = 0.0
    return rank
