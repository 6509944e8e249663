"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is stored as a dict mapping dense exponent tuples to nonzero
Fraction coefficients; the zero polynomial has an empty dict.  All variables
are indexed: a polynomial in ``nvars`` variables uses exponent tuples of that
length.  Text form uses ``x0, x1, ...`` (or ``d0, d1, ...`` for operators in
the dual ring); the canonical term order is graded lexicographic, highest
degree first.

Everything here is exact.  No floats enter at any point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Exponent = tuple[int, ...]
Scalar = Fraction | int

_TOKEN_RE = re.compile(r"\s*(?:(?P<var>[xd]_?(?P<idx>\d+))|(?P<int>\d+)|(?P<op>[-+*^()/]))")

# Deepest parenthesis nesting the parser accepts.  Each level costs five
# Python frames, so this keeps well inside the interpreter's recursion limit.
MAX_NESTING = 100


class PolynomialSyntaxError(ValueError):
    """Raised for malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class AmbientMismatchError(ValueError):
    """Raised when operands live in different numbers of variables."""


def grlex_key(exps: Exponent) -> tuple:
    """Sort key putting monomials in descending graded-lex order."""
    return (-sum(exps), tuple(-e for e in exps))


def monomials(nvars: int, degree: int) -> list[Exponent]:
    """All exponent tuples of the given total degree, descending lex."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out: list[Exponent] = []
    for first in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


class Polynomial:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] | None = None):
        if nvars < 1:
            raise ValueError(f"need at least one variable, got {nvars}")
        clean: dict[Exponent, Fraction] = {}
        for exps, coef in (terms or {}).items():
            if len(exps) != nvars:
                raise AmbientMismatchError(
                    f"exponent tuple {exps} does not match {nvars} variables")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = Fraction(coef)
            if c:
                clean[tuple(exps)] = c
        self.nvars = nvars
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> Polynomial:
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> Polynomial:
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> Polynomial:
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if j == index else 0 for j in range(nvars))
        return cls(nvars, {exps: 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Exponent, coef: Scalar = 1) -> Polynomial:
        return cls(nvars, {tuple(exps): coef})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """Copy of the term dict (exponent tuple -> coefficient)."""
        return dict(self._terms)

    def items(self) -> Iterator[tuple[Exponent, Fraction]]:
        """Terms in canonical (descending graded-lex) order."""
        for exps in sorted(self._terms, key=grlex_key):
            yield exps, self._terms[exps]

    def coefficient(self, exps: Exponent) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self._terms}
        return len(degrees) <= 1

    def homogeneous_degree(self) -> int:
        """Degree of a nonzero form; raises if not homogeneous or zero."""
        degrees = {sum(e) for e in self._terms}
        if len(degrees) != 1:
            raise ValueError("polynomial is zero or not homogeneous")
        return degrees.pop()

    # -- arithmetic --------------------------------------------------------

    def _check_ambient(self, other: Polynomial) -> None:
        if self.nvars != other.nvars:
            raise AmbientMismatchError(
                f"ambients differ: {self.nvars} vs {other.nvars} variables")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check_ambient(other)
        terms = dict(self._terms)
        for exps, c in other._terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + c
        return Polynomial(self.nvars, terms)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __neg__(self) -> Polynomial:
        return Polynomial(self.nvars, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_ambient(other)
        terms: dict[Exponent, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return Polynomial(self.nvars, terms)

    def __rmul__(self, other: Scalar) -> Polynomial:
        return self.scale(other)

    def scale(self, c: Scalar) -> Polynomial:
        c = Fraction(c)
        return Polynomial(self.nvars, {e: c * v for e, v in self._terms.items()})

    def __pow__(self, k: int) -> Polynomial:
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def differentiate(self, index: int) -> Polynomial:
        """Partial derivative with respect to variable ``index``."""
        terms: dict[Exponent, Fraction] = {}
        for exps, c in self._terms.items():
            e = exps[index]
            if e:
                lowered = exps[:index] + (e - 1,) + exps[index + 1:]
                terms[lowered] = terms.get(lowered, Fraction(0)) + c * e
        return Polynomial(self.nvars, terms)

    # -- printing ----------------------------------------------------------

    def to_string(self, prefix: str = "x") -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for exps, coef in self.items():
            factors = []
            for j, e in enumerate(exps):
                if e == 1:
                    factors.append(f"{prefix}{j}")
                elif e > 1:
                    factors.append(f"{prefix}{j}^{e}")
            mag = abs(coef)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if not pieces:
                pieces.append(body if coef > 0 else "-" + body)
            else:
                pieces.append(("+ " if coef > 0 else "- ") + body)
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self.to_string()!r})"


@dataclass(frozen=True)
class LinearForm:
    """A linear form sum(coeffs[i] * x_i), stored as its coefficient tuple."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar]):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def to_polynomial(self) -> Polynomial:
        n = self.nvars
        terms = {}
        for i, c in enumerate(self.coeffs):
            if c:
                terms[tuple(1 if j == i else 0 for j in range(n))] = c
        return Polynomial(n, terms)

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> LinearForm:
        if p.is_zero() or p.homogeneous_degree() != 1:
            raise ValueError("not a nonzero linear form")
        coeffs = [Fraction(0)] * p.nvars
        for exps, c in p.terms.items():
            coeffs[exps.index(1)] = c
        return cls(coeffs)

    def monic(self) -> tuple[Fraction, LinearForm]:
        """Scale so the first nonzero coefficient is 1; returns (scale, form)."""
        for c in self.coeffs:
            if c:
                return c, LinearForm(v / c for v in self.coeffs)
        raise ValueError("zero linear form has no monic representative")

    def proportional_to(self, other: LinearForm) -> bool:
        if self.is_zero() or other.is_zero():
            return False
        return self.monic()[1].coeffs == other.monic()[1].coeffs

    def to_string(self, prefix: str = "x") -> str:
        return self.to_polynomial().to_string(prefix)

    def __str__(self) -> str:
        return self.to_string()


class LinearChange:
    """An invertible substitution: old variable i becomes sum_j matrix[i][j] * new_j."""

    __slots__ = ("matrix", "_inverse")

    def __init__(self, matrix: Iterable[Iterable[Scalar]]):
        rows = tuple(tuple(Fraction(c) for c in row) for row in matrix)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("change of coordinates must be square")
        from . import linalg  # local import keeps module load order flexible

        inv = linalg.inverse([list(row) for row in rows])
        if inv is None:
            raise ValueError("change of coordinates is singular")
        self.matrix = rows
        self._inverse = tuple(tuple(row) for row in inv)

    @property
    def nvars(self) -> int:
        return len(self.matrix)

    @classmethod
    def identity(cls, nvars: int) -> LinearChange:
        return cls([[1 if i == j else 0 for j in range(nvars)] for i in range(nvars)])

    def inverse(self) -> LinearChange:
        out = object.__new__(LinearChange)
        out.matrix = self._inverse
        out._inverse = self.matrix
        return out

    def compose(self, other: LinearChange) -> LinearChange:
        """Matrix product self*other: substituting by the result equals
        substituting by self, then by other."""
        if self.nvars != other.nvars:
            raise AmbientMismatchError("change sizes differ")
        n = self.nvars
        prod = [[sum(self.matrix[i][k] * other.matrix[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]
        return LinearChange(prod)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearChange):
            return NotImplemented
        return self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"LinearChange({[[str(c) for c in row] for row in self.matrix]})"


def substitute(p: Polynomial, change: LinearChange) -> Polynomial:
    """Rewrite p in new coordinates: each old variable i is replaced by the
    linear form given by row i of the change matrix."""
    if p.nvars != change.nvars:
        raise AmbientMismatchError(
            f"polynomial has {p.nvars} variables, change has {change.nvars}")
    n = p.nvars
    images = [Polynomial(n, {tuple(1 if k == j else 0 for k in range(n)): c
                             for j, c in enumerate(change.matrix[i]) if c})
              for i in range(n)]
    result = Polynomial.zero(n)
    for exps, coef in p._terms.items():
        term = Polynomial.constant(n, coef)
        for i, e in enumerate(exps):
            if e:
                term = term * images[i] ** e
        result = result + term
    return result


# -- parsing ---------------------------------------------------------------

def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise PolynomialSyntaxError(f"unexpected character {stripped[0]!r}", at)
        if m.group("var"):
            prefix = m.group("var")[0]
            tokens.append(("var", (prefix, int(m.group("idx"))), m.start("var")))
        elif m.group("int"):
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("op"):
            tokens.append((m.group("op"), None, m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for +, -, *, ^ over rational literals and
    indexed variables.  No implicit multiplication, no division operator:
    '/' may only separate two integer literals."""

    def __init__(self, tokens: list[tuple[str, object, int]], nvars: int, textlen: int):
        self.tokens = tokens
        self.i = 0
        self.nvars = nvars
        self.textlen = textlen
        self.prefixes: set[str] = set()
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][2] if self.i < len(self.tokens) else self.textlen

    def take(self) -> tuple[str, object, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> Polynomial:
        result = self.term()
        while self.peek() in ("+", "-"):
            op, _, _ = self.take()
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def term(self) -> Polynomial:
        result = self.factor()
        while self.peek() == "*":
            self.take()
            result = result * self.factor()
        return result

    def factor(self) -> Polynomial:
        sign = 1
        while self.peek() in ("+", "-"):
            op, _, _ = self.take()
            if op == "-":
                sign = -sign
        p = self.primary()
        return p if sign > 0 else -p

    def primary(self) -> Polynomial:
        p = self.atom()
        if self.peek() == "^":
            self.take()
            if self.peek() != "int":
                raise PolynomialSyntaxError("exponent must be an integer literal", self.pos())
            _, k, _ = self.take()
            p = p ** k
        return p

    def atom(self) -> Polynomial:
        kind = self.peek()
        if kind == "int":
            _, num, _ = self.take()
            if self.peek() == "/":
                self.take()
                if self.peek() != "int":
                    raise PolynomialSyntaxError("denominator must be an integer literal", self.pos())
                _, den, at = self.take()
                if den == 0:
                    raise PolynomialSyntaxError("zero denominator", at)
                return Polynomial.constant(self.nvars, Fraction(num, den))
            return Polynomial.constant(self.nvars, num)
        if kind == "var":
            _, (prefix, idx), at = self.take()
            self.prefixes.add(prefix)
            if idx >= self.nvars:
                raise PolynomialSyntaxError(
                    f"variable index {idx} exceeds ambient of {self.nvars} variables", at)
            return Polynomial.variable(self.nvars, idx)
        if kind == "(":
            _, _, at = self.take()
            if self.depth == MAX_NESTING:
                raise PolynomialSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", at)
            self.depth += 1
            p = self.expr()
            if self.peek() != ")":
                raise PolynomialSyntaxError("expected ')'", self.pos())
            self.take()
            self.depth -= 1
            return p
        raise PolynomialSyntaxError("expected a literal, variable, or '('", self.pos())


def parse(text: str, nvars: int | None = None) -> Polynomial:
    """Parse polynomial text over variables x0..x{n-1} (or d0.. in the dual ring).

    When nvars is omitted the ambient is inferred as highest index + 1.
    Mixing x- and d-variables in one expression is rejected.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialSyntaxError("empty input", 0)
    if nvars is None:
        indices = [tok[1][1] for tok in tokens if tok[0] == "var"]
        nvars = max(indices) + 1 if indices else 1
    parser = _Parser(tokens, nvars, len(text))
    p = parser.expr()
    if parser.i < len(parser.tokens):
        raise PolynomialSyntaxError("trailing input", parser.pos())
    if len(parser.prefixes) > 1:
        raise PolynomialSyntaxError("cannot mix x- and d-variables in one expression", 0)
    return p
