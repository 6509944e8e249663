"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is an integer polynomial over one denominator, as in FLINT's
fmpq_mpoly: _ints maps dense exponent tuples to nonzero ints, and _den > 0
has gcd(_den, _ints) = 1, so the representation is unique and == and hash
compare it.  The zero polynomial is {} over 1.  A polynomial in ``nvars``
variables uses exponent tuples of that length.  Text form uses ``x0, x1,
...`` (or ``d0, d1, ...`` for operators in the dual ring); the canonical
term order is graded lexicographic, highest degree first.

LinearForm, LinearChange (its matrix and, once built, its inverse) and the
coefficients of cubics.WaringDecomposition hold integers over one
denominator likewise; their constructors clear rational input once.

Arithmetic and printing build no Fraction: +, -, scale and differentiate
run term by term on the ints, * on packed keys (_packed) of the variables
that occur, ** through *.  Only terms, items(), coefficient(), coeffs,
matrix, monic() and a decomposition's terms build them; other modules
read _ints, _den, _rows and _terms, and a decomposition's JSON goes out
and comes back in (_number_pair) as integers.  Every linear
substitution runs in one integer kernel, _compose_packed, behind
substitute.  Power sums, which WaringDecomposition.expand and
cubics.verify_decomposition expand, take each output monomial once by the
multinomial theorem in WaringDecomposition._power_sum instead.

parse reads text in time linear in its length: a sum goes into one dict
of ints over one denominator, a product of literals and variables into one
exponent map, and only parenthesized sums, and products and powers of them,
run on Polynomial arithmetic.  It refuses, with PolynomialSyntaxError, text
that could build more than MAX_MONOMIAL_ENTRIES exponent entries: too many
literals for the ambient, or a power or product with too many possible terms.

Everything here is exact.  No floats enter at any point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from math import comb, gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from . import linalg

Exponent = tuple[int, ...]
Scalar = Fraction | int
_Monomial = tuple[int, int, dict[int, int]]  # num/den * prod x_j^e over {j: e}, in parse

# every character but trailing whitespace is in a token, "bad" if in no other
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<var>[xd]_?(?P<idx>\d+))|(?P<int>\d+)|(?P<op>[-+*^()/])|(?P<bad>\S))")

# Deepest parenthesis nesting the parser accepts.  Each level costs five
# Python frames, so this keeps well inside the interpreter's recursion limit.
MAX_NESTING = 100

# Most exponent entries (monomials times variables, about 100 MB of tuples)
# that monomials() lists for one degree or that parse() builds for one
# polynomial, and most cells of the dense matrix apolar.catalecticant
# allocates.  Dense work on a degree that large would exhaust memory long
# before it ended.
MAX_MONOMIAL_ENTRIES = 10 ** 7


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
    """All exponent tuples of the given total degree, descending lex.

    Each tuple follows from the one before: the rightmost nonzero entry
    before the last gives up one, and the entry after it takes that one and
    the last entry.  Nothing of length `degree` is built.  Raises ValueError
    past MAX_MONOMIAL_ENTRIES exponent entries instead of exhausting memory.
    """
    if degree < 0:
        return []
    count = comb(nvars + degree - 1, degree) if nvars else int(degree == 0)
    if count * nvars > MAX_MONOMIAL_ENTRIES:
        raise ValueError(f"{count} monomials of degree {degree} in {nvars} "
                         "variables are too many to list")
    if not nvars:
        return [()] * count
    exps = [degree] + [0] * (nvars - 1)
    out, k = [tuple(exps)], 0  # no entry between k and the last is nonzero
    for _ in range(count - 1):
        while not exps[k]:
            k -= 1
        exps[k] -= 1
        if k < nvars - 2:
            k += 1
            exps[k], exps[-1] = exps[-1] + 1, 0
        else:
            exps[-1] += 1
        out.append(tuple(exps))
    return out


class Polynomial:
    """Immutable sparse polynomial over the rationals (module docstring)."""

    __slots__ = ("nvars", "_ints", "_den")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar] | None = None):
        if nvars < 1:
            raise ValueError(f"need at least one variable, got {nvars}")
        clean: dict[Exponent, Fraction | int] = {}
        for exps, coef in (terms or {}).items():
            if len(exps) != nvars:
                raise AmbientMismatchError(
                    f"exponent tuple {exps} does not match {nvars} variables")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = coef if isinstance(coef, (int, Fraction)) else Fraction(coef)
            if c:
                clean[tuple(exps)] = c
        # with den the lcm of the reduced denominators, gcd(den, ints) is 1
        self.nvars, self._den = nvars, lcm(*(c.denominator for c in clean.values()))
        self._ints = {e: c.numerator * (self._den // c.denominator) for e, c in clean.items()}

    @classmethod
    def _make(cls, nvars: int, ints: Mapping[Exponent, int], den: int = 1) -> Polynomial:
        """The polynomial sum v/den * x^e over the entries (e, v) of ints,
        den > 0, with zeros dropped and gcd(den, ints) divided out."""
        ints = {e: v for e, v in ints.items() if v}
        g = gcd(den, *ints.values())
        if g != 1:
            ints = {e: v // g for e, v in ints.items()}
        out = object.__new__(cls)
        out.nvars, out._ints, out._den = nvars, ints, den // g
        return out

    @classmethod
    def _from_packed(cls, nvars: int, acc: Mapping[int, int], base: int, den: int,
                     support: Sequence[int]) -> Polynomial:
        """The polynomial sum v/den * x^key over acc, keyed as by _packed."""
        ints = {}
        for key, v in acc.items():
            if v:
                exps = [0] * nvars
                for j in support:
                    key, exps[j] = divmod(key, base)
                ints[tuple(exps)] = v
        return cls._make(nvars, ints, den)

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
        return cls._make(nvars, {(0,) * index + (1,) + (0,) * (nvars - index - 1): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Exponent, coef: Scalar = 1) -> Polynomial:
        return cls(nvars, {tuple(exps): coef})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """The term dict (exponent tuple -> coefficient), built afresh."""
        return {e: Fraction(v, self._den) for e, v in self._ints.items()}

    def items(self) -> Iterator[tuple[Exponent, Fraction]]:
        """Terms in canonical (descending graded-lex) order."""
        for exps in sorted(self._ints, key=grlex_key):
            yield exps, Fraction(self._ints[exps], self._den)

    def coefficient(self, exps: Exponent) -> Fraction:
        return Fraction(self._ints.get(tuple(exps), 0), self._den)

    def is_zero(self) -> bool:
        return not self._ints

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self._ints), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self._ints}
        return len(degrees) <= 1

    def homogeneous_degree(self) -> int:
        """Degree of a nonzero form; raises if not homogeneous or zero."""
        degrees = {sum(e) for e in self._ints}
        if len(degrees) != 1:
            raise ValueError("polynomial is zero or not homogeneous")
        return degrees.pop()

    def _packed(self, base: int, support: Sequence[int]) -> dict[int, int]:
        """The integer terms keyed by packed exponents sum_k e_{support[k]} *
        base**k; support must hold every variable that occurs and base must
        exceed every exponent.  They are self over self._den."""
        powers = [base ** k for k in range(len(support))]
        return {sum(exps[j] * b for j, b in zip(support, powers)): v
                for exps, v in self._ints.items()}

    # -- arithmetic --------------------------------------------------------

    def _check_ambient(self, other: Polynomial) -> None:
        if self.nvars != other.nvars:
            raise AmbientMismatchError(
                f"ambients differ: {self.nvars} vs {other.nvars} variables")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check_ambient(other)
        den = lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        ints = {e: v * a for e, v in self._ints.items()}
        for e, v in other._ints.items():
            ints[e] = ints.get(e, 0) + v * b
        return Polynomial._make(self.nvars, ints, den)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __neg__(self) -> Polynomial:
        return self.scale(-1)

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        """A scalar multiple, or the product of the integer terms, packing
        only the variables that occur in either factor."""
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_ambient(other)
        base = self.degree() + other.degree() + 1
        support = sorted({j for p in (self, other) for exps in p._ints
                          for j in compress(range(self.nvars), exps)})
        acc = _packed_mul(self._packed(base, support), other._packed(base, support))
        return Polynomial._from_packed(self.nvars, acc, base, self._den * other._den,
                                       support)

    def __rmul__(self, other: Scalar) -> Polynomial:
        return self.scale(other)

    def scale(self, c: Scalar) -> Polynomial:
        """c * self for an int or Fraction c."""
        return Polynomial._make(self.nvars, {e: v * c.numerator for e, v in self._ints.items()},
                                self._den * c.denominator)

    def __pow__(self, k: int) -> Polynomial:
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial._make(self.nvars, {(0,) * self.nvars: 1})
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars == other.nvars and self._den == other._den
                and self._ints == other._ints)

    def __hash__(self) -> int:
        return hash((self.nvars, self._den, frozenset(self._ints.items())))

    def differentiate(self, index: int) -> Polynomial:
        """Partial derivative with respect to variable ``index``."""
        ints = {}
        for exps, v in self._ints.items():
            e = exps[index]
            if e:
                ints[exps[:index] + (e - 1,) + exps[index + 1:]] = v * e
        return Polynomial._make(self.nvars, ints, self._den)

    # -- printing ----------------------------------------------------------

    def to_string(self, prefix: str = "x") -> str:
        terms = []
        for exps in sorted(self._ints, key=grlex_key):
            factors = [f"{prefix}{j}^{_number_text(e)}" if e > 1 else f"{prefix}{j}"
                       for j, e in enumerate(exps) if e]
            terms.append((self._ints[exps], "*".join(factors)))
        return _signed_sum(terms, self._den) or "0"

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self.to_string()!r})"


def _number_text(num: int, den: int = 1) -> str:
    """num/den in decimal, "num" when den is 1, for ints of any length:
    str() refuses more than sys.get_int_max_str_digits() digits (4300 by
    default, 640 at least), so a longer int is split at a power of ten,
    about halfway, and joined."""
    if den != 1:
        return f"{_number_text(num)}/{_number_text(den)}"
    if num < 0:
        return "-" + _number_text(-num)
    if num.bit_length() <= 2000:  # at most 603 digits
        return str(num)
    k = num.bit_length() * 3 // 20
    high, low = divmod(num, 10 ** k)
    return _number_text(high) + _number_text(low).zfill(k)


_NUMBER_RE = re.compile(r"(-?)(\d+)(?:/(\d+))?")


def _digits_value(digits: str) -> int:
    """int(digits) for a digit string of any length, split as _number_text
    joins: about halfway, until each piece is short enough for int()."""
    if len(digits) <= 600:
        return int(digits)
    k = len(digits) // 2
    return _digits_value(digits[:-k]) * 10 ** k + _digits_value(digits[-k:])


def _number_pair(value) -> tuple[int, int]:
    """Integers (p, q), q > 0, of the rational that _number_text spells as
    "p" or "p/q", read at any length and not reduced; other text and JSON
    numbers go to Fraction as they are.  A zero q raises ZeroDivisionError
    and a JSON boolean TypeError: true is not the number 1."""
    if isinstance(value, str):
        m = _NUMBER_RE.fullmatch(value)
        if m is not None:
            sign, num, den = m.groups()
            q = _digits_value(den) if den else 1
            if not q:
                raise ZeroDivisionError(f"a zero denominator in {value[:40]!r}")
            p = _digits_value(num)
            return (-p if sign else p), q
    elif isinstance(value, bool):
        raise TypeError(f"{value!r} is a boolean, not a number")
    value = Fraction(value)
    return value.numerator, value.denominator


def _signed_sum(terms: Sequence[tuple[int, str]], den: int = 1) -> str:
    """The text of sum (v/den)*body over (v, body), body '' for 1: v/den in lowest terms,
    unit magnitudes left out before a body, a sign on every term but a positive first."""
    out = ""
    for v, body in terms:
        g = gcd(v, den)
        mag = _number_text(abs(v) // g, den // g)
        if not body:
            body = mag
        elif mag != "1":
            body = f"{mag}*{body}"
        out += (" + " if v > 0 else " - ") + body
    return "-" + out[3:] if out[1:2] == "-" else out[3:]


@dataclass(unsafe_hash=True)
class LinearForm:
    """A linear form sum(coeffs[i] * x_i), held as Polynomial holds its terms:
    integers _ints over one _den > 0, gcd(_den, _ints) = 1."""

    _ints: tuple[int, ...]
    _den: int

    def __init__(self, coeffs: Iterable[Scalar]):
        (ints,), self._den = linalg.cleared_rows(
            [[c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]])
        self._ints = tuple(ints)

    @classmethod
    def _make(cls, ints: Sequence[int], den: int = 1) -> LinearForm:
        """The form ints/den for den > 0, with gcd(den, ints) divided out."""
        g = gcd(den, *ints)
        out = object.__new__(cls)
        out._ints, out._den = tuple(v // g for v in ints), den // g
        return out

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficient tuple, built afresh."""
        return tuple(Fraction(v, self._den) for v in self._ints)

    @property
    def nvars(self) -> int:
        return len(self._ints)

    def is_zero(self) -> bool:
        return not any(self._ints)

    def to_polynomial(self) -> Polynomial:
        n = self.nvars
        return Polynomial._make(n, {(0,) * i + (1,) + (0,) * (n - i - 1): v
                                    for i, v in enumerate(self._ints) if v}, self._den)

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> LinearForm:
        if p.is_zero() or p.homogeneous_degree() != 1:
            raise ValueError("not a nonzero linear form")
        ints = [0] * p.nvars
        for exps, v in p._ints.items():
            ints[exps.index(1)] = v
        return cls._make(ints, p._den)

    def monic(self) -> tuple[Fraction, LinearForm]:
        """Scale so the first nonzero coefficient is 1; returns (scale, form),
        the form (ints/den) / (lead/den) = ints*lead / lead^2."""
        lead = next((v for v in self._ints if v), 0)
        if not lead:
            raise ValueError("zero linear form has no monic representative")
        return Fraction(lead, self._den), LinearForm._make([v * lead for v in self._ints],
                                                           lead * lead)

    def proportional_to(self, other: LinearForm) -> bool:
        if self.is_zero() or other.is_zero():
            return False
        return self.monic()[1] == other.monic()[1]

    def to_string(self, prefix: str = "x") -> str:
        return self.to_polynomial().to_string(prefix)

    def __str__(self) -> str:
        return self.to_string()


def _lowest(rows, den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The matrix rows/den, integer rows over den > 0, over its least denominator."""
    g = gcd(den, *(v for row in rows for v in row))
    return tuple(tuple(v // g for v in row) for row in rows), den // g


def _mat_mul(a, b) -> tuple[list[list[int]], int]:
    """The product of two matrices given as (integer rows, denominator)."""
    cols = list(zip(*b[0]))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a[0]], a[1] * b[1]


@dataclass
class LinearChange:
    """An invertible substitution: old variable i becomes sum_j matrix[i][j] * new_j.
    The matrix is held as (_rows, _den), integer rows over their least
    denominator, so == compares values.  The constructor proves the change
    invertible without inverting it: n integer rows independent modulo
    linalg.PRIME are independent over Q, and only rows that are dependent
    there go to elimination, which raises on a singular matrix.  The inverse,
    held alike as _inv, is built on first use (_inverse_pair) and then kept,
    unless a constructor such as _from_pair was given it."""

    _rows: tuple[tuple[int, ...], ...]
    _den: int
    _inv: tuple | None = field(compare=False, repr=False)

    def __init__(self, matrix: Iterable[Iterable[Scalar]]):
        rows, den = linalg.cleared_rows(
            [[c if isinstance(c, (int, Fraction)) else Fraction(c) for c in row]
             for row in matrix])
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("change of coordinates must be square")
        self._rows, self._den, self._inv = tuple(map(tuple, rows)), den, None
        if linalg.independent([{j: v for j, v in enumerate(row) if v} for row in rows],
                              len(rows), len(rows)) is None:
            self._inverse_pair()

    def _inverse_pair(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The inverse as (integer rows, least denominator), by elimination
        on first use; raises ValueError if the matrix is singular."""
        if self._inv is None:
            inv = linalg.inverse(self._rows)
            if inv is None:
                raise ValueError("change of coordinates is singular")
            # (R/den)^-1 = den * R^-1 = den*I/D
            self._inv = _lowest([[v * self._den for v in row] for row in inv[0]], inv[1])
        return self._inv

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The matrix as Fraction rows, built afresh."""
        return tuple(tuple(Fraction(v, self._den) for v in row) for row in self._rows)

    @property
    def nvars(self) -> int:
        return len(self._rows)

    @classmethod
    def identity(cls, nvars: int) -> LinearChange:
        return cls([[int(i == j) for j in range(nvars)] for i in range(nvars)])

    @classmethod
    def _from_pair(cls, matrix, inverse) -> LinearChange:
        """A change from its matrix and that matrix's inverse, each given as
        (integer rows, denominator > 0), taken as given: no elimination runs."""
        return cls._held(_lowest(*matrix), _lowest(*inverse))

    @classmethod
    def _held(cls, matrix, inverse) -> LinearChange:
        """_from_pair for pairs already over their least denominators."""
        out = object.__new__(cls)
        (out._rows, out._den), out._inv = matrix, inverse
        return out

    def inverse(self) -> LinearChange:
        return LinearChange._held(self._inverse_pair(), (self._rows, self._den))

    def compose(self, other: LinearChange) -> LinearChange:
        """Matrix product self*other: substituting by the result equals
        substituting by self, then by other.  Its inverse is the product of
        the inverses in the other order."""
        if self.nvars != other.nvars:
            raise AmbientMismatchError("change sizes differ")
        return LinearChange._from_pair(
            _mat_mul((self._rows, self._den), (other._rows, other._den)),
            _mat_mul(other._inverse_pair(), self._inverse_pair()))


def substitute(p: Polynomial, change: LinearChange) -> Polynomial:
    """Rewrite p in new coordinates: each old variable i is replaced by the
    linear form given by row i of the change matrix."""
    if p.nvars != change.nvars:
        raise AmbientMismatchError(
            f"polynomial has {p.nvars} variables, change has {change.nvars}")
    top = max(p.degree(), 0)
    acc = _compose_packed(p._ints.items(), change._rows, change._den, top, top + 1)
    return Polynomial._from_packed(p.nvars, acc, top + 1, p._den * change._den ** top,
                                   range(p.nvars))


def _compose_packed(terms: Iterable[tuple[Exponent, int]],
                    rows: Sequence[Sequence[int]], den: int, top: int,
                    base: int) -> dict[int, int]:
    """The integer kernel of every linear substitution.

    Returns sum v * den**(top - |e|) * prod_i (sum_j rows[i][j] * x_j)**e_i
    over the terms (e, v), each output monomial packed into one int,
    sum_j e_j * base**j.  The caller picks base above every exponent of the
    result, so adding two keys multiplies the two monomials.  With rows
    holding D*R for a rational matrix R, the scaling by den**(top - |e|)
    gives every term of degree |e| <= top the denominator D**top.
    """
    packed_rows = [{base ** j: c for j, c in enumerate(row) if c} for row in rows]
    powers: list[list[dict[int, int]]] = [[{0: 1}] for _ in rows]
    acc: dict[int, int] = {}
    for exps, v in terms:
        prod = None  # the product of the powers, a cached one left unscaled
        for i, e in enumerate(exps):
            if e:
                cached = powers[i]
                while len(cached) <= e:
                    cached.append(_packed_mul(cached[-1], packed_rows[i]))
                prod = cached[e] if prod is None else _packed_mul(prod, cached[e])
        _packed_mul({0: v * den ** (top - sum(exps))},
                    {0: 1} if prod is None else prod, acc)
    return acc


def _packed_mul(a: dict[int, int], b: dict[int, int],
                out: dict[int, int] | None = None) -> dict[int, int]:
    """Product of two polynomials held as {packed exponent key: integer},
    added into out when it is given."""
    if out is None:
        out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            out[k] = out.get(k, 0) + va * vb
    return out


# -- parsing ---------------------------------------------------------------

def _comb_exceeds(n: int, k: int, limit: int) -> bool:
    """Whether comb(n, k) > limit, without computing comb(n, k) past the
    limit: comb(n - k + i, i) grows with i."""
    k = min(k, n - k)
    c = 1
    for i in range(1, k + 1):
        c = c * (n - k + i) // i
        if c > limit:
            return True
    return False


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "var":
            index = _digits_value(m.group("idx"))
            tokens.append(("var", (m.group("var")[0], index), m.start("var")))
        elif kind == "int":
            tokens.append(("int", _digits_value(m.group("int")), m.start("int")))
        elif kind == "op":
            tokens.append((m.group("op"), None, m.start("op")))
        else:
            raise PolynomialSyntaxError(f"unexpected character {m.group('bad')!r}",
                                        m.start("bad"))
    return tokens


class _Parser:
    """Recursive-descent parser for +, -, *, ^ over rational literals and
    indexed variables.  No implicit multiplication, no division operator:
    '/' may only separate two integer literals.  A product of literals and
    variables stays a _Monomial; expr adds terms into one dict of ints over
    one denominator, rescaled only when a term brings a new one."""

    def __init__(self, tokens: list[tuple[str, object, int]], nvars: int, textlen: int):
        self.tokens = tokens + [(None, None, textlen)]
        self.i = 0
        self.nvars = nvars
        self.depth = 0
        # the most terms one polynomial may have: each holds an exponent
        # tuple of nvars entries
        self.budget = MAX_MONOMIAL_ENTRIES // max(nvars, 1)

    def peek(self) -> str | None:
        return self.tokens[self.i][0]

    def pos(self) -> int:
        return self.tokens[self.i][2]

    def take(self) -> tuple[str, object, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def terms(self, t: Polynomial | _Monomial) -> tuple[Mapping[Exponent, int], int]:
        """The integer terms and the denominator of a Polynomial or monomial."""
        if isinstance(t, Polynomial):
            return t._ints, t._den
        key = [0] * self.nvars
        for j, e in t[2].items():
            key[j] = e
        return {tuple(key): t[0]}, t[1]

    def expr(self) -> Polynomial:
        ints: dict[Exponent, int] = {}
        den, sign = 1, 1
        while True:
            terms, tden = self.terms(self.term())
            if den % tden:
                m = lcm(den, tden) // den
                ints, den = {e: v * m for e, v in ints.items()}, den * m
            scale = sign * (den // tden)
            for e, v in terms.items():
                ints[e] = ints.get(e, 0) + v * scale
            if self.peek() not in ("+", "-"):
                return Polynomial._make(self.nvars, ints, den)
            sign = 1 if self.take()[0] == "+" else -1

    def term(self) -> Polynomial | _Monomial:
        result = self.factor()
        while self.peek() == "*":
            _, _, at = self.take()
            rhs = self.factor()
            if isinstance(result, tuple) and isinstance(rhs, tuple):
                # a monomial has at most one term, within any budget
                for j, e in rhs[2].items():
                    result[2][j] = result[2].get(j, 0) + e
                result = result[0] * rhs[0], result[1] * rhs[1], result[2]
                continue
            result, rhs = (Polynomial._make(self.nvars, *self.terms(p)) for p in (result, rhs))
            if len(result._ints) * len(rhs._ints) > self.budget:
                self.check_size(result.degree() + rhs.degree(), at)
            result = result * rhs
        return result

    def check_size(self, degree: int, at: int) -> None:
        """Refuse a result that may have more terms than the budget allows,
        bounded by the monomials of degree at most `degree`."""
        if _comb_exceeds(self.nvars + degree, degree, self.budget):
            raise PolynomialSyntaxError(
                f"the expression may expand past {MAX_MONOMIAL_ENTRIES} exponent "
                f"entries in {self.nvars} variables", at)

    def factor(self) -> Polynomial | _Monomial:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        p = self.primary()
        return p if sign > 0 else -p if isinstance(p, Polynomial) else (-p[0], p[1], p[2])

    def primary(self) -> Polynomial | _Monomial:
        p = self.atom()
        if self.peek() == "^":
            self.take()
            if self.peek() != "int":
                raise PolynomialSyntaxError("exponent must be an integer literal", self.pos())
            _, k, at = self.take()
            if isinstance(p, tuple):
                return p[0] ** k, p[1] ** k, {j: e * k for j, e in p[2].items()}
            # p^k has at most comb(t+k-1, k) terms, t those of p
            if _comb_exceeds(len(p._ints) + k - 1, k, self.budget):
                self.check_size(k * p.degree(), at)
            p = p ** k
        return p

    def atom(self) -> Polynomial | _Monomial:
        kind, value, at = self.take()
        if kind == "int":
            den = 1
            if self.peek() == "/":
                self.take()
                if self.peek() != "int":
                    raise PolynomialSyntaxError("denominator must be an integer literal", self.pos())
                _, den, at = self.take()
                if den == 0:
                    raise PolynomialSyntaxError("zero denominator", at)
            return value, den, {}
        if kind == "var":
            if value[1] >= self.nvars:
                raise PolynomialSyntaxError(f"variable index {_number_text(value[1])} exceeds "
                                            f"ambient of {self.nvars} variables", at)
            return 1, 1, {value[1]: 1}
        if kind == "(":
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
        raise PolynomialSyntaxError("expected a literal, variable, or '('", at)


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
    # every literal and variable becomes a polynomial with one exponent tuple
    atoms = [at for kind, _, at in tokens if kind in ("int", "var")]
    if len(atoms) * nvars > MAX_MONOMIAL_ENTRIES:
        raise PolynomialSyntaxError(
            f"{len(atoms)} literals and variables in {_number_text(nvars)} variables would "
            f"build more than {MAX_MONOMIAL_ENTRIES} exponent entries",
            atoms[0] if atoms else 0)
    parser = _Parser(tokens, nvars, len(text))
    p = parser.expr()
    if parser.peek() is not None:
        raise PolynomialSyntaxError("trailing input", parser.pos())
    # the parse read every token, so these are the prefixes of its variables
    if len({value[0] for kind, value, _ in tokens if kind == "var"}) > 1:
        raise PolynomialSyntaxError("cannot mix x- and d-variables in one expression", 0)
    return p
