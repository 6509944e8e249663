"""Classification of reducible cubics and explicit power-sum decompositions.

A reducible cubic is a product L*Q of a hyperplane and a quadric.  Writing M
for the symmetric matrix of Q and l for the coefficient vector of L, the
non-degenerate classes are separated by rank(M) and the tangency invariant
l^T adj(M) l:

  TypeA  Q smooth (rank n+1), L not tangent       (l^T adj(M) l != 0)
  TypeB  Q a cone of rank n, L off the vertex
  TypeC  Q smooth, L tangent                      (l^T adj(M) l == 0)

plus Cone (the product uses fewer than n+1 essential variables) and
DegenerateProduct (L divides Q).  The tangent class TypeC is the interesting
one: it admits the pinch normal form x0*(x0*x1 + x2*x3 + x4^2 + ... + xn^2)
(x0*(x0*x1 + x2^2) when n = 2), and this module builds explicit rational
power sums of 2n+1 cubes for it from one closed-form identity: a shifted
x1 block of three cubes plus two cubes (x0 +- w)^3 for each square w^2 of
the quadric (see decompose_type_c_normal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul

from . import linalg
from .apolar import apolar_ideal
from .poly import (MAX_MONOMIAL_ENTRIES, AmbientMismatchError, LinearChange,
                   LinearForm, Polynomial, _comb_exceeds, _number_pair, _number_text,
                   _signed_sum)


class NeedsFieldExtension(Exception):
    """Raised when no rational change of coordinates reaches the normal
    form; the message names the local invariant that proves it."""


class NormalizationUndecided(Exception):
    """Raised when a factoring or search bound ran out before the rational
    normalization of a tangent product was decided either way."""


class InvalidChange(ValueError):
    """Raised when a supplied change of coordinates fails its contract."""


class CubicKind(Enum):
    TYPE_A = "TypeA"
    TYPE_B = "TypeB"
    TYPE_C = "TypeC"
    CONE = "Cone"
    DEGENERATE_PRODUCT = "DegenerateProduct"


@dataclass(frozen=True)
class CubicType:
    kind: CubicKind
    essential: int | None = None

    def __str__(self) -> str:
        if self.essential is not None:
            return f"{self.kind.value}(essential={self.essential})"
        return self.kind.value


@dataclass(frozen=True)
class ReducibleCubic:
    """A cubic given as hyperplane times quadric."""

    linear: LinearForm
    quadric: Polynomial

    def __post_init__(self):
        if self.linear.is_zero():
            raise ValueError("linear factor is zero")
        if self.quadric.is_zero() or self.quadric.homogeneous_degree() != 2:
            raise ValueError("quadric factor must be a nonzero form of degree 2")
        if self.linear.nvars != self.quadric.nvars:
            raise AmbientMismatchError("factors live in different ambients")

    @property
    def nvars(self) -> int:
        return self.quadric.nvars

    def form(self) -> Polynomial:
        """L*Q, multiplied on integer terms by Polynomial.__mul__."""
        return self.linear.to_polynomial() * self.quadric

    @classmethod
    def from_polynomials(cls, linear: Polynomial, quadric: Polynomial) -> ReducibleCubic:
        return cls(LinearForm.from_polynomial(linear), quadric)


def _quadric_ints(q: Polynomial) -> tuple[list[list[int]], int]:
    """(A, D): the symmetric matrix M of q (off-diagonal entries halved) as
    the integer matrix A over D, the least common denominator of M: 2d when
    an off-diagonal term of q = N/d is odd, else d, as gcd(d, N) = 1."""
    f = 2 if any(v % 2 for exps, v in q._ints.items() if max(exps) == 1) else 1
    a = [[0] * q.nvars for _ in range(q.nvars)]
    for exps, v in q._ints.items():
        i, j = [k for k, e in enumerate(exps) for _ in range(e)]
        a[i][j] = a[j][i] = f * v if i == j else f * v // 2
    return a, f * q._den


def quadric_matrix(q: Polynomial) -> list[list[Fraction]]:
    """Symmetric matrix M with q(x) = x^T M x (off-diagonal entries halved)."""
    a, d = _quadric_ints(q)
    return [[Fraction(v, d) for v in row] for row in a]


def _hyperplane_basis(row: list[int], k: int) -> list[list[int]]:
    """The integer vectors row[k]*e_j - row[j]*e_k, j != k in order: a basis
    of the vectors v with row . v = 0 when row[k] != 0.  Divided by row[k]
    they are the canonical kernel basis of the row when k is its first
    nonzero entry."""
    out = []
    for j in range(len(row)):
        if j != k:
            v = [0] * len(row)
            v[j], v[k] = row[k], -row[j]
            out.append(v)
    return out


def classify(rc: ReducibleCubic) -> CubicType:
    """Projective class of the product, decided by one reduction of [M | l].

    d_v(L*Q) vanishes exactly when l.v = 0 and Mv = 0.  If L does not divide
    Q, d_v(L*Q) = (l.v)*Q + 2*L*(Mv)^T x, zero only if l.v = 0 (else L would
    divide Q) and then Mv = 0.  If Q = L*L', d_v(L*Q) =
    L*(2*(l.v)*L' + (l'.v)*L) and 2*Mv = (l'.v)*l + (l.v)*l' both vanish iff
    l.v = l'.v = 0 when l' is not proportional to l, and iff l.v = 0 when
    l' = a*l.  So the number of essential variables is the rank of [M; l^T],
    which is rank [M | l] because M is symmetric.  Dropping the column l
    lowers that rank by at most one, so a product with all variables
    essential has rank(M) = n+1 or n.

    The reduction runs on integer rows: [A | l'], with M = A/D and l' the
    cleared l, scales the rows and the last column of [M | l] by nonzero
    constants, which keeps the pivots and the zero test of l^T M^-1 l.  L
    divides Q exactly when Q vanishes on the hyperplane L = 0, that is when
    the Gram matrix of A on an integer basis of it is zero.
    """
    if rc.nvars < 3:
        raise ValueError("the projective classification needs at least 3 "
                         "variables; binary forms go through decompose_binary")
    nv = rc.nvars
    a, _ = _quadric_ints(rc.quadric)
    l = list(rc.linear._ints)
    red, pivots = linalg.rref([row + [c] for row, c in zip(a, l)])
    k = next(i for i, c in enumerate(l) if c)
    if not any(any(row) for row in linalg.gram(a, _hyperplane_basis(l, k))):
        return CubicType(CubicKind.DEGENERATE_PRODUCT, len(pivots))
    if len(pivots) < nv:
        return CubicType(CubicKind.CONE, len(pivots))
    if pivots[-1] < nv:
        # A is invertible, so row i is a_i*(e_i | (A^-1 l')_i); l^T M^-1 l is
        # a nonzero multiple of sum l'_i * row_i[nv] * (D/a_i), D = lcm a_i
        den = lcm(*(row[i] for i, row in enumerate(red)))
        tangency = sum(c * row.get(nv, 0) * (den // row[i])
                       for i, (c, row) in enumerate(zip(l, red)))
        return CubicType(CubicKind.TYPE_C if tangency == 0 else CubicKind.TYPE_A)
    return CubicType(CubicKind.TYPE_B)


# -- power-sum decompositions -----------------------------------------------

@dataclass(frozen=True)
class WaringDecomposition:
    """A sum F = sum c_i * L_i^degree with pairwise independent forms L_i.

    c_i is the int _terms[i][0] over one _den > 0, gcd 1, as in Polynomial.
    The constructor takes (c_i, L_i) as given; assemble makes forms monic in
    their first nonzero entry, merges proportional ones, drops zero c_i, sorts."""

    degree: int
    nvars: int
    _terms: tuple[tuple[int, LinearForm], ...] = field(init=False)
    _den: int = field(init=False)

    def __init__(self, degree: int, nvars: int, terms):
        terms = tuple(terms)
        (ints,), den = linalg.cleared_rows([[Fraction(c) for c, _ in terms]])
        self._set(degree, nvars, tuple(zip(ints, (f for _, f in terms))), den)

    @classmethod
    def _make(cls, degree: int, nvars: int, terms, den: int) -> WaringDecomposition:
        """sum (c/den) * L^degree over the (c, L) terms, taken as given."""
        return object.__new__(cls)._set(degree, nvars, terms, den)

    def _set(self, degree: int, nvars: int, terms, den: int) -> WaringDecomposition:
        if degree < 0:
            raise ValueError(f"a power sum needs a degree >= 0, got {degree}")
        for name, value in zip(("degree", "nvars", "_terms", "_den"), (degree, nvars, terms, den)):
            object.__setattr__(self, name, value)
        return self

    @property
    def terms(self) -> tuple[tuple[Fraction, LinearForm], ...]:
        return tuple((Fraction(c, self._den), f) for c, f in self._terms)

    @classmethod
    def assemble(cls, degree: int, nvars: int, raw_terms) -> WaringDecomposition:
        d = cls(degree, nvars, raw_terms)
        return cls._from_rows(degree, nvars, ((c, f._ints, f._den) for c, f in d._terms), d._den)

    @classmethod
    def _from_rows(cls, degree: int, nvars: int, rows, den: int) -> WaringDecomposition:
        """Normalized terms from triples (c, row, d), each the term
        (c/den) * ((row/d) . x)^degree in ints, d > 0: terms merge on the
        row's _direction P, the monic form is P/p, p its first nonzero
        entry, and the coefficient takes the factor (lead/d)^degree, lead
        the row's first nonzero entry, over den * D^degree, D the lcm of the
        d, and one gcd.  They sort as P*(m/p), m the lcm of the p."""
        rows = [(c, row, d) for c, row, d in rows if c]
        big = lcm(*(d for _, _, d in rows))
        merged: dict[tuple[int, ...], int] = {}
        for coef, row, d in rows:
            lead = next((v for v in row if v), 0)
            if not lead:
                raise ValueError("decomposition term uses the zero form")
            if len(row) != nvars:
                raise AmbientMismatchError("term ambient differs from the decomposition's")
            key = _direction(row)
            merged[key] = merged.get(key, 0) + coef * (lead * (big // d)) ** degree
        kept = [(key, next(v for v in key if v), coef)
                for key, coef in merged.items() if coef]
        den *= big ** degree
        m, g = lcm(*(p for _, p, _ in kept)), gcd(den, *merged.values())
        kept.sort(key=lambda t: [v * (m // t[1]) for v in t[0]], reverse=True)
        return cls._make(degree, nvars, tuple((coef // g, LinearForm._make(key, p))
                                              for key, p, coef in kept), den // g)

    def __len__(self) -> int:
        return len(self._terms)

    def _power_sum(self, base: int) -> tuple[dict[int, int], int, int]:
        """(acc, scale, m): sum c_i * L_i^degree, from the integer terms and
        rows as they are, is the packed polynomial acc/scale in m variables,
        keys packed with the given base, which must exceed the degree.

        By the multinomial theorem, the coefficient of x_j1*...*x_jd, j1 <=
        ... <= jd, is d!/prod(e_j!) * sum_i c_i * prod_s L_i[js].  A walk
        over these sequences, on an explicit stack since the degree may be
        large, enumerates each monomial once and carries the vector of the
        products c_i * prod_s L_i[js] over the terms, the multinomial
        p!/prod(e_j!) of its first p entries, updated as mult * p // r with
        r the exponent the p-th column reaches, and the bitmask of the terms
        whose product is nonzero: a column no such term uses is skipped.
        """
        if not self._terms:
            return {}, 1, self.nvars
        den = lcm(*(form._den for _, form in self._terms))
        rows = [[v * (den // form._den) for v in form._ints] for _, form in self._terms]
        if len(set(map(len, rows))) > 1:
            raise AmbientMismatchError("the forms of the decomposition differ in length")
        d, coefs = self.degree, [c for c, _ in self._terms]
        scale, m = self._den * den ** d, len(rows[0])
        if d == 0:
            return {0: sum(coefs)}, scale, m
        cols = [(base ** j, col, sum(1 << i for i, v in enumerate(col) if v))
                for j, col in enumerate(zip(*rows)) if any(col)]
        acc: dict[int, int] = {}
        # (first column, depth p of the children, key, vector, mask,
        # multinomial, exponent of the last column)
        stack = [(0, 1, 0, coefs, sum(1 << i for i, c in enumerate(coefs) if c), 1, 0)]
        while stack:
            t, p, key, vec, mask, mult, run = stack.pop()
            for u in range(t, len(cols)):
                pw, col, colmask = cols[u]
                if mask & colmask:
                    r = run + 1 if u == t else 1
                    if p == d:
                        acc[key + pw] = mult * p // r * sum(map(mul, vec, col))
                    else:
                        stack.append((u, p + 1, key + pw, list(map(mul, vec, col)),
                                      mask & colmask, mult * p // r, r))
        return acc, scale, m

    def expand(self) -> Polynomial:
        """sum c_i * L_i^degree, each monomial's coefficient taken once,
        over all the terms, by the multinomial walk of _power_sum."""
        acc, scale, m = self._power_sum(self.degree + 1)
        return Polynomial._from_packed(m, acc, self.degree + 1, scale, range(m))

    def compose(self, change: LinearChange) -> WaringDecomposition:
        """Decomposition of the substituted form: each L_i becomes L_i o change.
        With L_i = l_i/d_i (zero-padded) and the change C = R/D in integers,
        L_i o change is the integer row l_i^T R over d_i*D."""
        if change.nvars != self.nvars:
            raise AmbientMismatchError("change ambient differs from the decomposition's")
        cols = list(zip(*change._rows))
        return WaringDecomposition._from_rows(self.degree, self.nvars, (
            (coef, [sum(map(mul, form._ints, col)) for col in cols],
             form._den * change._den) for coef, form in self._terms), self._den)

    def identity_string(self, name: str = "F", prefix: str = "x") -> str:
        """Integer-cleared identity like '6*F = (x0 + x2)^3 + ...'."""
        return _signed_sum([(self._den, name)]) + " = " + _signed_sum(
            [(c, f"({form.to_string(prefix)})^{self.degree}") for c, form in self._terms])

    def to_json_dict(self) -> dict:
        """Degree, variable count and terms, each coefficient and form entry
        written as "p" or "p/q" in lowest terms straight from the integers
        and their denominator."""
        def text(v: int, den: int) -> str:
            g = gcd(v, den)
            return _number_text(v // g, den // g)

        return {
            "degree": self.degree,
            "variables": self.nvars,
            "terms": [{"coefficient": text(c, self._den),
                       "form": [text(v, f._den) for v in f._ints]}
                      for c, f in self._terms],
        }

    @classmethod
    def from_json_dict(cls, data) -> WaringDecomposition:
        """The decomposition of a to_json_dict payload.  Raises ValueError
        on any other shape, on a number that is not a finite rational, on a
        degree or variable count that is not a JSON integer >= 0 or >= 1,
        and on an expansion that could pass MAX_MONOMIAL_ENTRIES exponent
        entries, bounded as the parser bounds it.  Numbers are read as
        integer pairs (_number_pair), the coefficients cleared to one
        denominator and each form to its own, and normalized as assemble
        normalizes."""
        if not (isinstance(data, dict) and isinstance(data.get("terms"), list)
                and all(isinstance(t, dict) and isinstance(t.get("form"), list)
                        for t in data["terms"])):
            raise ValueError('a decomposition is an object whose "terms" list '
                             'holds objects with a "form" list')
        degree, nvars = data.get("degree"), data.get("variables")
        if type(degree) is not int or degree < 0 or type(nvars) is not int or nvars < 1:
            raise ValueError('a decomposition needs an integer "degree" >= 0 '
                             'and an integer "variables" >= 1')
        if _comb_exceeds(nvars + degree - 1, degree, MAX_MONOMIAL_ENTRIES // nvars):
            raise ValueError(f"a degree-{degree} power sum in {nvars} variables may "
                             f"expand past {MAX_MONOMIAL_ENTRIES} exponent entries")
        try:
            terms = [(_number_pair(t["coefficient"]), [_number_pair(v) for v in t["form"]])
                     for t in data["terms"]]
        except KeyError as exc:
            raise ValueError(f"the decomposition has no field {exc}") from None
        except (TypeError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"not a finite rational in the decomposition: {exc}") from None
        den = lcm(*(q for (_, q), _ in terms))
        rows = []
        for (p, q), form in terms:
            d = lcm(*(b for _, b in form))
            rows.append((p * (den // q), [a * (d // b) for a, b in form], d))
        return cls._from_rows(degree, nvars, rows, den)


def verify_decomposition(form: Polynomial,
                         dec: WaringDecomposition) -> tuple[bool, Polynomial]:
    """Expand the decomposition exactly and compare; returns (ok, residual)
    with residual = form - dec.expand().

    The comparison runs in integers.  With F = N/a, the form's integer terms
    over its denominator, and dec.expand() = E/b for the integer polynomial
    E that _power_sum builds from the integer coefficients and forms, each
    monomial once, it checks b*N - a*E = 0 coefficient by coefficient,
    monomials packed with one base above both degrees.  As a, b > 0, that holds
    exactly when form == dec.expand(); the residual (b*N - a*E)/(a*b)
    becomes a Polynomial, which is empty when the check passes.

    ok also requires pairwise independent forms, forms with distinct
    _direction, which assembled decompositions have by construction.
    """
    if form.nvars != dec.nvars:
        raise AmbientMismatchError("form and decomposition ambients differ")
    base = max(dec.degree, form.degree()) + 1
    acc, scale, m = dec._power_sum(base)
    if m != form.nvars:
        raise AmbientMismatchError(
            f"ambients differ: {form.nvars} vs {m} variables")
    diff = {key: v * scale for key, v in form._packed(base, range(m)).items()}
    for key, v in acc.items():
        diff[key] = diff.get(key, 0) - v * form._den
    residual = Polynomial._from_packed(m, diff, base, scale * form._den, range(m))
    keys = [_direction(f._ints) for _, f in dec._terms if not f.is_zero()]
    independent = len(set(keys)) == len(keys)
    return independent and residual.is_zero(), residual


def _direction(row: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """The primitive multiple of a nonzero integer row with a positive lead:
    two such rows are proportional iff these agree."""
    g = gcd(*row) * (-1 if next(v for v in row if v) < 0 else 1)
    return tuple(row) if g == 1 else tuple(v // g for v in row)


def _pinch_monomials(n: int) -> list[tuple[int, ...]]:
    """The exponents of x0*x1, x2*x3 (x2^2 when n = 2) and x4^2, ..., xn^2:
    the monomials of the normal form's quadric, each with coefficient 1."""
    if n < 2:
        raise ValueError("the normal form needs ambient dimension n >= 2")
    pairs = [(0, 1), (2, 2 if n == 2 else 3)] + [(i, i) for i in range(4, n + 1)]
    return [tuple((k == i) + (k == j) for k in range(n + 1)) for i, j in pairs]


def normal_form(n: int) -> Polynomial:
    """The tangent (pinch) normal form x0*(x0*x1 + x2*x3 + x4^2 + ... + xn^2);
    for n = 2 the degenerate-pair version x0*(x0*x1 + x2^2)."""
    return Polynomial._make(n + 1, {(e[0] + 1,) + e[1:]: 1 for e in _pinch_monomials(n)})


def normal_form_pair(n: int) -> ReducibleCubic:
    """The normal form as an explicit (hyperplane, quadric) pair."""
    quadric = Polynomial._make(n + 1, dict.fromkeys(_pinch_monomials(n), 1))
    return ReducibleCubic(LinearForm._make(_unit(n + 1, 0)), quadric)


def split_normal_form(n: int) -> Polynomial:
    """The normal form after splitting the hyperbolic pair:
    y0^2*y1 - y1*y2^2 + y1^2*y3 + y1*(y4^2 + ... + yn^2) for n >= 3,
    and y0^2*y2 + y0*y1^2 for n = 2."""
    if n < 2:
        raise ValueError("the split form needs ambient dimension n >= 2")
    y = [Polynomial.variable(n + 1, i) for i in range(n + 1)]
    if n == 2:
        return y[0] ** 2 * y[2] + y[0] * y[1] ** 2
    form = y[0] ** 2 * y[1] - y[1] * y[2] ** 2 + y[1] ** 2 * y[3]
    for yi in y[4:]:
        form = form + y[1] * yi ** 2
    return form


def _unit(nv: int, i: int) -> list[int]:
    return [int(j == i) for j in range(nv)]


def split_change(n: int) -> LinearChange:
    """The substitution turning the pinch form into the split form:
    substitute(normal_form(n), split_change(n)) == split_normal_form(n)."""
    if n < 2:
        raise ValueError("the split form needs ambient dimension n >= 2")
    nv = n + 1
    if n == 2:
        return LinearChange([_unit(3, 0), _unit(3, 2), _unit(3, 1)])
    rows = [_unit(nv, 1), _unit(nv, 3)]
    rows.append([int(j in (0, 2)) for j in range(nv)])
    rows.append([1 if j == 0 else -1 if j == 2 else 0 for j in range(nv)])
    rows.extend(_unit(nv, i) for i in range(4, nv))
    return LinearChange(rows)


@lru_cache(maxsize=None)
def decompose_type_c_normal(n: int) -> WaringDecomposition:
    """Explicit 2n+1 cubes for the tangent normal form, all rational.

    Write F = x0^2*x1 + x0*sum_k s_k*w_k^2, with the single pair
    (s, w) = (1, x2) when n = 2, and the pairs (1, (x2+x3)/2),
    (-1, (x2-x3)/2) and (1, x_i) for i = 4..n otherwise.  With
    u = x1 - (sum_k s_k / 3)*x0 the identity

      F = (1/6)(x0+u)^3 - (1/6)(x0-u)^3 - (1/3)u^3
          + sum_k (s_k/6)[(x0+w_k)^3 + (x0-w_k)^3]

    follows from (1/6)[(a+b)^3 - (a-b)^3] = a^2*b + (1/3)b^3 and
    (1/6)[(a+b)^3 + (a-b)^3] = (1/3)a^3 + a*b^2: 3 + 2(n-1) = 2n+1 cubes.
    The result is immutable and cached per n.
    """
    F = normal_form(n)
    nv = n + 1
    if n == 2:
        squares = [(1, _unit(nv, 2))]
    else:
        half = Fraction(1, 2)
        squares = [(1, [0, 0, half, half] + [0] * (nv - 4)),
                   (-1, [0, 0, half, -half] + [0] * (nv - 4))]
        squares.extend((1, _unit(nv, i)) for i in range(4, nv))
    x0 = _unit(nv, 0)
    u = _unit(nv, 1)
    u[0] = Fraction(-sum(s for s, _ in squares), 3)

    def shifted(w, sign):
        return LinearForm(a + sign * b for a, b in zip(x0, w))

    terms = [(Fraction(1, 6), shifted(u, 1)), (Fraction(-1, 6), shifted(u, -1)),
             (Fraction(-1, 3), LinearForm(u))]
    for s, w in squares:
        terms.append((Fraction(s, 6), shifted(w, 1)))
        terms.append((Fraction(s, 6), shifted(w, -1)))
    dec = WaringDecomposition.assemble(3, nv, terms)
    ok, _ = verify_decomposition(F, dec)
    if not ok:
        raise RuntimeError("internal: normal-form decomposition failed verification")
    return dec


# -- normalization of a general tangent product ------------------------------

@lru_cache(maxsize=None)
def _pinch_ints(n: int) -> tuple[list[list[int]], int]:
    return _quadric_ints(normal_form_pair(n).quadric)


@lru_cache(maxsize=None)
def _pinch_inverse(n: int) -> list[tuple[int, int]]:
    """P^-1 by rows (j, w), the row w*e_j: P = A/D is symmetric with one
    nonzero entry v/D per row, so P^-1 has D/v, which is 1 or 2, there."""
    pinch, d = _pinch_ints(n)
    return [next((j, d // v) for j, v in enumerate(row) if v) for row in pinch]


def _carried_change(rc: ReducibleCubic, m, cols) -> LinearChange | None:
    """The change with columns C, with its inverse, when it carries L*Q onto
    the normal form x0*P: l^T C = (a/a_den)*e_0^T with a != 0, and
    C^T M C = P*a_den/a; None otherwise.
    M, the matrix of Q, and C come cleared, m = (d_m*M, d_m) and
    cols = (d_c*C, d_c).  One integer product K = (d_c*C)^T (d_m*M) gives
    both the check, a*K*(d_c*C) = P*a_den*d_m*d_c^2, and the inverse: P has
    rank n+1 with one nonzero entry per row, so (a/a_den)*P^-1*C^T*M*C = I
    and C^-1 = a*P^-1*K over a_den*d_c*d_m, without elimination.
    The check is exactly substitute(L*Q, C) == normal_form(n): x0 divides
    (L o C)*(Q o C) and cannot divide Q o C = x0*L', for P = (L o C)*L'
    would then be reducible, while P has rank n+1 >= 3; so L o C is x0
    times the scale and Q o C is P over it."""
    (m_int, d_m), (c_int, d_c) = m, cols
    a, *rest = [sum(map(mul, rc.linear._ints, col)) for col in c_int]
    if a == 0 or any(rest):
        return None
    a_den = rc.linear._den * d_c
    n = len(c_int) - 1
    pinch, d_p = _pinch_ints(n)
    # row j of K pairs column j of C with the rows of M = M^T
    ctm = [[sum(map(mul, col, row)) for row in m_int] for col in c_int]
    target = a_den * d_m * d_c * d_c
    if not all(a * sum(map(mul, ctm_row, col)) * d_p == p * target
               for ctm_row, prow in zip(ctm, pinch) for col, p in zip(c_int, prow)):
        return None
    inverse = [[a * w * v for v in ctm[j]] for j, w in _pinch_inverse(n)]
    return LinearChange._from_pair((list(zip(*c_int)), d_c), (inverse, a_den * d_c * d_m))


def normalize_tangent_product(rc: ReducibleCubic) -> LinearChange:
    """A rational change carrying a TypeC product to the pinch normal form,
    built on M, the matrix of Q.  S, the inverse of y0 = L(x) with the other
    coordinates kept, straightens L; in m = S^T M S the tangency point of
    the quadric section goes to y1, and the residual block V^T m V goes to
    c*N, N the pinch block (quadratic.pinch_similarity); y0 -> y0/c with
    y1 -> c^2*y1 removes c.  So C = S*U, U the columns of these steps, has
    l^T C = e_0^T/c and C^T M C = c*P, P the pinch matrix.  Raises
    NeedsFieldExtension, naming the local invariant, only when no rational
    change exists; NormalizationUndecided when a bound runs out first.

    The setup runs on integers.  With M = A/D and l' = d*l cleared, T =
    l'_k*S is the integer matrix with columns d*e_k and the hyperplane basis
    l'_k*e_j - l'_j*e_k, so m = G/(D*l'_k^2) for the integer Gram matrix
    G = T^T A T.  The tangency point p = q/q_f comes from the integer kernel
    vector q of G's lower block, lam = (Gq)_0/(D*l'_k^2*q_f), and the steps
    u0 = e_0 - (m_00/(2*lam))*p and u1 = p/(2*lam) are q over 2*(Gq)_0 with
    integer factors.  The residual block goes to pinch_similarity as the
    integer Gram matrix of W under G's lower block over D*l'_k^2*r_f^2, its
    congruence comes back as integer columns over one denominator, and
    C = T*U/l'_k over one denominator.

    The self-check, _carried_change, proves l^T C = a*e_0^T and
    C^T M C = P/a, so C^-1 = a*P^-1*C^T*M exactly: the change's inverse is
    read off the product that check forms, without elimination, as for a
    change that decompose_type_c is given."""
    nv = rc.nvars
    n = nv - 1
    qa, qd = _quadric_ints(rc.quadric)
    l, dl = rc.linear._ints, rc.linear._den
    k = next(i for i, c in enumerate(l) if c)
    lk = l[k]

    def straighten(u):
        # T*u: y1..yn are the x_j, j != k, in order, and l_j = 0 for j < k
        xk = dl * u[0] - sum(c * v for c, v in zip(l[k + 1:], u[k + 1:]))
        return [lk * v for v in u[1:k + 1]] + [xk] + [lk * v for v in u[k + 1:]]

    g = linalg.gram(qa, [[dl * int(i == k) for i in range(nv)]] + _hyperplane_basis(l, k))
    span = linalg.RowSpan(n)
    for row in g[1:]:
        span.insert(row[1:])
    ker = span.kernel_rows()
    if len(ker) != 1:
        raise ValueError("the hyperplane section is not a corank-one quadric; "
                         "the product is not of tangent type")
    vec, = ker
    q = [0] + [vec.get(i, 0) for i in range(n)]
    gq = [sum(x * y for x, y in zip(row, q) if y) for row in g]
    if any(gq[1:]) or gq[0] == 0:
        raise ValueError("inconsistent tangency data; classify the product first")
    # V, the canonical basis of the kernel of m's first row inside y1..yn,
    # is W/r_f for the integer hyperplane basis W of that row
    scale = qd * lk * lk
    row0 = g[0][1:]
    f = next(i for i, v in enumerate(row0) if v)
    wbasis, rf = _hyperplane_basis(row0, f), row0[f]
    block = linalg.gram([row[1:] for row in g[1:]], wbasis)
    # the number theory is loaded on first use, so that no import of the
    # package pays for compiling it
    from .quadratic import BudgetExceeded, NotSimilar, pinch_similarity
    try:
        c, bcols, bden = pinch_similarity(block, scale * rf * rf)
    except NotSimilar as exc:
        raise NeedsFieldExtension(
            "no rational change reaches the pinch form: the quadric's residual "
            f"block is not similar to the pinch block, {exc}") from None
    except BudgetExceeded as exc:
        raise NormalizationUndecided(
            f"normalization undecided, a search bound ran out: {exc}") from None
    # U's columns as (integer column, denominator): u0/c, c^2*u1, V*block
    g0 = 2 * gq[0]
    ucols = [([g0 * int(r == 0) - g[0][0] * v for r, v in enumerate(q)], g0 * c),
             ([scale * c * c * v for v in q], g0)]
    for col in bcols:
        ucols.append(([0] + [sum(x * w[i] for x, w in zip(col, wbasis) if x)
                             for i in range(n)], rf * bden))
    cols = []
    for u, den in ucols:
        x, den = straighten(u), den * lk
        common = gcd(den, *x)
        cols.append(([v // common for v in x], den // common))
    d_c = lcm(*(den for _, den in cols))
    c_int = [[v * (d_c // den) for v in x] for x, den in cols]
    change = _carried_change(rc, (qa, qd), (c_int, d_c))
    if change is None:
        raise RuntimeError("internal: normalization self-check failed")
    return change


def decompose_type_c(rc: ReducibleCubic,
                     change: LinearChange | None = None) -> WaringDecomposition:
    """Power-sum decomposition of a tangent product, via the normal form.

    When no change of coordinates is supplied one is constructed over the
    rationals (NeedsFieldExtension when none exists); a supplied change must
    carry the cubic exactly onto the normal form.  Its check, _carried_change,
    also gives its inverse from the pinch identity, and the witness is
    lifted through that: no elimination runs.
    """
    n = rc.nvars - 1
    carried = None
    if change is not None and n >= 2 and change.nvars == rc.nvars:
        carried = _carried_change(rc, _quadric_ints(rc.quadric),
                                  (list(zip(*change._rows)), change._den))
    if carried is None:
        # only TypeC products reach the normal form, so a change that
        # carries the cubic there has already established the class
        ctype = classify(rc)
        if ctype.kind is not CubicKind.TYPE_C:
            raise ValueError(f"decomposition by normal form needs TypeC, got {ctype}")
    if change is None:
        carried = normalize_tangent_product(rc)
    elif change.nvars != rc.nvars:
        raise InvalidChange("change of coordinates has the wrong size")
    elif carried is None:
        raise InvalidChange("the change does not carry the cubic to the normal form")
    return _lift(rc.form(), decompose_type_c_normal(n), carried, "tangent")


def _lift(form: Polynomial, dec: WaringDecomposition, change: LinearChange,
          what: str) -> WaringDecomposition:
    """Carry dec, a witness of substitute(form, change), back to the form
    through the change, its forms zero-padded to the ambient, and verify it."""
    padded = WaringDecomposition._make(dec.degree, form.nvars, dec._terms, dec._den)
    witness = padded.compose(change.inverse())
    ok, _ = verify_decomposition(form, witness)
    if not ok:
        raise RuntimeError(f"internal: lifted {what} witness failed verification")
    return witness


# -- binary forms ------------------------------------------------------------

@dataclass(frozen=True)
class BinaryDecomposition:
    """Rank of a binary form, with explicit forms when available over Q."""

    rank: int
    decomposition: WaringDecomposition | None
    generator_degrees: tuple[int, int]
    lower_squarefree: bool


def _squarefree(p: list[int]) -> bool:
    """Whether p (integer coefficients, ints or integral Fractions, from the
    constant up, leading one nonzero) is squarefree.  gcd(p, p') is constant
    exactly when the resultant of p and p' is nonzero, i.e. when their
    (2m-1)-square Sylvester matrix has full rank, m being the degree of p.
    Rows independent modulo linalg.PRIME prove that rank; the exact rank is
    taken only when they are not."""
    m = len(p) - 1
    if m < 1:
        return True
    p = [int(c) for c in p]
    dp = [c * i for i, c in enumerate(p) if i]
    rows = [[0] * i + p + [0] * (m - 2 - i) for i in range(m - 1)]
    rows += [[0] * i + dp + [0] * (m - 1 - i) for i in range(m)]
    return (linalg.independent([{j: v for j, v in enumerate(row) if v} for row in rows],
                               2 * m - 1, 2 * m - 1) is not None
            or linalg.rank(rows) == 2 * m - 1)


def _split(g: Polynomial) -> tuple[bool, list[LinearForm] | None]:
    """(squarefree, forms) for a binary operator g: forms are pairwise
    independent linear forms dual to its roots when g is squarefree and
    splits over Q, else None.  The roots of the core (g with its factors
    d0 and d1 removed) come from _rational_roots, which is called only once
    the core is known to be squarefree: that is what ends its prime
    search."""
    d = g.homogeneous_degree()
    coeffs = [g._ints.get((e, d - e), 0) for e in range(d + 1)]  # g times its denominator
    lo = next(i for i, c in enumerate(coeffs) if c)
    hi = max(i for i, c in enumerate(coeffs) if c)
    core = coeffs[lo:hi + 1]
    if lo > 1 or d - hi > 1 or not _squarefree(core):
        return False, None
    forms = []
    if lo == 1:
        forms.append(LinearForm([0, 1]))  # the operator d0 kills powers of x1
    if d - hi == 1:
        forms.append(LinearForm([1, 0]))
    if len(core) > 1:
        roots = _rational_roots(core)
        if len(roots) < len(core) - 1:
            return True, None
        # the factor (d0 - root*d1) kills (root*x0 + x1)^d
        forms.extend(LinearForm([root, 1]) for root in roots)
    return True, forms


def _rational_roots(p: list[int]) -> list[Fraction]:
    """Rational roots, ascending, of a squarefree integer polynomial p
    (coefficients from the constant up) with p(0) != 0, by the linear-factor
    step of Zassenhaus factorization (von zur Gathen-Gerhard, Modern
    Computer Algebra, ch. 15).

    Let c_0..c_m be the primitive multiple of p and a = c_m.  A
    root u/v in lowest terms has u | c_0 and v | a, so y = a*u/v is an
    integer with |y| <= |c_0*a|, and a root of the monic integer polynomial
    q(y) = a^(m-1) * c(y/a), whose coefficients are c_i * a^(m-1-i).  Take
    the smallest prime at which every root of q in F_p is simple: q is
    squarefree and monic, so its discriminant is a nonzero integer, and
    every prime that does not divide it qualifies; the search ends.  Each
    root mod p lifts, by Newton's iteration, to the one root mod p^(2^k)
    above it, and past the modulus 2*|c_0*a| its symmetric residue is the
    only integer of size at most |c_0*a| left; it is kept when q vanishes
    there exactly.  An integer root of q reduces to a simple root mod p,
    so none is missed."""
    content = gcd(*p)
    c = [v // content for v in p]
    m, a = len(c) - 1, c[-1]
    q = [v * a ** (m - 1 - i) for i, v in enumerate(c[:-1])] + [1]
    dq = [i * v for i, v in enumerate(q) if i]

    def value(coeffs, y, mod):
        acc = 0
        for v in reversed(coeffs):
            acc = (acc * y + v) % mod
        return acc

    prime = 1
    while True:
        prime += 1
        if any(prime % k == 0 for k in range(2, isqrt(prime) + 1)):
            continue
        residues = [r for r in range(prime) if value(q, r, prime) == 0]
        if all(value(dq, r, prime) for r in residues):
            break
    bound = 2 * abs(c[0] * a)
    roots = []
    for r in residues:
        mod = prime
        while mod <= bound:
            mod *= mod
            r = (r - value(q, r, mod) * pow(value(dq, r, mod), -1, mod)) % mod
        y = r if 2 * r <= mod else r - mod
        if not sum(v * y ** i for i, v in enumerate(q)):
            roots.append(Fraction(y, a))
    return sorted(roots)


def decompose_binary(form: Polynomial) -> BinaryDecomposition:
    """Exact rank of a binary form from the degrees of its two apolar
    generators, plus an explicit decomposition when the relevant generator
    splits into distinct rational roots."""
    if form.nvars != 2:
        raise AmbientMismatchError("binary decomposition needs exactly 2 variables")
    if form.is_zero() or not form.is_homogeneous() or form.degree() < 1:
        raise ValueError("need a nonzero binary form of degree >= 1")
    d = form.homogeneous_degree()
    ideal = apolar_ideal(form)
    gens = sorted(ideal.generators, key=lambda g: g.homogeneous_degree())
    if len(gens) != 2:
        raise RuntimeError("internal: a binary apolar ideal must have two generators")
    ga, gb = gens
    da, db = ga.homogeneous_degree(), gb.homogeneous_degree()
    if da + db != d + 2:
        raise RuntimeError("internal: apolar generator degrees are inconsistent")
    lower_ok, forms = _split(ga)
    rank = da
    if not lower_ok:
        rank = db
        _, forms = _split(gb)
    decomposition = None
    if forms is not None:
        monos = [(i, d - i) for i in range(d, -1, -1)]
        powers = [f.to_polynomial() ** d for f in forms]
        # sum_j y_j * P_j = F in the integer terms, so x_j = y_j * den_j / den_F
        rows = [[p._ints.get(e, 0) for p in powers] for e in monos]
        sol = linalg.solve(rows, [form._ints.get(e, 0) for e in monos])
        if sol is not None:
            ys, den = sol
            dec = WaringDecomposition._from_rows(d, 2, (
                (y * p._den, f._ints, f._den) for y, p, f in zip(ys, powers, forms)),
                den * form._den)
            ok, _ = verify_decomposition(form, dec)
            if ok:
                decomposition = dec
    return BinaryDecomposition(rank, decomposition, (da, db), lower_ok)
