"""Exact algebra for checking outputs, written apart from the package.

Nothing here imports ``apolarity``.  A form is a dict mapping exponent
tuples to nonzero Fractions.  Differentiation is term surgery, powers of
linear forms come from the multinomial theorem, and ranks come from
fraction-free Bareiss elimination on integer matrices, so a fault in the
package's own elimination or expansion code cannot hide behind the check.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import factorial, gcd

Form = dict  # exponent tuple -> Fraction


def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def clean(form: Form) -> Form:
    return {e: Fraction(c) for e, c in form.items() if c}


def add_into(acc: Form, form: Form, scale=1) -> None:
    for e, c in form.items():
        v = acc.get(e, 0) + scale * c
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)


def multiply(a: Form, b: Form) -> Form:
    out: Form = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return clean(out)


def linear(coeffs) -> Form:
    n = len(coeffs)
    return clean({tuple(int(j == i) for j in range(n)): Fraction(c)
                  for i, c in enumerate(coeffs)})


def power_of_linear(coeffs, degree: int) -> Form:
    """(sum_i coeffs[i] x_i)^degree by the multinomial theorem."""
    coeffs = [Fraction(c) for c in coeffs]
    out: Form = {}
    for exps in monomials(len(coeffs), degree):
        mult = factorial(degree)
        value = Fraction(1)
        for c, e in zip(coeffs, exps):
            mult //= factorial(e)
            value *= c ** e
        if value:
            out[exps] = value * mult
    return out


def expand_power_sum(terms, degree: int, nvars: int) -> Form:
    """sum c * L^degree over (c, coefficient list of L) pairs."""
    acc: Form = {}
    for coef, coeffs in terms:
        if len(coeffs) != nvars:
            raise ValueError("linear form has the wrong number of variables")
        add_into(acc, power_of_linear(coeffs, degree), Fraction(coef))
    return acc


def pairwise_independent(vectors) -> bool:
    """Every coefficient vector is nonzero and no two are proportional."""
    if not all(any(v) for v in vectors):
        return False
    return not any(all(u[i] * v[j] == u[j] * v[i]
                       for i in range(len(u)) for j in range(i + 1, len(u)))
                   for u, v in itertools.combinations(vectors, 2))


def differentiate(form: Form, var: int) -> Form:
    out: Form = {}
    for exps, c in form.items():
        if exps[var]:
            e = exps[:var] + (exps[var] - 1,) + exps[var + 1:]
            out[e] = out.get(e, 0) + c * exps[var]
    return clean(out)


def apply_operator(op: Form, form: Form) -> Form:
    """D(F) for a constant-coefficient operator D, by repeated
    single-variable differentiation."""
    acc: Form = {}
    for alpha, c in op.items():
        part = form
        for var, k in enumerate(alpha):
            for _ in range(k):
                part = differentiate(part, var)
        add_into(acc, part, c)
    return acc


def degree(form: Form) -> int:
    degrees = {sum(e) for e in form}
    if len(degrees) != 1:
        raise ValueError("zero or inhomogeneous form")
    return degrees.pop()


class Partials:
    """All partial derivatives of one form, memoized by multi-index."""

    def __init__(self, form: Form, nvars: int):
        self.nvars = nvars
        self.degree = degree(form) if form else -1
        self._memo = {(0,) * nvars: form}

    def of(self, alpha: tuple[int, ...]) -> Form:
        got = self._memo.get(alpha)
        if got is None:
            k = next(i for i, a in enumerate(alpha) if a)
            lower = alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]
            got = differentiate(self.of(lower), k)
            self._memo[alpha] = got
        return got

    def catalecticant(self, i: int) -> list[list[Fraction]]:
        """Rows: degree d-i monomials; columns: the partials d^alpha F, |alpha| = i."""
        cols = [self.of(alpha) for alpha in monomials(self.nvars, i)]
        rows = monomials(self.nvars, self.degree - i)
        return [[col.get(r, Fraction(0)) for col in cols] for r in rows]

    def cat_rank(self, i: int) -> int:
        if i < 0 or i > self.degree:
            return 0
        return bareiss_rank(self.catalecticant(i))


def bareiss_rank(matrix) -> int:
    """Rank over Q by fraction-free Bareiss elimination on integers."""
    rows = []
    for row in matrix:
        lcm = 1
        for x in row:
            den = Fraction(x).denominator
            lcm = lcm * den // gcd(lcm, den)
        rows.append([int(Fraction(x) * lcm) for x in row])
    if not rows or not rows[0]:
        return 0
    a = rows
    nrows, ncols = len(a), len(a[0])
    rank, prev, col = 0, 1, 0
    while rank < nrows and col < ncols:
        pivot = next((r for r in range(rank, nrows) if a[r][col]), None)
        if pivot is None:
            col += 1
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        p = a[rank][col]
        for r in range(rank + 1, nrows):
            ar = a[r]
            f = ar[col]
            for c in range(col + 1, ncols):
                ar[c] = (ar[c] * p - f * a[rank][c]) // prev
            ar[col] = 0
        prev = p
        rank += 1
        col += 1
    return rank


def hilbert_values(form: Form, nvars: int) -> list[int]:
    """HF(T/F_perp, i) = rank Cat_i(F) for i = 0..deg F."""
    partials = Partials(form, nvars)
    return [partials.cat_rank(i) for i in range(partials.degree + 1)]


def quotient_hilbert(form: Form, op: Form, nvars: int, length: int) -> list[int]:
    """HF of T/(F_perp + <op>) for a homogeneous operator of degree e, from
    the exact sequence 0 -> T/(F_perp : op)(-e) -> T/F_perp -> T/(F_perp + op),
    with (F_perp : op) = (op F)_perp:  rank Cat_i(F) - rank Cat_{i-e}(op F)."""
    e = degree(op)
    pf = Partials(form, nvars)
    reduced = apply_operator(op, form)
    pg = Partials(reduced, nvars) if reduced else None
    return [pf.cat_rank(i) - (pg.cat_rank(i - e) if pg else 0)
            for i in range(length)]


def colon_hilbert(form: Form, op: Form, nvars: int, length: int) -> list[int]:
    """HF of T/(F_perp : op) = HF of T/(op F)_perp."""
    reduced = apply_operator(op, form)
    pg = Partials(reduced, nvars)
    return [pg.cat_rank(i) for i in range(length)]


def inverse(matrix) -> list[list[Fraction]]:
    """Gauss-Jordan inverse over Q; raises ZeroDivisionError when singular."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            raise ZeroDivisionError("singular matrix")
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [v * inv for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


def quadric_form(m) -> Form:
    """x^T m x for a symmetric matrix m."""
    n = len(m)
    out: Form = {}
    for i in range(n):
        for j in range(n):
            if m[i][j]:
                e = [0] * n
                e[i] += 1
                e[j] += 1
                out[tuple(e)] = out.get(tuple(e), 0) + Fraction(m[i][j])
    return clean(out)


def quadric_matrix(q: Form, nvars: int) -> list[list[Fraction]]:
    m = [[Fraction(0)] * nvars for _ in range(nvars)]
    for e, c in q.items():
        idx = [i for i, k in enumerate(e) for _ in range(k)]
        i, j = idx
        if i == j:
            m[i][i] += c
        else:
            m[i][j] += c / 2
            m[j][i] += c / 2
    return m


def to_text(form: Form, prefix: str = "x") -> str:
    """Plain text any reader of polynomials accepts: 3*x0^2*x1 - 1/2*x2^3."""
    if not form:
        return "0"
    pieces = []
    for exps in sorted(form, reverse=True):
        c = form[exps]
        factors = [f"{prefix}{i}" + (f"^{e}" if e > 1 else "")
                   for i, e in enumerate(exps) if e]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} {body}")
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?((?:[xd]\d+(?:\^\d+)?\*?)*)$")
_FACTOR = re.compile(r"([xd])(\d+)(?:\^(\d+))?")


def from_text(text: str, nvars: int) -> Form:
    """Read a sum of signed monomial terms such as 'd0*d2 - 3/2*d1^2'.

    Only the flat printed shape is accepted: no parentheses, no products of
    sums.  That is all the checks need, and it keeps this reader trivially
    separate from the package's parser.
    """
    out: Form = {}
    tokens = text.replace("- ", "-").replace("+ ", "+").split()
    for tok in tokens:
        sign = -1 if tok.startswith("-") else 1
        body = tok.lstrip("+-")
        m = _TERM.match(body)
        if not m or not (m.group(1) or m.group(2)):
            raise ValueError(f"unreadable term {tok!r}")
        coef = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        exps = [0] * nvars
        for _, idx, e in _FACTOR.findall(m.group(2)):
            exps[int(idx)] += int(e) if e else 1
        add_into(out, {tuple(exps): sign * coef})
    return out
