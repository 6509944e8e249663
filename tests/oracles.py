"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive and shares no code paths with the
package: differentiation is repeated single-variable term surgery, powers of
linear forms go through the multinomial formula, matrix rank uses
fraction-free Bareiss elimination on integers, and kernels use fraction-free
Gauss-Jordan elimination.  top_degree_generators keeps the linear system
that the package once solved for the apolar generators of degree d+1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial


def diff_once(terms: dict, var: int) -> dict:
    out = {}
    for exps, coef in terms.items():
        if exps[var] == 0:
            continue
        new = exps[:var] + (exps[var] - 1,) + exps[var + 1:]
        out[new] = out.get(new, Fraction(0)) + coef * exps[var]
    return {e: c for e, c in out.items() if c}


def apply_operator(op_terms: dict, form_terms: dict) -> dict:
    """Apply a polynomial differential operator term by term."""
    acc: dict = {}
    for op_exps, op_coef in op_terms.items():
        part = dict(form_terms)
        for var, k in enumerate(op_exps):
            for _ in range(k):
                part = diff_once(part, var)
        for exps, coef in part.items():
            acc[exps] = acc.get(exps, Fraction(0)) + op_coef * coef
    return {e: c for e, c in acc.items() if c}


def expand_power(coeffs, degree: int) -> dict:
    """(sum_i coeffs[i] x_i)^degree by the multinomial theorem."""
    n = len(coeffs)
    out = {}
    for combo in itertools.combinations_with_replacement(range(n), degree):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        mult = factorial(degree)
        coef = Fraction(1)
        for i, e in enumerate(exps):
            mult //= factorial(e)
            coef *= Fraction(coeffs[i]) ** e
        coef *= mult
        if coef:
            out[tuple(exps)] = coef
    return out


def evaluate(terms: dict, point) -> Fraction:
    """Value of a polynomial, given by its term dict, at a rational point."""
    total = Fraction(0)
    for exps, coef in terms.items():
        value = Fraction(coef)
        for x, e in zip(point, exps):
            value *= Fraction(x) ** e
        total += value
    return total


def monomials_recursive(nvars: int, degree: int) -> list:
    """Exponent tuples of one degree in descending lex order, by recursion
    on the first exponent."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials_recursive(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def dim_forms(nvars: int, degree: int) -> int:
    return len(list(itertools.combinations_with_replacement(range(nvars), degree)))


def bareiss_rank(matrix) -> int:
    """Rank over Q via fraction-free Bareiss elimination."""
    if not matrix or not matrix[0]:
        return 0
    scaled = []
    for row in matrix:
        lcm = 1
        for x in row:
            f = Fraction(x)
            lcm = lcm * f.denominator // _gcd(lcm, f.denominator)
        scaled.append([int(Fraction(x) * lcm) for x in row])
    a = scaled
    nrows, ncols = len(a), len(a[0])
    rank = 0
    prev = 1
    col = 0
    while rank < nrows and col < ncols:
        pivot = next((r for r in range(rank, nrows) if a[r][col]), None)
        if pivot is None:
            col += 1
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(rank + 1, nrows):
            for c in range(col + 1, ncols):
                a[r][c] = (a[r][c] * a[rank][col] - a[r][col] * a[rank][c]) // prev
            a[r][col] = 0
        prev = a[rank][col]
        rank += 1
        col += 1
    return rank


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def kernel(matrix, ncols: int) -> list:
    """Kernel basis over Q by fraction-free Gauss-Jordan elimination on
    integer rows: one vector per free column, that column set to 1."""
    a = []
    for row in matrix:
        scale = 1
        for x in row:
            scale = scale * Fraction(x).denominator // _gcd(scale, Fraction(x).denominator)
        a.append([int(Fraction(x) * scale) for x in row])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [p[col] * x - f * y for x, y in zip(a[i], p)]
                g = 0
                for x in a[i]:
                    g = _gcd(g, abs(x))
                if g > 1:
                    a[i] = [x // g for x in a[i]]
        a = [row for k, row in enumerate(a) if k <= r or any(row)]
        pivots.append(col)
        r += 1
    out = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pc in zip(a, pivots):
            vec[pc] = Fraction(-row[free], row[pc])
        out.append(vec)
    return out


def _times_variable(terms: dict, var: int, coef) -> dict:
    return {e[:var] + (e[var] + 1,) + e[var + 1:]: coef * c for e, c in terms.items()}


def top_degree_generators(terms: dict, nvars: int, degree: int) -> list:
    """Apolar generators of degree d+1 of a nonzero form of degree d.

    They are the forms h = ell*F whose every partial is proportional to F,
    found by solving ell * dF/dx_j = mu_j * F for (ell, mu) in 2n unknowns.
    Each h is scaled so that its first monomial in descending lex order has
    coefficient 1.
    """
    rows_of = {m: i for i, m in enumerate(monomials_recursive(nvars, degree))}
    width = 2 * nvars
    matrix = []
    for j in range(nvars):
        block = [[Fraction(0)] * width for _ in rows_of]
        partial = diff_once(terms, j)
        for k in range(nvars):
            for exps, c in _times_variable(partial, k, 1).items():
                block[rows_of[exps]][k] += c
        for exps, c in terms.items():
            block[rows_of[exps]][nvars + j] -= c
        matrix.extend(block)
    order = monomials_recursive(nvars, degree + 1)
    out = []
    for vec in kernel(matrix, width):
        h: dict = {}
        for k in range(nvars):
            for exps, c in _times_variable(terms, k, vec[k]).items():
                h[exps] = h.get(exps, Fraction(0)) + c
        h = {e: c for e, c in h.items() if c}
        lead = next(m for m in order if m in h)
        out.append({e: c / h[lead] for e, c in h.items()})
    return out
