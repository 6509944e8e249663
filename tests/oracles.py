"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive and shares no code paths with the
package: differentiation is repeated single-variable term surgery, powers of
linear forms go through the multinomial formula, and matrix rank uses
fraction-free Bareiss elimination on integers.
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
