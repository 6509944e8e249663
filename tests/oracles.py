"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive and shares no code paths with the
package: differentiation is repeated single-variable term surgery, powers of
linear forms go through the multinomial formula, matrix rank uses
fraction-free Bareiss elimination on integers, and kernels use fraction-free
Gauss-Jordan elimination (primitive_multiple scales a rational vector to
the integer form the package hands out); ranks modulo a prime use dense Gaussian
elimination with Fermat inverses, and kernel_mod keeps the dense
Gauss-Jordan elimination modulo a prime that the lattice minimization once
ran on its own.  top_degree_generators keeps the linear system
that the package once solved for the apolar generators of degree d+1, and
squarefree_euclid and rational_roots_by_deflation keep the polynomial
Euclid and the root-by-root deflation it once ran on binary generators.
assemble_by_fractions, compose_by_fractions, power_sum_by_fractions and
residual_by_fractions keep the Fraction arithmetic that once normalized,
composed, expanded and verified power sums, with expand_power in place of
the package's substitution kernel; apply_by_fractions,
product_by_fractions and gram_by_fractions keep the Fraction loops that
once applied operators, multiplied the factors of a reducible cubic and
formed Gram matrices; classify_by_fractions and diagonalize_by_fractions
keep the Fraction classification of a reducible cubic (a Gauss-Jordan RREF
of [M | l] and a substitution test for L dividing Q) and the Fraction
congruence diagonalization.  add_by_fractions, mul_by_fractions and
scale_by_fractions keep the Fraction loops of Polynomial's arithmetic
before it ran on integer terms over one denominator (diff_once is its old
differentiate), and substitute_by_fractions composes with them alone.
dual_system_rank keeps the numbering of the Macaulay-dual system's
unknowns that the package once used, block 0 first, and ranks it with
rank_mod_prime.  apolar_generators_by_sweep states the apolar generator
rule on the oracle's own catalecticants (apply_operator), kernels (kernel)
and sparse Fraction echelon (_enlarges).  Six functions are exceptions
to the rule above.  certificate_by_ideals and quotient_hilbert_by_ideals
keep the routes the avoidance and colon certificates and the hilbert
command once took through the package's own ideal calculus (apolar ideal,
colon, sum, graded spans), so they check the rank-based quotient rule
against a different computation, not against different code.
colon_spans_by_preimage and is_nonzerodivisor_by_preimage keep the colon
ideal as the package computed it before it went by duality: per degree,
the kernel of the dense preimage system [multiplication by g | -basis of
I_{i+e}], on the package's graded spans and kernel_basis, with its own
budget of cells (COLON_SYSTEM_ENTRIES).  classify_by_gram is the package's
classify as it was when it ran the Gram test for L | Q on every product,
on the package's own reduction.
parse_by_polynomials is the text parser as it was before it read text at
linear cost: it folds a sum term by term with Polynomial.__add__
and builds every literal, variable and monomial as a Polynomial, with the
same guards, messages and positions that poly.parse keeps.
number_value_by_fractions, to_json_dict_by_fractions and
from_json_dict_by_fractions are poly._number_value and
WaringDecomposition.to_json_dict and from_json_dict as they were before
witnesses went to and from JSON as integers: every number passed through
a Fraction, and the read terms through LinearForm and assemble.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt, perm

from apolarity import poly
from apolarity.poly import MAX_NESTING, Polynomial, PolynomialSyntaxError, _comb_exceeds


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


def add_by_fractions(a: dict, b: dict) -> dict:
    """The term dict of a + b, coefficient by coefficient in Fractions."""
    terms = {e: Fraction(c) for e, c in a.items()}
    for exps, c in b.items():
        terms[exps] = terms.get(exps, Fraction(0)) + c
    return {e: c for e, c in terms.items() if c}


def mul_by_fractions(a: dict, b: dict) -> dict:
    """The term dict of a * b, every product of two terms in Fractions."""
    terms: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = terms.get(e, Fraction(0)) + Fraction(c1) * c2
    return {e: c for e, c in terms.items() if c}


def scale_by_fractions(a: dict, c) -> dict:
    """The term dict of c * a."""
    c = Fraction(c)
    return {e: c * v for e, v in a.items() if c * v}


def substitute_by_fractions(terms: dict, rows, nvars: int) -> dict:
    """The term dict of the polynomial with each variable i replaced by
    sum_j rows[i][j] * x_j, x in nvars variables: each term a product of
    powers of linear forms, multiplied out by mul_by_fractions."""
    acc: dict = {}
    for exps, c in terms.items():
        part = {(0,) * nvars: Fraction(c)}
        for row, e in zip(rows, exps):
            part = mul_by_fractions(part, expand_power(row, e))
        acc = add_by_fractions(acc, part)
    return acc


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


def rank_mod_prime(matrix, p: int) -> int:
    """Rank over GF(p) of an integer matrix, by dense Gaussian elimination
    with inverses from Fermat's little theorem."""
    a = [[x % p for x in row] for row in matrix]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def kernel_mod(g, p: int) -> tuple[list, list]:
    """Basis of the kernel of the square matrix g mod p and the free column
    of each vector: the vector is 1 there and 0 at the other free columns."""
    k = len(g)
    rows = [[v % p for v in row] for row in g]
    pivots = []
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, k) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(k):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(k) if c not in pivots]
    out = []
    for f in free:
        vec = [0] * k
        vec[f] = 1
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[f] % p
        out.append(vec)
    return out, free


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def primitive_multiple(vec) -> dict:
    """A rational vector scaled to its primitive integer multiple with a
    positive first nonzero entry, as a sparse {column: entry} row."""
    den = 1
    for x in vec:
        den = den * Fraction(x).denominator // _gcd(den, Fraction(x).denominator)
    ints = {c: int(Fraction(x) * den) for c, x in enumerate(vec) if x}
    g = 0
    for x in ints.values():
        g = _gcd(g, abs(x))
    if ints and ints[min(ints)] < 0:
        g = -g
    return {c: x // g for c, x in ints.items()}


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


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder of univariate polynomials given by their
    coefficients from the constant up; den has a nonzero leading entry."""
    num = [Fraction(c) for c in num]
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    while num and num[-1] == 0:
        num.pop()
    while len(num) >= len(den):
        f = num[-1] / den[-1]
        shift = len(num) - len(den)
        q[shift] = f
        for i, c in enumerate(den):
            num[shift + i] -= f * c
        num.pop()
        while num and num[-1] == 0:
            num.pop()
    return q, num


def squarefree_euclid(p: list) -> bool:
    """gcd(p, p') is constant, by the Euclidean algorithm over Q."""
    a = [Fraction(c) for c in p]
    b = [c * i for i, c in enumerate(a) if i]
    while b and any(b):
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return len(a) == 1


def _divisors(v: int) -> list:
    small = [i for i in range(1, isqrt(v) + 1) if v % i == 0]
    return sorted(set(small) | {v // i for i in small})


def rational_roots_by_deflation(p: list) -> list | None:
    """The rational roots of p (coefficients from the constant up, p(0) != 0)
    found one at a time, smallest first, each followed by synthetic division;
    None as soon as a deflated factor has no rational root."""
    core = [Fraction(c) for c in p]
    roots = []
    while len(core) > 1:
        scale = 1
        for c in core:
            scale = scale * c.denominator // _gcd(scale, c.denominator)
        ints = [int(c * scale) for c in core]
        cands = sorted({Fraction(s * a, b) for a in _divisors(abs(ints[0]))
                        for b in _divisors(abs(ints[-1])) for s in (1, -1)})
        root = next((r for r in cands
                     if sum(c * r ** i for i, c in enumerate(core)) == 0), None)
        if root is None:
            return None
        roots.append(root)
        quotient = [Fraction(0)] * (len(core) - 1)
        quotient[-1] = core[-1]
        for i in range(len(core) - 2, 0, -1):
            quotient[i - 1] = core[i] + quotient[i] * root
        assert core[0] + quotient[0] * root == 0
        core = quotient
    return roots


def certificate_by_ideals(form, hyperplane, divisor=None):
    """(hilbert values, bound) of the avoidance certificate, or of its colon
    refinement when a divisor is given, computed as the package once did:
    the Hilbert function of T/(F_perp + <l>) or T/((F_perp : g) + <l>) from
    graded spans of the ideals, after the same input checks."""
    from apolarity.apolar import apolar_apply, apolar_ideal
    from apolarity.ideals import (HomogeneousIdeal, hilbert_function,
                                  ideal_colon, ideal_sum)
    from apolarity.poly import AmbientMismatchError
    if hyperplane.nvars != form.nvars:
        raise AmbientMismatchError("hyperplane and form ambients differ")
    if hyperplane.is_zero() or hyperplane.homogeneous_degree() != 1:
        raise ValueError("the hyperplane must be a nonzero linear operator")
    if apolar_apply(hyperplane, form).is_zero():
        raise ValueError("the hyperplane operator annihilates the form; "
                         "the avoidance bound does not apply")
    ideal = apolar_ideal(form)
    if divisor is not None:
        ideal = ideal_colon(ideal, divisor)
    hf = hilbert_function(ideal_sum(ideal, HomogeneousIdeal([hyperplane])))
    return hf.values, hf.total()


def quotient_hilbert_by_ideals(form, operators=(), divisor=None):
    """HF of T/((F_perp : g) + <h_1..h_k>) as the hilbert command once
    computed it: the carried values of apolar_hilbert with no operator and
    no divisor, else apolar_ideal, ideal_colon, ideal_sum and the graded
    spans of hilbert_function, with their input checks in that order."""
    from apolarity.apolar import apolar_hilbert, apolar_ideal
    from apolarity.ideals import (HomogeneousIdeal, hilbert_function,
                                  ideal_colon, ideal_sum)
    if not operators and divisor is None:
        return apolar_hilbert(form)
    ideal = apolar_ideal(form)
    if divisor is not None:
        ideal = ideal_colon(ideal, divisor)
    if operators:
        ideal = ideal_sum(ideal, HomogeneousIdeal(operators))
    return hilbert_function(ideal)


# colon_spans_by_preimage's budget of dense cells, once ideals' own
COLON_SYSTEM_ENTRIES = 10 ** 7


def colon_spans_by_preimage(ideal, divisor, top: int) -> list:
    """Row spans of (ideal : divisor) for degrees 0..top, by definition:
    the degree-i component is the preimage of the ideal under multiplication
    by the divisor.  Raises ValueError, before allocating, when a preimage
    system would have more than COLON_SYSTEM_ENTRIES cells."""
    from apolarity.ideals import _component, _graded_spans, monomial_index
    from apolarity.linalg import RowSpan, kernel_basis
    n = ideal.nvars
    e = divisor.homogeneous_degree()
    ideal_spans = _graded_spans(ideal, top + e)
    out: list[RowSpan] = []
    for i in range(top + 1):
        monos_i, _ = monomial_index(n, i)
        monos_t, index_t = monomial_index(n, i + e)
        dim_i, dim_t = len(monos_i), len(monos_t)
        bound = ideal.truncation_bound
        if bound is not None and i + e >= bound:
            preimage = ({c: 1} for c in range(dim_i))
        else:
            basis = ideal_spans[i + e].canonical_rows()
            # kernel of [ mult-by-divisor | -ideal-basis ] gives the preimage;
            # the divisor's integer terms scale the first block and not its span
            width = dim_i + len(basis)
            if dim_t * width > COLON_SYSTEM_ENTRIES:
                raise ValueError(f"the degree-{i} colon system of {dim_t} x "
                                 f"{width} entries is too large to build")
            rows = [[0] * width for _ in range(dim_t)]
            for c, mono in enumerate(monos_i):
                for exps, v in divisor._ints.items():
                    rows[index_t[tuple(a + b for a, b in zip(exps, mono))]][c] = v
            for k, brow in enumerate(basis):
                for col, val in brow.items():
                    rows[col][dim_i + k] = -val
            preimage = ({c: v for c, v in vec.items() if c < dim_i}
                        for vec in kernel_basis(rows, width))
        out.append(_component(RowSpan(0), n, i, preimage, dim_i)[0])
    return out


def is_nonzerodivisor_by_preimage(ideal, divisor, through_degree=None) -> bool:
    """ideals.is_nonzerodivisor as it was on colon_spans_by_preimage: the
    canonical rows of (I : g) and of I agree in every degree of the window,
    bound-2 by default."""
    from apolarity.ideals import _graded_spans
    if through_degree is None:
        if ideal.truncation_bound is None:
            raise ValueError("supply through_degree for an unbounded ideal")
        through_degree = ideal.truncation_bound - 2
    colon = colon_spans_by_preimage(ideal, divisor, through_degree)
    mine = _graded_spans(ideal, through_degree)
    return all(colon[i].canonical_rows() == mine[i].canonical_rows()
               for i in range(through_degree + 1))


def _enlarges(echelon: dict, vec: dict) -> bool:
    """Reduce a sparse Fraction vector {column: entry} against echelon rows
    {pivot: row with 1 at its pivot and nothing before it}; when something
    is left, store it, scaled to 1 at its lead, and return True."""
    vec = dict(vec)
    while pivots := [c for c in vec if c in echelon]:
        pc = min(pivots)
        f = vec[pc]
        for c, b in echelon[pc].items():
            x = vec.get(c, 0) - f * b
            if x:
                vec[c] = x
            else:
                vec.pop(c, None)
    if not vec:
        return False
    lead = min(vec)
    echelon[lead] = {c: x / vec[lead] for c, x in vec.items()}
    return True


def apolar_generators_by_sweep(form) -> list:
    """Term dicts of the minimal apolar generators by one rule, from the
    oracle's own catalecticants (apply_operator) and kernels (kernel): in
    each degree i = 1..d, every canonical vector of ker Cat_i, monic in its
    first monomial, that raises the rank of T_1 times ker Cat_{i-1} plus the
    vectors kept before it; then the degree-(d+1) generators of the
    (ell, mu) system.  A degree is complete once that rank reaches
    dim ker Cat_i."""
    d, n = form.homogeneous_degree(), form.nvars
    terms = {e: Fraction(c) for e, c in form.terms.items()}
    out, below = [], []
    for i in range(1, d + 1):
        cols = monomials_recursive(n, i)
        index = {m: c for c, m in enumerate(cols)}
        rows = {m: r for r, m in enumerate(monomials_recursive(n, d - i))}
        cat = [[Fraction(0)] * len(cols) for _ in rows]
        for c, alpha in enumerate(cols):
            for exps, v in apply_operator({alpha: 1}, terms).items():
                cat[rows[exps]][c] = v
        vectors = [{c: x for c, x in enumerate(vec) if x} for vec in kernel(cat, len(cols))]
        echelon: dict = {}
        for op in below:  # T_1 * (ker Cat_{i-1}), in degree i
            for j in range(n):
                if len(echelon) < len(vectors):
                    _enlarges(echelon, {index[m]: x for m, x in
                                        _times_variable(op, j, 1).items()})
        for vec in vectors:
            if len(echelon) < len(vectors) and _enlarges(echelon, vec):
                out.append({cols[c]: x / vec[min(vec)] for c, x in vec.items()})
        below = [{cols[c]: x for c, x in vec.items()} for vec in vectors]
    return out + top_degree_generators(form.terms, n, d)


def _ambient_mismatch(message: str) -> Exception:
    from apolarity.poly import AmbientMismatchError
    return AmbientMismatchError(message)


def assemble_by_fractions(degree: int, nvars: int, raw_terms) -> list:
    """Normalized terms [(coefficient, monic coefficient tuple)] of a power
    sum: each form divided by its first nonzero coefficient, proportional
    forms merged, zero coefficients dropped, in descending order."""
    merged: dict = {}
    for coef, coeffs in raw_terms:
        coef = Fraction(coef)
        if coef == 0:
            continue
        coeffs = [Fraction(c) for c in coeffs]
        if not any(coeffs):
            raise ValueError("decomposition term uses the zero form")
        if len(coeffs) != nvars:
            raise _ambient_mismatch("term ambient differs from the decomposition's")
        lead = next(c for c in coeffs if c)
        key = tuple(c / lead for c in coeffs)
        merged[key] = merged.get(key, Fraction(0)) + coef * lead ** degree
    return [(merged[key], key) for key in sorted(merged, reverse=True) if merged[key]]


def compose_by_fractions(degree: int, nvars: int, terms, matrix) -> list:
    """Normalized terms after substituting x_i -> sum_j matrix[i][j] x_j in
    every form: the row of a form becomes its vector-matrix product."""
    if len(matrix) != nvars:
        raise _ambient_mismatch("change ambient differs from the decomposition's")
    rows = [(coef, [sum(Fraction(coeffs[i]) * Fraction(matrix[i][j]) for i in range(nvars))
                    for j in range(nvars)]) for coef, coeffs in terms]
    return assemble_by_fractions(degree, nvars, rows)


@lru_cache(maxsize=16)
def power_sum_by_fractions(degree: int, terms: tuple) -> tuple:
    """The terms of sum c_i * L_i^degree, each power expanded by the
    multinomial theorem; cached, since one power sum meets many forms."""
    acc: dict = {}
    for coef, coeffs in terms:
        for exps, c in expand_power(coeffs, degree).items():
            acc[exps] = acc.get(exps, Fraction(0)) + Fraction(coef) * c
    return tuple((e, c) for e, c in acc.items() if c)


def residual_by_fractions(form_terms: dict, form_nvars: int, nvars: int,
                          degree: int, terms) -> tuple:
    """(independent, residual term dict) of form - sum c_i * L_i^degree for
    a power sum declared in nvars variables, each power expanded by the
    multinomial theorem; independent says that no two nonzero forms are
    proportional.  Ambients are checked as the package once checked them:
    the declared one, then the forms' common length against the form's."""
    if form_nvars != nvars:
        raise _ambient_mismatch("form and decomposition ambients differ")
    lengths = {len(coeffs) for _, coeffs in terms}
    if len(lengths) > 1:
        raise ValueError("rows of a substitution must have equal length")
    if lengths and lengths != {form_nvars}:
        raise _ambient_mismatch("ambients differ")
    acc = {e: Fraction(c) for e, c in form_terms.items()}
    for exps, c in power_sum_by_fractions(degree, tuple(terms)):
        acc[exps] = acc.get(exps, Fraction(0)) - c
    monic = []
    for coef, coeffs in terms:
        if any(coeffs):
            lead = next(Fraction(c) for c in coeffs if c)
            monic.append(tuple(Fraction(c) / lead for c in coeffs))
    return len(set(monic)) == len(monic), {e: c for e, c in acc.items() if c}


def apply_by_fractions(op_terms: dict, form_terms: dict) -> dict:
    """The operator applied to the form in Fractions: d^alpha sends c*x^beta
    with beta >= alpha to c * prod_k perm(beta_k, alpha_k) * x^(beta-alpha)."""
    acc: dict = {}
    for alpha, a in op_terms.items():
        for beta, c in form_terms.items():
            if all(b >= e for b, e in zip(beta, alpha)):
                v = Fraction(a) * Fraction(c)
                for b, e in zip(beta, alpha):
                    v *= perm(b, e)
                exps = tuple(b - e for b, e in zip(beta, alpha))
                acc[exps] = acc.get(exps, Fraction(0)) + v
    return {e: c for e, c in acc.items() if c}


def product_by_fractions(linear, quadric_terms: dict) -> dict:
    """L*Q term by term in Fractions, L given by its coefficients."""
    acc: dict = {}
    for i, a in enumerate(linear):
        if a:
            for exps, c in quadric_terms.items():
                e = tuple(v + (j == i) for j, v in enumerate(exps))
                acc[e] = acc.get(e, Fraction(0)) + Fraction(a) * Fraction(c)
    return {e: c for e, c in acc.items() if c}


def gram_by_fractions(g, vectors) -> list:
    """[u^T g v] over the vectors, every product in Fractions."""
    images = [[sum((Fraction(x) * y for x, y in zip(row, v)), Fraction(0)) for row in g]
              for v in vectors]
    return [[sum((Fraction(x) * y for x, y in zip(u, gv)), Fraction(0)) for gv in images]
            for u in vectors]


def _rref_fractions(rows) -> tuple[list, list]:
    """(nonzero rows, pivot columns) of the RREF, by Gauss-Jordan
    elimination in Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for col in range(len(a[0]) if a else 0):
        p = next((i for i in range(r, len(a)) if a[i][col]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    return a[:r], pivots


def classify_by_fractions(linear, quadric_terms: dict, nvars: int) -> tuple:
    """(class name, essential count or None) of L*Q as it was once decided
    in Fractions: the RREF of [M | l], M the quadric's matrix, and the
    substitution x_k = -sum_{j != k} (l_j/l_k) x_j into Q, k the first
    nonzero coefficient of l, which vanishes exactly when L divides Q."""
    l = [Fraction(c) for c in linear]
    m = [[Fraction(0)] * nvars for _ in range(nvars)]
    for exps, c in quadric_terms.items():
        i, j = [v for v, e in enumerate(exps) for _ in range(e)]
        m[i][j] = m[j][i] = Fraction(c) if i == j else Fraction(c) / 2
    red, pivots = _rref_fractions([row + [c] for row, c in zip(m, l)])
    k = next(i for i, c in enumerate(l) if c)
    rows = [[Fraction(int(i == j)) for j in range(nvars)] for i in range(nvars)]
    rows[k] = [Fraction(0) if j == k else -c / l[k] for j, c in enumerate(l)]
    restricted: dict = {}
    for exps, c in quadric_terms.items():
        i, j = [v for v, e in enumerate(exps) for _ in range(e)]
        for a, x in enumerate(rows[i]):
            for b, y in enumerate(rows[j]):
                if x and y:
                    e = tuple(int(t == a) + int(t == b) for t in range(nvars))
                    restricted[e] = restricted.get(e, Fraction(0)) + Fraction(c) * x * y
    if not any(restricted.values()):
        return "DegenerateProduct", len(pivots)
    if len(pivots) < nvars:
        return "Cone", len(pivots)
    if pivots[-1] < nvars:
        tangency = sum(c * row[nvars] for c, row in zip(l, red))
        return ("TypeC" if tangency == 0 else "TypeA"), None
    return "TypeB", None


def classify_by_gram(rc):
    """classify as it was before its divisibility test was gated on rank
    [M | l] <= 2: the same integer reduction of [M | l], on the package's
    rref, with the Gram test for L | Q run first on every product."""
    from math import lcm

    from apolarity import linalg
    from apolarity.cubics import CubicKind, CubicType, _hyperplane_basis, _quadric_ints
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
        den = lcm(*(row[i] for i, row in enumerate(red)))
        tangency = sum(c * row.get(nv, 0) * (den // row[i])
                       for i, (c, row) in enumerate(zip(l, red)))
        return CubicType(CubicKind.TYPE_C if tangency == 0 else CubicKind.TYPE_A)
    return CubicType(CubicKind.TYPE_B)


def diagonalize_by_fractions(m) -> tuple[list, list]:
    """(diag, basis columns B) with B^T m B diagonal, by symmetric column
    and row operations in Fractions: a zero pivot is swapped with a later
    nonzero diagonal entry, or else gets a later column with a nonzero
    entry in its row added."""
    size = len(m)
    a = [[Fraction(v) for v in row] for row in m]
    basis = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]

    def add_col(dst, src, f):
        for i in range(size):
            a[i][dst] += f * a[i][src]
        for j in range(size):
            a[dst][j] += f * a[src][j]
        for i in range(size):
            basis[i][dst] += f * basis[i][src]

    def swap_col(i, j):
        for r in range(size):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(size):
            basis[r][i], basis[r][j] = basis[r][j], basis[r][i]

    for t in range(size):
        if a[t][t] == 0:
            swap = next((j for j in range(t + 1, size) if a[j][j]), None)
            if swap is not None:
                swap_col(t, swap)
            else:
                off = next((j for j in range(t + 1, size) if a[t][j]), None)
                if off is None:
                    raise ValueError("degenerate block in congruence diagonalization")
                add_col(t, off, Fraction(1))
        for j in range(t + 1, size):
            if a[t][j]:
                add_col(j, t, -a[t][j] / a[t][t])
    diag = [a[t][t] for t in range(size)]
    cols = [[basis[i][j] for i in range(size)] for j in range(size)]
    return diag, cols


def dual_system_rank(terms: dict, nvars: int, degree: int, hf, i: int, p: int):
    """Rank modulo p of the Macaulay-dual system of degree i of a form, its
    unknown a_{jk} numbered j*h + k (block 0 first), h = hf[i-1]: the rows
    are d_m(sum_k a_{jk} b_k) - d_j(sum_k a_{mk} b_k) = 0 for j < m, one per
    monomial of degree i-2, b the first h partials of order degree-i+1 of
    D*F (D the least common denominator, in the order of
    monomials_recursive) that raise the rank modulo p.  None when p divides D
    or fewer than h partials are independent modulo p."""
    den = 1
    for c in terms.values():
        den = den * Fraction(c).denominator // _gcd(den, Fraction(c).denominator)
    if den % p == 0:
        return None
    scaled = {e: Fraction(c) * den for e, c in terms.items()}
    h, below = hf[i - 1], monomials_recursive(nvars, i - 1)
    basis, picked = [], []
    for alpha in monomials_recursive(nvars, degree - i + 1):
        if len(basis) == h:
            break
        partial = apply_operator({alpha: 1}, scaled)
        column = [int(partial.get(m, 0)) % p for m in below]
        if rank_mod_prime(picked + [column], p) > len(picked):
            picked.append(column)
            basis.append(partial)
    if len(basis) < h:
        return None
    derivative = [[diff_once(b, m) for b in basis] for m in range(nvars)]
    rows = []
    for j in range(nvars):
        for m in range(j + 1, nvars):
            for g in monomials_recursive(nvars, i - 2):
                row = [0] * (nvars * h)
                for k in range(h):
                    row[j * h + k] = int(derivative[m][k].get(g, 0)) % p
                    row[m * h + k] = -int(derivative[j][k].get(g, 0)) % p
                rows.append(row)
    return rank_mod_prime(rows, p)


# -- the text parser that folded sums and built monomials by Polynomial arithmetic --

# parse_by_polynomials's budget of exponent entries; a test that lowers
# poly.MAX_MONOMIAL_ENTRIES lowers this one with it
MAX_MONOMIAL_ENTRIES = poly.MAX_MONOMIAL_ENTRIES

_TOKEN_RE = re.compile(r"\s*(?:(?P<var>[xd]_?(?P<idx>\d+))|(?P<int>\d+)|(?P<op>[-+*^()/]))")


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
        # the most terms one polynomial may have: each holds an exponent
        # tuple of nvars entries
        self.budget = MAX_MONOMIAL_ENTRIES // max(nvars, 1)

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
            _, _, at = self.take()
            rhs = self.factor()
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
            _, k, at = self.take()
            # p^k has at most comb(t+k-1, k) terms, t those of p
            if _comb_exceeds(len(p._ints) + k - 1, k, self.budget):
                self.check_size(k * p.degree(), at)
            p = p ** k
        return p

    def atom(self) -> Polynomial:
        kind = self.peek()
        if kind == "int":
            _, num, _ = self.take()
            den = 1
            if self.peek() == "/":
                self.take()
                if self.peek() != "int":
                    raise PolynomialSyntaxError("denominator must be an integer literal", self.pos())
                _, den, at = self.take()
                if den == 0:
                    raise PolynomialSyntaxError("zero denominator", at)
            return Polynomial._make(self.nvars, {(0,) * self.nvars: num}, den)
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


def parse_by_polynomials(text: str, nvars: int | None = None) -> Polynomial:
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
            f"{len(atoms)} literals and variables in {nvars} variables would "
            f"build more than {MAX_MONOMIAL_ENTRIES} exponent entries",
            atoms[0] if atoms else 0)
    parser = _Parser(tokens, nvars, len(text))
    p = parser.expr()
    if parser.i < len(parser.tokens):
        raise PolynomialSyntaxError("trailing input", parser.pos())
    if len(parser.prefixes) > 1:
        raise PolynomialSyntaxError("cannot mix x- and d-variables in one expression", 0)
    return p


# -- a decomposition's JSON, written and read through Fraction --------------

_NUMBER_RE = re.compile(r"(-?)(\d+)(?:/(\d+))?")


def number_value_by_fractions(text) -> Fraction:
    """The rational that _number_text spells as "p" or "p/q", read at any
    length; other text and JSON numbers go to Fraction as they are."""
    m = _NUMBER_RE.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        return Fraction(text)
    sign, num, den = m.groups()
    value = Fraction(poly._digits_value(num), poly._digits_value(den or "1"))
    return -value if sign else value


def to_json_dict_by_fractions(self) -> dict:
    return {
        "degree": self.degree,
        "variables": self.nvars,
        "terms": [{"coefficient": poly._number_text(c.numerator, c.denominator),
                   "form": [poly._number_text(v.numerator, v.denominator) for v in f.coeffs]}
                  for c, f in self.terms],
    }


def from_json_dict_by_fractions(data):
    """The decomposition of a to_json_dict payload.  Raises ValueError
    on any other shape, on a number that is not a finite rational, on a
    degree or variable count that is not a JSON integer >= 0 or >= 1,
    and on an expansion that could pass MAX_MONOMIAL_ENTRIES exponent
    entries, bounded as the parser bounds it."""
    from apolarity.cubics import WaringDecomposition as cls
    from apolarity.poly import LinearForm
    _number_value = number_value_by_fractions
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
        terms = [(_number_value(t["coefficient"]), LinearForm(map(_number_value, t["form"])))
                 for t in data["terms"]]
    except KeyError as exc:
        raise ValueError(f"the decomposition has no field {exc}") from None
    except (TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"not a finite rational in the decomposition: {exc}") from None
    return cls.assemble(degree, nvars, terms)
