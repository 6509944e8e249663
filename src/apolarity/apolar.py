"""The apolarity pairing between forms and constant-coefficient operators.

An operator D in the dual ring acts on a form F by plain partial
differentiation: a dual monomial with exponent alpha sends x^beta to
alpha! * C(beta, alpha) * x^(beta-alpha) when beta >= alpha and to zero
otherwise, which is exactly d^alpha/dx^alpha.  The annihilator of a form is
its apolar ideal; its graded components are kernels of catalecticant
matrices, and no computation here ever leaves the rationals.

Only a power of a linear form has an apolar generator of degree d+1 (d >= 1).
Such generators are h = ell*F with ell * dF/dx_j = mu_j * F for all j.  If
dF/dx_{j0} != 0, mu_{j0} = 0 forces ell = 0 and then mu = 0, so the solutions
form a line at most; a nonzero one makes every dF/dx_j proportional to F/ell,
so F = c*L^d.

Minimal generators in degrees 1..d follow from Macaulay duality
(Iarrobino-Kanev, Power Sums, Gorenstein Algebras, and Determinantal Loci,
LNM 1721).  Write I for the apolar ideal, HF(i) = rank Cat_i, and P_i for the
span of the (d-i)-th partials of F: then I_i is the orthogonal of P_i and
dim P_i = HF(i).  The orthogonal of T_1 * I_{i-1} is
V_i = {G in S_i : d_jG in P_{i-1} for all j}, so degree i has exactly
dim V_i - HF(i) new generators.  Since G is determined by its partials,
dim V_i is the nullity of a linear system: its unknowns a_{jk} write
d_jG = sum_k a_{jk} * b_k over a basis b of P_{i-1} (n * HF(i-1) of them), and
its equations are d_m d_jG = d_j d_mG.  V_i contains P_i, so the system has
rank at most n * HF(i-1) - HF(i) over Q; modulo a prime its rank is at most
its rank over Q.  Hence

    rank mod PRIME <= rank over Q <= n * HF(i-1) - HF(i),

and a rank mod PRIME that reaches the bound proves that degree i has no new
generator.  Every other outcome, a prime that divides a denominator, a basis
of P_{i-1} whose columns are dependent modulo the prime, or a rank short of
the bound, leaves the degree unproven, never wrongly decided.  The unknown
a_{jk} is column (j-1) % n * h + k, h = HF(i-1), so block 0 comes last: the
rows of a pair (0, m), nonzero in blocks 0 and m only, lead inside block m,
and elimination fills in blocks m and 0 alone.  A rank does not depend on
the order of the columns, so neither does any verdict.

The Hilbert function needs no exact elimination where a catalecticant has
full column rank.  HF(0) = 1: Cat_0 of a nonzero form is its coefficient
column.  For 0 < i <= d/2, Cat_i has dim S_i columns and at least as many
rows, and D*Cat_i is an integer matrix (D the form's denominator), so
rank mod PRIME <= rank over Q <= dim S_i: dim S_i rows independent modulo
PRIME prove HF(i) = dim S_i.  Only the catalecticants that fall short are
eliminated exactly, and they include every one whose kernel apolar_ideal
takes: HF(i) < dim S_i for all i >= i0, as the ideal is nonzero in degree i0.

PRIME is linalg.PRIME, 2^31 - 1, and linalg.independent picks the rows
that are independent modulo it, as it does for poly.LinearChange.

One rule gives HF of every quotient T/((F_perp : g) + <h_1..h_k>) that the
certificates slice.  (F_perp : g) = G_perp, G = g o F (G = F with no g), and
D -> D o G maps T_i onto the i-th partials of G with kernel G_perp_i and
h_j x^beta to d^beta(h_j o G).  So, with e_j = deg h_j and 0 after deg G,

    HF(i) = HF_G(i) - dim span{d^beta(h_j o G) : all j, |beta| = i - e_j},

a rank of the stacked columns of the Cat_{i-e_j}(h_j o G).  For one operator
h it is the exact sequence 0 -> T/(G_perp : h)(-e) -> T/G_perp ->
T/(G_perp + <h>) -> 0: HF_G(i) - HF_{h o G}(i - e).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, perm, prod
from typing import Iterator

from .ideals import (HilbertFunction, HomogeneousIdeal, monomial_index,
                     ring_dimension, _generators_from_components, _monic)
from .linalg import PRIME, ModularSpan, RowSpan, independent, kernel_basis, rank
from .poly import (MAX_MONOMIAL_ENTRIES, AmbientMismatchError, Exponent,
                   LinearForm, Polynomial, _comb_exceeds)


def apolar_apply(op: Polynomial, form: Polynomial) -> Polynomial:
    """Apply a dual-ring operator to a form by differentiation: A/a to B/b,
    integer terms over their denominators, as ints over a*b.  A term of A
    reads each term of B on its own support, so d_k costs one exponent."""
    if op.nvars != form.nvars:
        raise AmbientMismatchError(
            f"operator in {op.nvars} variables, form in {form.nvars}")
    form_terms = form._ints.items()
    terms: dict[Exponent, int] = {}
    for alpha, a in op._ints.items():
        support = [(k, e) for k, e in enumerate(alpha) if e]
        for beta, c in form_terms:
            exps, w = list(beta), a * c
            for k, e in support:
                if beta[k] < e:
                    break
                exps[k] -= e
                w *= perm(beta[k], e)
            else:
                exps = tuple(exps)
                terms[exps] = terms.get(exps, 0) + w
    return Polynomial._make(form.nvars, terms, op._den * form._den)


@dataclass(frozen=True)
class CatalecticantMatrix:
    """Matrix of the map sending a degree-i operator to its image on the form.

    Rows are indexed by the target monomials (degree d-i), columns by the
    source dual monomials (degree i), both in canonical order.
    """

    entries: tuple[tuple[int | Fraction, ...], ...]
    row_monomials: tuple[Exponent, ...]
    col_monomials: tuple[Exponent, ...]
    source_degree: int
    form_degree: int

    def rank(self) -> int:
        return rank([list(r) for r in self.entries])

    def kernel(self) -> list[dict[int, int]]:
        """The annihilated operators, as sparse column vectors: the primitive
        integer multiples of the canonical (RREF) kernel basis."""
        return kernel_basis([list(r) for r in self.entries], len(self.col_monomials))


@lru_cache(maxsize=4096)
def _splits(beta: Exponent, i: int) -> tuple[int, ...]:
    """Every alpha <= beta with |alpha| = i, flattened into triples
    (column, row, w): alpha's index among the degree-i monomials, that of
    beta - alpha among the degree-(|beta|-i) ones, and the weight w with
    d^alpha x^beta = w * x^(beta - alpha)."""
    n = len(beta)
    _, col_index = monomial_index(n, i)
    _, row_index = monomial_index(n, sum(beta) - i)
    support = [k for k, b in enumerate(beta) if b]
    # heads: the choices of alpha on the support so far, with what is left of
    # i; room: the most that the later support positions can still take
    heads: list[tuple[tuple[int, ...], int]] = [((), i)]
    room = sum(beta)
    for k in support:
        room -= beta[k]
        heads = [(head + (a,), left - a) for head, left in heads
                 for a in range(max(0, left - room), min(beta[k], left) + 1)]
    out: list[int] = []
    for head, left in heads:
        if left:
            continue
        alpha = list(beta)
        for k, a in zip(support, head):
            alpha[k] = a
        out += (col_index[tuple(alpha)],
                row_index[tuple(b - a for b, a in zip(beta, alpha))],
                prod(perm(beta[k], a) for k, a in zip(support, head)))
    return tuple(out)


def _entries(form: Polynomial, i: int) -> Iterator[tuple[int, int, int]]:
    """The nonzero entries of D*Cat_i as (column, row, v), D the form's
    denominator: d^alpha F, alpha the column's monomial, has coefficient v/D
    at the row's monomial.  An integer term gives one entry per
    alpha <= beta, so the work is the number of entries."""
    for beta, c in form._ints.items():
        flat = _splits(beta, i)
        for t in range(0, len(flat), 3):
            yield flat[t], flat[t + 1], c * flat[t + 2]


def catalecticant(form: Polynomial, i: int) -> CatalecticantMatrix:
    """The i-th catalecticant of a nonzero form.  Column alpha holds d^alpha F,
    filled term by term by _entries; entries are ints where the form's
    denominator is 1.  Raises ValueError, before allocating, when the matrix
    would have more than MAX_MONOMIAL_ENTRIES cells."""
    d = form.homogeneous_degree()
    if not 0 <= i <= d:
        raise ValueError(f"catalecticant index {i} outside 0..{d}")
    n = form.nvars
    cols, _ = monomial_index(n, i)
    rows, _ = monomial_index(n, d - i)
    if len(rows) * len(cols) > MAX_MONOMIAL_ENTRIES:
        raise ValueError(f"catalecticant Cat_{i} of {len(rows)} x {len(cols)} "
                         "entries is too large to build")
    entries = [[0] * len(cols) for _ in rows]
    for col, row, v in _entries(form, i):
        entries[row][col] = v if form._den == 1 else Fraction(v, form._den)
    return CatalecticantMatrix(tuple(tuple(r) for r in entries),
                               rows, cols, i, d)


def essential_variables(form: Polynomial) -> int:
    """Least number of variables the form can be written in (rank of the
    first catalecticant, read off the integer catalecticant of D*F, D the
    form's denominator)."""
    return _catalecticant_span(form, 1).dimension


def _catalecticant_span(form: Polynomial, i: int) -> RowSpan:
    """The row span of Cat_i, eliminated once: its dimension is rank Cat_i,
    and its kernel_rows are primitive integer multiples of the canonical
    basis of ker Cat_i.  It is read off the integer catalecticant of D*F,
    D the form's denominator."""
    cat = catalecticant(form if form._den == 1 else form.scale(form._den), i)
    span = RowSpan(len(cat.col_monomials))
    for row in cat.entries:
        span.insert(row)
    return span


def _hilbert_and_spans(form: Polynomial) -> tuple[HilbertFunction, dict[int, RowSpan]]:
    """The Hilbert function, and the exact spans, by i, of those Cat_i,
    0 < i <= d/2, whose rank modulo PRIME falls short of dim S_i (module
    docstring).  Cat_{d-i} is the transpose of Cat_i up to nonzero factorial
    scalings of its rows and columns, so only ranks for i <= d/2 are
    computed.  Raises ValueError, before listing a monomial, when they and
    the d+1 values pass MAX_MONOMIAL_ENTRIES cells (each has at least one)."""
    d, n, limit = form.homogeneous_degree(), form.nvars, MAX_MONOMIAL_ENTRIES
    cells = d + 1 + d // 2 + 1
    for i in range(d // 2 + 1):  # Cat_i: columns comb(n-1+i, i) <= rows comb(n-1+d-i, d-i)
        if (_comb_exceeds(n - 1 + d - i, d - i, limit)
                or (cells := cells + comb(n - 1 + i, i) * comb(n - 1 + d - i, d - i) - 1) > limit):
            raise ValueError(f"the catalecticants of a degree-{d} form in {n} "
                             "variables are too large to build")
    full = [ring_dimension(n, i) for i in range(d // 2 + 1)]
    spans = {i: _catalecticant_span(form, i) for i in range(1, d // 2 + 1)
             if independent(_partials(form, i, by_row=True), full[i], full[i]) is None}
    ranks = [spans[i].dimension if i in spans else full[i] for i in range(d // 2 + 1)]
    return HilbertFunction(tuple(ranks[min(i, d - i)] for i in range(d + 1))), spans


def apolar_hilbert(form: Polynomial) -> HilbertFunction:
    """Hilbert function of the apolar quotient, via catalecticant ranks."""
    return _hilbert_and_spans(form)[0]


def quotient_hilbert(form: Polynomial, operators=(), divisor: Polynomial | None = None,
                     form_hilbert: HilbertFunction | None = None) -> HilbertFunction:
    """HF of T/((F_perp : g) + <h_1..h_k>) as deg F + 1 values, g the divisor
    (none: F_perp itself), by the quotient rule of the module docstring.
    The divisor is checked as ideal_colon checks it, the operators as the
    HomogeneousIdeal constructor checks generators in the form's ambient (a
    zero operator drops out), and each is applied once.
    form_hilbert, when given with no divisor, must be apolar_hilbert(form)."""
    d = form.homogeneous_degree()
    if divisor is not None:
        if divisor.nvars != form.nvars:
            raise AmbientMismatchError("divisor ambient differs from the ideal's")
        if divisor.is_zero() or not divisor.is_homogeneous():
            raise ValueError("divisor must be a nonzero homogeneous element")
        form, form_hilbert = apolar_apply(divisor, form), None
        if form.is_zero():
            raise ValueError("divisor lies in the ideal; the colon is the unit ideal")
    images = [(h.homogeneous_degree(), apolar_apply(h, form))
              for h in HomogeneousIdeal(operators, form.nvars).generators]
    values = list((form_hilbert or apolar_hilbert(form)).values)
    for i, full in enumerate(values):
        span = RowSpan(ring_dimension(form.nvars, len(values) - 1 - i))
        for vector in (v for e, image in images if e <= i for v in _partials(image, i - e)):
            if span.dimension == full:
                break
            span.insert(vector)
        values[i] -= span.dimension
    return HilbertFunction(tuple(values + [0] * (d + 1 - len(values))))


def _partials(form: Polynomial, j: int, by_row: bool = False) -> list[dict[int, int]]:
    """The nonzero j-th partials D * d^alpha F as integer vectors keyed by the
    index of their monomials, D the form's denominator; by_row: the rows of
    D*Cat_j instead."""
    vectors: dict[int, dict[int, int]] = {}
    for col, row, v in _entries(form, j):
        if by_row:
            col, row = row, col
        vectors.setdefault(col, {})[row] = v
    return list(vectors.values())


def _no_generator_in_degree(form: Polynomial, hf: tuple[int, ...], i: int) -> bool:
    """True only when the Macaulay-dual system of degree i (module docstring)
    reaches rank n * HF(i-1) - HF(i) modulo PRIME, which proves that T_1 times
    the degree-(i-1) component of the apolar ideal spans its degree-i
    component; False means unproven.  The basis of P_{i-1} is the first
    HF(i-1) partials of order d-i+1 that are independent modulo PRIME, hence
    over Q; the elimination stops once the bound is reached, at once when the
    bound is 0."""
    n, h = form.nvars, hf[i - 1]
    target = n * h - hf[i]
    if target <= 0:
        return True
    monos, _ = monomial_index(n, i - 1)
    chosen = independent(_partials(form, form.homogeneous_degree() - i + 1),
                         len(monos), h) if form._den % PRIME else None
    if chosen is None:
        return False
    basis = [{monos[g]: v for g, v in b.items()} for b in chosen]
    # derivative[m][k] = d_m b_k, in degree i-2
    derivative = [[{g[:m] + (g[m] - 1,) + g[m + 1:]: v * g[m]
                    for g, v in b.items() if g[m]} for b in basis]
                  for m in range(n)]
    span = ModularSpan(n * h, PRIME)
    for j in range(n):
        for m in range(j + 1, n):
            # sum_k a_{jk} d_m b_k - sum_k a_{mk} d_j b_k = 0, one row per
            # monomial; a_{jk} is column (j-1) % n * h + k, block 0 last
            equations: dict[Exponent, dict[int, int]] = {}
            for k in range(h):
                for g, v in derivative[m][k].items():
                    equations.setdefault(g, {})[(j - 1) % n * h + k] = v
                for g, v in derivative[j][k].items():
                    equations.setdefault(g, {})[(m - 1) * h + k] = -v
            for row in equations.values():
                if span.insert(row) and span.dimension == target:
                    return True
    return False


def _top_degree_generators(form: Polynomial, hf: HilbertFunction) -> list[Polynomial]:
    """Minimal apolar generators of degree d+1.

    By the perfect pairing and Euler's identity they are h = ell*F with
    ell * dF/dx_j = mu_j * F for all j.  If dF/dx_{j0} != 0, mu_{j0} = 0 forces
    ell = 0 and then mu = 0, so there is at most one h; it exists iff F = c*L^d,
    i.e. (for d >= 1) iff HF(1) = rank Cat_1 = 1, and then h = L^{d+1} with
    leading coefficient 1, L being any nonzero (d-1)-th partial of F.  For
    d = 0 every ell solves, and the generators are the variables.  Such h lie
    outside T_1 * (annihilator)_d: the factorial-weighted Gram matrix of the
    h's is positive definite.
    """
    d = form.homogeneous_degree()
    n = form.nvars
    if d == 0:
        return [Polynomial.variable(n, k) for k in range(n)]
    if hf.values[1] != 1:
        return []
    # a variable that occurs in F = c*L^d has a nonzero coefficient in L
    j = next(k for k, e in enumerate(next(iter(form._ints))) if e)
    linear = form
    for _ in range(d - 1):
        linear = linear.differentiate(j)
    _, monic = LinearForm.from_polynomial(linear).monic()
    return [monic.to_polynomial() ** (d + 1)]


def apolar_ideal(form: Polynomial) -> HomogeneousIdeal:
    """The annihilator of a form, with deterministic minimal generators.

    The generators of each degree i <= d follow one rule: each canonical
    vector of ker Cat_i, monic in its first monomial, that enlarges the span
    of T_1 times the degree below plus the vectors kept before it.  The
    returned ideal carries truncation bound d+1 and its Hilbert function,
    read off catalecticant ranks, which hilbert_function returns.

    Let i0 be the lowest degree with HF(i0) < dim S_i0.  The rule keeps every
    vector of ker Cat_i0, as the ideal is zero below i0, and by Macaulay
    duality each degree i0 < i <= d needs dim V_i - HF(i) more (module
    docstring).  When a rank modulo PRIME proves that number 0 for every such
    i, by reaching the bound in rank mod PRIME <= rank over Q <=
    n * HF(i-1) - HF(i), the generators below degree d+1 are the canonical
    vectors of ker Cat_i0, and no span is built but Cat_i0's own.  Otherwise
    the exact sweep runs over every kernel: when some degree has new
    generators (binary forms, cones, most monomials), and when the proof is
    out of reach modulo PRIME (a denominator divisible by PRIME, partials
    dependent modulo PRIME, a rank short of the bound).  Neither case can
    give a wrong answer, and both routes give the same generators.
    """
    if form.is_zero():
        raise ValueError("the zero form has no apolar ideal in this toolkit")
    d = form.homogeneous_degree()
    n = form.nvars
    hf, spans = _hilbert_and_spans(form)

    def kernel(i: int) -> list[dict[int, int]]:
        span = spans[i] if i in spans else _catalecticant_span(form, i)
        return span.kernel_rows()

    low = next((i for i in range(1, d + 1) if hf.values[i] < ring_dimension(n, i)),
               None)
    if low is None:
        gens = []
    elif all(_no_generator_in_degree(form, hf.values, i) for i in range(low + 1, d + 1)):
        gens = [_monic(n, low, r) for r in kernel(low)]
    else:
        gens = _generators_from_components(
            [[] for _ in range(low)] + [kernel(i) for i in range(low, d + 1)], n)
    gens.extend(_top_degree_generators(form, hf))
    ideal = HomogeneousIdeal(gens, n, truncation_bound=d + 1)
    ideal._hilbert = hf
    return ideal
