"""The apolarity pairing between forms and constant-coefficient operators.

An operator D in the dual ring acts on a form F by plain partial
differentiation: a dual monomial with exponent alpha sends x^beta to
alpha! * C(beta, alpha) * x^(beta-alpha) when beta >= alpha and to zero
otherwise, which is exactly d^alpha/dx^alpha.  The annihilator of a form is
its apolar ideal; its graded components are kernels of catalecticant
matrices, and no computation here ever leaves the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import perm

from .ideals import (HilbertFunction, HomogeneousIdeal, monomial_index,
                     _generators_from_components)
from .linalg import RowSpan, kernel_basis, rank
from .poly import AmbientMismatchError, Exponent, Polynomial


def apolar_apply(op: Polynomial, form: Polynomial) -> Polynomial:
    """Apply a dual-ring operator to a form by differentiation."""
    if op.nvars != form.nvars:
        raise AmbientMismatchError(
            f"operator in {op.nvars} variables, form in {form.nvars}")
    terms: dict[Exponent, Fraction] = {}
    for alpha, c in op.terms.items():
        for beta, a in form.terms.items():
            if all(b >= g for b, g in zip(beta, alpha)):
                exps = tuple(b - g for b, g in zip(beta, alpha))
                scale = 1
                for b, g in zip(beta, alpha):
                    scale *= perm(b, g)
                terms[exps] = terms.get(exps, Fraction(0)) + c * a * scale
    return Polynomial(form.nvars, terms)


@dataclass(frozen=True)
class CatalecticantMatrix:
    """Matrix of the map sending a degree-i operator to its image on the form.

    Rows are indexed by the target monomials (degree d-i), columns by the
    source dual monomials (degree i), both in canonical order.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    row_monomials: tuple[Exponent, ...]
    col_monomials: tuple[Exponent, ...]
    source_degree: int
    form_degree: int

    def rank(self) -> int:
        return rank([list(r) for r in self.entries])

    def kernel(self) -> list[list[Fraction]]:
        """Canonical basis of the annihilated operators, as column vectors."""
        return kernel_basis([list(r) for r in self.entries], len(self.col_monomials))


def catalecticant(form: Polynomial, i: int) -> CatalecticantMatrix:
    """The i-th catalecticant of a nonzero form."""
    d = form.homogeneous_degree()
    if not 0 <= i <= d:
        raise ValueError(f"catalecticant index {i} outside 0..{d}")
    n = form.nvars
    cols, _ = monomial_index(n, i)
    rows, row_index = monomial_index(n, d - i)
    entries = [[Fraction(0)] * len(cols) for _ in rows]
    for c, alpha in enumerate(cols):
        image = apolar_apply(Polynomial.monomial(n, alpha), form)
        for exps, coef in image.terms.items():
            entries[row_index[exps]][c] = coef
    return CatalecticantMatrix(tuple(tuple(r) for r in entries),
                               rows, cols, i, d)


def essential_variables(form: Polynomial) -> int:
    """Least number of variables the form can be written in (rank of the
    first catalecticant)."""
    return catalecticant(form, 1).rank()


def apolar_hilbert(form: Polynomial) -> HilbertFunction:
    """Hilbert function of the apolar quotient, via catalecticant ranks.

    Cat_{d-i} is the transpose of Cat_i up to nonzero factorial scalings of
    its rows and columns, so only the ranks for i <= d/2 are computed.
    """
    d = form.homogeneous_degree()
    ranks = [catalecticant(form, i).rank() for i in range(d // 2 + 1)]
    return HilbertFunction(tuple(ranks[min(i, d - i)] for i in range(d + 1)))


def _top_degree_generators(form: Polynomial) -> list[Polynomial]:
    """Minimal apolar generators of degree d+1.

    By the perfect pairing these correspond to degree-(d+1) forms h with every
    partial of h proportional to the form; Euler's identity forces h to be a
    linear multiple ell*F, so it is enough to solve the small system
    ell * dF/dx_j = mu_j * F for the coefficients of ell.
    """
    d = form.homogeneous_degree()
    n = form.nvars
    monos_d, index_d = monomial_index(n, d)
    width = 2 * n  # t_0..t_{n-1}, mu_0..mu_{n-1} for n variables
    rows: list[list[Fraction]] = []
    partials = [form.differentiate(j) for j in range(n)]
    for j in range(n):
        block = [[Fraction(0)] * width for _ in monos_d]
        for k in range(n):
            prod = Polynomial.variable(n, k) * partials[j]
            for exps, coef in prod.terms.items():
                block[index_d[exps]][k] = coef
        for exps, coef in form.terms.items():
            block[index_d[exps]][n + j] = -coef
        rows.extend(block)
    out: list[Polynomial] = []
    monos_top, index_top = monomial_index(n, d + 1)
    span = RowSpan(len(monos_top))
    for vec in kernel_basis(rows, width):
        ell = Polynomial(n, {tuple(1 if i == k else 0 for i in range(n)): vec[k]
                             for k in range(n) if vec[k]})
        h = ell * form
        residual = span.insert({index_top[e]: c for e, c in h.terms.items()})
        if residual is None:
            continue
        # gradient-dual operator: independent of T_1 * (annihilator)_d because
        # the factorial-weighted Gram matrix of the h's is positive definite
        lead = min(residual)
        scale = Fraction(1, residual[lead])
        out.append(Polynomial(n, {monos_top[c]: v * scale
                                  for c, v in residual.items()}))
    return out


def apolar_ideal(form: Polynomial) -> HomogeneousIdeal:
    """The annihilator of a form, with deterministic minimal generators.

    Degree-i generators are the part of the i-th catalecticant kernel not
    already generated below; everything is canonicalized through reduced row
    echelon form.  The returned ideal carries truncation bound d+1.
    """
    if form.is_zero():
        raise ValueError("the zero form has no apolar ideal in this toolkit")
    d = form.homogeneous_degree()
    n = form.nvars
    components: list[list[dict[int, Fraction]]] = [[]]
    for i in range(1, d + 1):
        cat = catalecticant(form, i)
        comp = []
        for vec in cat.kernel():
            comp.append({c: v for c, v in enumerate(vec) if v})
        components.append(comp)
    gens = _generators_from_components(components, n)
    gens.extend(_top_degree_generators(form))
    return HomogeneousIdeal(gens, n, truncation_bound=d + 1)
