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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import perm
from typing import Iterator

from .ideals import (HilbertFunction, HomogeneousIdeal, monomial_index,
                     _generators_from_components)
from .linalg import kernel_basis, rank
from .poly import AmbientMismatchError, Exponent, LinearForm, Polynomial


def _images(alpha: Exponent, terms) -> Iterator[tuple[Exponent, Fraction | int]]:
    """d^alpha applied to each term c*x^beta with beta >= alpha:
    (beta - alpha, c * prod_k perm(beta_k, alpha_k))."""
    for beta, c in terms:
        if all(b >= a for b, a in zip(beta, alpha)):
            for b, a in zip(beta, alpha):
                c *= perm(b, a)
            yield tuple(b - a for b, a in zip(beta, alpha)), c


def apolar_apply(op: Polynomial, form: Polynomial) -> Polynomial:
    """Apply a dual-ring operator to a form by differentiation."""
    if op.nvars != form.nvars:
        raise AmbientMismatchError(
            f"operator in {op.nvars} variables, form in {form.nvars}")
    terms: dict[Exponent, Fraction] = {}
    for alpha, c in op.terms.items():
        for exps, v in _images(alpha, form.terms.items()):
            terms[exps] = terms.get(exps, Fraction(0)) + c * v
    return Polynomial(form.nvars, terms)


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

    def kernel(self) -> list[list[Fraction]]:
        """Canonical basis of the annihilated operators, as column vectors."""
        return kernel_basis([list(r) for r in self.entries], len(self.col_monomials))


def catalecticant(form: Polynomial, i: int) -> CatalecticantMatrix:
    """The i-th catalecticant of a nonzero form.  Column alpha holds d^alpha F,
    filled term by term by _images; entries are ints where F's coefficients are.
    """
    d = form.homogeneous_degree()
    if not 0 <= i <= d:
        raise ValueError(f"catalecticant index {i} outside 0..{d}")
    n = form.nvars
    cols, _ = monomial_index(n, i)
    rows, row_index = monomial_index(n, d - i)
    terms = [(beta, c.numerator if c.denominator == 1 else c)
             for beta, c in form.terms.items()]
    entries = [[0] * len(cols) for _ in rows]
    for col, alpha in enumerate(cols):
        for exps, v in _images(alpha, terms):
            entries[row_index[exps]][col] = v
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


def _top_degree_generators(form: Polynomial,
                           components: list[list[dict[int, Fraction]]]) -> list[Polynomial]:
    """Minimal apolar generators of degree d+1; components[1] is ker Cat_1.

    By the perfect pairing and Euler's identity they are h = ell*F with
    ell * dF/dx_j = mu_j * F for all j.  If dF/dx_{j0} != 0, mu_{j0} = 0 forces
    ell = 0 and then mu = 0, so there is at most one h; it exists iff F = c*L^d,
    i.e. (for d >= 1) iff rank Cat_1 = 1, and then h = L^{d+1} with leading
    coefficient 1, L being any nonzero (d-1)-th partial of F.  For d = 0 every
    ell solves, and the generators are the variables.  Such h lie outside
    T_1 * (annihilator)_d: the factorial-weighted Gram matrix of the h's is
    positive definite.
    """
    d = form.homogeneous_degree()
    n = form.nvars
    if d == 0:
        return [Polynomial.variable(n, k) for k in range(n)]
    if len(components[1]) != n - 1:
        return []
    # a variable that occurs in F = c*L^d has a nonzero coefficient in L
    j = next(k for k, e in enumerate(next(iter(form.terms))) if e)
    linear = form
    for _ in range(d - 1):
        linear = linear.differentiate(j)
    _, monic = LinearForm.from_polynomial(linear).monic()
    return [monic.to_polynomial() ** (d + 1)]


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
        components.append([{c: v for c, v in enumerate(vec) if v}
                           for vec in catalecticant(form, i).kernel()])
    gens = _generators_from_components(components, n)
    gens.extend(_top_degree_generators(form, components))
    return HomogeneousIdeal(gens, n, truncation_bound=d + 1)
