"""Homogeneous ideals in the dual ring, handled degree by degree.

An ideal is a tuple of homogeneous generators of degree >= 1 together with an
optional truncation bound: a degree b, certified by the constructor, such that
the ideal contains every monomial of degree b (hence all higher degrees).
Graded components are computed by exact linear algebra on monomial
coordinates; no Groebner bases anywhere.  The component of degree i is the
span of T_1 times the component of degree i-1 plus the degree-i generators,
which is why sweeps run bottom-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb

from .linalg import RowSpan, kernel_basis
from .poly import AmbientMismatchError, Exponent, Polynomial, monomials


def ring_dimension(nvars: int, degree: int) -> int:
    """Dimension of the space of forms of the given degree."""
    if degree < 0:
        return 0
    return comb(nvars - 1 + degree, degree)


@lru_cache(maxsize=None)
def monomial_index(nvars: int, degree: int) -> tuple[tuple[Exponent, ...], dict[Exponent, int]]:
    """Canonically ordered monomial list for one degree, plus its index map."""
    monos = tuple(monomials(nvars, degree))
    return monos, {m: i for i, m in enumerate(monos)}


def poly_to_row(p: Polynomial, index: dict[Exponent, int]) -> dict[int, Fraction]:
    return {index[e]: c for e, c in p.terms.items()}


def row_to_poly(row: dict[int, Fraction], monos: tuple[Exponent, ...], nvars: int) -> Polynomial:
    return Polynomial(nvars, {monos[c]: v for c, v in row.items()})


class HomogeneousIdeal:
    """Immutable homogeneous ideal given by generators and a truncation bound.

    truncation_bound=None means no certificate that the ideal eventually fills
    whole degrees; such ideals cannot be fed to hilbert_function.
    """

    __slots__ = ("generators", "nvars", "truncation_bound")

    def __init__(self, generators, nvars: int | None = None,
                 truncation_bound: int | None = None):
        gens = tuple(g for g in generators if not g.is_zero())
        if nvars is None:
            if not gens:
                raise ValueError("cannot infer the ambient of an empty generator list")
            nvars = gens[0].nvars
        for g in gens:
            if g.nvars != nvars:
                raise AmbientMismatchError(
                    f"generator in {g.nvars} variables, ideal ambient is {nvars}")
            if not g.is_homogeneous() or g.homogeneous_degree() < 1:
                raise ValueError(f"generators must be homogeneous of degree >= 1: {g}")
        if truncation_bound is not None and truncation_bound < 1:
            raise ValueError("truncation bound must be >= 1")
        self.generators = gens
        self.nvars = nvars
        self.truncation_bound = truncation_bound

    @property
    def max_generator_degree(self) -> int:
        return max((g.homogeneous_degree() for g in self.generators), default=0)

    def generators_of_degree(self, degree: int) -> list[Polynomial]:
        return [g for g in self.generators if g.homogeneous_degree() == degree]

    def __repr__(self) -> str:
        gens = ", ".join(g.to_string("d") for g in self.generators)
        return f"HomogeneousIdeal(<{gens}>, nvars={self.nvars}, bound={self.truncation_bound})"


@lru_cache(maxsize=None)
def _shift_table(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """[c][j]: the column of x_j times the c-th monomial of degree - 1."""
    below, _ = monomial_index(nvars, degree - 1)
    _, index = monomial_index(nvars, degree)
    return tuple(tuple(index[e[:j] + (e[j] + 1,) + e[j + 1:]] for j in range(nvars))
                 for e in below)


def _component(prev: RowSpan, nvars: int, degree: int, rows,
               full: int) -> tuple[RowSpan, list[dict[int, int]]]:
    """Span of T_1 times ``prev`` (the component one degree lower; RowSpan(0)
    for none) plus ``rows``, with the residuals by which ``rows`` enlarged
    it.  Insertion stops once the span has dimension ``full``, since every
    later row would reduce to zero."""
    span = RowSpan(ring_dimension(nvars, degree))
    shift = _shift_table(nvars, degree)
    shifted = ({shift[c][j]: v for c, v in row.items()}
               for row in prev.basis_rows() for j in range(nvars))
    residuals = []
    for given, row in chain(((False, r) for r in shifted), ((True, r) for r in rows)):
        if span.dimension == full:
            break
        residual = span.insert(row)
        if given and residual is not None:
            residuals.append(residual)
    return span, residuals


def _graded_spans(ideal: HomogeneousIdeal, top: int) -> list[RowSpan]:
    """Row spans of the ideal's graded components for degrees 0..top."""
    spans: list[RowSpan] = []
    for i in range(top + 1):
        monos, index = monomial_index(ideal.nvars, i)
        if ideal.truncation_bound is not None and i >= ideal.truncation_bound:
            prev, rows = RowSpan(0), ({c: 1} for c in range(len(monos)))
        else:
            prev = spans[-1] if spans else RowSpan(0)
            rows = (poly_to_row(g, index) for g in ideal.generators_of_degree(i))
        spans.append(_component(prev, ideal.nvars, i, rows, len(monos))[0])
    return spans


def graded_basis(ideal: HomogeneousIdeal, degree: int) -> list[Polynomial]:
    """Canonical (RREF) basis of the ideal's degree-i component."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    span = _graded_spans(ideal, degree)[degree]
    monos, _ = monomial_index(ideal.nvars, degree)
    return [row_to_poly(row, monos, ideal.nvars) for row in span.canonical_rows()]


@dataclass(frozen=True)
class HilbertFunction:
    """Values HF(T/I, i) for i = 0..truncation_bound-1; later values are 0."""

    values: tuple[int, ...]

    def delta(self) -> tuple[int, ...]:
        """First difference, with HF(-1) taken as 0."""
        return tuple(v - (self.values[i - 1] if i else 0)
                     for i, v in enumerate(self.values))

    def total(self) -> int:
        return sum(self.values)

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"


def hilbert_function(ideal: HomogeneousIdeal) -> HilbertFunction:
    """Hilbert function of the quotient by a truncation-bounded ideal."""
    b = ideal.truncation_bound
    if b is None:
        raise ValueError("ideal carries no truncation certificate; "
                         "Hilbert function would not be a finite computation")
    spans = _graded_spans(ideal, b - 1)
    return HilbertFunction(tuple(
        ring_dimension(ideal.nvars, i) - spans[i].dimension for i in range(b)))


def ideal_sum(a: HomogeneousIdeal, b: HomogeneousIdeal) -> HomogeneousIdeal:
    if a.nvars != b.nvars:
        raise AmbientMismatchError("ideal ambients differ")
    bounds = [x for x in (a.truncation_bound, b.truncation_bound) if x is not None]
    return HomogeneousIdeal(a.generators + b.generators, a.nvars,
                            min(bounds) if bounds else None)


def _generators_from_components(components: list[list[dict[int, Fraction]]],
                                nvars: int) -> list[Polynomial]:
    """Minimal generators of an ideal whose degree-i component is spanned by
    components[i].  Each component must contain T_1 times the previous one,
    and its rows must be independent: a degree is complete once its span
    has len(components[i]) rows, and nothing after that is reduced."""
    gens: list[Polynomial] = []
    span = RowSpan(0)
    for i, rows in enumerate(components):
        monos, _ = monomial_index(nvars, i)
        span, residuals = _component(span, nvars, i, rows, len(rows))
        gens.extend(row_to_poly(r, monos, nvars).scale(Fraction(1, r[min(r)]))
                    for r in residuals)
    return gens


def _colon_spans(ideal: HomogeneousIdeal, divisor: Polynomial,
                 top: int) -> list[RowSpan]:
    """Row spans of (ideal : divisor) for degrees 0..top, by definition:
    the degree-i component is the preimage of the ideal under multiplication
    by the divisor."""
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
            # kernel of [ mult-by-divisor | -ideal-basis ] gives the preimage
            width = dim_i + len(basis)
            rows = [[Fraction(0)] * width for _ in range(dim_t)]
            for c, mono in enumerate(monos_i):
                prod = divisor * Polynomial.monomial(n, mono)
                for exps, coef in prod.terms.items():
                    rows[index_t[exps]][c] = coef
            for k, brow in enumerate(basis):
                for col, val in brow.items():
                    rows[col][dim_i + k] = -val
            preimage = ({c: vec[c] for c in range(dim_i) if vec[c]}
                        for vec in kernel_basis(rows, width))
        out.append(_component(RowSpan(0), n, i, preimage, dim_i)[0])
    return out


def ideal_colon(ideal: HomogeneousIdeal, divisor: Polynomial) -> HomogeneousIdeal:
    """The colon ideal (I : g) = {D : g*D in I}, degree by degree."""
    if divisor.nvars != ideal.nvars:
        raise AmbientMismatchError("divisor ambient differs from the ideal's")
    if divisor.is_zero() or not divisor.is_homogeneous():
        raise ValueError("divisor must be a nonzero homogeneous element")
    b = ideal.truncation_bound
    if b is None:
        raise ValueError("colon needs a truncation-bounded ideal")
    e = divisor.homogeneous_degree()
    if e >= b:
        raise ValueError("divisor lies in the ideal; the colon is the unit ideal")
    top = b - e
    spans = _colon_spans(ideal, divisor, top)
    if spans[0].dimension:
        raise ValueError("divisor lies in the ideal; the colon is the unit ideal")
    components = [span.canonical_rows() for span in spans]
    gens = _generators_from_components(components, ideal.nvars)
    return HomogeneousIdeal(gens, ideal.nvars, truncation_bound=b)


def is_nonzerodivisor(ideal: HomogeneousIdeal, divisor: Polynomial,
                      through_degree: int | None = None) -> bool:
    """Direct definitional check that (I : divisor) agrees with I degreewise.

    On an Artinian quotient every form of positive degree kills the top
    nonzero degree, so the comparison runs through bound-2 by default; pass
    through_degree explicitly to widen or narrow the window.
    """
    if through_degree is None:
        if ideal.truncation_bound is None:
            raise ValueError("supply through_degree for an unbounded ideal")
        through_degree = ideal.truncation_bound - 2
    colon = _colon_spans(ideal, divisor, through_degree)
    mine = _graded_spans(ideal, through_degree)
    return all(colon[i].canonical_rows() == mine[i].canonical_rows()
               for i in range(through_degree + 1))


def ideal_equal(a: HomogeneousIdeal, b: HomogeneousIdeal) -> bool:
    """Exact equality, tested as degreewise span equality.

    Beyond the larger top generator degree both ideals grow by multiplication
    with the linear forms alone, so agreement up to that degree is conclusive.
    """
    if a.nvars != b.nvars:
        raise AmbientMismatchError("ideal ambients differ")
    stop = max(a.max_generator_degree, b.max_generator_degree, 1)
    sa = _graded_spans(a, stop)
    sb = _graded_spans(b, stop)
    return all(sa[i].canonical_rows() == sb[i].canonical_rows()
               for i in range(stop + 1))


def ideal_contains(ideal: HomogeneousIdeal, member: Polynomial) -> bool:
    """Membership test for a homogeneous element."""
    if member.is_zero():
        return True
    d = member.homogeneous_degree()
    span = _graded_spans(ideal, d)[d]
    _, index = monomial_index(ideal.nvars, d)
    return span.contains(poly_to_row(member, index))
