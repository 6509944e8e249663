"""Homogeneous ideals in the dual ring, handled degree by degree.

An ideal is a tuple of homogeneous generators of degree >= 1 together with an
optional truncation bound: a degree b, certified by the constructor, such that
the ideal contains every monomial of degree b (hence all higher degrees).
Graded components are computed by exact linear algebra on monomial
coordinates; no Groebner bases anywhere.  The component of degree i is the
span of T_1 times the component of degree i-1 plus the degree-i generators,
which is why sweeps run bottom-up.

The colon (I : g), g of degree e, comes by duality.  I_{i+e} is the
orthogonal, in coefficient coordinates, of its kernel vectors k, and
(D*g).k = D.(g^T k) with (g^T k)_alpha = sum_gamma g_gamma k_(alpha+gamma).
So D*g lies in I_{i+e} iff D is orthogonal to every g^T k: (I : g)_i is the
kernel of the span of the g^T k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import comb
from operator import sub

from .linalg import RowSpan
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


class HomogeneousIdeal:
    """Immutable homogeneous ideal given by generators and a truncation bound.

    truncation_bound=None means no certificate that the ideal eventually fills
    whole degrees; such ideals cannot be fed to hilbert_function.  apolar_ideal
    stores the Hilbert function it read off catalecticant ranks in _hilbert,
    and hilbert_function returns it; every other ideal, those of the
    constructor, ideal_sum and ideal_colon included, carries None.
    """

    __slots__ = ("generators", "nvars", "truncation_bound", "_hilbert")

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
        self._hilbert: HilbertFunction | None = None

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
    for none) plus ``rows``, with the generator rule's picks: each row, as
    given, that enlarged the span of T_1 * prev plus the rows kept before it.
    Insertion stops once the span has dimension ``full``, since every later
    row would reduce to zero."""
    span = RowSpan(ring_dimension(nvars, degree))
    shift = _shift_table(nvars, degree)
    shifted = ({shift[c][j]: v for c, v in row.items()}
               for row in prev.basis_rows() for j in range(nvars))
    kept = []
    for given, row in chain(((False, r) for r in shifted), ((True, r) for r in rows)):
        if span.dimension == full:
            break
        if span.insert(row) is not None and given:
            kept.append(row)
    return span, kept


def _graded_spans(ideal: HomogeneousIdeal, top: int) -> list[RowSpan]:
    """Row spans of the ideal's graded components for degrees 0..top."""
    spans: list[RowSpan] = []
    for i in range(top + 1):
        monos, index = monomial_index(ideal.nvars, i)
        if ideal.truncation_bound is not None and i >= ideal.truncation_bound:
            prev, rows = RowSpan(0), ({c: 1} for c in range(len(monos)))
        else:
            prev = spans[-1] if spans else RowSpan(0)
            rows = ({index[e]: v for e, v in g._ints.items()}  # a multiple of g
                    for g in ideal.generators_of_degree(i))
        spans.append(_component(prev, ideal.nvars, i, rows, len(monos))[0])
    return spans


def _monic(nvars: int, degree: int, row: dict[int, int]) -> Polynomial:
    """The form of a primitive integer row with a positive lead, over that
    lead: monic in its first monomial."""
    monos, _ = monomial_index(nvars, degree)
    return Polynomial._make(nvars, {monos[c]: v for c, v in row.items()}, row[min(row)])


def graded_basis(ideal: HomogeneousIdeal, degree: int) -> list[Polynomial]:
    """Canonical (RREF) basis of the ideal's degree-i component."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    span = _graded_spans(ideal, degree)[degree]
    return [_monic(ideal.nvars, degree, row) for row in span.canonical_rows()]


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
    """Hilbert function of the quotient by a truncation-bounded ideal: the
    values an apolar ideal carries, else by elimination degree by degree."""
    b = ideal.truncation_bound
    if b is None:
        raise ValueError("ideal carries no truncation certificate; "
                         "Hilbert function would not be a finite computation")
    if ideal._hilbert is not None:
        return ideal._hilbert
    spans = _graded_spans(ideal, b - 1)
    return HilbertFunction(tuple(
        ring_dimension(ideal.nvars, i) - spans[i].dimension for i in range(b)))


def ideal_sum(a: HomogeneousIdeal, b: HomogeneousIdeal) -> HomogeneousIdeal:
    if a.nvars != b.nvars:
        raise AmbientMismatchError("ideal ambients differ")
    bounds = [x for x in (a.truncation_bound, b.truncation_bound) if x is not None]
    return HomogeneousIdeal(a.generators + b.generators, a.nvars,
                            min(bounds) if bounds else None)


def _generators_from_components(components: list[list[dict[int, int]]],
                                nvars: int) -> list[Polynomial]:
    """Minimal generators of an ideal whose degree-i component has the
    canonical basis components[i]: each row, monic in its first monomial,
    that enlarges the span of T_1 times the degree below plus the rows kept
    before it (_component).  Each component must contain T_1 times the
    previous one, and its rows must be independent: a degree is complete
    once its span has len(components[i]) rows, and nothing after is reduced."""
    gens: list[Polynomial] = []
    span = RowSpan(0)
    for i, rows in enumerate(components):
        span, kept = _component(span, nvars, i, rows, len(rows))
        gens.extend(_monic(nvars, i, r) for r in kept)
    return gens


def _colon_spans(ideal: HomogeneousIdeal, divisor: Polynomial,
                 top: int) -> list[RowSpan]:
    """Row spans of (ideal : divisor) for degrees 0..top, by duality (module
    docstring): the degree-i component is the kernel of the span of the
    contractions g^T k of the kernel vectors k of the ideal's degree-(i+e)
    component, a full one having none."""
    n = ideal.nvars
    e = divisor.homogeneous_degree()
    terms = divisor._ints.items()  # its scale does not move a span
    ideal_spans = _graded_spans(ideal, top + e)
    out: list[RowSpan] = []
    for i in range(top + 1):
        _, index = monomial_index(n, i)
        monos_t, _ = monomial_index(n, i + e)
        dual = RowSpan(len(index))
        for k in ideal_spans[i + e].kernel_rows():
            row: dict[int, int] = {}
            for c, v in k.items():  # (g^T k)_alpha = sum_gamma g_gamma k_(alpha+gamma)
                for gamma, w in terms:
                    alpha = tuple(map(sub, monos_t[c], gamma))
                    if min(alpha) >= 0:
                        row[index[alpha]] = row.get(index[alpha], 0) + w * v
            dual.insert(row)
        out.append(_component(RowSpan(0), n, i, dual.kernel_rows(), len(index))[0])
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
    # I_i lies in (I : g)_i, so equal dimensions mean equal components
    return all(colon[i].dimension == mine[i].dimension
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
    return span.contains({index[e]: v for e, v in member._ints.items()})
