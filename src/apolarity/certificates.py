"""Rank bounds and machine-checkable lower-bound certificates.

Lower bounds come from two sources: catalecticant ranks, and the length of
the scheme cut out by the apolar ideal on a hyperplane that the annihilated
points avoid.  The latter is packaged as AvoidanceCertificate so every
number quoted in a bound is recomputable.  Upper bounds come from the class
table for reducible cubics and, when a constructor applies, from an explicit
verified power sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, comb

from .apolar import (apolar_apply, apolar_hilbert, apolar_ideal, catalecticant,
                     essential_variables)
from .cubics import (CubicKind, CubicType, LinearChange, NeedsFieldExtension,
                     ReducibleCubic, WaringDecomposition, classify,
                     decompose_binary, decompose_type_c,
                     normalize_tangent_product, split_change,
                     verify_decomposition)
from .ideals import (HilbertFunction, HomogeneousIdeal, graded_basis,
                     hilbert_function, ideal_colon, ideal_contains, ideal_equal,
                     ideal_sum, poly_to_row, monomial_index)
from .linalg import RowSpan, mat_vec
from .poly import AmbientMismatchError, LinearForm, Polynomial, parse, substitute

_GENERIC_EXCEPTIONS = {(3, 4): 8, (4, 2): 6, (4, 3): 10, (4, 4): 15}


def generic_rank(n: int, degree: int) -> int:
    """Rank of a general degree-d form in n+1 variables: the count formula
    ceil(binom(n+d, d) / (n+1)) except for quadrics and the four classical
    exceptional pairs."""
    if n < 1 or degree < 1:
        raise ValueError("need projective dimension n >= 1 and degree >= 1")
    if degree == 2:
        return n + 1
    if (degree, n) in _GENERIC_EXCEPTIONS:
        return _GENERIC_EXCEPTIONS[(degree, n)]
    return ceil(Fraction(comb(n + degree, degree), n + 1))


def classified_rank_bounds(ctype: CubicType, n: int) -> tuple[int, int]:
    """Rank bracket [lower, upper] for a reducible cubic of the given class
    in projective dimension n."""
    if ctype.kind is CubicKind.DEGENERATE_PRODUCT:
        raise ValueError("products with a repeated linear factor have no uniform "
                         "class bounds; compress and use the binary route")
    if ctype.kind is CubicKind.CONE:
        if ctype.essential is None:
            raise ValueError("cone bounds need the essential-variable count")
        return 1, 2 * ctype.essential - 1
    if ctype.kind is CubicKind.TYPE_C:
        return 2 * n, 2 * n + 1
    return 2 * n, 2 * n


def catalecticant_lower_bound(form: Polynomial) -> int:
    """max_i rank Cat_i(F), the classical apolarity lower bound."""
    return max(apolar_hilbert(form).values)


@dataclass(frozen=True)
class AvoidanceCertificate:
    """Data behind the bound rank(F) >= total_bound.

    hilbert is the Hilbert function of T/(I + <hyperplane>) where I is the
    apolar ideal of F, or (F_perp : divisor) when a divisor was used to
    discard points lying on the hyperplane.  The inequality holds whenever
    some minimal apolar scheme avoids the hyperplane; `condition` records the
    hypothesis that was actually checked by machine.
    """

    hyperplane: Polynomial
    hilbert: HilbertFunction
    bound: int
    condition: str
    divisor: Polynomial | None = None
    removed_points: int | None = None

    @property
    def total_bound(self) -> int:
        return self.bound + (self.removed_points or 0)

    def summary(self) -> str:
        parts = [f"sum HF = {self.bound}"]
        if self.removed_points:
            parts.append(f"removed points = {self.removed_points}")
        return f"rank >= {self.total_bound} ({', '.join(parts)})"


def avoidance_lower_bound(form: Polynomial, hyperplane: Polynomial) -> AvoidanceCertificate:
    """Length certificate from the hyperplane section of the apolar scheme.

    Requires the linear operator not to annihilate the form; each summand of
    the Hilbert function of T/(F_perp + <hyperplane>) then counts toward any
    apolar point set that avoids the hyperplane.
    """
    _check_dual_linear(form, hyperplane)
    if apolar_apply(hyperplane, form).is_zero():
        raise ValueError("the hyperplane operator annihilates the form; "
                         "the avoidance bound does not apply")
    total = ideal_sum(apolar_ideal(form), HomogeneousIdeal([hyperplane]))
    hf = hilbert_function(total)
    return AvoidanceCertificate(
        hyperplane=hyperplane,
        hilbert=hf,
        bound=hf.total(),
        condition=f"<{hyperplane.to_string('d')}, F> != 0 (checked)",
    )


def colon_refinement(form: Polynomial, hyperplane: Polynomial,
                     divisor: Polynomial,
                     removed_points: int | None = None) -> AvoidanceCertificate:
    """Refined certificate: points killed by the divisor are removed from the
    scheme before slicing, and credited back via removed_points when the
    caller has certified how many there are (rank >= sum HF + removed)."""
    _check_dual_linear(form, hyperplane)
    if apolar_apply(hyperplane, form).is_zero():
        raise ValueError("the hyperplane operator annihilates the form; "
                         "the avoidance bound does not apply")
    refined = ideal_colon(apolar_ideal(form), divisor)
    total = ideal_sum(refined, HomogeneousIdeal([hyperplane]))
    hf = hilbert_function(total)
    return AvoidanceCertificate(
        hyperplane=hyperplane,
        hilbert=hf,
        bound=hf.total(),
        condition=(f"<{hyperplane.to_string('d')}, F> != 0 (checked); "
                   f"points on the hyperplane killed by {divisor.to_string('d')} "
                   "must be counted by the caller"),
        divisor=divisor,
        removed_points=removed_points,
    )


def _check_dual_linear(form: Polynomial, hyperplane: Polynomial) -> None:
    if hyperplane.nvars != form.nvars:
        raise AmbientMismatchError("hyperplane and form ambients differ")
    if hyperplane.is_zero() or hyperplane.homogeneous_degree() != 1:
        raise ValueError("the hyperplane must be a nonzero linear operator")


# -- the worked plane-cubic certificate ---------------------------------------

@dataclass(frozen=True)
class CertificateClaim:
    label: str
    description: str
    holds: bool
    detail: str = ""


@dataclass(frozen=True)
class ClaimChainCertificate:
    form: Polynomial
    claims: tuple[CertificateClaim, ...]
    bound: int | None
    statement: str

    @property
    def verified(self) -> bool:
        return all(c.holds for c in self.claims)

    def failed_labels(self) -> list[str]:
        return [c.label for c in self.claims if not c.holds]


def tangent_plane_certificate(form: Polynomial | None = None) -> ClaimChainCertificate:
    """Claim-by-claim rank certificate for the plane cubic x0^2*x2 + x0*x1^2.

    Every claim is recomputed against the supplied form (default: that cubic),
    so feeding a different form makes the failing steps visible instead of
    silently reusing cached conclusions.  When all claims hold the chain
    certifies rank >= 1 + sum HF via the colon refinement along d1 and the
    slice by d2.
    """
    if form is None:
        form = parse("x0^2*x2 + x0*x1^2")
    if form.nvars != 3 or form.is_zero() or not form.is_homogeneous() \
            or form.homogeneous_degree() != 3:
        raise ValueError("the worked certificate is for plane cubics (3 variables)")
    d0, d1, d2 = (Polynomial.variable(3, i) for i in range(3))
    quadrics = [d0 * d2 - d1 * d1, d1 * d2, d2 * d2]
    cubics = [d0 ** 3, d0 * d0 * d1, d1 ** 3]
    expected = HomogeneousIdeal(quadrics + cubics, truncation_bound=4)
    ideal = apolar_ideal(form)
    claims = []

    holds = ideal_equal(ideal, expected)
    claims.append(CertificateClaim(
        "generators",
        "the apolar ideal is <d0*d2 - d1^2, d1*d2, d2^2, d0^3, d0^2*d1, d1^3>",
        holds))

    hf_slice = hilbert_function(ideal_sum(ideal, HomogeneousIdeal([d2])))
    holds = hf_slice.values == (1, 2, 2, 0)
    claims.append(CertificateClaim(
        "slice",
        "slicing the apolar ideal with d2 gives Hilbert function (1, 2, 2, 0)",
        holds, detail=f"computed {hf_slice}"))

    actual_q = graded_basis(ideal, 2)
    holds = _same_span(actual_q, quadrics, 2)
    claims.append(CertificateClaim(
        "quadrics",
        "the degree-2 part of the apolar ideal is spanned by the three quadrics",
        holds))

    in_ideal = ideal_contains(ideal, d2 * d2) and ideal_contains(ideal, d1 * d2)
    quotients_ok = _strip_linear(d2 * d2, 2) is not None \
        and _strip_linear(d1 * d2, 2) is not None
    holds = in_ideal and quotients_ok
    claims.append(CertificateClaim(
        "pencil",
        "the pencil <d2^2, d1*d2> lies in the ideal and has fixed line d2 = 0",
        holds))

    conic = d0 * d2 - d1 * d1
    restricted = Polynomial(3, {e: c for e, c in conic.terms.items() if e[2] == 0})
    holds = ideal_contains(ideal, conic) and restricted == -(d1 * d1)
    claims.append(CertificateClaim(
        "conics",
        "the residual conics restrict to -d1^2 on the line, meeting it only "
        "at (1:0:0)",
        holds, detail=f"restriction {restricted.to_string('d')}"))

    colon_expected = HomogeneousIdeal([d2, d0 * d0, d1 * d1], truncation_bound=4)
    hf_refined = None
    try:
        refined = ideal_sum(ideal_colon(ideal, d1), HomogeneousIdeal([d2]))
        hf_refined = hilbert_function(refined)
        holds = ideal_equal(refined, colon_expected) and hf_refined.values == (1, 2, 1, 0)
        detail = f"computed {hf_refined}"
    except ValueError as exc:
        holds = False
        detail = str(exc)
    claims.append(CertificateClaim(
        "colon",
        "(apolar : d1) + <d2> = <d2, d0^2, d1^2> with Hilbert function (1, 2, 1, 0)",
        holds, detail=detail))

    holds = not apolar_apply(d2, form).is_zero()
    claims.append(CertificateClaim(
        "pairing",
        "the slicing operator d2 does not annihilate the form",
        holds))

    chain = tuple(claims)
    if all(c.holds for c in chain) and hf_refined is not None:
        bound = 1 + hf_refined.total()
        statement = f"rank >= {bound}"
    else:
        bound = None
        failed = ", ".join(c.label for c in chain if not c.holds)
        statement = f"inconclusive: claims failed ({failed})"
    return ClaimChainCertificate(form=form, claims=chain, bound=bound,
                                 statement=statement)


def _same_span(a: list[Polynomial], b: list[Polynomial], degree: int) -> bool:
    if not a and not b:
        return True
    nvars = (a or b)[0].nvars
    _, index = monomial_index(nvars, degree)
    reduced = []
    for polys in (a, b):
        if any(p.is_zero() or p.homogeneous_degree() != degree for p in polys):
            return False
        span = RowSpan(len(index))
        for p in polys:
            span.insert(poly_to_row(p, index))
        reduced.append(span.canonical_rows())
    return reduced[0] == reduced[1]


def _strip_linear(p: Polynomial, var: int) -> Polynomial | None:
    """Divide by the coordinate `var` when possible."""
    out = {}
    for e, c in p.terms.items():
        if e[var] == 0:
            return None
        out[e[:var] + (e[var] - 1,) + e[var + 1:]] = c
    return Polynomial(p.nvars, out)


# -- the combined report -------------------------------------------------------

@dataclass(frozen=True)
class RankReport:
    """Aggregated rank information for one reducible cubic.

    lower_kind names the certificate behind the lower bound: "catalecticant",
    "table" (the class table), or "binary-apolar" (generator degrees after
    compressing to two variables).  The avoidance certificate, when attached,
    is conditional metadata: its bound applies only to decompositions avoiding
    the recorded hyperplane and never feeds into `lower`.
    """

    form: Polynomial
    classification: CubicType | None
    essential: int
    catalecticant_bound: int
    lower: int
    lower_kind: str
    upper: int
    witness: WaringDecomposition | None
    generic_rank: int
    avoidance: AvoidanceCertificate | None = None
    notes: tuple[str, ...] = field(default=())

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


def _transported_slicer(form: Polynomial, to_split: LinearChange) -> Polynomial:
    """The linear operator playing the role of d3 (d2 when n = 2) for a form
    equal to the split normal form in the coordinates given by to_split."""
    col = 3 if form.nvars >= 4 else 2
    return LinearForm(row[col] for row in to_split.matrix).to_polynomial()


def rank_report(rc: ReducibleCubic) -> RankReport:
    """Best certified rank bracket for a product of a hyperplane and a quadric,
    with an explicit verified power sum whenever a constructor applies."""
    form = rc.form()
    nv = rc.nvars
    cat = catalecticant_lower_bound(form)
    ess = essential_variables(form)
    gen = generic_rank(nv - 1, 3)
    notes: list[str] = []

    if nv >= 3:
        ctype = classify(rc)
    else:
        ctype = None
        notes.append("binary ambient; ranks are exact by the two-generator rule")

    if ctype is not None and ctype.kind in (CubicKind.TYPE_A, CubicKind.TYPE_B,
                                            CubicKind.TYPE_C):
        n = nv - 1
        lo, hi = classified_rank_bounds(ctype, n)
        witness = None
        avoidance = None
        if ctype.kind is CubicKind.TYPE_C:
            notes.append("tangent class: the bracket is [2n, 2n+1]; the top end "
                         "is expected to be the true value but is not certified")
            try:
                to_pinch = normalize_tangent_product(rc)
                witness = decompose_type_c(rc, change=to_pinch)
                avoidance = avoidance_lower_bound(
                    form, _transported_slicer(form, to_pinch.compose(split_change(n))))
                if avoidance.hilbert.values != (1, n, n, 0):
                    raise RuntimeError("internal: transported slice Hilbert "
                                       "function is off")
                notes.append(f"conditional bound {avoidance.total_bound} attached; "
                             "it applies to decompositions avoiding the recorded "
                             "hyperplane")
            except NeedsFieldExtension as exc:
                notes.append(f"no rational normalization found ({exc}); "
                             "upper bound kept from the class table")
        else:
            notes.append("class table gives the exact rank 2n; no constructor "
                         "is attached to this class here")
        if witness is not None:
            hi = min(hi, len(witness))
        kind = "catalecticant" if cat > lo else "table"
        return RankReport(form, ctype, ess, cat, max(cat, lo), kind, hi, witness,
                          gen, avoidance, tuple(notes))

    # cones, repeated-factor products, and binary input: compress and settle
    change, e = _compression_change(form)
    compressed = _reindex(substitute(form, change), e)
    if ctype is not None:
        notes.append(f"compressed from {nv} to {e} essential variables")
    if e == 1:
        coef = next(iter(compressed.terms.values()))
        dec = _lift(form, [(coef, LinearForm([1]))], change, "rank-one")
        return RankReport(form, ctype, ess, cat, 1, "catalecticant", 1, dec,
                          gen, None, tuple(notes))
    if e == 2:
        bd = decompose_binary(compressed)
        witness = None
        if bd.decomposition is not None:
            witness = _lift(form, bd.decomposition.terms, change, "binary")
        else:
            notes.append("exact rank from apolar generator degrees; the relevant "
                         "generator does not split rationally, so no explicit "
                         "forms are attached")
        return RankReport(form, ctype, ess, cat, bd.rank, "binary-apolar",
                          bd.rank, witness, gen, None, tuple(notes))

    # e >= 3: the compressed product is an honest reducible cubic again
    sub_rc = _compressed_product(rc, change, e)
    sub = rank_report(sub_rc)
    witness = None
    if sub.witness is not None:
        witness = _lift(form, sub.witness.terms, change, "cone")
    avoidance = None
    if sub.avoidance is not None:
        # re-derive the certificate in the full ambient: pad the compressed
        # slicer and push it through the compression change
        vec = _pad(LinearForm.from_polynomial(sub.avoidance.hyperplane), nv)
        lifted_slicer = LinearForm(mat_vec(change.matrix, vec)).to_polynomial()
        avoidance = avoidance_lower_bound(form, lifted_slicer)
        if avoidance.hilbert.values != sub.avoidance.hilbert.values:
            raise RuntimeError("internal: lifted avoidance certificate is off")
    notes.extend(sub.notes)
    return RankReport(form, ctype, ess, cat, max(cat, sub.lower), sub.lower_kind,
                      sub.upper, witness, gen, avoidance, tuple(notes))


def _pad(linear: LinearForm, nvars: int) -> tuple[Fraction, ...]:
    """Coefficients of a form in the leading coordinates of a larger ambient."""
    return linear.coeffs + (Fraction(0),) * (nvars - linear.nvars)


def _lift(form: Polynomial, terms, change: LinearChange,
          what: str) -> WaringDecomposition:
    """Carry a witness of the compressed form back to the full ambient
    through the compression change, and verify it against the form."""
    lifted = WaringDecomposition.assemble(
        3, form.nvars, [(c, LinearForm(_pad(f, form.nvars))) for c, f in terms])
    witness = lifted.compose(change.inverse())
    ok, _ = verify_decomposition(form, witness)
    if not ok:
        raise RuntimeError(f"internal: lifted {what} witness failed verification")
    return witness


def _compression_change(form: Polynomial) -> tuple[LinearChange, int]:
    """Invertible change whose trailing variables are killed by the form:
    substitute(form, change) uses only the first e = essential coordinates."""
    nv = form.nvars
    kernel_cols = catalecticant(form, 1).kernel()
    e = nv - len(kernel_cols)
    if not kernel_cols:
        return LinearChange.identity(nv), e
    span = RowSpan(nv)
    for v in kernel_cols:
        span.insert(v)
    pivot_set = set(span.pivot_columns())
    cols = [[Fraction(int(i == r)) for i in range(nv)]
            for r in range(nv) if r not in pivot_set]
    cols.extend(kernel_cols)
    return LinearChange([[cols[j][i] for j in range(nv)] for i in range(nv)]), e


def _reindex(p: Polynomial, e: int) -> Polynomial:
    terms = {}
    for exps, c in p.terms.items():
        if any(exps[e:]):
            raise RuntimeError("internal: compression left a trailing variable")
        terms[exps[:e]] = c
    return Polynomial(e, terms)


def _compressed_product(rc: ReducibleCubic, change: LinearChange,
                        e: int) -> ReducibleCubic:
    lin = substitute(rc.linear.to_polynomial(), change)
    quad = substitute(rc.quadric, change)
    return ReducibleCubic(LinearForm.from_polynomial(_reindex(lin, e)),
                          _reindex(quad, e))
