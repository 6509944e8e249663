"""Rank bounds and machine-checkable lower-bound certificates.

Lower bounds come from two sources: catalecticant ranks, and the length of
the scheme cut out by the apolar ideal on a hyperplane that the annihilated
points avoid.  The latter is packaged as AvoidanceCertificate so every
number quoted in a bound is recomputable; its Hilbert functions are
apolar.quotient_hilbert's catalecticant ranks.  A report on a product in
three or more variables reads the form's own Hilbert function (1, e, e, 1)
off classify's reduction instead (rank_report).  Upper bounds come from the
class table for reducible cubics and, when a constructor applies, from an
explicit verified power sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .apolar import (_check_catalecticant_budget, apolar_apply, apolar_hilbert,
                     apolar_ideal, quotient_hilbert)
from .cubics import (CubicKind, CubicType, LinearChange, NeedsFieldExtension,
                     NormalizationUndecided, ReducibleCubic, WaringDecomposition,
                     _lift, _quadric_ints, classify, decompose_binary,
                     decompose_type_c_normal, normalize_tangent_product)
from .ideals import (HilbertFunction, HomogeneousIdeal, graded_basis,
                     hilbert_function, ideal_colon, ideal_equal, ideal_sum)
from .linalg import RowSpan, kernel_basis
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
    return -(-comb(n + degree, degree) // (n + 1))


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


def avoidance_lower_bound(form: Polynomial, hyperplane: Polynomial,
                          form_hilbert: HilbertFunction | None = None
                          ) -> AvoidanceCertificate:
    """Length certificate from the hyperplane section of the apolar scheme.

    Requires the linear operator l not to annihilate the form; each summand
    of the Hilbert function of T/(F_perp + <l>) then counts toward any
    apolar point set that avoids the hyperplane.  That Hilbert function is
    quotient_hilbert's, HF_F(i) - HF_{l o F}(i - 1), and it equals HF_F
    exactly when l o F = 0.  form_hilbert, when given, must equal
    apolar_hilbert(form); callers that have it, such as rank_report with
    the values it reads off the class, save computing it.
    """
    _check_dual_linear(form, hyperplane)
    form_hilbert = form_hilbert or apolar_hilbert(form)
    hf = quotient_hilbert(form, [hyperplane], form_hilbert=form_hilbert)
    if hf == form_hilbert:
        raise ValueError("the hyperplane operator annihilates the form; "
                         "the avoidance bound does not apply")
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
    caller has certified how many there are (rank >= sum HF + removed).

    The slice is quotient_hilbert's HF of T/((F_perp : g) + <l>): with
    (F_perp : g) = (g o F)_perp, that of g o F, as deg F + 1 values.
    A negative removed_points raises ValueError.
    """
    if removed_points is not None and removed_points < 0:
        raise ValueError(f"the number of removed points must be >= 0, "
                         f"got {removed_points}")
    _check_dual_linear(form, hyperplane)
    if apolar_apply(hyperplane, form).is_zero():
        raise ValueError("the hyperplane operator annihilates the form; "
                         "the avoidance bound does not apply")
    hf = quotient_hilbert(form, [hyperplane], divisor)
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

    hf_slice = quotient_hilbert(form, [d2], form_hilbert=hilbert_function(ideal))
    holds = hf_slice.values == (1, 2, 2, 0)
    claims.append(CertificateClaim(
        "slice",
        "slicing the apolar ideal with d2 gives Hilbert function (1, 2, 2, 0)",
        holds, detail=f"computed {hf_slice}"))

    holds = graded_basis(ideal, 2) == graded_basis(HomogeneousIdeal(quadrics), 2)
    claims.append(CertificateClaim(
        "quadrics",
        "the degree-2 part of the apolar ideal is spanned by the three quadrics",
        holds))

    # F_perp = {D : D o F = 0}, so membership asks the form
    holds = all(apolar_apply(op, form).is_zero() for op in (d2 * d2, d1 * d2))
    claims.append(CertificateClaim(
        "pencil",
        "the pencil <d2^2, d1*d2> lies in the ideal and has fixed line d2 = 0",
        holds))

    conic = d0 * d2 - d1 * d1
    restricted = Polynomial(3, {e: c for e, c in conic.terms.items() if e[2] == 0})
    holds = apolar_apply(conic, form).is_zero() and restricted == -(d1 * d1)
    claims.append(CertificateClaim(
        "conics",
        "the residual conics restrict to -d1^2 on the line, meeting it only "
        "at (1:0:0)",
        holds, detail=f"restriction {restricted.to_string('d')}"))

    colon_expected = HomogeneousIdeal([d2, d0 * d0, d1 * d1], truncation_bound=4)
    hf_refined = None
    try:
        hf_refined = quotient_hilbert(form, [d2], d1)
        refined = ideal_sum(ideal_colon(ideal, d1), HomogeneousIdeal([d2]))
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


def rank_report(rc: ReducibleCubic) -> RankReport:
    """Best certified rank bracket for a product of a hyperplane and a quadric,
    with an explicit verified power sum whenever a constructor applies.

    In three or more variables the Hilbert function of the apolar quotient
    is read off the class, and no catalecticant is built: classify's
    reduction has rank e, the number of essential variables, which is
    HF(1) = rank Cat_1; Cat_2 is the transpose of Cat_1 up to nonzero
    scalings of its rows and columns, so HF(2) = e; and HF(0) = HF(3) = 1
    for a nonzero cubic.  So HF = (1, e, e, 1), and the catalecticant bound
    is e.  A binary product keeps apolar_hilbert.  Either way a cubic whose
    catalecticants would pass apolar's budget is refused, as apolar_hilbert
    refuses it: near that size the tangent normalization alone can run for
    minutes.

    Cones, repeated-factor products and binary input are compressed once to
    their essential core.  A core in three or more variables uses them all,
    so it is TypeA, TypeB or TypeC and runs the branch of an uncompressed
    product; its witness and slicer are carried back through the change."""
    form = rc.form()
    nv = rc.nvars
    gen = generic_rank(nv - 1, 3)
    notes: list[str] = []

    if nv >= 3:
        _check_catalecticant_budget(3, nv)
        ctype = classify(rc)
        e = ctype.essential or nv
        hf = HilbertFunction((1, e, e, 1))
    else:
        ctype = None
        hf = apolar_hilbert(form)
        notes.append("binary ambient; ranks are exact by the two-generator rule")
    cat = max(hf.values)
    ess = hf.values[1]

    core, core_form, core_type, change = rc, form, ctype, None
    if ctype is None or ctype.kind in (CubicKind.CONE,
                                       CubicKind.DEGENERATE_PRODUCT):
        change, e = _compression_change(rc)
        core = _compressed_product(rc, change, e)
        core_form = core.form()
        if ctype is not None:
            notes.append(f"compressed from {nv} to {e} essential variables")
        if e == 1:
            dec = WaringDecomposition(3, 1, [(core_form.coefficient((3,)), LinearForm([1]))])
            return RankReport(form, ctype, ess, cat, 1, "catalecticant", 1,
                              _lift(form, dec, change, "rank-one"), gen, None, tuple(notes))
        if e == 2:
            bd = decompose_binary(core_form)
            witness = None
            if bd.decomposition is not None:
                witness = _lift(form, bd.decomposition, change, "binary")
            else:
                notes.append("exact rank from apolar generator degrees; the "
                             "relevant generator does not split rationally, so "
                             "no explicit forms are attached")
            return RankReport(form, ctype, ess, cat, bd.rank, "binary-apolar",
                              bd.rank, witness, gen, None, tuple(notes))
        core_type = classify(core)

    n = core.nvars - 1
    lo, hi = classified_rank_bounds(core_type, n)
    witness = avoidance = None
    if core_type.kind is CubicKind.TYPE_C:
        notes.append("tangent class: the bracket is [2n, 2n+1]; the top end "
                     "is expected to be the true value but is not certified")
        try:
            to_pinch = normalize_tangent_product(core)
            witness = _lift(core_form, decompose_type_c_normal(n), to_pinch, "tangent")
            # the pinch form's slicer d1: a column in the core's coordinates, zero-padded by zip
            slicer, den = [row[1] for row in to_pinch._rows], to_pinch._den
            if change is not None:
                witness = _lift(form, witness, change, "cone")
                slicer = [sum(a * b for a, b in zip(row, slicer)) for row in change._rows]
                den *= change._den
            avoidance = avoidance_lower_bound(
                form, LinearForm._make(slicer, den).to_polynomial(), hf)
            if avoidance.hilbert.values != (1, n, n, 0):
                raise RuntimeError("internal: transported slice Hilbert "
                                   "function is off")
            notes.append(f"conditional bound {avoidance.total_bound} attached; "
                         "it applies to decompositions avoiding the recorded "
                         "hyperplane")
        except NeedsFieldExtension as exc:
            notes.append(f"no rational normalization exists ({exc}); "
                         "upper bound kept from the class table")
        except NormalizationUndecided as exc:
            notes.append(f"{exc}; upper bound kept from the class table")
    else:
        notes.append("class table gives the exact rank 2n; no constructor "
                     "is attached to this class here")
    if witness is not None:
        hi = min(hi, len(witness))
    kind = "catalecticant" if cat > lo else "table"
    return RankReport(form, ctype, ess, cat, max(cat, lo), kind, hi, witness,
                      gen, avoidance, tuple(notes))


def _compression_change(rc: ReducibleCubic) -> tuple[LinearChange, int]:
    """Invertible change whose trailing variables are killed by the product:
    substitute(L*Q, change) uses only the first e = essential coordinates.
    d_v(L*Q) = 0 exactly when l.v = 0 and Mv = 0 (see classify), so the
    trailing columns, the primitive integer kernel vectors of [M; l^T], span
    ker Cat_1, and unit columns off their pivots complete them."""
    nv = rc.nvars
    rows = _quadric_ints(rc.quadric)[0] + [list(rc.linear._ints)]
    kernel_cols = kernel_basis(rows, nv)
    span = RowSpan(nv)
    for v in kernel_cols:
        span.insert(v)
    pivots = set(span.pivot_columns())
    cols = [{r: 1} for r in range(nv) if r not in pivots] + kernel_cols
    return (LinearChange([[col.get(i, 0) for col in cols] for i in range(nv)]),
            nv - len(kernel_cols))


def _compressed_product(rc: ReducibleCubic, change: LinearChange,
                        e: int) -> ReducibleCubic:
    """Both factors after the change, in its first e coordinates: L o change
    is the row l^T * change, and only the quadric is substituted."""
    linear = [sum(a * b for a, b in zip(rc.linear._ints, col)) for col in zip(*change._rows)]
    quadric = substitute(rc.quadric, change)
    if any(linear[e:]) or any(any(exps[e:]) for exps in quadric._ints):
        raise RuntimeError("internal: compression left a trailing variable")
    return ReducibleCubic(
        LinearForm._make(linear[:e], rc.linear._den * change._den),
        Polynomial._make(e, {exps[:e]: v for exps, v in quadric._ints.items()}, quadric._den))
