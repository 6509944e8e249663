import random
from collections import Counter
from fractions import Fraction

import pytest

from apolarity import apolar, certificates
from apolarity.apolar import apolar_apply, apolar_ideal, catalecticant
from apolarity.certificates import (_compressed_product, _compression_change,
                                    avoidance_lower_bound,
                                    catalecticant_lower_bound,
                                    classified_rank_bounds, colon_refinement,
                                    generic_rank, rank_report,
                                    tangent_plane_certificate)
from apolarity.cubics import (CubicKind, CubicType, LinearForm, ReducibleCubic,
                              decompose_binary, decompose_type_c_normal,
                              normal_form, normal_form_pair,
                              verify_decomposition)
from apolarity.ideals import HomogeneousIdeal, hilbert_function, ideal_sum
from apolarity.poly import (AmbientMismatchError, LinearChange, Polynomial,
                            monomials, parse, substitute)


def _product(linear, quadric, nvars=None):
    if nvars is None:
        nvars = max(parse(linear).nvars, parse(quadric).nvars)
    return ReducibleCubic(LinearForm.from_polynomial(parse(linear, nvars=nvars)),
                          parse(quadric, nvars=nvars))


def test_generic_rank_exceptional_pairs():
    assert generic_rank(4, 3) == 8
    assert generic_rank(2, 4) == 6
    assert generic_rank(3, 4) == 10
    assert generic_rank(4, 4) == 15


def test_generic_rank_quadrics_and_formula():
    for n in range(1, 11):
        assert generic_rank(n, 2) == n + 1
    # closed count formula away from the exceptions
    assert generic_rank(1, 3) == 2
    assert generic_rank(1, 5) == 3
    assert generic_rank(2, 3) == 4
    assert generic_rank(3, 3) == 5
    assert generic_rank(2, 5) == 7
    assert generic_rank(5, 3) == ((8 * 7 * 6) // 6 + 5) // 6  # ceil(56/6) = 10
    with pytest.raises(ValueError):
        generic_rank(0, 3)
    with pytest.raises(ValueError):
        generic_rank(2, 0)


def test_classified_rank_bounds_table():
    a = CubicType(CubicKind.TYPE_A)
    b = CubicType(CubicKind.TYPE_B)
    c = CubicType(CubicKind.TYPE_C)
    for n in (2, 3, 7):
        assert classified_rank_bounds(a, n) == (2 * n, 2 * n)
        assert classified_rank_bounds(b, n) == (2 * n, 2 * n)
        assert classified_rank_bounds(c, n) == (2 * n, 2 * n + 1)
    assert classified_rank_bounds(CubicType(CubicKind.CONE, essential=3), 5) == (1, 5)
    with pytest.raises(ValueError):
        classified_rank_bounds(CubicType(CubicKind.CONE), 5)
    with pytest.raises(ValueError):
        classified_rank_bounds(CubicType(CubicKind.DEGENERATE_PRODUCT, 2), 5)


def test_catalecticant_lower_bound():
    assert catalecticant_lower_bound(parse("x0*x1*x2")) == 3
    assert catalecticant_lower_bound(parse("x0^3", nvars=3)) == 1
    assert catalecticant_lower_bound(parse("x0^2*x2 + x0*x1^2")) == 3
    # pinch forms have middle Hilbert value n + 1
    for n in (3, 4, 5):
        assert catalecticant_lower_bound(normal_form(n)) == n + 1


def test_avoidance_lower_bound_worked_cubic():
    F = parse("x0^2*x2 + x0*x1^2")
    cert = avoidance_lower_bound(F, parse("x2", nvars=3))
    assert cert.hilbert.values == (1, 2, 2, 0)
    assert cert.bound == 5
    assert cert.total_bound == 5
    assert cert.summary() == "rank >= 5 (sum HF = 5)"
    assert "checked" in cert.condition


def test_avoidance_collapses_on_a_cube():
    cert = avoidance_lower_bound(parse("x0^3", nvars=3), parse("x0", nvars=3))
    assert cert.hilbert.values[0] == 1
    assert cert.bound == 1


def test_avoidance_rejects_annihilating_hyperplane():
    with pytest.raises(ValueError):
        avoidance_lower_bound(parse("x0^3", nvars=3), parse("x2", nvars=3))
    with pytest.raises(ValueError):
        avoidance_lower_bound(parse("x0^3", nvars=3), parse("x0^2", nvars=3))
    with pytest.raises(AmbientMismatchError):
        avoidance_lower_bound(parse("x0^3", nvars=2), parse("x2", nvars=3))


def test_colon_refinement_worked_cubic():
    F = parse("x0^2*x2 + x0*x1^2")
    cert = colon_refinement(F, parse("x2", nvars=3), parse("x1", nvars=3),
                            removed_points=1)
    assert cert.hilbert.values == (1, 2, 1, 0)
    assert cert.bound == 4
    assert cert.total_bound == 5
    assert cert.removed_points == 1
    assert "removed points = 1" in cert.summary()
    # without the credit the bound stays at the sliced sum
    plain = colon_refinement(F, parse("x2", nvars=3), parse("x1", nvars=3))
    assert plain.total_bound == 4


def test_tangent_plane_certificate_passes():
    cert = tangent_plane_certificate()
    assert cert.verified
    assert len(cert.claims) == 7
    assert [c.label for c in cert.claims] == [
        "generators", "slice", "quadrics", "pencil", "conics", "colon", "pairing"]
    assert cert.bound == 5
    assert cert.statement == "rank >= 5"
    assert cert.failed_labels() == []


def test_tangent_plane_certificate_catches_mutations():
    fermat = tangent_plane_certificate(parse("x0^3 + x1^3 + x2^3"))
    assert not fermat.verified
    assert fermat.bound is None
    assert "inconclusive" in fermat.statement
    assert "generators" in fermat.failed_labels()

    cone = tangent_plane_certificate(parse("x0^3", nvars=3))
    assert not cone.verified
    # d2 annihilates x0^3, so the pairing step must fail too
    assert "pairing" in cone.failed_labels()

    perturbed = tangent_plane_certificate(parse("x0^2*x2 + x0*x1^2 + x1^3"))
    assert not perturbed.verified


def test_tangent_plane_certificate_input_shape():
    with pytest.raises(ValueError):
        tangent_plane_certificate(parse("x0^3 + x1^3"))
    with pytest.raises(ValueError):
        tangent_plane_certificate(parse("x0^2 + x1^2 + x2^2"))


def test_rank_report_tangent_class():
    report = rank_report(normal_form_pair(3))
    assert report.classification.kind is CubicKind.TYPE_C
    assert (report.lower, report.upper) == (6, 7)
    assert report.lower_kind == "table"
    assert not report.exact
    assert report.catalecticant_bound == 4
    assert report.generic_rank == 5
    assert len(report.witness) == 7
    ok, _ = verify_decomposition(report.form, report.witness)
    assert ok
    # the conditional certificate travels with the report but never feeds lower
    assert report.avoidance is not None
    assert report.avoidance.hilbert.values == (1, 3, 3, 0)
    assert report.avoidance.total_bound == 7 > report.lower


def test_rank_report_exact_classes():
    a = rank_report(_product("x0", "x0^2 + x1^2 + x2^2 + x3^2"))
    assert a.classification.kind is CubicKind.TYPE_A
    assert (a.lower, a.upper) == (6, 6) and a.exact
    assert a.lower_kind == "table"
    assert a.witness is None and a.avoidance is None

    b = rank_report(_product("x0", "x1*x2", 3))
    assert b.classification.kind is CubicKind.TYPE_B
    assert (b.lower, b.upper) == (4, 4) and b.exact
    assert b.generic_rank == 4


def test_rank_report_tangent_without_rational_witness():
    # the residual block x2^2 + 2*x3^2 is definite, hence not similar to the
    # hyperbolic pinch block x2*x3 over Q
    report = rank_report(_product("x0", "x0*x1 + x2^2 + 2*x3^2"))
    assert report.classification.kind is CubicKind.TYPE_C
    assert (report.lower, report.upper) == (6, 7)
    assert report.witness is None and report.avoidance is None
    assert any("no rational normalization" in note for note in report.notes)


def test_rank_report_cone_compresses():
    report = rank_report(_product("x0", "x0*x1 + x2^2", 5))
    assert report.classification.kind is CubicKind.CONE
    assert report.classification.essential == 3
    assert report.essential == 3
    assert (report.lower, report.upper) == (4, 5)
    assert report.witness is not None and len(report.witness) == 5
    # the lifted witness lives in the five-variable ambient and checks out
    assert report.witness.nvars == 5
    ok, _ = verify_decomposition(report.form, report.witness)
    assert ok
    assert report.generic_rank == 8
    # the conditional certificate is re-derived in the big ambient
    assert report.avoidance is not None
    assert report.avoidance.hyperplane.nvars == 5
    assert report.avoidance.hilbert.values == (1, 2, 2, 0)
    assert report.avoidance.total_bound == 5


def test_rank_report_repeated_factor():
    report = rank_report(_product("x0", "x0*x1", 3))
    assert report.classification.kind is CubicKind.DEGENERATE_PRODUCT
    assert (report.lower, report.upper) == (3, 3) and report.exact
    assert report.lower_kind == "binary-apolar"
    assert report.witness is None
    assert any("does not split rationally" in note for note in report.notes)


def test_rank_report_binary_compression_with_witness():
    # (x0 + x1)(x0^2 - x0x1 + x1^2) = x0^3 + x1^3 sitting inside four variables
    report = rank_report(_product("x0 + x1", "x0^2 - x0*x1 + x1^2", 4))
    assert report.classification.kind is CubicKind.CONE
    assert report.classification.essential == 2
    assert (report.lower, report.upper) == (2, 2)
    assert report.witness is not None and report.witness.nvars == 4
    ok, _ = verify_decomposition(report.form, report.witness)
    assert ok


def test_rank_report_squarefree_irrational_generator():
    # x0(x0 - x1)(x0 + x1): three distinct factors, so the quadratic apolar
    # generator is squarefree and the rank is 2, but its roots are not
    # rational and no explicit power sum is attached
    report = rank_report(_product("x0", "x0^2 - x1^2", 3))
    assert (report.lower, report.upper) == (2, 2)
    assert report.witness is None
    assert any("does not split rationally" in note for note in report.notes)


def test_rank_report_rank_one():
    report = rank_report(_product("x0 + x1", "x0^2 + 2*x0*x1 + x1^2", 3))
    assert (report.lower, report.upper) == (1, 1)
    assert len(report.witness) == 1
    ok, _ = verify_decomposition(report.form, report.witness)
    assert ok


def test_rank_report_binary_ambient():
    report = rank_report(_product("x0", "x0*x1", 2))
    assert report.classification is None
    assert (report.lower, report.upper) == (3, 3)
    assert any("binary ambient" in note for note in report.notes)

    split = rank_report(_product("x0 + x1", "x0^2 - x0*x1 + x1^2", 2))
    assert split.form == parse("x0^3 + x1^3")
    assert (split.lower, split.upper) == (2, 2)
    assert split.lower_kind == "binary-apolar"
    assert split.generic_rank == 2
    assert split.witness is not None
    ok, _ = verify_decomposition(split.form, split.witness)
    assert ok


# -- invariants exercised across random inputs --------------------------------


def test_catalecticant_never_exceeds_witness_size():
    for n in range(2, 7):
        dec = decompose_type_c_normal(n)
        assert catalecticant_lower_bound(normal_form(n)) <= len(dec)
    rng = random.Random(61)
    checked = 0
    while checked < 30:
        d = rng.randint(2, 6)
        terms = {m: Fraction(rng.randint(-3, 3)) for m in monomials(2, d)
                 if rng.random() < 0.7}
        terms = {m: c for m, c in terms.items() if c}
        if not terms:
            continue
        F = Polynomial(2, terms)
        result = decompose_binary(F)
        if result.decomposition is None:
            continue
        assert catalecticant_lower_bound(F) <= len(result.decomposition)
        checked += 1


def test_avoidance_monotone_under_ideal_containment():
    """Shrinking the ideal can only grow the sliced Hilbert function."""
    rng = random.Random(62)
    checked = 0
    while checked < 15:
        nv = rng.randint(3, 4)
        terms = {m: Fraction(rng.randint(-3, 3)) for m in monomials(nv, 3)
                 if rng.random() < 0.5}
        terms = {m: c for m, c in terms.items() if c}
        if not terms:
            continue
        F = Polynomial(nv, terms)
        slicer = next((Polynomial.variable(nv, i) for i in range(nv)
                       if not apolar_apply(Polynomial.variable(nv, i), F).is_zero()),
                      None)
        assert slicer is not None
        full = apolar_ideal(F)
        kept = [g for g in full.generators if rng.random() < 0.6]
        if not kept:
            kept = [full.generators[0]]
        sub = HomogeneousIdeal(kept, truncation_bound=full.truncation_bound)
        hf_full = hilbert_function(ideal_sum(full, HomogeneousIdeal([slicer])))
        hf_sub = hilbert_function(ideal_sum(sub, HomogeneousIdeal([slicer])))
        assert all(a >= b for a, b in zip(hf_sub.values, hf_full.values))
        checked += 1


def test_avoidance_meets_construction_on_normal_forms():
    """For the tangent normal forms the conditional bound and the witness
    length agree exactly, for every n up to 8."""
    for n in range(2, 9):
        report = rank_report(normal_form_pair(n))
        assert report.avoidance is not None
        assert report.avoidance.total_bound == 2 * n + 1
        assert len(report.witness) == 2 * n + 1
        assert len(decompose_type_c_normal(n)) <= 2 * n + 1


def test_rank_report_bracket_ordered_on_random_products():
    rng = random.Random(63)
    checked = 0
    while checked < 40:
        nv = rng.randint(2, 4)
        lin = [Fraction(rng.randint(-2, 2)) for _ in range(nv)]
        if not any(lin):
            continue
        qterms = {m: Fraction(rng.randint(-2, 2)) for m in monomials(nv, 2)
                  if rng.random() < 0.6}
        qterms = {m: c for m, c in qterms.items() if c}
        if not qterms:
            continue
        rc = ReducibleCubic(LinearForm(lin), Polynomial(nv, qterms))
        report = rank_report(rc)
        assert report.lower <= report.upper
        assert report.catalecticant_bound <= report.upper
        if report.witness is not None:
            ok, _ = verify_decomposition(report.form, report.witness)
            assert ok
            assert report.catalecticant_bound <= len(report.witness)
        checked += 1


# -- compression of cones, repeated factors and binary input -------------------

def _dense_change(rng, nvars):
    while True:
        try:
            return LinearChange([[rng.randint(-2, 2) for _ in range(nvars)]
                                 for _ in range(nvars)])
        except ValueError:
            continue


def _pushed(rng, rc, nvars):
    """rc, written in the leading coordinates of nvars variables, after a
    dense change of all of them."""
    change = _dense_change(rng, nvars)
    lin = parse(rc.linear.to_string(), nvars=nvars)
    quad = parse(rc.quadric.to_string(), nvars=nvars)
    return ReducibleCubic.from_polynomials(substitute(lin, change),
                                           substitute(quad, change))


def _class_representative(kind, e):
    """A product of the given class that uses all e of its variables."""
    squares = " + ".join(f"x{i}^2" for i in range(1, e))
    if kind is CubicKind.TYPE_A:
        return _product("x0", f"x0^2 + {squares}", e)
    if kind is CubicKind.TYPE_B:
        return _product("x0", squares, e)
    return normal_form_pair(e - 1)


@pytest.mark.parametrize("kind", [CubicKind.TYPE_A, CubicKind.TYPE_B,
                                  CubicKind.TYPE_C])
@pytest.mark.parametrize("e", [3, 4, 5, 6])
def test_cone_report_agrees_with_its_core(kind, e):
    rng = random.Random(100 * e + len(kind.value))
    for nv in (e + 1, e + 2):
        rc = _pushed(rng, _class_representative(kind, e), nv)
        report = rank_report(rc)
        core = rank_report(_compressed_product(rc, *_compression_change(rc)))
        assert report.classification == CubicType(CubicKind.CONE, e)
        assert core.classification.kind is kind
        assert (report.lower, report.upper, report.lower_kind) == \
            (core.lower, core.upper, core.lower_kind)
        assert report.notes[0] == f"compressed from {nv} to {e} essential variables"
        assert report.notes[1:] == core.notes
        if kind is CubicKind.TYPE_C:
            assert report.avoidance.hilbert.values == core.avoidance.hilbert.values
            assert report.avoidance.total_bound == core.avoidance.total_bound == 2 * e - 1
            assert not apolar_apply(report.avoidance.hyperplane,
                                    report.form).is_zero()
            assert len(report.witness) == len(core.witness) == 2 * e - 1
            ok, _ = verify_decomposition(report.form, report.witness)
            assert ok and report.witness.nvars == nv
        else:
            assert report.avoidance is core.avoidance is None
            assert report.witness is core.witness is None


def _compression_inputs():
    rng = random.Random(4242)
    inputs = []
    for kind in (CubicKind.TYPE_A, CubicKind.TYPE_B, CubicKind.TYPE_C):
        for e in (3, 4):
            inputs.append(_pushed(rng, _class_representative(kind, e), e + 2))
    for _ in range(6):
        # binary products, some with a repeated factor
        lin = [rng.randint(-3, 3) or 1, rng.randint(-3, 3)]
        quad = {m: Fraction(rng.randint(-3, 3)) for m in monomials(2, 2)}
        quad = {m: c for m, c in quad.items() if c} or {(2, 0): Fraction(1)}
        inputs.append(ReducibleCubic(LinearForm(lin), Polynomial(2, quad)))
    inputs.append(_product("x0", "x1^2", 2))
    for nv in (3, 4, 5):
        # Q = L*L', with l' proportional to l and not
        lin = LinearForm([rng.randint(-2, 2) or 1 for _ in range(nv)])
        other = LinearForm([rng.randint(-2, 2) for _ in range(nv - 1)] + [1])
        for second in (other, LinearForm([-2 * c for c in lin.coeffs])):
            inputs.append(ReducibleCubic(
                lin, lin.to_polynomial() * second.to_polynomial()))
    return inputs


def test_compression_kernel_is_the_catalecticant_kernel():
    for rc in _compression_inputs():
        change, e = _compression_change(rc)
        kernel = catalecticant(rc.form(), 1).kernel()
        assert e == rc.nvars - len(kernel)
        assert [{i: v for i, v in enumerate(col) if v}
                for col in zip(*change.matrix)][e:] == kernel


def test_cone_report_runs_once(monkeypatch):
    # the golden input analyze-cone-dense: a dense TypeC cone, n = 3 at its core
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(certificates, "rank_report")
    counted(certificates, "avoidance_lower_bound")
    counted(apolar, "catalecticant")
    report = certificates.rank_report(
        _product("x0 + x4", "(x0 + x4)*(x1 + 2*x4) + x2*x3"))
    assert report.avoidance.hilbert.values == (1, 3, 3, 0)
    assert calls["rank_report"] == calls["avoidance_lower_bound"] == 1
    assert calls["catalecticant"] <= 4
