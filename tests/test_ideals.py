import random
from fractions import Fraction

import pytest

from apolarity import ideals
from apolarity.apolar import apolar_ideal
from apolarity.ideals import (HilbertFunction, HomogeneousIdeal, graded_basis,
                              hilbert_function, ideal_colon, ideal_contains,
                              ideal_equal, ideal_sum, is_nonzerodivisor,
                              ring_dimension)
from apolarity.poly import AmbientMismatchError, Polynomial, monomials, parse
from oracles import dim_forms


def _ideal(texts, bound=None, nvars=None):
    if nvars is None:
        nvars = max(parse(t).nvars for t in texts)
    return HomogeneousIdeal([parse(t, nvars=nvars) for t in texts],
                            truncation_bound=bound)


def test_ring_dimension():
    for nv in range(1, 5):
        for d in range(0, 5):
            assert ring_dimension(nv, d) == dim_forms(nv, d)
    assert ring_dimension(3, -1) == 0


def test_constructor_validation():
    with pytest.raises(ValueError):
        _ideal(["d0^2 + d1"])          # inhomogeneous
    with pytest.raises(AmbientMismatchError):
        HomogeneousIdeal([parse("d0", nvars=2), parse("d2", nvars=3)])
    with pytest.raises(ValueError):
        _ideal(["d0"], bound=0)
    with pytest.raises(ValueError):
        HomogeneousIdeal([])           # ambient unknown
    ideal = HomogeneousIdeal([Polynomial.zero(3)], nvars=3)
    assert ideal.generators == ()


def test_hilbert_function_fixture():
    ideal = _ideal(["d0^2", "d1^2", "d2^2"], bound=4)
    assert hilbert_function(ideal).values == (1, 3, 3, 1)
    unbounded = _ideal(["d0^2", "d1^2", "d2^2"])
    with pytest.raises(ValueError):
        hilbert_function(unbounded)


def test_hilbert_container():
    hf = HilbertFunction((1, 2, 2, 0))
    assert hf.total() == 5
    assert str(hf) == "(1, 2, 2, 0)"
    assert hf.delta() == (1, 1, 0, -2)


def test_graded_basis_dimensions():
    ideal = apolar_ideal(parse("x0^2*x2 + x0*x1^2"))
    assert len(graded_basis(ideal, 1)) == 0
    assert len(graded_basis(ideal, 2)) == 3
    assert len(graded_basis(ideal, 3)) == 9
    # at the truncation bound the whole degree is present
    assert len(graded_basis(ideal, 4)) == ring_dimension(3, 4)


def test_ideal_sum_hilbert():
    """Slicing the worked plane cubic by d2 gives (1, 2, 2, 0), total 5."""
    ideal = apolar_ideal(parse("x0^2*x2 + x0*x1^2"))
    total = ideal_sum(ideal, _ideal(["d2"], nvars=3))
    hf = hilbert_function(total)
    assert hf.values == (1, 2, 2, 0)
    assert hf.total() == 5
    assert total.truncation_bound == 4


def test_ideal_colon_fixture():
    ideal = _ideal(["d0^2", "d1^2", "d2^2"], bound=4)
    colon = ideal_colon(ideal, parse("d0", nvars=3))
    assert ideal_equal(colon, _ideal(["d0", "d1^2", "d2^2"], bound=4))
    assert hilbert_function(colon).values == (1, 2, 1, 0)


def test_ideal_colon_unit_rejected():
    ideal = _ideal(["d0"], bound=3, nvars=2)
    with pytest.raises(ValueError):
        ideal_colon(ideal, parse("d0", nvars=2))
    with pytest.raises(ValueError):
        ideal_colon(ideal, parse("d0^3", nvars=2))   # beyond the bound
    with pytest.raises(ValueError):
        ideal_colon(ideal, Polynomial.zero(2))


def test_ideal_colon_membership_property():
    """g * (I : g) lands in I, checked degree by degree below the bound."""
    rng = random.Random(41)
    for _ in range(6):
        form_terms = {}
        from apolarity.poly import monomials
        for mono in monomials(3, 3):
            if rng.random() < 0.5:
                form_terms[mono] = Fraction(rng.randint(-3, 3))
        if not form_terms:
            continue
        form = Polynomial(3, form_terms)
        if form.is_zero():
            continue
        ideal = apolar_ideal(form)
        g = parse("d0 + d1", nvars=3)
        try:
            colon = ideal_colon(ideal, g)
        except ValueError:
            continue
        for c in colon.generators:
            prod = g * c
            if prod.homogeneous_degree() < ideal.truncation_bound:
                assert ideal_contains(ideal, prod)


def test_colon_generators_are_monic_canonical_rows():
    """Every generator of (I : g) is a row of the canonical (RREF) basis of
    its component, the preimage of I under g, monic in its first monomial.
    In degree 2 of the fixture, T_1*(d0 - d2) has a row leading at d0^2, so
    the RREF row d0^2 is kept as it is, not as its residual d2^2."""
    fixture = ideal_colon(apolar_ideal(parse("x0^2*x1 + x0*x1*x2")), parse("d0 - d2"))
    assert [g.to_string("d") for g in fixture.generators] == ["d0 - d2", "d0^2", "d1^2"]
    rng = random.Random(29)
    forms = [parse("x0^2*x2 + x0*x1^2"), parse("x0^2*x1 + x0*x1*x2")] + [
        Polynomial(3, {m: Fraction(rng.randint(-3, 3)) for m in monomials(3, 3)})
        for _ in range(6)]
    divisors = [parse(t, nvars=3) for t in ("d0", "d0 - d2", "d0 + d1", "d1^2 - d0*d2")]
    degrees = set()
    for form in forms:
        ideal = apolar_ideal(form)
        for g in divisors:
            try:
                colon = ideal_colon(ideal, g)
            except ValueError:
                continue
            top = ideal.truncation_bound - g.homogeneous_degree()
            spans = ideals._colon_spans(ideal, g, top)
            for gen in colon.generators:
                i = gen.homogeneous_degree()
                assert gen in [ideals._monic(3, i, row) for row in spans[i].canonical_rows()]
            degrees.add(frozenset(gen.homogeneous_degree() for gen in colon.generators))
    assert any(len(ds) > 1 for ds in degrees)


def test_ideal_equal():
    worked = apolar_ideal(parse("x0^2*x2 + x0*x1^2"))
    six = _ideal(["d0*d2 - d1^2", "d1*d2", "d2^2", "d0^3", "d0^2*d1", "d1^3"],
                 bound=4)
    five = _ideal(["d0*d2 - d1^2", "d1*d2", "d2^2", "d0^3", "d0^2*d1"],
                  bound=4)
    assert ideal_equal(worked, six)
    assert ideal_equal(six, five)
    # scaled and reordered generators do not matter
    rescaled = _ideal(["2*d2^2", "3*d1*d2", "d1^2 - d0*d2", "d0^3 + d0^2*d1",
                       "d0^2*d1", "d1^3"], bound=4)
    assert ideal_equal(six, rescaled)
    fermat = apolar_ideal(parse("x0^3 + x1^3 + x2^3"))
    assert not ideal_equal(worked, fermat)


def test_ideal_contains():
    ideal = apolar_ideal(parse("x0^2*x2 + x0*x1^2"))
    assert ideal_contains(ideal, parse("d1^3", nvars=3))
    assert not ideal_contains(ideal, parse("d0^2", nvars=3))
    assert not ideal_contains(ideal, parse("d0*d2", nvars=3))
    assert ideal_contains(ideal, Polynomial.zero(3))


def test_nonzerodivisor_on_point_ideal():
    """Two plane points (1:0:0), (0:1:0): operators vanishing at neither
    point are the nonzerodivisors."""
    points = _ideal(["d2", "d0*d1"], nvars=3)
    nzd = parse("d0 + d1", nvars=3)
    zd = parse("d0", nvars=3)
    assert is_nonzerodivisor(points, nzd, through_degree=3)
    assert not is_nonzerodivisor(points, zd, through_degree=3)
    with pytest.raises(ValueError):
        is_nonzerodivisor(points, nzd)   # unbounded ideal needs a window


def test_nonzerodivisor_on_artinian_quotient():
    # with the one-dimensional socle in degree 3, every linear operator is a
    # zero divisor: the default window stops just below the truncation
    ideal = apolar_ideal(parse("x0^2*x2 + x0*x1^2"))
    for t in ["d0", "d1", "d2", "d0 + d1"]:
        assert not is_nonzerodivisor(ideal, parse(t, nvars=3))


def test_ideal_sum_bound_rules():
    a = _ideal(["d0"], bound=3, nvars=2)
    b = _ideal(["d1"], nvars=2)
    assert ideal_sum(a, b).truncation_bound == 3
    assert ideal_sum(b, b).truncation_bound is None
    assert ideal_sum(a, _ideal(["d1"], bound=2, nvars=2)).truncation_bound == 2
    with pytest.raises(AmbientMismatchError):
        ideal_sum(a, _ideal(["d2"], nvars=3))
