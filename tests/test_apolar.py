import random
from fractions import Fraction

import pytest

from apolarity.apolar import (apolar_apply, apolar_hilbert, apolar_ideal,
                              catalecticant, essential_variables)
from apolarity.ideals import (HomogeneousIdeal, hilbert_function, ideal_equal,
                              ring_dimension)
from apolarity.poly import AmbientMismatchError, Polynomial, parse
from oracles import apply_operator, bareiss_rank


def _random_form(rng, nvars, degree, density=0.6):
    """Random homogeneous form with small fraction coefficients."""
    from apolarity.poly import monomials
    terms = {}
    for mono in monomials(nvars, degree):
        if rng.random() < density:
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 2))
            if c:
                terms[mono] = c
    if not terms:
        terms[(degree,) + (0,) * (nvars - 1)] = Fraction(1)
    return Polynomial(nvars, terms)


def test_apply_fixtures():
    F = parse("x0^3", nvars=2)
    assert apolar_apply(parse("d0", nvars=2), F) == parse("3*x0^2", nvars=2)
    assert apolar_apply(parse("d0^2", nvars=2), F) == parse("6*x0", nvars=2)
    assert apolar_apply(parse("d0^3", nvars=2), F) == Polynomial.constant(2, 6)
    assert apolar_apply(parse("d1", nvars=2), F).is_zero()
    assert apolar_apply(parse("d0*d1", nvars=2), parse("x0*x1")) \
        == Polynomial.constant(2, 1)
    # operators of degree above the form kill it
    assert apolar_apply(parse("d0^4", nvars=2), F).is_zero()


def test_apply_is_plain_differentiation():
    rng = random.Random(31)
    for _ in range(30):
        nv = rng.randint(1, 3)
        form = _random_form(rng, nv, rng.randint(1, 4))
        op = _random_form(rng, nv, rng.randint(1, 3))
        expected = apply_operator(op.terms, form.terms)
        assert apolar_apply(op, form).terms == expected


def test_apply_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        apolar_apply(parse("d0", nvars=2), parse("x0^2", nvars=3))


def test_catalecticant_fixture():
    F = parse("x0^3 + x1^3")
    cat = catalecticant(F, 1)
    assert cat.col_monomials == ((1, 0), (0, 1))
    assert cat.row_monomials == ((2, 0), (1, 1), (0, 2))
    cols = [[cat.entries[r][c] for r in range(3)] for c in range(2)]
    assert cols[0] == [3, 0, 0]   # d0 F = 3 x0^2
    assert cols[1] == [0, 0, 3]   # d1 F = 3 x1^2
    assert cat.rank() == 2
    assert catalecticant(F, 0).rank() == 1
    assert catalecticant(F, 3).rank() == 1
    with pytest.raises(ValueError):
        catalecticant(F, 4)


def test_catalecticant_rank_symmetry():
    rng = random.Random(32)
    for _ in range(15):
        nv = rng.randint(2, 4)
        d = rng.randint(2, 4)
        form = _random_form(rng, nv, d)
        ranks = [catalecticant(form, i).rank() for i in range(d + 1)]
        assert ranks == ranks[::-1]


def test_apolar_hilbert_against_bareiss():
    """apolar_hilbert ranks only Cat_0..Cat_{d//2} and mirrors the rest;
    every value must still equal the oracle rank of its own catalecticant,
    for dense forms and for short power sums whose ranks stay low."""
    rng = random.Random(41)
    for d in range(2, 7):
        for nv in range(2, 5):
            dense = _random_form(rng, nv, d)
            powers = Polynomial.zero(nv)
            for _ in range(rng.randint(1, 3)):
                ell = Polynomial(nv, {tuple(int(j == k) for j in range(nv)):
                                      Fraction(rng.randint(-3, 3))
                                      for k in range(nv)})
                powers = powers + ell ** d
            for form in (dense, powers):
                if form.is_zero():
                    continue
                oracle = [bareiss_rank(catalecticant(form, i).entries)
                          for i in range(d + 1)]
                assert apolar_hilbert(form).values == tuple(oracle)


def test_essential_variables():
    assert essential_variables(parse("x0^3 + x1^3", nvars=4)) == 2
    assert essential_variables(parse("x0^2*x1 + x0*x2^2")) == 3
    assert essential_variables(parse("(x0 + x1)^3", nvars=3)) == 1


def test_apolar_hilbert_fixtures():
    assert apolar_hilbert(parse("x0^3", nvars=2)).values == (1, 1, 1, 1)
    assert apolar_hilbert(parse("x0*x1*x2")).values == (1, 3, 3, 1)
    assert apolar_hilbert(parse("x0^2*x1 + x0*x2^2")).values == (1, 3, 3, 1)
    # the window runs 0..d and ends at the one-dimensional socle
    assert apolar_hilbert(parse("x0^2", nvars=2)).values == (1, 1, 1)


def test_apolar_ideal_small():
    ideal = apolar_ideal(parse("x0^3", nvars=2))
    assert ideal.truncation_bound == 4
    assert sorted(g.to_string("d") for g in ideal.generators) == ["d0^4", "d1"]

    ideal = apolar_ideal(parse("x0*x1*x2"))
    assert sorted(g.to_string("d") for g in ideal.generators) \
        == ["d0^2", "d1^2", "d2^2"]


def test_apolar_ideal_plane_cubic():
    """The worked plane cubic: six published generators, one redundant."""
    ideal = apolar_ideal(parse("x0^2*x2 + x0*x1^2"))
    published = HomogeneousIdeal(
        [parse(t, nvars=3) for t in
         ["d0*d2 - d1^2", "d1*d2", "d2^2", "d0^3", "d0^2*d1", "d1^3"]],
        truncation_bound=4)
    assert ideal_equal(ideal, published)
    # the minimal list drops d1^3 = d0*(d1*d2) - d1*(d0*d2 - d1^2)
    assert len(ideal.generators) == 5


def test_apolar_ideal_annihilates_and_is_complete():
    rng = random.Random(33)
    for _ in range(10):
        nv = rng.randint(2, 4)
        d = rng.randint(2, 4)
        form = _random_form(rng, nv, d)
        ideal = apolar_ideal(form)
        assert ideal.truncation_bound == d + 1
        for g in ideal.generators:
            assert apolar_apply(g, form).is_zero()
        # degreewise dimensions agree with the catalecticant ranks
        assert hilbert_function(ideal) == apolar_hilbert(form)


def test_apolar_ideal_needs_honest_input():
    with pytest.raises(ValueError):
        apolar_ideal(Polynomial.zero(2))
    with pytest.raises(ValueError):
        apolar_ideal(parse("x0^2 + x1"))


def test_top_degree_generator_appears_only_when_needed():
    # x0^3 in two variables needs d0^4; the worked plane cubic does not
    with_top = apolar_ideal(parse("x0^3", nvars=2))
    assert max(g.homogeneous_degree() for g in with_top.generators) == 4
    without = apolar_ideal(parse("x0^2*x2 + x0*x1^2"))
    assert max(g.homogeneous_degree() for g in without.generators) == 3


def test_ring_dimension_consistency():
    # catalecticant shapes follow the ambient dimension counts
    F = parse("x0^2*x1 + x2^3 + x3^3", nvars=4)
    cat = catalecticant(F, 2)
    assert len(cat.col_monomials) == ring_dimension(4, 2) == 10
    assert len(cat.row_monomials) == ring_dimension(4, 1) == 4
