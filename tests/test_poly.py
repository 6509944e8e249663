import random
from fractions import Fraction

import pytest

from apolarity.poly import (MAX_NESTING, AmbientMismatchError, LinearChange,
                            LinearForm, Polynomial, PolynomialSyntaxError,
                            monomials, parse, substitute)
from oracles import dim_forms, expand_power


def test_parse_round_trip():
    for text in ["x0^2*x2 + x0*x1^2",
                 "x0^3 - 3*x0*x1^2 + 2*x2^3",
                 "1/2*x0^2 - 2/3*x1^2",
                 "x0*x1*x2"]:
        assert parse(text).to_string() == text


def test_parse_accepts_operator_variables():
    p = parse("d0*d2 - d1^2")
    assert p.nvars == 3
    assert p.to_string("d") == "d0*d2 - d1^2"


def test_parse_grouping_and_signs():
    assert parse("(x0 + x1)*(x0 - x1)") == parse("x0^2 - x1^2")
    assert parse("-x0^2 - -x1") == parse("x1 - x0^2")
    assert parse("2*(x0 + 3*(x1 + x2))") == parse("2*x0 + 6*x1 + 6*x2")
    assert parse("(x0 + x1)^3") == parse("x0^3 + 3*x0^2*x1 + 3*x0*x1^2 + x1^3")


def test_parse_reports_error_position():
    with pytest.raises(PolynomialSyntaxError) as err:
        parse("x0 + @")
    assert err.value.position == 5
    with pytest.raises(PolynomialSyntaxError):
        parse("x0 + ")
    with pytest.raises(PolynomialSyntaxError):
        parse("(x0 + x1")
    with pytest.raises(PolynomialSyntaxError):
        parse("x0 x1")
    with pytest.raises(PolynomialSyntaxError):
        parse("1/0*x0")


def test_parse_nesting_bound():
    deepest = "(" * MAX_NESTING + "x0 + 1" + ")" * MAX_NESTING
    assert parse(deepest) == parse("x0 + 1")
    with pytest.raises(PolynomialSyntaxError) as err:
        parse("2*(" + deepest + ")")
    assert err.value.position == 2 + MAX_NESTING  # the innermost "("


def test_parse_rejects_mixed_prefixes():
    with pytest.raises(PolynomialSyntaxError):
        parse("x0 + d1")


def test_parse_ambient():
    assert parse("x1").nvars == 2
    assert parse("x1", nvars=4).nvars == 4
    with pytest.raises(ValueError):
        parse("x3", nvars=2)


def test_power_matches_multinomial_oracle():
    rng = random.Random(11)
    for _ in range(25):
        nv = rng.randint(1, 4)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nv)]
        d = rng.randint(1, 4)
        form = Polynomial(nv, {tuple(1 if j == i else 0 for j in range(nv)): c
                               for i, c in enumerate(coeffs) if c})
        assert (form ** d).terms == expand_power(coeffs, d)


def test_arithmetic_basics():
    x0, x1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    p = (x0 + x1) * (x0 - x1)
    assert p == x0 * x0 - x1 * x1
    assert (p - p).is_zero()
    assert p.degree() == 2
    assert Polynomial.zero(2).degree() == -1
    assert (p * Fraction(3, 2)).coefficient((2, 0)) == Fraction(3, 2)
    assert p ** 0 == Polynomial.constant(2, 1)
    with pytest.raises(AmbientMismatchError):
        x0 + Polynomial.variable(3, 0)


def test_homogeneity():
    assert parse("x0^2 + x1*x2").is_homogeneous()
    assert not parse("x0^2 + x1").is_homogeneous()
    assert parse("x0^3").homogeneous_degree() == 3
    with pytest.raises(ValueError):
        parse("x0^2 + x1").homogeneous_degree()


def test_differentiate():
    f = parse("x0^3 + x0*x1^2")
    assert f.differentiate(0) == parse("3*x0^2 + x1^2")
    assert f.differentiate(1) == parse("2*x0*x1")
    assert parse("x1^2", nvars=2).differentiate(0).is_zero()


def test_monomials_enumeration():
    for nv, d in [(1, 3), (2, 4), (3, 3), (4, 2)]:
        monos = monomials(nv, d)
        assert len(monos) == dim_forms(nv, d)
        assert all(sum(m) == d for m in monos)
        assert monos[0] == (d,) + (0,) * (nv - 1)
        # descending graded-lex, no repeats
        assert all(monos[i] > monos[i + 1] for i in range(len(monos) - 1))


def test_string_term_order():
    assert parse("x1^2 - x0^2").to_string() == "-x0^2 + x1^2"
    assert parse("x2 + x0 + x1").to_string() == "x0 + x1 + x2"
    assert Polynomial.zero(2).to_string() == "0"
    assert parse("-1/3*x0").to_string() == "-1/3*x0"


def test_linear_form_helpers():
    f = LinearForm([Fraction(2), Fraction(-4), Fraction(0)])
    scale, monic = f.monic()
    assert scale == 2
    assert monic.coeffs == (1, -2, 0)
    assert f.proportional_to(LinearForm([-1, 2, 0]))
    assert not f.proportional_to(LinearForm([1, 2, 0]))
    assert f.to_polynomial() == parse("2*x0 - 4*x1", nvars=3)
    assert LinearForm.from_polynomial(parse("x0 - x2")).coeffs == (1, 0, -1)
    with pytest.raises(ValueError):
        LinearForm.from_polynomial(parse("x0^2 + x1", nvars=3))


def test_substitute_composes():
    rng = random.Random(23)
    for _ in range(10):
        nv = rng.randint(2, 3)
        def random_change():
            while True:
                rows = [[Fraction(rng.randint(-3, 3)) for _ in range(nv)]
                        for _ in range(nv)]
                try:
                    return LinearChange(rows)
                except ValueError:
                    continue
        a, b = random_change(), random_change()
        f = Polynomial(nv, {tuple(e): Fraction(rng.randint(-3, 3))
                            for e in [(3,) + (0,) * (nv - 1),
                                      (1, 2) + (0,) * (nv - 2)]})
        assert substitute(f, a.compose(b)) == substitute(substitute(f, a), b)
        assert substitute(f, a.compose(a.inverse())) == f


def test_substitute_fixture():
    # x0 -> x0 + x1, x1 -> x1 sends x0^2 to (x0 + x1)^2
    change = LinearChange([[1, 1], [0, 1]])
    assert substitute(parse("x0^2", nvars=2), change) == parse("x0^2 + 2*x0*x1 + x1^2")
    assert substitute(parse("x1", nvars=2), change) == parse("x1", nvars=2)


def test_linear_change_validation():
    with pytest.raises(ValueError):
        LinearChange([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        LinearChange([[1, 0, 0], [0, 1, 0]])
    eye = LinearChange.identity(3)
    assert eye.compose(eye) == eye
    assert eye.inverse() == eye


def test_polynomial_hash_and_dict_use():
    seen = {parse("x0 + x1"): "a"}
    assert seen[parse("x1 + x0")] == "a"
