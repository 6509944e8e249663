import random
from fractions import Fraction

import pytest

from apolarity import poly
from apolarity.cubics import WaringDecomposition
from apolarity.poly import (MAX_NESTING, AmbientMismatchError, LinearChange,
                            LinearForm, Polynomial, PolynomialSyntaxError,
                            _compose_rows, monomials, parse, substitute)
from oracles import dim_forms, evaluate, expand_power, monomials_recursive


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


def test_monomials_match_recursive_order():
    for nv in range(6):
        for d in range(-1, 6):
            assert monomials(nv, d) == monomials_recursive(nv, d)


def test_monomials_refuse_huge_degrees():
    # 1501 variables: degree 1 is listed, degree 2 would be ~1.7e9 entries
    assert len(monomials(1501, 1)) == 1501
    with pytest.raises(ValueError):
        monomials(1501, 2)


def test_parse_refuses_input_past_the_entry_budget(monkeypatch):
    """With the budget lowered to 100 exponent entries, parse refuses before
    it builds: an index or an ambient that makes the literals too wide, a
    power with more than comb(t+k-1, k) allowed terms and a product with
    more than t1*t2 allowed terms, unless the monomials of that degree are
    few enough.  What fits is built, and one term has one term at any
    exponent."""
    monkeypatch.setattr(poly, "MAX_MONOMIAL_ENTRIES", 100)
    for text, nvars, at in [("x0 + x200", None, 0), ("x0^3", 60, 0),
                            (" + ".join(["x0"] * 101), None, 0),
                            ("(x0 + x1 + x2)^10", None, 15),
                            ("(x0 + x1)^9*(x0 + x1)^9", None, 11)]:
        with pytest.raises(PolynomialSyntaxError, match="exponent entries") as exc:
            parse(text, nvars)
        assert exc.value.position == at
    assert len(parse("(x0 + x1 + x2)^4").terms) == 15
    assert len(parse("(1 + x0)^20*(1 + x0)^20").terms) == 41
    assert parse("x0^2000") == Polynomial.monomial(1, (2000,))
    assert parse(" + ".join(["x0"] * 100)) == parse("100*x0")


def test_power_squares_no_further_than_it_needs(monkeypatch):
    """Polynomial.__pow__ multiplies only up to the highest bit of k."""
    base, expected = parse("x0 + x1"), parse("x0^4 + 4*x0^3*x1 + 6*x0^2*x1^2 + "
                                             "4*x0*x1^3 + x1^4")
    degrees = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__",
                        lambda a, b: degrees.append(a.degree() + b.degree()) or mul(a, b))
    assert base ** 4 == expected
    assert degrees == [2, 4, 4]


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


def _rational(rng, span=6, den=7):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _random_polynomial(rng, nv, degrees, nterms):
    terms = {}
    for _ in range(nterms):
        exps = [0] * nv
        for _ in range(rng.choice(degrees)):
            exps[rng.randrange(nv)] += 1
        terms[tuple(exps)] = _rational(rng)
    return Polynomial(nv, terms)


def _random_rational_change(rng, nv):
    while True:
        try:
            return LinearChange([[_rational(rng) for _ in range(nv)]
                                 for _ in range(nv)])
        except ValueError:
            continue


def _assert_composes(p, rows, image, rng, points=3):
    """p(rows . y) == image(y) at random rational points y."""
    m = len(rows[0])
    assert image.nvars == m
    for _ in range(points):
        y = [_rational(rng, 9, 5) for _ in range(m)]
        x = [sum(Fraction(c) * v for c, v in zip(row, y)) for row in rows]
        assert evaluate(image.terms, y) == evaluate(p.terms, x)


def test_substitute_dense_rational_changes():
    rng = random.Random(31)
    for nv in (2, 3, 4):
        for _ in range(4):
            change = _random_rational_change(rng, nv)
            assert any(c.denominator > 1 for row in change.matrix for c in row)
            p = _random_polynomial(rng, nv, [3], 8)
            _assert_composes(p, change.matrix, substitute(p, change), rng)


def test_substitute_non_homogeneous_zero_and_constant():
    rng = random.Random(37)
    change = _random_rational_change(rng, 3)
    for _ in range(4):
        p = _random_polynomial(rng, 3, [0, 1, 2, 3, 4], 10)
        assert not p.is_homogeneous()
        _assert_composes(p, change.matrix, substitute(p, change), rng)
    assert substitute(Polynomial.zero(3), change) == Polynomial.zero(3)
    const = Polynomial.constant(3, Fraction(-5, 3))
    assert substitute(const, change) == const


def test_substitute_one_and_many_variables():
    rng = random.Random(41)
    one = LinearChange([[Fraction(-3, 7)]])
    p = parse("x0^4 - 2*x0 + 1/2")
    assert substitute(p, one) == parse("81/2401*x0^4 + 6/7*x0 + 1/2")
    _assert_composes(p, one.matrix, substitute(p, one), rng)
    for nv in (8, 9):
        change = _random_rational_change(rng, nv)
        p = _random_polynomial(rng, nv, [1, 3], 12)
        _assert_composes(p, change.matrix, substitute(p, change), rng, points=2)


def test_compose_rows_rectangular_and_rank_deficient():
    rng = random.Random(43)
    p = _random_polynomial(rng, 4, [2, 3], 10)
    # four variables onto two: every row a multiple of (1, -2/3), rank 1
    thin = [[Fraction(k, 2), Fraction(-k, 3)] for k in (1, -2, 3, 0)]
    _assert_composes(p, thin, _compose_rows(p, thin), rng)
    # four variables onto five, rank 2
    wide = [[1, 0, Fraction(1, 2), 0, 3], [0, 1, 0, Fraction(-2, 5), 0],
            [1, 1, Fraction(1, 2), Fraction(-2, 5), 3], [0, 0, 0, 0, 0]]
    _assert_composes(p, wide, _compose_rows(p, wide), rng)
    # x0^2 - x1^2 vanishes when both variables become the same form
    same = [[Fraction(2, 3), 5], [Fraction(2, 3), 5]]
    assert _compose_rows(parse("x0^2 - x1^2"), same).is_zero()
    with pytest.raises(AmbientMismatchError):
        _compose_rows(p, thin[:3])


def test_expand_matches_multinomial_oracle():
    rng = random.Random(47)
    for _ in range(12):
        nv, d, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 5)
        raw = [(_rational(rng), [_rational(rng, 3, 3) for _ in range(nv)])
               for _ in range(k)]
        raw = [(c, f) for c, f in raw if any(f)]
        expected: dict = {}
        for c, f in raw:
            for exps, v in expand_power(f, d).items():
                expected[exps] = expected.get(exps, Fraction(0)) + c * v
        dec = WaringDecomposition.assemble(
            d, nv, [(c, LinearForm(f)) for c, f in raw])
        assert dec.expand().terms == {e: v for e, v in expected.items() if v}
    assert WaringDecomposition(3, 2, ()).expand() == Polynomial.zero(2)


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
