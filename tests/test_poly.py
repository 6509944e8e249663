import math
import random
import re
import time
from fractions import Fraction

import pytest

from apolarity import cubics, poly
from apolarity.apolar import apolar_apply
from apolarity.cubics import ReducibleCubic, WaringDecomposition, verify_decomposition
from apolarity.poly import (MAX_NESTING, AmbientMismatchError, LinearChange,
                            LinearForm, Polynomial, PolynomialSyntaxError,
                            monomials, parse, substitute)
import oracles
from oracles import (_rref_fractions, add_by_fractions, apply_by_fractions,
                     assemble_by_fractions, compose_by_fractions, diff_once, dim_forms,
                     evaluate, expand_power, monomials_recursive, mul_by_fractions,
                     parse_by_polynomials, product_by_fractions, scale_by_fractions,
                     substitute_by_fractions)


def test_parse_round_trip():
    for text in ["x0^2*x2 + x0*x1^2",
                 "x0^3 - 3*x0*x1^2 + 2*x2^3",
                 "1/2*x0^2 - 2/3*x1^2",
                 "x0*x1*x2"]:
        assert parse(text).to_string() == text


def test_parse_reads_back_numbers_of_any_length():
    """Literals, exponents and variable indices are read in pieces that
    int() takes, and printed the same way, so to_string round trips past
    the 4300-digit limit and a 5000-digit index is a syntax error."""
    for form in (parse("x0*x1 + (10^5000)*x2^2"), parse("x0^" + "9" * 5000)):
        assert parse(form.to_string()) == form
    for nvars in (None, 3):
        with pytest.raises(PolynomialSyntaxError):
            parse("x" + "7" * 5000 + "^3", nvars=nvars)


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
    # one variable: one exponent, however large, and no tuple of that length
    assert monomials(1, 10 ** 9) == [(10 ** 9,)]
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


def test_products_pack_only_the_variables_that_occur(monkeypatch):
    """Products whose factors use different variables of a wider ambient
    match the Fraction loop.  x0*x4999999 sits at the entry budget: two
    tuples of 5*10^6 entries.  Its product packs the two variables that
    occur, where packing all of them would need 5*10^6 powers of the base
    (the spy refuses a wider packing before it is built)."""
    for a, b in [("x1 + 2/3*x3", "x3 - x1"), ("x4^2", "3*x2 - 1/5"),
                 ("x1*x4 + 7/2", "x0^3 - 2*x5"), ("0", "x2"), ("2/9", "x3^2 + x1")]:
        a, b = parse(a, nvars=6), parse(b, nvars=6)
        assert (a * b).terms == mul_by_fractions(a.terms, b.terms)
    packed = Polynomial._packed

    def spy(p, base, support=None):
        assert support is not None and len(support) <= 2
        return packed(p, base, support)

    monkeypatch.setattr(Polynomial, "_packed", spy)
    n = 5 * 10 ** 6
    start = time.perf_counter()
    p = parse(f"x0*x{n - 1}")
    assert time.perf_counter() - start < 5
    assert p.terms == {(1,) + (0,) * (n - 2) + (1,): 1}


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


# -- the integer core ----------------------------------------------------------

_BIG = (10 ** 30 + 3, 10 ** 30 + 7)


def _core_coefficient(rng):
    """A rational over 1, a small denominator or a 31-digit one."""
    num = rng.choice([-1, 1]) * rng.randint(1, 9) * rng.choice([1, 1, _BIG[0]])
    return Fraction(num, rng.choice([1, 2, 3, 6, *_BIG]))


def _core_polynomial(rng, nv, nterms, degrees=(0, 1, 2, 3)):
    terms = {}
    for _ in range(nterms):
        exps = [0] * nv
        for _ in range(rng.choice(degrees)):
            exps[rng.randrange(nv)] += 1
        terms[tuple(exps)] = _core_coefficient(rng)
    return Polynomial(nv, terms)


def _assert_core(p, expected):
    """p has the terms of the expected term dict, and its representation is
    the one integer polynomial over the least common denominator."""
    assert p.terms == expected
    assert p == Polynomial(p.nvars, expected)
    assert hash(p) == hash(Polynomial(p.nvars, expected))
    assert p._den > 0 and 0 not in p._ints.values()
    assert math.gcd(p._den, *p._ints.values()) == 1


def test_arithmetic_matches_the_fraction_loops():
    rng = random.Random(1601)
    for _ in range(60):
        nv = rng.randint(1, 4)
        p, q = (_core_polynomial(rng, nv, rng.randint(0, 6)) for _ in range(2))
        c = _core_coefficient(rng)
        _assert_core(p + q, add_by_fractions(p.terms, q.terms))
        _assert_core(p - q, add_by_fractions(p.terms, scale_by_fractions(q.terms, -1)))
        _assert_core(-p, scale_by_fractions(p.terms, -1))
        _assert_core(p * q, mul_by_fractions(p.terms, q.terms))
        _assert_core(p ** 3, mul_by_fractions(p.terms, mul_by_fractions(p.terms, p.terms)))
        _assert_core(p.scale(c), scale_by_fractions(p.terms, c))
        _assert_core(p * 0, {})
        for i in range(nv):
            _assert_core(p.differentiate(i), diff_once(p.terms, i))
        # sums that cancel in part and in full
        r = q + p.scale(Fraction(1, _BIG[1]))
        _assert_core(r - q, scale_by_fractions(p.terms, Fraction(1, _BIG[1])))
        _assert_core(p - p, {})
        _assert_core(p + (-p), {})


def test_equal_values_have_one_representation():
    half = Polynomial(2, {(1, 1): Fraction(2, 4)})
    assert half == Polynomial(2, {(1, 1): Fraction(1, 2)})
    assert hash(half) == hash(Polynomial(2, {(1, 1): Fraction(1, 2)}))
    assert (half._ints, half._den) == ({(1, 1): 1}, 2)
    x = Polynomial.variable(2, 0)
    assert x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)) == x
    assert Polynomial.constant(2, Fraction(6, 2)) == Polynomial.constant(2, 3)
    assert (x.scale(Fraction(3, 2)) * x.scale(Fraction(2, 3)))._den == 1
    assert parse("2/4*x0 + 3/6*x1").differentiate(0)._den == 2
    assert parse("1/2*x0^2").differentiate(0) == parse("x0")


def test_substitute_apply_and_form_match_the_fraction_loops():
    rng = random.Random(1602)
    for _ in range(15):
        nv = rng.randint(1, 4)
        p = _core_polynomial(rng, nv, rng.randint(1, 6))
        while True:
            rows = [[_core_coefficient(rng) if rng.random() < 0.7 else 0
                     for _ in range(nv)] for _ in range(nv)]
            try:
                change = LinearChange(rows)
                break
            except ValueError:
                continue
        _assert_core(substitute(p, change), substitute_by_fractions(p.terms, rows, nv))
        op = _core_polynomial(rng, nv, rng.randint(1, 4), degrees=(0, 1, 2))
        form = _core_polynomial(rng, nv, rng.randint(1, 6), degrees=(3,))
        _assert_core(apolar_apply(op, form), apply_by_fractions(op.terms, form.terms))
        linear = [_core_coefficient(rng) if rng.random() < 0.6 else 0 for _ in range(nv)]
        linear[rng.randrange(nv)] = _core_coefficient(rng)
        quadric = _core_polynomial(rng, nv, rng.randint(1, 5), degrees=(2,))
        if not quadric.is_zero():
            rc = ReducibleCubic(LinearForm(linear), quadric)
            _assert_core(rc.form(), product_by_fractions(linear, quadric.terms))


def _counting(calls):
    """A Fraction subclass whose constructor records its arguments in calls."""
    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            calls.append(args)
            return Fraction(*args, **kwargs)
    return Counting


def test_arithmetic_builds_no_fraction(monkeypatch):
    """Arithmetic on built polynomials runs on their integer terms: with
    poly.Fraction counting its calls, none is made."""
    rng = random.Random(1603)
    pairs = [tuple(_core_polynomial(rng, 3, 5) for _ in range(2)) for _ in range(10)]
    change = _random_rational_change(rng, 3)
    calls = []
    monkeypatch.setattr(poly, "Fraction", _counting(calls))
    for p, q in pairs:
        results = [p + q, p - q, -p, p * q, q * p, p ** 3, p.scale(3),
                   p.scale(Fraction(2, 7)), p * Fraction(-5, 3), 2 * q,
                   p.differentiate(1), substitute(p, change)]
        assert p == p + Polynomial.zero(3) and hash(p) == hash(p * 1)
        assert all(isinstance(r, Polynomial) for r in results)
    assert calls == []


def test_parse_expands_a_large_power_of_a_sum():
    """Square-and-multiply on integer terms: the 40th power of a sum of four
    variables, 12341 terms, and the 12th power against the Fraction loops."""
    start = time.perf_counter()
    big = parse("(x0+x1+x2+x3)^40")
    assert time.perf_counter() - start < 10
    assert len(big.terms) == 12341 == dim_forms(4, 40)
    base = parse("x0 + x1 + x2 + x3").terms
    expected = base
    for _ in range(11):
        expected = mul_by_fractions(expected, base)
    assert parse("(x0+x1+x2+x3)^12").terms == expected


# -- parsing at linear cost, against the parser it replaced ---------------------

def _text_sum(rng, nvars, prefix, depth):
    """Random valid text: a sum of products of p/q literals, variables
    (some written with '_'), their powers and, while depth lasts,
    parenthesized sums and their powers, with repeated signs and uneven
    spacing."""
    space = lambda: rng.choice(["", " ", " ", "  ", "\t"])
    out = rng.choice(["", "", "-", "+", "- -", "-+"])
    for t in range(rng.randint(1, 4)):
        if t:
            out += space() + rng.choice(["+", "-", "+", "- -", "+ +-"]) + space()
        factors = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.3:
                f = str(rng.randint(0, 20))
                if rng.random() < 0.4:
                    f += "/" + str(rng.randint(1, 12))
            elif kind < 0.8 or not depth:
                f = prefix + rng.choice(["", "", "_"]) + str(rng.randrange(nvars))
            else:
                f = "(" + space() + _text_sum(rng, nvars, prefix, depth - 1) + space() + ")"
            if rng.random() < 0.3:
                f += space() + "^" + space() + str(rng.randint(0, 4 if f[0] != "(" else 3))
            factors.append(rng.choice(["", "-", "--"]) + f if rng.random() < 0.2 else f)
        out += (space() + "*" + space()).join(factors)
    return out


_FUZZ_CHARS = "xd_0123456789+-*^/()  @.,\t\u00a0\u0663\u00e9"


def _fuzzed(rng, text):
    """text cut at a random point, or with one to three characters inserted,
    deleted or replaced."""
    if rng.random() < 0.3:
        return text[:rng.randint(0, len(text))]
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at, op = rng.randint(0, len(chars)), rng.random()
        if op < 0.4 or at == len(chars):
            chars.insert(at, rng.choice(_FUZZ_CHARS))
        elif op < 0.7:
            del chars[at]
        else:
            chars[at] = rng.choice(_FUZZ_CHARS)
    return "".join(chars)


def _parse_outcome(parse_fn, text, nvars):
    try:
        return parse_fn(text, nvars)
    except Exception as exc:  # every exception is compared, not only syntax errors
        return type(exc), str(exc), getattr(exc, "position", None)


def _assert_parsers_agree(rng, count):
    kept = 0
    while kept < count:
        nvars = rng.randint(1, 6)
        text = _text_sum(rng, nvars, rng.choice("xxd"), rng.randint(0, 3))
        if rng.random() < 0.5:
            text = _fuzzed(rng, text)
        # a power above 99 of a sum builds a large polynomial on both sides
        # alike; the entry budget tests cover large powers
        if re.search(r"\^\s*\d{3}", text):
            continue
        explicit = rng.choice([None, None, nvars, nvars + rng.randint(1, 3), max(nvars - 1, 1)])
        new, old = (_parse_outcome(parse, text, explicit),
                    _parse_outcome(parse_by_polynomials, text, explicit))
        assert new == old, (text, explicit)  # == compares the ambient too
        kept += 1


def test_parse_matches_the_polynomial_fold_on_random_and_fuzzed_text():
    """parse gives the Polynomial that the parser it replaced gave, or the
    same exception, message and position, on seeded random texts and their
    cut and fuzzed variants."""
    _assert_parsers_agree(random.Random(2606), 3000)
    for text in ["(" * MAX_NESTING + "x0 + 1" + ")" * MAX_NESTING,
                 "2*(" + "(" * MAX_NESTING + "x0" + ")" * MAX_NESTING + ")",
                 "x0 + d1", "d2*d0 - 3/4", "x0 x1", "1/0*x0", "x0^x1", "x3", "",
                 "   ", "\u00a0x0 + @", "x_12 - x0^0", "0^0", "(x0 - x0)*(x1 + 1)^3",
                 "2/4*x0 + 1/6*x1 - 1/3*x1", "x0^2^3", "2/3/4", "()", "-(x0 + x1)^2"]:
        for nvars in (None, 3, 13):
            new, old = (_parse_outcome(parse, text, nvars),
                        _parse_outcome(parse_by_polynomials, text, nvars))
            assert new == old, (text, nvars)


def test_parse_matches_the_polynomial_fold_under_a_small_budget(monkeypatch):
    """The same comparison with MAX_MONOMIAL_ENTRIES lowered to 100 on both
    sides, so that the entry budget and check_size refuse often."""
    monkeypatch.setattr(poly, "MAX_MONOMIAL_ENTRIES", 100)
    monkeypatch.setattr(oracles, "MAX_MONOMIAL_ENTRIES", 100)
    _assert_parsers_agree(random.Random(2607), 1500)
    for text in ["(x0 + x1 + x2)^10", "(x0 + x1)^9*(x0 + x1)^9", "x0*(x0 + x1)^9*x1",
                 "(1 + x0)^20*(1 + x0)^20", "0*(x0 + x1 + x2)^4*(x1 + x2)^5"]:
        assert _parse_outcome(parse, text, None) == _parse_outcome(
            parse_by_polynomials, text, None), text


def _monomial_text(rng, nvars, degree, count):
    """A sum of count distinct monomials of the degree with p/q
    coefficients, no parentheses, and the term dict it spells."""
    terms, parts = {}, []
    for exps in monomials(nvars, degree)[:count]:
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 9))
        factors = [f"x{j}^{e}" if e > 1 else f"x{j}" for j, e in enumerate(exps) if e]
        parts.append(f"{c.numerator}/{c.denominator}*" + "*".join(factors))
        terms[exps] = c
    return " + ".join(parts), terms


def test_parse_of_monomial_terms_builds_no_polynomial_arithmetic(monkeypatch):
    """A sum of monomial terms with no parentheses reaches neither
    Polynomial.__mul__ nor __add__; the parser it replaced, counted the same
    way, calls them once per '*' and once per term."""
    text, terms = _monomial_text(random.Random(2608), 7, 4, 210)
    calls = []
    for name in ("__mul__", "__add__"):
        original = getattr(Polynomial, name)
        monkeypatch.setattr(Polynomial, name, lambda a, b, f=original: calls.append(1) or f(a, b))
    assert parse(text) == Polynomial(7, terms)
    assert calls == []
    assert parse_by_polynomials(text) == Polynomial(7, terms)
    assert len(calls) > 1000


def test_parse_is_linear_in_the_text():
    """12000 terms of degree 4 in 22 variables, about 300 kB of text, parse
    in well under the seconds a fold of sums would take."""
    text, terms = _monomial_text(random.Random(2609), 22, 4, 12000)
    start = time.perf_counter()
    p = parse(text)
    assert time.perf_counter() - start < 2
    assert p == Polynomial(22, terms)


# -- linear forms, changes and witnesses on the integer core --------------------

def _assert_lowest(rows, den):
    assert den > 0 and math.gcd(den, *(v for row in rows for v in row)) == 1


def test_linear_form_has_one_representation():
    a = LinearForm([Fraction(2, 4), 3, Fraction(-6, 8)])
    b = LinearForm([Fraction(1, 2), Fraction(6, 2), Fraction(-3, 4)])
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert (a._ints, a._den) == (b._ints, b._den) == ((2, 12, -3), 4)
    assert a.coeffs == (Fraction(1, 2), 3, Fraction(-3, 4))
    assert LinearForm._make([2, 4, 6], 4) == LinearForm([Fraction(1, 2), 1, Fraction(3, 2)])
    assert LinearForm([0, 0]) == LinearForm._make([0, 0], 7) and LinearForm([0, 0])._den == 1
    assert LinearForm([-2, 4]).monic() == (-2, LinearForm([1, -2]))
    rng = random.Random(1605)
    for _ in range(40):
        coeffs = [_core_coefficient(rng) for _ in range(rng.randint(1, 4))]
        scale = _core_coefficient(rng)
        f = LinearForm(coeffs)
        _assert_lowest([f._ints], f._den)
        assert f.coeffs == tuple(coeffs)
        assert f == LinearForm(f.coeffs) and hash(f) == hash(LinearForm(f.coeffs))
        g = LinearForm([c * scale for c in coeffs])
        assert f.proportional_to(g) and f.monic()[1] == g.monic()[1]
        assert f.monic()[0] * f.monic()[1].to_polynomial() == f.to_polynomial()


def _oracle_inverse(m):
    """The inverse by Gauss-Jordan on [m | 1] in Fractions, or None."""
    n = len(m)
    red, pivots = _rref_fractions([list(row) + [int(i == j) for j in range(n)]
                                   for i, row in enumerate(m)])
    return [row[n:] for row in red] if pivots == list(range(n)) else None


def test_linear_change_matches_the_fraction_rref():
    """LinearChange(m), its inverse and compose on dense matrices with
    31-digit denominators, against Gauss-Jordan in Fractions; each matrix
    and inverse is held over its least denominator."""
    rng = random.Random(1606)
    big = Fraction(_BIG[1], _BIG[0])
    for n in (1, 2, 3, 4, 5):
        changes = []
        for k in range(4):
            m = [[_core_coefficient(rng) for _ in range(n)] for _ in range(n)]
            if k == 3 and n > 1:  # a dependent last row: singular
                m[-1] = [big * a - (b if n > 2 else 0) for a, b in zip(m[0], m[1])]
            expected = _oracle_inverse(m)
            if expected is None:
                assert k == 3
                with pytest.raises(ValueError):
                    LinearChange(m)
                continue
            change = LinearChange(m)
            changes.append((change, m))
            assert [list(row) for row in change.matrix] == m
            assert [list(row) for row in change.inverse().matrix] == expected
            assert change.inverse().inverse() == change
            _assert_lowest(change._rows, change._den)
            _assert_lowest(*change._inv)
        for (a, ma), (b, mb) in zip(changes, changes[1:]):
            prod = [[sum(ma[i][k] * mb[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)]
            ab = a.compose(b)
            assert [list(row) for row in ab.matrix] == prod
            assert [list(row) for row in ab.inverse().matrix] == _oracle_inverse(prod)
            assert ab == LinearChange(prod)
            _assert_lowest(*ab._inv)


def _counting_inverse(monkeypatch):
    """linalg.inverse, recording each matrix it is called on."""
    calls, real = [], poly.linalg.inverse
    monkeypatch.setattr(poly.linalg, "inverse", lambda mat: calls.append(mat) or real(mat))
    return calls


def test_linear_change_builds_its_inverse_on_first_use(monkeypatch):
    """A dense matrix whose rows are independent modulo PRIME is proven
    invertible without elimination; ==, inverse(), compose and lowest terms
    hold before the inverse is built and after, and it is built once."""
    calls = _counting_inverse(monkeypatch)
    rng = random.Random(1610)
    for n in (1, 2, 3, 4, 5):
        ma, mb = ([[_core_coefficient(rng) for _ in range(n)] for _ in range(n)]
                  for _ in range(2))
        a, b, built = LinearChange(ma), LinearChange(mb), LinearChange(ma)
        assert calls == [] and a._inv is None and b._inv is None
        assert built.inverse().inverse() == built and len(calls) == 1
        assert a == built and built == a and a != b
        _assert_lowest(a._rows, a._den)
        ab = a.compose(b)  # builds both inverses
        assert len(calls) == 3 and ab._inv is not None
        prod = [[sum(ma[i][k] * mb[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert ab == LinearChange(prod)
        assert [list(row) for row in ab.inverse().matrix] == _oracle_inverse(prod)
        for change, m in ((a, ma), (b, mb), (built, ma)):
            assert [list(row) for row in change.inverse().matrix] == _oracle_inverse(m)
            assert change.inverse().inverse() == change
            _assert_lowest(*change._inv)
        assert len(calls) == 3  # each inverse was kept
        calls.clear()


@pytest.mark.parametrize("matrix", [
    [[poly.linalg.PRIME, 0], [0, 1]],
    [[1, 1], [1, 1 + poly.linalg.PRIME]],
    [[2, 3, 5], [4, 6, 10 + poly.linalg.PRIME], [1, 0, 0]],
    [[Fraction(poly.linalg.PRIME, 7), Fraction(1, 3)], [0, Fraction(5, 2)]],
], ids=["diagonal", "rows-equal-mod-prime", "three-rows", "rational"])
def test_linear_change_singular_modulo_the_prime_falls_back(monkeypatch, matrix):
    """Rows dependent modulo PRIME but independent over Q go to elimination
    at construction, once; the inverse is the Fraction Gauss-Jordan one."""
    calls = _counting_inverse(monkeypatch)
    change = LinearChange(matrix)
    assert len(calls) == 1 and change._inv is not None
    assert [list(row) for row in change.inverse().matrix] == _oracle_inverse(matrix)
    assert change.inverse().inverse() == change and len(calls) == 1
    _assert_lowest(*change._inv)


@pytest.mark.parametrize("matrix", [
    [[0]], [[1, 2], [2, 4]], [[poly.linalg.PRIME, 1], [0, 0]],
    [[Fraction(1, 2), 1, 3], [1, 2, 6], [0, 5, 7]],
])
def test_singular_linear_change_raises_at_construction(matrix):
    assert _oracle_inverse(matrix) is None
    with pytest.raises(ValueError, match="singular"):
        LinearChange(matrix)


def test_witnesses_assemble_and_compose_as_the_fraction_loops():
    rng = random.Random(1607)
    for _ in range(30):
        nv, degree = rng.randint(1, 4), rng.randint(1, 4)
        raw = [(_core_coefficient(rng), [_core_coefficient(rng) if rng.random() < 0.7 else 0
                                         for _ in range(nv)]) for _ in range(rng.randint(1, 5))]
        raw = [(c, f) for c, f in raw if any(f)]
        if raw and rng.random() < 0.5:  # a proportional form, to be merged
            scale = _core_coefficient(rng)
            raw.append((_core_coefficient(rng), [v * scale for v in raw[0][1]]))
        dec = WaringDecomposition.assemble(degree, nv, [(c, LinearForm(f)) for c, f in raw])
        pairs = [(c, f.coeffs) for c, f in dec.terms]
        assert pairs == assemble_by_fractions(degree, nv, raw)
        change = LinearChange([[_core_coefficient(rng) for _ in range(nv)] for _ in range(nv)])
        moved = dec.compose(change)
        assert [(c, f.coeffs) for c, f in moved.terms] == \
            compose_by_fractions(degree, nv, pairs, change.matrix)


def test_linear_data_builds_no_fraction(monkeypatch):
    """LinearChange on integer rows, its inverse, substitute,
    WaringDecomposition.compose, verify_decomposition and decompose_type_c
    with a supplied integer change run on integers: with poly.Fraction and
    cubics.Fraction counting their calls, none is made."""
    rng = random.Random(1608)
    cases = []
    for n in (2, 3, 4):
        while True:
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if _oracle_inverse(rows) is not None:
                break
        p = _core_polynomial(rng, n, 6, degrees=(3,))
        dec = WaringDecomposition.assemble(3, n, [
            (_core_coefficient(rng), LinearForm([_core_coefficient(rng) for _ in range(n)]))
            for _ in range(4)])
        tangent = None
        if n >= 3:
            # the normal form carried back through the inverse of the change
            back = LinearChange(rows).inverse()
            pair = cubics.normal_form_pair(n - 1)
            tangent = ReducibleCubic(
                LinearForm.from_polynomial(substitute(pair.linear.to_polynomial(), back)),
                substitute(pair.quadric, back))
            cubics.decompose_type_c_normal(n - 1)  # cached before counting
        cases.append((rows, p, dec, _random_rational_change(rng, n), tangent))
    poly_calls, cubic_calls = [], []
    monkeypatch.setattr(poly, "Fraction", _counting(poly_calls))
    monkeypatch.setattr(cubics, "Fraction", _counting(cubic_calls))
    for rows, p, dec, rational, tangent in cases:
        change = LinearChange(rows)
        back = change.inverse()
        assert substitute(substitute(p, change), back) == p
        for c in (change, back, rational):
            moved = dec.compose(c)
            assert cubic_calls == []
            assert verify_decomposition(dec.expand(), dec)[0]
            assert verify_decomposition(substitute(dec.expand(), c), moved)[0]
        if tangent is not None:
            witness = cubics.decompose_type_c(tangent, change=LinearChange(rows))
            assert len(witness) == 2 * len(rows) - 1
            assert verify_decomposition(tangent.form(), witness)[0]
    assert poly_calls == [] and cubic_calls == []
