import dataclasses
import json
import math
import random
import time
from fractions import Fraction

import pytest

from apolarity import cubics, linalg, poly
from apolarity.apolar import apolar_ideal
from apolarity.cubics import (CubicKind, InvalidChange,
                              NeedsFieldExtension, ReducibleCubic,
                              WaringDecomposition, _rational_roots, _split,
                              _squarefree,
                              classify, decompose_binary,
                              decompose_type_c, decompose_type_c_normal,
                              normal_form, normal_form_pair,
                              normalize_tangent_product, quadric_matrix,
                              split_change, split_normal_form,
                              verify_decomposition)
from apolarity.poly import (AmbientMismatchError, LinearChange, LinearForm,
                            Polynomial, monomials, parse, substitute)

from oracles import (assemble_by_fractions, bareiss_rank, classify_by_fractions,
                     compose_by_fractions, diff_once, monomials_recursive,
                     power_sum_by_fractions, product_by_fractions,
                     rational_roots_by_deflation, residual_by_fractions,
                     squarefree_euclid)


def _product(linear, quadric, nvars=None):
    if nvars is None:
        nvars = max(parse(linear).nvars, parse(quadric).nvars)
    return ReducibleCubic(LinearForm.from_polynomial(parse(linear, nvars=nvars)),
                          parse(quadric, nvars=nvars))


def _random_change(rng, nvars, span=3):
    while True:
        rows = [[Fraction(rng.randint(-span, span)) for _ in range(nvars)]
                for _ in range(nvars)]
        try:
            return LinearChange(rows)
        except ValueError:
            continue


def test_quadric_matrix():
    m = quadric_matrix(parse("x0*x1 + 3*x2^2 - 2*x0*x2", nvars=3))
    half = Fraction(1, 2)
    assert m == [[0, half, -1], [half, 0, 0], [-1, 0, 3]]
    # x^T M x reproduces the quadric
    assert m[0][1] + m[1][0] == 1


def test_classify_fixtures():
    assert classify(_product("x0", "x0*x1 + x2*x3")).kind is CubicKind.TYPE_C
    assert classify(_product("x0", "x1*x2", 3)).kind is CubicKind.TYPE_B
    assert classify(_product("x0", "x0^2 + x1^2 + x2^2")).kind is CubicKind.TYPE_A
    cone = classify(_product("x0", "x1^2", 3))
    assert cone.kind is CubicKind.CONE
    assert cone.essential == 2
    degenerate = classify(_product("x0", "x0*x1", 3))
    assert degenerate.kind is CubicKind.DEGENERATE_PRODUCT


def test_classify_tangency_is_exact():
    # {x0 = 0} touches x0*x1 + x2^2 + x3^2 at (0:1:0:0)
    assert classify(_product("x0", "x0*x1 + x2^2 + x3^2")).kind is CubicKind.TYPE_C
    # perturbing the quadric off the tangent position flips the class
    assert classify(_product("x0", "x0*x1 + x1^2 + x2^2 + x3^2")).kind \
        is CubicKind.TYPE_A


def test_classify_is_invariant_under_dense_changes():
    rng = random.Random(61)
    fixtures = [("x0", "x0*x1 + x2*x3", CubicKind.TYPE_C),
                ("x0", "x0*x1 + x2^2 + x3^2", CubicKind.TYPE_C),
                ("x0", "x1*x2 + x3^2", CubicKind.TYPE_B),
                ("x1", "x0^2 + x1^2 + x2^2 - x3^2", CubicKind.TYPE_A),
                ("x0 + x3", "x0*x1 + x1*x3", CubicKind.DEGENERATE_PRODUCT)]
    for linear, quadric, kind in fixtures:
        rc = _product(linear, quadric, 4)
        for _ in range(3):
            change = _random_change(rng, 4)
            moved = ReducibleCubic.from_polynomials(
                substitute(rc.linear.to_polynomial(), change),
                substitute(rc.quadric, change))
            assert classify(moved).kind is kind


def _cat1_rank(form):
    """Rank of Cat_1 as the rank of the first partials, by Bareiss."""
    index = {m: i for i, m in enumerate(monomials_recursive(form.nvars, 2))}
    rows = []
    for j in range(form.nvars):
        row = [Fraction(0)] * len(index)
        for exps, c in diff_once(form.terms, j).items():
            row[index[exps]] = c
        rows.append(row)
    return bareiss_rank(rows)


def test_classify_essential_matches_bareiss_rank():
    rng = random.Random(2718)
    kinds = set()
    for nv in range(3, 8):
        for _ in range(12):
            # k < nv plants a cone before the dense change
            k = rng.choice((nv, nv, rng.randint(1, nv)))
            used = rng.sample(range(k), rng.randint(1, k))
            linear = [Fraction(rng.randint(-2, 2)) if i in used else 0
                      for i in range(nv)]
            if not any(linear):
                linear[used[0]] = Fraction(1)
            terms = {m: Fraction(rng.randint(-3, 3)) for m in monomials(nv, 2)
                     if not any(m[k:]) and rng.random() < 0.5}
            terms = {m: c for m, c in terms.items() if c} or {
                tuple(2 * int(i == used[-1]) for i in range(nv)): Fraction(1)}
            rc = ReducibleCubic(LinearForm(linear), Polynomial(nv, terms))
            if rng.random() < 0.7:
                change = _random_change(rng, nv, span=2)
                rc = ReducibleCubic.from_polynomials(
                    substitute(rc.linear.to_polynomial(), change),
                    substitute(rc.quadric, change))
            ctype = classify(rc)
            kinds.add(ctype.kind)
            rank = _cat1_rank(rc.form())
            if ctype.kind in (CubicKind.CONE, CubicKind.DEGENERATE_PRODUCT):
                assert ctype.essential == rank
            else:
                assert ctype.essential is None and rank == nv
    # repeated-factor products Q = L*L', with l' proportional to l and not
    rng = random.Random(1618)
    for nv in range(3, 8):
        linear = LinearForm([rng.randint(-2, 2) for _ in range(nv - 1)] + [1])
        other = LinearForm([1] + [rng.randint(-2, 2) for _ in range(nv - 1)])
        for second in (other, LinearForm([3 * c for c in linear.coeffs])):
            rc = ReducibleCubic(linear,
                                linear.to_polynomial() * second.to_polynomial())
            ctype = classify(rc)
            kinds.add(ctype.kind)
            assert ctype.kind is CubicKind.DEGENERATE_PRODUCT
            assert ctype.essential == _cat1_rank(rc.form())
    assert CubicKind.CONE in kinds and CubicKind.TYPE_A in kinds


HUGE = (Fraction(10 ** 30 + 3, 10 ** 30 + 7), Fraction(-(10 ** 30 + 7), 10 ** 30 + 3))


def _seeded_products(rng, nv):
    """One product of each class in nv variables, planted in coordinates
    and moved by a dense rational change; half of the changes are sheared
    so that L o change has a zero first coefficient, and some products are
    refactored as (a*L)*(Q/a) with a of 31 digits."""
    n = nv - 1
    x = [Polynomial.variable(nv, i) for i in range(nv)]
    planted = {"TypeC": (x[0], normal_form_pair(n).quadric)}
    diag = [_rational(rng) or Fraction(1) for _ in range(nv)]
    planted["TypeA"] = (x[0] + x[1], sum((c * xi * xi for c, xi in zip(diag, x)),
                                         Polynomial.zero(nv)))
    planted["TypeB"] = (x[0] + x[-1], sum((c * xi * xi for c, xi in zip(diag, x[:-1])),
                                          Polynomial.zero(nv)))
    e = rng.randint(2, nv - 1)
    planted["Cone"] = (x[0] + x[e - 1], sum((abs(c) * xi * xi for c, xi in zip(diag, x[:e])),
                                            Polynomial.zero(nv)))
    other = sum((_rational(rng) * xi for xi in x), Polynomial.zero(nv)) or x[1]
    lin = x[0] - 2 * x[-1]
    planted["DegenerateProduct"] = (lin, lin * other)
    for name, (linear, quadric) in planted.items():
        change = _rational_change(rng, nv)
        if rng.random() < 0.5:
            image = [sum(c * change.matrix[i][j] for i, c in
                         enumerate(LinearForm.from_polynomial(linear).coeffs))
                     for j in range(nv)]
            j = next((j for j in range(1, nv) if image[j]), 0) if image[0] else 0
            if j:
                f = image[0] / image[j]
                change = LinearChange([[row[0] - f * row[j], *row[1:]]
                                       for row in change.matrix])
        rc = ReducibleCubic.from_polynomials(substitute(linear, change),
                                             substitute(quadric, change))
        if rng.random() < 0.3:
            a = rng.choice(HUGE)
            rc = ReducibleCubic(LinearForm(a * c for c in rc.linear.coeffs),
                                rc.quadric * (1 / a))
        yield name, rc


def test_classify_matches_the_fraction_oracle():
    """classify on integer rows against the Fraction RREF of [M | l] and
    the substitution test it replaced, on seeded products of every class."""
    rng = random.Random(8128)
    seen = set()
    for nv in range(3, 7):
        for _ in range(6):
            for name, rc in _seeded_products(rng, nv):
                ctype = classify(rc)
                got = (ctype.kind.value, ctype.essential)
                assert got == classify_by_fractions(rc.linear.coeffs, rc.quadric.terms, nv)
                seen.add((ctype.kind.value, rc.linear.coeffs[0] == 0))
                if name != "TypeA":  # a random hyperplane may be tangent
                    assert ctype.kind.value == name
    assert {name for name, _ in seen} == {k.value for k in CubicKind}
    assert {name for name, first_zero in seen if first_zero} == {k.value for k in CubicKind}


def test_classify_eliminates_integer_rows_without_substitution(monkeypatch):
    """classify hands linalg.rref the integer rows [A | l'] once and runs
    no substitution: the divisibility test is a Gram product."""
    rng = random.Random(496)
    products = [rc for nv in range(3, 6) for _, rc in _seeded_products(rng, nv)]
    reductions, compositions = [], []
    rref, compose = linalg.rref, poly._compose_packed
    monkeypatch.setattr(linalg, "rref", lambda rows: reductions.append(rows) or rref(rows))
    monkeypatch.setattr(poly, "_compose_packed",
                        lambda *args: compositions.append(args) or compose(*args))
    for rc in products:
        reductions.clear()
        classify(rc)
        assert len(reductions) == 1
        assert all(type(v) is int for row in reductions[0] for v in row)
    assert compositions == []


def test_classify_repeated_factor_beats_cone():
    # x0^3 uses one essential variable but is a repeated-factor product first
    t = classify(_product("x0", "x0^2", 3))
    assert t.kind is CubicKind.DEGENERATE_PRODUCT
    assert t.essential == 1


def test_classify_needs_room():
    with pytest.raises(ValueError):
        classify(_product("x0", "x1^2", 2))


def test_reducible_cubic_validation():
    with pytest.raises(ValueError):
        ReducibleCubic(LinearForm([0, 0, 0]), parse("x0^2", nvars=3))
    with pytest.raises(ValueError):
        _product("x0", "x1^3", 3)
    with pytest.raises(AmbientMismatchError):
        ReducibleCubic(LinearForm([1, 0]), parse("x0^2", nvars=3))
    rc = _product("x0 + x1", "x0*x2", 3)
    assert rc.form() == parse("x0^2*x2 + x0*x1*x2", nvars=3)


def test_normal_forms():
    for n in range(2, 13):
        squares = "".join(f" + x0*x{i}^2" for i in range(4, n + 1))
        pinch = "x0^2*x1 + " + ("x0*x2^2" if n == 2 else "x0*x2*x3" + squares)
        assert normal_form(n) == parse(pinch)
        assert normal_form_pair(n).form() == normal_form(n)
        if n >= 3:
            split = "x0^2*x1 - x1*x2^2 + x1^2*x3" + "".join(
                f" + x1*x{i}^2" for i in range(4, n + 1))
            assert split_normal_form(n) == parse(split)
    assert normal_form(2) == parse("x0^2*x1 + x0*x2^2")
    assert normal_form(3) == parse("x0^2*x1 + x0*x2*x3")
    assert normal_form(4) == parse("x0^2*x1 + x0*x2*x3 + x0*x4^2")
    assert split_normal_form(2) == parse("x0^2*x2 + x0*x1^2")
    assert split_normal_form(3) == parse("x0^2*x1 - x1*x2^2 + x1^2*x3")
    assert split_normal_form(5) == parse(
        "x0^2*x1 - x1*x2^2 + x1^2*x3 + x1*x4^2 + x1*x5^2")
    with pytest.raises(ValueError):
        normal_form(1)
    pair = normal_form_pair(4)
    assert pair.form() == normal_form(4)
    assert classify(pair).kind is CubicKind.TYPE_C


def test_split_change_links_the_normal_forms():
    for n in range(2, 6):
        assert substitute(normal_form(n), split_change(n)) == split_normal_form(n)
    with pytest.raises(ValueError):
        split_change(1)


def test_normal_form_decomposition_frozen_n2():
    """The five-term identity for x0^2*x1 + x0*x2^2, hand-checked:
    the x2 block is (1/6)[(x0+x2)^3 + (x0-x2)^3] = (1/3)x0^3 + x0*x2^2 and
    the x1 block sums to x0^2*x1 - (1/3)x0^3."""
    dec = decompose_type_c_normal(2)
    expected = [
        (Fraction(4, 81), (1, Fraction(3, 2), 0)),
        (Fraction(1, 6), (1, 0, 1)),
        (Fraction(1, 6), (1, 0, -1)),
        (Fraction(-32, 81), (1, Fraction(-3, 4), 0)),
        (Fraction(1, 81), (1, -3, 0)),
    ]
    assert [(c, f.coeffs) for c, f in dec.terms] == expected
    ok, residual = verify_decomposition(normal_form(2), dec)
    assert ok and residual.is_zero()


def test_normal_form_decomposition_all_sizes():
    for n in range(2, 13):
        dec = decompose_type_c_normal(n)
        assert len(dec) == 2 * n + 1
        ok, _ = verify_decomposition(normal_form(n), dec)
        assert ok


def test_two_cube_pairing_identity():
    """24 x0x1x2 = (x0+x1+x2)^3 - (x0+x1-x2)^3 - (x0-x1+x2)^3 + (x0-x1-x2)^3."""
    lhs = parse("24*x0*x1*x2")
    cubes = [(1, "x0 + x1 + x2"), (-1, "x0 + x1 - x2"),
             (-1, "x0 - x1 + x2"), (1, "x0 - x1 - x2")]
    total = Polynomial.zero(3)
    for sign, text in cubes:
        total = total + parse(text) ** 3 * sign
    assert total == lhs


def test_assemble_merges_proportional_forms():
    dec = WaringDecomposition.assemble(3, 2, [
        (Fraction(1), LinearForm([2, 0])),    # (2x0)^3 = 8 x0^3
        (Fraction(1), LinearForm([1, 0])),
        (Fraction(-9), LinearForm([1, 0])),   # cancels to zero jointly? no: 8+1-9
    ])
    assert dec.terms == ()
    dec = WaringDecomposition.assemble(3, 2, [
        (Fraction(1), LinearForm([2, 0])),
        (Fraction(1), LinearForm([0, 1])),
        (Fraction(0), LinearForm([1, 1])),
    ])
    assert [(c, f.coeffs) for c, f in dec.terms] == [
        (Fraction(8), (1, 0)), (Fraction(1), (0, 1))]
    with pytest.raises(ValueError):
        WaringDecomposition.assemble(3, 2, [(Fraction(1), LinearForm([0, 0]))])


def test_decomposition_expand_and_compose():
    rng = random.Random(55)
    dec = decompose_type_c_normal(3)
    F = normal_form(3)
    for _ in range(5):
        change = _random_change(rng, 4)
        moved = dec.compose(change)
        ok, _ = verify_decomposition(substitute(F, change), moved)
        assert ok


def test_identity_string_frozen():
    dec = decompose_type_c_normal(2)
    assert dec.identity_string() == (
        "162*F = 8*(x0 + 3/2*x1)^3 + 27*(x0 + x2)^3 + 27*(x0 - x2)^3"
        " - 64*(x0 - 3/4*x1)^3 + 2*(x0 - 3*x1)^3")


# identity strings recorded from the earlier recursive construction, which
# checks the closed form independently; n = 5, 6, 7 have different x1 blocks
FROZEN_IDENTITIES = {
    5: (
        "162*F = (x0 + 3*x1)^3 + 27*(x0 + 1/2*x2 + 1/2*x3)^3"
        " - 27*(x0 + 1/2*x2 - 1/2*x3)^3 + 27*(x0 + x4)^3 + 27*(x0 + x5)^3"
        " + 27*(x0 - x5)^3 + 27*(x0 - x4)^3 - 27*(x0 - 1/2*x2 + 1/2*x3)^3"
        " + 27*(x0 - 1/2*x2 - 1/2*x3)^3 - 125*(x0 - 3/5*x1)^3"
        " + 16*(x0 - 3/2*x1)^3"),
    6: (
        "6*F = (x0 + 1/2*x2 + 1/2*x3)^3 - (x0 + 1/2*x2 - 1/2*x3)^3"
        " + (x0 + x4)^3 + (x0 + x5)^3 + (x0 + x6)^3 + (x0 - x6)^3"
        " + (x0 - x5)^3 + (x0 - x4)^3 - (x0 - 1/2*x2 + 1/2*x3)^3"
        " + (x0 - 1/2*x2 - 1/2*x3)^3 - 8*(x0 - 1/2*x1)^3 + 2*(x0 - x1)^3"
        " + (x1)^3"),
    7: (
        "162*F = 27*(x0 + 1/2*x2 + 1/2*x3)^3 - 27*(x0 + 1/2*x2 - 1/2*x3)^3"
        " + 27*(x0 + x4)^3 + 27*(x0 + x5)^3 + 27*(x0 + x6)^3 + 27*(x0 + x7)^3"
        " + 27*(x0 - x7)^3 + 27*(x0 - x6)^3 + 27*(x0 - x5)^3 + 27*(x0 - x4)^3"
        " - 27*(x0 - 1/2*x2 + 1/2*x3)^3 + 27*(x0 - 1/2*x2 - 1/2*x3)^3"
        " - 343*(x0 - 3/7*x1)^3 + 128*(x0 - 3/4*x1)^3 - (x0 - 3*x1)^3"),
}


@pytest.mark.parametrize("n", sorted(FROZEN_IDENTITIES))
def test_identity_string_frozen_larger_n(n):
    assert decompose_type_c_normal(n).identity_string() == FROZEN_IDENTITIES[n]


def test_decomposition_json_round_trip():
    dec = decompose_type_c_normal(2)
    data = json.loads(json.dumps(dec.to_json_dict()))
    assert WaringDecomposition.from_json_dict(data) == dec
    assert data["terms"][0]["coefficient"] == "4/81"


def test_verify_decomposition_failure():
    F = normal_form(2)
    wrong = WaringDecomposition.assemble(3, 3, [(Fraction(1), LinearForm([1, 0, 0]))])
    ok, residual = verify_decomposition(F, wrong)
    assert not ok
    assert residual == F - parse("x0^3", nvars=3)
    with pytest.raises(AmbientMismatchError):
        verify_decomposition(parse("x0^3", nvars=2), wrong)


def test_verify_decomposition_rejects_proportional_forms():
    # built directly, so assemble cannot merge the two proportional forms:
    # (1/2)(x0+x1)^3 + (1/16)(2x0+2x1)^3 = (x0+x1)^3 exactly
    dec = WaringDecomposition(3, 2, (
        (Fraction(1, 2), LinearForm([1, 1])),
        (Fraction(1, 16), LinearForm([2, 2])),
    ))
    ok, residual = verify_decomposition(parse("(x0 + x1)^3"), dec)
    assert residual.is_zero()
    assert ok is False
    # the proportionality key of a form: its primitive multiple with a
    # positive lead, as linalg._primitive gives it, on seeded rows with
    # negative leads, zero entries and rows that are already primitive
    rng = random.Random(2021)
    rows = [[0, -4, 6, 0], [3, 0, -5], [-7], [0, 0, 1], [12, -18, 30]]
    for _ in range(60):
        row = [rng.choice([0, 0, 1, -1, 2, -3, 7]) * rng.choice([1, 6, -10]) for _ in range(4)]
        row[rng.randrange(4)] = rng.choice([-5, 2, 9])
        rows.append(row)
    for row in rows:
        primitive = linalg._primitive({c: v for c, v in enumerate(row) if v})
        assert cubics._direction(row) == tuple(primitive.get(c, 0) for c in range(len(row)))
        assert cubics._direction([-4 * v for v in row]) == cubics._direction(row)


def _rational(rng, span=4):
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3, 5)))


def _rational_change(rng, nvars):
    while True:
        try:
            return LinearChange([[_rational(rng, 3) for _ in range(nvars)]
                                 for _ in range(nvars)])
        except ValueError:
            continue


def _raw_power_sum(rng, degree, nvars, cancel, unused=()):
    """Rational, mostly non-monic forms with one zero coefficient and one
    multiple of the first form, whose coefficient cancels the first term
    exactly or merges with it; no form uses the columns in unused."""
    free = [j for j in range(nvars) if j not in unused]
    raw = []
    for _ in range(rng.randint(1, 5)):
        form = [0 if j in unused else _rational(rng) for j in range(nvars)]
        if not any(form):
            form[free[rng.randrange(len(free))]] = Fraction(-3, 7)
        raw.append((_rational(rng), form))
    coef, form = raw[0]
    s = Fraction(rng.choice((-2, 3)), rng.choice((1, 2, 5)))
    raw.append((-coef / s ** degree if cancel else _rational(rng) or Fraction(1),
                [s * c for c in form]))
    raw.append((Fraction(0), [0 if j in unused else _rational(rng) for j in range(nvars)]))
    rng.shuffle(raw)
    return raw


def _pairs(dec):
    return [(c, f.coeffs) for c, f in dec.terms]


def _raised(call):
    try:
        call()
    except ValueError as exc:
        return type(exc)
    return None


def test_integer_power_sums_match_the_fraction_reference():
    """assemble, compose, expand and verify_decomposition against the
    Fraction arithmetic they replaced (tests/oracles.py): degrees 0-7 in
    1-9 variables, rational forms and changes, 30-digit entries, forms that
    leave columns unused, merged, cancelled and zero terms, zero forms
    through the public constructor, forms of another degree, every ambient
    mismatch, and degrees past the interpreter's recursion limit."""
    rng = random.Random(1213)
    seen = {"ok": 0, "residual": 0, "dependent": 0, "cancelled": 0,
            "mismatch": 0}
    for degree in range(8):
        for nvars in range(1, 10 if degree < 5 else 6):
            for cancel in (False, True):
                unused = set(range(1, nvars, 2)) if cancel else set()
                raw = _raw_power_sum(rng, degree, nvars, cancel, unused)
                if nvars % 2:
                    raw.append((Fraction(rng.randrange(10 ** 29, 10 ** 30), 7), [
                        0 if j in unused else Fraction(rng.randrange(-10 ** 30, 10 ** 30),
                                                       rng.randrange(1, 10 ** 30))
                        for j in range(nvars)]))
                dec = WaringDecomposition.assemble(
                    degree, nvars, [(c, LinearForm(f)) for c, f in raw])
                assert _pairs(dec) == assemble_by_fractions(degree, nvars, raw)
                seen["cancelled"] += len(dec) < len(raw) - 2
                change = _rational_change(rng, nvars)
                moved = dec.compose(change)
                assert _pairs(moved) == compose_by_fractions(
                    degree, nvars, _pairs(dec), change.matrix)
                expansion = dict(power_sum_by_fractions(degree, tuple(_pairs(moved))))
                assert moved.expand().terms == expansion
                exact = Polynomial(nvars, expansion)
                far = tuple(degree + 1 if j == nvars - 1 else 0 for j in range(nvars))
                forms = [exact, exact + Polynomial.monomial(
                    nvars, rng.choice(monomials(nvars, degree)), _rational(rng) or 1),
                    exact + Polynomial.monomial(nvars, far, Fraction(2, 3)),
                    exact + Polynomial.constant(nvars, Fraction(-5, 2)),
                    Polynomial.zero(nvars)]
                # built directly, so the multiple of the first form stays
                # apart; with cancel, a zero coefficient and a zero form too
                unmerged = WaringDecomposition(degree, nvars, tuple(
                    (c, LinearForm(f)) for c, f in raw if c or cancel) + (
                    ((_rational(rng) or 1, LinearForm([0] * nvars)),) if cancel else ()))
                assert unmerged.expand().terms == dict(
                    power_sum_by_fractions(degree, tuple(_pairs(unmerged))))
                for candidate in (moved, unmerged):
                    for form in forms:
                        independent, residual = residual_by_fractions(
                            form.terms, nvars, nvars, degree, _pairs(candidate))
                        ok, got = verify_decomposition(form, candidate)
                        assert got.nvars == nvars and got.terms == residual
                        assert ok is (independent and not residual)
                        seen["ok"] += ok
                        seen["residual"] += bool(residual)
                        seen["dependent"] += not independent
                bigger = LinearChange.identity(nvars + 1)
                assert _raised(lambda: moved.compose(bigger)) is AmbientMismatchError
                assert _raised(lambda: compose_by_fractions(
                    degree, nvars, _pairs(moved), bigger.matrix)) is AmbientMismatchError
                wide = Polynomial.zero(nvars + 1)
                padded = WaringDecomposition(degree, nvars, tuple(
                    (c, LinearForm(f.coeffs + (1,))) for c, f in moved.terms))
                for form, candidate in ((wide, moved), (exact, padded)):
                    raised = _raised(lambda: verify_decomposition(form, candidate))
                    assert raised is _raised(lambda: residual_by_fractions(
                        form.terms, form.nvars, nvars, degree, _pairs(candidate)))
                    seen["mismatch"] += raised is AmbientMismatchError
                # forms of two lengths: the reference refuses them too
                for lengths in ((nvars, nvars + 1), (nvars + 1, nvars)):
                    mixed = WaringDecomposition(degree, nvars, [
                        (1, LinearForm(range(1, k + 1))) for k in lengths])
                    assert _raised(lambda: residual_by_fractions(
                        exact.terms, nvars, nvars, degree, _pairs(mixed))) is ValueError
                    assert _raised(lambda: verify_decomposition(exact, mixed)) \
                        is AmbientMismatchError
                    assert _raised(mixed.expand) is AmbientMismatchError
    assert min(seen.values()) >= 20, seen
    for degree, nvars in ((3000, 1), (60, 2)):
        dec = WaringDecomposition(degree, nvars, [
            (_rational(rng) or 1, LinearForm([_rational(rng) or 1 for _ in range(nvars)]))
            for _ in range(3)])
        expansion = dict(power_sum_by_fractions(degree, tuple(_pairs(dec))))
        assert dec.expand().terms == expansion
        for form in (Polynomial(nvars, expansion), Polynomial.variable(nvars, 0) ** 2):
            independent, residual = residual_by_fractions(
                form.terms, nvars, nvars, degree, _pairs(dec))
            ok, got = verify_decomposition(form, dec)
            assert got.terms == residual and ok is (independent and not residual)


def test_decomposition_holds_integers_over_one_denominator():
    """A decomposition's coefficients are ints over one _den > 0 with gcd 1,
    as a Polynomial's terms are, whichever of the public constructor,
    assemble, compose or decompose_binary built it: equal values compare
    and hash equal, terms gives them back as Fractions, the JSON payload
    and dataclasses.replace round-trip, and no constructor takes a
    negative degree."""
    rng = random.Random(2002)
    built = [decompose_type_c_normal(3),
             decompose_binary(parse("2*x0^3 + x0^2*x1 + 6*x0*x1^2 + 3*x1^3")).decomposition]
    for degree in range(1, 5):
        for nvars in (1, 2, 3, 5):
            pairs = [(c, LinearForm(f))
                     for c, f in _raw_power_sum(rng, degree, nvars, cancel=False)]
            dec = WaringDecomposition.assemble(degree, nvars, pairs)
            built += [WaringDecomposition(degree, nvars, pairs), dec,
                      dec.compose(_rational_change(rng, nvars))]
    for dec in built:
        assert dec._den > 0 and all(type(c) is int for c, _ in dec._terms)
        assert math.gcd(dec._den, *(c for c, _ in dec._terms)) == 1
        assert dec.terms == tuple((Fraction(c, dec._den), f) for c, f in dec._terms)
        again = dataclasses.replace(dec, terms=dec.terms)
        assert again == dec and hash(again) == hash(dec)
        if dec == WaringDecomposition.assemble(dec.degree, dec.nvars, dec.terms):
            assert WaringDecomposition.from_json_dict(dec.to_json_dict()) == dec
    (coef, form), *rest = built[0].terms
    bumped = dataclasses.replace(built[0], terms=((coef + 1, form), *rest))
    assert bumped.terms == ((coef + 1, form), *rest) and bumped != built[0]
    assert not verify_decomposition(normal_form(3), bumped)[0]
    line = LinearForm([1, 1])
    halves = [WaringDecomposition(3, 2, [(c, line)]) for c in (Fraction(1, 2), "2/4")]
    halves.append(WaringDecomposition.assemble(3, 2, [(Fraction(1, 16), LinearForm([2, 2]))]))
    halves.append(WaringDecomposition.assemble(3, 2, [(Fraction(1, 4), line)] * 2))
    assert all(h == halves[0] and hash(h) == hash(halves[0]) for h in halves)
    assert halves[0]._terms == ((1, line),) and halves[0]._den == 2
    for build in (WaringDecomposition, WaringDecomposition.assemble):
        with pytest.raises(ValueError, match="degree >= 0"):
            build(-1, 2, [(1, line)])


def test_verifying_a_witness_builds_only_its_residual(monkeypatch):
    """The check runs in integers: verifying a correct 2n+1-cube witness of
    a densely changed pinch form builds one Polynomial, the empty residual,
    through the public constructor or the private one from integers."""
    rng = random.Random(3)
    built = []
    init, make = Polynomial.__init__, Polynomial._make

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_make(cls, *args, **kwargs):
        built.append(1)
        return make(*args, **kwargs)

    for n in range(2, 7):
        change = _rational_change(rng, n + 1)
        form = substitute(normal_form(n), change)
        witness = decompose_type_c_normal(n).compose(change)
        monkeypatch.setattr(Polynomial, "__init__", counting)
        monkeypatch.setattr(Polynomial, "_make", classmethod(counting_make))
        ok, residual = verify_decomposition(form, witness)
        monkeypatch.setattr(Polynomial, "__init__", init)
        monkeypatch.setattr(Polynomial, "_make", classmethod(make.__func__))
        assert ok and residual.is_zero() and len(witness) == 2 * n + 1
        assert len(built) == 1, f"n = {n}: {len(built)} polynomials built"
        built.clear()


def test_decompose_type_c_with_explicit_change():
    rc = normal_form_pair(3)
    dec = decompose_type_c(rc, change=LinearChange.identity(4))
    ok, _ = verify_decomposition(rc.form(), dec)
    assert ok and len(dec) == 7
    with pytest.raises(InvalidChange):
        decompose_type_c(rc, change=LinearChange([[1, 0, 0, 0], [0, 2, 0, 0],
                                                  [0, 0, 1, 0], [0, 0, 0, 1]]))
    with pytest.raises(InvalidChange):
        decompose_type_c(rc, change=LinearChange.identity(5))


def test_supplied_change_is_inverted_without_elimination(monkeypatch):
    """On seeded dense changes of the pinch pair, n = 2..6, building
    LinearChange(inverse) and decompose_type_c with it call no
    linalg.inverse and build no RowSpan: the change is proven invertible
    modulo PRIME and its inverse is read off the pinch identity.  The
    witness equals _lift through the change inverted by elimination."""
    rng = random.Random(2406)
    cases = []
    for n in range(2, 7):
        for _ in range(4):
            mat = _random_change(rng, n + 1)
            pair = normal_form_pair(n)
            rc = ReducibleCubic(
                LinearForm.from_polynomial(substitute(pair.linear.to_polynomial(), mat)),
                substitute(pair.quadric, mat))
            exact = LinearChange(mat.inverse().matrix)
            exact._inverse_pair()  # by elimination
            expected = cubics._lift(rc.form(), decompose_type_c_normal(n), exact, "tangent")
            cases.append((rc, mat.inverse().matrix, expected))
    calls = []
    real_init = linalg.RowSpan.__init__
    monkeypatch.setattr(linalg, "inverse", lambda mat: calls.append(("inverse", mat)))
    monkeypatch.setattr(linalg.RowSpan, "__init__",
                        lambda span, ncols: calls.append(("RowSpan", ncols))
                        or real_init(span, ncols))
    for rc, inv, expected in cases:
        witness = decompose_type_c(rc, change=LinearChange(inv))
        assert calls == []
        assert witness == expected and witness._terms == expected._terms
        assert len(witness) == 2 * rc.nvars - 1


def test_form_matches_the_fraction_product():
    """ReducibleCubic.form() multiplies the cleared factors in ints: against
    the Fraction product on seeded factors with denominators up to 10^30+3,
    and on factors whose products cancel in part."""
    rng = random.Random(61)
    big = 10 ** 30 + 3

    def coef():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9) * rng.choice([1, big]),
                        rng.choice([1, 2, 3, big]))

    for _ in range(60):
        nv = rng.randint(1, 6)
        linear = [coef() if rng.random() < 0.7 else 0 for _ in range(nv)]
        linear[rng.randrange(nv)] = coef()
        quadric = Polynomial(nv, {m: coef() for m in monomials(nv, 2) if rng.random() < 0.6}
                             or {(2,) + (0,) * (nv - 1): coef()})
        rc = ReducibleCubic(LinearForm(linear), quadric)
        assert rc.form().terms == product_by_fractions(linear, quadric.terms)
    # (a*x0 + b*x1)*(a*x0^2 - b*x0*x1): the x0^2*x1 terms cancel
    a, b = Fraction(3, big), Fraction(-big, 7)
    rc = ReducibleCubic(LinearForm([a, b]), Polynomial(2, {(2, 0): a, (1, 1): -b}))
    assert rc.form().terms == product_by_fractions([a, b], rc.quadric.terms)
    assert rc.form().terms == {(3, 0): a * a, (1, 2): -b * b}


def test_decompose_type_c_error_paths(monkeypatch):
    """With a change supplied, the pinch check runs first and classify only
    when it fails; every error keeps its type and message: binary input,
    a class other than TypeC (with or without a change, of either size), a
    change of the wrong size and one that misses the normal form."""
    calls = []
    classifies = cubics.classify
    monkeypatch.setattr(cubics, "classify", lambda rc: calls.append(rc) or classifies(rc))
    rc = normal_form_pair(3)
    dec = decompose_type_c(rc, change=LinearChange.identity(4))
    assert calls == [] and verify_decomposition(rc.form(), dec)[0]
    binary = _product("x0", "x0*x1", nvars=2)
    type_a = _product("x0", "x0^2 + x1^2 + x2^2")
    cases = [
        (binary, None, ValueError, "the projective classification needs at least 3 "
                                   "variables; binary forms go through decompose_binary"),
        (binary, LinearChange.identity(2), ValueError, "the projective classification"),
        (type_a, None, ValueError, "decomposition by normal form needs TypeC, got TypeA"),
        (type_a, LinearChange.identity(3), ValueError, "needs TypeC, got TypeA"),
        (type_a, LinearChange.identity(4), ValueError, "needs TypeC, got TypeA"),
        (rc, LinearChange.identity(5), InvalidChange,
         "change of coordinates has the wrong size"),
        (rc, LinearChange([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
         InvalidChange, "the change does not carry the cubic to the normal form"),
    ]
    for cubic, change, error, message in cases:
        with pytest.raises(error, match=message) as info:
            decompose_type_c(cubic, change=change)
        assert type(info.value) is error


def test_decompose_type_c_rejects_other_classes():
    with pytest.raises(ValueError):
        decompose_type_c(_product("x0", "x0^2 + x1^2 + x2^2"))


def test_normalize_tangent_product():
    # tangent plane at p = (1,-3,2,1) on x0*x1 + x2*x3 + x3^2
    rc = _product("-3*x0 + x1 + x2 + 4*x3", "x0*x1 + x2*x3 + x3^2")
    change = normalize_tangent_product(rc)
    assert substitute(rc.form(), change) == normal_form(3)
    dec = decompose_type_c(rc)
    ok, _ = verify_decomposition(rc.form(), dec)
    assert ok and len(dec) == 7


def test_normalize_scaled_square():
    dec = decompose_type_c(_product("x0", "x0*x1 + 4*x2^2"))
    ok, _ = verify_decomposition(parse("x0^2*x1 + 4*x0*x2^2"), dec)
    assert ok and len(dec) == 5


def test_normalize_needs_extension():
    # x2^2 - 3*x3^2 is anisotropic over Q_2 and Q_3: no rational change
    # reaches the pinch form x0*(x0*x1 + x2*x3)
    with pytest.raises(NeedsFieldExtension, match="anisotropic over Q_2 and Q_3"):
        decompose_type_c(_product("x0", "x0*x1 + x2^2 - 3*x3^2"))


def test_normalize_similar_block():
    # x0 -> x0/2, x1 -> 4*x1 carries x0*(x0*x1 + 2*x2^2) onto the pinch form
    rc = _product("x0", "x0*x1 + 2*x2^2")
    assert substitute(rc.form(), normalize_tangent_product(rc)) == normal_form(2)
    dec = decompose_type_c(rc)
    ok, _ = verify_decomposition(rc.form(), dec)
    assert ok and len(dec) == 5


def test_normalize_isotropic_fallback():
    # diag(2, 2, -1) has no rational square pairing but contains (1, 1, 2)
    rc = _product("x0", "x0*x1 + 2*x2^2 + 2*x3^2 - x4^2")
    dec = decompose_type_c(rc)
    ok, _ = verify_decomposition(rc.form(), dec)
    assert ok and len(dec) == 9


def test_decompose_binary_fixtures():
    one = decompose_binary(parse("x0^3", nvars=2))
    assert one.rank == 1 and one.generator_degrees == (1, 4)
    assert len(one.decomposition) == 1

    two = decompose_binary(parse("x0^3 + x1^3"))
    assert two.rank == 2 and two.generator_degrees == (2, 3)
    ok, _ = verify_decomposition(parse("x0^3 + x1^3"), two.decomposition)
    assert ok

    three = decompose_binary(parse("x0^2*x1"))
    assert three.rank == 3 and three.generator_degrees == (2, 3)
    assert not three.lower_squarefree
    assert three.decomposition is None


def test_decompose_binary_higher_degree():
    F = parse("x0^5 + x1^5")
    result = decompose_binary(F)
    assert result.rank == 2
    ok, _ = verify_decomposition(F, result.decomposition)
    assert ok

    G = parse("(x0 + x1)^4 + (x0 - 2*x1)^4 + x1^4")
    result = decompose_binary(G)
    assert result.rank == 3
    ok, _ = verify_decomposition(G, result.decomposition)
    assert ok


def test_decompose_binary_validation():
    with pytest.raises(AmbientMismatchError):
        decompose_binary(parse("x0^3 + x2^3"))
    with pytest.raises(ValueError):
        decompose_binary(Polynomial.zero(2))
    with pytest.raises(ValueError):
        decompose_binary(parse("x0^2 + x1", nvars=2))


def test_binary_rank_never_exceeds_degree():
    rng = random.Random(77)
    from apolarity.poly import monomials
    for _ in range(40):
        d = rng.randint(1, 6)
        terms = {m: Fraction(rng.randint(-4, 4)) for m in monomials(2, d)
                 if rng.random() < 0.7}
        terms = {m: c for m, c in terms.items() if c}
        if not terms:
            continue
        F = Polynomial(2, terms)
        result = decompose_binary(F)
        assert 1 <= result.rank <= d
        if result.decomposition is not None:
            ok, _ = verify_decomposition(F, result.decomposition)
            assert ok
            assert len(result.decomposition) == result.rank


def _times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _seeded_generators(rng, count):
    """Binary operators sum_e c_e*d0^e*d1^(d-e) of degree 1..7, built from
    distinct and repeated rational roots, irreducible quadratics, and roots
    at 0 (factors d0) and at infinity (factors d1); returned as coefficient
    lists indexed by the exponent of d0."""
    out = []
    while len(out) < count:
        degree = rng.randint(1, 7)
        coeffs = [Fraction(rng.randint(1, 5), rng.randint(1, 3))
                  * rng.choice((1, -1))]
        roots = []
        while len(coeffs) - 1 < degree:
            room = degree - (len(coeffs) - 1)
            pick = rng.random()
            if pick < 0.1:
                coeffs = coeffs + [Fraction(0)]        # a root at infinity
            elif pick < 0.2:
                coeffs = [Fraction(0)] + coeffs        # a root at 0
            elif pick < 0.35 and roots:
                coeffs = _times(coeffs, [-rng.choice(roots), 1])   # repeated
            elif pick < 0.5 and room >= 2:
                b = rng.randint(-4, 4)
                c = Fraction(b * b, 4) + rng.randint(1, 6)  # no real root
                coeffs = _times(coeffs, [c, b, 1])
            elif pick < 0.55 and room >= 2:
                coeffs = _times(coeffs, [-rng.choice((2, 3, 5)), 0, 1])  # +-sqrt
            else:
                root = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                roots.append(root)
                coeffs = _times(coeffs, [-root, 1])
        out.append(coeffs)
    return out


def _with_roots(lead, roots, factors=()):
    """lead * prod (t - r) * prod f, coefficients from the constant up."""
    coeffs = [Fraction(lead)]
    for r in roots:
        coeffs = _times(coeffs, [-Fraction(r), Fraction(1)])
    for f in factors:
        coeffs = _times(coeffs, [Fraction(v) for v in f])
    return coeffs


# Generators whose roots defeat the first primes of the root finder: rational
# roots 105*k apart, equal modulo 3, 5 and 7 (and pairwise modulo 2);
# leading coefficients divisible by 2*3*5*7, which makes every root of the
# monic transform vanish modulo those primes; and irreducible quadratics
# with a double root modulo 3, or roots modulo 5, that meet a rational one.
_HARD_GENERATORS = [
    _with_roots(1, [2, 107, 212]),
    _with_roots(-3, [-1, 104, 209, 314]),
    _with_roots(Fraction(5, 7), [Fraction(1, 2), Fraction(1, 3),
                                 Fraction(1, 5), Fraction(1, 7)]),
    _with_roots(1, [Fraction(3, 2), Fraction(-5, 6), Fraction(7, 10),
                    Fraction(11, 14)]),
    _with_roots(1, [Fraction(1, 210), Fraction(211, 210)]),
    _with_roots(2310, [1, 211], [[1, 1, 1]]),
    _with_roots(1, [Fraction(1, 210), 2], [[1, 0, 1]]),
    _with_roots(1, [1, 106, 211], [[1, 1, 1]]),
]


def _huge_root_generators(rng, count):
    """(coeffs, roots, split): 1 to 4 distinct rational roots with
    numerators of 20 to 31 digits (two of them 105*k apart when there are
    several), over denominators of 1, 3 or 20 to 31 digits, times an
    irreducible quadratic when split is false."""
    out = []
    for _ in range(count):
        roots = set()
        size = rng.randint(1, 4)
        while len(roots) < size:
            num = rng.choice((1, -1)) * rng.randint(10 ** 19, 10 ** 30)
            den = rng.choice((1, 3, rng.randint(10 ** 19, 10 ** 30)))
            roots.add(Fraction(num, den))
            if len(roots) == 2 and rng.random() < 0.5:
                r = min(roots)
                roots = {r, r + 105 * rng.randint(1, 10 ** 6)}
        split = rng.random() < 0.7
        factors = [] if split else [[rng.randint(1, 10 ** 25), 0, 1]]
        out.append((_with_roots(rng.randint(1, 9), roots, factors),
                    sorted(roots), split))
    # (x0 + (10^30 + 3)*x1)^3 + (x0 - (10^30 + 7)*x1)^3 has the roots below
    out.append((_with_roots(1, [Fraction(1, 10 ** 30 + 3),
                                Fraction(-1, 10 ** 30 + 7)]),
                [Fraction(-1, 10 ** 30 + 7), Fraction(1, 10 ** 30 + 3)], True))
    return out


def _binary_operator(coeffs):
    d = len(coeffs) - 1
    return Polynomial(2, {(e, d - e): c for e, c in enumerate(coeffs) if c})


def _expected_split(coeffs):
    d = len(coeffs) - 1
    lo = next(i for i, c in enumerate(coeffs) if c)
    hi = max(i for i, c in enumerate(coeffs) if c)
    core = coeffs[lo:hi + 1]
    if lo > 1 or d - hi > 1 or not squarefree_euclid(core):
        return False, None
    roots = rational_roots_by_deflation(core)
    if roots is None:
        return True, None
    forms = [(0, 1)] * (lo == 1) + [(1, 0)] * (d - hi == 1)
    return True, forms + [(r, 1) for r in roots]


def test_split_matches_the_euclid_and_deflation_oracles():
    rng = random.Random(4242)
    seen = set()
    for coeffs in _seeded_generators(rng, 400) + _HARD_GENERATORS:
        squarefree, forms = _split(_binary_operator(coeffs))
        got = None if forms is None else [f.coeffs for f in forms]
        assert (squarefree, got) == _expected_split(coeffs), coeffs
        seen.add((len(coeffs) - 1, squarefree, forms is not None))
    # every degree 1..7 occurs, with split, unsplit and repeated generators
    assert {d for d, _, _ in seen} == set(range(1, 8))
    assert {(sf, split) for _, sf, split in seen} == {
        (True, True), (True, False), (False, False)}
    # trial division cannot reach roots of 20 digits and more: their
    # construction is the oracle; _rational_roots takes integer coefficients
    for coeffs, roots, split in _huge_root_generators(random.Random(4244), 40):
        assert _rational_roots(linalg.cleared_rows([coeffs])[0][0]) == roots, coeffs
        squarefree, forms = _split(_binary_operator(coeffs))
        assert squarefree
        assert forms == ([LinearForm([r, 1]) for r in roots] if split else None)


# A sum of small multiples of seventh powers whose degree-4 apolar generator
# has 17-digit coefficients; trial division over its root candidates ran
# past two minutes.
_DEGREE_SEVEN = ("-73627*x0^7 + 993181*x0^6*x1 - 4119801*x0^5*x1^2 "
                 "+ 8835365*x0^4*x1^3 - 11052895*x0^3*x1^4 "
                 "+ 7691943*x0^2*x1^5 - 3884237*x0*x1^6 - 3732*x1^7")


def test_decompose_binary_with_a_seventeen_digit_generator():
    form = parse(_DEGREE_SEVEN)
    start = time.perf_counter()
    result = decompose_binary(form)
    assert time.perf_counter() - start < 1.0
    sympy = pytest.importorskip("sympy")
    gens = sorted(apolar_ideal(form).generators,
                  key=lambda g: g.homogeneous_degree())
    degrees = tuple(g.homogeneous_degree() for g in gens)
    assert result.generator_degrees == degrees == (4, 5)
    t = sympy.symbols("t")
    lower = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * t ** e
                           for (e, _), c in gens[0].terms.items()), t)
    assert lower.degree() == 4 and lower.eval(0) != 0
    roots = sympy.roots(lower)
    squarefree = sum(roots.values()) == 4 and set(roots.values()) == {1}
    assert result.rank == (4 if squarefree else 5) == 4
    rational = sympy.roots(lower, filter="Q")
    assert (result.decomposition is not None) == (len(rational) == 4)


def test_squarefree_matches_euclid_on_random_polynomials():
    rng = random.Random(99)
    for _ in range(300):
        p = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 8))]
        if not p[-1]:
            p[-1] = Fraction(1)
        assert _squarefree(p) == squarefree_euclid(p), p


def _sylvester_full_rank(p):
    """The exact-rank answer: the Sylvester matrix of p and p' has full
    rank, by Bareiss elimination."""
    m = len(p) - 1
    if m < 1:
        return True
    dp = [c * i for i, c in enumerate(p) if i]
    rows = [[0] * i + p + [0] * (m - 2 - i) for i in range(m - 1)]
    rows += [[0] * i + dp + [0] * (m - 1 - i) for i in range(m)]
    return bareiss_rank(rows) == 2 * m - 1


def _poly_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_squarefree_is_proven_modulo_the_prime_and_exact_when_that_falls_short(monkeypatch):
    """_squarefree gives the exact-rank answer on seeded squarefree and
    non-squarefree integer polynomials; the squarefree ones of this seed are
    proven modulo linalg.PRIME with no exact rank, and those that are
    squarefree over Q but not modulo PRIME take the exact rank."""
    rng = random.Random(4026)
    squarefree, repeated = [], []
    for _ in range(40):
        p = [rng.randint(-9, 9) for _ in range(rng.randint(2, 25))]
        p[-1] = p[-1] or 1
        (squarefree if squarefree_euclid(p) else repeated).append(p)
        q = [rng.randint(-5, 5) for _ in range(rng.randint(2, 6))]
        q[-1] = q[-1] or 1
        repeated.append(_poly_product(p, _poly_product(q, q)))
    prime = linalg.PRIME
    falls_short = [[-prime, 0, 1], _poly_product([-prime, 1], [0, 3, 1]),
                   _poly_product([prime + 1, 1], [1, 1])]
    assert len(squarefree) > 20 and len(repeated) >= 40
    ranks = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: ranks.append(1) or rank(rows))
    for p in squarefree:
        assert _squarefree(p) is True is _sylvester_full_rank(p), p
    assert ranks == []
    for p in repeated + falls_short:
        assert _squarefree(p) is _sylvester_full_rank(p), p
    assert len(ranks) == len(repeated) + len(falls_short)
    assert [_squarefree(p) for p in falls_short] == [True, True, True]


def test_decompose_binary_of_degree_40_is_fast():
    """A random binary form of degree 40: its lower apolar generator has
    coefficients of hundreds of bits, and exact elimination on their
    Sylvester matrix once took seconds.  The answer is the one that route
    gave: rank 21 from generators of degrees 21 and 21, the lower one
    squarefree and not split over Q."""
    rng = random.Random(7)
    form = Polynomial(2, {(i, 40 - i): rng.randint(-9, 9) for i in range(41)})
    start = time.perf_counter()
    result = decompose_binary(form)
    assert time.perf_counter() - start < 1
    assert (result.rank, result.generator_degrees, result.lower_squarefree,
            result.decomposition) == (21, (21, 21), True, None)


def test_split_against_sympy():
    sympy = pytest.importorskip("sympy")
    a, b, t = sympy.symbols("a b t")
    rng = random.Random(4243)
    huge = [coeffs for coeffs, _, _ in
            _huge_root_generators(random.Random(4245), 20)]
    for coeffs in _seeded_generators(rng, 120) + _HARD_GENERATORS + huge:
        d = len(coeffs) - 1
        rational = [sympy.Rational(c.numerator, c.denominator) for c in coeffs]
        form = sum(c * a ** e * b ** (d - e) for e, c in enumerate(rational))
        _, factors = sympy.sqf_list(form)
        expect_squarefree = all(mult == 1 for _, mult in factors)
        squarefree, forms = _split(_binary_operator(coeffs))
        assert squarefree == expect_squarefree, coeffs
        if not squarefree:
            continue
        lo = next(i for i, c in enumerate(coeffs) if c)
        hi = max(i for i, c in enumerate(coeffs) if c)
        core = sum(c * t ** i for i, c in enumerate(rational[lo:hi + 1]))
        roots = sympy.roots(sympy.Poly(core, t), filter="Q") if hi > lo else {}
        if sum(roots.values()) < hi - lo:
            assert forms is None
            continue
        expected = {(0, 1)} if lo == 1 else set()
        if d - hi == 1:
            expected.add((1, 0))
        expected |= {(Fraction(int(r.p), int(r.q)), 1) for r in roots}
        assert {f.coeffs for f in forms} == expected, coeffs
