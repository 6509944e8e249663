import json
import random
from fractions import Fraction

import pytest

from apolarity.cubics import (CubicKind, InvalidChange,
                              NeedsFieldExtension, ReducibleCubic,
                              WaringDecomposition, classify, decompose_binary,
                              decompose_type_c, decompose_type_c_normal,
                              normal_form, normal_form_pair,
                              normalize_tangent_product, quadric_matrix,
                              split_change, split_normal_form,
                              verify_decomposition)
from apolarity.poly import (AmbientMismatchError, LinearChange, LinearForm,
                            Polynomial, parse, substitute)


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
    with pytest.raises(NeedsFieldExtension):
        decompose_type_c(_product("x0", "x0*x1 + 2*x2^2"))


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
