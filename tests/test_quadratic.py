"""Local invariants, Legendre's descent and the similarity test of
quadratic.py, each against a brute-force or independent computation, and
the acceptance check for the pinch normalization: no false failure on
dense changes of the (scaled) pinch form for n = 2..10, and every true
obstruction named."""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from fractions import Fraction

import pytest

from apolarity import (LinearChange, LinearForm, NeedsFieldExtension, Polynomial,
                       ReducibleCubic, normal_form, normalize_tangent_product,
                       parse, rank_report, substitute)
from apolarity import linalg, quadratic
from apolarity.lattice import _isotropic_mod, _minimize, diagonalize
from apolarity.cli import main
from apolarity.cubics import _carried_change, _quadric_ints, quadric_matrix
from apolarity.linalg import inverse, rank
from oracles import bareiss_rank, diagonalize_by_fractions, gram_by_fractions
from test_golden_cli import LATTICE_5, LATTICE_7

SMALL = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, 10, -14, 15, -21, 30]


def _solvable_mod(a: int, b: int, p: int) -> bool:
    """a*x^2 + b*y^2 = z^2 has a solution mod p^k with x, y, z not all
    divisible by p; k = 2 decides Q_p for odd p and entries of valuation at
    most 1, k = 5 for p = 2."""
    mod = p ** (5 if p == 2 else 2)
    roots: dict[int, list[int]] = {}
    for z in range(mod):
        roots.setdefault(z * z % mod, []).append(z)
    return any((x % p or y % p or z % p)
               for x in range(mod) for y in range(mod)
               for z in roots.get((a * x * x + b * y * y) % mod, []))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hilbert_symbol_against_brute_force(p):
    values = SMALL if p < 7 else [1, -1, 3, -3, 7, -7, 14, -21]
    for a, b in itertools.product(values, repeat=2):
        expected = 1 if _solvable_mod(a, b, p) else -1
        assert quadratic.hilbert_symbol(a, b, p) == expected, (a, b, p)


def test_hilbert_symbol_at_the_real_place():
    for a, b in itertools.product(SMALL, repeat=2):
        assert quadratic.hilbert_symbol(a, b, -1) == (-1 if a < 0 and b < 0 else 1)


def test_squarefree_parts_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    numbers = [rng.randint(1, 10 ** 15) for _ in range(60)]
    numbers += [rng.randint(10 ** 6, 2 * 10 ** 6) ** 2 * 1000003 * 999983 for _ in range(5)]
    for v in numbers:
        expected = 1
        for p, e in sympy.factorint(v).items():
            if e % 2:
                expected *= p
        assert quadratic.squarefree_part(v) == expected
        assert quadratic.squarefree_part(Fraction(-v, 4)) == -expected
        assert dict(quadratic.factorint(v)) == sympy.factorint(v)


def _squarefree_entries():
    return [a for a in range(-40, 41) if a and quadratic.squarefree_part(a) == a]


def test_legendre_solutions_check_by_substitution():
    rng = random.Random(5)
    entries = _squarefree_entries()
    solved = 0
    for _ in range(400):
        a, b, c = (rng.choice(entries) * rng.choice([1, 1, 3, 101, 997])
                   for _ in range(3))
        a, b, c = (quadratic.squarefree_part(v) for v in (a, b, c))
        if not quadratic.is_isotropic([a, b, c]):
            continue
        x, y, z = quadratic._ternary_zero(a, b, c)
        assert (x, y, z) != (0, 0, 0)
        assert a * x * x + b * y * y + c * z * z == 0
        solved += 1
    assert solved > 25


def test_isotropic_by_brute_force_is_decided_isotropic():
    rng = random.Random(7)
    entries = _squarefree_entries()
    for _ in range(150):
        k = rng.choice([3, 4])
        form = [rng.choice(entries) for _ in range(k)]
        box = range(-5, 6) if k == 3 else range(-3, 4)
        found = any(sum(a * v * v for a, v in zip(form, vec)) == 0
                    for vec in itertools.product(box, repeat=k) if any(vec))
        if found:
            assert quadratic.is_isotropic(form), form


def _scaled_pinch_product(n: int, c: int, mat) -> ReducibleCubic:
    """x0*(x0*x1 + c*N) with x_i replaced by sum_j mat[i][j] x_j."""
    nv = n + 1
    m = [[Fraction(0)] * nv for _ in range(nv)]
    m[0][1] = m[1][0] = Fraction(1, 2)
    if n == 2:
        m[2][2] = Fraction(c)
    else:
        m[2][3] = m[3][2] = Fraction(c, 2)
        for i in range(4, nv):
            m[i][i] = Fraction(c)
    pushed = [[sum(mat[a][i] * m[a][b] * mat[b][j] for a in range(nv) for b in range(nv))
               for j in range(nv)] for i in range(nv)]
    terms = {}
    for i in range(nv):
        for j in range(i, nv):
            coef = pushed[i][j] * (1 if i == j else 2)
            if coef:
                exps = [0] * nv
                exps[i] += 1
                exps[j] += 1
                terms[tuple(exps)] = coef
    return ReducibleCubic(LinearForm(mat[0]), Polynomial(nv, terms))


def _dense_change(rng: random.Random, nv: int):
    while True:
        mat = [[rng.randint(-2, 2) for _ in range(nv)] for _ in range(nv)]
        if rank(mat) == nv:
            return mat


@pytest.mark.parametrize("n", range(2, 11))
def test_no_false_failures_on_dense_changes(n):
    """ROADMAP acceptance: 50 seeded dense changes of the pinch form, the
    quadric block scaled by c, each normalize exactly, checked here by
    substituting the cubic, independently of the matrix self-check inside
    normalize_tangent_product."""
    rng = random.Random(1000 + n)
    for _ in range(50):
        c = rng.choice([1, 1, 2, 3, -1, 5, 6, -7, 10, 1 / Fraction(3)])
        rc = _scaled_pinch_product(n, c, _dense_change(rng, n + 1))
        assert substitute(rc.form(), normalize_tangent_product(rc)) == normal_form(n)


def _normalization_inputs():
    """Dense changes of the scaled pinch form, n = 2..8, and the two
    products of the golden file whose normalization runs through
    minimization and LLL."""
    rng = random.Random(3000)
    for n in range(2, 9):
        for _ in range(3):
            c = rng.choice([1, 2, -3, 6, 1 / Fraction(5)])
            yield _scaled_pinch_product(n, c, _dense_change(rng, n + 1))
    for linear, quadric in (LATTICE_5, LATTICE_7):
        q = parse(quadric)
        yield ReducibleCubic.from_polynomials(parse(linear, nvars=q.nvars), q)


def _eliminated_inverse(change):
    rows, den = inverse([list(row) for row in change.matrix])
    return [[Fraction(v, den) for v in row] for row in rows]


def test_normalization_inverse_is_exact():
    """The change's inverse, a*P^-1*C^T*M from the pinch identity, is the
    inverse that elimination gives: for the change normalize_tangent_product
    builds, and, through cubics._carried_change, for the same change
    supplied afresh, with L*Q or with L*Q refactored as (a*L)*(Q/a)."""
    rng = random.Random(3001)
    for rc in _normalization_inputs():
        change = normalize_tangent_product(rc)
        a = rng.choice([2, -1, Fraction(3, 7)])
        rescaled = ReducibleCubic(LinearForm(a * v for v in rc.linear.coeffs),
                                  rc.quadric * (1 / Fraction(a)))
        for cubic, supplied in ((rc, change), (rc, LinearChange(change.matrix)),
                                (rescaled, LinearChange(change.matrix))):
            carried = _carried_change(cubic, _quadric_ints(cubic.quadric),
                                      linalg.cleared_rows(list(zip(*supplied.matrix))))
            assert carried == supplied and carried._inv is not None
            expected = _eliminated_inverse(supplied)
            assert [list(row) for row in carried.inverse().matrix] == expected
            assert all(type(v) is Fraction for row in carried.inverse().matrix for v in row)
        assert [list(row) for row in change.inverse().matrix] == _eliminated_inverse(change)


def test_normalization_builds_its_change_without_elimination(monkeypatch):
    """normalize_tangent_product calls no linalg.inverse: neither to build
    its change (LinearChange would) nor to invert it; lattice.reduced_basis
    forms its majorant without an inverse as well.  It calls no
    linalg.kernel_basis either: the tangency point is an integer kernel
    vector from RowSpan.kernel_rows, and the residual block's basis is
    written down."""
    calls = []
    monkeypatch.setattr(linalg, "inverse", lambda mat: calls.append(mat))
    monkeypatch.setattr(linalg, "kernel_basis", lambda *args: calls.append(args))
    for rc in _normalization_inputs():
        normalize_tangent_product(rc)
    assert calls == []


def test_normalization_builds_no_fraction(monkeypatch):
    """The pinch normalization runs on integers over one denominator: with
    Fraction.__new__ counting its calls, normalize_tangent_product on seeded
    dense changes of the scaled pinch form for n = 2..9, some of which reach
    lattice.reduced_basis, builds no Fraction."""
    rng = random.Random(4100)
    products = [_scaled_pinch_product(n, rng.choice([1, 2, -3, 6, Fraction(1, 5)]),
                                      _dense_change(rng, n + 1))
                for n in range(2, 10) for _ in range(3)]
    reached, calls = [], []
    reduce = quadratic.reduced_basis
    monkeypatch.setattr(quadratic, "reduced_basis",
                        lambda *args: reached.append(1) or reduce(*args))
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for rc in products:
        normalize_tangent_product(rc)
    monkeypatch.undo()
    assert calls == [] and len(reached) >= 10


def _leibniz_det(a) -> int:
    k = len(a)
    total = 0
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(k))
    return total


def _prime_factors(n: int) -> list[int]:
    n, out, p = abs(n), [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def _symmetric(rng, k, entry):
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            m[i][j] = m[j][i] = entry()
    return m


def test_diagonalize_matches_the_fraction_loop():
    """lattice.diagonalize, fraction-free on an integer symmetric matrix g,
    against the Fraction loop on g: the same diagonal h/s^2 and the same
    columns b/s, with every scale s positive, on seeded matrices whose first
    pivot is zero and is swapped with a later diagonal entry, or has a later
    column added because the whole diagonal is zero; on sparse ones, where
    zero pivots also appear during the elimination; and on the numerators of
    entries over 10^30+3 and 10^30+7.  Degenerate matrices raise in both."""
    rng = random.Random(4181)
    huge = [Fraction(1, 10 ** 30 + 3), Fraction(-7, 10 ** 30 + 7), Fraction(10 ** 30 + 7, 3)]
    kinds = {"swap": 0, "add": 0, "degenerate": 0}
    for trial in range(240):
        k = rng.randint(1, 7)
        style = trial % 4
        if style == 3:
            m = _symmetric(rng, k, lambda: rng.choice(huge + [0, 1, -2]) * rng.randint(-3, 3))
        else:
            m = _symmetric(rng, k, lambda: rng.choice([0, 0, 0, 1, -1, 2, Fraction(1, 2)])
                           if style == 2 else rng.randint(-4, 4))
        if style == 0 and k > 1:
            m[0][0] = 0
            m[1][1] = m[1][1] or 3
        if style == 1:
            for i in range(k):
                m[i][i] = 0
        g, _ = linalg.cleared_rows([[Fraction(v) for v in row] for row in m])
        try:
            expected = diagonalize_by_fractions(g)
        except ValueError:
            kinds["degenerate"] += 1
            with pytest.raises(ValueError, match="degenerate block"):
                diagonalize(g)
            continue
        h, b, s = diagonalize(g)
        assert all(type(v) is int for v in h + s + [v for col in b for v in col])
        assert min(s) > 0
        assert ([Fraction(v, w * w) for v, w in zip(h, s)],
                [[Fraction(v, w) for v in col] for col, w in zip(b, s)]) == expected
        if k > 1 and g[0][0] == 0:
            kinds["swap" if any(g[i][i] for i in range(k)) else "add"] += 1
    assert min(kinds.values()) >= 10, kinds


def test_minimized_basis_carries_a_multiple_of_the_form():
    """_minimize keeps its basis as integer columns over one denominator:
    with B those columns divided by it, B^T g B is a rational multiple of
    the integral h it returns, also after it divided a column by p."""
    rng = random.Random(71)
    divided = 0
    for _ in range(60):
        k = rng.randint(2, 5)
        while True:
            a = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
            if bareiss_rank(a) == k:
                break
        d = [rng.choice([1, -1, 2, 3, -5]) * rng.choice([1, 4, 9, 25, 12, 18, 75])
             for _ in range(k)]
        g = [[sum(a[t][i] * d[t] * a[t][j] for t in range(k)) for j in range(k)]
             for i in range(k)]
        det = _leibniz_det(a) ** 2 * math.prod(d)
        h, (cols, den) = _minimize(g, det, _prime_factors(det))
        basis = [[Fraction(v, den) for v in col] for col in cols]
        assert bareiss_rank(basis) == k
        assert all(type(v) is int for row in h for v in row)
        moved = gram_by_fractions(g, basis)
        i, j = next((i, j) for i in range(k) for j in range(k) if h[i][j])
        scale = moved[i][j] / h[i][j]
        assert moved == [[scale * v for v in row] for row in h]
        divided += den > 1
    assert divided >= 10


def _pinch_isometry(n: int, t: int) -> LinearChange:
    """A change of coordinates that maps the pinch quadric onto itself and
    moves x0, so that it does not fix the normal form:
    x0 -> x0 - t^2*x1 - 2t*x2, x2 -> x2 + t*x1 for n = 2, and
    x0 -> x0 + t*x2, x3 -> x3 - t*x1 otherwise."""
    e = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    if n == 2:
        e[0][1], e[0][2], e[2][1] = -t * t, -2 * t, t
    else:
        e[0][2], e[3][1] = t, -t
    return LinearChange(e)


@pytest.mark.parametrize("n", range(2, 9))
def test_pinch_form_test_matches_substitution(n):
    """cubics._carried_change against the reference
    substitute(L*Q, C) == normal_form(n): on normalizations, on the same
    changes with one entry perturbed, composed with a perturbed identity
    (which keeps L o C = a*x0) or with an isometry of the pinch quadric
    moving x0 (which keeps C^T M C = P/a), and on L*Q refactored as
    (a*L)*(Q/a).  A change it accepts is C, with the inverse that
    elimination gives."""
    rng = random.Random(2000 + n)
    outcomes = []
    for _ in range(3):
        c = rng.choice([1, 2, -3, 1 / Fraction(5)])
        rc = _scaled_pinch_product(n, c, _dense_change(rng, n + 1))
        change = normalize_tangent_product(rc)
        perturbed = [list(row) for row in change.matrix]
        perturbed[rng.randrange(n + 1)][rng.randrange(n + 1)] += 1
        step = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
        step[rng.randrange(1, n + 1)][rng.randrange(n + 1)] += 1
        a = rng.choice([2, -1, Fraction(3, 7)])
        rescaled = ReducibleCubic(LinearForm(a * v for v in rc.linear.coeffs),
                                  rc.quadric * (1 / Fraction(a)))
        for cubic, moved in [(rc, change), (rc, LinearChange(perturbed)),
                             (rc, change.compose(LinearChange(step))),
                             (rc, change.compose(_pinch_isometry(n, rng.randint(1, 3)))),
                             (rescaled, change)]:
            expected = substitute(cubic.form(), moved) == normal_form(n)
            carried = _carried_change(cubic, linalg.cleared_rows(quadric_matrix(cubic.quadric)),
                                      linalg.cleared_rows(list(zip(*moved.matrix))))
            assert (carried is not None) == expected
            if carried is not None:
                assert carried == moved
                assert [list(row) for row in carried.inverse().matrix] == \
                    _eliminated_inverse(moved)
            outcomes.append(expected)
    assert outcomes[:5] == [True, False, False, False, True]


@pytest.mark.parametrize("quadric, invariant", [
    ("x0*x1 + x2^2 + 2*x3^2", "anisotropic over R and Q_2"),
    ("x0*x1 + x2^2 - 3*x3^2", "anisotropic over Q_2 and Q_3"),
    ("x0*x1 + x2^2 + x3^2 - 3*x4^2", "anisotropic over Q_2 and Q_3"),
    ("x0*x1 + x2*x3 + x4^2 - x5^2", r"signature \(2, 2\)"),
    ("x0*x1 + x2*x3 + x4^2 + 2*x5^2", "discriminant"),
    ("x0*x1 + x2*x3 + x4^2 + x5^2 + 3*x6^2 + 3*x7^2", "Hasse invariant at 2, 3"),
])
def test_true_obstructions_name_their_invariant(quadric, invariant):
    q = parse(quadric)
    rc = ReducibleCubic.from_polynomials(parse("x0", nvars=q.nvars), q)
    with pytest.raises(NeedsFieldExtension, match=invariant):
        normalize_tangent_product(rc)
    # the same block after a dense change of coordinates
    change = LinearChange(_dense_change(random.Random(3), q.nvars))
    moved = ReducibleCubic.from_polynomials(
        substitute(rc.linear.to_polynomial(), change), substitute(q, change))
    with pytest.raises(NeedsFieldExtension, match="not similar"):
        normalize_tangent_product(moved)


def test_scaled_blocks_reach_the_pinch_form():
    for quadric, n in [("x0*x1 + 3*x2^2", 2), ("x0*x1 + 3*x2*x3 + 3*x4^2", 4),
                       ("x0*x1 + x2*x3 + 2*x4^2", 4),
                       ("x0*x1 + x2*x3 + 3*x4^2 + 3*x5^2", 5)]:
        q = parse(quadric)
        rc = ReducibleCubic.from_polynomials(parse("x0", nvars=q.nvars), q)
        assert substitute(rc.form(), normalize_tangent_product(rc)) == normal_form(n)


def test_exhausted_budget_is_not_an_obstruction(monkeypatch):
    # 1000003 * 1000033 needs Pollard's rho; with no rho steps allowed the
    # question stays open: exit 1 and a report note, never exit 3
    quadric = "x0*x1 + x2*x3 + 1000036000099*x4^2"
    monkeypatch.setattr(quadratic, "FACTOR_BUDGET", 0)
    q = parse(quadric)
    report = rank_report(ReducibleCubic.from_polynomials(parse("x0", nvars=5), q))
    assert (report.lower, report.upper) == (8, 9) and report.witness is None
    assert any("search bound ran out" in note for note in report.notes)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["decompose", "x0", quadric])
    assert code == 1
    assert "search bound ran out" in err.getvalue()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_isotropic_mod_against_brute_force(p):
    rng = random.Random(p)
    for r in range(1, 5):
        for _ in range(40):
            a = [[0] * r for _ in range(r)]
            for i in range(r):
                for j in range(i, r):
                    a[i][j] = a[j][i] = rng.randint(-2 * p, 2 * p)

            def value(c):
                return sum(c[i] * a[i][j] * c[j]
                           for i in range(r) for j in range(r)) % p

            exists = any(value(c) == 0 for c in itertools.product(range(p), repeat=r)
                         if any(c))
            c = _isotropic_mod(a, p)
            if exists:
                assert c is not None and any(v % p for v in c) and value(c) == 0
            else:
                assert c is None
