import random
import time
from fractions import Fraction

import pytest

from apolarity import apolar, ideals
from apolarity.apolar import (apolar_apply, apolar_hilbert, apolar_ideal,
                              catalecticant, essential_variables)
from apolarity.ideals import (HomogeneousIdeal, hilbert_function, ideal_colon,
                              ideal_equal, ideal_sum, ring_dimension)
from apolarity.poly import (AmbientMismatchError, LinearChange, Polynomial,
                            monomials, parse, substitute)
from oracles import (apolar_generators_by_sweep, apply_by_fractions,
                     apply_operator, bareiss_rank, dual_system_rank, expand_power,
                     rank_mod_prime, top_degree_generators)


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
                assert essential_variables(form) == oracle[1]
    # full rank over Q but not modulo the prime: the exact fallback decides;
    # and a rational cone, whose Cat_1 has rank 3 in 4 variables
    p = apolar.PRIME
    for form in (_random_form(rng, 3, 4).scale(p), _random_form(rng, 4, 3).scale(p),
                 _random_form(rng, 3, 4).scale(Fraction(1, p)),
                 parse(f"x0^3 + {p}*x1^3 + x2^3"),
                 parse(f"x0^4 + {p}*x1^4 + x2^4 + x0*x1*x2^2"),
                 parse("1/6*x0^3 + 1/35*x1^2*x2 + 2/15*x0*x1*x2", nvars=4)):
        d = form.homogeneous_degree()
        oracle = [bareiss_rank(catalecticant(form, i).entries) for i in range(d + 1)]
        assert apolar_hilbert(form).values == tuple(oracle), form
        assert essential_variables(form) == oracle[1], form
    # constant forms: HF(0) = 1 whatever divides the constant
    for form in (Polynomial.constant(3, 5), Polynomial.constant(2, p),
                 Polynomial.constant(2, Fraction(3, p))):
        assert apolar_hilbert(form).values == (bareiss_rank(catalecticant(form, 0).entries),)


def _dense_form(rng, nv, d):
    return Polynomial(nv, {m: rng.choice((-1, 1)) * rng.randint(1, 9)
                           for m in monomials(nv, d)})


def test_exact_spans_only_for_catalecticants_short_of_full_rank(monkeypatch):
    """On dense forms every Cat_i with i <= d/2 has full rank modulo the
    prime, so the only exact span is that of Cat_i0, whose kernel gives the
    generators.  Scaled by the prime, no entry survives modulo it, and
    _hilbert_and_spans eliminates every Cat_i with 0 < i <= d/2 exactly.
    HF(0) = 1 of a nonzero form takes neither a span nor a modular rank."""
    built, partials = [], []
    span_of, partials_of = apolar._catalecticant_span, apolar._partials_mod_prime

    def spy(form, i):
        built.append(i)
        return span_of(form, i)

    def partials_spy(form, j, by_row=False):
        partials.append(j)
        return partials_of(form, j, by_row)

    monkeypatch.setattr(apolar, "_catalecticant_span", spy)
    monkeypatch.setattr(apolar, "_partials_mod_prime", partials_spy)
    rng = random.Random(43)
    for nv, d, low in ((5, 3, 2), (4, 4, 3)):
        form = _dense_form(rng, nv, d)
        built.clear()
        ideal = apolar_ideal(form)
        assert built == [low]
        scaled = form.scale(apolar.PRIME)
        built.clear()
        hf, spans = apolar._hilbert_and_spans(scaled)
        assert built == list(range(1, d // 2 + 1)) == sorted(spans)
        assert hf == apolar_hilbert(form)
        assert apolar_ideal(scaled).generators == ideal.generators
    assert partials and 0 not in partials


def test_proven_route_reads_the_generators_off_one_kernel(monkeypatch):
    """On the dense inputs above every degree above i0 is proven free of new
    generators, so apolar_ideal returns the canonical kernel vectors of
    Cat_i0, monic in their first monomials, without the sweep and without
    any span of the ideals module."""
    def refuse(*args):
        raise AssertionError("the proven route ran the exact sweep")

    built = []

    class CountedSpan(ideals.RowSpan):
        def __init__(self, ncols):
            built.append(ncols)
            super().__init__(ncols)

    monkeypatch.setattr(apolar, "_generators_from_components", refuse)
    monkeypatch.setattr(ideals, "RowSpan", CountedSpan)
    rng = random.Random(43)
    for nv, d, low in ((5, 3, 2), (4, 4, 3)):
        form = _dense_form(rng, nv, d)
        cat = catalecticant(form, low)
        assert [g.terms for g in apolar_ideal(form).generators] == [
            {cat.col_monomials[c]: Fraction(v, vec[min(vec)]) for c, v in vec.items()}
            for vec in cat.kernel()]
    assert built == []


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
        # the carried values equal the dimensions found by elimination
        plain = HomogeneousIdeal(ideal.generators, truncation_bound=d + 1)
        assert hilbert_function(ideal) == hilbert_function(plain)
        # a sum and a colon build new ideals and carry nothing over: with a
        # linear l that does not kill the form, both differ from the apolar
        # values, and both equal their own elimination
        ell = next(parse(f"d{k}", nvars=nv) for k in range(nv)
                   if not apolar_apply(parse(f"d{k}", nvars=nv), form).is_zero())
        extra = HomogeneousIdeal([ell])
        summed = hilbert_function(ideal_sum(ideal, extra))
        assert summed == hilbert_function(ideal_sum(plain, extra))
        assert summed != hilbert_function(ideal)
        colon = hilbert_function(ideal_colon(ideal, ell))
        assert colon == hilbert_function(ideal_colon(plain, ell))
        assert colon != hilbert_function(ideal)


def test_hilbert_function_of_an_apolar_ideal_is_carried(monkeypatch):
    """hilbert_function returns the values apolar_ideal read off its
    catalecticants, with no second elimination."""
    ideal = apolar_ideal(parse("x0^2*x2 + x0*x1^2"))

    def no_elimination(*args):
        raise AssertionError("the carried Hilbert function was eliminated again")

    monkeypatch.setattr(ideals, "_graded_spans", no_elimination)
    assert hilbert_function(ideal).values == (1, 3, 3, 1)


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


def test_catalecticant_entries_are_exact_derivatives():
    """Entries are ints for integer forms, and every column alpha equals
    d^alpha F by naive differentiation, for integer and rational forms."""
    rng = random.Random(34)
    forms = []
    for _ in range(20):
        nv, d = rng.randint(1, 4), rng.randint(1, 4)
        forms.append((nv, d, _random_form(rng, nv, d)))
    # sparse forms, a few monomials each, in up to 7 variables
    for _ in range(20):
        nv, d = rng.randint(1, 7), rng.randint(1, 5)
        monos = monomials(nv, d)
        picked = rng.sample(monos, min(len(monos), rng.randint(1, 3)))
        forms.append((nv, d, Polynomial(nv, {m: Fraction(rng.choice((-7, -1, 2, 5)),
                                                         rng.randint(1, 3))
                                             for m in picked})))
    for nv, d, rational in forms:
        integer = Polynomial(nv, {e: c.numerator for e, c in rational.terms.items()})
        for form in (integer, rational):
            for i in range(d + 1):
                cat = catalecticant(form, i)
                if form is integer:
                    assert all(type(v) is int for row in cat.entries for v in row)
                for c, alpha in enumerate(cat.col_monomials):
                    column = {m: cat.entries[r][c]
                              for r, m in enumerate(cat.row_monomials)
                              if cat.entries[r][c]}
                    assert column == apply_operator({alpha: 1}, form.terms)


def test_top_degree_generators_match_the_linear_system():
    """apolar_ideal's degree-(d+1) generators equal those of the (ell, mu)
    system, on powers c*L^d of dense rational L (which have one) and on
    sums of two powers (which have one only when they are a power)."""
    rng = random.Random(35)
    with_generator = 0
    for nv in range(1, 6):
        for d in range(0, 6):
            for k in range(12 if nv * d <= 12 else 4):  # the oracle is slow
                form = Polynomial.zero(nv)
                for _ in range(1 + k % 2):
                    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(nv)]
                    c = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 3))
                    form = form + Polynomial(nv, expand_power(coeffs, d)).scale(c)
                if form.is_zero():
                    continue
                expected = top_degree_generators(form.terms, nv, d)
                got = apolar_ideal(form).generators_of_degree(d + 1)
                assert [g.terms for g in got] == expected, form
                with_generator += bool(expected)
    assert with_generator > 80


def test_ring_dimension_consistency():
    # catalecticant shapes follow the ambient dimension counts
    F = parse("x0^2*x1 + x2^3 + x3^3", nvars=4)
    cat = catalecticant(F, 2)
    assert len(cat.col_monomials) == ring_dimension(4, 2) == 10
    assert len(cat.row_monomials) == ring_dimension(4, 1) == 4


def test_apply_matches_the_fraction_loop():
    """apolar_apply clears the operator and the form once and reads each
    form term on an operator term's support alone: against the Fraction
    loop, on seeded forms of degree 2-5 and operators of degree 1-3 with
    denominators up to 10^30+3, on pairs whose images cancel to zero, in
    full or in part, on operators and forms of mixed degree, and on sparse
    forms of degree 10^5 against their derivatives written out."""
    rng = random.Random(52)
    big = 10 ** 30 + 3

    def rational(nv, d, density):
        terms = {m: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9) * rng.choice([1, 1, big]),
                             rng.choice([1, 2, 7, big]))
                 for m in monomials(nv, d) if rng.random() < density}
        return Polynomial(nv, terms or {(d,) + (0,) * (nv - 1): Fraction(1, big)})

    for _ in range(60):
        nv = rng.randint(1, 4)
        form = rational(nv, rng.randint(2, 5), 0.7)
        op = rational(nv, rng.randint(1, 3), 0.5)
        out = apolar_apply(op, form)
        assert out.terms == apply_by_fractions(op.terms, form.terms), (op, form)
    # d0 - d1 kills every form in x0 + x1, x2, ..., and cancels in part
    # when another operator is added to it
    for _ in range(20):
        nv, d = rng.randint(2, 4), rng.randint(2, 4)
        base = {m: c for m, c in rational(nv, d, 0.8).terms.items() if not m[1]}
        rows = [[int(i == j or (i, j) == (0, 1)) for j in range(nv)] for i in range(nv)]
        shifted = substitute(Polynomial(nv, base or {(d,) + (0,) * (nv - 1): 1}),
                             LinearChange(rows))
        killer = parse("d0 - d1", nvars=nv) * rational(nv, rng.randint(0, 1), 0.9)
        assert apolar_apply(killer, shifted).is_zero()
        op = killer + rational(nv, killer.homogeneous_degree(), 0.6)
        assert apolar_apply(op, shifted).terms == apply_by_fractions(op.terms, shifted.terms)
    # operators mixing degrees 0-3, a constant term included, on forms of
    # mixed degree 0-5 in 1-6 variables that leave some variables unused, so
    # that some operator terms exceed some form terms in degree
    for _ in range(60):
        nv = rng.randint(1, 6)
        used = rng.sample(range(nv), rng.randint(1, nv))
        form = Polynomial.zero(nv)
        for d in rng.sample(range(6), rng.randint(1, 3)):
            part = rational(len(used), d, 0.5)
            form = form + Polynomial(nv, {tuple(m[used.index(k)] if k in used else 0
                                                for k in range(nv)): c
                                          for m, c in part.terms.items()})
        op = rational(nv, 0, 1.0)
        for d in rng.sample(range(1, 4), rng.randint(1, 3)):
            op = op + rational(nv, d, 0.5)
        assert any(sum(m) == 0 for m in op.terms)
        out = apolar_apply(op, form)
        assert out.terms == apply_by_fractions(op.terms, form.terms), (op, form)
    # sparse forms of degree 10^5 in 3 variables, against their derivatives
    # written out by hand; each pair takes well under a second
    n, h = 100000, 50000
    sparse = parse(f"x0^{n} + x1^{n} + x0^{h}*x2^{h}")
    expected = {
        "d0": {(n - 1, 0, 0): n, (h - 1, 0, h): h},
        "d0*d2": {(h - 1, 0, h - 1): h * h},
        "d0 - d1 + 2*d2^2": {(n - 1, 0, 0): n, (h - 1, 0, h): h, (0, n - 1, 0): -n,
                             (h, 0, h - 2): 2 * h * (h - 1)},
    }
    for text, terms in expected.items():
        start = time.perf_counter()
        out = apolar_apply(parse(text, nvars=3), sparse)
        assert time.perf_counter() - start < 1.0, text
        assert out.terms == terms, text
    powers = parse(f"x0^{n} + x1^{n} + x2^{n}").scale(Fraction(3, 7))
    out = apolar_apply(parse("d0", nvars=3), powers)
    assert out.terms == {(n - 1, 0, 0): Fraction(3 * n, 7)}


def _agreement_inputs(rng):
    """(label, form) pairs for the comparison with the kernel sweep."""
    def dense(nv, d):
        return _dense_form(rng, nv, d)

    def sparse(nv, d):
        monos = monomials(nv, d)
        return Polynomial(nv, {m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                           rng.randint(1, 2))
                               for m in rng.sample(monos, min(len(monos),
                                                              rng.randint(2, 4)))})

    def change(nv):
        while True:
            try:
                return LinearChange([[rng.randint(-2, 2) for _ in range(nv)]
                                     for _ in range(nv)])
            except ValueError:
                pass

    for d, top in ((3, 8), (4, 6), (5, 4)):
        for nv in range(2, top + 1):
            yield "dense", dense(nv, d)
    for d in (3, 4, 5):
        for nv in range(2, 9):
            yield "sparse", sparse(nv, d)
    for d in (3, 4, 5):
        for essential in (2, 3):
            for nv in range(essential + 1, 7 if d < 5 else 5):
                core = dense(essential, d) if d < 5 else sparse(essential, d)
                padded = Polynomial(nv, {m + (0,) * (nv - essential): c
                                         for m, c in core.terms.items()})
                yield "cone", substitute(padded, change(nv))
    for d in (3, 4, 5):
        for nv in range(2, 7):
            coeffs = [rng.randint(-3, 3) for _ in range(nv)]
            if any(coeffs):
                yield "power", Polynomial(nv, expand_power(coeffs, d)).scale(
                    Fraction(rng.choice((-2, 1, 3)), rng.randint(1, 3)))
            yield "monomial", Polynomial(nv, {rng.choice(monomials(nv, d)): 1})
    for text in ("x0^3 + x1^3", "x0^2*x1", "x0^3 + 3*x0*x1^2", "x0^4 + x1^4",
                 "x0^4 - 6*x0^2*x1^2 + x1^4", "x0^5 + x1^5", "x0^3*x1^2",
                 "x0^5 - 2*x0*x1^4"):
        yield "binary", parse(text, nvars=2)
    for nv, d in ((2, 3), (3, 3), (4, 3), (3, 4), (3, 5)):
        yield "times-prime", dense(nv, d).scale(apolar.PRIME)


def test_dual_system_rank_does_not_depend_on_the_block_order(monkeypatch):
    """The dual system, numbered with block 0 last, has the rank modulo the
    prime of the block-0-first numbering (oracles.dual_system_rank): its
    inserted rows reach that rank, and the verdict is whether it meets the
    bound n * HF(i-1) - HF(i).  A stop at the bound inserts no more rows."""
    created = []

    class Recording(apolar.ModularSpan):
        def __init__(self, ncols, prime):
            super().__init__(ncols, prime)
            self.rows = []
            created.append(self)

        def insert(self, row):
            self.rows.append(dict(row))
            return super().insert(row)

    proves, compared = apolar._no_generator_in_degree, 0

    def recorded(form, hf, i):
        nonlocal compared
        created.clear()
        verdict = proves(form, hf, i)
        n, target = form.nvars, form.nvars * hf[i - 1] - hf[i]
        oracle = dual_system_rank(form.terms, n, form.homogeneous_degree(), hf, i,
                                  apolar.PRIME)
        if target <= 0 or oracle is None:
            assert verdict == (target <= 0)
        else:
            system = created[-1]
            assert system.ncols == n * hf[i - 1]
            dense = [[row.get(c, 0) for c in range(system.ncols)] for row in system.rows]
            assert rank_mod_prime(dense, apolar.PRIME) == oracle
            assert verdict == (oracle == target)
            compared += 1
        return verdict

    monkeypatch.setattr(apolar, "ModularSpan", Recording)
    monkeypatch.setattr(apolar, "_no_generator_in_degree", recorded)
    for _, form in _agreement_inputs(random.Random(36)):
        apolar_ideal(form)
    assert compared >= 40


def test_apolar_ideal_agrees_with_the_kernel_sweep(monkeypatch):
    """apolar_ideal, whether every degree is proven free of new generators
    modulo the prime or the exact sweep runs, gives the generators of the
    sweep over every catalecticant kernel, and carries apolar_hilbert.  The
    proof succeeds exactly when the generators below degree d+1 share one
    degree, except on forms scaled by the prime, which must fall back."""
    verdicts = []
    proves = apolar._no_generator_in_degree

    def recorded(form, hf, i):
        verdicts.append(proves(form, hf, i))
        return verdicts[-1]

    monkeypatch.setattr(apolar, "_no_generator_in_degree", recorded)
    rng = random.Random(36)
    taken = {True: 0, False: 0}
    for label, form in _agreement_inputs(rng):
        verdicts.clear()
        ideal = apolar_ideal(form)
        assert [g.terms for g in ideal.generators] == apolar_generators_by_sweep(form), form
        assert hilbert_function(ideal) == apolar_hilbert(form)
        d = form.homogeneous_degree()
        degrees = {g.homogeneous_degree() for g in ideal.generators} - {d + 1}
        proven = all(verdicts)
        assert proven == (len(degrees) <= 1 and label != "times-prime"), (label, form)
        taken[proven] += 1
    assert taken[True] >= 30 and taken[False] >= 30
