"""apolar.quotient_hilbert, the one rule for HF of T/((F_perp : g) + <h_1..h_k>),
against the ideal route the hilbert command took before it
(oracles.quotient_hilbert_by_ideals: apolar ideal, colon, sum, graded spans).

Seeded cases: forms of degree 1 to 5 in 1 to 5 variables, 0 to 3 operators
of degree 1 to 3, half of them with a divisor.  Some inputs are degenerate
on purpose: operators that annihilate F, are zero, constant or not
homogeneous; divisors that are zero, not homogeneous, of degree above
deg F or in the apolar ideal.  Each case must give the same values, or
raise the same error with the same message.  The one exception is a list
of zero operators only: it adds nothing to the ideal, but the ideal route
cannot infer its ambient and raises, so such a case must give what no
operator at all gives.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import oracles
from apolarity import Polynomial, monomials
from apolarity.apolar import apolar_hilbert, quotient_hilbert


def _random_form(rng: random.Random, nvars: int, degree: int, density: float) -> Polynomial:
    terms = {m: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 5)))
             for m in monomials(nvars, degree) if rng.random() < density}
    return Polynomial(nvars, {m: c for m, c in terms.items() if c})


def _nonzero(rng, nvars, degree, density):
    form = _random_form(rng, nvars, degree, density)
    if form.is_zero():
        return Polynomial.variable(nvars, rng.randrange(nvars)) ** degree
    return form


def _annihilator(form: Polynomial) -> Polynomial:
    """d_k for a variable k that F lacks, else d0^(deg F + 1)."""
    n, d = form.nvars, form.homogeneous_degree()
    unused = [k for k in range(n) if all(not e[k] for e in form.terms)]
    return Polynomial.variable(n, unused[0]) if unused else Polynomial.variable(n, 0) ** (d + 1)


def _operator(rng, form):
    n = form.nvars
    kind = rng.choices(["random", "annihilating", "zero", "constant", "mixed"],
                       weights=[30, 6, 1, 1, 1])[0]
    if kind == "annihilating":
        return _annihilator(form)
    if kind == "zero":
        return Polynomial.zero(n)
    if kind == "constant":
        return Polynomial.constant(n, 2)
    if kind == "mixed":
        return _nonzero(rng, n, 1, 0.5) + _nonzero(rng, n, 2, 0.5)
    return _nonzero(rng, n, rng.randint(1, 3), 0.5)


def _divisor(rng, form):
    n, d = form.nvars, form.homogeneous_degree()
    kind = rng.choices(["random", "zero", "mixed", "high", "in-ideal"],
                       weights=[8, 1, 1, 1, 2])[0]
    if kind == "zero":
        return Polynomial.zero(n)
    if kind == "mixed":
        return _nonzero(rng, n, 1, 0.5) + _nonzero(rng, n, 2, 0.5)
    if kind == "high":
        return _nonzero(rng, n, d + 1, 0.4)
    if kind == "in-ideal":
        return _annihilator(form)
    return _nonzero(rng, n, rng.randint(1, max(d, 1)), 0.5)


def _cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        nvars, degree = rng.randint(1, 5), rng.randint(1, 5)
        if nvars * degree > 16:  # keeps the ideal route's graded spans small
            degree = rng.randint(1, 3)
        form = _nonzero(rng, nvars, degree, rng.choice([0.2, 0.5, 0.9]))
        operators = [_operator(rng, form) for _ in range(rng.randint(0, 3))]
        divisor = _divisor(rng, form) if rng.random() < 0.5 else None
        yield form, operators, divisor


def _outcome(call):
    try:
        return call().values
    except ValueError as exc:  # AmbientMismatchError is a ValueError too
        return type(exc).__name__, str(exc)


def test_quotient_hilbert_matches_the_ideal_route():
    outcomes = Counter()
    for form, operators, divisor in _cases(7, 600):
        new = _outcome(lambda: quotient_hilbert(form, operators, divisor))
        if operators and all(h.is_zero() for h in operators):
            assert new == _outcome(lambda: quotient_hilbert(form, (), divisor))
            outcomes["zero operators only"] += 1
            continue
        old = _outcome(lambda: oracles.quotient_hilbert_by_ideals(form, operators, divisor))
        assert new == old, (form, operators, divisor)
        outcomes[old[1].split(";")[0] if isinstance(old[0], str) else "values"] += 1
    # every kind of outcome is exercised
    assert outcomes["values"] > 400
    assert {"divisor lies in the ideal", "divisor must be a nonzero homogeneous element",
            "zero operators only"} <= set(outcomes)
    assert any(k.startswith("generators must be homogeneous of degree >= 1") for k in outcomes)


def test_the_rule_on_the_worked_plane_cubic():
    """The slice, the colon and both together for x0^2*x2 + x0*x1^2, and
    form_hilbert passed in: the values the certificates quote."""
    form = Polynomial(3, {(2, 0, 1): 1, (1, 2, 0): 1})
    d0, d1, d2 = (Polynomial.variable(3, k) for k in range(3))
    assert quotient_hilbert(form).values == (1, 3, 3, 1)
    assert quotient_hilbert(form, [d2], form_hilbert=apolar_hilbert(form)).values == (1, 2, 2, 0)
    assert quotient_hilbert(form, (), d1).values == (1, 2, 1, 0)
    assert quotient_hilbert(form, [d2], d1).values == (1, 2, 1, 0)
    # with a divisor the rule reads HF of d1 o F, whatever form_hilbert says
    assert quotient_hilbert(form, [d2], d1, apolar_hilbert(form)).values == (1, 2, 1, 0)
    # d0 o F = 2*x0*x2 + x1^2 has all three first partials; d1*d2 annihilates F
    assert quotient_hilbert(form, [d0, d1 * d2]).values == (1, 2, 0, 0)
