"""ideals._colon_spans, which reads (I : g) off the kernel vectors of I by
duality, against the dense preimage system the package solved before
(oracles.colon_spans_by_preimage).

Seeded cases in 1 to 4 variables: apolar ideals of rational forms of degree
1 to 4, and ideals given by generators alone, with a truncation bound from
1 to 6 or none.  Divisors have degree 1 to 3; some are degenerate on
purpose: zero, not homogeneous, in the ideal, or of degree at least the
bound.  Each case compares the canonical rows of every component, the
generators of ideal_colon, the Hilbert function of the colon and
is_nonzerodivisor; where one side raises, the other must raise the same
error with the same message.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import oracles
import pytest
from apolarity import Polynomial, ideals, monomials
from apolarity.apolar import apolar_ideal
from apolarity.ideals import (HomogeneousIdeal, hilbert_function, ideal_colon,
                              is_nonzerodivisor)


def _random_form(rng: random.Random, nvars: int, degree: int, density: float) -> Polynomial:
    terms = {m: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 5)))
             for m in monomials(nvars, degree) if rng.random() < density}
    form = Polynomial(nvars, {m: c for m, c in terms.items() if c})
    if form.is_zero():
        return Polynomial.variable(nvars, rng.randrange(nvars)) ** degree
    return form


def _ideal(rng: random.Random, nvars: int) -> HomogeneousIdeal:
    if rng.random() < 0.5:
        degree = rng.randint(1, 4 if nvars < 4 else 3)
        return apolar_ideal(_random_form(rng, nvars, degree, rng.choice([0.3, 0.7])))
    bound = rng.choice([1, 2, 3, 3, 4, 4, 5, 6, None])
    top = 3 if bound is None else min(bound, 6 - nvars)
    gens = [_random_form(rng, nvars, rng.randint(1, max(top, 1)), rng.choice([0.2, 0.6]))
            for _ in range(rng.randint(1, nvars + 1))]
    return HomogeneousIdeal(gens, nvars, bound)


def _divisor(rng: random.Random, ideal: HomogeneousIdeal) -> Polynomial:
    n = ideal.nvars
    kind = rng.choices(["random", "zero", "mixed", "in-ideal", "high"],
                       weights=[20, 1, 1, 2, 1])[0]
    if kind == "zero":
        return Polynomial.zero(n)
    if kind == "mixed":
        return _random_form(rng, n, 1, 0.5) + _random_form(rng, n, 2, 0.5)
    if kind == "in-ideal" and ideal.generators:
        g = rng.choice(ideal.generators)
        return g * _random_form(rng, n, 1, 0.5) if rng.random() < 0.5 else g
    if kind == "high":
        return _random_form(rng, n, (ideal.truncation_bound or 3) + rng.randint(0, 1), 0.4)
    return _random_form(rng, n, rng.randint(1, 3), rng.choice([0.3, 0.7]))


def _cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        ideal = _ideal(rng, rng.randint(1, 4))
        divisor = _divisor(rng, ideal)
        e = divisor.degree()
        b = ideal.truncation_bound
        top = b - e if b is not None and 0 <= e < b else rng.randint(0, 3)
        through = rng.choice([None, None, rng.randint(0, 4)])
        yield ideal, divisor, top, through


def _outcome(call):
    try:
        return call()
    except ValueError as exc:  # AmbientMismatchError is a ValueError too
        return type(exc).__name__, str(exc)


def _rows(spans):
    return [span.canonical_rows() for span in spans]


def _colon(ideal, divisor):
    colon = ideal_colon(ideal, divisor)
    return colon.generators, colon.truncation_bound, hilbert_function(colon).values


def test_colon_by_duality_matches_the_preimage_system():
    outcomes = Counter()
    for ideal, g, top, through in _cases(5, 960):
        new = [_outcome(lambda: _rows(ideals._colon_spans(ideal, g, top))),
               _outcome(lambda: _colon(ideal, g)),
               _outcome(lambda: is_nonzerodivisor(ideal, g, through))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ideals, "_colon_spans", oracles.colon_spans_by_preimage)
            old = [_outcome(lambda: _rows(oracles.colon_spans_by_preimage(ideal, g, top))),
                   _outcome(lambda: _colon(ideal, g)),
                   _outcome(lambda: oracles.is_nonzerodivisor_by_preimage(ideal, g, through))]
        assert new == old, (ideal, g, top, through)
        colon = old[1]
        outcomes[colon[1].split(";")[0] if isinstance(colon[0], str) else "colon"] += 1
        outcomes[{True: "nonzerodivisor", False: "zerodivisor"}.get(old[2], "raised")] += 1
        outcomes["ideal" if ideal._hilbert is None else "apolar"] += 1
    # every kind of case and outcome is exercised
    assert outcomes["colon"] > 400 and outcomes["apolar"] > 400 and outcomes["ideal"] > 400
    assert outcomes["nonzerodivisor"] > 100 and outcomes["zerodivisor"] > 500
    assert {"divisor lies in the ideal", "divisor must be a nonzero homogeneous element",
            "colon needs a truncation-bounded ideal"} <= set(outcomes)
