"""The rank-based slice Hilbert functions of the avoidance and colon
certificates against the ideal route they replaced (oracles.py).

HF of T/(F_perp + <l>) is HF_F(i) - HF_{l o F}(i - 1), and the colon by g
slices g o F instead of F.  Seeded triples (F, l, g) of degree 2 to 4 in 2
to 5 variables, some of them degenerate on purpose (l or g annihilating F,
a divisor of degree above deg F), must give the same values, or raise the
same error with the same message.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracles
from apolarity import Polynomial, monomials
from apolarity.certificates import avoidance_lower_bound, colon_refinement


def _random_form(rng: random.Random, nvars: int, degree: int, density: float) -> Polynomial:
    terms = {m: Fraction(rng.randint(-3, 3)) for m in monomials(nvars, degree)
             if rng.random() < density}
    return Polynomial(nvars, {m: c for m, c in terms.items() if c})


def _outcome(call):
    try:
        cert = call()
    except ValueError as exc:  # AmbientMismatchError is a ValueError too
        return type(exc).__name__, str(exc)
    return cert


def _cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        nvars, degree = rng.randint(2, 5), rng.randint(2, 4)
        form = _random_form(rng, nvars, degree, rng.choice([0.2, 0.5, 0.9]))
        if form.is_zero():
            form = Polynomial.variable(nvars, 0) ** degree
        hyperplane = _random_form(rng, nvars, 1, 0.5)
        if hyperplane.is_zero():
            hyperplane = Polynomial.variable(nvars, rng.randrange(nvars))
        divisor = _random_form(rng, nvars, rng.randint(0, degree + 1), 0.4)
        if divisor.is_zero():
            divisor = Polynomial.variable(nvars, rng.randrange(nvars))
        yield form, hyperplane, divisor


@pytest.mark.parametrize("seed", range(4))
def test_slice_hilbert_matches_the_ideal_route(seed):
    agreed = raised = 0
    for form, hyperplane, divisor in _cases(seed, 60):
        for div in (None, divisor):
            new = _outcome(lambda: avoidance_lower_bound(form, hyperplane) if div is None
                           else colon_refinement(form, hyperplane, div))
            old = _outcome(lambda: oracles.certificate_by_ideals(form, hyperplane, div))
            if isinstance(old, tuple) and isinstance(old[0], str):
                assert new == old, (form, hyperplane, div)
                raised += 1
            else:
                assert (new.hilbert.values, new.bound) == old, (form, hyperplane, div)
                agreed += 1
    # both kinds of outcome are exercised
    assert agreed > 60 and raised > 5
