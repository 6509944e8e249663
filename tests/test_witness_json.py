"""A decomposition's JSON in integers, against the Fraction route it replaced.

WaringDecomposition.to_json_dict writes each number straight from the
integers and their denominator, and from_json_dict reads each one as an
integer pair (poly._number_pair).  The oracles keep the versions that sent
every number through a Fraction.  On seeded decompositions, on payloads
mutated from their JSON and on hand-picked texts, both routes must give the
same text, an equal decomposition, or the same exception type with the same
message prefix (the text before the first colon).  The one difference
allowed is a JSON boolean, which the integer reader refuses where Fraction
read true as 1.
"""

from __future__ import annotations

import copy
import json
import random
from fractions import Fraction

import pytest

from apolarity.cubics import WaringDecomposition
from apolarity.poly import LinearForm, _number_pair
from oracles import (from_json_dict_by_fractions, number_value_by_fractions,
                     to_json_dict_by_fractions)

SEEDS = range(1000)

# texts the pattern "p" / "p/q" takes, texts only Fraction takes, and
# texts and values that neither takes
TEXTS = ["0", "-0", "7", "-12", "6/4", "-6/4", "0/5", "-0/3", "007/014",
         "1" + "0" * 4400, "-3" * 2200 + "/7", "1/" + "9" * 4301,
         " 1/2", "+1", "1e3", "0.5", "-.25", "1_000", " -3 ",
         "1/0", "-3/0", "0/0", "abc", "", "1//2", "3/-4", "1/2/3", "--1", "1" + "0" * 4400 + "x",
         None, [], [1], {}, 5, -3, 0, 0.5, 2.0, -1e3, float("nan"), float("inf")]

# replacements for one number of a payload: each is kept by both readers,
# or refused by both in the same way
SWAPS = [" 1/2", "+1", "1e3", "0.5", "-0", "6/4", "-0/9", 0.5, -2.0, 3,
         "1/0", "abc", None, [], ["1"], {}, float("nan"), float("inf")]


def _entry(rng: random.Random) -> Fraction:
    """Mostly small rationals, a fifth of them zero, now and then one with
    more than 4300 digits, past what str() and int() take by default."""
    roll = rng.random()
    if roll < 0.2:
        return Fraction(0)
    if roll < 0.23:
        big = rng.randrange(10 ** 4400, 10 ** 4401) * rng.choice((-1, 1))
        return Fraction(big, rng.choice((1, rng.randrange(1, 10 ** 40))))
    return Fraction(rng.randint(-12, 12), rng.randint(1, 12))


def _decomposition(rng: random.Random) -> WaringDecomposition:
    """A power sum with up to five terms, one of them often a multiple of
    another, assembled (monic, merged, sorted) or taken as given."""
    degree, nvars = rng.randint(0, 4), rng.randint(1, 4)
    terms = []
    for _ in range(rng.randint(0, 4)):
        form = [_entry(rng) for _ in range(nvars)]
        if not any(form):
            form[rng.randrange(nvars)] = Fraction(rng.choice((-5, 2)), 3)
        terms.append((_entry(rng), form))
    if terms and rng.random() < 0.5:
        scale = Fraction(rng.choice((-2, 3, 1)), rng.choice((1, 2, 5)))
        terms.append((_entry(rng), [scale * v for v in terms[0][1]]))
    pairs = [(c, LinearForm(f)) for c, f in terms]
    if rng.random() < 0.6:
        return WaringDecomposition.assemble(degree, nvars, pairs)
    return WaringDecomposition(degree, nvars, pairs)


def _unreduced(text: str, k: int) -> str:
    """The same rational as "p/q" with p and q multiplied by k."""
    p, _, q = text.partition("/")
    return f"{int(p) * k}/{int(q or 1) * k}" if len(text) < 100 else text


def _mutations(rng: random.Random, payload: dict) -> list:
    """Payloads derived from a decomposition's JSON: the same values spelled
    unreduced, one number swapped for other text or a JSON value, a term
    with a missing field, a form of the wrong length, a zero form."""
    out = [payload]
    numbers = [(i, None) for i in range(len(payload["terms"]))] + [
        (i, j) for i, t in enumerate(payload["terms"]) for j in range(len(t["form"]))]
    unreduced = copy.deepcopy(payload)
    for t in unreduced["terms"]:
        t["coefficient"] = _unreduced(t["coefficient"], rng.randint(2, 6))
        t["form"] = [_unreduced(v, rng.randint(1, 6)) for v in t["form"]]
    out.append(unreduced)
    if not numbers:
        return out
    for swap in rng.sample(SWAPS, 3):
        changed = copy.deepcopy(payload)
        i, j = rng.choice(numbers)
        if j is None:
            changed["terms"][i]["coefficient"] = swap
        else:
            changed["terms"][i]["form"][j] = swap
        out.append(changed)
    term = rng.randrange(len(payload["terms"]))
    for edit in ("no-coefficient", "no-form", "longer", "shorter", "zero-form"):
        changed = copy.deepcopy(payload)
        t = changed["terms"][term]
        if edit == "no-coefficient":
            del t["coefficient"]
        elif edit == "no-form":
            del t["form"]
        elif edit == "longer":
            t["form"].append("1/3")
        elif edit == "shorter":
            t["form"].pop()
        else:
            t["form"] = ["0"] * len(t["form"])
        out.append(changed)
    return out


def _outcome(read, data):
    """What a reader makes of data: the decomposition, or the exception's
    type and the text of its message before the first colon."""
    try:
        return read(data)
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc).split(":")[0]


def test_the_writer_matches_the_fraction_route():
    for seed in SEEDS:
        dec = _decomposition(random.Random(seed))
        assert dec.to_json_dict() == to_json_dict_by_fractions(dec), seed


def test_the_reader_matches_the_fraction_route():
    kinds = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        payload = to_json_dict_by_fractions(_decomposition(rng))
        for data in _mutations(rng, payload):
            if rng.random() < 0.2:
                data = json.loads(json.dumps(data))
            expected = _outcome(from_json_dict_by_fractions, data)
            assert _outcome(WaringDecomposition.from_json_dict, data) == expected, (seed, data)
            kinds.add(expected[1] if isinstance(expected, tuple) else "read")
    # reading, and every way of failing that a number or a term can cause
    assert kinds == {
        "read", "not a finite rational in the decomposition", "Invalid literal for Fraction",
        "cannot convert NaN to integer ratio", "the decomposition has no field 'coefficient'",
        'a decomposition is an object whose "terms" list holds objects with a "form" list',
        "decomposition term uses the zero form", "term ambient differs from the decomposition's"}


@pytest.mark.parametrize("data", [
    None, [], {"terms": []}, {"degree": 3, "variables": 2, "terms": 5},
    {"degree": 3, "variables": 2, "terms": [{"coefficient": "1"}]},
    {"degree": True, "variables": 2, "terms": []},
    {"degree": 3, "variables": 0, "terms": []},
    {"degree": 100000, "variables": 3, "terms": []},
    {"degree": 3, "variables": 2, "terms": []},
    {"degree": 3, "variables": 2, "terms": [{"coefficient": "0", "form": ["0", "0"]}]},
    {"degree": 3, "variables": 2, "terms": [{"coefficient": "0", "form": ["1"]}]},
    {"degree": 3, "variables": 2, "terms": [{"coefficient": "6/4", "form": ["-0", "2/4"]},
                                            {"coefficient": "-3/2", "form": ["0", "1"]}]},
], ids=["null", "list", "no-degree", "terms-not-a-list", "form-missing", "boolean-degree",
        "no-variables", "past-the-entry-budget", "empty", "zero-coefficient-zero-form",
        "zero-coefficient-wrong-ambient", "terms-that-cancel"])
def test_shapes_read_alike(data):
    assert (_outcome(WaringDecomposition.from_json_dict, data)
            == _outcome(from_json_dict_by_fractions, data))


@pytest.mark.parametrize("text", TEXTS, ids=lambda t: repr(t) if len(repr(t)) < 20
                         else f"{repr(t)[:6]}...{len(t)}-chars")
def test_numbers_read_alike(text):
    try:
        expected = number_value_by_fractions(text)
    except Exception as exc:  # the comparison is the point
        with pytest.raises(type(exc)):
            _number_pair(text)
        return
    p, q = _number_pair(text)
    assert type(p) is int and type(q) is int and q > 0
    assert Fraction(p, q) == expected


@pytest.mark.parametrize("value", [True, False])
def test_booleans_are_not_numbers(value):
    """The one deliberate difference: Fraction(True) is 1, so the old route
    read {"coefficient": true, "form": [true, false]} as x0^3."""
    data = {"degree": 3, "variables": 2,
            "terms": [{"coefficient": value, "form": ["1", "0"]},
                      {"coefficient": "1", "form": [True, False]}]}
    assert isinstance(from_json_dict_by_fractions(data), WaringDecomposition)
    with pytest.raises(TypeError):
        _number_pair(value)
    with pytest.raises(ValueError, match="^not a finite rational in the decomposition: "):
        WaringDecomposition.from_json_dict(data)
