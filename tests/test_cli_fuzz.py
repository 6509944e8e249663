"""Property test of the command line: whatever the input, `main` exits with
one of the documented codes 0-3 and raises nothing.

Inputs are forms in at most 4 variables of degree at most 4 with
coefficients up to 10^30, and malformed text: a valid form cut short, one
with a stray symbol inserted, or symbols alone.  No digit, variable letter
or "^" is ever inserted next to a digit, so malformed text never turns a
number into a variable index, an exponent or a power: the parser takes
those as written, however large.  The examples are derived from the test's
own source (derandomize), so every run checks the same 200 calls.  A
second test sends 150 such forms, with operators drawn the same way,
through the certificate path: certify FORM --hyperplane L [--colon G].
A third sends 200 calls drawn like the first, but whose malformed text may
also have a digit, a variable letter or "^" inserted anywhere: indices,
exponents and powers then grow as written, and the parser's size budget
(poly.MAX_MONOMIAL_ENTRIES, lowered to 10^5 here together with the dense
budget of apolar's catalecticants) must turn what is too large into exit 2.
"""

from __future__ import annotations

import contextlib
import io
from datetime import timedelta

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from apolarity import apolar, poly  # noqa: E402
from apolarity.cli import main  # noqa: E402

SYMBOLS = "*+-()/ #"
MISTYPES = SYMBOLS + "0123456789xd^"


@st.composite
def form_text(draw, nvars: int, degree: int, prefix: str = "x") -> str:
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        num = draw(st.integers(-10 ** 30, 10 ** 30))
        den = draw(st.sampled_from([1, 1, 1, 7, 10 ** 30 + 3]))
        exps = [0] * nvars
        for i in draw(st.lists(st.integers(0, nvars - 1),
                               min_size=degree, max_size=degree)):
            exps[i] += 1
        body = "*".join(f"{prefix}{i}^{e}" for i, e in enumerate(exps) if e)
        coef = f"{abs(num)}/{den}" if den != 1 else str(abs(num))
        sign = "-" if num < 0 else "+"
        pieces.append(f"{sign} {coef}*{body}" if body else f"{sign} {coef}")
    text = " ".join(pieces)
    return text[2:] if text.startswith("+") else "-" + text[2:]


@st.composite
def maybe_malformed(draw, text: str, inserts: str = SYMBOLS) -> str:
    kind = draw(st.sampled_from(["valid", "valid", "valid", "cut", "insert",
                                 "symbols"]))
    if kind == "cut":
        return text[:draw(st.integers(0, len(text)))]
    if kind == "insert":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(inserts)) + text[at:]
    if kind == "symbols":
        return draw(st.text(alphabet=SYMBOLS + "xd^", max_size=12))
    return text


@st.composite
def calls(draw, inserts: str = SYMBOLS) -> list[str]:
    command = draw(st.sampled_from(["analyze", "decompose", "apolar",
                                    "hilbert-plus", "hilbert-colon"]))
    # decompose takes binary products through the rational root finder
    nvars = draw(st.sampled_from([2, 2, 3, 4]) if command == "decompose"
                 else st.integers(1, 4))
    if command in ("analyze", "decompose"):
        texts = [draw(form_text(nvars, 1)), draw(form_text(nvars, 2))]
    else:
        texts = [draw(form_text(nvars, draw(st.integers(1, 4))))]
    texts = [draw(maybe_malformed(t, inserts)) for t in texts]
    argv = [command.split("-")[0], *texts]
    if command.startswith("hilbert"):
        op = draw(form_text(nvars, draw(st.integers(1, 2)), prefix="d"))
        argv += [f"--{command.split('-')[1]}", draw(maybe_malformed(op, inserts))]
    if draw(st.booleans()):
        argv += ["--vars", str(draw(st.integers(nvars, 4)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=200, derandomize=True, database=None,
          deadline=timedelta(seconds=10))
@given(argv=calls())
def test_cli_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse reports a usage error this way
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())


@st.composite
def certify_calls(draw) -> list[str]:
    nvars = draw(st.integers(1, 4))
    form = draw(form_text(nvars, draw(st.integers(1, 4))))
    hyperplane = draw(form_text(nvars, 1, prefix="d"))
    argv = ["certify", draw(maybe_malformed(form)),
            "--hyperplane", draw(maybe_malformed(hyperplane))]
    if draw(st.booleans()):
        divisor = draw(form_text(nvars, draw(st.integers(1, 3)), prefix="d"))
        argv += ["--colon", draw(maybe_malformed(divisor))]
    if draw(st.booleans()):
        argv += ["--vars", str(draw(st.integers(nvars, 4)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150, derandomize=True, database=None,
          deadline=timedelta(seconds=10))
@given(argv=certify_calls())
def test_certify_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())


@settings(max_examples=200, derandomize=True, database=None,
          deadline=timedelta(seconds=10))
@given(argv=calls(MISTYPES))
def test_mistyped_input_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        for module in (poly, apolar):
            mp.setattr(module, "MAX_MONOMIAL_ENTRIES", 10 ** 5)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
