"""Frozen `--json` output and exit codes of every subcommand.

The corpus below is small and fixed; tests/golden_cli.json holds the stdout
and exit code each call produced when it was recorded.  A refactor that
claims "same behaviour" must leave every entry byte-identical.  When an
output change is intended, regenerate the file with

    PYTHONPATH=src python tests/test_golden_cli.py

and say in CHANGES.md which entries moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from apolarity.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

# the pinch form x0*(x0*x1 + x2*x3) after substituting x_i -> sum_j m[i][j]*x_j
# with m = [[2, -1, 0, 2], [2, 2, -2, -1], [2, 0, 0, -2], [-2, 1, 1, -2]]
DENSE_LINEAR = "2*x0 - x1 + 2*x3"
DENSE_QUADRIC = ("4*x0*x1 - 2*x0*x2 + 2*x0*x3 - 2*x1^2 + 2*x1*x2 + 3*x1*x3 "
                 "- 6*x2*x3 + 2*x3^2")
PLANE = "x0^2*x2 + x0*x1^2"
DENSE_CUBIC = ("3*x0^2*x1 + x0^2*x2 + 3*x0^2*x3 + 3*x0^2*x4 + x0*x1*x3 "
               "+ 3*x0*x1*x4 + x0*x2^2 - 2*x0*x2*x3 - 2*x0*x2*x4 + 3*x0*x3^2 "
               "+ x0*x3*x4 + 2*x1^3 + x1^2*x2 + 3*x1^2*x3 - 2*x1^2*x4 "
               "- 3*x1*x2^2 - x1*x2*x4 - 2*x1*x3^2 - 3*x1*x3*x4 + x1*x4^2 "
               "+ 3*x2^3 + 2*x2^2*x3 + 2*x2^2*x4 - 3*x2*x3^2 + x2*x3*x4 "
               "+ 2*x3^2*x4 + 2*x3*x4^2 + x4^3")

# Every call gets --json except the "text-" cases, which freeze the printed
# identities.  {dir} is replaced by a per-run temporary directory; calls run
# in order, so a `verify` can read what an earlier `decompose -o` wrote.
CASES: list[tuple[str, list[str]]] = [
    ("analyze-normal-2", ["analyze", "x0", "x0*x1 + x2^2"]),
    ("analyze-normal-3", ["analyze", "x0", "x0*x1 + x2*x3"]),
    ("analyze-normal-4", ["analyze", "x0", "x0*x1 + x2*x3 + x4^2"]),
    ("analyze-normal-5", ["analyze", "x0", "x0*x1 + x2*x3 + x4^2 + x5^2"]),
    ("analyze-dense-tangent", ["analyze", DENSE_LINEAR, DENSE_QUADRIC]),
    ("analyze-type-a", ["analyze", "x0", "x0^2 + x1^2 + x2^2"]),
    ("analyze-type-b", ["analyze", "x0", "x1*x2 + x3^2"]),
    ("analyze-cone-essential-3", ["analyze", "--vars", "5", "x0", "x0*x1 + x2^2"]),
    ("analyze-cone-tangent", ["analyze", "--vars", "5", "x0", "x0*x1 + x2*x3"]),
    ("analyze-cone-dense", ["analyze", "x0 + x4",
                            "(x0 + x4)*(x1 + 2*x4) + x2*x3"]),
    ("analyze-cone-binary-witness", ["analyze", "x0 + x2",
                                     "(x0 + x2)^2 + 3*(x1 - x2)^2"]),
    ("analyze-repeated-factor", ["analyze", "--vars", "3", "x0", "x0*x1"]),
    ("analyze-rank-one", ["analyze", "x0 + x1", "x0^2 + 2*x0*x1 + x1^2 + 0*x2"]),
    ("analyze-binary", ["analyze", "x0 + x1", "x0^2 + x1^2"]),
    ("decompose-normal-2", ["decompose", "--normal-form", "2"]),
    ("decompose-normal-4", ["decompose", "--normal-form", "4",
                            "-o", "{dir}/nf4.json"]),
    ("decompose-dense-tangent", ["decompose", DENSE_LINEAR, DENSE_QUADRIC]),
    ("decompose-binary-cubes", ["decompose", "x0 + x1", "x0^2 - x0*x1 + x1^2"]),
    ("decompose-binary", ["decompose", "x0", "x0^2 + 3*x1^2"]),
    ("decompose-binary-irrational", ["decompose", "x0", "x0^2 - 2*x1^2"]),
    ("decompose-obstructed", ["decompose", "x0", "x0*x1 + x2*x3 + 2*x4^2"]),
    ("verify-ok", ["verify", "x0^2*x1 + x0*x2*x3 + x0*x4^2", "{dir}/nf4.json"]),
    ("verify-wrong", ["verify", "x0^3", "--vars", "5", "{dir}/nf4.json"]),
    ("apolar-plane", ["apolar", PLANE]),
    ("apolar-fermat", ["apolar", "x0^3 + x1^3 + x2^3 + x3^3"]),
    ("apolar-dense-cubic", ["apolar", "x0^3 + 2*x0*x1*x2 - 3/2*x1^2*x3 "
                            "+ x2^3 - x0*x3^2 + 5*x1*x2*x3"]),
    ("apolar-dense-cubic-5", ["apolar", DENSE_CUBIC]),
    ("apolar-quartic", ["apolar", "x0^4 + x0*x1^3 + 2*x1^2*x2^2 - x2^4"]),
    # the three forms below have an apolar generator of degree d+1
    ("apolar-power-of-linear", ["apolar", "(x0+2*x1-x2)^3"]),
    ("apolar-constant", ["apolar", "7"]),
    ("apolar-power-vars-3", ["apolar", "--vars", "3", "x1^4"]),
    ("hilbert-plain", ["hilbert", PLANE]),
    ("hilbert-plus", ["hilbert", PLANE, "--plus", "d2"]),
    ("hilbert-colon", ["hilbert", PLANE, "--colon", "d1"]),
    ("hilbert-colon-plus", ["hilbert", PLANE, "--colon", "d1", "--plus", "d2"]),
    ("certify-chain", ["certify", "--chain"]),
    ("certify-chain-other", ["certify", "--chain", "x0^3 + x1^3 + x2^3"]),
    ("certify-hyperplane", ["certify", PLANE, "--hyperplane", "d2"]),
    ("certify-hyperplane-colon", ["certify", PLANE, "--hyperplane", "d2",
                                  "--colon", "d1", "--removed", "1"]),
    ("bad-input", ["analyze", "x0", "x0*x1 +"]),
    ("text-analyze-dense-tangent", ["analyze", DENSE_LINEAR, DENSE_QUADRIC]),
    ("text-decompose-normal-3", ["decompose", "--normal-form", "3"]),
    ("text-decompose-binary", ["decompose", "x0", "x0^2 + 3*x1^2"]),
    ("text-apolar-dense-cubic-5", ["apolar", DENSE_CUBIC]),
]


def run_case(name: str, argv: list[str], tmp: str) -> dict:
    args = [a.replace("{dir}", tmp) for a in argv]
    if not name.startswith("text-"):
        args.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return {"exit": code, "stdout": out.getvalue()}


def run_corpus() -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: run_case(name, argv, tmp) for name, argv in CASES}


@pytest.fixture(scope="module")
def recorded() -> dict[str, dict]:
    return run_corpus()


def test_corpus_matches_golden_names():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_golden_output(recorded, name):
    golden = json.loads(GOLDEN.read_text())[name]
    assert recorded[name]["exit"] == golden["exit"]
    assert recorded[name]["stdout"] == golden["stdout"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_corpus(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
