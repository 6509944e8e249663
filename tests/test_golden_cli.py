"""Frozen `--json` output and exit codes of every subcommand.

The corpus below is small and fixed; tests/golden_cli.json holds the stdout
and exit code each call produced when it was recorded.  A refactor that
claims "same behaviour" must leave every entry byte-identical.  When an
output change is intended, regenerate the file with

    PYTHONPATH=src python tests/test_golden_cli.py [NAME ...]

which re-records only the named entries, leaving every other one byte for
byte, or the whole file when no name is given; and say in CHANGES.md which
entries moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from apolarity import WaringDecomposition, parse, verify_decomposition
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
# pinch products for n = 5 and n = 7 after dense changes with entries in
# {-1, 0, 1}; a plain diagonalization of their residual blocks does not show
# the similarity, so normalization runs through minimization and LLL
LATTICE_5 = ("-x0 - x2 + x3",
             "2*x0^2 + x0*x1 + 2*x0*x2 - 2*x0*x3 - 2*x0*x4 - x0*x5 + 2*x1^2 "
             "+ 5*x1*x2 - 2*x1*x3 - 2*x1*x4 + 3*x1*x5 + 3*x2^2 - x2*x3 "
             "- 2*x2*x4 + 2*x2*x5 + x3*x4 + x4^2 - 3*x4*x5 + x5^2")
LATTICE_7 = ("-x2 + x4",
             "2*x0^2 - 4*x0*x1 + x0*x2 - 4*x0*x3 + x0*x4 + x0*x5 - 2*x0*x6 "
             "+ 3*x0*x7 + 4*x1^2 + x1*x2 + 4*x1*x3 - x1*x4 - x1*x5 - x1*x7 "
             "+ 2*x2*x3 - 3*x2*x4 + 2*x2*x5 + x2*x6 + x2*x7 + 5*x3^2 "
             "- 4*x3*x4 + x3*x5 + 6*x3*x6 - 5*x3*x7 + 5*x4^2 - 5*x4*x5 "
             "- x4*x6 + 2*x4*x7 + 4*x5^2 - x5*x6 - x5*x7 + 2*x6^2 - 3*x6*x7 "
             "+ 2*x7^2")
# cones after dense changes with entries in {-1, 0, 1}: the pinch form with
# n = 4 in six variables, and the TypeB product x0*(x1*x2 + x3^2) in five
# (both factors negated, so that no argument starts with "-")
CONE_TANGENT_6 = ("x1 - x0 - x2 - x4",
                  "x0^2 - x0*x1 + x0*x2 + 2*x0*x3 + 4*x0*x4 - 2*x0*x5 + x1*x2 "
                  "- x1*x3 - 2*x1*x5 + 2*x2*x3 + 2*x2*x4 - x2*x5 + x3^2 "
                  "+ 3*x3*x4 - 3*x3*x5 + x4^2 + x4*x5")
CONE_TYPE_B_5 = ("x0 + x1 + x2 + x4",
                 "3*x0*x2 - x0*x3 + 2*x0*x4 - x1^2 + x1*x2 - x1*x3 - 2*x1*x4 "
                 "- x2^2 - x2*x4 - x3*x4 - 2*x4^2")

# (x0 + A*x1)^3 + (x0 - B*x1)^3 = (2*x0 + (A - B)*x1) *
# (x0^2 + (A - B)*x0*x1 + (A^2 + A*B + B^2)*x1^2), with 31-digit A and B
HUGE_A, HUGE_B = 10 ** 30 + 3, 10 ** 30 + 7
HUGE_ROOTS = (f"2*x0 - {HUGE_B - HUGE_A}*x1",
              f"x0^2 - {HUGE_B - HUGE_A}*x0*x1 "
              f"+ {HUGE_A ** 2 + HUGE_A * HUGE_B + HUGE_B ** 2}*x1^2")

# Every call gets --json except the "text-" cases, which freeze the printed
# identities.  {dir} is replaced by a per-run temporary directory; calls run
# in order, so a `verify` can read what an earlier `decompose -o` wrote.
CASES: list[tuple[str, list[str]]] = [
    ("analyze-normal-2", ["analyze", "x0", "x0*x1 + x2^2"]),
    ("analyze-normal-3", ["analyze", "x0", "x0*x1 + x2*x3"]),
    ("analyze-normal-4", ["analyze", "x0", "x0*x1 + x2*x3 + x4^2"]),
    ("analyze-normal-5", ["analyze", "x0", "x0*x1 + x2*x3 + x4^2 + x5^2"]),
    ("analyze-dense-tangent", ["analyze", DENSE_LINEAR, DENSE_QUADRIC]),
    ("analyze-dense-lattice-5", ["analyze", *LATTICE_5]),
    ("analyze-dense-lattice-7", ["analyze", *LATTICE_7]),
    ("analyze-type-a", ["analyze", "x0", "x0^2 + x1^2 + x2^2"]),
    ("analyze-type-b", ["analyze", "x0", "x1*x2 + x3^2"]),
    ("analyze-cone-essential-3", ["analyze", "--vars", "5", "x0", "x0*x1 + x2^2"]),
    ("analyze-cone-tangent", ["analyze", "--vars", "5", "x0", "x0*x1 + x2*x3"]),
    ("analyze-cone-dense", ["analyze", "x0 + x4",
                            "(x0 + x4)*(x1 + 2*x4) + x2*x3"]),
    ("analyze-cone-dense-tangent-6", ["analyze", *CONE_TANGENT_6]),
    ("analyze-cone-dense-type-b-5", ["analyze", *CONE_TYPE_B_5]),
    ("analyze-cone-binary-witness", ["analyze", "x0 + x2",
                                     "(x0 + x2)^2 + 3*(x1 - x2)^2"]),
    ("analyze-repeated-factor", ["analyze", "--vars", "3", "x0", "x0*x1"]),
    ("analyze-degenerate-vars-4", ["analyze", "--vars", "4", "x0", "x0*x1"]),
    ("analyze-rank-one", ["analyze", "x0 + x1", "x0^2 + 2*x0*x1 + x1^2 + 0*x2"]),
    ("analyze-binary", ["analyze", "x0 + x1", "x0^2 + x1^2"]),
    ("decompose-normal-2", ["decompose", "--normal-form", "2"]),
    ("decompose-normal-4", ["decompose", "--normal-form", "4",
                            "-o", "{dir}/nf4.json"]),
    ("decompose-dense-tangent", ["decompose", DENSE_LINEAR, DENSE_QUADRIC]),
    ("decompose-binary-cubes", ["decompose", "x0 + x1", "x0^2 - x0*x1 + x1^2"]),
    ("decompose-binary", ["decompose", "x0", "x0^2 + 3*x1^2"]),
    ("decompose-binary-irrational", ["decompose", "x0", "x0^2 - 2*x1^2"]),
    # similar to the pinch form, not isometric: x0 -> x0/c, x1 -> c^2*x1
    # carries x0*(x0*x1 + c*N) onto it (c = 2, 3, 3)
    ("decompose-obstructed", ["decompose", "x0", "x0*x1 + x2*x3 + 2*x4^2"]),
    ("decompose-similar-2", ["decompose", "x0", "x0*x1 + 3*x2^2"]),
    ("decompose-similar-4", ["decompose", "x0", "x0*x1 + 3*x2*x3 + 3*x4^2"]),
    # a definite block (anisotropic over R), and one anisotropic at p = 3
    ("decompose-definite-block", ["decompose", "x0", "x0*x1 + x2^2 + 2*x3^2"]),
    ("decompose-obstructed-at-3", ["decompose", "x0", "x0*x1 + x2^2 - 3*x3^2"]),
    # binary generators: a root at infinity, two rational roots, roots of
    # 3 and of 31 digits, and a non-squarefree lower generator
    ("decompose-binary-power", ["decompose", "--vars", "2", "x0", "x0^2"]),
    ("decompose-binary-two-roots", ["decompose", "x0 + x1",
                                    "x0^2 + x0*x1 + x1^2"]),
    # (x0 + 12*x1)^3 + (x0 - 345*x1)^3
    ("decompose-binary-large-roots", ["decompose", "2*x0 - 333*x1",
                                      "x0^2 - 333*x0*x1 + 123309*x1^2"]),
    ("decompose-binary-huge-roots", ["decompose", "--vars", "2", *HUGE_ROOTS]),
    ("decompose-binary-repeated", ["decompose", "x0", "x0*x1"]),
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
    # a form and an operator with a leading minus are values, not options
    ("analyze-leading-minus", ["analyze", "-x0", "x0*x1 + x2*x3"]),
    ("hilbert-leading-minus", ["hilbert", "-x0^2*x2-x0*x1^2", "--plus", "-d2"]),
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



@pytest.mark.parametrize("name", ["decompose-obstructed", "decompose-similar-2",
                                  "decompose-similar-4"])
def test_similar_block_witness_verifies(recorded, name):
    assert recorded[name]["exit"] == 0
    payload = json.loads(recorded[name]["stdout"])
    ok, _ = verify_decomposition(parse(payload["form"]),
                                 WaringDecomposition.from_json_dict(payload))
    assert ok and payload["verified"] is True


def test_huge_roots_entry_is_its_construction(recorded):
    assert recorded["decompose-binary-huge-roots"]["exit"] == 0
    payload = json.loads(recorded["decompose-binary-huge-roots"]["stdout"])
    assert payload["rank"] == 2 and payload["generator_degrees"] == [2, 3]
    terms = {(t["coefficient"], tuple(t["form"]))
             for t in payload["decomposition"]["terms"]}
    assert terms == {("1", ("1", str(HUGE_A))), ("1", ("1", str(-HUGE_B)))}


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = sorted(set(names) - {name for name, _ in CASES})
    if unknown:
        sys.exit(f"no such case: {', '.join(unknown)}")
    corpus = run_corpus()
    golden = json.loads(GOLDEN.read_text()) if names else {}
    golden.update({name: corpus[name] for name in names or corpus})
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
