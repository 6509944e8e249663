"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest bench/test_checks.py

Each corruption test takes a real answer of the package, breaks one value,
and requires the run's judge to report a failed operation.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import apolarity  # noqa: E402
import apolarity.cli  # noqa: E402,F401
import algebra as A  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def judge_one(op, out):
    outputs = [{op.key(out): [out, 1]}]
    return run.judge([op], outputs, workloads.WrongOutput)


def first_op(ops, prefix):
    return next(op for op in ops if op.name.startswith(prefix))


def test_bareiss_rank_and_power_expansion():
    assert A.bareiss_rank([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2
    assert A.bareiss_rank([[Fraction(1, 2), 1], [1, 2]]) == 1
    x_plus_y = A.linear([1, 1])
    assert A.power_of_linear([1, 1], 3) == A.multiply(A.multiply(x_plus_y, x_plus_y), x_plus_y)


def test_text_round_trip():
    form = {(2, 0, 1): Fraction(-3, 2), (0, 3, 0): Fraction(1), (1, 1, 1): Fraction(7)}
    assert A.from_text(A.to_text(form, "d"), 3) == form
    assert workloads.arg(form).startswith("(")


def test_tangent_witness_passes_and_a_corrupted_coefficient_fails():
    op = first_op(workloads.tangent_dense(apolarity, 7), "report-n2")
    rep = op.call()
    assert judge_one(op, rep) == (1, 0, True, [])
    (coef, form), *rest = rep.witness.terms
    bad = dataclasses.replace(rep, witness=dataclasses.replace(
        rep.witness, terms=((coef + 1, form), *rest)))
    attempted, failed, correct, messages = judge_one(op, bad)
    assert (attempted, failed, correct) == (1, 1, False)
    assert "does not expand" in messages[0]


def test_missing_witness_is_a_failure_but_not_a_wrong_answer():
    op = first_op(workloads.tangent_dense(apolarity, 7), "report-n2")
    rep = dataclasses.replace(op.call(), witness=None, avoidance=None)
    assert judge_one(op, rep)[:3] == (1, 1, True)


def test_corrupted_hilbert_value_fails():
    op = first_op(workloads.apolar_dense(apolarity, 7), "apolar-d3-v4")
    ideal, hf = op.call()
    assert judge_one(op, (ideal, hf))[:3] == (1, 0, True)
    values = list(hf.values)
    values[1] += 1
    bad = (ideal, dataclasses.replace(hf, values=tuple(values)))
    assert judge_one(op, bad)[:3] == (1, 1, False)


def test_corrupted_exit_code_fails(tmp_path):
    op = first_op(workloads.cli_sparse(apolarity, 7, tmp_path), "certify-chain")
    code, text = op.call()
    assert code == 0 and judge_one(op, (code, text))[:3] == (1, 0, True)
    assert judge_one(op, (1, text))[:3] == (1, 1, False)


def test_an_operation_that_raises_is_failed():
    op = workloads.Op("raises", None, lambda out: "ok", lambda out: out)
    out = run.Raised(RecursionError("maximum recursion depth exceeded"))
    assert run.judge([op], [{out.key: [out, 3]}], workloads.WrongOutput)[:3] == (3, 3, True)


def test_tracer_records_nested_spans_and_restores_the_package():
    certificates = apolarity.certificates
    original = certificates.rank_report
    rc = apolarity.normal_form_pair(3)
    tracer = Tracer(apolarity)
    tracer.install()
    try:
        rep = tracer.run_op(lambda: certificates.rank_report(rc))
    finally:
        tracer.uninstall()
    assert certificates.rank_report is original
    assert apolarity.cubics.classify.__name__ == "classify"
    assert rep.witness is not None
    names = tracer.names
    report = names.index("certificates.rank_report")
    assert tracer.calls[report] == 1
    # the report calls classify through the name bound in certificates,
    # and classify is defined in cubics: the span must still be caught
    assert tracer.calls[names.index("cubics.classify")] >= 1
    assert tracer.calls[names.index("linalg.rref")] >= 1
    first_report = list(tracer.name).index(report)
    assert tracer.parent[first_report] == 0  # child of the bench's op span
    assert 0 < tracer.op_covered <= tracer.op_time
    for k in range(len(names)):
        assert tracer.self_time[k] >= 0
