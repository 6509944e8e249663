"""Reference figures for the README, outside the timed workloads.

    python3 bench/reference.py

Each figure is one call, timed once, on inputs built from FIXED_SEED the
way the workloads build theirs.  They size work that the workloads leave
out because a single call takes seconds:

* a successful dense tangent report, taken as decompose_type_c with the
  inverse change supplied plus avoidance_lower_bound on the transported
  slicing hyperplane, next to today's rank_report (whose normalization
  search fails on these inputs);
* one poly.substitute of a dense tangent product, the step that dominates
  the successful path;
* apolar_ideal of dense random cubics in 8 to 10 variables.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import apolarity  # noqa: E402
import algebra as A  # noqa: E402
import workloads  # noqa: E402


def timed(call):
    t0 = perf_counter()
    out = call()
    return out, perf_counter() - t0


def tangent_figures(n: int) -> None:
    rng = random.Random(workloads.FIXED_SEED + n)
    mat, inv = workloads.random_change(rng, n + 1)
    lin, q, form = workloads.pushed_tangent_product(n, mat)
    rc = workloads.reducible_cubic(apolarity, lin, q, n + 1)
    poly = rc.form()
    report, t_report = timed(lambda: apolarity.rank_report(rc))
    change = apolarity.LinearChange(inv)
    dec, t_dec = timed(lambda: apolarity.decompose_type_c(rc, change=change))
    # the slicing hyperplane of rank_report: column 3 (2 when n = 2) of the
    # change to the split normal form, pushed back to these coordinates
    split = A.mat_mul(inv, [list(row) for row in apolarity.split_change(n).matrix])
    col = 3 if n >= 3 else 2
    slicer = apolarity.Polynomial(n + 1, A.linear([row[col] for row in split]))
    cert, t_cert = timed(lambda: apolarity.avoidance_lower_bound(poly, slicer))
    _, t_sub = timed(lambda: apolarity.substitute(poly, change))
    workloads.check_change(dec, n, form)
    workloads.hyperplane_hilbert_ok(form, n + 1, A.clean(slicer.terms), cert.hilbert.values, n)
    print(f"P^{n} tangent product: rank_report {t_report:.2f} s "
          f"(witness: {report.witness is not None}); "
          f"change path {t_dec:.2f} s + avoidance {t_cert:.2f} s "
          f"= {t_dec + t_cert:.2f} s; one substitute {t_sub:.2f} s", flush=True)


def apolar_figure(nv: int) -> None:
    rng = random.Random(workloads.FIXED_SEED + nv)
    form = {e: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9)) for e in A.monomials(nv, 3)}
    ideal, t = timed(lambda: apolarity.apolar_ideal(apolarity.Polynomial(nv, form)))
    print(f"apolar_ideal of a dense cubic in {nv} variables: {t:.2f} s "
          f"({len(ideal.generators)} generators)", flush=True)


def main() -> int:
    for n in (7, 9):
        tangent_figures(n)
    for nv in (8, 9, 10):
        apolar_figure(nv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
