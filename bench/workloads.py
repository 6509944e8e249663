"""The four workloads: seeded inputs, the timed call, and the output check.

Every input is built here from the seed, in the bench's own arithmetic
(``algebra``), and handed to the package as plain data or text.  Every check
compares the package's answer with a computation made apart from it, or
with a property the method must have; none compares with a stored copy of
an earlier answer.

A check returns "ok", returns "failed" when the operation did not do its
job in a way the README names as a known fault, and raises WrongOutput when
the answer contradicts the independent computation.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import algebra as A

OK, FAILED = "ok", "failed"
# Seed of the tangent products with n >= 4 in tangent-dense.  Whether the
# package finds a rational normalization for those depends on the change of
# coordinates, so they are drawn from this fixed seed: their failures are
# then the same in every run, whatever --seed says.
FIXED_SEED = 5394


class WrongOutput(Exception):
    """The package's answer contradicts an independent computation."""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str]
    key: Callable[[object], object]


def require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongOutput(message)


# -- shared construction ------------------------------------------------------

def normal_quadric(n: int) -> dict:
    """Q with x0*Q the pinch normal form in n+1 variables."""
    nv = n + 1
    m = [[Fraction(0)] * nv for _ in range(nv)]
    m[0][1] = m[1][0] = Fraction(1, 2)
    if n == 2:
        m[2][2] = Fraction(1)
    else:
        m[2][3] = m[3][2] = Fraction(1, 2)
        for i in range(4, nv):
            m[i][i] = Fraction(1)
    return A.quadric_form(m)


def normal_form(n: int) -> dict:
    return A.multiply(A.linear([1] + [0] * n), normal_quadric(n))


def random_change(rng: random.Random, nv: int, k: int = 3):
    """Dense integer matrix with entries in [-k, k], and its inverse."""
    while True:
        mat = [[rng.randint(-k, k) for _ in range(nv)] for _ in range(nv)]
        try:
            return mat, A.inverse(mat)
        except ZeroDivisionError:
            continue


def pushed_tangent_product(n: int, mat):
    """(l, Q, F): the pinch pair with each old variable i replaced by
    sum_j mat[i][j] y_j."""
    nv = n + 1
    lin = [Fraction(mat[0][j]) for j in range(nv)]
    qm = A.quadric_matrix(normal_quadric(n), nv)
    q = A.quadric_form(A.mat_mul(A.transpose(mat), A.mat_mul(qm, mat)))
    return lin, q, A.multiply(A.linear(lin), q)


def reducible_cubic(pkg, lin, q, nv):
    return pkg.ReducibleCubic(pkg.LinearForm(lin), pkg.Polynomial(nv, q))


def check_power_sum(terms, form: dict, nv: int, length: int, what: str) -> None:
    """terms: (coefficient, coefficient vector) pairs of a sum of cubes."""
    require(len(terms) == length, f"{what}: {len(terms)} terms, expected {length}")
    require(A.pairwise_independent([v for _, v in terms]),
            f"{what}: terms are not pairwise independent")
    require(A.expand_power_sum(terms, 3, nv) == form,
            f"{what}: the power sum does not expand to the form")


def dec_terms(dec) -> list:
    return [(c, list(f.coeffs)) for c, f in dec.terms]


def json_terms(payload: dict) -> list:
    return [(Fraction(t["coefficient"]), [Fraction(v) for v in t["form"]])
            for t in payload["terms"]]


def hyperplane_hilbert_ok(form: dict, nv: int, op: dict, values, n: int) -> None:
    require(tuple(values) == (1, n, n, 0),
            f"avoidance Hilbert function {tuple(values)}, expected (1, {n}, {n}, 0)")
    require(A.apply_operator(op, form) != {}, "the slicing operator annihilates the form")
    expected = A.quotient_hilbert(form, op, nv, 4)
    require(list(values) == expected,
            f"avoidance Hilbert function {tuple(values)}, catalecticant ranks give {expected}")


# -- tangent-dense -------------------------------------------------------------

def tangent_dense(pkg, seed: int) -> list[Op]:
    """rank_report on pinch pairs after a dense change: n = 2, 3 from the
    seed (these always normalize), n = 4, 5, 7 from FIXED_SEED."""
    rng, fixed = random.Random(seed), random.Random(FIXED_SEED)
    plan = [(2, rng)] * 6 + [(3, rng)] * 28
    plan += [(n, fixed) for n in (4, 4, 5, 5, 7, 7)]
    ops = []
    for idx, (n, source) in enumerate(plan):
        mat, _ = random_change(source, n + 1)
        lin, q, form = pushed_tangent_product(n, mat)
        rc = reducible_cubic(pkg, lin, q, n + 1)
        ops.append(Op(f"report-n{n}-{idx}",
                      lambda rc=rc: pkg.certificates.rank_report(rc),
                      lambda rep, n=n, form=form: check_report(rep, n, form),
                      report_key))
    return ops


def report_key(rep):
    av = rep.avoidance
    return (rep.lower, rep.upper, rep.classification, rep.form,
            rep.witness.terms if rep.witness else None,
            (av.hyperplane, av.hilbert.values) if av else None)


def check_report(rep, n: int, form: dict) -> str:
    nv = n + 1
    kind = rep.classification.kind.value if rep.classification else None
    require(kind == "TypeC", f"class {kind}, expected TypeC")
    require(A.clean(rep.form.terms) == form, "the report is about another form")
    require(rep.lower == 2 * n, f"lower bound {rep.lower}, expected {2 * n}")
    require(rep.upper == 2 * n + 1, f"upper bound {rep.upper}, expected {2 * n + 1}")
    if rep.witness is None:
        return FAILED  # the false NeedsFieldExtension named in the README
    check_power_sum(dec_terms(rep.witness), form, nv, 2 * n + 1, "witness")
    require(rep.avoidance is not None, "a witness came without its avoidance certificate")
    hyperplane_hilbert_ok(form, nv, A.clean(rep.avoidance.hyperplane.terms),
                          rep.avoidance.hilbert.values, n)
    return OK


# -- tangent-change ------------------------------------------------------------

def tangent_change(pkg, seed: int) -> list[Op]:
    """decompose_type_c with the inverse change supplied, n = 2..6."""
    rng = random.Random(seed)
    plan = [2] * 12 + [3] * 28 + [4] * 3 + [5] * 2 + [6]
    ops = []
    for idx, n in enumerate(plan):
        mat, inv = random_change(rng, n + 1)
        lin, q, form = pushed_tangent_product(n, mat)
        rc = reducible_cubic(pkg, lin, q, n + 1)

        def call(rc=rc, inv=inv):
            return pkg.cubics.decompose_type_c(rc, change=pkg.poly.LinearChange(inv))

        ops.append(Op(f"change-n{n}-{idx}", call,
                      lambda dec, n=n, form=form: check_change(dec, n, form),
                      lambda dec: dec.terms))
    return ops


def check_change(dec, n: int, form: dict) -> str:
    check_power_sum(dec_terms(dec), form, n + 1, 2 * n + 1, "decomposition")
    return OK


# -- apolar-dense --------------------------------------------------------------

def apolar_dense(pkg, seed: int) -> list[Op]:
    """apolar_ideal then hilbert_function on dense random cubics and quartics."""
    rng = random.Random(seed)
    plan = [(3, 4)] * 8 + [(3, 5)] * 8 + [(3, 6)] * 6 + [(3, 7)] * 2
    plan += [(4, 3)] * 6 + [(4, 4)] * 8 + [(4, 5)] * 4 + [(4, 6)]
    ops = []
    for idx, (d, nv) in enumerate(plan):
        form = {e: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9))
                for e in A.monomials(nv, d)}
        poly = pkg.Polynomial(nv, form)

        def call(poly=poly):
            ideal = pkg.apolar.apolar_ideal(poly)
            return ideal, pkg.ideals.hilbert_function(ideal)

        ops.append(Op(f"apolar-d{d}-v{nv}-{idx}", call,
                      lambda out, form=form, nv=nv: check_apolar(
                          [A.clean(g.terms) for g in out[0].generators],
                          out[1].values, form, nv),
                      lambda out: (out[0].generators, out[1].values)))
    return ops


def check_apolar(generators: list[dict], values, form: dict, nv: int) -> str:
    d = A.degree(form)
    partials = A.Partials(form, nv)
    for g in generators:
        gd = A.degree(g)
        require(1 <= gd <= d + 1, f"generator of degree {gd}")
        if gd <= d:
            image: dict = {}
            for alpha, c in g.items():
                A.add_into(image, partials.of(alpha), c)
            require(not image, "a generator does not annihilate the form")
    expected = [partials.cat_rank(i) for i in range(d + 1)]
    require(list(values) == expected,
            f"Hilbert function {tuple(values)}, catalecticant ranks give {expected}")
    require(list(values) == list(values)[::-1], "Hilbert function is not symmetric")
    return OK


# -- cli-sparse ----------------------------------------------------------------

def arg(form: dict, prefix: str = "x") -> str:
    """Form text for the command line.  argparse takes a word that starts
    with '-' for an option, so such text is put in parentheses."""
    text = A.to_text(form, prefix)
    return f"({text})" if text.startswith("-") else text


def cli_call(pkg, argv: list[str]):
    """Run the command line in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = pkg.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue()


def cli_payload(result) -> dict:
    code, text = result
    require(code == 0, f"exit code {code}")
    try:
        return json.loads(text)
    except ValueError:
        raise WrongOutput("stdout is not valid JSON") from None


def _nonzero(rng, hi=9):
    return rng.choice([-1, 1]) * rng.randint(1, hi)


def _diagonal(coeffs) -> dict:
    nv = len(coeffs)
    return A.quadric_form([[Fraction(coeffs[i]) if i == j else 0 for j in range(nv)]
                           for i in range(nv)])


def _sparse_linear(rng, nv: int, must: int, terms: int = 2):
    lin = [0] * nv
    lin[must] = _nonzero(rng)
    for i in rng.sample([i for i in range(nv) if i != must], terms - 1):
        lin[i] = _nonzero(rng)
    return [Fraction(c) for c in lin]


def _essential(form: dict, nv: int) -> int:
    return A.Partials(form, nv).cat_rank(1)


def _type_a(rng, n: int):
    """Smooth diagonal quadric and a hyperplane that is not tangent to it."""
    nv = n + 1
    while True:
        diag = [_nonzero(rng) for _ in range(nv)]
        lin = _sparse_linear(rng, nv, rng.randrange(nv))
        if sum(c * c / a for c, a in zip(lin, diag)) != 0:
            return lin, _diagonal(diag)


def _type_b(rng, n: int):
    """Corank-one diagonal quadric, hyperplane off its vertex, no cone."""
    nv = n + 1
    while True:
        vertex = rng.randrange(nv)
        diag = [0 if i == vertex else _nonzero(rng) for i in range(nv)]
        lin = _sparse_linear(rng, nv, vertex)
        q = _diagonal(diag)
        if _essential(A.multiply(A.linear(lin), q), nv) == nv:
            return lin, q


def _sparse_cubic(rng, nv: int) -> dict:
    """A few random monomials that involve every variable."""
    while True:
        monos = A.monomials(nv, 3)
        form = {e: Fraction(_nonzero(rng)) for e in rng.sample(monos, nv + 1)}
        if _essential(form, nv) == nv:
            return form


def _linear_op(rng, nv: int, form: dict) -> dict:
    """A one- or two-term linear operator that does not annihilate the form."""
    while True:
        lin = _sparse_linear(rng, nv, rng.randrange(nv), rng.randint(1, 2))
        op = A.linear(lin)
        if A.apply_operator(op, form):
            return op


def _digits(rng, k: int) -> int:
    """A k-digit integer; from two digits on the leading digit is 9, so the
    magnitude, and with it the cost of the package's trial-division root
    search, hardly depends on the seed."""
    low = 1 if k == 1 else 9 * 10 ** (k - 1)
    return rng.randint(low, 10 ** k - 1) * rng.choice([-1, 1])


def cli_sparse(pkg, seed: int, workdir: Path) -> list[Op]:
    """Many small in-process command-line calls on sparse inputs."""
    rng = random.Random(seed)
    ops: list[Op] = []

    def add(name, argv_or_call, check):
        call = argv_or_call if callable(argv_or_call) else (
            lambda argv=argv_or_call: cli_call(pkg, argv))
        ops.append(Op(name, call, check, lambda result: result))

    for n in range(2, 10):
        form = normal_form(n)
        add(f"analyze-nf{n}", ["analyze", "x0", arg(normal_quadric(n)), "--json"],
            lambda r, n=n, form=form: check_analyze_tangent(r, n, form))
    for idx, n in enumerate((4, 4, 5, 5)):
        # the normal form under a seeded signed permutation of the variables
        perm = rng.sample(range(n + 1), n + 1)
        mat = [[rng.choice([-1, 1]) if j == perm[i] else 0 for j in range(n + 1)]
               for i in range(n + 1)]
        lin, q, form = pushed_tangent_product(n, mat)
        add(f"analyze-relabelled-nf{n}-{idx}", ["analyze", arg(A.linear(lin)), arg(q), "--json"],
            lambda r, n=n, form=form: check_analyze_tangent(r, n, form))
    for n in range(2, 6):
        lin, q = _type_a(rng, n)
        add(f"analyze-typeA-n{n}", ["analyze", arg(A.linear(lin)), arg(q),
                                    "--vars", str(n + 1), "--json"],
            lambda r, n=n: check_analyze_class(r, "TypeA", 2 * n))
        lin, q = _type_b(rng, n)
        add(f"analyze-typeB-n{n}", ["analyze", arg(A.linear(lin)), arg(q),
                                    "--vars", str(n + 1), "--json"],
            lambda r, n=n: check_analyze_class(r, "TypeB", 2 * n))
    for m in range(3, 6):
        lin, q = _type_a(rng, m - 1)
        nv = m + 1 + m % 2
        add(f"analyze-cone-m{m}", ["analyze", arg(A.linear(lin)), arg(q),
                                   "--vars", str(nv), "--json"],
            lambda r, m=m: check_analyze_class(r, "Cone", 2 * (m - 1), essential=m))
    for nv in range(3, 6):
        while True:
            ell = _sparse_linear(rng, nv, rng.randrange(nv))
            other = _sparse_linear(rng, nv, rng.randrange(nv))
            if A.pairwise_independent([ell, other]):
                break
        q = A.multiply(A.linear(ell), A.linear(other))
        add(f"analyze-degenerate-v{nv}", ["analyze", arg(A.linear(ell)), arg(q),
                                          "--vars", str(nv), "--json"],
            lambda r: check_analyze_class(r, "DegenerateProduct", 3))
    for n in range(2, 8):
        path = str(workdir / f"normal-form-{n}.json")
        text = arg(normal_form(n))

        def round_trip(n=n, path=path, text=text):
            first = cli_call(pkg, ["decompose", "--normal-form", str(n), "-o", path, "--json"])
            return first, cli_call(pkg, ["verify", text, path, "--json"])

        add(f"decompose-verify-nf{n}", round_trip,
            lambda r, n=n: check_round_trip(r, n, normal_form(n)))
    add("certify-chain", ["certify", "--chain", "--json"], check_chain)
    for idx in range(8):
        nv = 3 + idx % 2
        form = _sparse_cubic(rng, nv)
        ell, g = _linear_op(rng, nv, form), _linear_op(rng, nv, form)
        add(f"certify-colon-{idx}", ["certify", arg(form), "--hyperplane",
                                     arg(ell, "d"), "--colon", arg(g, "d"),
                                     "--vars", str(nv), "--json"],
            lambda r, f=form, nv=nv, ell=ell, g=g: check_certify_colon(r, f, nv, ell, g))
    for idx in range(12):
        nv = 3 + idx % 2
        form = _sparse_cubic(rng, nv)
        op = _linear_op(rng, nv, form)
        flag = "--plus" if idx < 6 else "--colon"
        add(f"hilbert{flag[1:]}-{idx}", ["hilbert", arg(form), flag, arg(op, "d"),
                                         "--vars", str(nv), "--json"],
            lambda r, f=form, nv=nv, op=op, flag=flag: check_hilbert(r, f, nv, op, flag))
    for k in range(1, 7):
        # rank 2: a^3 + b^3 = (a + b)(a^2 - a*b + b^2) for two binary forms
        a, b = [1, _digits(rng, k)], [1, _digits(rng, k)]
        while a[1] == b[1]:
            b = [1, _digits(rng, k)]
        la, lb = A.linear(a), A.linear(b)
        form = A.expand_power_sum([(1, a), (1, b)], 3, 2)
        lin = A.linear([a[0] + b[0], a[1] + b[1]])
        q = {}
        for part, s in ((A.multiply(la, la), 1), (A.multiply(la, lb), -1),
                        (A.multiply(lb, lb), 1)):
            A.add_into(q, part, s)
        add(f"binary-rank2-{k}digit", ["decompose", arg(lin), arg(q),
                                        "--vars", "2", "--json"],
            lambda r, f=form: check_binary(r, f, built_from=2))
        add(f"binary-apolar-{k}digit", ["apolar", arg(form), "--json"],
            lambda r, f=form: check_cli_apolar(r, f, 2))
        # rank 3: 6*u^2*v = (u + v)^3 - (u - v)^3 - 2*v^3
        u, v = [_digits(rng, 1), _digits(rng, k)], [_digits(rng, 1), _digits(rng, k)]
        while not A.pairwise_independent([u, v]):
            v = [_digits(rng, 1), _digits(rng, k)]
        lu = A.linear(u)
        form = A.multiply(A.multiply(lu, lu), A.linear(v))
        add(f"binary-rank3-{k}digit", ["decompose", arg(lu),
                                        arg(A.multiply(lu, A.linear(v))),
                                        "--vars", "2", "--json"],
            lambda r, f=form: check_binary(r, f, built_from=3))
    return ops


def check_analyze_tangent(result, n: int, form: dict) -> str:
    p = cli_payload(result)
    nv = n + 1
    require(p["type"] == "TypeC", f"class {p['type']}, expected TypeC")
    require(A.from_text(p["form"], nv) == form, "the report is about another form")
    require(p["lower"]["value"] == 2 * n and p["upper"]["value"] == 2 * n + 1,
            f"bracket [{p['lower']['value']}, {p['upper']['value']}], expected [2n, 2n+1]")
    witness = p["upper"]["witness"]
    require(witness is not None, "no witness for a normal form")
    check_power_sum(json_terms(witness), form, nv, 2 * n + 1, "witness")
    require(len(p["certificates"]) == 1, "expected one avoidance certificate")
    cert = p["certificates"][0]
    hyperplane_hilbert_ok(form, nv, A.from_text(cert["hyperplane"], nv), cert["hilbert"], n)
    require(cert["bound"] == 2 * n + 1, f"avoidance bound {cert['bound']}")
    return OK


def check_analyze_class(result, kind: str, rank: int, essential: int | None = None) -> str:
    p = cli_payload(result)
    require(p["type"] == kind, f"class {p['type']}, expected {kind}")
    lo, hi = p["lower"]["value"], p["upper"]["value"]
    require(lo == hi == rank and p["exact"], f"bracket [{lo}, {hi}], expected exact {rank}")
    if essential is not None:
        require(p["essential_variables"] == essential,
                f"{p['essential_variables']} essential variables, expected {essential}")
    return OK


def check_round_trip(result, n: int, form: dict) -> str:
    dec, ver = cli_payload(result[0]), cli_payload(result[1])
    require(dec["verified"] is True, "decompose did not verify its own output")
    check_power_sum(json_terms(dec), form, n + 1, 2 * n + 1, "decomposition")
    require(ver["verified"] is True and ver["terms"] == 2 * n + 1 and ver["residual"] == "0",
            "verify rejected the written decomposition")
    return OK


def check_chain(result) -> str:
    p = cli_payload(result)
    require(len(p["claims"]) == 7 and all(c["holds"] for c in p["claims"]),
            "not all seven claims hold")
    require(p["bound"] == 5, f"chain bound {p['bound']}, expected 5")
    return OK


def check_certify_colon(result, form: dict, nv: int, ell: dict, g: dict) -> str:
    p = cli_payload(result)
    residual = A.apply_operator(g, form)  # (F_perp : g) = (g F)_perp
    expected = A.quotient_hilbert(residual, ell, nv, A.degree(form) + 1)
    require(p["hilbert"] == expected,
            f"colon slice Hilbert function {p['hilbert']}, catalecticant ranks give {expected}")
    require(p["bound"] == sum(expected), f"bound {p['bound']} is not the sum {sum(expected)}")
    return OK


def check_hilbert(result, form: dict, nv: int, op: dict, flag: str) -> str:
    p = cli_payload(result)
    length = A.degree(form) + 1
    if flag == "--plus":
        expected = A.quotient_hilbert(form, op, nv, length)
    else:
        expected = A.colon_hilbert(form, op, nv, length)
    require(p["values"] == expected,
            f"Hilbert function {p['values']}, catalecticant ranks give {expected}")
    require(p["total"] == sum(expected), "total is not the sum of the values")
    return OK


def check_binary(result, form: dict, built_from: int) -> str:
    p = cli_payload(result)
    require(A.from_text(p["form"], 2) == form, "the answer is about another form")
    lower = max(A.hilbert_values(form, 2))
    rank = p["rank"]
    require(lower <= rank <= built_from,
            f"rank {rank} outside [{lower}, {built_from}]")
    require(sum(p["generator_degrees"]) == A.degree(form) + 2,
            "apolar generator degrees do not add up to d + 2")
    if p["decomposition"] is not None:
        check_power_sum(json_terms(p["decomposition"]), form, 2, rank, "decomposition")
    return OK


def check_cli_apolar(result, form: dict, nv: int) -> str:
    p = cli_payload(result)
    gens = [A.from_text(g, nv) for g in p["generators"]]
    return check_apolar(gens, p["hilbert"], form, nv)


WORKLOADS = {
    "tangent-dense": lambda pkg, seed, workdir: tangent_dense(pkg, seed),
    "tangent-change": lambda pkg, seed, workdir: tangent_change(pkg, seed),
    "apolar-dense": lambda pkg, seed, workdir: apolar_dense(pkg, seed),
    "cli-sparse": cli_sparse,
}
