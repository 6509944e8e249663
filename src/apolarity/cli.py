"""Command line frontend.

Forms are written in the variables x0..xn and differential operators in
d0..dn; either prefix parses, the ambient is inferred from the largest index
seen unless --vars pins it.  A form or operator may start with "-": a word
that starts with "-" followed by a digit, "(" or a variable is a value,
never an option, so apolarity hilbert "-x0^3" --plus -d0 works as written.
Exit codes: 0 success, 1 a verification or certificate failed or a
normalization bound ran out before the question was decided, 2 bad input,
3 the construction provably needs an irrational change of coordinates (the
message names the local invariant that proves it).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

from .apolar import apolar_ideal, quotient_hilbert
from .certificates import (avoidance_lower_bound, colon_refinement,
                           rank_report, tangent_plane_certificate)
from .cubics import (NeedsFieldExtension, NormalizationUndecided, ReducibleCubic,
                     WaringDecomposition, decompose_binary, decompose_type_c,
                     decompose_type_c_normal, normal_form,
                     verify_decomposition)
from .ideals import hilbert_function
from .poly import (AmbientMismatchError, LinearForm, Polynomial,
                   PolynomialSyntaxError, parse)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_EXTENSION = 3

# A word argparse must read as a value although it starts with "-": a form
# or operator with a leading minus.  No option of the parser has this shape.
_LEADING_MINUS = re.compile(r"-(?:\d|\(|[xd]_?\d)")


def _parse_together(texts: list[str], override: int | None) -> list[Polynomial]:
    """Parse several polynomials into one common ambient, each once if it can."""
    inferred = [parse(t) for t in texts]
    nv = max(p.nvars for p in inferred)
    if override is not None:
        if override < nv:
            raise ValueError(f"--vars {override} is smaller than an index used "
                             "in the input")
        nv = override
    return [p if p.nvars == nv else parse(t, nvars=nv)
            for t, p in zip(texts, inferred)]


def _product(args) -> ReducibleCubic:
    lin, quad = _parse_together([args.linear, args.quadric], args.vars)
    return ReducibleCubic(LinearForm.from_polynomial(lin), quad)


def _emit(args, payload, lines) -> None:
    """Print the JSON payload under --json, the text lines otherwise.  Both
    come as zero-argument builders, and only the one printed is called."""
    if args.json:
        print(json.dumps(payload(), indent=2))
    else:
        for line in lines():
            print(line)


def _write_witness(path: str, dec: WaringDecomposition) -> dict:
    """Write dec.to_json_dict() to path in one write; returns the dict."""
    witness = dec.to_json_dict()
    with open(path, "w") as fh:
        fh.write(json.dumps(witness, indent=2))
    return witness


def _cmd_analyze(args) -> int:
    rc = _product(args)
    report = rank_report(rc)
    kind = report.classification.kind.value if report.classification else "Binary"
    form, a = report.form.to_string(), report.avoidance

    def payload():
        certificates = [] if a is None else [{
            "kind": "avoidance" if a.divisor is None else "colon-refinement",
            "hyperplane": a.hyperplane.to_string("d"),
            "hilbert": list(a.hilbert.values),
            "bound": a.total_bound,
            "condition": a.condition,
        }]
        return {
            "form": form,
            "type": kind,
            "essential_variables": report.essential,
            "catalecticant_bound": report.catalecticant_bound,
            "lower": {"value": report.lower, "kind": report.lower_kind},
            "upper": {"value": report.upper,
                      "witness": report.witness.to_json_dict()
                      if report.witness else None},
            "exact": report.exact,
            "generic_rank": report.generic_rank,
            "certificates": certificates,
            "notes": list(report.notes),
        }

    def lines():
        out = [f"form: {form}",
               f"classification: {kind}"
               + (f" (essential = {report.essential})"
                  if report.essential < rc.nvars else ""),
               f"catalecticant bound: {report.catalecticant_bound}",
               f"generic rank in this ambient: {report.generic_rank}"]
        if report.exact:
            out.append(f"rank: {report.lower} (exact, by {report.lower_kind})")
        else:
            out.append(f"rank bounds: [{report.lower}, {report.upper}] "
                       f"(lower by {report.lower_kind})")
        if report.witness is not None:
            out.append(f"witness: verified sum of {len(report.witness)} cubes")
            out.append("  " + report.witness.identity_string())
        if a is not None:
            out.append(f"conditional: {a.summary()} for decompositions avoiding "
                       f"{{{a.hyperplane.to_string('d')} = 0}}")
        out.extend(f"note: {note}" for note in report.notes)
        return out

    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    if args.normal_form is not None:
        n = args.normal_form
        form = normal_form(n)
        dec = decompose_type_c_normal(n)
    else:
        if not (args.linear and args.quadric):
            raise ValueError("decompose needs LINEAR and QUADRIC, "
                             "or --normal-form N")
        rc = _product(args)
        form = rc.form()
        if rc.nvars == 2:
            return _decompose_binary_out(args, form)
        dec = decompose_type_c(rc)
    ok, _ = verify_decomposition(form, dec)
    text = form.to_string()
    witness = _write_witness(args.output, dec) if args.output else None

    def lines():
        out = [f"form: {text}", dec.identity_string(), f"terms: {len(dec)}",
               f"verified: {ok}"]
        if args.output:
            out.append(f"wrote {args.output}")
        return out

    _emit(args, lambda: {**(witness or dec.to_json_dict()), "form": text, "verified": ok},
          lines)
    return EXIT_OK if ok else EXIT_VERIFY


def _decompose_binary_out(args, form: Polynomial) -> int:
    result = decompose_binary(form)
    dec = result.decomposition
    text = form.to_string()
    witness = _write_witness(args.output, dec) if args.output and dec is not None else None
    da, db = result.generator_degrees

    def payload():
        return {
            "form": text,
            "rank": result.rank,
            "generator_degrees": list(result.generator_degrees),
            "decomposition": (witness or dec.to_json_dict()) if dec else None,
        }

    def lines():
        out = [f"form: {text}",
               f"rank: {result.rank} (exact)",
               f"apolar generator degrees: {da}, {db}"]
        if dec is not None:
            out.append(dec.identity_string())
            if args.output:
                out.append(f"wrote {args.output}")
        else:  # nonexistence is proven when (F^perp)_rank is the lower generator's line
            found = ("" if result.lower_squarefree and da < db
                     else " found among the apolar generators")
            out.append(f"no rational decomposition of this length{found}; "
                       "rank is still exact")
            if args.output:
                out.append(f"nothing written to {args.output}: there is no witness to store")
        return out

    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    [form] = _parse_together([args.form], args.vars)
    with open(args.decomposition) as fh:
        dec = WaringDecomposition.from_json_dict(json.load(fh))
    ok, residual = verify_decomposition(form, dec)
    _emit(args,
          lambda: {"verified": ok, "residual": residual.to_string(), "terms": len(dec)},
          lambda: [f"verified: {ok}"] + ([] if ok else [f"residual: {residual.to_string()}"]))
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_certify(args) -> int:
    if args.chain:
        form = None
        if args.form:
            [form] = _parse_together([args.form], args.vars or 3)
        cert = tangent_plane_certificate(form)
        text = cert.form.to_string()

        def chain_payload():
            return {
                "form": text,
                "claims": [{"label": c.label, "description": c.description,
                            "holds": c.holds, "detail": c.detail}
                           for c in cert.claims],
                "bound": cert.bound,
                "statement": cert.statement,
            }

        def chain_lines():
            out = [f"form: {text}"]
            for c in cert.claims:
                mark = " ok " if c.holds else "FAIL"
                extra = f"  [{c.detail}]" if c.detail and not c.holds else ""
                out.append(f"[{mark}] {c.label}: {c.description}{extra}")
            out.append(cert.statement)
            return out

        _emit(args, chain_payload, chain_lines)
        return EXIT_OK if cert.verified else EXIT_VERIFY
    if not args.form or not args.hyperplane:
        raise ValueError("certify needs FORM and --hyperplane, or --chain")
    [form] = _parse_together([args.form], args.vars)
    hyperplane = parse(args.hyperplane, nvars=form.nvars)
    if args.colon:
        divisor = parse(args.colon, nvars=form.nvars)
        cert = colon_refinement(form, hyperplane, divisor,
                                removed_points=args.removed)
    else:
        cert = avoidance_lower_bound(form, hyperplane)
    _emit(args, lambda: {
        "hyperplane": cert.hyperplane.to_string("d"),
        "hilbert": list(cert.hilbert.values),
        "bound": cert.bound,
        "removed_points": cert.removed_points,
        "total_bound": cert.total_bound,
        "condition": cert.condition,
    }, lambda: [f"hilbert function of the slice: {cert.hilbert}",
                cert.summary(),
                f"condition: {cert.condition}"])
    return EXIT_OK


def _cmd_hilbert(args) -> int:
    [form] = _parse_together([args.form], args.vars)
    divisor = parse(args.colon, nvars=form.nvars) if args.colon else None
    hf = quotient_hilbert(form, [parse(t, nvars=form.nvars) for t in args.plus or ()],
                          divisor)
    total = hf.total()
    _emit(args, lambda: {"values": list(hf.values), "total": total},
          lambda: [f"HF = {hf}", f"total = {total}"])
    return EXIT_OK


def _cmd_apolar(args) -> int:
    [form] = _parse_together([args.form], args.vars)
    ideal = apolar_ideal(form)
    hf = hilbert_function(ideal)

    def lines():
        out = [f"apolar ideal of {form.to_string()}:"]
        for g in sorted(ideal.generators, key=lambda p: p.homogeneous_degree()):
            out.append(f"  [{g.homogeneous_degree()}] {g.to_string('d')}")
        out.append(f"HF = {hf}")
        return out

    _emit(args, lambda: {"generators": [g.to_string("d") for g in ideal.generators],
                         "hilbert": list(hf.values)}, lines)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes a word matching _LEADING_MINUS for a
    value.  argparse reads such a word as a value only when it matches the
    parser's negative-number pattern and no option looks like a negative
    number, so the pattern is widened here; subcommand parsers are built
    from this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _LEADING_MINUS


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused: parsing
    leaves it unchanged."""
    top = _Parser(
        prog="apolarity",
        description="Waring decompositions and apolarity certificates "
                    "for reducible cubics, over the rationals.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="machine readable output")
        p.add_argument("--vars", type=int, default=None, metavar="N",
                       help="number of variables (default: inferred)")

    p = sub.add_parser("analyze", help="classify a product and bracket its rank")
    p.add_argument("linear")
    p.add_argument("quadric")
    common(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("decompose",
                       help="explicit power sum for a tangent product "
                            "or a binary form")
    p.add_argument("linear", nargs="?")
    p.add_argument("quadric", nargs="?")
    p.add_argument("--normal-form", type=int, metavar="N",
                   help="decompose the pinch normal form in P^N instead")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the decomposition as JSON")
    common(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("verify", help="check a stored decomposition exactly")
    p.add_argument("form")
    p.add_argument("decomposition", help="JSON file produced by decompose")
    common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("certify", help="lower-bound certificates")
    p.add_argument("form", nargs="?")
    p.add_argument("--hyperplane", metavar="L",
                   help="linear operator cutting the slice")
    p.add_argument("--colon", metavar="G",
                   help="refine by the colon ideal (F_perp : G)")
    p.add_argument("--removed", type=int, default=None, metavar="K",
                   help="certified number of points removed by the colon")
    p.add_argument("--chain", action="store_true",
                   help="run the worked claim chain for the plane cubic "
                        "x0^2*x2 + x0*x1^2 (or for FORM)")
    common(p)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("hilbert",
                       help="Hilbert function of the apolar quotient")
    p.add_argument("form")
    p.add_argument("--plus", action="append", metavar="G",
                   help="add a generator before computing (repeatable)")
    p.add_argument("--colon", metavar="G",
                   help="take the colon by G first")
    common(p)
    p.set_defaults(handler=_cmd_hilbert)

    p = sub.add_parser("apolar", help="generators of the apolar ideal")
    p.add_argument("form")
    common(p)
    p.set_defaults(handler=_cmd_apolar)
    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except PolynomialSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NeedsFieldExtension as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXTENSION
    except NormalizationUndecided as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, AmbientMismatchError, OSError,
            KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
