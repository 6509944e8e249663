import decimal
import json
import time

import pytest

from apolarity import ideals, poly
from apolarity.apolar import apolar_ideal, catalecticant
from apolarity.cli import main
from apolarity.cubics import WaringDecomposition
from apolarity.poly import parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(capsys):
    code, out, _ = run(capsys, "analyze", "x0", "x0*x1 + x2*x3")
    assert code == 0
    assert "classification: TypeC" in out
    assert "rank bounds: [6, 7]" in out
    assert "witness: verified sum of 7 cubes" in out


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "--json", "x0", "x1*x2")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "TypeB"
    assert data["lower"] == {"value": 4, "kind": "table"}
    assert data["upper"]["value"] == 4 and data["upper"]["witness"] is None
    assert data["exact"] is True
    assert data["essential_variables"] == 3
    assert data["generic_rank"] == 4
    assert data["certificates"] == []


def test_analyze_json_attaches_avoidance(capsys):
    code, out, _ = run(capsys, "analyze", "--json", "x0", "x0*x1 + x2*x3")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "TypeC"
    assert data["lower"] == {"value": 6, "kind": "table"}
    assert len(data["upper"]["witness"]["terms"]) == 7
    assert data["generic_rank"] == 5
    [cert] = data["certificates"]
    assert cert["kind"] == "avoidance"
    assert cert["hilbert"] == [1, 3, 3, 0]
    assert cert["bound"] == 7


def test_analyze_cone_mentions_compression(capsys):
    code, out, _ = run(capsys, "analyze", "--vars", "5", "x0", "x0*x1 + x2^2")
    assert code == 0
    assert "Cone" in out and "essential = 3" in out
    assert "rank bounds: [4, 5]" in out


def test_decompose_normal_form_round_trip(capsys, tmp_path):
    target = tmp_path / "dec.json"
    code, out, _ = run(capsys, "decompose", "--normal-form", "2",
                       "-o", str(target))
    assert code == 0
    assert "162*F = " in out
    assert "terms: 5" in out and "verified: True" in out

    stored = json.loads(target.read_text())
    assert stored["variables"] == 3 and len(stored["terms"]) == 5

    code, out, _ = run(capsys, "verify", "x0^2*x1 + x0*x2^2", str(target))
    assert code == 0
    assert "verified: True" in out


def test_decompose_binary_output_round_trip(capsys, tmp_path):
    target = tmp_path / "dec.json"
    code, out, _ = run(capsys, "decompose", "--vars", "2", "2*x0 + x1", "x0^2 + 3*x1^2",
                       "-o", str(target))
    assert code == 0
    assert "234*F = 125*(x0 + 9/5*x1)^3 + 343*(x0 - 3/7*x1)^3" in out
    assert f"wrote {target}" in out

    stored = json.loads(target.read_text())
    assert stored["degree"] == 3 and stored["variables"] == 2
    assert [t["coefficient"] for t in stored["terms"]] == ["125/234", "343/234"]

    form = "2*x0^3 + x0^2*x1 + 6*x0*x1^2 + 3*x1^3"
    code, out, _ = run(capsys, "verify", form, "--vars", "2", str(target))
    assert code == 0 and "verified: True" in out
    code, out, _ = run(capsys, "verify", "x0^3", "--vars", "2", str(target))
    assert code == 1 and "verified: False" in out


def test_verify_rejects_wrong_form(capsys, tmp_path):
    target = tmp_path / "dec.json"
    assert run(capsys, "decompose", "--normal-form", "2", "-o", str(target))[0] == 0
    code, out, _ = run(capsys, "verify", "x0^3", "--vars", "3", str(target))
    assert code == 1
    assert "verified: False" in out
    assert "residual:" in out


def test_decompose_explicit_product(capsys):
    code, out, _ = run(capsys, "decompose", "x0", "x0*x1 + 4*x2^2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True and len(data["terms"]) == 5


def test_decompose_binary_route(capsys):
    code, out, _ = run(capsys, "decompose", "x0 + x1", "x0^2 - x0*x1 + x1^2")
    assert code == 0
    assert "rank: 2 (exact)" in out
    assert "apolar generator degrees: 2, 3" in out


@pytest.mark.parametrize("linear, quadric, line", [
    # the lower generator d1^2 is not squarefree, so neither generator
    # splits, yet x0^2*x1 = [(x0+x1)^3 - (x0-x1)^3 - 2*x1^3]/6 is 3 cubes
    ("x1", "x0^2", "no rational decomposition of this length found among the "
                   "apolar generators; rank is still exact"),
    # the lower generator d0^2 + 3/2*d1^2 is squarefree, of degree 2 < 3, and
    # has no rational root
    ("x0", "x0^2 - 2*x1^2", "no rational decomposition of this length; "
                            "rank is still exact"),
])
def test_decompose_binary_claims_nonexistence_only_when_proven(capsys, linear,
                                                              quadric, line):
    code, out, _ = run(capsys, "decompose", "--vars", "2", linear, quadric)
    assert code == 0
    assert out.splitlines()[-1] == line


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_decompose_binary_says_when_it_writes_no_file(capsys, tmp_path, flags):
    """With no witness, -o writes nothing and the text says so; the rank
    is still exact, so the call exits 0."""
    target = tmp_path / "w.json"
    code, out, err = run(capsys, "decompose", "x0", "x0^2 - 2*x1^2", "--vars", "2",
                         "-o", str(target), *flags)
    assert code == 0 and err == "" and not target.exists()
    if flags:
        assert json.loads(out)["decomposition"] is None
    else:
        assert out.splitlines()[-1] == f"nothing written to {target}: there is no witness to store"


def test_decompose_requires_arguments(capsys):
    code, _, err = run(capsys, "decompose")
    assert code == 2
    assert "error" in err


def test_field_extension_exit_code(capsys):
    code, _, err = run(capsys, "decompose", "x0", "x0*x1 + x2^2 + 2*x3^2")
    assert code == 3
    assert "error" in err
    assert "anisotropic over R" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "x0 +", "x1*x2")
    assert code == 2
    assert "error" in err
    # ambient override smaller than the form is also an input error
    code, _, err = run(capsys, "hilbert", "x0*x1*x2", "--vars", "2")
    assert code == 2


def test_deep_nesting_is_an_input_error(capsys):
    text = "(" * 3000 + "x0" + ")" * 3000
    code, out, err = run(capsys, "apolar", text)
    assert code == 2
    assert out == ""
    assert "nested deeper" in err


def test_huge_variable_index_is_handled(capsys):
    code, _, err = run(capsys, "apolar", "x1500^3")
    assert code in (0, 1, 2, 3)
    assert code == 0 or "error" in err


def test_dense_matrices_past_the_size_budget_are_input_errors(capsys):
    # Cat_2 of a quartic in 80 variables would have 3240^2 > 10^7 cells
    code, out, err = run(capsys, "apolar", "x0^4 + x79^4")
    assert code == 2 and out == "" and "error" in err
    with pytest.raises(ValueError, match="too large to build"):
        catalecticant(parse("x0^4 + x79^4"), 2)
    # the colon by d0 of the apolar ideal of x0^2 in 90 variables (bound 3)
    # reads that ideal's degree-3 component, whose 125580 monomials pass the
    # listing budget: ideal_colon refuses before it eliminates anything there
    ideal = apolar_ideal(parse("x0^2", nvars=90))
    with pytest.raises(ValueError,
                       match="125580 monomials of degree 3 in 90 variables are too many"):
        ideals.ideal_colon(ideal, parse("d0", nvars=90))
    # hilbert reads catalecticants of g o F (a quartic) or of F (a quintic) in
    # 80 variables, and Cat_2 of either passes the budget
    for flag in ("--colon", "--plus"):
        code, out, err = run(capsys, "hilbert", "x0^5 + x79^5", flag, "d0")
        assert code == 2 and out == "" and "too large to build" in err


def test_text_past_the_parser_budget_is_an_input_error(capsys, monkeypatch):
    # a power of one variable stays one term, whatever the exponent
    code, out, _ = run(capsys, "apolar", "x0^2000")
    assert code == 0 and "d0^2001" in out
    monkeypatch.setattr(poly, "MAX_MONOMIAL_ENTRIES", 100)
    for argv in [("apolar", "x0^3", "--vars", "60"), ("apolar", "x0^3 + x99^3"),
                 ("apolar", "(x0 + x1 + x2)^10"),
                 ("analyze", "x0", "(x0 + x1)^9*(x0 + x1)^9")]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "exponent entries" in err
    code, _, _ = run(capsys, "apolar", "x0^2000")
    assert code == 0


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "verify", "x0^3", "/nonexistent/dec.json")
    assert code == 2


_CUBE = '"terms": [{"coefficient": "1", "form": ["1", "0", "0"]}]'


@pytest.mark.parametrize("payload", [
    '{"degree": 3, "variables": 3, "terms": [{"coefficient": "1/0", "form": ["1", "0", "0"]}]}',
    '[{"degree": 3}]',
    '{"degree": 3, "variables": 3, "terms": 5}',
    '{"degree": 3.9, "variables": 3, %s}' % _CUBE,
    '{"degree": "3", "variables": 3, %s}' % _CUBE,
    '{"degree": -1, "variables": 3, %s}' % _CUBE,
    '{"variables": 3, %s}' % _CUBE,
    '{"degree": 3, "variables": true, %s}' % _CUBE,
    '{"degree": 3, "variables": 0, "terms": []}',
    '{"degree": 100000, "variables": 3, %s}' % _CUBE,
    # Fraction(True) is 1: read as numbers, these terms would be x0^3
    '{"degree": 3, "variables": 3, "terms": [{"coefficient": true, "form": [true, false, false]}]}',
], ids=["zero-denominator", "top-level-array", "terms-not-a-list", "fractional-degree",
        "string-degree", "negative-degree", "missing-degree", "boolean-variables",
        "no-variables", "degree-past-the-entry-budget", "boolean-coefficient"])
def test_verify_rejects_malformed_decomposition(capsys, tmp_path, payload):
    target = tmp_path / "dec.json"
    target.write_text(payload)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "x0^3", "--vars", "3", str(target))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _power_of_two(e: int) -> str:
    """2^e in decimal by the decimal module, whose text has no digit limit."""
    with decimal.localcontext() as ctx:
        ctx.prec = e // 3 + 10
        return format(decimal.Decimal(2) ** e, "f")


def test_verify_prints_a_residual_past_the_string_digit_limit(capsys, tmp_path):
    """(2*x0)^100000 has a 30103-digit coefficient, past the 4300 digits
    that str() takes by default: the residual still prints, and the call
    exits 1."""
    target = tmp_path / "dec.json"
    target.write_text('{"degree": 100000, "variables": 1, '
                      '"terms": [{"coefficient": "1", "form": ["2"]}]}')
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--vars", "1", "x0^3", str(target))
    assert time.perf_counter() - start < 2
    assert code == 1 and err == ""
    assert out == f"verified: False\nresidual: -{_power_of_two(100000)}*x0^100000 + x0^3\n"


@pytest.mark.parametrize("args", [
    ("analyze", "x0", "(10^5000)*x1^2+x2^2+x0*x1"),
    ("analyze", "--json", "x0", "(10^5000)*x1^2+x2^2+x0*x1"),
    ("decompose", "--json", "x0", "x0*x1 + (10^5000)*x2^2"),
], ids=["analyze-text", "analyze-json", "decompose-json"])
def test_reports_print_integers_past_the_string_digit_limit(capsys, args):
    """A 5001-digit coefficient, built by the parser as a power, prints in
    the form, the report and the witness's JSON terms."""
    start = time.perf_counter()
    code, out, err = run(capsys, *args)
    assert time.perf_counter() - start < 2
    assert code == 0 and err == ""
    assert "1" + "0" * 5000 + "*x" in out
    if "--json" in args:
        json.loads(out)


def test_decimal_literal_past_the_string_digit_limit_is_read(capsys):
    """The parser reads literals and variable indices in pieces that int()
    takes, so a 4401-digit coefficient is read and printed back in full,
    and a 5000-digit index is an input error, not a traceback."""
    start = time.perf_counter()
    big = "1" + "0" * 4400
    code, out, err = run(capsys, "analyze", "x0", big + "*x1^2+x2^2+x0*x1")
    assert time.perf_counter() - start < 2
    assert code == 0 and err == "" and f"{big}*x0*x1^2" in out
    code, out, err = run(capsys, "hilbert", "x" + "7" * 5000 + "^3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_witness_past_the_string_digit_limit_round_trips(capsys, tmp_path):
    """decompose -o writes forms with 5001- and 5002-digit entries, one of
    them negative, and verify reads them back: numbers are read in pieces
    that int() takes.  A malformed long number still exits 2."""
    target = tmp_path / "w.json"
    start = time.perf_counter()
    code, _, err = run(capsys, "decompose", "x0", "x0*x1 + (10^10000)*x2^2",
                       "-o", str(target))
    assert code == 0 and err == ""
    payload = json.loads(target.read_text())
    entries = [v for t in payload["terms"] for v in t["form"]]
    assert "1" + "0" * 5000 in entries and "-1" + "0" * 5000 in entries
    code, out, err = run(capsys, "verify", "x0*(x0*x1 + (10^10000)*x2^2)", str(target))
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (0, "verified: True\n", "")
    code, out, err = run(capsys, "verify", "x0*(x0*x1 + (10^10000)*x2^2 + x1^2)",
                         str(target))
    assert code == 1 and out.startswith("verified: False\nresidual: ")
    payload["terms"][0]["coefficient"] = "1" + "0" * 5000 + "x"
    target.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", "x0*(x0*x1 + (10^10000)*x2^2)", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_certify_chain(capsys):
    code, out, _ = run(capsys, "certify", "--chain")
    assert code == 0
    assert out.count("[ ok ]") == 7
    assert "rank >= 5" in out

    code, out, _ = run(capsys, "certify", "--chain", "x0^3 + x1^3 + x2^3")
    assert code == 1
    assert "[FAIL]" in out
    assert "inconclusive" in out


def test_certify_chain_json(capsys):
    code, out, _ = run(capsys, "certify", "--chain", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["bound"] == 5
    assert len(data["claims"]) == 7
    assert all(c["holds"] for c in data["claims"])


def test_certify_avoidance(capsys):
    code, out, _ = run(capsys, "certify", "x0^2*x2 + x0*x1^2",
                       "--hyperplane", "x2")
    assert code == 0
    assert "rank >= 5" in out
    assert "(1, 2, 2, 0)" in out


def test_certify_colon_refinement(capsys):
    code, out, _ = run(capsys, "certify", "x0^2*x2 + x0*x1^2",
                       "--hyperplane", "x2", "--colon", "x1",
                       "--removed", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["hilbert"] == [1, 2, 1, 0]
    assert data["bound"] == 4 and data["total_bound"] == 5


def test_certify_needs_hyperplane(capsys):
    code, _, err = run(capsys, "certify", "x0^2*x2 + x0*x1^2")
    assert code == 2 and "error" in err


def test_hilbert_plain_and_modified(capsys):
    code, out, _ = run(capsys, "hilbert", "x0^3 + x1^3 + x2^3")
    assert code == 0
    assert "HF = (1, 3, 3, 1)" in out and "total = 8" in out

    code, out, _ = run(capsys, "hilbert", "x0^2*x2 + x0*x1^2", "--plus", "d2")
    assert code == 0
    assert "HF = (1, 2, 2, 0)" in out and "total = 5" in out

    # the pinch form sliced along its tangency direction gives the same data
    code, out, _ = run(capsys, "hilbert", "x0^2*x1 + x0*x2^2", "--plus", "d1")
    assert code == 0
    assert "HF = (1, 2, 2, 0)" in out

    code, out, _ = run(capsys, "hilbert", "x0^2*x2 + x0*x1^2",
                       "--colon", "d1", "--plus", "d2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["values"] == [1, 2, 1, 0] and data["total"] == 4


def test_adding_the_zero_operator_leaves_the_hilbert_function(capsys):
    """--plus 0 adds nothing to the ideal, alone, twice or beside a divisor."""
    for extra in ([], ["--colon", "d1"]):
        plain = run(capsys, "hilbert", PLANE, *extra)
        assert plain[0] == 0
        for zeros in (["--plus", "0"], ["--plus", "0", "--plus", "0*d2"]):
            assert run(capsys, "hilbert", PLANE, *extra, *zeros) == plain


def test_double_dash_passes_a_leading_minus_form(capsys):
    code, out, _ = run(capsys, "hilbert", "--json", "--", "-x0^3")
    assert code == 0
    assert json.loads(out)["values"] == [1, 1, 1, 1]


def test_apolar_listing(capsys):
    code, out, _ = run(capsys, "apolar", "x0*x1*x2")
    assert code == 0
    assert "[2] d0^2" in out and "[2] d1^2" in out and "[2] d2^2" in out
    assert "HF = (1, 3, 3, 1)" in out

    code, out, _ = run(capsys, "apolar", "x0^2*x2 + x0*x1^2", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["hilbert"] == [1, 3, 3, 1]
    assert any("d0*d2" in g or "d2*d0" in g for g in data["generators"])


def test_vars_override_expands_ambient(capsys):
    code, out, _ = run(capsys, "hilbert", "x0^3", "--vars", "2", "--json")
    assert code == 0
    assert json.loads(out)["values"] == [1, 1, 1, 1]


def test_output_is_deterministic(capsys):
    runs = [run(capsys, "analyze", "x0", "x0*x1 + x2*x3", "--json")
            for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [run(capsys, "apolar", "x0^2*x2 + x0*x1^2") for _ in range(2)]
    assert runs[0] == runs[1]


def test_apolar_of_a_high_power_is_quick(capsys):
    # the generator of degree d+1 is L^{d+1} with L monic, so its
    # coefficients stay small however large d is
    start = time.perf_counter()
    code, out, _ = run(capsys, "apolar", "x0^2000")
    assert time.perf_counter() - start < 10
    assert code == 0
    assert out.splitlines()[1] == "  [2001] d0^2001"


@pytest.mark.parametrize("argv", [("apolar", "x0^1000000000"),
                                  ("apolar", "--vars", "6", "x0^30 + x1^30"),
                                  ("apolar", "x99999^3")],
                         ids=lambda argv: " ".join(argv))
def test_apolar_past_the_catalecticant_budget_is_a_quick_input_error(capsys, argv):
    """The cells of the catalecticants are counted before any monomial is
    listed: x0^(10^9) needs 5*10^8 + 1 catalecticants of one cell, the form
    of degree 30 in 6 variables passes the budget at Cat_3, and a cubic in
    10^5 variables at Cat_0, one row per cubic monomial.  Parsing x99999^3 packs only the
    one variable that occurs, not 10^5 powers of the packing base."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "too large to build" in err


PLANE = "x0^2*x2 + x0*x1^2"


@pytest.mark.parametrize("argv", [
    ["hilbert", "-x0^3"],
    ["hilbert", "-x0^3", "--json", "--vars", "3"],
    ["hilbert", "-2*x0^3+x1^3"],
    ["hilbert", "-x_1^3"],
    ["hilbert", "-x0^3+"],
    ["hilbert", PLANE, "--plus", "-d0"],
    ["hilbert", PLANE, "--colon", "-d1", "--plus", "-d2", "--json"],
    ["apolar", "-(x0+x1)^3"],
    ["analyze", "x0", "-x0*x1 + x2^2"],
    ["analyze", "x0", "-x0*x1+x2*x3", "--json"],
    ["analyze", "-x0", "x0*x1 + x2*x3"],
    ["decompose", "-x0", "x0*x1+4*x2^2", "--json"],
    ["certify", PLANE, "--hyperplane", "-d2"],
], ids=lambda argv: " ".join(argv))
def test_a_leading_minus_is_a_value_not_an_option(capsys, argv):
    """A word that starts with "-" and then a digit, "(" or a variable is a
    form or an operator: the call prints what its parenthesized spelling
    prints, with the same exit code."""
    spelled = [f"({word})" if word[:1] == "-" and word[1:2] != "-" else word
               for word in argv]
    assert spelled != argv
    code, out, _ = run(capsys, *argv)
    assert (code, out) == run(capsys, *spelled)[:2]
    assert code == (2 if argv[1].endswith("+") else 0)


def test_options_keep_their_meaning_beside_a_leading_minus(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "-h"])
    assert exc.value.code == 0 and "usage:" in capsys.readouterr().out
    target = tmp_path / "dec.json"
    code, out, _ = run(capsys, "decompose", "-x0", "x0*x1 + x2^2", "-o", str(target))
    assert code == 0 and f"wrote {target}" in out
    assert json.loads(target.read_text())["variables"] == 3
    code, out, _ = run(capsys, "hilbert", "--vars", "3", "-x0^3", "--json")
    assert code == 0 and json.loads(out)["values"] == [1, 1, 1, 1]
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "-q", "x0^3"])
    assert exc.value.code == 2


def _spy(monkeypatch, owner, name):
    """Count the calls of owner.name, which keeps working as before."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("argv", [
    ("analyze", "x0", "x0*x1+x2^2"),
    ("decompose", "--normal-form", "4"),
    ("decompose", "x0", "x0*x1 + 4*x2^2"),
    ("decompose", "--vars", "2", "2*x0 + x1", "x0^2 + 3*x1^2"),
], ids=["analyze", "decompose-normal-form", "decompose-product", "decompose-binary"])
def test_only_the_printed_output_is_built(capsys, monkeypatch, argv):
    """--json builds no identity string, and text builds no JSON."""
    identities = _spy(monkeypatch, WaringDecomposition, "identity_string")
    dumps = _spy(monkeypatch, json, "dumps")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out) and identities == [] and len(dumps) == 1
    dumps.clear()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "*F = " in out and len(identities) == 1 and dumps == []


@pytest.mark.parametrize("argv, key", [
    (("decompose", "--normal-form", "4"), None),
    (("decompose", "x0", "x0*x1 + (10^5000)*x2^2"), None),
    (("decompose", "--vars", "2", "2*x0 + x1", "x0^2 + 3*x1^2"), "decomposition"),
], ids=["normal-form", "long-entries", "binary"])
def test_the_output_file_holds_the_witness_of_the_json_output(capsys, monkeypatch,
                                                              tmp_path, argv, key):
    """decompose --json -o FILE builds the witness once: the file's text is
    json.dumps of the degree, variables and terms printed on stdout."""
    target = tmp_path / "w.json"
    built = _spy(monkeypatch, WaringDecomposition, "to_json_dict")
    code, out, _ = run(capsys, *argv, "-o", str(target), "--json")
    assert code == 0 and len(built) == 1
    printed = json.loads(out)
    printed = printed[key] if key else printed
    witness = {k: printed[k] for k in ("degree", "variables", "terms")}
    assert target.read_text() == json.dumps(witness, indent=2)
