import json

import pytest

from apolarity.cli import main


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


def test_decompose_requires_arguments(capsys):
    code, _, err = run(capsys, "decompose")
    assert code == 2
    assert "error" in err


def test_field_extension_exit_code(capsys):
    code, _, err = run(capsys, "decompose", "x0", "x0*x1 + 2*x2^2")
    assert code == 3
    assert "error" in err


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


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "verify", "x0^3", "/nonexistent/dec.json")
    assert code == 2


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
