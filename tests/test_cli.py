"""CLI surface: exit codes, formats, and byte-identical reruns."""

import json

import pytest

from hyperspec.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_then_rho_smoke(tmp_path, capsys):
    out = tmp_path / "q8.json"
    code, _, _ = invoke(capsys, "build", "--family", "Q", "--k", "3", "--m", "8",
                        "-o", str(out))
    assert code == 0
    code, stdout, _ = invoke(capsys, "rho", str(out), "--method", "tensor")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["method"] == "tensor-power"
    assert payload["rho"] > 0


def test_rho_methods_agree_on_p5(tmp_path, capsys):
    out = tmp_path / "p5.json"
    invoke(capsys, "build", "--family", "P", "--k", "3", "--m", "5", "-o", str(out))
    _, via_alpha, _ = invoke(capsys, "rho", str(out), "--method", "alpha")
    _, via_tensor, _ = invoke(capsys, "rho", str(out), "--method", "tensor")
    assert abs(json.loads(via_alpha)["rho"] - json.loads(via_tensor)["rho"]) <= 1e-8


def test_rho_power_formula_method(tmp_path, capsys):
    out = tmp_path / "s63.json"
    invoke(capsys, "build", "--family", "S", "--k", "3", "--m", "6", "--g", "3",
           "-o", str(out))
    _, via_pf, _ = invoke(capsys, "rho", str(out), "--method", "power-formula")
    _, via_tensor, _ = invoke(capsys, "rho", str(out), "--method", "tensor")
    assert abs(json.loads(via_pf)["rho"] - json.loads(via_tensor)["rho"]) <= 1e-8


def test_rho_alpha_rejects_other_shapes(tmp_path, capsys):
    out = tmp_path / "t1.json"
    invoke(capsys, "build", "--family", "T1", "--k", "3", "--m", "5", "-o", str(out))
    code, _, err = invoke(capsys, "rho", str(out), "--method", "alpha")
    assert code == 2
    assert "P and O" in err


@pytest.mark.parametrize(
    "text",
    ["3 2\n0 1 2\n3 4 5\n", "3 4\n0 1 2\n0 2 6\n2 3 4\n4 5 6\n"],
    ids=["disconnected", "two-cycles"],
)
def test_rho_alpha_rejects_non_unicyclic_input(tmp_path, capsys, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, _, err = invoke(capsys, "rho", str(path), "--method", "alpha")
    assert code == 2
    assert "P and O" in err


@pytest.mark.parametrize(
    "argv,expected,message",
    [
        (("enumerate", "--k", "3", "--m", "5", "--cap", "2"), 2, "cap exceeded"),
        (("rho", "{bad_json}"), 2, "malformed hypergraph JSON"),
        (("alpha", "solve", "--family", "P", "--r", "2", "--tol", "1e-30"), 3, "bisection"),
        (("rank", "--k", "3", "--m", "5", "--max-iter", "3"), 3, "did not reach"),
        (("rho", "{q6}", "--shift", "nan"), 2, "shift must be finite"),
        (("rho", "{q6}", "--shift", "inf"), 2, "shift must be finite"),
        (("rho", "{q6}", "--tol", "inf"), 2, "tolerance must be finite"),
        (("rho", "{q6}", "--tol", "nan"), 2, "tolerance must be finite"),
        (("alpha", "solve", "--family", "P", "--r", "2", "--tol", "0"), 2, "finite and positive"),
        (("alpha", "solve", "--family", "O", "--r", "2", "--tol", "-1"), 2, "finite and positive"),
        (("alpha", "solve", "--family", "P", "--r", "2", "--tol", "nan"), 2,
         "finite and positive"),
        (("alpha", "solve", "--family", "P", "--r", "2", "--tol", "inf"), 2,
         "finite and positive"),
    ],
    ids=["enumerate-cap", "json-edges-not-a-list", "alpha-solve-unreachable-tol",
         "rank-max-iter", "rho-shift-nan", "rho-shift-inf", "rho-tol-inf", "rho-tol-nan",
         "alpha-solve-tol-zero", "alpha-solve-tol-negative", "alpha-solve-tol-nan",
         "alpha-solve-tol-inf"],
)
def test_error_exit_codes(tmp_path, capsys, argv, expected, message):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 3, "n": 3, "edges": 5}\n')
    q6 = tmp_path / "q6.json"
    invoke(capsys, "build", "--family", "Q", "--k", "3", "--m", "6", "-o", str(q6))
    code, _, err = invoke(capsys, *(a.format(bad_json=bad, q6=q6) for a in argv))
    assert code == expected
    assert message in err


def test_invalid_family_parameters_exit_2(capsys):
    code, _, err = invoke(capsys, "build", "--family", "P", "--k", "3", "--m", "4")
    assert code == 2
    assert "m >= 5" in err


def test_nonconvergence_exit_3(tmp_path, capsys):
    out = tmp_path / "p5.json"
    invoke(capsys, "build", "--family", "P", "--k", "3", "--m", "5", "-o", str(out))
    code, _, err = invoke(capsys, "rho", str(out), "--max-iter", "2")
    assert code == 3
    assert "did not reach" in err


def test_profile_output(tmp_path, capsys):
    out = tmp_path / "o5.json"
    invoke(capsys, "build", "--family", "O", "--k", "3", "--m", "5", "-o", str(out))
    code, stdout, _ = invoke(capsys, "profile", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["classification"] == "unicyclic"
    assert payload["girth"] == 3


def test_alpha_eval_and_solve(capsys):
    code, stdout, _ = invoke(capsys, "alpha", "eval", "--fn", "phi", "--alpha", "0.2")
    assert code == 0
    assert abs(float(stdout) - 0.12) <= 1e-14
    code, stdout, _ = invoke(capsys, "alpha", "solve", "--family", "P", "--r", "1")
    assert code == 0
    assert abs(float(stdout) - 0.2) <= 1e-12


def test_alpha_emit_reports_supernormal(capsys):
    code, stdout, _ = invoke(capsys, "alpha", "emit", "--family", "Q", "--m", "5",
                             "--k", "3")
    assert code == 0
    lines = stdout.strip().splitlines()
    report = json.loads(lines[-1])
    assert report["mode"] == "supernormal-strict"
    triples = [ln.split() for ln in lines[:-1]]
    assert all(len(t) == 3 for t in triples)


def test_transform_yss_golden(tmp_path, capsys):
    u15 = tmp_path / "u15.json"
    o5 = tmp_path / "out.json"
    invoke(capsys, "build", "--family", "U1", "--k", "3", "--m", "5", "-o", str(u15))
    code, _, _ = invoke(capsys, "transform", "yss", str(u15), "--e", "0", "--f", "2",
                        "-o", str(o5))
    assert code == 0
    code, stdout, _ = invoke(capsys, "profile", str(o5))
    assert json.loads(stdout)["classification"] == "unicyclic"


def test_transform_move_golden(tmp_path, capsys):
    from hyperspec import FamilySpec, canonical_form, family, family_q_with_roles
    from hyperspec.hypergraph import hypergraph_from_json

    q5 = tmp_path / "q5.json"
    invoke(capsys, "build", "--family", "Q", "--k", "3", "--m", "5", "-o", str(q5))
    _, roles = family_q_with_roles(3, 5)
    move = f"{roles.pendants_w[0]},{roles.w},{roles.v3}"
    code, stdout, _ = invoke(capsys, "transform", "move", str(q5), "--move", move)
    assert code == 0
    lines = stdout.strip().splitlines()
    moved = hypergraph_from_json(lines[0])
    t1 = family(FamilySpec(tag="T1", k=3, m=5))
    assert canonical_form(moved) == canonical_form(t1)
    assert "vertex_map" in lines[1]


def test_enumerate_json_lines(capsys):
    code, stdout, _ = invoke(capsys, "enumerate", "--k", "3", "--m", "4")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 3
    rows = [json.loads(ln) for ln in lines]
    assert all(row["k"] == 3 and row["n"] == 8 for row in rows)
    ids = [row["canonical_id"] for row in rows]
    assert ids == sorted(ids)


def test_enumerate_with_rho(capsys):
    code, stdout, _ = invoke(capsys, "enumerate", "--k", "3", "--m", "3",
                             "--with-rho")
    assert code == 0
    row = json.loads(stdout.strip())
    assert abs(row["rho"] - 2.0 ** (2.0 / 3.0)) < 1e-9


def test_enumerate_large_requires_flag(capsys):
    code, _, err = invoke(capsys, "enumerate", "--k", "3", "--m", "7")
    assert code == 2
    assert "allow-large" in err or "allow_large" in err


def test_rank_formats(capsys):
    code, md, _ = invoke(capsys, "rank", "--k", "3", "--m", "4", "--format", "md")
    assert code == 0
    assert md.startswith("| rank |")
    code, csv_text, _ = invoke(capsys, "rank", "--k", "3", "--m", "4", "--format", "csv")
    assert code == 0
    assert csv_text.splitlines()[0] == "rank,tied,rho,canonical_id"
    assert len(csv_text.strip().splitlines()) == 4


def test_verify_exit_codes_and_table(capsys):
    code, stdout, _ = invoke(capsys, "verify", "--k", "3", "--m", "5..6",
                             "--format", "md")
    assert code == 0
    assert "Summary:" in stdout
    assert "- Q<T1: pass" in stdout


def test_verify_json_format(capsys):
    code, stdout, _ = invoke(capsys, "verify", "--k", "3", "--m", "5",
                             "--format", "json")
    assert code == 0
    reports = json.loads(stdout)
    assert {r["claim"] for r in reports} >= {"Q<T1", "P<Q", "O<P", "cross-method"}


def test_byte_identical_reruns(tmp_path, capsys):
    args = ("verify", "--k", "3", "--m", "5", "--format", "csv")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second
    args = ("rank", "--k", "3", "--m", "5", "--format", "json")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second


def test_verify_failure_exit_code(capsys):
    # an absurd tolerance makes every pass margin unreachable
    code, _, _ = invoke(capsys, "verify", "--k", "3", "--m", "5", "--tol", "0.5")
    assert code == 1
