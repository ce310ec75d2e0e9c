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


BAD_FILES = {
    "bad_json": '{"k": 3, "n": 3, "edges": 5}',
    "k_float": '{"k": 3.7, "n": 5, "edges": [[0, 1, 2], [2, 3, 4]]}',
    "id_float": '{"k": 3, "n": 5, "edges": [[0, 1, 2], [2, 3, 1.5]]}',
    # read as n = 5 with id 9 renumbered to 4, this would misplace Perron entries
    "id_out_of_range": '{"k": 3, "n": 5, "edges": [[0, 1, 2], [2, 3, 9]]}',
    "n_string": '{"k": 3, "n": "5", "edges": [[0, 1, 2], [2, 3, 4]]}',
    "id_bool": '{"k": 3, "n": 5, "edges": [[0, 1, 2], [2, 3, true]]}',
    "id_negative": '{"k": 3, "n": 5, "edges": [[0, 1, 2], [2, 3, -1]]}',
    # the text format has no n; read with ids compacted, 9 would become 4
    "text_id_gap": "3 2\n0 1 2\n2 3 9",
}


@pytest.mark.parametrize(
    "argv,expected,message",
    [
        (("enumerate", "--k", "3", "--m", "5", "--cap", "2"), 2, "cap exceeded"),
        (("rho", "{bad_json}"), 2, "malformed hypergraph JSON"),
        (("profile", "{k_float}"), 2, "k must be a JSON integer"),
        (("profile", "{id_float}"), 2, "vertex id 1.5"),
        (("profile", "{id_out_of_range}"), 2, "vertex id 9"),
        (("profile", "{n_string}"), 2, "n must be a JSON integer"),
        (("profile", "{id_bool}"), 2, "vertex id True"),
        (("profile", "{id_negative}"), 2, "vertex id -1"),
        (("rho", "{text_id_gap}", "--perron"), 2, "ids from 0 to 9"),
        (("alpha", "solve", "--family", "P", "--r", "2", "--tol", "1e-30"), 3, "bisection"),
        (("rank", "--k", "3", "--m", "5", "--max-iter", "3"), 3, "did not reach"),
        (("rho", "{q6}", "--tol", "inf"), 2, "tolerance must be finite"),
        (("rho", "{q6}", "--tol", "nan"), 2, "tolerance must be finite"),
        (("alpha", "solve", "--family", "P", "--r", "2", "--tol", "0"), 2, "finite and positive"),
        (("alpha", "solve", "--family", "O", "--r", "2", "--tol", "-1"), 2, "finite and positive"),
        (("alpha", "solve", "--family", "P", "--r", "2", "--tol", "nan"), 2,
         "finite and positive"),
        (("alpha", "solve", "--family", "P", "--r", "2", "--tol", "inf"), 2,
         "finite and positive"),
    ],
    ids=["enumerate-cap", "json-edges-not-a-list", "json-k-float", "json-id-float",
         "json-id-out-of-range", "json-n-string", "json-id-bool", "json-id-negative",
         "text-id-gap",
         "alpha-solve-unreachable-tol",
         "rank-max-iter", "rho-tol-inf", "rho-tol-nan",
         "alpha-solve-tol-zero", "alpha-solve-tol-negative", "alpha-solve-tol-nan",
         "alpha-solve-tol-inf"],
)
def test_error_exit_codes(tmp_path, capsys, argv, expected, message):
    paths = {}
    for name, text in BAD_FILES.items():
        paths[name] = tmp_path / (f"{name}.json" if text.startswith("{") else f"{name}.txt")
        paths[name].write_text(text + "\n")
    paths["q6"] = tmp_path / "q6.json"
    invoke(capsys, "build", "--family", "Q", "--k", "3", "--m", "6", "-o", str(paths["q6"]))
    code, _, err = invoke(capsys, *(a.format(**paths) for a in argv))
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
    code, _, err = invoke(capsys, "enumerate", "--k", "3", "--m", "11")
    assert code == 2
    assert "allow-large" in err or "allow_large" in err


@pytest.mark.parametrize(
    "argv",
    [("rho", "q6.json"), ("enumerate", "--k", "3", "--m", "4"),
     ("rank", "--k", "3", "--m", "4"), ("verify", "--k", "3", "--m", "5")],
    ids=["rho", "enumerate", "rank", "verify"],
)
def test_shift_flag_is_gone(capsys, argv):
    # the shift is fixed at 1; a large one returned rho = 0 with exit 0
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--shift", "1e17"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --shift" in capsys.readouterr().err


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


def build(capsys, path, *spec):
    code, _, _ = invoke(capsys, "build", *spec, "--k", "3", "-o", str(path))
    assert code == 0
    return str(path)


def test_transform_relocate_pair_and_outputs(tmp_path, capsys):
    from hyperspec import load_hypergraph, relocate
    from hyperspec.hypergraph import hypergraph_from_json

    host = build(capsys, tmp_path / "q5.json", "--family", "Q", "--m", "5")
    attach = tmp_path / "edge.json"
    attach.write_text('{"k": 3, "n": 3, "edges": [[0, 1, 2]]}\n')
    argv = ("transform", "relocate", host, str(attach), "--v1", "0", "--v2", "1", "--u", "0")
    expected = relocate(load_hypergraph(host), 0, 1, load_hypergraph(str(attach)), 0)
    code, stdout, _ = invoke(capsys, *argv)
    assert code == 0
    assert tuple(hypergraph_from_json(ln) for ln in stdout.splitlines()) == expected
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    code, again, _ = invoke(capsys, *argv, "-o", str(first), "--output2", str(second))
    assert code == 0 and again == stdout
    assert (load_hypergraph(str(first)), load_hypergraph(str(second))) == expected


@pytest.mark.parametrize("fam", ["P", "O"])
def test_alpha_emit_exact_families_are_normal(capsys, fam):
    code, stdout, _ = invoke(capsys, "alpha", "emit", "--family", fam, "--m", "6", "--k", "3")
    assert code == 0
    assert json.loads(stdout.strip().splitlines()[-1])["mode"] == "normal"


@pytest.mark.parametrize("fn", ["f_P", "f_O"])
def test_alpha_eval_family_functions(capsys, fn):
    from hyperspec import f_O, f_P

    code, stdout, _ = invoke(capsys, "alpha", "eval", "--fn", fn, "--alpha", "0.2", "--r", "2")
    assert code == 0
    assert stdout == format({"f_P": f_P, "f_O": f_O}[fn](0.2, 2), ".17g") + "\n"
    code, _, err = invoke(capsys, "alpha", "eval", "--fn", fn, "--alpha", "0.2")
    assert code == 2
    assert "needs --r" in err


def test_rho_perron_vector(tmp_path, capsys):
    q6 = build(capsys, tmp_path / "q6.json", "--family", "Q", "--m", "6")
    code, stdout, _ = invoke(capsys, "rho", q6, "--perron")
    assert code == 0
    perron = json.loads(stdout)["perron"]
    assert len(perron) == 12  # n = m (k - 1) for a unicyclic k-graph
    assert max(perron) == 1.0 and min(perron) > 0


@pytest.mark.parametrize(
    "argv",
    [("profile", "{q6}"), ("rho", "{q6}"), ("rank", "--k", "3", "--m", "5", "--format", "csv")],
    ids=["profile", "rho", "rank"],
)
def test_output_file_equals_stdout(tmp_path, capsys, argv):
    q6 = build(capsys, tmp_path / "q6.json", "--family", "Q", "--m", "6")
    argv = [a.format(q6=q6) for a in argv]
    code, stdout, _ = invoke(capsys, *argv)
    assert code == 0
    out = tmp_path / "out.txt"
    code, quiet, _ = invoke(capsys, *argv, "-o", str(out))
    assert code == 0 and quiet == ""
    assert out.read_text() == stdout


def test_build_to_stdout(capsys):
    from hyperspec import FamilySpec, family
    from hyperspec.hypergraph import hypergraph_from_json

    code, stdout, _ = invoke(capsys, "build", "--family", "Q", "--k", "3", "--m", "6")
    assert code == 0
    assert hypergraph_from_json(stdout) == family(FamilySpec(tag="Q", k=3, m=6))


def test_rho_alpha_on_o_shape(tmp_path, capsys):
    o6 = build(capsys, tmp_path / "o6.json", "--family", "O", "--m", "6")
    code, via_alpha, _ = invoke(capsys, "rho", o6, "--method", "alpha")
    assert code == 0
    _, via_tensor, _ = invoke(capsys, "rho", o6)
    assert json.loads(via_alpha)["method"] == "alpha-normal"
    assert abs(json.loads(via_alpha)["rho"] - json.loads(via_tensor)["rho"]) <= 1e-8


def test_rho_power_formula_rejects_non_power(tmp_path, capsys):
    p5 = build(capsys, tmp_path / "p5.json", "--family", "P", "--m", "5")
    code, _, err = invoke(capsys, "rho", p5, "--method", "power-formula")
    assert code == 2
    assert "not the power" in err
