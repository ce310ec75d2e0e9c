"""CLI surface: exit codes, formats, and byte-identical reruns."""

import json

import pytest
from helpers import fresh_python

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


# the full records of the second routes at k = 3, recorded before both routes
# moved into the library; the alpha records since the residual became the
# alpha bracket's width on rho, below one ulp of rho here
SECOND_ROUTE_RECORDS = [
    (("--family", "P", "--m", "5"), "alpha",
     {"rho": 1.7099759466766968, "residual": 0.0, "iterations": 0,
      "method": "alpha-normal"}),
    (("--family", "O", "--m", "6"), "alpha",
     {"rho": 1.7630122045023235, "residual": 0.0, "iterations": 0,
      "method": "alpha-normal"}),
    (("--family", "S", "--m", "7", "--g", "4"), "power-formula",
     {"rho": 1.8171205928321394, "residual": 4.4142467459096224e-13, "iterations": 34,
      "method": "power-formula"}),
    (("--family", "T1", "--m", "6"), "power-formula",
     {"rho": 1.8152889326499642, "residual": 1.7541523789077473e-13, "iterations": 41,
      "method": "power-formula"}),
]


@pytest.mark.parametrize("spec,method,expected", SECOND_ROUTE_RECORDS,
                         ids=["alpha-P5", "alpha-O6", "power-S7g4", "power-T1m6"])
def test_rho_second_route_records(tmp_path, capsys, spec, method, expected):
    path = build(capsys, tmp_path / "g.json", *spec)
    code, stdout, _ = invoke(capsys, "rho", path, "--method", method)
    assert code == 0
    got = json.loads(stdout)
    assert list(got) == ["rho", "residual", "iterations", "method"]
    assert (got["method"], got["iterations"]) == (expected["method"], expected["iterations"])
    for key in ("rho", "residual"):
        assert got[key] == pytest.approx(expected[key], rel=1e-12), key


# a triangle with a 50-edge path hanging from one of its vertices
HANGING_PATH = [[0, 1, 3], [1, 2, 4], [0, 2, 5]] + [
    [0 if i == 0 else 5 + 2 * i, 6 + 2 * i, 7 + 2 * i] for i in range(50)]


@pytest.mark.parametrize("spec", [("--family", "T1", "--m", "5"), ("hanging-path",)],
                         ids=["T1-m5", "hanging-path-50"])
def test_rho_alpha_agrees_with_tensor_beyond_p_and_o(tmp_path, capsys, spec):
    path = tmp_path / "g.json"
    if spec == ("hanging-path",):
        path.write_text(json.dumps({"k": 3, "n": 106, "edges": HANGING_PATH}))
    else:
        build(capsys, path, *spec)
    code, via_alpha, _ = invoke(capsys, "rho", str(path), "--method", "alpha")
    assert code == 0
    _, via_tensor, _ = invoke(capsys, "rho", str(path))
    assert json.loads(via_alpha)["method"] == "alpha-normal"
    assert json.loads(via_alpha)["rho"] == pytest.approx(json.loads(via_tensor)["rho"], rel=1e-11)


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
    assert "the alpha route needs a connected linear unicyclic hypergraph" in err


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
    # int() would read these as 4 and 3
    "text_underscore": "3 2\n0 1 2\n2 3 0_4",
    "text_plus_sign": "+3 2\n0 1 2\n2 3 4",
    # the decoder raises RecursionError on arrays nested this deep
    "json_deep": '{"k": 3, "n": 3, "edges": ' + "[" * 100000 + "]" * 100000 + "}",
    "json_missing_key": '{"k": 3, "edges": [[0, 1, 2]]}',
    "text_empty": "",
    "text_no_m": "3",
    "text_short": "3 2\n0 1 2",
    "text_k1": "1 1\n0",
    # well-formed, but refused by the commands that read them below
    "two_edges": "3 2\n0 1 2\n2 3 4",
    # a triangle with a 2 340-edge hanging path: the Perron entries fall by
    # about 0.14 decades an edge, below 5e-324 at the path's far end
    "triangle_path": "3 2343\n0 1 3\n1 2 4\n0 2 5\n" + "\n".join(
        f"{0 if i == 0 else 5 + 2 * i} {6 + 2 * i} {7 + 2 * i}" for i in range(2340)),
    "simple_edge": "2 1\n0 1",
}


@pytest.mark.parametrize(
    "argv,expected,message",
    [
        # 28 627 classes, above the default cap of 20 000
        (("enumerate", "--k", "3", "--m", "11"), 2, "cap exceeded"),
        (("rho", "{bad_json}"), 2, "malformed hypergraph JSON"),
        (("profile", "{k_float}"), 2, "k must be a JSON integer"),
        (("profile", "{id_float}"), 2, "vertex id 1.5"),
        (("profile", "{id_out_of_range}"), 2, "vertex id 9"),
        (("profile", "{n_string}"), 2, "n must be a JSON integer"),
        (("profile", "{id_bool}"), 2, "vertex id True"),
        (("profile", "{id_negative}"), 2, "vertex id -1"),
        (("rho", "{text_id_gap}", "--perron"), 2, "ids from 0 to 9"),
        (("rho", "{text_underscore}"), 2, "'0_4' is not a decimal integer"),
        (("profile", "{text_plus_sign}"), 2, "'+3' is not a decimal integer"),
        (("profile", "{json_deep}"), 2, "malformed hypergraph JSON"),
        (("profile", "{json_missing_key}"), 2, "missing key 'n'"),
        # O's alpha sits so close to the pole of f_O that a bisection on f_O = 1
        # missed its tolerance here (exit 3)
        (("alpha", "solve", "--family", "O", "--r", "22"), 0, ""),
        # P_4 would be O_4
        (("alpha", "solve", "--family", "P", "--r", "0"), 2, "P needs m >= 5 (got 4)"),
        # the member is built and searched, so the time grows with r
        (("alpha", "solve", "--family", "O", "--r", "10001"), 2,
         "alpha solve takes --r <= 10000 (got 10001)"),
        (("rank", "--k", "3", "--m", "5", "--max-iter", "3"), 3, "did not reach"),
        (("verify", "--k", "3", "--m", "5", "--max-iter", "3"), 3, "did not reach"),
        (("rho", "{q6}", "--tol", "inf"), 2, "tolerance must be finite"),
        (("rho", "{q6}", "--tol", "nan"), 2, "tolerance must be finite"),
        # no m of 1..3 is in a claim's domain, so no family member checks k
        (("verify", "--k", "2", "--m", "1..3"), 2, "k >= 3"),
        (("verify", "--k", "-5", "--m", "3"), 2, "'-5' is not a decimal integer"),
        # int() would read these as 10, 3, 6 and 2
        (("build", "--family", "S", "--k", "3", "--m", "1_0", "--g", "3"), 2,
         "'1_0' is not a decimal integer"),
        (("rank", "--k", "\uff13", "--m", "5"), 2, "'\uff13' is not a decimal integer"),
        (("verify", "--k", "3", "--m", "5..+6"), 2, "'+6' is not a decimal integer"),
        (("transform", "move", "{q6}", "--move", "0,1, 2"), 2, "' 2' is not a decimal integer"),
        (("profile", "{text_empty}"), 2, "empty hypergraph file"),
        (("profile", "{text_no_m}"), 2, "first line must be 'k m'"),
        (("profile", "{text_short}"), 2, "expected 2 edge lines, found 1"),
        (("profile", "{text_k1}"), 2, "uniformity k must be >= 2"),
        (("transform", "move", "{q6}", "--move", "1,2"), 2, "--move wants EDGE,SRC,DST"),
        (("transform", "move", "{q6}", "--move", "0,0,99"), 2, "target vertex 99 out of range"),
        (("transform", "move", "{q6}", "--move", "99,0,1"), 2, "edge index 99 out of range"),
        (("transform", "yss", "{two_edges}", "--e", "0", "--f", "7"), 2,
         "edge index 7 out of range"),
        (("transform", "relocate", "{two_edges}", "{simple_edge}", "--v1", "0", "--v2", "1",
          "--u", "0"), 2, "uniformity mismatch"),
        # checked before alpha is solved from m - 4, which would name a pendant count r
        (("alpha", "emit", "--family", "O", "--m", "2", "--k", "3"), 2, "O needs m >= 4"),
        (("alpha", "emit", "--family", "Q", "--m", "3", "--k", "3"), 2, "Q needs m >= 5"),
        (("alpha", "emit", "--family", "P", "--m", "6", "--k", "3", "--alpha", "0.7"), 2,
         "alpha=0.7 outside (0, 1/2)"),
        (("alpha", "emit", "--family", "Q", "--m", "10005", "--k", "3"), 2,
         "alpha emit takes --m <= 10004 (got 10005)"),
        # a simple graph is its own second power: the formula would only relabel rho
        (("rho", "{simple_edge}", "--method", "power-formula"), 2, "power shortcut needs k >= 3"),
        # only the tensor route computes a Perron vector
        (("rho", "{q6}", "--method", "alpha", "--perron"), 2, "--perron needs --method tensor"),
        (("rho", "{q6}", "--method", "power-formula", "--perron"), 2,
         "--perron needs --method tensor"),
        # rho itself converges here, but a printed 0.0 certifies nothing
        (("rho", "{triangle_path}", "--perron"), 2, "Perron entries lie below the smallest float"),
        # flags that would change nothing: the alpha route, a pool without radii
        # and the scalar functions without a pendant count run no iteration or r
        (("rho", "{q6}", "--method", "alpha", "--tol", "1e-6"), 2,
         "--tol and --max-iter need --method tensor or power-formula"),
        (("rho", "{q6}", "--method", "alpha", "--max-iter", "5"), 2,
         "--tol and --max-iter need --method tensor or power-formula"),
        (("enumerate", "--k", "3", "--m", "5", "--tol", "1e-6"), 2,
         "--tol and --max-iter need --with-rho"),
        (("enumerate", "--k", "3", "--m", "5", "--max-iter", "5"), 2,
         "--tol and --max-iter need --with-rho"),
        # a flag given is refused even at its default value
        (("enumerate", "--k", "3", "--m", "5", "--tol", "1e-12"), 2,
         "--tol and --max-iter need --with-rho"),
        (("rho", "{q6}", "--method", "alpha", "--max-iter", "100000"), 2,
         "--tol and --max-iter need --method tensor or power-formula"),
        (("alpha", "eval", "--fn", "gamma", "--alpha", "0.2", "--r", "1"), 2, "gamma takes no --r"),
        (("alpha", "eval", "--fn", "phi", "--alpha", "0.2", "--r", "1"), 2, "phi takes no --r"),
        (("alpha", "eval", "--fn", "psi", "--alpha", "0.2", "--r", "1"), 2, "psi takes no --r"),
        # gamma(alpha) rounds to 1.0, so Q's cycle weight 1 - gamma would be 0
        (("alpha", "emit", "--family", "Q", "--m", "5", "--k", "3", "--alpha", "1e-40"), 2,
         "alpha=1e-40 too small"),
    ],
    ids=["enumerate-cap", "json-edges-not-a-list", "json-k-float", "json-id-float",
         "json-id-out-of-range", "json-n-string", "json-id-bool", "json-id-negative",
         "text-id-gap", "text-underscore", "text-plus-sign", "json-nested-too-deep",
         "json-missing-key",
         "alpha-solve-o-r-22", "alpha-solve-p-r-0", "alpha-solve-r-above-bound",
         "rank-max-iter", "verify-max-iter", "rho-tol-inf", "rho-tol-nan",
         "verify-k-2-no-member", "verify-k-negative",
         "flag-underscore", "flag-full-width-digit", "verify-range-plus-sign",
         "move-space", "text-empty", "text-no-m", "text-short", "text-k-1",
         "move-two-fields", "move-target-out-of-range", "move-edge-out-of-range",
         "yss-edge-out-of-range", "relocate-k-mismatch", "alpha-emit-o-m-2",
         "alpha-emit-q-m-3", "alpha-emit-alpha-outside", "alpha-emit-m-above-bound",
         "power-formula-k-2", "perron-alpha", "perron-power-formula", "perron-underflow",
         "alpha-method-tol", "alpha-method-max-iter", "enumerate-tol-without-rho",
         "enumerate-max-iter-without-rho", "enumerate-default-tol-without-rho",
         "alpha-method-default-max-iter", "eval-gamma-r", "eval-phi-r", "eval-psi-r",
         "alpha-emit-q-alpha-underflow"],
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


@pytest.mark.parametrize(
    "argv",
    [("enumerate", "--k", "3", "--m", "5"), ("rank", "--k", "3", "--m", "5")],
    ids=["enumerate", "rank"],
)
def test_cap_flag_is_gone(capsys, argv):
    # --allow-large is the one pool flag; the default cap is fixed
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap" in capsys.readouterr().err


def test_alpha_solve_tol_flag_is_gone(capsys):
    # the feasibility search runs until its bracket is two adjacent floats
    with pytest.raises(SystemExit) as exc:
        run(["alpha", "solve", "--family", "P", "--r", "2", "--tol", "1e-13"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [("profile", "{path}"), ("rank", "--k", "3", "--m", "5" + "x" * 100000)],
    ids=["text-file", "flag"],
)
def test_long_bad_token_gives_a_short_message(tmp_path, capsys, argv):
    path = tmp_path / "long.txt"
    path.write_text("3 1\n0 1 " + "[" * 100000 + "]" * 100000 + "\n")
    code, _, err = invoke(capsys, *(a.format(path=path) for a in argv))
    assert code == 2
    assert "is not a decimal integer" in err
    assert len(err.encode()) < 1024


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


def test_verify_cross_checks_q_by_alpha(monkeypatch, capsys):
    """Q, the third-place family, has its own alpha cross row: an alpha
    route that puts Q's radius 1e-6 off fails cross-method on a Q row, and
    verify exits 1."""
    from dataclasses import replace

    from hyperspec import FamilySpec, enumeration, family

    q = {family(FamilySpec(tag="Q", k=3, m=m)) for m in range(5, 8)}
    alpha = enumeration.spectral_radius_alpha

    def skewed(h):
        res = alpha(h)
        return replace(res, rho=res.rho + 1e-6) if h in q else res

    monkeypatch.setattr(enumeration, "spectral_radius_alpha", skewed)
    code, stdout, _ = invoke(capsys, "verify", "--k", "3", "--m", "5..7", "--format", "json")
    assert code == 1
    cross = next(r for r in json.loads(stdout) if r["claim"] == "cross-method")
    assert cross["verdict"] == "fail"
    failed = [i["lhs_label"] for i in cross["instances"] if i["status"] == "fail"]
    assert failed == [f"|tensor-alpha-normal| Q(m={m})" for m in range(5, 8)]


def build(capsys, path, *spec):
    code, _, _ = invoke(capsys, "build", *spec, "--k", "3", "-o", str(path))
    assert code == 0
    return str(path)


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _pairs(text):
    """One JSON value with every object read as its list of (key, value)
    pairs, in the order printed; NaN and Infinity are refused."""
    return json.loads(text, object_pairs_hook=list, parse_constant=_refuse_constant)


def _keys(pairs):
    return [key for key, _ in pairs]


def test_json_key_order(tmp_path, capsys):
    """The keys each command prints, in order: a result's fields in their
    declared order, and `perron` last, only under --perron."""
    q6 = build(capsys, tmp_path / "q6.json", "--family", "Q", "--m", "6")
    code, stdout, _ = invoke(capsys, "profile", q6)
    assert code == 0
    assert _keys(_pairs(stdout)) == ["classification", "girth", "linear", "connected",
                                     "degrees", "cored_vertices", "pendent_edges"]
    code, stdout, _ = invoke(capsys, "rho", q6, "--perron")
    assert code == 0
    assert _keys(_pairs(stdout)) == ["rho", "residual", "iterations", "method", "perron"]
    code, stdout, _ = invoke(capsys, "rho", q6)
    assert code == 0
    assert _keys(_pairs(stdout)) == ["rho", "residual", "iterations", "method"]
    rank_columns = ["rank", "tied", "rho", "canonical_id"]
    code, stdout, _ = invoke(capsys, "rank", "--k", "3", "--m", "5", "--format", "json")
    assert code == 0
    rows = _pairs(stdout)
    assert rows and all(_keys(row) == rank_columns for row in rows)
    code, stdout, _ = invoke(capsys, "rank", "--k", "3", "--m", "5", "--format", "md")
    assert code == 0
    assert stdout.splitlines()[0] == "| " + " | ".join(rank_columns) + " |"
    code, stdout, _ = invoke(capsys, "rank", "--k", "3", "--m", "5", "--format", "csv")
    assert code == 0
    assert stdout.splitlines()[0] == ",".join(rank_columns)
    code, stdout, _ = invoke(capsys, "alpha", "emit", "--family", "Q", "--m", "5", "--k", "3")
    assert code == 0
    assert _keys(_pairs(stdout.splitlines()[-1])) == [
        "mode", "alpha", "tolerance", "row_sums", "edge_products", "cycle_product"]
    code, stdout, _ = invoke(capsys, "verify", "--k", "3", "--m", "5..6", "--format", "json")
    assert code == 0
    reports = _pairs(stdout)
    assert reports and all(
        _keys(rep) == ["claim", "description", "verdict", "instances"] for rep in reports)
    instances = [inst for rep in reports for inst in dict(rep)["instances"]]
    assert instances and all(_keys(inst) == [
        "k", "m", "detail", "lhs_label", "rhs_label", "lhs", "rhs", "gap", "tolerance", "status",
    ] for inst in instances)


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


def test_alpha_emit_alpha_override(capsys):
    code, stdout, _ = invoke(capsys, "alpha", "emit", "--family", "P", "--m", "6", "--k", "3",
                             "--alpha", "0.1")
    assert code == 0
    report = json.loads(stdout.strip().splitlines()[-1])
    assert (report["mode"], report["alpha"], report["tolerance"]) == ("neither", 0.1, 1e-10)


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


# Start-up: the package loads numpy only when a public name is first used, so
# the CLI can default OPENBLAS_NUM_THREADS to 1 (hyperspec makes no BLAS call)
# before numpy starts its thread pool; a value the caller set is kept.
READ_BLAS_THREADS = 'import os, hyperspec.cli; print(os.environ["OPENBLAS_NUM_THREADS"])'


def test_package_import_loads_no_numpy():
    assert fresh_python('import sys, hyperspec; print("numpy" in sys.modules)') == "False\n"


def test_cli_defaults_blas_to_one_thread():
    assert fresh_python(READ_BLAS_THREADS) == "1\n"


def test_cli_keeps_the_callers_blas_threads():
    assert fresh_python(READ_BLAS_THREADS, OPENBLAS_NUM_THREADS="3") == "3\n"
