"""Self-test of the benchmark's output checks: right outputs pass, and a
radius off by 1e-6, a dropped class or a flipped verdict each fail.

Run from the repository root:  python3 -m pytest -q bench/test_oracles.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
import run


def cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=run.SRC)
    return subprocess.run([sys.executable, "-c", run.CLI_MAIN, *argv],
                          capture_output=True, env=env, cwd=run.ROOT, timeout=120)


def rank_output(rhos: list[float]) -> bytes:
    rows = [{"rank": i + 1, "tied": False, "rho": r, "canonical_id": f"c{i}"} for i, r in enumerate(rhos)]
    return json.dumps(rows).encode()


@pytest.fixture(scope="module")
def reference() -> list[float]:
    return oracles.load_rank_reference()


def test_rank_reference_passes(reference):
    assert oracles.check_rank_pool(0, rank_output(reference), reference) == []


@pytest.mark.parametrize("index", [0, 300, 550])
def test_rank_perturbed_rho_fails(reference, index):
    rhos = list(reference)
    rhos[index] += 1e-6
    assert oracles.check_rank_pool(0, rank_output(rhos), reference)


def test_rank_dropped_class_fails(reference):
    rhos = reference[:100] + reference[101:]
    assert oracles.check_rank_pool(0, rank_output(rhos), reference)


def test_rank_exit_code_fails(reference):
    assert oracles.check_rank_pool(1, rank_output(reference), reference)


@pytest.fixture(scope="module")
def verify_run() -> subprocess.CompletedProcess:
    return cli("verify", "--k", "3", "--m", "5..6", "--format", "json")


def test_verify_passes(verify_run):
    assert oracles.check_verify(verify_run.returncode, verify_run.stdout) == []


def test_verify_flipped_verdict_fails(verify_run):
    reports = json.loads(verify_run.stdout)
    reports[2]["verdict"] = "fail"
    assert oracles.check_verify(0, json.dumps(reports).encode())


def test_verify_exit_code_fails(verify_run):
    assert oracles.check_verify(1, verify_run.stdout)


@pytest.fixture(scope="module")
def rho_run(tmp_path_factory):
    k = 4
    edges = run.random_unicyclic(k, 300, np.random.default_rng(7))
    path = tmp_path_factory.mktemp("rho") / "g.json"
    path.write_text(json.dumps({"k": k, "n": int(edges.max()) + 1, "edges": edges.tolist()}))
    return k, edges, cli("rho", str(path), "--method", "tensor", "--perron")


def test_rho_passes(rho_run):
    k, edges, proc = rho_run
    assert oracles.check_rho(proc.returncode, proc.stdout, k, edges) == []


def test_rho_perturbed_fails(rho_run):
    k, edges, proc = rho_run
    out = json.loads(proc.stdout)
    out["rho"] += 1e-6
    assert oracles.check_rho(0, json.dumps(out).encode(), k, edges)


def test_rho_wrong_vector_fails(rho_run):
    k, edges, proc = rho_run
    out = json.loads(proc.stdout)
    out["perron"][0] *= 1.001
    assert oracles.check_rho(0, json.dumps(out).encode(), k, edges)


def test_top_rho_closed_form():
    # S(4,3) is a triangle plus one pendant edge: its adjacency radius is
    # the largest root of x^3 - x^2 - 3x + 1 (characteristic polynomial
    # x^4 - 4x^2 - 2x + 1 = (x + 1)(x^3 - x^2 - 3x + 1)).
    r = max(np.roots([1, -1, -3, 1]).real)
    assert oracles.star_on_triangle_rho(4, 3) == pytest.approx(r ** (2 / 3), rel=1e-12)
