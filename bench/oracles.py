"""Output checks for the benchmark workloads.

Each check takes one CLI call's exit code and stdout and returns a list of
error strings (empty when the output is right).  The checks use their own
numpy code and recorded data, never hyperspec's, so a defect in the program
cannot also hide in its oracle.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Radii agree with the oracles to this relative tolerance.  It covers
# rounding (the program's enclosure is 1e-12 wide) and catches any error of
# 1e-6 or more.
REL_TOL = 1e-9

RANK_POOL_CLASSES = 551
RANK_POOL_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rank_pool_rho.json")

VERIFY_OK = ("pass", "not-applicable")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _parse(stdout: bytes, errors: list[str]):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        errors.append(f"stdout is not JSON: {exc}")
        return None


def star_on_triangle_rho(m: int, k: int) -> float:
    """rho of the k-th power of S(m,3): a triangle with m-3 pendant edges at
    one vertex.  The power of a graph with adjacency radius r has radius
    r^(2/k); r comes from a dense symmetric eigensolve."""
    a = np.zeros((m, m))
    for u, v in [(0, 1), (1, 2), (0, 2)] + [(0, j) for j in range(3, m)]:
        a[u, v] = a[v, u] = 1.0
    return float(np.linalg.eigvalsh(a)[-1]) ** (2.0 / k)


def load_rank_reference() -> list[float]:
    with open(RANK_POOL_REFERENCE, encoding="ascii") as fh:
        return json.load(fh)["rho"]


def check_rank_pool(code: int, stdout: bytes, reference: list[float]) -> list[str]:
    """`rank --k 3 --m 8 --format json`: 551 classes, the top one is S(8,3)'s
    power, and the sorted radii match the recorded list.  Radii are compared,
    not canonical ids, so a new canonical code does not break the check."""
    errors: list[str] = []
    if code != 0:
        errors.append(f"exit code {code}, expected 0")
    rows = _parse(stdout, errors)
    if rows is None:
        return errors
    rhos = sorted((float(row["rho"]) for row in rows), reverse=True)
    if len(rhos) != RANK_POOL_CLASSES:
        errors.append(f"{len(rhos)} classes, expected {RANK_POOL_CLASSES}")
        return errors
    top = star_on_triangle_rho(8, 3)
    if not _close(rhos[0], top):
        errors.append(f"top rho {rhos[0]!r} differs from rho(S(8,3)) = {top!r}")
    bad = [i for i, (got, ref) in enumerate(zip(rhos, reference)) if not _close(got, ref)]
    if bad:
        i = bad[0]
        errors.append(f"{len(bad)} radii differ from the reference, first at {i}: {rhos[i]!r} != {reference[i]!r}")
    return errors


def check_verify(code: int, stdout: bytes) -> list[str]:
    """`verify --format json`: exit 0 and every verdict pass or not-applicable."""
    errors: list[str] = []
    if code != 0:
        errors.append(f"exit code {code}, expected 0")
    reports = _parse(stdout, errors)
    if reports is None:
        return errors
    if not reports:
        errors.append("no claims reported")
    for rep in reports:
        if rep.get("verdict") not in VERIFY_OK:
            errors.append(f"claim {rep.get('claim')!r} has verdict {rep.get('verdict')!r}")
    return errors


def enclosure(k: int, edges: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """min and max over vertices of (A x^{k-1})_i / x_i^{k-1}.

    (A x^{k-1})_i sums, over the edges e containing i, the product of x over
    e without i; each slot's product is formed directly from the other k-1
    columns."""
    vals = x[edges]
    y = np.zeros(len(x))
    for slot in range(k):
        others = np.prod(np.delete(vals, slot, axis=1), axis=1)
        y += np.bincount(edges[:, slot], weights=others, minlength=len(x))
    q = y / x ** (k - 1)
    return float(q.min()), float(q.max())


def check_rho(code: int, stdout: bytes, k: int, edges: np.ndarray) -> list[str]:
    """`rho FILE --method tensor --perron`: the reported rho lies in the
    Collatz-Wielandt enclosure of the reported Perron vector, and that
    enclosure is narrow, so the vector is an eigenvector for rho."""
    errors: list[str] = []
    if code != 0:
        errors.append(f"exit code {code}, expected 0")
    out = _parse(stdout, errors)
    if out is None:
        return errors
    n = int(edges.max()) + 1
    x = np.asarray(out.get("perron") or [], dtype=float)
    if x.shape != (n,) or not np.all(x > 0):
        errors.append(f"perron vector is not positive of length {n}")
        return errors
    rho = float(out["rho"])
    lo, hi = enclosure(k, edges, x)
    slack = REL_TOL * rho
    if not lo - slack <= rho <= hi + slack:
        errors.append(f"rho {rho!r} outside the enclosure [{lo!r}, {hi!r}]")
    if hi - lo > slack:
        errors.append(f"enclosure [{lo!r}, {hi!r}] wider than {slack:.3g}")
    return errors
