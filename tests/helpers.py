"""Test-only utilities: brute-force isomorphism, relabeling, random
linear unicyclic hypergraphs, the exact alpha of P and O, a bisection
oracle for the alpha search, a reference adjacency product and its
log-domain quotients, and a fresh interpreter to run code in."""

import os
import subprocess
import sys

import numpy as np

import hyperspec
from hyperspec import FamilySpec, Hypergraph, alpha_normal, family, make_hypergraph, solve_alpha


def solve_alpha_P(r: int) -> float:
    """alpha of P with r pendant edges past its triangle (m = r + 4), from
    the general route; it is the same at every k."""
    return solve_alpha(family(FamilySpec("P", 3, r + 4)))[0]


def solve_alpha_O(r: int) -> float:
    """alpha of O with r pendant edges past its triangle (m = r + 4)."""
    return solve_alpha(family(FamilySpec("O", 3, r + 4)))[0]


def bisect_alpha(h: Hypergraph) -> tuple[float, float]:
    """solve_alpha's bracket by plain bisection of [0, 1] on the same
    feasibility test, until the midpoint equals an end."""
    peel = h._peel[:3]
    lo, hi = 0.0, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if alpha_normal._feasible(mid, *peel)[0] else (lo, mid)
    return lo, hi


def relabel(h: Hypergraph, perm: list[int]) -> Hypergraph:
    return make_hypergraph(h.k, [[perm[v] for v in e] for e in h.edges])


def random_unicyclic(k: int, m: int, rng: np.random.Generator,
                     g: int | None = None) -> Hypergraph:
    """A linear unicyclic k-graph with m edges: the k-th power of a cycle of
    length g (3..7 at random if None), then pendant edges, each at a
    uniformly random vertex present when it is added, with k-1 new
    vertices; ids shuffled."""
    g = int(rng.integers(3, 8)) if g is None else g
    n = g * (k - 1)
    edges = [[i, (i + 1) % g, *range(g + i * (k - 2), g + (i + 1) * (k - 2))] for i in range(g)]
    for _ in range(m - g):
        edges.append([int(rng.integers(n)), *range(n, n + k - 1)])
        n += k - 1
    perm = rng.permutation(n).tolist()
    return relabel(make_hypergraph(k, edges), perm)


def reference_product(h, x):
    """A x^{k-1} by prefix and suffix products per edge, read off the edge
    list with cumulative products instead of the kernel's column rows; the
    products and their order are the kernel's."""
    idx = np.asarray(h.edges, dtype=np.intp)
    big = x[idx]
    pre = big.cumprod(axis=1)
    suf = big[:, ::-1].cumprod(axis=1)[:, ::-1]
    excl = np.empty_like(big)
    excl[:, 0] = suf[:, 1]
    excl[:, -1] = pre[:, -2]
    if h.k > 2:
        excl[:, 1:-1] = pre[:, :-2] * suf[:, 2:]
    return np.bincount(idx.ravel(), weights=excl.ravel(), minlength=h.n)


def reference_log_quotients(h, v):
    """(A x^{k-1})_i / x_i^{k-1} at x = exp(v), read off the edge list
    instead of the kernel's column rows: per edge, w_j = v_j - v_0 and
    d = w_1 + ... + w_{k-1}, and slot i's term is exp(d - k w_i) (w_0 = 0);
    the terms are summed slot by slot, as the kernel sums them."""
    idx = np.asarray(h.edges, dtype=np.intp)
    big = v[idx]
    w = big[:, 1:] - big[:, :1]
    d = w[:, 0].copy()
    for j in range(1, h.k - 1):
        d += w[:, j]
    expo = np.empty_like(big)
    expo[:, 0] = d
    expo[:, 1:] = d[:, None] - h.k * w
    return np.bincount(idx.T.ravel(), weights=np.exp(expo).T.ravel(), minlength=h.n)


def brute_isomorphic(h1: Hypergraph, h2: Hypergraph) -> bool:
    """Backtracking vertex bijection restricted to degree classes.

    Independent of the canonical-labeling machinery; usable up to n ~ 12.
    """
    if (h1.k, h1.n, h1.m) != (h2.k, h2.n, h2.m):
        return False
    if sorted(h1.degrees) != sorted(h2.degrees):
        return False
    target = set(h2.edges)
    deg1, deg2 = h1.degrees, h2.degrees
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def edges_consistent() -> bool:
        for e in h1.edges:
            if all(v in mapping for v in e):
                if tuple(sorted(mapping[v] for v in e)) not in target:
                    return False
        return True

    def place(v: int) -> bool:
        if v == h1.n:
            return True
        for w in range(h2.n):
            if w in used or deg1[v] != deg2[w]:
                continue
            mapping[v] = w
            used.add(w)
            if edges_consistent() and place(v + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return place(0)


def fresh_python(code: str, **env: str) -> str:
    """stdout of `python -c code` in a new interpreter that imports this
    hyperspec, with OPENBLAS_NUM_THREADS unset unless `env` sets it."""
    src = os.path.dirname(os.path.dirname(hyperspec.__file__))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, "-c", code], env={**base, "PYTHONPATH": src, **env},
                          capture_output=True, text=True, check=True).stdout
