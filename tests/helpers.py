"""Test-only utilities: brute-force isomorphism, relabeling and random
linear unicyclic hypergraphs."""

import numpy as np

from hyperspec import Hypergraph, make_hypergraph


def relabel(h: Hypergraph, perm: list[int]) -> Hypergraph:
    return make_hypergraph(h.k, [[perm[v] for v in e] for e in h.edges])


def random_unicyclic(k: int, m: int, rng: np.random.Generator) -> Hypergraph:
    """A linear unicyclic k-graph with m edges: the k-th power of a cycle of
    length 3..7, then pendant edges, each at a uniformly random vertex
    present when it is added, with k-1 new vertices; ids shuffled."""
    g = int(rng.integers(3, 8))
    n = g * (k - 1)
    edges = [[i, (i + 1) % g, *range(g + i * (k - 2), g + (i + 1) * (k - 2))] for i in range(g)]
    for _ in range(m - g):
        edges.append([int(rng.integers(n)), *range(n, n + k - 1)])
        n += k - 1
    perm = rng.permutation(n).tolist()
    return relabel(make_hypergraph(k, edges), perm)


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
