"""k-uniform hypergraphs: validation, construction, structure analysis, file formats.

A simple graph is the case k = 2; the power construction maps it to k >= 3.

Vertices are dense integer ids 0..n-1.  Edges are stored as sorted k-tuples in
lexicographic order, so two equal hypergraphs compare equal as values.  All
operations here are pure functions; hypergraphs are immutable once built.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable

__all__ = [
    "Hypergraph",
    "StructuralProfile",
    "make_hypergraph",
    "power_hypergraph",
    "power_base",
    "structural_profile",
    "unique_cycle",
    "hypergraph_to_json",
    "hypergraph_from_json",
    "hypergraph_to_text",
    "hypergraph_from_text",
    "save_hypergraph",
    "load_hypergraph",
]


@dataclass(frozen=True)
class Hypergraph:
    """k-uniform hypergraph in normalized form.

    Invariants enforced at construction: every edge has exactly k distinct
    vertices, no duplicate edges, every vertex id in 0..n-1 occurs in at
    least one edge, edges sorted lexicographically.  `_canonical` marks a
    representative that canonicalize() built, or one built from its edge
    list, so canonical_form() need not run the tree code on it again; it
    takes no part in equality.
    """

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]
    _canonical: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("uniformity k must be >= 2")
        if not self.edges:
            raise ValueError("edge list is empty")
        used: set[int] = set()
        prev = None
        for e in self.edges:
            if len(e) != self.k or len(set(e)) != self.k:
                raise ValueError(f"edge {e} does not have {self.k} distinct vertices")
            if tuple(sorted(e)) != e:
                raise ValueError(f"edge {e} is not sorted")
            if prev is not None and e <= prev:
                raise ValueError("edges not in strict lexicographic order")
            prev = e
            used.update(e)
        if used != set(range(self.n)):
            raise ValueError("vertex ids must be exactly 0..n-1 with no isolated vertices")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices incident to each vertex."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for j, e in enumerate(self.edges):
            for v in e:
                inc[v].append(j)
        return tuple(tuple(x) for x in inc)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(x) for x in self.incidence)

    @cached_property
    def is_connected(self) -> bool:
        seen = {0}
        todo = deque([0])
        while todo:
            v = todo.popleft()
            for j in self.incidence[v]:
                for w in self.edges[j]:
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
        return len(seen) == self.n

    @cached_property
    def is_linear(self) -> bool:
        """Every pair of distinct edges shares at most one vertex, i.e. no
        vertex pair lies in two edges (O(m k^2))."""
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            for pair in combinations(e, 2):
                if pair in seen:
                    return False
                seen.add(pair)
        return True

    @cached_property
    def _peel(self) -> tuple[list[list[int]], list[int]]:
        """Leaf layers of the incidence graph and the walk around what survives.

        Nodes 0..n-1 are the vertices and n+j is edge j.  Leaves are stripped
        layer by layer.  A hypertree keeps its single center node (its leaves
        are all vertex nodes, so the incidence tree has even diameter); a
        connected input with one cycle keeps that cycle, which never becomes
        a leaf.  The walk starts at the least surviving node and steps to the
        least unvisited survivor, so a cycle is walked from its least vertex
        out through that vertex's smaller-index cycle edge.  Meaningful only
        for connected inputs of cycle rank <= 1.
        """
        n = self.n
        adj = [[n + j for j in inc] for inc in self.incidence] + [list(e) for e in self.edges]
        deg = [len(a) for a in adj]
        stripped = [False] * len(adj)
        layers = []
        layer = [x for x, d in enumerate(deg) if d == 1]
        alive = len(adj)
        while layer and alive > 1:
            layers.append(layer)
            for x in layer:
                stripped[x] = True
            nxt = []
            for x in layer:
                for y in adj[x]:
                    if not stripped[y]:
                        deg[y] -= 1
                        if deg[y] == 1:
                            nxt.append(y)
            alive -= len(layer)
            layer = nxt
        walk = [stripped.index(False)]
        on_walk = set(walk)
        while step := [y for y in adj[walk[-1]] if not stripped[y] and y not in on_walk]:
            walk.append(step[0])
            on_walk.add(step[0])
        return layers, walk


def make_hypergraph(k: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Build a normalized hypergraph from raw edges.

    Vertex ids are compacted to 0..n-1 preserving their relative order;
    edges are sorted.  Raises ValueError on wrong edge size, duplicate
    edges, or an empty edge list.
    """
    raw = [tuple(sorted(e)) for e in edges]
    if not raw:
        raise ValueError("edge list is empty")
    for e in raw:
        if len(e) != k or len(set(e)) != k:
            raise ValueError(f"edge {tuple(e)} does not have {k} distinct vertices")
    if len(set(raw)) != len(raw):
        raise ValueError("duplicate edge")
    ids = sorted({v for e in raw for v in e})
    remap = {v: i for i, v in enumerate(ids)}
    norm = sorted(tuple(sorted(remap[v] for v in e)) for e in raw)
    return Hypergraph(k=k, n=len(ids), edges=tuple(norm))


def power_hypergraph(graph: Hypergraph, k: int) -> Hypergraph:
    """Expand each edge of a simple graph (a 2-uniform hypergraph) with k-2
    fresh vertices.

    Fresh ids are appended after the original ids, one block per edge in
    sorted edge order, so the labeling is reproducible.
    """
    if k < 3:
        raise ValueError("power expansion needs k >= 3")
    if graph.k != 2:
        raise ValueError("power expansion needs a simple graph (k = 2)")
    edges = []
    nxt = graph.n
    for a, b in graph.edges:
        edges.append(tuple(sorted((a, b, *range(nxt, nxt + k - 2)))))
        nxt += k - 2
    return make_hypergraph(k, edges)


def power_base(h: Hypergraph) -> Hypergraph | None:
    """Reconstruct the simple graph (k = 2) whose power equals h, or None.

    An edge of a power hypergraph contains at most two non-cored vertices;
    pendent edges contribute one endpoint chosen among their cored vertices
    (all such choices are interchangeable).
    """
    if h.k == 2:
        return h
    deg = h.degrees
    pairs = []
    endpoint_ids: set[int] = set()
    for e in h.edges:
        anchors = [v for v in e if deg[v] > 1]
        if len(anchors) > 2:
            return None
        while len(anchors) < 2:
            free = min(v for v in e if deg[v] == 1 and v not in anchors)
            anchors.append(free)
        pairs.append(tuple(sorted(anchors)))
        endpoint_ids.update(anchors)
    if len(set(pairs)) != len(pairs):
        return None
    if h.n - len(endpoint_ids) != (h.k - 2) * h.m:
        return None
    remap = {v: i for i, v in enumerate(sorted(endpoint_ids))}
    return make_hypergraph(2, [(remap[a], remap[b]) for a, b in pairs])


@dataclass(frozen=True)
class StructuralProfile:
    """Degrees, pendant structure, and cycle classification of a hypergraph."""

    degrees: tuple[int, ...]
    cored_vertices: tuple[int, ...]
    pendent_edges: tuple[int, ...]
    classification: str  # "hypertree" | "unicyclic" | "other"
    girth: int | None
    linear: bool
    connected: bool

    def to_json_dict(self) -> dict:
        return {
            "classification": self.classification,
            "girth": self.girth,
            "linear": self.linear,
            "connected": self.connected,
            "degrees": list(self.degrees),
            "cored_vertices": list(self.cored_vertices),
            "pendent_edges": list(self.pendent_edges),
        }


def structural_profile(h: Hypergraph) -> StructuralProfile:
    """Classify a hypergraph and report its pendant/cycle structure.

    A connected input is classified by the cycle rank m(k-1) - n + 1 of its
    incidence graph: rank 0 is a hypertree, rank 1 together with linearity
    is a linear unicyclic hypergraph, whose girth is half the length of the
    incidence cycle.  Everything else, disconnected inputs included, is
    "other".
    """
    deg = h.degrees
    cored = tuple(v for v in range(h.n) if deg[v] == 1)
    # at least k-1 cored members: a lone edge (all k cored) counts as pendent
    pendent = tuple(
        j for j, e in enumerate(h.edges) if sum(1 for v in e if deg[v] == 1) >= h.k - 1
    )
    linear = h.is_linear
    connected = h.is_connected
    rank = h.m * (h.k - 1) - h.n + 1

    classification = "other"
    girth = None
    if connected and rank == 0:
        classification = "hypertree"
    elif connected and rank == 1 and linear:
        classification = "unicyclic"
        girth = len(h._peel[1]) // 2
    return StructuralProfile(
        degrees=deg,
        cored_vertices=cored,
        pendent_edges=pendent,
        classification=classification,
        girth=girth,
        linear=linear,
        connected=connected,
    )


def unique_cycle(h: Hypergraph) -> tuple[list[int], list[int]]:
    """Alternating cycle (vertices, edge indices) of a linear unicyclic hypergraph.

    Returns ([v0..v_{l-1}], [e1..el]) where edge e_i joins v_{i-1} to v_i and
    e_l closes back to v0.  Orientation is fixed deterministically: start at
    the smallest cycle vertex and leave through its smallest-index cycle edge.
    """
    if structural_profile(h).classification != "unicyclic":
        raise ValueError("hypergraph is not linear unicyclic")
    walk = h._peel[1]
    return walk[0::2], [x - h.n for x in walk[1::2]]


# --- file formats -----------------------------------------------------------

def hypergraph_to_json(h: Hypergraph) -> str:
    return json.dumps({"k": h.k, "n": h.n, "edges": [list(e) for e in h.edges]})


def hypergraph_from_json(text: str) -> Hypergraph:
    """Read {"k": int, "n": int, "edges": [[int, ...], ...]}.  k, n and every
    vertex id must be JSON integers and every id lie in 0..n-1, so ids are
    never renumbered; edges, and the ids within an edge, may be unsorted."""
    obj = json.loads(text)
    try:
        k, n, edges = obj["k"], obj["n"], obj["edges"]
        ids = [v for e in edges for v in e]
    except TypeError as exc:  # e.g. "edges": 5, or a JSON list at top level
        raise ValueError(f"malformed hypergraph JSON: {exc}") from None
    for name, v in (("k", k), ("n", n)):
        if type(v) is not int:  # not bool, float or str
            raise ValueError(f"{name} must be a JSON integer, got {v!r}")
    for v in ids:
        if type(v) is not int or not 0 <= v < n:
            raise ValueError(f"vertex id {v!r} is not an integer in 0..{n - 1}")
    h = make_hypergraph(k, edges)
    if h.n != n:
        raise ValueError(f"vertex count {n} does not match edges (got {h.n})")
    return h


def hypergraph_to_text(h: Hypergraph) -> str:
    lines = [f"{h.k} {h.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def hypergraph_from_text(text: str) -> Hypergraph:
    """Read a 'k m' line and then m edge lines of k ids.  The ids must be
    exactly 0..n-1, as in the JSON format, so they are never renumbered."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty hypergraph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'k m'")
    k, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = [[int(x) for x in ln.split()] for ln in lines[1:]]
    ids = {v for e in edges for v in e}
    if ids != set(range(len(ids))):
        raise ValueError(
            f"vertex ids must be exactly 0..n-1, got {len(ids)} ids from {min(ids)} to {max(ids)}"
        )
    return make_hypergraph(k, edges)


def save_hypergraph(h: Hypergraph, path: str) -> None:
    """Write JSON for .json paths, plain text otherwise."""
    if str(path).endswith(".json"):
        data = hypergraph_to_json(h) + "\n"
    else:
        data = hypergraph_to_text(h)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(data)


def load_hypergraph(path: str) -> Hypergraph:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return hypergraph_from_json(text)
    return hypergraph_from_text(text)
