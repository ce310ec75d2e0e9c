"""k-uniform hypergraphs: validation, construction, structure analysis, file formats.

A simple graph is the case k = 2; the power construction maps it to k >= 3.

Vertices are dense integer ids 0..n-1.  Edges are stored as sorted k-tuples in
lexicographic order, so two equal hypergraphs compare equal as values.  All
operations here are pure functions; hypergraphs are immutable once built.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
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
    least one edge, edges sorted lexicographically.
    """

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]

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


def _two_core(h: Hypergraph) -> tuple[set[int], set[int]]:
    """Iteratively strip degree-1 vertices and near-empty edges from the
    incidence graph; what survives is the union of cycles."""
    vdeg = list(h.degrees)
    esize = [h.k] * h.m
    alive_v = set(range(h.n))
    alive_e = set(range(h.m))
    members: list[set[int]] = [set(e) for e in h.edges]
    todo = deque(v for v in alive_v if vdeg[v] <= 1)
    while todo:
        v = todo.popleft()
        if v not in alive_v:
            continue
        alive_v.discard(v)
        for j in h.incidence[v]:
            if j not in alive_e:
                continue
            members[j].discard(v)
            esize[j] -= 1
            if esize[j] <= 1:
                alive_e.discard(j)
                for w in members[j]:
                    vdeg[w] -= 1
                    if vdeg[w] <= 1:
                        todo.append(w)
    # restrict vertex degrees to surviving edges
    core_v = set()
    for v in alive_v:
        if sum(1 for j in h.incidence[v] if j in alive_e) >= 2:
            core_v.add(v)
    return core_v, alive_e


def _core_is_single_cycle(h: Hypergraph, core_v: set[int], core_e: set[int]) -> bool:
    if not core_e:
        return False
    for v in core_v:
        if sum(1 for j in h.incidence[v] if j in core_e) != 2:
            return False
    for j in core_e:
        if sum(1 for v in h.edges[j] if v in core_v) != 2:
            return False
    # single component: walk from an arbitrary core vertex
    start = min(core_v)
    seen_e: set[int] = set()
    v = start
    prev_e = -1
    while True:
        nxt = [j for j in h.incidence[v] if j in core_e and j != prev_e and j not in seen_e]
        if not nxt:
            break
        j = nxt[0]
        seen_e.add(j)
        v = next(w for w in h.edges[j] if w in core_v and w != v)
        prev_e = j
        if v == start:
            break
    return len(seen_e) == len(core_e)


def structural_profile(h: Hypergraph) -> StructuralProfile:
    """Classify a hypergraph and report its pendant/cycle structure.

    Classification is decided by cycle search on the incidence graph and
    cross-checked against the edge-count identities m=(n-1)/(k-1) for
    hypertrees and m=n/(k-1) for unicyclic hypergraphs; any disagreement
    (only possible for nonlinear or multi-cycle inputs) lands in "other".
    """
    deg = h.degrees
    cored = tuple(v for v in range(h.n) if deg[v] == 1)
    # at least k-1 cored members: a lone edge (all k cored) counts as pendent
    pendent = tuple(
        j for j, e in enumerate(h.edges) if sum(1 for v in e if deg[v] == 1) >= h.k - 1
    )
    linear = h.is_linear
    connected = h.is_connected
    core_v, core_e = _two_core(h)

    classification = "other"
    girth = None
    if connected and not core_e:
        if h.m * (h.k - 1) == h.n - 1:
            classification = "hypertree"
    elif connected and linear and _core_is_single_cycle(h, core_v, core_e):
        if h.m * (h.k - 1) == h.n:
            classification = "unicyclic"
            girth = len(core_e)
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
    profile = structural_profile(h)
    if profile.classification != "unicyclic":
        raise ValueError("hypergraph is not linear unicyclic")
    core_v, core_e = _two_core(h)
    v0 = min(core_v)
    first = min(j for j in h.incidence[v0] if j in core_e)
    verts = [v0]
    eidx = []
    v, j = v0, first
    while True:
        eidx.append(j)
        v = next(w for w in h.edges[j] if w in core_v and w != v)
        if v == v0:
            break
        verts.append(v)
        j = next(i for i in h.incidence[v] if i in core_e and i != j)
    return verts, eidx


# --- file formats -----------------------------------------------------------

def hypergraph_to_json(h: Hypergraph) -> str:
    return json.dumps({"k": h.k, "n": h.n, "edges": [list(e) for e in h.edges]})


def hypergraph_from_json(text: str) -> Hypergraph:
    obj = json.loads(text)
    try:
        h = make_hypergraph(int(obj["k"]), obj["edges"])
        n = int(obj["n"])
    except TypeError as exc:  # e.g. "edges": 5, or a JSON list at top level
        raise ValueError(f"malformed hypergraph JSON: {exc}") from None
    if h.n != n:
        raise ValueError(f"vertex count {n} does not match edges (got {h.n})")
    return h


def hypergraph_to_text(h: Hypergraph) -> str:
    lines = [f"{h.k} {h.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def hypergraph_from_text(text: str) -> Hypergraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty hypergraph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'k m'")
    k, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    return make_hypergraph(k, [[int(x) for x in ln.split()] for ln in lines[1:]])


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
