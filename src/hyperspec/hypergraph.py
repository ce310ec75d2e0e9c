"""k-uniform hypergraphs: validation, construction, structure analysis, file formats.

A simple graph is the case k = 2; the power construction maps it to k >= 3.

Vertices are dense integer ids 0..n-1.  Edges are stored as sorted k-tuples in
lexicographic order, so two equal hypergraphs compare equal as values.  All
operations here are pure functions; hypergraphs are immutable once built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from operator import index, lt
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

    The one validator of an edge list: construction walks the edges once,
    checking that each is a tuple of k integer ids (ones operator.index
    accepts) in strictly increasing order that comes strictly after the
    edge before it, so none is repeated, and raises naming the first edge
    that fails; the ids it collects on the way must then be exactly
    0..n-1.  make_hypergraph() and the file readers only normalize, and the
    readers never renumber, so an error about a file names its ids as
    written.  `_form` is the canonical form that canonical.BeadReader
    rendered for a representative it built, for canonicalize() or the
    enumerator, so canonical_form() only looks it up and is_connected need
    not search it (the reader builds connected graphs only); it is None on
    every other graph and takes no part in equality.
    """

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]
    _form: bytes | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = self.k
        if k < 2:
            raise ValueError("uniformity k must be >= 2")
        edges = self.edges
        if not edges:
            raise ValueError("edge list is empty")
        prev: tuple[int, ...] = ()  # below every edge
        used: set[int] = set()
        for e in edges:
            if type(e) is not tuple:
                raise ValueError(f"edge {e!r} is not a tuple")
            try:  # numpy integers pass, 2.0 and "2" do not
                used.update(map(index, e))
            except TypeError:
                raise ValueError(f"edge {e} has a vertex id that is not an integer") from None
            if len(e) != k or not all(map(lt, e, e[1:])):
                if len(e) != k or len(set(e)) != k:
                    raise ValueError(f"edge {e} does not have {k} distinct vertices")
                raise ValueError(f"edge {e} is not sorted")
            if e <= prev:
                raise ValueError(f"duplicate edge {e}" if e == prev else f"edge {e} is out of order")
            prev = e
        # count, least and greatest id suffice, so a huge n builds no range
        lo, hi = min(used), max(used)
        if (len(used), lo, hi) != (self.n, 0, self.n - 1):
            raise ValueError(
                f"vertex count {self.n} does not match the edges: {len(used)} ids from {lo} to {hi}"
            )

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
        """Union-find over the edges with path halving: each edge joins the
        roots of its vertices, and the graph is connected when one root is
        left."""
        if self._form is not None:  # saves about 4 % of rank: 0.03 s of 0.8 s at (3, 10)
            return True
        parent = list(range(self.n))
        roots = self.n
        for e in self.edges:
            r = e[0]
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]
            for s in e[1:]:
                while parent[s] != s:
                    parent[s] = s = parent[parent[s]]
                if s != r:
                    parent[s] = r
                    roots -= 1
        return roots == 1

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

    @property
    def _cycle_rank(self) -> int:
        """m(k-1) - n + 1, the number of independent cycles of the incidence
        graph when it is connected."""
        return self.m * (self.k - 1) - self.n + 1

    @property
    def _linear_unicyclic(self) -> bool:
        """Connected, of cycle rank 1 and girth >= 3: at rank 1 two edges
        sharing two vertices make the one cycle, of girth 2, so this is
        linearity there, read off the peel's walk without a pair set."""
        return self.is_connected and self._cycle_rank == 1 and len(self._peel[4]) > 4

    @cached_property
    def _peel(self) -> tuple[list, list, list, list, list[int]]:
        """The one reading of the incidence graph, leaves first:
        canonical.BeadReader's (trees, branches, beads, center) and the walk
        around the core.

        Nodes 0..n-1 are the vertices and n+j is edge j.  Leaves are stripped
        layer by layer, each numbered as it goes: a vertex node as a tree
        (its branch ids), an edge node as a branch (the tree ids on its
        other vertices).  Its children, its neighbors stripped before it, are
        all numbered by then, as a layer holds one color.  A hypertree keeps
        its single center node (its leaves are all vertex nodes, so the
        incidence tree has even diameter), whose children are its center; a
        connected input with one cycle keeps that cycle, which never becomes
        a leaf.  The walk starts at the least surviving node and steps to the
        least unvisited survivor, so a cycle is walked from its least vertex
        out through that vertex's smaller-index cycle edge, and bead i holds
        the tree at its i-th vertex and the side trees of the edge after it.
        Meaningful only for connected inputs of cycle rank <= 1.
        """
        n = self.n
        adj = [[n + j for j in inc] for inc in self.incidence] + [list(e) for e in self.edges]
        deg = [len(a) for a in adj]
        ids = [-1] * len(adj)  # -1 until the node is stripped
        trees: list[list[int]] = []
        branches: list[list[int]] = []

        def kids(x: int) -> list[int]:
            return [ids[y] for y in adj[x] if ids[y] >= 0]

        layer = [x for x, d in enumerate(deg) if d == 1]
        alive = len(adj)
        while layer and alive > 1:
            for x in layer:
                parts = branches if x >= n else trees
                ids[x] = len(parts)
                parts.append(kids(x))
            nxt = []
            for x in layer:
                for y in adj[x]:
                    if ids[y] < 0:
                        deg[y] -= 1
                        if deg[y] == 1:
                            nxt.append(y)
            alive -= len(layer)
            layer = nxt
        walk = [ids.index(-1)]
        on_walk = set(walk)
        while step := [y for y in adj[walk[-1]] if ids[y] < 0 and y not in on_walk]:
            walk.append(step[0])
            on_walk.add(step[0])
        if len(walk) == 1:
            center = kids(walk[0])
            if walk[0] < n:
                trees.append(center)
                center = [len(trees) - 1]
            return trees, branches, [], center, walk
        # the walk starts at a cycle vertex, so it alternates vertex, edge
        first = len(trees)
        trees += [kids(v) for v in walk[::2]]
        beads = [(first + i, kids(e)) for i, e in enumerate(walk[1::2])]
        return trees, branches, beads, [], walk


def make_hypergraph(k: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Build a normalized hypergraph from raw edges.

    Normalizes only: each edge is sorted, vertex ids are compacted to
    0..n-1 preserving their relative order, and the edges are sorted.
    Hypergraph raises the ValueError for a wrong edge size, a repeated
    vertex, a duplicate edge or an empty edge list, naming an edge in its
    compacted ids.
    """
    raw = [tuple(sorted(e)) for e in edges]
    ids = sorted({v for e in raw for v in e})
    remap = {v: i for i, v in enumerate(ids)}
    # the remap keeps the order of ids, so each edge stays sorted
    norm = sorted(tuple(remap[v] for v in e) for e in raw)
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

    classification: str  # "hypertree" | "unicyclic" | "other"
    girth: int | None
    linear: bool
    connected: bool
    degrees: tuple[int, ...]
    cored_vertices: tuple[int, ...]
    pendent_edges: tuple[int, ...]


def structural_profile(h: Hypergraph) -> StructuralProfile:
    """Classify a hypergraph and report its pendant/cycle structure.

    A connected input is classified by the cycle rank of its incidence
    graph: rank 0 is a hypertree, rank 1 together with linearity is a
    linear unicyclic hypergraph, whose girth is half the length of the
    incidence cycle.  Everything else, disconnected inputs included, is
    "other".
    """
    deg = h.degrees
    cored = tuple(v for v in range(h.n) if deg[v] == 1)
    # at least k-1 cored members: a lone edge (all k cored) counts as pendent
    pendent = tuple(
        j for j, e in enumerate(h.edges) if sum(1 for v in e if deg[v] == 1) >= h.k - 1
    )
    connected = h.is_connected

    classification = "other"
    girth = None
    if connected and h._cycle_rank == 0:
        classification = "hypertree"
    elif h._linear_unicyclic:
        classification = "unicyclic"
        girth = len(h._peel[4]) // 2
    return StructuralProfile(
        classification=classification,
        girth=girth,
        linear=h.is_linear,
        connected=connected,
        degrees=deg,
        cored_vertices=cored,
        pendent_edges=pendent,
    )


def unique_cycle(h: Hypergraph) -> tuple[list[int], list[int]]:
    """Alternating cycle (vertices, edge indices) of a linear unicyclic hypergraph.

    Returns ([v0..v_{l-1}], [e1..el]) where edge e_i joins v_{i-1} to v_i and
    e_l closes back to v0.  Orientation is fixed deterministically: start at
    the smallest cycle vertex and leave through its smallest-index cycle edge.
    """
    if not h._linear_unicyclic:
        raise ValueError("hypergraph is not linear unicyclic")
    walk = h._peel[4]
    return walk[0::2], [x - h.n for x in walk[1::2]]


# --- file formats -----------------------------------------------------------

def hypergraph_to_json(h: Hypergraph) -> str:
    # index turns ids the validator accepts, numpy integers too, into ints
    return json.dumps({"k": h.k, "n": h.n, "edges": [list(map(index, e)) for e in h.edges]})


def hypergraph_from_json(text: str) -> Hypergraph:
    """Read {"k": int, "n": int, "edges": [[int, ...], ...]}.  k, n and every
    vertex id must be JSON integers and every id lie in 0..n-1; edges, and
    the ids within an edge, may be unsorted.  Ids are never renumbered."""
    try:
        obj = json.loads(text)
        k, n, edges = obj["k"], obj["n"], obj["edges"]
        ids = list(chain.from_iterable(edges))
    # KeyError: a missing "k", "n" or "edges";
    # TypeError: e.g. "edges": 5, or a JSON list at top level;
    # RecursionError: arrays nested too deep for the decoder
    except KeyError as exc:
        raise ValueError(f"malformed hypergraph JSON: missing key {exc}") from None
    except (TypeError, RecursionError) as exc:
        raise ValueError(f"malformed hypergraph JSON: {exc}") from None
    for name, v in (("k", k), ("n", n)):
        if type(v) is not int:  # not bool, float or str
            raise ValueError(f"{name} must be a JSON integer, got {v!r}")
    for v in ids:
        if type(v) is not int or not 0 <= v < n:
            raise ValueError(f"vertex id {v!r} is not an integer in 0..{n - 1}")
    return Hypergraph(k=k, n=n, edges=tuple(sorted(map(tuple, map(sorted, edges)))))


def hypergraph_to_text(h: Hypergraph) -> str:
    lines = [f"{h.k} {h.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def hypergraph_from_text(text: str) -> Hypergraph:
    """Read a 'k m' line and then m edge lines of k ids.  Every number is
    plain ASCII decimal digits (no sign, underscore or other numerals).  n
    is one more than the largest id, and the ids must be exactly 0..n-1, as
    in the JSON format, so they are never renumbered."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty hypergraph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'k m'")
    k, m = (_decimal(x) for x in head)
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = sorted(tuple(sorted(_decimal(x) for x in ln.split())) for ln in lines[1:])
    n = 1 + max((e[-1] for e in edges), default=-1)
    return Hypergraph(k=k, n=n, edges=tuple(edges))


def _decimal(token: str) -> int:
    if not (token.isascii() and token.isdigit()):
        # a file or flag may hold one token of any length; name a long one
        # by its head and its length, so the message stays short
        shown = repr(token) if len(token) <= 20 else f"{token[:20]!r}… ({len(token)} characters)"
        raise ValueError(f"{shown} is not a decimal integer")
    return int(token)


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
