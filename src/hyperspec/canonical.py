"""Canonical forms for hypertrees and unicyclic hypergraphs.

The hypergraph is encoded as its vertex-edge incidence graph, with vertex
nodes and edge nodes kept apart by color.  For the classes the library
handles, hypertrees and hypergraphs whose incidence graph has exactly one
cycle, an Aho-Hopcroft-Ullman tree code decides isomorphism:

* leaves are stripped layer by layer; each stripped node gets the code of
  the rooted tree it carries, numbered within its layer by sorting
  (color, sorted child codes);
* what survives is the center node of a hypertree or the unique cycle;
  each survivor gets a branch code the same way, and the cycle is read in
  the least order over all rotations and both directions;
* the canonical relabeling numbers the vertex nodes in depth-first order
  from that core, visiting children in code order.

Children with equal codes carry isomorphic subtrees and rotations with
equal code sequences are automorphisms, so every tie-break yields the same
edge list.  Disconnected inputs, and inputs whose incidence graph has more
than one cycle, raise ValueError.
"""

from __future__ import annotations

from .hypergraph import Hypergraph

__all__ = ["canonicalize", "canonical_form", "canonical_id"]


def canonicalize(h: Hypergraph) -> Hypergraph:
    """Relabel h into its canonical representative.

    Two hypergraphs are isomorphic iff their canonicalize() results are
    equal (same k, same vertex count, identical edge lists).  Raises
    ValueError unless h is connected with at most one cycle in its
    incidence graph.
    """
    n, m = h.n, h.m
    if not h.is_connected:
        raise ValueError("canonical code needs a connected hypergraph")
    cycles = m * h.k - (n + m) + 1
    if cycles > 1:
        raise ValueError(
            f"canonical code needs at most one cycle in the incidence graph, found {cycles}"
        )
    # nodes 0..n-1 are vertices, n..n+m-1 are edges
    adj = [[n + j for j in inc] for inc in h.incidence] + [list(e) for e in h.edges]
    stripped = [False] * (n + m)
    code: list[tuple[int, int]] = [(0, 0)] * (n + m)

    def number(layer: list[int], depth: int) -> None:
        keys = {
            x: (x >= n, tuple(sorted(code[y] for y in adj[x] if stripped[y])))
            for x in layer
        }
        index = {key: i for i, key in enumerate(sorted(set(keys.values())))}
        for x in layer:
            code[x] = (depth, index[keys[x]])

    deg = [len(a) for a in adj]
    layer = [x for x in range(n + m) if deg[x] == 1]
    alive, depth = n + m, 0
    # A cycle never becomes a leaf.  A hypertree's leaves are all vertex
    # nodes, so its incidence tree has even diameter and a single center.
    while layer and alive > 1:
        number(layer, depth)
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
        layer, depth = nxt, depth + 1
    core = [x for x in range(n + m) if not stripped[x]]
    number(core, depth)

    # walk the center or the cycle, then take its least reading
    walk, on_walk = [core[0]], {core[0]}
    while step := [y for y in adj[walk[-1]] if not stripped[y] and y not in on_walk]:
        walk.append(step[0])
        on_walk.add(step[0])
    start = min(
        (w[i:] + w[:i] for w in (walk, walk[::-1]) for i in range(len(w))),
        key=lambda r: [code[x] for x in r],
    )

    order = []
    seen = set(start)
    stack = start[::-1]
    while stack:
        x = stack.pop()
        order.append(x)
        kids = sorted((y for y in adj[x] if y not in seen), key=code.__getitem__)
        seen.update(kids)
        stack.extend(reversed(kids))
    label = {x: i for i, x in enumerate(x for x in order if x < n)}
    edges = sorted(tuple(sorted(label[v] for v in e)) for e in h.edges)
    return Hypergraph(k=h.k, n=n, edges=tuple(edges))


def canonical_form(h: Hypergraph) -> bytes:
    """Canonical byte string; equal iff hypergraphs are isomorphic."""
    return encode_canonical(canonicalize(h))


def encode_canonical(c: Hypergraph) -> bytes:
    """The canonical_form() of c, for a c that canonicalize() returned."""
    body = ";".join(",".join(str(v) for v in e) for e in c.edges)
    return f"k{c.k} n{c.n} {body}".encode("ascii")


def canonical_id(h: Hypergraph) -> str:
    """Canonical form as a printable string id."""
    return canonical_form(h).decode("ascii")
