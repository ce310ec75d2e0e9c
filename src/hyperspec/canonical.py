"""Canonical forms for hypertrees and unicyclic hypergraphs.

The hypergraph is encoded as its vertex-edge incidence graph, with vertex
nodes and edge nodes kept apart by color.  For the classes the library
handles, hypertrees and hypergraphs whose incidence graph has exactly one
cycle, an Aho-Hopcroft-Ullman tree code decides isomorphism:

* the leaf layers come from the incidence-graph peel in `hypergraph.py`,
  which also walks what survives: the center node of a hypertree or the
  unique cycle;
* each stripped node gets the code of the rooted tree it carries, numbered
  within its layer by sorting (color, sorted child codes), and each
  survivor gets a branch code the same way;
* the cycle is read in the least order over all rotations and both
  directions, each direction's least rotation found by Booth's algorithm;
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
    layers, walk = h._peel
    layers = layers + [walk]  # the survivors are numbered last
    adj = [[n + j for j in inc] for inc in h.incidence] + [list(e) for e in h.edges]
    # code[x] = (depth, index); the depth sits past every layer until numbered
    code: list[tuple[int, int]] = [(len(layers), 0)] * (n + m)
    for d, layer in enumerate(layers):
        keys = {
            x: (x >= n, tuple(sorted(code[y] for y in adj[x] if code[y][0] < d)))
            for x in layer
        }
        index = {key: i for i, key in enumerate(sorted(set(keys.values())))}
        for x in layer:
            code[x] = (d, index[keys[x]])

    readings = []
    for w in (walk, walk[::-1]):
        codes = [code[x] for x in w]
        i = _least_rotation(codes)
        readings.append((codes[i:] + codes[:i], w[i:] + w[:i]))
    start = min(readings, key=lambda r: r[0])[1]

    order = []
    stack = start[::-1]
    while stack:
        x = stack.pop()
        order.append(x)
        kids = sorted((y for y in adj[x] if code[y][0] < code[x][0]), key=code.__getitem__)
        stack.extend(reversed(kids))
    label = {x: i for i, x in enumerate(x for x in order if x < n)}
    edges = sorted(tuple(sorted(label[v] for v in e)) for e in h.edges)
    return Hypergraph(k=h.k, n=n, edges=tuple(edges), _canonical=True)


def _least_rotation(s: list) -> int:
    """Start of the least rotation of s, in linear time (Booth 1980)."""
    s = s + s
    fail = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        c, i = s[j], fail[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != s[k + i + 1]:  # i == -1 here
            if c < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def canonical_form(h: Hypergraph) -> bytes:
    """Canonical byte string; equal iff hypergraphs are isomorphic.  A
    representative marked canonical is encoded without a second tree code."""
    return encode_canonical(h if h._canonical else canonicalize(h))


def encode_canonical(c: Hypergraph) -> bytes:
    """The canonical_form() of c, for a c that canonicalize() returned."""
    body = ";".join(",".join(str(v) for v in e) for e in c.edges)
    return f"k{c.k} n{c.n} {body}".encode("ascii")


def canonical_id(h: Hypergraph) -> str:
    """Canonical form as a printable string id."""
    return canonical_form(h).decode("ascii")
