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

BeadReader builds the same representative straight from a cycle of beads
(the trees hung at each cycle vertex and on each cycle edge's side
vertices), as the enumerator supplies them: the keys canonicalize sorts
tree nodes by are computed once per tree, so no class needs the peel.

Children with equal codes carry isomorphic subtrees and rotations with
equal code sequences are automorphisms, so every tie-break yields the same
edge list.  Disconnected inputs, and inputs whose incidence graph has more
than one cycle, raise ValueError.
"""

from __future__ import annotations

from functools import cache

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


class BeadReader:
    """The canonicalize() representatives of linear unicyclic hypergraphs
    given as bead sequences, built without the tree code.

    The rooted trees hanging off the cycle come numbered in three lists:
    trees[t], the ids of the branches at a tree's root (the tree () is a
    bare vertex); branches[b], the k - 1 tree ids on the other vertices of
    a branch's edge; beads[i], the tree id at a cycle vertex and the k - 2
    tree ids on the side vertices of the cycle edge after it.  Every tree's
    subtrees come before it.  build() takes a cycle as bead ids, bead i
    holding cycle vertex i and the edge from it to vertex i + 1.

    canonicalize() codes a node of a tree hanging off the cycle by its
    height (its peel layer) and, within that height, by its sorted child
    codes; the same key, computed once per tree and per branch id, orders
    them exactly as those codes do in any graph.  A cycle node is coded by
    its color and its sorted child codes alone.
    """

    def __init__(self, k: int, trees: list, branches: list, beads: list):
        self.k = k
        self.roots = [v for v, _ in beads]

        @cache
        def tree_key(t: int) -> tuple:
            return _node_key(branch_key(b) for b in trees[t])

        @cache
        def branch_key(b: int) -> tuple:
            return _node_key(tree_key(t) for t in branches[b])

        # hang[t]: the edges of tree t with its root labeled -1 and the other
        # vertices 0, 1, ... in canonicalize's depth-first order (children by
        # key), and the number of those other vertices
        self.hang: list[tuple[int, list[tuple[int, ...]]]] = []
        for parts in trees:
            edges: list[tuple[int, ...]] = []
            n = 0
            for b in sorted(parts, key=branch_key):
                edge = [-1]
                for t in sorted(branches[b], key=tree_key):
                    edge.append(n)
                    n = self._place(t, n, edges)
                edges.append(tuple(edge))
            self.hang.append((n, edges))
        # per bead: the codes of its cycle vertex and cycle edge (every vertex
        # code below every edge code, as colors order them), and its side
        # trees in the order their vertices are numbered
        vertex_code = _ranks([tree_key(t)[1] for t in range(len(trees))])
        edge_code = _ranks([tuple(sorted(map(tree_key, side))) for _, side in beads])
        self.codes = [(vertex_code[v], len(trees) + e) for v, e in zip(self.roots, edge_code)]
        self.sides = [tuple(sorted(side, key=tree_key)) for _, side in beads]

    def build(self, seq: tuple[int, ...]) -> Hypergraph:
        """The representative canonicalize() returns for the cycle of beads
        seq, built directly: the cycle is read in its least order over both
        directions, and the vertices are numbered as canonicalize numbers
        them."""
        g = len(seq)
        codes = [c for b in seq for c in self.codes[b]]  # vertex i at 2i, edge i at 2i + 1
        nodes = list(range(2 * g))
        best = None
        for w in (nodes, nodes[::-1]):
            c = [codes[x] for x in w]
            i = _least_rotation(c)
            reading = (c[i:] + c[:i], w[i:] + w[:i])
            if best is None or reading[0] < best[0]:
                best = reading
        cycle = [0] * g  # label of cycle vertex i
        side: list[list[int]] = [[]] * g  # labels of the side vertices of cycle edge i
        edges: list[tuple[int, ...]] = []
        n = 0
        for x in best[1]:
            i, b = x >> 1, seq[x >> 1]
            trees = self.sides[b] if x & 1 else (self.roots[b],)
            labels = []
            for t in trees:
                labels.append(n)
                n = self._place(t, n, edges)
            if x & 1:
                side[i] = labels
            else:
                cycle[i] = labels[0]
        edges += [tuple(sorted((cycle[i], cycle[(i + 1) % g], *side[i]))) for i in range(g)]
        edges.sort()
        return Hypergraph(k=self.k, n=n, edges=tuple(edges), _canonical=True)

    def _place(self, tree: int, n: int, edges: list) -> int:
        """Append the edges of tree `tree` rooted at vertex n, its other
        vertices numbered from n + 1 on, and return the next free label."""
        size, sub = self.hang[tree]
        shift = (n + 1).__add__
        edges += [tuple(map(shift, e)) for e in sub]
        return n + 1 + size


def _node_key(child_keys) -> tuple:
    """(height, sorted child keys), the order canonicalize() codes a tree
    node by; a leaf has height 0."""
    keys = tuple(sorted(child_keys))
    return (keys[-1][0] + 1 if keys else 0, keys)


def _ranks(keys: list) -> list[int]:
    """Position of each key among the distinct keys, in sorted order."""
    order = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def canonical_form(h: Hypergraph) -> bytes:
    """Canonical byte string; equal iff hypergraphs are isomorphic.  A
    representative marked canonical is encoded without a second tree code."""
    return encode_canonical(h if h._canonical else canonicalize(h))


def encode_canonical(c: Hypergraph) -> bytes:
    """The canonical_form() of c, for a c that canonicalize() returned."""
    body = ";".join(",".join(map(str, e)) for e in c.edges)
    return f"k{c.k} n{c.n} {body}".encode("ascii")


def canonical_id(h: Hypergraph) -> str:
    """Canonical form as a printable string id."""
    return canonical_form(h).decode("ascii")
