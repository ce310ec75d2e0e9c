"""Canonical forms for hypertrees and unicyclic hypergraphs.

The vertex-edge incidence graph of a hypertree, or of a hypergraph whose
incidence graph has exactly one cycle, is a core with rooted trees hanging
off it.  The core is a hypertree's center node, or a cycle of g beads, each
a cycle vertex and the cycle edge after it (g >= 3 when the hypergraph is
linear, g = 2 when two edges share two vertices).

BeadReader holds the one code.  Every rooted tree (a vertex node and what
hangs below it) and every branch (an edge node and the trees on its other
vertices) gets a flat code: its height, then its rank within that height by
sorted child codes.  The cycle is read in its least order over all
rotations and both directions (Booth's algorithm), and the vertices are
numbered depth-first from the core, children in code order, and each
representative carries its rendered canonical form.  Two readers feed it:
the enumerator numbers its trees, branches and beads itself, and
canonicalize() takes them from read_beads(), the lists the peel in
`hypergraph.py` numbers as it strips the leaves, once per hypergraph and
cached on it; the alpha route reads the same cached lists off the peel.

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
    trees, branches, beads, center = read_beads(h)
    reader = BeadReader(h.k, trees, branches, beads)
    return reader.build(tuple(range(len(beads)))) if beads else reader._hypertree(center)


def read_beads(h: Hypergraph) -> tuple[list, list, list, list]:
    """canonicalize's reader: BeadReader's (trees, branches, beads, center)
    for h, from the peel in `hypergraph.py`, leaves first, after checking
    that h is in the canonical code's domain.  The lists are cached on h,
    and the alpha route takes them off the peel directly, so they must not
    be changed.  A hypertree has no beads, and its center is the tree at its
    center vertex or the k on its center edge; a cycle has no center."""
    if not h.is_connected:
        raise ValueError("canonical code needs a connected hypergraph")
    if h._cycle_rank > 1:
        raise ValueError("canonical code needs at most one cycle in the incidence graph, "
                         f"found {h._cycle_rank}")
    return h._peel[:4]


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
    """The one canonical code: representatives built from numbered trees.

    The trees come numbered in three lists: trees[t], the ids of the
    branches at a tree's root (the tree () is a bare vertex); branches[b],
    the k - 1 tree ids on the other vertices of a branch's edge; beads[i],
    the tree id at a cycle vertex and the k - 2 tree ids on the side
    vertices of the cycle edge after it.  Every tree's subtrees come before
    it, and every branch sits in some tree.  build() takes a cycle as bead
    ids, bead i holding cycle vertex i and the edge from it to vertex i + 1.
    A cycle node is coded by its color (vertices first) and its sorted child
    codes alone, ranked among the beads.
    """

    def __init__(self, k: int, trees: list, branches: list, beads: list):
        self.k = k
        self.roots = [v for v, _ in beads]
        # one node list: tree t is node t, branch b is node len(trees) + b
        self.kids = kids = [[len(trees) + b for b in parts] for parts in trees]
        kids += [list(side) for side in branches]
        # heights, and the vertices below a tree's root or a branch's edge;
        # a branch is measured again with every tree that holds it
        height = [0] * len(kids)
        self.size = size = [0] * len(kids)
        for t in range(len(trees)):
            for b in kids[t]:
                below = kids[b]
                height[b] = 1 + max(map(height.__getitem__, below))
                size[b] = len(below) + sum(map(size.__getitem__, below))
                height[t] = max(height[t], height[b] + 1)
                size[t] += size[b]
        levels: list[list[int]] = [[] for _ in range(max(height) + 1)]
        for x, d in enumerate(height):
            levels[d].append(x)
        # codes height by height, each node's children sorted once on the way
        self.code = [0] * len(kids)
        code_of = self.code.__getitem__
        base = 0
        for level in levels:
            for x in level:
                kids[x].sort(key=code_of)
            keys = [tuple(map(code_of, kids[x])) for x in level]
            for x, rank in zip(level, _ranks(keys)):
                self.code[x] = base + rank
            base += len(level)
        # per bead: the codes of its cycle vertex and cycle edge (every vertex
        # code below every edge code), and its side trees in code order
        self.sides = [sorted(side, key=code_of) for _, side in beads]
        vertex_code = _ranks([tuple(map(code_of, kids[v])) for v in self.roots])
        edge_code = _ranks([tuple(map(code_of, side)) for side in self.sides])
        self.codes = [(v, len(beads) + e) for v, e in zip(vertex_code, edge_code)]

    def build(self, seq: tuple[int, ...]) -> Hypergraph:
        """The representative canonicalize() returns for the cycle of beads
        seq: the cycle is read in its least order over both directions, and
        the vertices are numbered depth-first from it."""
        g = len(seq)
        codes = [c for b in seq for c in self.codes[b]]  # vertex i at 2i, edge i at 2i + 1
        nodes = list(range(2 * g))
        readings = []
        for w in (nodes, nodes[::-1]):
            c = [codes[x] for x in w]
            i = _least_rotation(c)
            readings.append((c[i:] + c[:i], w[i:] + w[:i]))
        start = min(readings, key=lambda r: r[0])[1]
        cycle = [0] * g  # label of cycle vertex i
        side: list[list[int]] = [[]] * g  # labels of the side vertices of cycle edge i
        edges: list[tuple[int, ...]] = []
        n = 0
        for x in start:
            i, b = x >> 1, seq[x >> 1]
            if x & 1:
                side[i], n = self._place(self.sides[b], n, edges)
            else:
                (cycle[i],), n = self._place([self.roots[b]], n, edges)
        edges += [tuple(sorted((cycle[i], cycle[(i + 1) % g], *side[i]))) for i in range(g)]
        return _represent(self.k, n, edges)

    def _hypertree(self, center: list[int]) -> Hypergraph:
        """The canonicalize() representative of the hypertree whose center
        vertex carries the one tree in `center`, or whose center edge the k."""
        edges: list[tuple[int, ...]] = []
        labels, n = self._place(sorted(center, key=self.code.__getitem__), 0, edges)
        if len(labels) > 1:
            edges.append(tuple(labels))
        return _represent(self.k, n, edges)

    def _place(self, trees: list[int], n: int, edges: list) -> tuple[list[int], int]:
        """Append the edges of `trees`, placed one after another from label
        n, each root before its subtree, numbered depth-first with children
        in code order.  A label follows from the sizes of the subtrees
        before it, so a stack of (tree, root label) pairs places any depth
        in one pass.  Return the root labels and the next free label."""
        kids, size = self.kids, self.size
        todo = []
        for t in trees:
            todo.append((t, n))
            n += 1 + size[t]
        roots = [label for _, label in todo]
        while todo:
            t, label = todo.pop()
            nxt = label + 1
            for b in kids[t]:
                edge = [label]
                for c in kids[b]:
                    edge.append(nxt)
                    todo.append((c, nxt))
                    nxt += 1 + size[c]
                edges.append(tuple(edge))
        return roots, n


def _represent(k: int, n: int, edges: list[tuple[int, ...]]) -> Hypergraph:
    """The representative on the placed edges, sorted, carrying its
    canonical form: the one place a form is rendered."""
    edges.sort()
    body = ";".join(",".join(map(str, e)) for e in edges)
    return Hypergraph(k=k, n=n, edges=tuple(edges), _form=f"k{k} n{n} {body}".encode("ascii"))


def _ranks(keys: list) -> list[int]:
    """Position of each key among the distinct keys, in sorted order."""
    order = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def canonical_form(h: Hypergraph) -> bytes:
    """Canonical byte string; equal iff hypergraphs are isomorphic.  A
    representative BeadReader built carries it, so it is rendered once."""
    return h._form if h._form is not None else canonicalize(h)._form


def canonical_id(h: Hypergraph) -> str:
    """Canonical form as a printable string id."""
    return canonical_form(h).decode("ascii")
