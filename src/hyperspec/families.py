"""Builders for the named unicyclic graph and hypergraph families.

Every family is the k-th power of a simple graph (a k = 2 hypergraph), plus
pendant k-edges at named vertices.  Simple graphs:

* cycle C_g and star K_{1,s};
* S_{m,g}: cycle of length g with a star of m-g pendant edges at one vertex;
* T_{m,1}: S_{m-1,3} plus one pendant edge at a degree-2 cycle vertex;
* T_{m,2}: S_{m-2,3} plus two pendant edges at a degree-2 cycle vertex;
* U_{m,1}: S_{m-1,3} plus one pendant edge at a star leaf.

Non-power families, which share one triangle layout (`_triangle_family`):

* O_m: a hyperstar of m-3 pendant k-edges centered at a cored cycle vertex;
* Q_m: power of S_{m-1,3} with a pendant k-edge at a cored vertex of a
  cycle edge incident to the max-degree vertex;
* P_m: same but the pendant k-edge sits on the cycle edge avoiding the
  max-degree vertex.

All builders label vertices deterministically so repeated calls are
byte-identical; `CycleRoles` records which vertices/edges play the special
roles needed by the weighted-incidence constructions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraph import Hypergraph, make_hypergraph, power_hypergraph

__all__ = [
    "FAMILY_TAGS",
    "FamilySpec",
    "CycleRoles",
    "family",
    "simple_cycle",
    "simple_star",
    "simple_s",
    "simple_t1",
    "simple_t2",
    "simple_u1",
    "simple_family_graph",
    "family_p_with_roles",
    "family_q_with_roles",
    "family_o_with_roles",
]

FAMILY_TAGS = ("Hyperstar", "CyclePower", "S", "T1", "T2", "U1", "O", "P", "Q")

_POWER_TAGS = ("Hyperstar", "CyclePower", "S", "T1", "T2", "U1")


@dataclass(frozen=True)
class FamilySpec:
    """Parameters naming one family member: tag, uniformity k, edge count m,
    and girth g (S and CyclePower only)."""

    tag: str
    k: int
    m: int
    g: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}")
        if self.k < 3:
            raise ValueError("family construction needs k >= 3")
        if self.tag in ("S", "CyclePower"):
            if self.g is None:
                raise ValueError(f"{self.tag} needs a girth parameter g")
            if self.g < 3:
                raise ValueError("girth must be >= 3")
            if self.tag == "CyclePower" and self.m != self.g:
                raise ValueError("a cycle power has m = g edges")
            if self.tag == "S" and self.m < self.g:
                raise ValueError("S needs m >= g")
        else:
            if self.g is not None:
                raise ValueError(f"{self.tag} takes no girth parameter")
            lower = {"Hyperstar": 1, "T1": 4, "T2": 5, "U1": 5, "O": 4, "P": 5, "Q": 5}
            if self.m < lower[self.tag]:
                raise ValueError(f"{self.tag} needs m >= {lower[self.tag]} (got {self.m})")


@dataclass(frozen=True)
class CycleRoles:
    """Special vertices/edges of the triangle-based families O, P, Q.

    The 3-cycle is v1-e1-v2-e2-v3-e3-v1; w is the cored cycle vertex that
    carries the extra pendant edge(s); pendant edge indices are grouped by
    their anchor.
    """

    v1: int
    v2: int
    v3: int
    w: int
    e1: int
    e2: int
    e3: int
    pendants_v2: tuple[int, ...]
    pendants_w: tuple[int, ...]


def simple_cycle(g: int) -> Hypergraph:
    if g < 3:
        raise ValueError("cycle length must be >= 3")
    return make_hypergraph(2, [(i, (i + 1) % g) for i in range(g)])


def simple_star(s: int) -> Hypergraph:
    if s < 1:
        raise ValueError("star needs at least one edge")
    return make_hypergraph(2, [(0, i) for i in range(1, s + 1)])


def simple_s(m: int, g: int) -> Hypergraph:
    """Cycle 0..g-1 with m-g pendant leaves at vertex 0."""
    if g < 3 or m < g:
        raise ValueError("S needs m >= g >= 3")
    edges = [(i, (i + 1) % g) for i in range(g)]
    edges += [(0, g + i) for i in range(m - g)]
    return make_hypergraph(2, edges)


def _attach_pendants(h: Hypergraph, anchors: list[int]) -> Hypergraph:
    """Add one pendant k-edge (k-1 fresh vertices) per anchor, in order."""
    edges = list(h.edges)
    nxt = h.n
    for v in anchors:
        edges.append(tuple(sorted((v, *range(nxt, nxt + h.k - 1)))))
        nxt += h.k - 1
    # the fresh ids follow h's ids, so 0..nxt-1 are all used and need no compaction
    return Hypergraph(k=h.k, n=nxt, edges=tuple(sorted(edges)))


def simple_t1(m: int) -> Hypergraph:
    """S_{m-1,3} (center 0) plus one pendant leaf at cycle vertex 1."""
    if m < 4:
        raise ValueError("T1 needs m >= 4")
    return _attach_pendants(simple_s(m - 1, 3), [1])


def simple_t2(m: int) -> Hypergraph:
    """S_{m-2,3} (center 0) plus two pendant leaves at cycle vertex 1."""
    if m < 5:
        raise ValueError("T2 needs m >= 5")
    return _attach_pendants(simple_s(m - 2, 3), [1, 1])


def simple_u1(m: int) -> Hypergraph:
    """S_{m-1,3} (center 0) plus one pendant leaf at the star leaf 3."""
    if m < 5:
        raise ValueError("U1 needs m >= 5")
    return _attach_pendants(simple_s(m - 1, 3), [3])


def simple_family_graph(tag: str, m: int, g: int | None = None) -> Hypergraph:
    """Simple-graph counterpart of a power family, with m and g checked as
    FamilySpec checks them."""
    if tag not in _POWER_TAGS:
        raise ValueError(f"{tag} is not a power family")
    FamilySpec(tag, 3, m, g)  # k plays no part in the base graph
    if tag == "Hyperstar":
        return simple_star(m)
    if tag == "CyclePower":
        return simple_cycle(m)
    if tag == "S":
        return simple_s(m, g)
    if tag == "T1":
        return simple_t1(m)
    if tag == "T2":
        return simple_t2(m)
    return simple_u1(m)


def _edge_index(h: Hypergraph, members: set[int]) -> int:
    for j, e in enumerate(h.edges):
        if members <= set(e):
            return j
    raise AssertionError(f"no edge contains {sorted(members)}")


def _fresh_of(h: Hypergraph, a: int, b: int) -> int:
    """Smallest degree-1 vertex of the edge containing both a and b."""
    e = h.edges[_edge_index(h, {a, b})]
    return min(v for v in e if h.degrees[v] == 1)


def _triangle_family(base: Hypergraph, labels: tuple[int, int, int],
                     w_edge: tuple[int, int], pendants: int) -> tuple[Hypergraph, CycleRoles]:
    """`base` with `pendants` pendant k-edges at w, the least cored vertex of
    the base edge through `w_edge`, and its roles.  The triangle 0, 1, 2 of
    `base` is relabeled (v1, v2, v3) = `labels`, so e1 = v1v2, e2 = v2v3 and
    e3 = v3v1, the orientation alpha_normal reads the weights in."""
    w = _fresh_of(base, *w_edge)
    h = _attach_pendants(base, [w] * pendants)
    v1, v2, v3 = labels
    e1, e2, e3 = (_edge_index(h, {a, b}) for a, b in ((v1, v2), (v2, v3), (v3, v1)))
    pend_v2 = tuple(j for j, e in enumerate(h.edges) if v2 in e and j not in (e1, e2))
    # w is cored, so the one cycle edge through it is w's cycle edge
    pend_w = tuple(j for j, e in enumerate(h.edges) if w in e and j not in (e1, e2, e3))
    roles = CycleRoles(v1=v1, v2=v2, v3=v3, w=w, e1=e1, e2=e2, e3=e3,
                       pendants_v2=pend_v2, pendants_w=pend_w)
    return h, roles


def family_p_with_roles(k: int, m: int) -> tuple[Hypergraph, CycleRoles]:
    FamilySpec("P", k, m)
    return _triangle_family(power_hypergraph(simple_s(m - 1, 3), k), (1, 0, 2), (1, 2), 1)


def family_q_with_roles(k: int, m: int) -> tuple[Hypergraph, CycleRoles]:
    FamilySpec("Q", k, m)
    return _triangle_family(power_hypergraph(simple_s(m - 1, 3), k), (2, 0, 1), (0, 1), 1)


def family_o_with_roles(k: int, m: int) -> tuple[Hypergraph, CycleRoles]:
    FamilySpec("O", k, m)
    return _triangle_family(power_hypergraph(simple_cycle(3), k), (0, 2, 1), (0, 1), m - 3)


def family(spec: FamilySpec) -> Hypergraph:
    """Build the named family member (validated by FamilySpec)."""
    if spec.tag in _POWER_TAGS:
        return power_hypergraph(simple_family_graph(spec.tag, spec.m, spec.g), spec.k)
    if spec.tag == "P":
        return family_p_with_roles(spec.k, spec.m)[0]
    if spec.tag == "Q":
        return family_q_with_roles(spec.k, spec.m)[0]
    return family_o_with_roles(spec.k, spec.m)[0]
