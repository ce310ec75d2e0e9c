"""Spectral-radius-increasing rewiring: one edge move, chosen two ways.

* move_edges detaches edges from member vertices and re-anchors them all
  at one target vertex.  When the target's Perron entry is at least that
  of every detached vertex and the result is connected, the spectral
  radius strictly rises (edge-moving lemma, Li, Shao & Qi 2016).
* relocate glues a rooted hypergraph at v2, then moves its root edges
  from v2 to v1: by the same lemma, the gluing at the vertex with the
  larger Perron entry has the larger radius.
* yss_move takes two edges overlapping in k-r vertices whose remaining
  vertices are pendant except one on each side, and moves every other edge
  at the non-pendant vertex of the second edge onto a pendant vertex of
  the first: the radius rises with no Perron condition (Yuan, Shao & Shan
  2016).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .hypergraph import Hypergraph, make_hypergraph

__all__ = ["EdgeMove", "MoveResult", "move_edges", "relocate", "yss_move"]


@dataclass(frozen=True)
class EdgeMove:
    """Re-anchor edge `edge` from its member `src` to outside vertex `dst`."""

    edge: int
    src: int
    dst: int


class MoveResult(NamedTuple):
    hypergraph: Hypergraph
    vertex_map: dict[int, int]  # old id -> new id (orphaned ids dropped)


def move_edges(h: Hypergraph, moves: list[EdgeMove]) -> MoveResult:
    """Apply edge moves sharing a single target vertex.

    Vertices orphaned by the moves are compacted away by make_hypergraph;
    the returned map records surviving ids.  Raises ValueError when a move
    references a vertex outside/inside the wrong edge; a result with a
    duplicate edge is refused by Hypergraph, which names that edge in the
    surviving ids.
    """
    if not moves:
        raise ValueError("no moves given")
    targets = {mv.dst for mv in moves}
    if len(targets) > 1:
        raise ValueError(f"moves must share one target vertex, got {sorted(targets)}")
    u = moves[0].dst
    if not 0 <= u < h.n:
        raise ValueError(f"target vertex {u} out of range")
    seen_edges = set()
    new_edges = [set(e) for e in h.edges]
    for mv in moves:
        if not 0 <= mv.edge < h.m:
            raise ValueError(f"edge index {mv.edge} out of range")
        if mv.edge in seen_edges:
            raise ValueError(f"edge {mv.edge} moved twice")
        seen_edges.add(mv.edge)
        e = set(h.edges[mv.edge])
        if mv.src not in e:
            raise ValueError(f"vertex {mv.src} is not in edge {mv.edge}")
        if u in e:
            raise ValueError(f"target vertex {u} already in edge {mv.edge}")
        new_edges[mv.edge] = (e - {mv.src}) | {u}
    vmap = {v: i for i, v in enumerate(sorted(set().union(*new_edges)))}
    return MoveResult(hypergraph=make_hypergraph(h.k, new_edges), vertex_map=vmap)


def relocate(
    g1: Hypergraph,
    v1: int,
    v2: int,
    g2: Hypergraph,
    u: int,
) -> tuple[Hypergraph, Hypergraph]:
    """Identification pair: g2 rooted at u glued onto v2, and onto v1.

    Both results share a vertex numbering: g1 keeps its ids and the
    non-root vertices of g2 are appended in order, so Perron entries at v1
    and v2 are directly comparable across the pair.  The second is the
    first with g2's root edges (its edges at u) moved from v2 to v1.
    """
    if g1.k != g2.k:
        raise ValueError("uniformity mismatch")
    if v1 == v2:
        raise ValueError("v1 and v2 must differ")
    for v in (v1, v2):
        if not 0 <= v < g1.n:
            raise ValueError(f"vertex {v} out of range for the host hypergraph")
    if not 0 <= u < g2.n:
        raise ValueError(f"root {u} out of range for the attached hypergraph")
    attached = [[v2 if v == u else g1.n + v - (v > u) for v in e] for e in g2.edges]
    glued = make_hypergraph(g1.k, list(g1.edges) + attached)
    # g2's edges are the ones holding an appended id, its largest after sorting
    roots = [j for j in glued.incidence[v2] if glued.edges[j][-1] >= g1.n]
    return glued, move_edges(glued, [EdgeMove(edge=j, src=v2, dst=v1) for j in roots]).hypergraph


def _yss_sides(h: Hypergraph, e_idx: int, f_idx: int) -> tuple[int, int]:
    """Validate the overlap pattern and return (u2, v1): the pendant
    re-anchor target inside e and the non-pendant vertex of f."""
    if e_idx == f_idx:
        raise ValueError("e and f must be distinct edges")
    for j in (e_idx, f_idx):
        if not 0 <= j < h.m:
            raise ValueError(f"edge index {j} out of range")
    e = set(h.edges[e_idx])
    f = set(h.edges[f_idx])
    shared = e & f
    r = h.k - len(shared)
    if not 2 <= r <= h.k - 1:
        raise ValueError(
            f"overlap {len(shared)} leaves r={r}; the pattern needs 2 <= r <= k-1"
        )
    deg = h.degrees
    e_rest = sorted(e - shared)
    f_rest = sorted(f - shared)
    e_anchor = [v for v in e_rest if deg[v] > 1]
    f_anchor = [v for v in f_rest if deg[v] > 1]
    if len(e_anchor) != 1:
        raise ValueError(
            f"side of e outside the overlap must have exactly one non-pendant "
            f"vertex, found {len(e_anchor)}"
        )
    if len(f_anchor) != 1:
        raise ValueError(
            f"side of f outside the overlap must have exactly one non-pendant "
            f"vertex, found {len(f_anchor)}"
        )
    u2 = min(v for v in e_rest if deg[v] == 1)
    return u2, f_anchor[0]


def yss_move(h: Hypergraph, e_idx: int, f_idx: int) -> Hypergraph:
    """Re-anchor every edge at f's non-pendant side vertex (except f itself)
    onto a pendant vertex of e.  Preconditions are validated structurally;
    the failing clause is reported."""
    u2, v1 = _yss_sides(h, e_idx, f_idx)
    moves = [EdgeMove(edge=j, src=v1, dst=u2) for j in h.incidence[v1] if j != f_idx]
    return move_edges(h, moves).hypergraph
