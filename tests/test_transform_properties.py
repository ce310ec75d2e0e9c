"""The rewiring lemmas as properties on random linear unicyclic inputs at
k = 3..6: each move raises the spectral radius strictly."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import random_unicyclic  # noqa: E402

from hyperspec import (  # noqa: E402
    EdgeMove,
    make_hypergraph,
    move_edges,
    relocate,
    spectral_radius_tensor,
    yss_move,
)

PERRON_MARGIN = 1e-10  # entry ties within this margin satisfy ">="
GAP = 1e-9  # far below the rises: the least of 370 probed moves was 1.7e-4


@st.composite
def unicyclic(draw, k=None, max_m=24):
    k = draw(st.integers(3, 6)) if k is None else k
    g = draw(st.integers(3, min(7, max_m)))
    m = draw(st.integers(max(g, 4), max_m))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_unicyclic(k, m, np.random.default_rng(seed), g=g)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(unicyclic(), st.data())
def test_edge_moves_toward_a_larger_perron_entry_raise_rho(h, data):
    """Edge-moving lemma (Li, Shao & Qi 2016): edges moved from their
    vertices to one target whose Perron entry is at least each of theirs
    give a larger rho when the result is connected."""
    own = spectral_radius_tensor(h)
    x = own.perron
    dst = data.draw(st.integers(0, h.n - 1), label="target")
    allowed = [EdgeMove(j, src, dst) for j, e in enumerate(h.edges) if dst not in e
               for src in e if x[dst] >= x[src] - PERRON_MARGIN]
    hypothesis.assume(allowed)
    moves = data.draw(st.lists(st.sampled_from(allowed), min_size=1, max_size=3,
                               unique_by=lambda mv: mv.edge), label="moves")
    try:
        out = move_edges(h, moves).hypergraph
    except ValueError:  # a duplicate edge: the result is not a simple hypergraph
        hypothesis.reject()
    hypothesis.assume(out.is_connected)
    assert spectral_radius_tensor(out).rho > own.rho + GAP


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(unicyclic(), st.data())
def test_yss_moves_raise_rho(h, data):
    """Yuan, Shao & Shan 2016: wherever the pattern holds, the move raises
    rho, with no condition on the Perron vector."""
    pairs = []
    for e in range(h.m):
        for f in range(h.m):
            try:
                pairs.append((e, f, yss_move(h, e, f)))
            except ValueError:
                continue
    hypothesis.assume(pairs)
    e, f, out = data.draw(st.sampled_from(pairs), label="pair")
    assert spectral_radius_tensor(out).rho > spectral_radius_tensor(h).rho + GAP


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(unicyclic(), st.data())
def test_relocation_to_a_larger_perron_entry_raises_rho(g1, data):
    """Glue a rooted piece (one edge, or a small unicyclic graph) at v2:
    gluing it at any v1 whose Perron entry in that graph is at least v2's
    gives a larger rho, the edge-moving lemma on the piece's root edges."""
    piece = data.draw(st.one_of(st.just(make_hypergraph(g1.k, [range(g1.k)])),
                                unicyclic(k=g1.k, max_m=6)), label="piece")
    u = data.draw(st.integers(0, piece.n - 1), label="root")
    v2 = data.draw(st.integers(0, g1.n - 1), label="v2")
    at_v2, _ = relocate(g1, (v2 + 1) % g1.n, v2, piece, u)
    own = spectral_radius_tensor(at_v2)
    x = own.perron
    allowed = [v for v in range(g1.n) if v != v2 and x[v] >= x[v2] - PERRON_MARGIN]
    hypothesis.assume(allowed)
    v1 = data.draw(st.sampled_from(allowed), label="v1")
    _, at_v1 = relocate(g1, v1, v2, piece, u)
    assert spectral_radius_tensor(at_v1).rho > own.rho + GAP
