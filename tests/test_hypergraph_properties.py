"""Property checks of the hypergraph structure queries on random edge
lists."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hyperspec import make_hypergraph  # noqa: E402


@st.composite
def edge_lists(draw):
    """k in 2..5 and 1..25 distinct k-sets on at most 3k + 6 ids: few ids
    give mostly connected inputs, many give mostly disconnected ones."""
    k = draw(st.integers(2, 5))
    ids = st.integers(0, draw(st.integers(k, 3 * k + 6)) - 1)
    edges = draw(st.lists(st.frozensets(ids, min_size=k, max_size=k),
                          min_size=1, max_size=25, unique=True))
    return make_hypergraph(k, edges)


def bfs_connected(h):
    """Breadth-first search over a vertex -> edges map, independent of the
    union-find in Hypergraph.is_connected."""
    touching = {v: [] for v in range(h.n)}
    for e in h.edges:
        for v in e:
            touching[v].append(e)
    seen, todo = {0}, [0]
    while todo:
        for e in touching[todo.pop()]:
            fresh = set(e) - seen
            seen |= fresh
            todo.extend(fresh)
    return len(seen) == h.n


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(edge_lists())
def test_is_connected_matches_breadth_first_search(h):
    hypothesis.note(repr(h.edges))
    hypothesis.event("connected" if bfs_connected(h) else "disconnected")
    assert h.is_connected == bfs_connected(h)
