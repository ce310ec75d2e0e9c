"""Canonical form: relabeling invariance and class separation."""

import hashlib
import random

import pytest
from helpers import brute_isomorphic, relabel

from hyperspec import (
    EdgeMove,
    FamilySpec,
    canonical_form,
    canonical_id,
    canonicalize,
    family,
    make_hypergraph,
    move_edges,
    power_hypergraph,
    simple_s,
)
from hyperspec.canonical import BeadReader, _least_rotation, read_beads
from hyperspec.cli import run

HYPERPATH = make_hypergraph(3, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8)])
# a hypertree whose center is the edge (0, 1, 2): a two-edge path hangs at
# vertex 0, one pendant edge at vertex 1 and a two-edge path at vertex 2
CENTER_EDGE = make_hypergraph(
    3, [(0, 1, 2), (0, 3, 4), (3, 5, 6), (1, 7, 8), (2, 9, 10), (9, 11, 12)]
)


def test_relabelings_of_triangle_power_agree():
    h = family(FamilySpec(tag="CyclePower", k=3, m=3, g=3))
    base = canonical_form(h)
    rng = random.Random(11)
    for _ in range(50):
        perm = list(range(h.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(h, perm)) == base


def test_q_and_p_are_distinct():
    q = family(FamilySpec(tag="Q", k=3, m=5))
    p = family(FamilySpec(tag="P", k=3, m=5))
    assert canonical_form(q) != canonical_form(p)


def test_family_s_equals_its_power_construction():
    direct = family(FamilySpec(tag="S", k=3, m=5, g=3))
    via_power = power_hypergraph(simple_s(5, 3), 3)
    assert canonical_form(direct) == canonical_form(via_power)


def test_canonicalize_is_idempotent():
    for tag in ("Q", "O", "U1"):
        h = family(FamilySpec(tag=tag, k=3, m=6))
        c = canonicalize(h)
        assert canonicalize(c) == c
        assert canonical_form(c) == canonical_form(h)
        assert c._form is not None


def test_read_beads_is_one_cached_reading():
    """canonicalize and the alpha route read the lists the peel numbered
    once for h, not a second reading of its incidence graph."""
    for h in (family(FamilySpec(tag="Q", k=3, m=6)), make_hypergraph(3, [(0, 1, 2), (2, 3, 4)])):
        first = read_beads(h)
        canonicalize(h)
        assert all(a is b for a, b in zip(first, read_beads(h)))


def test_canonical_rep_preserves_shape():
    h = family(FamilySpec(tag="T1", k=4, m=5))
    c = canonicalize(h)
    assert (c.k, c.n, c.m) == (h.k, h.n, h.m)
    assert sorted(c.degrees) == sorted(h.degrees)


def test_different_k_never_collide():
    h3 = family(FamilySpec(tag="CyclePower", k=3, m=3, g=3))
    h4 = family(FamilySpec(tag="CyclePower", k=4, m=3, g=3))
    assert canonical_form(h3) != canonical_form(h4)


def test_canonical_matches_brute_force_on_small_cases():
    rng = random.Random(3)
    instances = [
        family(FamilySpec(tag="O", k=3, m=4)),
        family(FamilySpec(tag="S", k=3, m=4, g=3)),
        family(FamilySpec(tag="CyclePower", k=3, m=4, g=4)),
        family(FamilySpec(tag="P", k=3, m=5)),
        family(FamilySpec(tag="Q", k=3, m=5)),
        family(FamilySpec(tag="Hyperstar", k=3, m=4)),
        HYPERPATH,
        # edge (2,3,4) re-anchored from 3 to 0 now shares {0, 2} with (0,1,2)
        move_edges(HYPERPATH, [EdgeMove(edge=1, src=3, dst=0)]).hypergraph,
    ]
    for i, a in enumerate(instances):
        for j, b in enumerate(instances):
            same_canon = canonical_form(a) == canonical_form(b)
            assert same_canon == brute_isomorphic(a, b), (i, j)
    # positive cases via relabeling
    for h in instances:
        perm = list(range(h.n))
        rng.shuffle(perm)
        r = relabel(h, perm)
        assert canonical_form(r) == canonical_form(h)
        assert brute_isomorphic(r, h)


def test_relabelings_of_large_star_power_agree():
    h = family(FamilySpec(tag="S", k=6, m=9, g=3))
    base = canonical_form(h)
    rng = random.Random(7)
    for _ in range(20):
        perm = list(range(h.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(h, perm)) == base


def test_relabelings_of_long_cycle_agree():
    cyc = family(FamilySpec(tag="CyclePower", k=3, m=2000, g=2000))
    hubs = [v for v in range(cyc.n) if cyc.degrees[v] == 2]
    # pendants at uneven spots, so a single rotation and direction reads least
    anchors = [hubs[0], hubs[1], hubs[3], hubs[700], hubs[1500]]
    h = make_hypergraph(3, list(cyc.edges) + [
        (v, cyc.n + 2 * i, cyc.n + 2 * i + 1) for i, v in enumerate(anchors)
    ])
    base = canonical_form(h)
    rng = random.Random(13)
    for _ in range(3):
        perm = list(range(h.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(h, perm)) == base


def test_least_rotation_matches_brute_force():
    rng = random.Random(5)
    for _ in range(3000):
        s = [rng.randint(0, 2) for _ in range(rng.randint(1, 10))]
        i = _least_rotation(s)
        assert s[i:] + s[:i] == min(s[j:] + s[:j] for j in range(len(s)))


def test_bead_reader_builds_canonicalize_of_the_cycle_it_reads():
    # k = 3: tree 0 is a bare vertex, tree 1 one pendant edge (branch 0)
    reader = BeadReader(3, trees=[(), (0,)], branches=[(0, 0)],
                        beads=[(0, (0,)), (1, (0,)), (0, (1,))])
    # cycle vertices 0, 1, 2 with side vertices 3, 4, 5; bead 1 hangs a
    # pendant edge at cycle vertex 1, bead 2 one at the side vertex of edge 2
    h = make_hypergraph(3, [(0, 1, 3), (1, 2, 4), (2, 0, 5), (1, 6, 7), (5, 8, 9)])
    c = canonicalize(h)
    for seq in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        assert reader.build(seq) == c
        assert reader.build(seq)._form == canonical_form(c)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1, 2), (3, 4, 5)],
        [(0, 1, 2), (0, 2, 6), (2, 3, 4), (4, 5, 6)],
    ],
    ids=["disconnected", "two-cycles"],
)
def test_canonicalize_rejects_inputs_outside_its_domain(edges):
    with pytest.raises(ValueError):
        canonicalize(make_hypergraph(3, edges))


@pytest.mark.parametrize(
    "k,m,lines,digest",
    [
        (3, 7, 148, "52d30214e5c5e1bc22bb27cf41a5d9fcfa5bad940f90d941cfad1a9d7749058f"),
        (4, 6, 47, "3d4cab119cacc37c6072fd07eb17ac337fee7a9a2cbaf8607e0a4581266e4c08"),
    ],
)
def test_enumerate_output_is_pinned(capsys, k, m, lines, digest):
    # every canonical id and edge list of the pool, byte for byte
    assert run(["enumerate", "--k", str(k), "--m", str(m)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize(
    "h,expected",
    [
        (HYPERPATH, "k3 n9 0,1,2;0,5,6;2,3,4;6,7,8"),
        (CENTER_EDGE, "k3 n13 0,1,2;0,3,8;3,4,5;5,6,7;8,9,10;10,11,12"),
        # girth 2: the edges (0,1,2) and (0,2,3) share two vertices
        (move_edges(HYPERPATH, [EdgeMove(edge=1, src=3, dst=0)]).hypergraph,
         "k3 n8 0,1,2;0,2,3;3,4,5;5,6,7"),
        (family(FamilySpec(tag="P", k=3, m=6)),
         "k3 n12 0,1,2;0,8,9;2,3,4;2,5,6;2,7,8;9,10,11"),
        (family(FamilySpec(tag="Q", k=3, m=6)),
         "k3 n12 0,1,2;0,4,9;2,3,4;4,5,6;4,7,8;9,10,11"),
    ],
    ids=["center-vertex", "center-edge", "girth-2", "P", "Q"],
)
def test_canonical_ids_are_pinned(h, expected):
    assert canonical_id(h) == expected
    perm = list(range(h.n))
    random.Random(17).shuffle(perm)
    assert canonical_id(relabel(h, perm)) == expected


def _path(m: int, start: int, first_new: int) -> list[tuple[int, ...]]:
    """m edges of a k = 3 hyperpath from vertex `start`, new vertices
    numbered from first_new on."""
    edges = []
    for i in range(m):
        v = first_new + 2 * i
        edges.append((start if i == 0 else v - 1, v, v + 1))
    return edges


@pytest.mark.parametrize(
    "edges",
    [
        _path(3000, 0, 1),
        _path(1500, 0, 1) + _path(1500, 0, 3001),
        [(0, 1, 3), (1, 2, 4), (0, 2, 5)] + _path(8000, 0, 6),
    ],
    ids=["hyperpath-3000", "two-1500-paths-at-a-vertex", "triangle-with-8000-edge-path"],
)
def test_canonical_form_of_deep_inputs(edges):
    # deep isomorphic branches are compared at the center, and a long tree is
    # placed in one pass; neither may recurse per level or copy per level
    h = make_hypergraph(3, edges)
    perm = list(range(h.n))
    random.Random(19).shuffle(perm)
    assert canonical_form(relabel(h, perm)) == canonical_form(h)
