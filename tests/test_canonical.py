"""Canonical form: relabeling invariance and class separation."""

import random

import pytest
from helpers import brute_isomorphic, relabel

from hyperspec import (
    EdgeMove,
    FamilySpec,
    canonical_form,
    canonicalize,
    family,
    make_hypergraph,
    move_edges,
    power_hypergraph,
    simple_s,
)
from hyperspec.canonical import BeadReader, _least_rotation

HYPERPATH = make_hypergraph(3, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 8)])


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
        assert c._canonical


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
        assert reader.build(seq)._canonical


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
