"""Construction, validation, structure analysis, and file formats."""

import random
import re
import resource
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from hyperspec import (
    FamilySpec,
    Hypergraph,
    family,
    hypergraph_from_json,
    hypergraph_from_text,
    hypergraph_to_json,
    hypergraph_to_text,
    load_hypergraph,
    make_hypergraph,
    power_base,
    power_hypergraph,
    save_hypergraph,
    simple_cycle,
    simple_s,
    simple_star,
    spectral_radius_tensor,
    structural_profile,
    unique_cycle,
)


def test_single_edge():
    h = make_hypergraph(3, [{0, 1, 2}])
    assert h.n == 3 and h.m == 1
    assert h.edges == ((0, 1, 2),)


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        make_hypergraph(3, [{0, 1, 2}, {2, 1, 0}])


def test_wrong_edge_size_rejected():
    with pytest.raises(ValueError):
        make_hypergraph(3, [{0, 1}])
    with pytest.raises(ValueError):
        make_hypergraph(3, [(0, 1, 1)])


def test_unsorted_edge_rejected():
    with pytest.raises(ValueError, match=re.escape("edge (0, 2, 1) is not sorted")):
        Hypergraph(k=3, n=3, edges=((0, 2, 1),))


def test_empty_edge_list_rejected():
    with pytest.raises(ValueError, match="empty"):
        make_hypergraph(3, [])


@pytest.mark.parametrize("k, n, edges, message", [
    (3, 3, (), "edge list is empty"),
    (1, 3, ((0,), (1,), (2,)), "uniformity k must be >= 2"),
    (3, 4, ((0, 1, 2), (0, 3)), "edge (0, 3) does not have 3 distinct vertices"),
    (3, 3, ((0, 1, 1), (0, 1, 2)), "edge (0, 1, 1) does not have 3 distinct vertices"),
    (3, 5, ((0, 1, 2), (2, 4, 3)), "edge (2, 4, 3) is not sorted"),
    (3, 5, ((0, 1, 2), (0, 1, 2), (2, 3, 4)), "duplicate edge (0, 1, 2)"),
    (3, 5, ((2, 3, 4), (0, 1, 2)), "edge (0, 1, 2) is out of order"),
    (3, 6, ((0, 1, 2), (2, 3, 5)), "vertex count 6 does not match the edges: 5 ids from 0 to 5"),
])
def test_validator_messages(k, n, edges, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Hypergraph(k=k, n=n, edges=edges)


def test_validator_refuses_a_non_integer_id():
    with pytest.raises(ValueError, match=re.escape("edge (0, 1, 2.0) has a vertex id that is not an integer")):
        Hypergraph(k=3, n=5, edges=((0, 1, 2.0), (2, 3, 4)))
    with pytest.raises(ValueError, match="not an integer"):
        Hypergraph(k=3, n=3, edges=((0, 1, "2"),))
    h = Hypergraph(k=3, n=5, edges=tuple(tuple(np.arange(3) + s) for s in (0, 2)))
    assert h == Hypergraph(k=3, n=5, edges=((0, 1, 2), (2, 3, 4)))


def test_validator_names_a_non_tuple_edge():
    with pytest.raises(ValueError, match=re.escape("edge [0, 1, 2] is not a tuple")):
        Hypergraph(k=3, n=3, edges=([0, 1, 2],))


def test_triangle_cycle():
    from hyperspec import canonical_form

    h = make_hypergraph(3, [{0, 1, 2}, {2, 3, 4}, {4, 5, 0}])
    assert h.n == 6 and h.m == 3
    assert canonical_form(h) == canonical_form(
        family(FamilySpec(tag="CyclePower", k=3, m=3, g=3)))


def test_vertex_compaction_preserves_order():
    h = make_hypergraph(3, [{5, 10, 7}, {10, 20, 30}])
    # 5,7,10,20,30 -> 0,1,2,3,4
    assert h.edges == ((0, 1, 2), (2, 3, 4))


def test_power_of_triangle_matches_cycle_family():
    h = power_hypergraph(simple_cycle(3), 3)
    assert h.n == 6 and h.m == 3
    assert h == family(FamilySpec(tag="CyclePower", k=3, m=3, g=3))


def test_power_of_two_path():
    g = simple_star(2)  # path with center 0
    h = power_hypergraph(g, 4)
    assert h.n == 7 and h.m == 2
    inter = set(h.edges[0]) & set(h.edges[1])
    assert len(inter) == 1
    assert h.degrees[inter.pop()] == 2


def test_power_of_paw():
    h = power_hypergraph(simple_s(4, 3), 3)
    assert h.n == 8 and h.m == 4
    prof = structural_profile(h)
    assert prof.classification == "unicyclic"
    assert prof.girth == 3


def test_power_requires_k_at_least_3():
    with pytest.raises(ValueError, match="k >= 3"):
        power_hypergraph(simple_cycle(3), 2)


def test_power_requires_simple_base():
    with pytest.raises(ValueError, match="k = 2"):
        power_hypergraph(power_hypergraph(simple_cycle(3), 3), 4)


def test_profile_cycle_power_4():
    h = family(FamilySpec(tag="CyclePower", k=3, m=4, g=4))
    prof = structural_profile(h)
    assert prof.classification == "unicyclic"
    assert prof.girth == 4
    assert prof.linear and prof.connected
    assert len(prof.cored_vertices) == 4
    assert sum(1 for d in prof.degrees if d > 1) == 4


def test_profile_single_edge():
    prof = structural_profile(make_hypergraph(3, [{0, 1, 2}]))
    assert prof.classification == "hypertree"
    assert prof.cored_vertices == (0, 1, 2)
    assert prof.pendent_edges == (0,)
    assert prof.girth is None


def test_profile_nonlinear_pair():
    prof = structural_profile(make_hypergraph(3, [{0, 1, 2}, {1, 2, 3}]))
    assert not prof.linear
    assert prof.classification == "other"
    # the shared pair {3, 4} sits in the second and last edges of a cycle
    prof = structural_profile(
        make_hypergraph(3, [{0, 1, 2}, {2, 3, 4}, {4, 5, 0}, {3, 4, 6}]))
    assert not prof.linear
    assert prof.classification == "other"


def test_profile_disconnected():
    prof = structural_profile(make_hypergraph(3, [{0, 1, 2}, {3, 4, 5}]))
    assert not prof.connected
    assert prof.classification == "other"


def test_power_girth_matches_simple_girth():
    for g in (3, 4, 5):
        h = power_hypergraph(simple_s(g + 2, g), 3)
        assert structural_profile(h).girth == g


@pytest.mark.parametrize("tag,m,g", [
    ("S", 6, 3), ("S", 6, 4), ("T1", 6, None), ("T2", 6, None),
    ("U1", 6, None), ("P", 6, None), ("Q", 6, None), ("O", 6, None),
])
def test_unicyclic_edge_count_identity(tag, m, g):
    for k in (3, 4):
        h = family(FamilySpec(tag=tag, k=k, m=m, g=g))
        assert h.m == m
        assert h.n == m * (k - 1)
        prof = structural_profile(h)
        assert prof.classification == "unicyclic"
        assert prof.connected and prof.linear


def test_hyperstar_edge_count_identity():
    for k in (3, 4):
        for s in (1, 2, 5):
            h = family(FamilySpec(tag="Hyperstar", k=k, m=s))
            assert h.m == (h.n - 1) // (k - 1)
            assert structural_profile(h).classification == "hypertree"


def test_unique_cycle_of_triangle_power():
    h = family(FamilySpec(tag="CyclePower", k=3, m=3, g=3))
    verts, eidx = unique_cycle(h)
    assert len(verts) == 3 and len(eidx) == 3
    assert sorted(eidx) == [0, 1, 2]
    for i in range(3):
        e = set(h.edges[eidx[i]])
        assert verts[i] in e and verts[(i + 1) % 3] in e


def test_unique_cycle_rejects_hypertree():
    with pytest.raises(ValueError, match="unicyclic"):
        unique_cycle(make_hypergraph(3, [{0, 1, 2}]))


def _random_input(rng):
    """A random hypertree, then closing edges that may add cycles or break
    linearity, then maybe a disjoint edge; None on a duplicate edge."""
    k = rng.randint(2, 4)
    edges = [tuple(range(k))]
    n = k
    for _ in range(rng.randint(0, 8)):
        edges.append((rng.randrange(n), *range(n, n + k - 1)))
        n += k - 1
    for _ in range(rng.choice((0, 1, 1, 1, 2))):
        c = rng.randint(2, k)
        edges.append((*rng.sample(range(n), c), *range(n, n + k - c)))
        n += k - c
    if rng.random() < 0.2:
        edges.append(tuple(range(n, n + k)))
    if len({frozenset(e) for e in edges}) < len(edges):
        return None
    return make_hypergraph(k, edges)


def test_profile_and_cycle_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(17)
    seen = set()
    for _ in range(1500):
        h = _random_input(rng)
        if h is None:
            continue
        g = nx.Graph()
        g.add_edges_from((("v", v), ("e", j)) for j, e in enumerate(h.edges) for v in e)
        connected = nx.is_connected(g)
        cycles = nx.cycle_basis(g)
        linear = all(len(set(a) & set(b)) <= 1 for a, b in combinations(h.edges, 2))
        expected = "other"
        if connected and not cycles:
            expected = "hypertree"
        elif connected and len(cycles) == 1 and linear:
            expected = "unicyclic"
        prof = structural_profile(h)
        assert (prof.connected, prof.linear, prof.classification) == (connected, linear, expected)
        seen.add((h.k, expected, connected, linear))
        if expected != "unicyclic":
            assert prof.girth is None
            with pytest.raises(ValueError):
                unique_cycle(h)
            continue
        assert prof.girth == len(cycles[0]) // 2
        verts, eidx = unique_cycle(h)
        walk = [x for pair in zip(verts, eidx) for x in (("v", pair[0]), ("e", pair[1]))]
        assert len(walk) == 2 * prof.girth and set(walk) == set(cycles[0])
        assert all(g.has_edge(a, b) for a, b in zip(walk, walk[1:] + walk[:1]))
        assert verts[0] == min(verts) and eidx[0] < eidx[-1]
    for k in (2, 3, 4):
        assert {(k, c, True, True) for c in ("hypertree", "unicyclic", "other")} <= seen
    assert any(not lin for *_, lin in seen) and any(not con for _, _, con, _ in seen)


def test_json_round_trip():
    h = family(FamilySpec(tag="Q", k=3, m=6))
    text = hypergraph_to_json(h)
    assert hypergraph_from_json(text) == h
    assert hypergraph_to_json(hypergraph_from_json(text)) == text


def test_text_round_trip():
    h = family(FamilySpec(tag="P", k=4, m=5))
    text = hypergraph_to_text(h)
    assert hypergraph_from_text(text) == h
    assert hypergraph_to_text(hypergraph_from_text(text)) == text


@pytest.mark.parametrize(
    "text,token",
    [
        ("3 2\n0 1 2\n2 3 0_4\n", "0_4"),
        ("+3 2\n0 1 2\n2 3 4\n", "+3"),
        ("3 +2\n0 1 2\n2 3 4\n", "+2"),
        ("3 2\n0 1 2\n2 3 -4\n", "-4"),
        ("3 2\n0 1 2\n2 3 4.0\n", "4.0"),
        ("3 2\n0 1 2\n2 3 \uff14\n", "\uff14"),  # fullwidth digit four
        ("3 2\n0 1 \u00b2\n2 3 4\n", "\u00b2"),  # superscript two: isdigit(), not int()
    ],
)
def test_text_reader_accepts_only_ascii_decimal_digits(text, token):
    with pytest.raises(ValueError, match=re.escape(f"{token!r} is not a decimal integer")):
        hypergraph_from_text(text)


def test_text_reader_accepts_padded_numbers():
    text = "03 2\n0 1 2\n2 3 04\n"
    assert hypergraph_from_text(text) == hypergraph_from_text("3 2\n0 1 2\n2 3 4\n")


def test_file_round_trip(tmp_path):
    h = family(FamilySpec(tag="O", k=3, m=5))
    for name in ("h.json", "h.txt"):
        path = tmp_path / name
        save_hypergraph(h, str(path))
        assert load_hypergraph(str(path)) == h
        before = path.read_bytes()
        save_hypergraph(load_hypergraph(str(path)), str(path))
        assert path.read_bytes() == before


def test_numpy_integer_ids_save_as_json(tmp_path):
    h = Hypergraph(k=3, n=5, edges=tuple(tuple(np.arange(3) + s) for s in (0, 2)))
    path = tmp_path / "h.json"
    save_hypergraph(h, str(path))
    assert path.read_text() == '{"k": 3, "n": 5, "edges": [[0, 1, 2], [2, 3, 4]]}\n'
    assert load_hypergraph(str(path)) == h


def test_json_vertex_count_mismatch_rejected():
    with pytest.raises(ValueError, match="vertex count"):
        hypergraph_from_json('{"k": 3, "n": 7, "edges": [[0, 1, 2]]}')


def test_constructor_names_a_duplicate_edge():
    with pytest.raises(ValueError, match=re.escape("duplicate edge (0, 1, 2)")):
        Hypergraph(k=3, n=5, edges=((0, 1, 2), (0, 1, 2), (2, 3, 4)))


@contextmanager
def address_space_cap(extra=1 << 30):
    """Let this process map at most `extra` more bytes inside the block, so
    an id check that builds set(range(n)) for a huge n raises MemoryError
    instead of exhausting the machine."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:  # Linux: first field is pages mapped
        mapped = int(fh.read().split()[0]) * resource.getpagesize()
    cap = mapped + extra if hard == resource.RLIM_INFINITY else min(mapped + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_json_huge_vertex_count_rejected_without_a_range():
    with address_space_cap(), pytest.raises(ValueError, match="vertex count"):
        hypergraph_from_json('{"k": 3, "n": 100000000000, "edges": [[0, 1, 2]]}')


def test_text_huge_id_rejected_without_a_range():
    with address_space_cap(), pytest.raises(ValueError, match="ids from 0 to 99999999999999"):
        hypergraph_from_text("3 1\n0 1 99999999999999\n")


def test_json_nested_too_deep_is_malformed():
    text = '{"k": 3, "n": 3, "edges": ' + "[" * 100000 + "]" * 100000 + "}"
    with pytest.raises(ValueError, match="malformed hypergraph JSON"):
        hypergraph_from_json(text)


def test_json_missing_key_is_named():
    with pytest.raises(ValueError, match=re.escape("malformed hypergraph JSON: missing key 'n'")):
        hypergraph_from_json('{"k": 3, "edges": [[0, 1, 2]]}')


def test_text_reader_shortens_a_long_token():
    token = "[" * 100000 + "]" * 100000
    with pytest.raises(ValueError) as exc:
        hypergraph_from_text(f"3 1\n0 1 {token}\n")
    assert str(exc.value) == f"{token[:20]!r}… (200000 characters) is not a decimal integer"
    # the longest token still shown whole, and the shortest one cut
    for bad, shown in (("x" * 20, repr("x" * 20)), ("x" * 21, f"{'x' * 20!r}… (21 characters)")):
        with pytest.raises(ValueError, match=re.escape(f"{shown} is not a decimal integer")):
            hypergraph_from_text(f"3 1\n0 1 {bad}\n")


def test_json_accepts_unsorted_edges_and_keeps_ids():
    h = hypergraph_from_json('{"k": 3, "n": 5, "edges": [[4, 3, 2], [2, 0, 1]]}')
    assert h.edges == ((0, 1, 2), (2, 3, 4))


def test_power_base_reconstructs_power_families():
    for tag, m, g in [("S", 6, 3), ("T1", 6, None), ("U1", 6, None),
                      ("Hyperstar", 4, None), ("CyclePower", 5, 5)]:
        h = family(FamilySpec(tag="S", k=3, m=6, g=3)) if tag == "S" else family(
            FamilySpec(tag=tag, k=3, m=m, g=g))
        base = power_base(h)
        assert base is not None
        assert base.n + (h.k - 2) * h.m == h.n
        assert len(base.edges) == h.m
        # the round trip preserves the spectral radius
        rho_h = spectral_radius_tensor(h).rho
        rho_b = spectral_radius_tensor(base).rho ** (2.0 / h.k)
        assert abs(rho_h - rho_b) < 1e-8


def test_power_base_rejects_non_powers():
    for tag in ("P", "Q", "O"):
        assert power_base(family(FamilySpec(tag=tag, k=3, m=5))) is None
    assert power_base(make_hypergraph(3, [{0, 1, 2}, {1, 2, 3}, {0, 3, 4}])) is None


def test_simple_graph_validation():
    with pytest.raises(ValueError, match="does not have 2 distinct vertices"):
        make_hypergraph(2, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate edge"):
        make_hypergraph(2, [(0, 1), (1, 0)])
