"""Family builders: parameter domains, shapes, and role bookkeeping."""

import hashlib

import pytest

from hyperspec import (
    FAMILY_TAGS,
    FamilySpec,
    canonical_form,
    family,
    family_o_with_roles,
    family_p_with_roles,
    family_q_with_roles,
    simple_family_graph,
    structural_profile,
)


def test_o_5_degree_profile():
    h = family(FamilySpec(tag="O", k=3, m=5))
    assert h.n == 10
    degs = sorted(h.degrees, reverse=True)
    # attachment vertex of degree 3, three cycle vertices of degree 2, six cored
    assert degs == [3, 2, 2, 2, 1, 1, 1, 1, 1, 1]
    _, roles = family_o_with_roles(3, 5)
    assert h.degrees[roles.w] == 3


def test_q_5_degree_profile():
    h, roles = family_q_with_roles(3, 5)
    prof = structural_profile(h)
    assert prof.classification == "unicyclic"
    assert prof.girth == 3
    assert prof.linear
    assert h.degrees[roles.v2] == 3
    assert h.degrees[roles.w] == 2
    assert sorted(h.degrees, reverse=True) == [3, 2, 2, 2, 1, 1, 1, 1, 1, 1]


def test_p_m4_out_of_domain():
    with pytest.raises(ValueError, match="m >= 5"):
        family(FamilySpec(tag="P", k=3, m=4))


def test_q_m4_out_of_domain():
    with pytest.raises(ValueError, match="m >= 5"):
        family(FamilySpec(tag="Q", k=3, m=4))


def test_family_domain_validation():
    with pytest.raises(ValueError, match="k >= 3"):
        FamilySpec(tag="S", k=2, m=5, g=3)
    with pytest.raises(ValueError, match="m >= g"):
        FamilySpec(tag="S", k=3, m=3, g=4)
    with pytest.raises(ValueError, match="girth"):
        FamilySpec(tag="S", k=3, m=5)
    with pytest.raises(ValueError, match="m = g"):
        FamilySpec(tag="CyclePower", k=3, m=5, g=4)
    with pytest.raises(ValueError, match="unknown"):
        FamilySpec(tag="X", k=3, m=5)
    with pytest.raises(ValueError, match="no girth"):
        FamilySpec(tag="Q", k=3, m=5, g=3)


@pytest.mark.parametrize(
    "tag,m,g,message",
    [("S", 5, None, "needs a girth parameter g"), ("CyclePower", 5, 4, "m = g edges"),
     ("CyclePower", 5, None, "needs a girth parameter g"), ("S", 3, 4, "m >= g"),
     ("T2", 4, None, "T2 needs m >= 5"), ("Hyperstar", 3, 3, "no girth"),
     ("Q", 5, None, "not a power family")],
)
def test_simple_family_graph_checks_m_and_g(tag, m, g, message):
    """The base graph takes the m and g its power family takes: no bare
    assert on a missing girth, and no cycle of another length than m."""
    with pytest.raises(ValueError, match=message):
        simple_family_graph(tag, m, g)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("m", [5, 7])
def test_families_are_linear_unicyclic_girth_3(k, m):
    for tag in ("T1", "T2", "U1", "P", "Q", "O"):
        prof = structural_profile(family(FamilySpec(tag=tag, k=k, m=m)))
        assert prof.classification == "unicyclic"
        assert prof.girth == 3
        assert prof.linear and prof.connected


def test_s_family_girth():
    for g in (3, 4, 5):
        prof = structural_profile(family(FamilySpec(tag="S", k=3, m=6, g=g)))
        assert prof.classification == "unicyclic"
        assert prof.girth == g


def test_small_m_coincidences():
    # these shapes collide at small m; the suite's pool claims rely on it
    assert canonical_form(family(FamilySpec(tag="T1", k=3, m=4))) == canonical_form(
        family(FamilySpec(tag="S", k=3, m=4, g=3)))
    assert canonical_form(family(FamilySpec(tag="T2", k=3, m=5))) == canonical_form(
        family(FamilySpec(tag="S", k=3, m=5, g=3)))
    assert canonical_form(family(FamilySpec(tag="T2", k=3, m=6))) == canonical_form(
        family(FamilySpec(tag="T1", k=3, m=6)))
    assert canonical_form(family(FamilySpec(tag="T2", k=3, m=7))) != canonical_form(
        family(FamilySpec(tag="T1", k=3, m=7)))


def test_p_roles_layout():
    h, roles = family_p_with_roles(3, 6)
    # w sits on the cycle edge avoiding the hub; one pendant edge hangs at w
    assert roles.w in h.edges[roles.e3]
    assert roles.v2 not in h.edges[roles.e3]
    assert roles.v2 in h.edges[roles.e1] and roles.v2 in h.edges[roles.e2]
    assert len(roles.pendants_v2) == 2  # r = m - 4
    assert len(roles.pendants_w) == 1
    assert all(roles.v2 in h.edges[j] for j in roles.pendants_v2)
    assert all(roles.w in h.edges[j] for j in roles.pendants_w)


def test_q_roles_layout():
    h, roles = family_q_with_roles(3, 6)
    # w sits on a cycle edge through the hub
    assert roles.w in h.edges[roles.e2]
    assert roles.v2 in h.edges[roles.e2]
    assert h.degrees[roles.v2] == max(h.degrees)
    assert len(roles.pendants_v2) == 2
    assert len(roles.pendants_w) == 1


def test_o_roles_layout():
    h, roles = family_o_with_roles(3, 6)
    assert roles.pendants_v2 == ()
    assert len(roles.pendants_w) == 3  # m - 3 pendant edges at w
    assert roles.w in h.edges[roles.e3]
    assert h.degrees[roles.w] == 4


def test_roles_match_spec_for_all_k():
    for k in (3, 4, 5):
        h, roles = family_q_with_roles(k, 5)
        assert h.n == 5 * (k - 1)
        assert h.degrees[roles.w] == 2


def test_o_attachment_points_are_interchangeable():
    """Attaching the hyperstar at any cored cycle vertex gives the same
    class, for every uniformity."""
    from hyperspec import make_hypergraph, power_hypergraph, simple_cycle

    for k in (3, 4):
        base = power_hypergraph(simple_cycle(3), k)
        cored = [v for v in range(base.n) if base.degrees[v] == 1]
        forms = set()
        for w in cored:
            edges = list(base.edges)
            nxt = base.n
            for _ in range(2):  # two pendant edges -> O_5
                edges.append(tuple(sorted((w, *range(nxt, nxt + k - 1)))))
                nxt += k - 1
            forms.add(canonical_form(make_hypergraph(k, edges)))
        assert len(forms) == 1
        assert forms.pop() == canonical_form(family(FamilySpec(tag="O", k=k, m=5)))


def test_q_pendant_slot_choice_is_interchangeable_for_k4():
    """At k=4 the hub cycle edge has two cored vertices; a pendant edge at
    either one gives the same class."""
    from hyperspec import make_hypergraph, power_hypergraph, simple_s

    base = power_hypergraph(simple_s(4, 3), 4)
    hub_edge = next(e for e in base.edges if 0 in e and 1 in e)
    slots = [v for v in hub_edge if base.degrees[v] == 1]
    assert len(slots) == 2
    forms = set()
    for w in slots:
        edges = list(base.edges) + [tuple(sorted((w, *range(base.n, base.n + 3))))]
        forms.add(canonical_form(make_hypergraph(4, edges)))
    assert len(forms) == 1
    assert forms.pop() == canonical_form(family(FamilySpec(tag="Q", k=4, m=5)))


_LEAST_M = {"Hyperstar": 1, "CyclePower": 3, "S": 3, "T1": 4, "T2": 5, "U1": 5,
            "O": 4, "P": 5, "Q": 5}


def _girths(tag, m):
    """Every girth a member with m edges can take: none outside S and
    CyclePower, g = m for a cycle power, and 3..m for S."""
    if tag == "CyclePower":
        return [m]
    if tag == "S":
        return list(range(3, m + 1))
    return [None]


def _family_serialization() -> str:
    roles_of = {"P": family_p_with_roles, "Q": family_q_with_roles, "O": family_o_with_roles}
    lines = []
    for tag in FAMILY_TAGS:
        for m in range(_LEAST_M[tag], 13):
            for g in _girths(tag, m):
                for k in range(3, 7):
                    lines.append(repr((tag, k, m, g, family(FamilySpec(tag, k, m, g)))))
                    if tag in roles_of:
                        lines.append(repr(roles_of[tag](k, m)[1]))
                if tag not in roles_of:
                    lines.append(repr((tag, m, g, simple_family_graph(tag, m, g))))
    return "\n".join(lines) + "\n"


def test_family_members_and_roles_are_pinned():
    """Every member for k = 3..6 and m up to 12, every simple base graph and
    every CycleRoles, serialized by repr; the digest pins labels and roles
    byte for byte."""
    digest = hashlib.sha256(_family_serialization().encode("ascii")).hexdigest()
    assert digest == "7fcea5d45e994f3eb46591185d9359e784f77b64b5f9caef18c431560e5e3d4a"


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("build", [family_p_with_roles, family_q_with_roles,
                                   family_o_with_roles], ids=["P", "Q", "O"])
def test_cycle_edges_follow_the_triangle_orientation(k, build):
    # the cycle is v1-e1-v2-e2-v3-e3-v1, as CycleRoles states
    for m in (5, 6, 9):
        h, roles = build(k, m)
        assert {roles.v1, roles.v2} <= set(h.edges[roles.e1])
        assert {roles.v2, roles.v3} <= set(h.edges[roles.e2])
        assert {roles.v3, roles.v1} <= set(h.edges[roles.e3])
