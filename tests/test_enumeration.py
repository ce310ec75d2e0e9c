"""Enumeration completeness, determinism, ranking, and the inequality suite."""

import json
import random
from dataclasses import asdict
from pathlib import Path

import pytest
from helpers import brute_isomorphic, relabel

from hyperspec import (
    CapExceededError,
    FamilySpec,
    IterationOptions,
    canonical,
    canonical_form,
    canonicalize,
    enumerate_linear_unicyclic,
    enumeration,
    family,
    make_hypergraph,
    pool_size,
    rank_by_rho,
    spectral,
    structural_profile,
    verify_suite,
)


def test_m3_is_just_the_triangle_power(pool_by_m):
    pool = pool_by_m[3]
    assert len(pool) == 1
    assert canonical_form(pool[0]) == canonical_form(
        family(FamilySpec(tag="CyclePower", k=3, m=3, g=3)))


def test_m4_count_and_members(pool_by_m):
    pool = pool_by_m[4]
    assert len(pool) == 3
    forms = {canonical_form(h) for h in pool}
    assert canonical_form(family(FamilySpec(tag="CyclePower", k=3, m=4, g=4))) in forms
    assert canonical_form(family(FamilySpec(tag="S", k=3, m=4, g=3))) in forms
    assert canonical_form(family(FamilySpec(tag="O", k=3, m=4))) in forms


def test_m4_against_labeled_generation_oracle(pool_by_m):
    """Independent route: grow labeled candidates without any canonical
    machinery and partition them by brute-force isomorphism."""
    c3 = family(FamilySpec(tag="CyclePower", k=3, m=3, g=3))
    c4 = family(FamilySpec(tag="CyclePower", k=3, m=4, g=4))
    candidates = [c4]
    for v in range(c3.n):
        edge = (v, c3.n, c3.n + 1)
        candidates.append(make_hypergraph(3, list(c3.edges) + [edge]))
    classes = []
    for h in candidates:
        if not any(brute_isomorphic(h, rep) for rep in classes):
            classes.append(h)
    assert len(classes) == 3
    # 1:1 match with the enumerated pool
    pool = pool_by_m[4]
    for rep in classes:
        assert sum(1 for h in pool if brute_isomorphic(rep, h)) == 1


def test_m5_count_and_family_membership(pool_by_m):
    pool = pool_by_m[5]
    assert len(pool) == 11
    forms = {canonical_form(h) for h in pool}
    for tag, g in [("S", 3), ("S", 4), ("S", 5), ("T1", None), ("U1", None),
                   ("O", None), ("P", None), ("Q", None)]:
        spec = FamilySpec(tag=tag, k=3, m=5, g=g)
        assert canonical_form(family(spec)) in forms, (tag, g)


def test_m6_family_membership(pool_by_m):
    pool = pool_by_m[6]
    assert len(pool) == 41
    forms = {canonical_form(h) for h in pool}
    for tag, g in [("S", 3), ("S", 4), ("T1", None), ("T2", None), ("U1", None),
                   ("O", None), ("P", None), ("Q", None)]:
        spec = FamilySpec(tag=tag, k=3, m=6, g=g)
        assert canonical_form(family(spec)) in forms, (tag, g)


def test_pool_instances_are_linear_unicyclic(pool_by_m):
    for m, pool in pool_by_m.items():
        for h in pool:
            prof = structural_profile(h)
            assert prof.classification == "unicyclic"
            assert prof.connected and prof.linear
            assert h.m == m
            assert h.n == m * (h.k - 1)
        # pairwise distinct canonical forms
        forms = [canonical_form(h) for h in pool]
        assert len(set(forms)) == len(forms)
        assert forms == sorted(forms)


def test_pool_members_are_marked_canonical(pool_by_m):
    """canonical_form encodes a marked member without a second tree code,
    so the mark must hold: the tree code leaves every member unchanged."""
    for pool in pool_by_m.values():
        for h in pool:
            assert h._form is not None
            assert canonicalize(h).edges == h.edges


@pytest.mark.parametrize(
    "k,m", [(k, m) for k in range(3, 9) for m in range(3, 9)] + [(3, 9)]
)
def test_bead_reading_builds_the_canonical_representative(k, m):
    """Each class comes out of its bead reading as the representative the
    tree code gives any relabeling of it, marked canonical, with no class
    missing or repeated."""
    rng = random.Random(100 * k + m)
    pool = enumerate_linear_unicyclic(k, m)
    assert len(pool) == pool_size(k, m)
    for h in pool:
        perm = list(range(h.n))
        rng.shuffle(perm)
        assert h._form is not None
        assert canonicalize(relabel(h, perm)) == h


def test_enumeration_and_ranking_run_no_tree_code(monkeypatch):
    def no_tree_code(h):
        raise AssertionError("canonicalize ran on an enumerated class")

    # the enumerator imports no canonicalize; the name is set there too, so a
    # later import of it would be caught
    monkeypatch.setattr(enumeration, "canonicalize", no_tree_code, raising=False)
    monkeypatch.setattr(canonical, "canonicalize", no_tree_code)
    pool = enumerate_linear_unicyclic(3, 7)
    assert len(pool) == 148
    assert len(rank_by_rho(pool)) == 148


def test_rank_renders_each_class_once(monkeypatch):
    """Each representative carries the form rendered when it was built, so
    the pool sort and rank_by_rho's canonical ids render nothing again."""
    renders = []
    represent = canonical._represent

    def counted(*args):
        renders.append(args)
        return represent(*args)

    monkeypatch.setattr(canonical, "_represent", counted)
    pool = enumerate_linear_unicyclic(3, 7)
    rank_by_rho(pool)
    assert len(renders) == len(pool) == 148


def test_enumeration_domain_errors():
    with pytest.raises(ValueError, match="fewer than 3"):
        enumerate_linear_unicyclic(3, 2)
    with pytest.raises(ValueError, match="k >= 3"):
        enumerate_linear_unicyclic(2, 4)
    with pytest.raises(CapExceededError, match="allow-large"):
        enumerate_linear_unicyclic(3, 11)  # 28627 classes, above DEFAULT_CAP
    with pytest.raises(RuntimeError, match="cap exceeded"):
        enumerate_linear_unicyclic(3, 5, cap=5)


def test_cap_is_checked_before_any_class_is_built(monkeypatch):
    def no_build(*args):
        raise AssertionError("built classes despite the cap")

    monkeypatch.setattr(enumeration, "_Beads", no_build)
    with pytest.raises(CapExceededError, match="cap exceeded at m=10: 7651 > 7650"):
        enumerate_linear_unicyclic(3, 10, cap=7650)


def test_cap_equal_to_the_pool_size_is_allowed():
    assert len(enumerate_linear_unicyclic(3, 5, cap=11)) == 11


def test_default_cap_admits_every_pool_up_to_m10_and_none_beyond():
    for k in range(3, 13):
        largest = max(pool_size(k, m) for m in range(3, 11))
        assert largest <= enumeration.DEFAULT_CAP < pool_size(k, 11), k


@pytest.mark.parametrize(
    "k,first_m,counts",
    [
        (3, 3, [1, 3, 11, 41, 148, 551, 2048, 7651, 28627]),
        (4, 5, [12, 47, 184, 731, 2909, 11592]),
        (5, 5, [12, 48, 190, 767, 3098, 12533]),
    ],
)
def test_pool_size_pinned_values(k, first_m, counts):
    assert [pool_size(k, first_m + i) for i in range(len(counts))] == counts


def test_pool_size_at_k2_counts_connected_unicyclic_graphs():
    # OEIS A001429, n = m = 3..10; no linear unicyclic class has m < 3
    assert [pool_size(2, m) for m in range(3, 11)] == [1, 2, 5, 13, 33, 89, 240, 657]
    assert pool_size(3, 2) == 0
    with pytest.raises(ValueError, match="k must be >= 2"):
        pool_size(1, 5)


@pytest.mark.parametrize("k", range(3, 9))
def test_constructor_count_matches_pool_size(k):
    for m in range(3, 10 if k == 3 else 9):
        assert len(enumerate_linear_unicyclic(k, m)) == pool_size(k, m), m


def _pendant_growth(k, m):
    """Class sets by the old pendant-growth rule, independent of the bead
    construction: the cycle power of each girth plus one pendant edge at
    every vertex of every class one level down, deduplicated by form."""
    levels, level = {}, []
    for j in range(3, m + 1):
        grown = [family(FamilySpec(tag="CyclePower", k=k, m=j, g=j))]
        for h in level:
            for v in range(h.n):
                pendant = (v, *range(h.n, h.n + k - 1))
                grown.append(make_hypergraph(k, list(h.edges) + [pendant]))
        forms = {canonical_form(h): h for h in grown}
        level = list(forms.values())
        levels[j] = set(forms)
    return levels


@pytest.mark.parametrize("k,m", [(3, 7), (4, 6), (5, 6)])
def test_constructor_matches_pendant_growth(k, m):
    for j, expected in _pendant_growth(k, m).items():
        pool = enumerate_linear_unicyclic(k, j)
        forms = [canonical_form(h) for h in pool]
        assert len(forms) == len(set(forms)), j
        assert set(forms) == expected, j


def test_k4_m5_count():
    pool = enumerate_linear_unicyclic(4, 5)
    assert len(pool) == 12
    for h in pool:
        assert structural_profile(h).classification == "unicyclic"


def test_k4_m6_count():
    assert len(enumerate_linear_unicyclic(4, 6)) == 47


def test_rank_top_two_at_m5(pool_by_m):
    entries = rank_by_rho(pool_by_m[5])
    s53 = canonical_form(family(FamilySpec(tag="S", k=3, m=5, g=3))).decode()
    t15 = canonical_form(family(FamilySpec(tag="T1", k=3, m=5))).decode()
    assert entries[0].canonical_id == s53
    assert entries[1].canonical_id == t15
    assert entries[0].rho - entries[1].rho > 1e-6
    assert entries[1].rho - entries[2].rho > 1e-6
    assert not entries[0].tied


def test_rank_canonicalizes_arbitrary_inputs(pool_by_m):
    rng = random.Random(5)
    relabeled = []
    for h in pool_by_m[5]:
        perm = list(range(h.n))
        rng.shuffle(perm)
        relabeled.append(relabel(h, perm))
    ids = sorted(e.canonical_id for e in rank_by_rho(relabeled))
    assert ids == sorted(canonical_form(h).decode() for h in pool_by_m[5])


def test_rank_marks_exact_ties():
    h = family(FamilySpec(tag="CyclePower", k=3, m=3, g=3))
    entries = rank_by_rho([h, h])
    assert [e.rank for e in entries] == [1, 1]
    assert all(e.tied for e in entries)


def test_strict_order_on_family_values(rho_of):
    """Strict order among the named families, using only the pairs the
    ordering argument actually establishes: S > T1 > Q > max(U1, P) and
    P > O > S(m,4).  The U1-P pair is deliberately not asserted: it flips
    direction at m = 8."""
    for m in range(5, 7):
        val = {
            "S3": rho_of(family(FamilySpec(tag="S", k=3, m=m, g=3))).rho,
            "S4": rho_of(family(FamilySpec(tag="S", k=3, m=m, g=4))).rho,
            "T1": rho_of(family(FamilySpec(tag="T1", k=3, m=m))).rho,
            "U1": rho_of(family(FamilySpec(tag="U1", k=3, m=m))).rho,
            "P": rho_of(family(FamilySpec(tag="P", k=3, m=m))).rho,
            "Q": rho_of(family(FamilySpec(tag="Q", k=3, m=m))).rho,
            "O": rho_of(family(FamilySpec(tag="O", k=3, m=m))).rho,
        }
        for hi, lo in [("S3", "T1"), ("T1", "Q"), ("Q", "U1"), ("Q", "P"),
                       ("P", "O"), ("O", "S4")]:
            assert val[hi] - val[lo] > 1e-6, (m, hi, lo)


def test_verify_suite_passes_at_small_m():
    reports = verify_suite(3, 5, 6)
    by_claim = {r.claim: r for r in reports}
    assert by_claim["Q<T1"].verdict == "pass"
    assert by_claim["P<Q"].verdict == "pass"
    assert by_claim["O<P"].verdict == "pass"
    assert by_claim["S4<O"].verdict == "pass"
    assert by_claim["U1<Q"].verdict == "pass"
    assert by_claim["S-girth-monotone"].verdict == "pass"
    assert by_claim["cross-method"].verdict == "pass"
    # domain gating: these need m >= 8
    assert by_claim["T2<U1"].verdict == "not-applicable"
    assert by_claim["Q-third-in-family-pool"].verdict == "not-applicable"


def test_verify_suite_marks_na_below_domain():
    reports = verify_suite(3, 4, 4)
    by_claim = {r.claim: r for r in reports}
    assert by_claim["S4<O"].verdict == "pass"
    assert all(i.status == "na" for i in by_claim["P<Q"].instances)
    assert by_claim["P<Q"].verdict == "not-applicable"


@pytest.mark.parametrize("k,m_lo,m_hi", [(2, 1, 3), (-5, 3, 3), (2, 6, 5)])
def test_verify_suite_rejects_k_below_3_before_anything_else(k, m_lo, m_hi):
    # below every claim's domain no family member is built to check k, and
    # k is checked before the m range
    with pytest.raises(ValueError, match="k >= 3"):
        verify_suite(k, m_lo, m_hi)


def test_verify_suite_rejects_empty_range():
    with pytest.raises(ValueError, match="empty"):
        verify_suite(3, 6, 5)


def test_verify_report_serialization():
    reports = verify_suite(3, 5, 5, IterationOptions(tolerance=1e-10))
    d = asdict(reports[0])
    assert d["claim"] and d["verdict"] in ("pass", "fail", "not-applicable")
    assert all({"k", "m", "gap", "status"} <= set(i) for i in d["instances"])


@pytest.mark.parametrize("k", [3, 4])
def test_verify_suite_matches_pinned_instances(k):
    """Every claim, verdict and instance of `verify --k K --m 1..9` against
    the recorded output: order, labels, "na" rows and statuses exactly, the
    floats to a relative 1e-12 (pytest.approx keeps its 1e-12 absolute floor
    for the cross-method differences, which are rounding noise)."""
    data = Path(__file__).parent / "data" / f"verify_k{k}_m1_9.json"
    pinned = json.loads(data.read_text())
    got = [asdict(r) for r in verify_suite(k, 1, 9)]
    assert [(r["claim"], r["description"], r["verdict"]) for r in got] == [
        (r["claim"], r["description"], r["verdict"]) for r in pinned
    ]
    for rep, ref in zip(got, pinned):
        assert len(rep["instances"]) == len(ref["instances"]), rep["claim"]
        for inst, want in zip(rep["instances"], ref["instances"]):
            exact = ("k", "m", "detail", "lhs_label", "rhs_label", "status", "tolerance")
            assert {f: inst[f] for f in exact} == {f: want[f] for f in exact}
            for f in ("lhs", "rhs", "gap"):
                if want[f] is None:
                    assert inst[f] is None
                else:
                    assert inst[f] == pytest.approx(want[f], rel=1e-12), (rep["claim"], f)


def test_verify_suite_solves_in_one_batch_per_shape(monkeypatch):
    """Family members of one m share a shape, so m = 5..12 needs at most 8
    batched iterations, and the second route solves no k = 2 base graph."""
    calls = []
    iterate = spectral._iterate

    def counted(*args, **kwargs):
        calls.append((args[0][0].k, len(args[0])))
        return iterate(*args, **kwargs)

    monkeypatch.setattr(spectral, "_iterate", counted)
    verify_suite(3, 5, 12)
    assert len(calls) <= 8, calls
    assert all(k == 3 for k, _ in calls), calls


def test_third_place_at_m8_by_full_enumeration():
    """Enumerate everything at m=8 and confirm the third-ranked class."""
    pool = enumerate_linear_unicyclic(3, 8)
    entries = rank_by_rho(pool, IterationOptions(tolerance=1e-10))
    s83 = canonical_form(family(FamilySpec(tag="S", k=3, m=8, g=3))).decode()
    t18 = canonical_form(family(FamilySpec(tag="T1", k=3, m=8))).decode()
    q8 = canonical_form(family(FamilySpec(tag="Q", k=3, m=8))).decode()
    assert [e.canonical_id for e in entries[:3]] == [s83, t18, q8]
    assert entries[2].rho - entries[3].rho > 1e-6
