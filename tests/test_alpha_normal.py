"""Scalar functions, the general alpha route, and the closed-form incidence
labelings."""

import numpy as np
import pytest
from helpers import bisect_alpha, random_unicyclic, solve_alpha_O, solve_alpha_P

from hyperspec import (
    FamilySpec,
    WeightedIncidence,
    build_B_O,
    build_B_P,
    build_B_Q_supernormal,
    check_normal,
    cycle_consistency,
    enumerate_linear_unicyclic,
    f_O,
    f_P,
    family,
    family_q_with_roles,
    gamma,
    make_hypergraph,
    phi,
    power_hypergraph,
    psi,
    rho_from_alpha,
    solve_alpha,
    spectral_radii_tensor,
    spectral_radius_alpha,
    spectral_radius_tensor,
    unique_cycle,
    weights_to_text,
)
from hyperspec import alpha_normal, hypergraph

ALPHA_O_R1 = 0.20512274384927082  # root of alpha = (1 - 2*alpha)^3


# --- scalar functions ---------------------------------------------------------

def test_f_p_hand_values():
    assert f_P(0.2, 1) == pytest.approx(1.0, abs=1e-15)
    assert f_P(0.2, 2) == pytest.approx(1.2, abs=1e-15)
    assert f_P(1e-9, 1) < 1e-8


def test_f_p_domain():
    with pytest.raises(ValueError):
        f_P(0.0, 1)
    with pytest.raises(ValueError):
        f_P(0.5, 1)
    with pytest.raises(ValueError):
        f_P(0.3, -1)


def test_f_o_domain():
    with pytest.raises(ValueError):
        f_O(1.0 / 3.0, 1)
    with pytest.raises(ValueError):
        f_O(0.0, 1)
    assert f_O(1e-9, 1) < 1e-8


def test_f_p_strictly_increasing_on_grid():
    lo, hi = 1e-6, 0.5 - 1e-6
    pts = [lo + (hi - lo) * i / 9999 for i in range(10000)]
    vals = [f_P(a, 1) for a in pts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_f_o_strictly_increasing_on_grid():
    for r in (1, 3):
        hi = 1.0 / (r + 2)
        pts = [1e-6 + (hi - 2e-6) * i / 9999 for i in range(10000)]
        vals = [f_O(a, r) for a in pts]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_solve_alpha_p_r1_is_one_fifth():
    a0 = solve_alpha_P(1)
    assert a0 == pytest.approx(0.2, abs=1e-13)
    assert abs(f_P(a0, 1) - 1.0) <= 1e-13


def test_solve_alpha_p_bounds():
    for r in range(1, 21):
        a0 = solve_alpha_P(r)
        assert a0 <= 0.2 + 1e-12
        assert a0 < 1.0 / (r + 2)


def test_solve_alpha_o_r1_matches_cubic_oracle():
    # at r=1 the root satisfies alpha = (1 - 2*alpha)^3; solve that directly
    lo, hi = 1e-12, 0.25
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mid - (1.0 - 2.0 * mid) ** 3 < 0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert oracle == pytest.approx(ALPHA_O_R1, abs=1e-15)
    assert solve_alpha_O(1) == pytest.approx(oracle, abs=1e-12)


def test_solve_alpha_o_identity():
    # f_O(a)=1 forces r*a = 1 - a - a/(1-2a)^2
    for r in range(1, 11):
        a1 = solve_alpha_O(r)
        assert r * a1 == pytest.approx(
            1.0 - a1 - a1 / (1.0 - 2.0 * a1) ** 2, abs=1e-10)


def test_solve_alpha_o_domain_bound():
    for r in (1, 3, 10):
        assert solve_alpha_O(r) < 1.0 / (r + 2)


def test_alpha_p_below_alpha_o():
    for r in range(1, 21):
        assert solve_alpha_P(r) < solve_alpha_O(r)


def test_gamma_values():
    assert gamma(0.2) == pytest.approx(4.0 / 7.0, abs=1e-15)
    assert gamma(0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert gamma(1e-12) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        gamma(1.0)


def test_phi_values():
    assert abs(phi(0.2) - 0.12) <= 1e-14
    assert phi(0.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        phi(1.5)


def test_phi_at_solved_alpha_stays_above_three_twentyfifths():
    for r in range(1, 21):
        assert phi(solve_alpha_P(r)) >= 3.0 / 25.0 - 1e-12


def test_psi_values():
    assert psi(0.2) == pytest.approx(0.04, abs=1e-15)
    assert psi(1e-6) > 0.0
    with pytest.raises(ValueError):
        psi(0.5)


def test_psi_sign_equivalence_on_grid():
    for i in range(1, 1001):
        a = 0.5 * i / 1001.0
        lhs = psi(a) > 0.0
        rhs = 1.0 - a - a / (1.0 - 2.0 * a) ** 2 > 0.0
        assert lhs == rhs


def test_rho_from_alpha():
    assert rho_from_alpha(1.0, 4) == pytest.approx(1.0)
    assert rho_from_alpha(0.2, 3) == pytest.approx(5.0 ** (1.0 / 3.0), abs=1e-15)
    assert rho_from_alpha(0.25, 2) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ValueError):
        rho_from_alpha(0.0, 3)


# --- labelings ----------------------------------------------------------------

def test_build_p_normal_at_solved_alpha():
    rep = check_normal(build_B_P(5, 3, 0.2), 0.2)
    assert rep.mode == "normal"
    assert rep.cycle_product == pytest.approx(1.0, abs=1e-12)
    a2 = solve_alpha_P(2)
    rep6 = check_normal(build_B_P(6, 3, a2), a2)
    assert rep6.mode == "normal"


def test_build_p_wrong_alpha_is_strictly_supernormal():
    # every row but the hub is exactly 1 and every product is exactly alpha,
    # so an overweight hub row makes the labeling strictly supernormal
    rep = check_normal(build_B_P(5, 3, 0.4), 0.4)
    assert rep.mode == "supernormal-strict"
    assert max(rep.row_sums) > 1.0 + 1e-6
    assert sorted(rep.row_sums)[:-1] == pytest.approx([1.0] * 9, abs=1e-12)


def test_build_p_subnormal_alpha_is_neither():
    # alpha below the root starves the hub row
    rep = check_normal(build_B_P(5, 3, 0.1), 0.1)
    assert rep.mode == "neither"
    assert min(rep.row_sums) < 1.0 - 1e-6


def test_build_o_normal_and_consistent():
    a1 = solve_alpha_O(1)
    w = build_B_O(5, 3, a1)
    assert check_normal(w, a1).mode == "normal"
    assert cycle_consistency(w) == pytest.approx(1.0, abs=1e-12)


def test_build_o_r0_cross_check():
    a = solve_alpha_O(0)
    w = build_B_O(4, 3, a)
    assert check_normal(w, a).mode == "normal"
    rho = spectral_radius_tensor(family(FamilySpec(tag="O", k=3, m=4))).rho
    assert abs(rho - rho_from_alpha(a, 3)) <= 1e-8


def test_build_q_supernormal_certificate():
    w = build_B_Q_supernormal(5, 3, 0.2)
    rep = check_normal(w, 0.2)
    assert rep.mode == "supernormal-strict"
    assert cycle_consistency(w) == pytest.approx(1.0, abs=1e-12)
    h, roles = family_q_with_roles(3, 5)
    hub_row = rep.row_sums[roles.v2]
    assert hub_row == pytest.approx(1.0125, abs=1e-12)
    # hub slack in closed form
    a = 0.2
    expected = 1.0 + a * a / ((1 - a) ** 2 * (1 - 2 * a)) * phi(a)
    assert hub_row == pytest.approx(expected, abs=1e-12)
    # all other rows tight, all products tight
    others = [rep.row_sums[v] for v in range(h.n) if v != roles.v2]
    assert others == pytest.approx([1.0] * (h.n - 1), abs=1e-12)
    assert list(rep.edge_products) == pytest.approx([0.2] * h.m, abs=1e-12)


def test_q_certificate_places_q_above_p():
    bound = rho_from_alpha(solve_alpha_P(1), 3)
    rho_q = spectral_radius_tensor(family(FamilySpec(tag="Q", k=3, m=5))).rho
    assert rho_q > bound + 1e-6


@pytest.mark.parametrize("k", range(3, 9))
def test_q_slack_certificate_is_strict_across_the_verify_domain(k):
    """The paper's certificate of rho(Q_m) > rho(P_m): Q's slack labeling at
    P's exact alpha is strictly supernormal wherever verify runs.  verify's
    Q-above-alpha-bound claim compares radii, so this reads the labeling."""
    for m in range(5, 17):
        alpha = solve_alpha(family(FamilySpec(tag="P", k=k, m=m)))[0]
        report = check_normal(build_B_Q_supernormal(m, k, alpha), alpha)
        assert report.mode == "supernormal-strict", (k, m)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("m", [5, 7, 9])
def test_certification_p_and_o(k, m):
    for tag, solver in (("P", solve_alpha_P), ("O", solve_alpha_O)):
        alpha = solver(m - 4)
        certified = rho_from_alpha(alpha, k)
        iterated = spectral_radius_tensor(family(FamilySpec(tag=tag, k=k, m=m))).rho
        assert abs(certified - iterated) <= 1e-8


def test_build_domain_errors():
    with pytest.raises(ValueError):
        build_B_P(4, 3, 0.2)
    with pytest.raises(ValueError):
        build_B_P(5, 3, 0.6)
    with pytest.raises(ValueError):
        build_B_O(5, 3, 0.4)  # needs alpha < 1/3 at r=1
    with pytest.raises(ValueError):
        build_B_Q_supernormal(5, 3, 0.3)


def test_q_builder_refuses_alpha_whose_cycle_weight_rounds_to_one():
    """Below alpha of about 1e-32, gamma(alpha) rounds to 1.0 and the cycle
    weight 1 - gamma would be 0: a ValueError, not a ZeroDivisionError."""
    assert gamma(1e-40) == 1.0 and gamma(3e-32) < 1.0
    build_B_Q_supernormal(5, 3, 3e-32)
    with pytest.raises(ValueError, match="too small"):
        build_B_Q_supernormal(5, 3, 1e-40)


@pytest.mark.parametrize("build,m,message", [
    (build_B_P, 4, "P needs m >= 5"),
    (build_B_O, 2, "O needs m >= 4"),  # its alpha bound would divide by m - 2 = 0
    (build_B_Q_supernormal, 4, "Q needs m >= 5"),
])
def test_build_checks_m_as_the_family_does(build, m, message):
    with pytest.raises(ValueError, match=message):
        build(m, 3, 0.2)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("tag,solver,f", [("P", solve_alpha_P, f_P), ("O", solve_alpha_O, f_O)])
def test_spectral_radius_alpha_record(k, tag, solver, f):
    for m in (5, 7, 9):
        alpha = solver(m - 4)
        h = family(FamilySpec(tag, k, m))
        lo, hi = solve_alpha(h)
        res = spectral_radius_alpha(h)
        assert lo == alpha  # the bracket does not depend on k
        assert lo < hi and 0.5 * (lo + hi) in (lo, hi)
        assert abs(f(alpha, m - 4) - 1.0) <= 1.2e-14
        assert res.rho == rho_from_alpha(lo, k)
        assert res.residual == rho_from_alpha(lo, k) - rho_from_alpha(hi, k)
        assert (res.perron, res.iterations, res.method) == (None, 0, "alpha-normal")


def test_spectral_radius_alpha_domain():
    for edges in (
        [[0, 1, 2], [2, 3, 4]],  # a hypertree
        [[0, 1, 2], [3, 4, 5]],  # disconnected
        [[0, 1, 2], [0, 2, 6], [2, 3, 4], [4, 5, 6]],  # two cycles
        [[0, 1, 2], [0, 1, 3]],  # one cycle, through two edges sharing two vertices
    ):
        h = make_hypergraph(3, edges)
        for route in (solve_alpha, spectral_radius_alpha):
            with pytest.raises(ValueError, match="connected linear unicyclic"):
                route(h)


def test_alpha_route_reads_its_domain_off_the_peel(monkeypatch):
    """Connected, cycle rank 1 and girth >= 3 come from the cached reading:
    no route builds a structural profile (and its O(m k^2) pair set) to
    learn that the input is linear unicyclic."""
    def no_profile(h):
        raise AssertionError("built a structural profile")

    monkeypatch.setattr(hypergraph, "structural_profile", no_profile)
    monkeypatch.setattr(alpha_normal, "structural_profile", no_profile, raising=False)
    h = family(FamilySpec("P", 3, 6))
    lo, hi = solve_alpha(h)
    assert 0 < lo < hi
    assert spectral_radius_alpha(h).rho == rho_from_alpha(lo, 3)
    assert len(unique_cycle(h)[1]) == 3
    assert check_normal(build_B_P(6, 3, lo), lo).cycle_product == pytest.approx(1.0, abs=1e-12)


# --- the general alpha route against the tensor route ---------------------------

def assert_alpha_matches_tensor(hs: list, rel: float = 1e-11) -> None:
    for h, res in zip(hs, spectral_radii_tensor(hs)):
        assert spectral_radius_alpha(h).rho == pytest.approx(res.rho, rel=rel), h


def test_alpha_route_on_every_class():
    # 926 classes: every k = 3..8 with m <= 6, and k = 3 with m = 8
    for k in range(3, 9):
        for m in range(3, 7):
            assert_alpha_matches_tensor(enumerate_linear_unicyclic(k, m))
    assert_alpha_matches_tensor(enumerate_linear_unicyclic(3, 8))


def test_alpha_route_on_random_unicyclic():
    rng = np.random.default_rng(2016)
    for _ in range(30):
        k, m = int(rng.integers(3, 9)), int(rng.integers(30, 61))
        assert_alpha_matches_tensor([random_unicyclic(k, m, rng)])


def test_alpha_route_on_o_26():
    # f_O is so steep near its pole that a bisection on f_O = 1 missed its
    # tolerance here; the feasibility search has no such tolerance
    h = family(FamilySpec("O", 3, 26))
    lo, hi = solve_alpha(h)
    assert hi - lo <= 1e-17
    assert_alpha_matches_tensor([h])


@pytest.mark.parametrize("g", [600, 1000])
def test_alpha_route_on_long_cycles(g):
    # a pure cycle's entries of M shrink like 2^-g: unscaled, they underflowed
    # and the search stopped short of 1/4
    h = family(FamilySpec("CyclePower", 3, g, g))
    assert spectral_radius_alpha(h).rho == pytest.approx(4 ** (1 / 3), rel=1e-11)


def test_alpha_route_on_cycles_with_trees():
    # the repelling fixed point's orbit, followed forward, once ran off
    # to negative values here at g >= 60
    rng = np.random.default_rng(7)
    hs = [random_unicyclic(k, 3 * g // 2, rng, g) for k, g in ((3, 40), (3, 60), (4, 60), (3, 80))]
    assert_alpha_matches_tensor(hs)


def test_alpha_route_on_a_long_cycle_with_pendants():
    # the tensor route does not converge on so long a cycle; the input is the
    # 3rd power of a simple graph, so rho is the graph's rho^(2/3)
    rng = np.random.default_rng(600)
    edges = [(i, (i + 1) % 600) for i in range(600)]
    edges += [(int(rng.integers(600 + i)), 600 + i) for i in range(60)]
    adjacency = np.zeros((660, 660))
    for u, v in edges:
        adjacency[u, v] = adjacency[v, u] = 1.0
    expected = np.linalg.eigvalsh(adjacency)[-1] ** (2 / 3)
    h = power_hypergraph(make_hypergraph(2, edges), 3)
    assert spectral_radius_alpha(h).rho == pytest.approx(expected, rel=1e-11)


def test_alpha_search_evaluation_count(monkeypatch):
    """Over the 1 044 family members verify reads at k = 3..8, m = 5..16,
    false position takes about 15 feasibility tests per solve, none more
    than 23; bisection took 55.  Without the bound on the discriminant, the
    start at min(1/4, 1/Delta) or the step off the ends, the mean was above
    17."""
    hs = []
    for k in range(3, 9):
        for m in range(5, 17):
            hs += [family(FamilySpec("S", k, m, g)) for g in range(3, m + 1)]
            hs += [family(FamilySpec(tag, k, m)) for tag in ("T1", "O", "T2", "U1", "P", "Q")]
    assert len(hs) == 1044
    counts, feasible = [], alpha_normal._feasible

    def counted(*args):
        counts[-1] += 1
        return feasible(*args)

    monkeypatch.setattr(alpha_normal, "_feasible", counted)
    for h in hs:
        counts.append(0)
        solve_alpha(h)
    assert sum(counts) / len(counts) <= 17, sum(counts) / len(counts)
    assert max(counts) <= 32, max(counts)


def test_alpha_search_evaluation_count_on_pure_cycles(monkeypatch):
    """On the pure cycles z is exactly 0 at alpha = 1/4; one step to the
    float below that end settles g = 3 and 4 in 2 feasibility tests, where
    midpoints alone took 54.  No g up to 11 takes more than 5 at any k."""
    counts, feasible = [], alpha_normal._feasible

    def counted(*args):
        counts[-1] += 1
        return feasible(*args)

    monkeypatch.setattr(alpha_normal, "_feasible", counted)
    for k in range(3, 9):
        for g in range(3, 12):
            counts.append(0)
            solve_alpha(family(FamilySpec("CyclePower", k, g, g)))
            assert counts[-1] <= 5, (k, g, counts[-1])


@pytest.mark.parametrize("g", range(3, 9))
def test_alpha_search_on_pure_cycles_matches_bisection(g):
    # alpha = 1/4 exactly, where the discriminant vanishes: a start that
    # rounds onto the root must not leave the search short of it
    h = family(FamilySpec("CyclePower", 3, g, g))
    assert solve_alpha(h) == bisect_alpha(h)


def test_alpha_route_at_k_2():
    # a triangle is 2-regular: rho = 2, alpha = 1/4
    lo, hi = solve_alpha(make_hypergraph(2, [[0, 1], [1, 2], [0, 2]]))
    assert rho_from_alpha(lo, 2) == pytest.approx(2.0, rel=1e-15)
    assert lo <= 0.25 <= hi and hi - lo <= 1e-16


def test_weighted_incidence_validation():
    h = family(FamilySpec(tag="P", k=3, m=5))
    good = build_B_P(5, 3, 0.2)
    broken = dict(good.weights)
    broken.pop(next(iter(broken)))
    with pytest.raises(ValueError, match="missing"):
        WeightedIncidence(hypergraph=h, weights=broken)
    negative = dict(good.weights)
    negative[next(iter(negative))] = -1.0
    with pytest.raises(ValueError, match="positive"):
        WeightedIncidence(hypergraph=h, weights=negative)


def test_cycle_consistency_requires_unicyclic():
    from hyperspec import make_hypergraph

    h = make_hypergraph(3, [{0, 1, 2}])
    w = WeightedIncidence(hypergraph=h, weights={(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0})
    with pytest.raises(ValueError, match="unicyclic"):
        cycle_consistency(w)


def test_cycle_consistency_detects_skew():
    a1 = solve_alpha_O(1)
    w = build_B_O(5, 3, a1)
    verts, eidx = __import__("hyperspec").unique_cycle(w.hypergraph)
    skew = dict(w.weights)
    skew[(verts[1], eidx[0])] *= 2.0
    w2 = WeightedIncidence(hypergraph=w.hypergraph, weights=skew)
    assert cycle_consistency(w2) in (pytest.approx(2.0), pytest.approx(0.5))


def test_symmetric_weights_on_cycle_are_consistent():
    h = family(FamilySpec(tag="CyclePower", k=3, m=3, g=3))
    weights = {}
    for j, e in enumerate(h.edges):
        for v in e:
            weights[(v, j)] = 0.5 if h.degrees[v] > 1 else 1.0
    w = WeightedIncidence(hypergraph=h, weights=weights)
    assert cycle_consistency(w) == pytest.approx(1.0, abs=1e-15)
    rep = check_normal(w, 0.25)
    assert rep.mode == "normal"


def test_single_edge_all_ones_is_normal_at_alpha_one():
    from hyperspec import make_hypergraph

    h = make_hypergraph(3, [{0, 1, 2}])
    w = WeightedIncidence(hypergraph=h, weights={(v, 0): 1.0 for v in range(3)})
    assert check_normal(w, 1.0).mode == "normal"


def test_weights_text_format():
    w = build_B_P(5, 3, 0.2)
    text = weights_to_text(w)
    lines = text.strip().splitlines()
    assert len(lines) == len(w.weights)
    v, j, value = lines[0].split()
    assert (int(v), int(j)) in w.weights
    assert float(value) == pytest.approx(w.weights[(int(v), int(j))])
    assert text == weights_to_text(build_B_P(5, 3, 0.2))


def test_check_normal_requires_connected():
    from hyperspec import make_hypergraph

    h = make_hypergraph(3, [{0, 1, 2}, {3, 4, 5}])
    weights = {(v, j): 1.0 for j, e in enumerate(h.edges) for v in e}
    w = WeightedIncidence(hypergraph=h, weights=weights)
    with pytest.raises(ValueError, match="connected"):
        check_normal(w, 1.0)


def _two_triangles_at_vertex_0(alpha):
    """A k = 2 labeling of two triangles sharing vertex 0 whose rows are 1
    and products alpha, each triangle's cycle ratio away from 1 (a/b)^2."""
    # a + b = 1/2 and (1 - alpha/a)(1 - alpha/b) = alpha fix the product ab
    ab = alpha * (0.5 - alpha) / (1.0 - alpha)
    a = 0.25 + (0.0625 - ab) ** 0.5
    b = 0.5 - a
    at = {(0, 1): (a, alpha / a), (0, 2): (b, alpha / b), (1, 2): (1 - alpha / a, 1 - alpha / b)}
    at.update({(0, 3): at[(0, 1)], (0, 4): at[(0, 2)], (3, 4): at[(1, 2)]})
    h = make_hypergraph(2, at)
    return WeightedIncidence(hypergraph=h, weights={
        (v, j): x for j, e in enumerate(h.edges) for v, x in zip(e, at[e])})


@pytest.mark.parametrize("make_w,alpha", [
    # two edges sharing vertices 0 and 1: every row is 1 and every product
    # 0.21, but the 2-cycle ratio is (0.7/0.3)^2; a "normal" report would
    # certify 0.21^(-1/3) = 1.68239, and the radius is 4^(1/3) = 1.58740
    (lambda: WeightedIncidence(hypergraph=make_hypergraph(3, [(0, 1, 2), (0, 1, 3)]), weights={
        (2, 0): 1.0, (3, 1): 1.0, (0, 0): 0.3, (1, 0): 0.7, (0, 1): 0.7, (1, 1): 0.3}), 0.21),
    # two cycles: "normal" would certify 0.14^(-1/2) = 2.67261 against 2.56155
    (lambda: _two_triangles_at_vertex_0(0.14), 0.14),
], ids=["two-edges-sharing-two-vertices", "two-triangles-k-2"])
def test_check_normal_refuses_cycles_it_does_not_check(make_w, alpha):
    """Lu and Man's theorem needs consistency on every cycle, and check_normal
    reads the cycle only of a linear unicyclic input, so any other input
    with a cycle is refused rather than reported consistent."""
    w = make_w()
    rows = [w.row_sum(v) for v in range(w.hypergraph.n)]
    prods = [w.edge_product(j) for j in range(w.hypergraph.m)]
    assert max(abs(r - 1.0) for r in rows + [p / alpha for p in prods]) <= 1e-12
    with pytest.raises(ValueError, match="hypertree or a linear unicyclic"):
        check_normal(w, alpha)
