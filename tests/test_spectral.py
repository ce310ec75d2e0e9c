"""Tensor power iteration (k = 2 included) against independent oracles."""

import math
import re
from itertools import permutations

import numpy as np
import pytest

from hyperspec import (
    ConvergenceError,
    FamilySpec,
    IterationOptions,
    SpectralResult,
    apply_adjacency,
    enumerate_linear_unicyclic,
    family,
    make_hypergraph,
    rayleigh,
    simple_cycle,
    simple_family_graph,
    simple_s,
    simple_star,
    simple_t2,
    simple_u1,
    spectral_radii_tensor,
    spectral_radius_alpha,
    spectral_radius_power_formula,
    spectral_radius_tensor,
)
from hyperspec import spectral
from hyperspec.spectral import _SHIFT

from helpers import random_unicyclic, reference_log_quotients, reference_product, relabel

RHO_PAW = 2.170086486626034  # root of det(x*I - A) for the triangle-plus-leaf graph


def dense_apply(h, x):
    """Oracle: materialize the full adjacency tensor and contract it."""
    n, k = h.n, h.k
    t = np.zeros((n,) * k)
    w = 1.0 / math.factorial(k - 1)
    for e in h.edges:
        for idx in permutations(e):
            t[idx] = w
    out = t
    for _ in range(k - 1):
        out = np.tensordot(out, np.asarray(x, dtype=float), axes=([out.ndim - 1], [0]))
    return out


def test_apply_single_edge_ones():
    h = make_hypergraph(3, [{0, 1, 2}])
    assert np.allclose(apply_adjacency(h, np.ones(3)), np.ones(3))


@pytest.mark.parametrize("tag,m,g", [("S", 5, 3), ("Q", 5, None), ("O", 6, None)])
def test_apply_all_ones_gives_degrees(tag, m, g):
    h = family(FamilySpec(tag=tag, k=3, m=m, g=g))
    assert np.allclose(apply_adjacency(h, np.ones(h.n)), np.array(h.degrees, dtype=float))


def test_apply_triangle_power_hand_values():
    h = family(FamilySpec(tag="CyclePower", k=3, m=3, g=3))
    assert h.edges == ((0, 1, 3), (0, 2, 4), (1, 2, 5))
    y = apply_adjacency(h, [2.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    assert np.allclose(y, [2.0, 3.0, 3.0, 2.0, 2.0, 1.0])


def test_apply_matches_dense_tensor_oracle():
    rng = np.random.default_rng(42)
    for spec in (FamilySpec(tag="CyclePower", k=3, m=3, g=3),
                 FamilySpec(tag="O", k=3, m=4),
                 FamilySpec(tag="Hyperstar", k=4, m=2)):
        h = family(spec)
        for _ in range(5):
            x = rng.uniform(0.2, 2.0, h.n)
            assert np.allclose(apply_adjacency(h, x), dense_apply(h, x), atol=1e-12)


def test_apply_dimension_mismatch():
    h = make_hypergraph(3, [{0, 1, 2}])
    with pytest.raises(ValueError, match="length"):
        apply_adjacency(h, np.ones(4))


def test_apply_rejects_nan_entry():
    h = make_hypergraph(3, [{0, 1, 2}])
    with pytest.raises(ValueError, match="finite"):
        apply_adjacency(h, [1.0, float("nan"), 1.0])


def test_rayleigh_rejects_nan_entry():
    h = make_hypergraph(3, [{0, 1, 2}])
    with pytest.raises(ValueError, match="finite"):
        rayleigh(h, [float("nan"), 1.0, 1.0])


def test_rayleigh_values():
    single = make_hypergraph(3, [{0, 1, 2}])
    assert rayleigh(single, np.ones(3)) == pytest.approx(3.0)
    c3 = family(FamilySpec(tag="CyclePower", k=3, m=3, g=3))
    assert rayleigh(c3, np.ones(6)) == pytest.approx(9.0)
    assert rayleigh(c3, np.zeros(6)) == 0.0


def test_rayleigh_equals_vector_contraction():
    rng = np.random.default_rng(7)
    h = family(FamilySpec(tag="P", k=3, m=5))
    for _ in range(20):
        x = rng.uniform(0.1, 2.0, h.n)
        lhs = float(x @ apply_adjacency(h, x))
        assert lhs == pytest.approx(rayleigh(h, x), rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_single_edge_rho_is_one(k):
    h = make_hypergraph(k, [tuple(range(k))])
    res = spectral_radius_tensor(h)
    assert res.rho == pytest.approx(1.0, abs=1e-12)
    assert res.method == "tensor-power"


def test_triangle_power_rho():
    h = family(FamilySpec(tag="CyclePower", k=3, m=3, g=3))
    res = spectral_radius_tensor(h)
    assert res.rho == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-12)
    assert all(v > 0 for v in res.perron)
    assert max(res.perron) == pytest.approx(1.0)
    assert res.residual < 1e-12


def test_p5_rho_is_cube_root_of_five():
    h = family(FamilySpec(tag="P", k=3, m=5))
    res = spectral_radius_tensor(h)
    assert abs(res.rho - 5.0 ** (1.0 / 3.0)) < 1e-9


def test_disconnected_rejected():
    h = make_hypergraph(3, [{0, 1, 2}, {3, 4, 5}])
    with pytest.raises(ValueError, match="connected"):
        spectral_radius_tensor(h)


def test_non_convergence_raises():
    h = family(FamilySpec(tag="P", k=3, m=5))
    with pytest.raises(ConvergenceError):
        spectral_radius_tensor(h, IterationOptions(tolerance=1e-12, max_iterations=3))


def test_graph_rho_cycle_and_star():
    assert spectral_radius_tensor(simple_cycle(3)).rho == pytest.approx(2.0, abs=1e-12)
    assert spectral_radius_tensor(simple_star(4)).rho == pytest.approx(2.0, abs=1e-12)


def test_graph_rho_paw_against_determinant_bisection():
    g = simple_s(4, 3)
    a = np.zeros((4, 4))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0

    def det(lam):
        return float(np.linalg.det(lam * np.eye(4) - a))

    lo, hi = 2.0, 3.0
    assert det(lo) < 0 < det(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if det(mid) < 0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert oracle == pytest.approx(RHO_PAW, abs=1e-12)
    assert spectral_radius_tensor(g).rho == pytest.approx(oracle, abs=1e-11)


def test_power_formula_values():
    assert spectral_radius_power_formula(simple_cycle(3), 3).rho == pytest.approx(
        2.0 ** (2.0 / 3.0), abs=1e-12)
    assert spectral_radius_power_formula(simple_star(2), 3).rho == pytest.approx(
        2.0 ** (1.0 / 3.0), abs=1e-12)
    with pytest.raises(ValueError, match="k >= 3"):
        spectral_radius_power_formula(simple_cycle(3), 2)


def test_power_formula_record():
    base = spectral_radius_tensor(simple_s(7, 4))
    assert spectral_radius_power_formula(simple_s(7, 4), 3) == SpectralResult(
        rho=base.rho ** (2.0 / 3), perron=None, residual=base.residual,
        iterations=base.iterations, method="power-formula")


def test_two_pendants_lose_to_extended_leaf_at_m8():
    lhs = spectral_radius_power_formula(simple_t2(8), 3).rho
    rhs = spectral_radius_power_formula(simple_u1(8), 3).rho
    assert lhs < rhs


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("tag,m,g", [
    ("S", 5, 3), ("S", 6, 4), ("T1", 5, None), ("T2", 6, None),
    ("U1", 6, None), ("CyclePower", 4, 4), ("Hyperstar", 3, None),
])
def test_tensor_agrees_with_power_formula(k, tag, m, g):
    h = family(FamilySpec(tag=tag, k=k, m=m, g=g))
    via_tensor = spectral_radius_tensor(h).rho
    via_formula = spectral_radius_power_formula(simple_family_graph(tag, m, g), k).rho
    assert abs(via_tensor - via_formula) <= 1e-8


def _simple_family_params(max_m):
    for m in range(1, max_m + 1):
        yield "Hyperstar", m, None
        if m >= 3:
            yield "CyclePower", m, m
            yield from (("S", m, g) for g in range(3, m + 1))
        if m >= 4:
            yield "T1", m, None
        if m >= 5:
            yield from (("T2", m, None), ("U1", m, None))


@pytest.mark.parametrize("k", [3, 4])
def test_power_formula_matches_dense_eigvalsh(k):
    """The power formula against numpy's symmetric eigensolver on the dense
    adjacency matrix, a route that shares no code with the tensor kernel."""
    for tag, m, g in _simple_family_params(12):
        graph = simple_family_graph(tag, m, g)
        a = np.zeros((graph.n, graph.n))
        for u, v in graph.edges:
            a[u, v] = a[v, u] = 1.0
        oracle = np.linalg.eigvalsh(a)[-1] ** (2.0 / k)
        via_formula = spectral_radius_power_formula(graph, k).rho
        assert abs(via_formula - oracle) <= 1e-11, (tag, m, g)
        if tag == "Hyperstar":
            assert abs(via_formula - m ** (1.0 / k)) <= 1e-11, m


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_tensor_hyperstar_matches_closed_form(k):
    """rho(hyperstar) = m^(1/k) (Cooper & Dutle 2012) on the tensor route:
    the midpoint of an enclosure under 1e-12 wide lies within half of it,
    plus the rounding of the closed form.  k = 3, m = 300 sits near the edge
    of the momentum gate and takes about 300 sweeps."""
    for m in (1, 2, 10, 100, 300, 1000, 2000, 4000):
        rho = spectral_radius_tensor(family(FamilySpec("Hyperstar", k, m))).rho
        assert abs(rho - m ** (1.0 / k)) <= 0.5e-12 + 1e-14, m


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: the bincount sum at a 15 000-edge hub rounds, and the "
    "iteration retires after 40 sweeps with rho 2.7e-12 below m^(1/3)"))
def test_tensor_large_hyperstar_within_claimed_enclosure():
    rho = spectral_radius_tensor(family(FamilySpec("Hyperstar", 3, 15000))).rho
    assert abs(rho - 15000 ** (1.0 / 3)) <= 0.5e-12 + 1e-14


def test_power_formula_rejects_non_simple_graph():
    with pytest.raises(ValueError, match="k = 2"):
        spectral_radius_power_formula(family(FamilySpec(tag="S", k=3, m=4, g=3)), 3)


def test_rho_within_degree_bounds():
    for tag in ("P", "Q", "O", "U1"):
        h = family(FamilySpec(tag=tag, k=3, m=6))
        rho = spectral_radius_tensor(h).rho
        assert min(h.degrees) - 1e-9 <= rho <= max(h.degrees) + 1e-9


def test_iteration_options_validation():
    with pytest.raises(ValueError):
        IterationOptions(tolerance=0.0)
    with pytest.raises(ValueError):
        IterationOptions(max_iterations=0)


def test_graph_disconnected_rejected():
    g = make_hypergraph(2, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected"):
        spectral_radius_tensor(g)


def test_rayleigh_dimension_mismatch():
    h = make_hypergraph(3, [{0, 1, 2}])
    with pytest.raises(ValueError, match="length"):
        rayleigh(h, np.ones(5))


def serial_reference(h, opts=IterationOptions()):
    """The one-graph iteration loop, kept as the reference that the batched
    kernel must match exactly: the same operations on one graph at a time.
    The iterate is held as u = log x; each sweep takes the quotients
    q = A x^{k-1} / x^{k-1} at the momentum point v = u + c (u - u_prev),
    c = t/(t+3), from v alone, steps to v + log1p(q)/(k-1), and sets t = 0
    where the enclosure widened or hi - s is too large for momentum to be
    stable.  It stops where the enclosure at v and, unless x^{k-1}
    underflows, the one at the returned x = exp(v) are both narrower than
    the tolerance."""
    power = h.k - 1
    gain = 3.0 / power - 1.0
    hi_max = _SHIFT * (1.0 + 4.0 / gain) if gain > 0 else math.inf
    u = u_prev = np.zeros(h.n)
    t, width = 0.0, math.inf
    for it in range(1, opts.max_iterations + 1):
        v = (u - u_prev) * (t / (t + 3.0)) + u if t else u
        q = reference_log_quotients(h, v)
        lo, hi = float(q.min()) + _SHIFT, float(q.max()) + _SHIFT
        if hi - lo < opts.tolerance:
            x = np.exp(v - v.max())
            xk = x ** power
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = (reference_product(h, x) + _SHIFT * xk) / xk
            if ratios.max() - ratios.min() < opts.tolerance or xk.min() < np.finfo(float).tiny:
                rho = 0.5 * (lo + hi) - _SHIFT
                return SpectralResult(
                    rho=rho,
                    perron=tuple(float(a) for a in x),
                    residual=float(np.abs(q * xk - rho * xk).max()),
                    iterations=it,
                    method="tensor-power",
                )
        restart = hi - lo > width or hi > hi_max
        t = 0.0 if restart else t + 1.0
        width = hi - lo
        u_prev, u = u, np.log1p(q) * (1.0 / power) + v
        u = u - u.max()
    raise AssertionError("reference loop did not converge")


def test_apply_matches_reference_product_exactly():
    rng = np.random.default_rng(11)
    graphs = [simple_cycle(6), simple_star(5)]
    graphs += [family(FamilySpec(tag="S", k=k, m=7, g=4)) for k in range(3, 9)]
    for h in graphs:
        for _ in range(10):
            x = rng.uniform(0.01, 3.0, h.n)
            assert np.array_equal(apply_adjacency(h, x), reference_product(h, x)), h.k


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_apply_matches_reference_product_exactly_on_large_graphs(k):
    rng = np.random.default_rng([2000, k])
    h = random_unicyclic(k, 2000, rng)
    assert h.is_linear and h.is_connected and h.n == h.m * (k - 1)
    for _ in range(3):
        x = rng.uniform(0.01, 3.0, h.n)
        assert np.array_equal(apply_adjacency(h, x), reference_product(h, x))


def test_large_graph_radius_is_bit_identical_to_serial_reference():
    h = random_unicyclic(4, 500, np.random.default_rng(500))
    assert spectral_radius_tensor(h) == serial_reference(h)


@pytest.mark.parametrize("k,m", [(3, 7), (4, 6), (5, 5)])
def test_batch_is_bit_identical_to_single_graph_calls(k, m):
    pool = enumerate_linear_unicyclic(k, m)
    singles = [spectral_radius_tensor(h) for h in pool]
    # SpectralResult equality compares rho, perron, residual and iterations with ==
    assert spectral_radii_tensor(pool) == singles
    assert singles == [serial_reference(h) for h in pool]


@pytest.mark.parametrize("k,g,m,seed", [(6, 34, 37, 4042048786), (5, 37, 72, 39897165)])
def test_returned_vector_holds_its_own_enclosure(k, g, m, seed):
    """Rounding exp(v) moves the quotients a few ulps from the log point's.
    On these inputs the log enclosure first fell under the tolerance where
    the returned vector's was 1.0001e-12; the kernel sweeps once more."""
    h = random_unicyclic(k, m, np.random.default_rng(seed), g=g)
    res = spectral_radius_tensor(h)
    x = np.array(res.perron)
    xk = x ** (k - 1)
    ratios = (reference_product(h, x) + _SHIFT * xk) / xk
    assert ratios.max() - ratios.min() < IterationOptions().tolerance
    assert ratios.min() <= res.rho + _SHIFT <= ratios.max()
    assert res == serial_reference(h)


@pytest.mark.parametrize("k,g,m,seed,masks", [
    (6, 34, 37, 4042048786, [(5, 2), (4, 4)]),
    (5, 37, 72, 39897165, [(2, 1), (5, 5)]),
])
def test_retire_step_keeps_graphs_whose_returned_vector_fails(monkeypatch, k, g, m, seed, masks):
    """The pinned inputs above, each batched with five relabelings of
    itself: at k = 6, 5 of the 6 graphs first pass the log test at one
    sweep and the returned-vector test keeps 3 of them sweeping (2 and 1 of
    them at k = 5), so the retire mask is partial.  Every result still
    equals the one-graph call's."""
    h = random_unicyclic(k, m, np.random.default_rng(seed), g=g)
    rng = np.random.default_rng(2)
    hs = [h] + [relabel(h, rng.permutation(h.n).tolist()) for _ in range(5)]
    singles = [spectral_radius_tensor(x) for x in hs]
    seen, retire = [], spectral._retire

    def recorded(out, rows, it, cols, v, q, lo, hi, done, *rest):
        mask = retire(out, rows, it, cols, v, q, lo, hi, done, *rest)
        seen.append((int(done.sum()), int(mask.sum())))
        return mask

    monkeypatch.setattr(spectral, "_retire", recorded)
    assert spectral_radii_tensor(hs) == singles
    assert seen == masks
    assert singles == [serial_reference(x) for x in hs]


def test_batch_mixed_shapes_keep_input_order():
    pool = enumerate_linear_unicyclic(3, 5)
    hs = [
        pool[3],
        family(FamilySpec(tag="Hyperstar", k=3, m=4)),
        simple_cycle(5),
        pool[0],
        family(FamilySpec(tag="Q", k=4, m=5)),
        pool[3],
    ]
    expected = [spectral_radius_tensor(h) for h in hs]
    assert spectral_radii_tensor(hs) == expected
    assert expected == [serial_reference(h) for h in hs]


def test_batch_of_nothing_is_empty():
    assert spectral_radii_tensor([]) == []


def test_batch_rejects_a_disconnected_member():
    hs = [family(FamilySpec(tag="P", k=3, m=5)), make_hypergraph(3, [{0, 1, 2}, {3, 4, 5}])]
    with pytest.raises(ValueError, match="hypergraph 1 is not connected"):
        spectral_radii_tensor(hs)


def test_batch_non_convergence_names_the_input():
    hs = [make_hypergraph(3, [{0, 1, 2}]), family(FamilySpec(tag="P", k=3, m=5))]
    with pytest.raises(ConvergenceError, match=r"for input 1 \(enclosure width \d\.\d+e[-+]\d+\)"):
        spectral_radii_tensor(hs, IterationOptions(max_iterations=3))


def test_batch_non_convergence_after_retirements_names_the_first_open_input():
    pool = enumerate_linear_unicyclic(3, 6)
    sweeps = [res.iterations for res in spectral_radii_tensor(pool)]
    cut = sorted(sweeps)[len(sweeps) // 2]
    first = min(i for i, s in enumerate(sweeps) if s > cut)
    opts = IterationOptions(max_iterations=cut)
    with pytest.raises(ConvergenceError) as single:
        spectral_radius_tensor(pool[first], opts)
    width = re.search(r"\(enclosure width \S+\)", str(single.value)).group()
    with pytest.raises(ConvergenceError, match=f"for input {first} {re.escape(width)}"):
        spectral_radii_tensor(pool, opts)


# sweeps of the power-formula base graphs (k = 2) before momentum was added:
# S by m = 5..16, listing g = 3..m, and T1, T2, U1 at m = 5..16.  Their
# radii exceed 2, where momentum is not provably stable at k = 2, so every
# sweep stays a plain NQZ step; the cycles (g = m) are regular and stop at
# the first sweep.
PLAIN_K2_SWEEPS_S = {
    5: [35, 44, 1],
    6: [36, 48, 23, 1],
    7: [35, 34, 67, 83, 1],
    8: [35, 49, 70, 93, 112, 1],
    9: [37, 48, 68, 92, 120, 145, 1],
    10: [40, 47, 65, 86, 113, 149, 182, 1],
    11: [42, 47, 62, 80, 102, 134, 178, 223, 1],
    12: [45, 48, 59, 74, 92, 117, 152, 207, 266, 1],
    13: [47, 50, 56, 69, 84, 103, 128, 168, 233, 313, 1],
    14: [50, 52, 54, 65, 77, 92, 111, 138, 181, 258, 361, 1],
    15: [52, 54, 52, 62, 72, 84, 98, 118, 146, 194, 280, 411, 1],
    16: [54, 56, 54, 59, 67, 78, 89, 104, 123, 153, 204, 301, 461, 1],
}
PLAIN_K2_SWEEPS = {
    "T1": [25, 41, 42, 30, 42, 42, 42, 43, 45, 47, 50, 52],
    "T2": [35, 41, 24, 47, 50, 51, 51, 50, 49, 48, 47, 50],
    "U1": [61, 56, 51, 48, 45, 43, 41, 43, 45, 48, 50, 52],
}


def _sweeps(graphs):
    return [r.iterations for r in spectral_radii_tensor(graphs)]


def test_sweep_counts():
    """Momentum cuts the (3, 8) pool from 110 131 plain sweeps to under
    50 000, and leaves the k = 2 base graphs on plain steps."""
    assert sum(_sweeps(enumerate_linear_unicyclic(3, 8))) <= 50000
    for m, want in PLAIN_K2_SWEEPS_S.items():
        assert _sweeps([simple_family_graph("S", m, g) for g in range(3, m + 1)]) == want, m
    for tag, want in PLAIN_K2_SWEEPS.items():
        assert _sweeps([simple_family_graph(tag, m) for m in range(5, 17)]) == want, tag


@pytest.mark.parametrize("seed", [7, 400])
def test_long_cycle_with_pendants_converges(seed):
    """A k = 3 cycle of length 400 with 40 pendant edges: the plain shifted
    iteration left seed 7 at an enclosure 1.0e-3 wide after 100 000 sweeps
    and took 30 817 on seed 400."""
    h = random_unicyclic(3, 440, np.random.default_rng(seed), g=400)
    res = spectral_radius_tensor(h)
    assert res.rho == pytest.approx(spectral_radius_alpha(h).rho, rel=1e-11, abs=0)


def test_long_hanging_path_converges():
    """A k = 3 triangle with a 1 500-edge hanging path: its far Perron
    entries are near 1e-210, so x^{k-1} and the products of the other
    entries underflow, and a kernel that forms them stays at an enclosure
    1.0 wide; the quotients taken from the log point converge."""
    path = [[0 if i == 0 else 5 + 2 * i, 6 + 2 * i, 7 + 2 * i] for i in range(1500)]
    h = make_hypergraph(3, [[0, 1, 3], [1, 2, 4], [0, 2, 5], *path])
    res = spectral_radius_tensor(h)
    assert res.rho == pytest.approx(spectral_radius_alpha(h).rho, rel=1e-11, abs=0)
