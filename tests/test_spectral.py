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
    spectral_radius_power_formula,
    spectral_radius_tensor,
)
from hyperspec.spectral import _SHIFT

from helpers import random_unicyclic

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


def test_start_vector_scale_invariance():
    h = family(FamilySpec(tag="Q", k=3, m=6))
    base = spectral_radius_tensor(h)
    for c in (0.25, 7.0):
        scaled = spectral_radius_tensor(h, start=np.full(h.n, c))
        assert max(abs(a - b) for a, b in zip(base.perron, scaled.perron)) <= 1e-9
        assert scaled.rho == pytest.approx(base.rho, abs=1e-11)


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
    assert spectral_radius_power_formula(simple_cycle(3), 3) == pytest.approx(
        2.0 ** (2.0 / 3.0), abs=1e-12)
    assert spectral_radius_power_formula(simple_star(2), 3) == pytest.approx(
        2.0 ** (1.0 / 3.0), abs=1e-12)
    with pytest.raises(ValueError, match="k >= 3"):
        spectral_radius_power_formula(simple_cycle(3), 2)


def test_two_pendants_lose_to_extended_leaf_at_m8():
    lhs = spectral_radius_power_formula(simple_t2(8), 3)
    rhs = spectral_radius_power_formula(simple_u1(8), 3)
    assert lhs < rhs


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("tag,m,g", [
    ("S", 5, 3), ("S", 6, 4), ("T1", 5, None), ("T2", 6, None),
    ("U1", 6, None), ("CyclePower", 4, 4), ("Hyperstar", 3, None),
])
def test_tensor_agrees_with_power_formula(k, tag, m, g):
    h = family(FamilySpec(tag=tag, k=k, m=m, g=g))
    via_tensor = spectral_radius_tensor(h).rho
    via_formula = spectral_radius_power_formula(simple_family_graph(tag, m, g), k)
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
        via_formula = spectral_radius_power_formula(graph, k)
        assert abs(via_formula - oracle) <= 1e-11, (tag, m, g)
        if tag == "Hyperstar":
            assert abs(via_formula - m ** (1.0 / k)) <= 1e-11, m


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


def reference_product(h, x):
    """A x^{k-1} by prefix and suffix products per edge, with the end slots
    filled separately instead of through the kernel's padding; the products
    and their order are the kernel's."""
    idx = np.asarray(h.edges, dtype=np.intp)
    big = x[idx]
    pre = big.cumprod(axis=1)
    suf = big[:, ::-1].cumprod(axis=1)[:, ::-1]
    excl = np.empty_like(big)
    excl[:, 0] = suf[:, 1]
    excl[:, -1] = pre[:, -2]
    if h.k > 2:
        excl[:, 1:-1] = pre[:, :-2] * suf[:, 2:]
    return np.bincount(idx.ravel(), weights=excl.ravel(), minlength=h.n)


def serial_reference(h, opts=IterationOptions()):
    """The one-graph iteration loop, kept as the reference that the batched
    kernel must match exactly: the same operations on one graph at a time."""
    x = np.ones(h.n)
    power = h.k - 1
    for it in range(1, opts.max_iterations + 1):
        xk = x ** power
        y = reference_product(h, x)
        z = y + _SHIFT * xk
        ratios = z / xk
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo < opts.tolerance:
            rho = 0.5 * (lo + hi) - _SHIFT
            return SpectralResult(
                rho=rho,
                perron=tuple(float(v) for v in x),
                residual=float(np.abs(y - rho * xk).max()),
                iterations=it,
                method="tensor-power",
            )
        x = z ** (1.0 / power)
        x /= x.max()
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
