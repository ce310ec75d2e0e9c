"""Property checks of the tensor and alpha routes, and of the canonical
code, on random linear unicyclic inputs."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import bisect_alpha, random_unicyclic, reference_product, relabel  # noqa: E402

from hyperspec import (  # noqa: E402
    IterationOptions,
    alpha_normal,
    canonical_form,
    make_hypergraph,
    solve_alpha,
    spectral_radius_alpha,
    spectral_radius_tensor,
    unique_cycle,
)
from hyperspec.spectral import _SHIFT  # noqa: E402


@st.composite
def unicyclic(draw, k_max=6):
    k = draw(st.integers(3, k_max))
    g = draw(st.integers(3, 40))
    m = draw(st.integers(g, 80))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_unicyclic(k, m, np.random.default_rng(seed), g=g)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(unicyclic())
def test_tensor_radius_is_certified_and_matches_alpha(h):
    """rho agrees with the exact alpha route, and the returned Perron
    vector's own enclosure, recomputed outside the kernel, is narrower than
    the tolerance and holds rho."""
    res = spectral_radius_tensor(h)
    via_alpha = solve_alpha(h)[0] ** (-1.0 / h.k)
    assert res.rho == pytest.approx(via_alpha, rel=1e-11, abs=0)
    x = np.array(res.perron)
    xk = x ** (h.k - 1)
    ratios = (reference_product(h, x) + _SHIFT * xk) / xk
    lo, hi = ratios.min(), ratios.max()
    assert hi - lo < IterationOptions().tolerance
    assert lo <= res.rho + _SHIFT <= hi


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(unicyclic(k_max=8))
def test_alpha_search_stops_at_a_flip_of_the_feasibility_test(h):
    """lo passes the float test and hi, the next float up, fails it.  Near
    alpha the verdict in floats can flip back and forth over a few ulps,
    more on long cycles (up to 18 ulps at g = 40 over 10 000 random inputs),
    so plain bisection may stop at another flip: lo stays within max(4, g)
    ulps of it."""
    lo, hi = solve_alpha(h)
    peel = h._peel[:3]
    assert hi == math.nextafter(lo, 1.0)
    assert alpha_normal._feasible(lo, *peel)[0]
    assert not alpha_normal._feasible(hi, *peel)[0]
    g = len(unique_cycle(h)[1])
    assert abs(lo - bisect_alpha(h)[0]) <= max(4, g) * (hi - lo)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(unicyclic(), st.integers(0, 2**32 - 1))
def test_alpha_radius_is_invariant_under_relabeling(h, seed):
    """The alpha route reads the graph, not its vertex ids: any permutation
    of the ids leaves rho unchanged to within rounding."""
    perm = np.random.default_rng(seed).permutation(h.n).tolist()
    rho = spectral_radius_alpha(h).rho
    assert spectral_radius_alpha(relabel(h, perm)).rho == pytest.approx(rho, rel=1e-15, abs=0)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(unicyclic(), st.data())
def test_alpha_radius_grows_with_a_pendant_edge(h, data):
    """A pendant edge never lowers rho, and raises it strictly when it
    hangs at a cycle vertex: a connected proper supergraph has the larger
    rho, and at a cycle vertex the rise stays far above rounding (at least
    1e-9 relative over 400 such inputs); elsewhere only "never lower" is
    asked, as far out on a hanging tree the rise shrinks with the Perron
    entry there."""
    def with_pendant(v: int):
        return make_hypergraph(h.k, list(h.edges) + [[v, *range(h.n, h.n + h.k - 1)]])

    rho = spectral_radius_alpha(h).rho
    v = data.draw(st.integers(0, h.n - 1), label="vertex")
    assert spectral_radius_alpha(with_pendant(v)).rho >= rho
    c = data.draw(st.sampled_from(unique_cycle(h)[0]), label="cycle vertex")
    assert spectral_radius_alpha(with_pendant(c)).rho > rho


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(unicyclic(), st.integers(0, 2**32 - 1))
def test_canonical_form_is_invariant_under_relabeling(h, seed):
    """The peel reads the graph, not its ids: any permutation of the ids
    gives the same canonical form, on inputs far larger than the pools."""
    perm = np.random.default_rng(seed).permutation(h.n).tolist()
    assert canonical_form(relabel(h, perm)) == canonical_form(h)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(unicyclic(), st.integers(0, 2**32 - 1))
def test_tensor_radius_is_invariant_under_relabeling(h, seed):
    """A permutation of the ids reorders the tensor iteration's sums but
    not rho: each run returns the midpoint of an enclosure of rho narrower
    than the tolerance, so the two differ by less than it."""
    perm = np.random.default_rng(seed).permutation(h.n).tolist()
    rho = spectral_radius_tensor(h).rho
    assert abs(spectral_radius_tensor(relabel(h, perm)).rho - rho) < IterationOptions().tolerance
