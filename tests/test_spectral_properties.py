"""Property checks of the tensor route on random linear unicyclic inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from helpers import random_unicyclic, reference_product  # noqa: E402

from hyperspec import IterationOptions, solve_alpha, spectral_radius_tensor  # noqa: E402
from hyperspec.spectral import _SHIFT  # noqa: E402


@st.composite
def unicyclic(draw):
    k = draw(st.integers(3, 6))
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
