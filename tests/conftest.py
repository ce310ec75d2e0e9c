"""Shared fixtures: the k=3, m <= 6 enumeration pool and a radius cache."""

import pytest

from hyperspec import (
    IterationOptions,
    enumerate_linear_unicyclic,
    spectral_radius_tensor,
)

POOL_OPTS = IterationOptions(tolerance=1e-11, max_iterations=200000)


@pytest.fixture(scope="session")
def pool_by_m():
    return {m: enumerate_linear_unicyclic(3, m) for m in (3, 4, 5, 6)}


@pytest.fixture(scope="session")
def rho_of():
    """Spectral radius cached on the hypergraph value.

    Not keyed on a canonical form: callers pass rewiring outputs that may be
    nonlinear or have several cycles, outside the canonical code's domain.
    """
    cache = {}

    def get(h):
        if h not in cache:
            cache[h] = spectral_radius_tensor(h, POOL_OPTS)
        return cache[h]

    return get
