"""Spectral radii via power iteration.

The adjacency tensor of a k-uniform hypergraph has entry 1/(k-1)! on every
index tuple that enumerates an edge, so applying it to a vector reduces to
per-edge products: (A x^{k-1})_i = sum over edges e containing i of
prod_{j in e, j != i} x_j.  The shifted iteration

    z = A x^{k-1} + shift * x^{[k-1]},   x <- z^{[1/(k-1)]} / max(z...)

converges for every connected hypergraph (the shift makes the iteration
primitive), and min_i z_i/x_i^{k-1} <= rho + shift <= max_i z_i/x_i^{k-1}
gives a certified enclosure at every step; iteration stops when the
enclosure is narrower than the requested tolerance.  A simple graph is the
case k = 2, where this is the shifted matrix power iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph

__all__ = [
    "ConvergenceError",
    "IterationOptions",
    "SpectralResult",
    "apply_adjacency",
    "rayleigh",
    "spectral_radius_tensor",
    "spectral_radius_power_formula",
]


class ConvergenceError(RuntimeError):
    """Raised when an iteration cannot reach its requested tolerance: the
    enclosure fails to shrink within the budget, or a root bisection ends
    farther from the root than the tolerance allows."""


@dataclass(frozen=True)
class IterationOptions:
    tolerance: float = 1e-12
    max_iterations: int = 100000
    shift: float = 1.0

    def __post_init__(self) -> None:
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.shift < 0:
            raise ValueError("shift must be >= 0")


@dataclass(frozen=True)
class SpectralResult:
    """Spectral radius estimate with its certificate data.

    perron is normalized to unit maximum entry; residual is the max-norm of
    A x^{k-1} - rho x^{[k-1]} at the returned pair.
    """

    rho: float
    perron: tuple[float, ...] | None
    residual: float
    iterations: int
    method: str

    def to_json_dict(self, include_perron: bool = False) -> dict:
        out: dict = {
            "rho": self.rho,
            "residual": self.residual,
            "iterations": self.iterations,
            "method": self.method,
        }
        if include_perron and self.perron is not None:
            out["perron"] = list(self.perron)
        return out


def _adjacency_product(idx: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x^{k-1} for an (m, k) edge index array: per edge and slot the
    product of the other k-1 entries, summed onto the slot's vertex."""
    big = x[idx]
    pre = big.cumprod(axis=1)
    suf = big[:, ::-1].cumprod(axis=1)[:, ::-1]
    excl = np.empty_like(big)
    excl[:, 0] = suf[:, 1]
    excl[:, -1] = pre[:, -2]
    if idx.shape[1] > 2:
        excl[:, 1:-1] = pre[:, :-2] * suf[:, 2:]
    return np.bincount(idx.ravel(), weights=excl.ravel(), minlength=x.shape[0])


def apply_adjacency(h: Hypergraph, x) -> np.ndarray:
    """y_i = sum over edges e containing i of prod_{j in e \\ {i}} x_j."""
    x = np.asarray(x, dtype=float)
    if x.shape != (h.n,):
        raise ValueError(f"vector length {x.shape} does not match n={h.n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return _adjacency_product(np.asarray(h.edges, dtype=np.intp), x)


def rayleigh(h: Hypergraph, x) -> float:
    """A(G) x^k = k * sum over edges of the full vertex product."""
    x = np.asarray(x, dtype=float)
    if x.shape != (h.n,):
        raise ValueError(f"vector length {x.shape} does not match n={h.n}")
    idx = np.asarray(h.edges, dtype=np.intp)
    return float(h.k * np.prod(x[idx], axis=1).sum())


def spectral_radius_tensor(
    h: Hypergraph,
    opts: IterationOptions | None = None,
    start=None,
) -> SpectralResult:
    """Largest H-eigenvalue and Perron vector of a connected hypergraph.

    `start` (a positive vector) is exposed for invariance tests; the
    default all-ones start makes runs deterministic.
    """
    opts = opts or IterationOptions()
    if not h.is_connected:
        raise ValueError("hypergraph is not connected")
    n, k = h.n, h.k
    idx = np.asarray(h.edges, dtype=np.intp)
    if start is None:
        x = np.ones(n)
    else:
        x = np.asarray(start, dtype=float)
        if x.shape != (n,) or not np.all(x > 0):
            raise ValueError("start vector must be positive of length n")
        x = x / x.max()
    power = k - 1
    for it in range(1, opts.max_iterations + 1):
        xk = x ** power
        y = _adjacency_product(idx, x)
        z = y + opts.shift * xk
        ratios = z / xk
        lo = float(ratios.min())
        hi = float(ratios.max())
        if hi - lo < opts.tolerance:
            rho = 0.5 * (lo + hi) - opts.shift
            residual = float(np.abs(y - rho * xk).max())
            return SpectralResult(
                rho=rho,
                perron=tuple(float(v) for v in x),
                residual=residual,
                iterations=it,
                method="tensor-power",
            )
        x = z ** (1.0 / power)
        x /= x.max()
    raise ConvergenceError(
        f"tensor iteration did not reach tolerance {opts.tolerance} in "
        f"{opts.max_iterations} iterations (enclosure width {hi - lo:.3e})"
    )


def spectral_radius_power_formula(
    g: Hypergraph,
    k: int,
    opts: IterationOptions | None = None,
) -> float:
    """Spectral radius of the k-th power of the simple graph g (k = 2):
    rho(g) raised to 2/k."""
    if k < 3:
        raise ValueError("power shortcut needs k >= 3")
    if g.k != 2:
        raise ValueError("power shortcut needs a simple graph (k = 2)")
    return spectral_radius_tensor(g, opts).rho ** (2.0 / k)
