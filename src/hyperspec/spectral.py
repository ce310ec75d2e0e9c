"""Spectral radii via power iteration.

The adjacency tensor of a k-uniform hypergraph has entry 1/(k-1)! on every
index tuple that enumerates an edge, so applying it to a vector reduces to
per-edge products: (A x^{k-1})_i = sum over edges e containing i of
prod_{j in e, j != i} x_j.  The shifted iteration (Ng, Qi & Zhou 2009)

    z = A x^{k-1} + x^{[k-1]},   x <- z^{[1/(k-1)]} / max(z...)

converges for every connected hypergraph (the shift makes the iteration
primitive), and min_i z_i/x_i^{k-1} <= rho + 1 <= max_i z_i/x_i^{k-1}
gives a certified enclosure at every step; iteration stops when the
enclosure is narrower than the requested tolerance.  A simple graph is the
case k = 2, where this is the shifted matrix power iteration.

The iteration runs on a batch: B hypergraphs of one shape (k, n, m) share
one flat vector, graph b's vertex v at entry b*n + v, so one bincount
applies every adjacency tensor at once.  The edges are stored by column,
row j of a (k, B*m) array holding slot j of every edge, so the product of
the other k-1 entries at a slot (the prefix product before it times the
suffix product after it) takes k-2 whole-row multiplies per side, with no
padding entry.  The products land in an edge-major buffer, so bincount
sums each vertex's terms edge by edge.  Each graph keeps its own
enclosure, the min and max of its own quotients z_i/x_i^{k-1}, and retires
when that enclosure is narrower than the tolerance; the batch is then
compacted.  Every operation on a graph's entries is the one a one-graph
loop would do, in the same order, so a result does not depend on the batch
it ran in.  spectral_radii_tensor batches a list by shape, and
spectral_radius_tensor is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hypergraph import Hypergraph

__all__ = [
    "ConvergenceError",
    "IterationOptions",
    "SpectralResult",
    "apply_adjacency",
    "rayleigh",
    "spectral_radius_tensor",
    "spectral_radii_tensor",
    "spectral_radius_power_formula",
]

_SHIFT = 1.0  # any positive shift works; a large one loses rho to rounding


class ConvergenceError(RuntimeError):
    """Raised when an iteration cannot reach its requested tolerance: the
    enclosure fails to shrink within the budget, or a root bisection ends
    farther from the root than the tolerance allows."""


@dataclass(frozen=True)
class IterationOptions:
    tolerance: float = 1e-12
    max_iterations: int = 100000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be finite and positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


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


def _edge_columns(edge_lists, n: int) -> tuple[np.ndarray, np.ndarray]:
    """For a (B, m, k) batch of edge lists on n vertices, with graph b's
    vertex v at flat entry b*n + v: the (k, B*m) columns, row j holding slot
    j of every edge, and the (B*m*k,) vertex entries edge by edge."""
    idx = np.asarray(edge_lists, dtype=np.intp)
    b, m, k = idx.shape
    flat = (idx + (np.arange(b) * n)[:, None, None]).reshape(b * m, k)
    return np.ascontiguousarray(flat.T), flat.ravel()


def _adjacency_product(cols: np.ndarray, slots: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x^{k-1} on _edge_columns arrays and the flat vector x: per edge and
    slot, the prefix product before the slot times the suffix product after
    it, summed onto the slot's vertex edge by edge."""
    k = cols.shape[0]
    g = x[cols]  # row j: the entry at slot j of every edge
    excl = np.empty(cols.shape[::-1])  # edge-major, like slots
    excl[:, 1] = pre = g[0]
    for j in range(2, k):
        pre = pre * g[j - 1]  # x_0 ... x_{j-1}
        excl[:, j] = pre
    suf = g[k - 1]
    for j in range(k - 2, 0, -1):
        excl[:, j] *= suf
        suf = suf * g[j]  # x_j ... x_{k-1}
    excl[:, 0] = suf
    return np.bincount(slots, weights=excl.ravel(), minlength=x.shape[0])


def apply_adjacency(h: Hypergraph, x) -> np.ndarray:
    """y_i = sum over edges e containing i of prod_{j in e \\ {i}} x_j."""
    x = np.asarray(x, dtype=float)
    if x.shape != (h.n,):
        raise ValueError(f"vector length {x.shape} does not match n={h.n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return _adjacency_product(*_edge_columns([h.edges], h.n), x)


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
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (h.n,) or not np.all(start > 0):
            raise ValueError("start vector must be positive of length n")
        start = start / start.max()
    return _iterate([h], opts, [0], start)[0]


def spectral_radii_tensor(
    hs: Sequence[Hypergraph],
    opts: IterationOptions | None = None,
) -> list[SpectralResult]:
    """spectral_radius_tensor(h, opts) for every h in hs, in input order.

    Inputs of one shape (k, n, m) iterate together as one batch, each from
    the all-ones start, and every result equals the one-graph call exactly.
    """
    opts = opts or IterationOptions()
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, h in enumerate(hs):
        if not h.is_connected:
            raise ValueError(f"hypergraph {i} is not connected")
        groups.setdefault((h.k, h.n, h.m), []).append(i)
    out: dict[int, SpectralResult] = {}
    for members in groups.values():
        out.update(zip(members, _iterate([hs[i] for i in members], opts, members)))
    return [out[i] for i in range(len(hs))]


def _iterate(
    hs: Sequence[Hypergraph],
    opts: IterationOptions,
    labels: Sequence[int],
    start: np.ndarray | None = None,
) -> list[SpectralResult]:
    """The shifted iteration on a batch of hypergraphs of one shape, from
    the all-ones vector or from `start` (n entries, maximum 1); labels name
    the inputs in a ConvergenceError.

    A graph retires when its own enclosure is narrower than the tolerance,
    and the batch is then compacted, so a converged graph costs nothing.
    """
    n, power = hs[0].n, hs[0].k - 1
    out: dict[int, SpectralResult] = {}
    rows = list(range(len(hs)))  # batch row -> index into hs
    cols, slots = _edge_columns([h.edges for h in hs], n)
    xv = np.ones((len(hs), n))  # the iterate, one row per graph
    if start is not None:
        xv[:] = start
    for it in range(1, opts.max_iterations + 1):
        xk = xv ** power
        y = _adjacency_product(cols, slots, xv.ravel()).reshape(xv.shape)
        z = y + xk  # _SHIFT * xk is xk exactly
        ratios = z / xk
        lo = ratios.min(axis=1).tolist()
        hi = ratios.max(axis=1).tolist()
        done = [b for b in range(len(rows)) if hi[b] - lo[b] < opts.tolerance]
        if done:
            for b in done:
                rho = 0.5 * (lo[b] + hi[b]) - _SHIFT
                out[rows[b]] = SpectralResult(
                    rho=rho,
                    perron=tuple(float(v) for v in xv[b]),
                    residual=float(np.abs(y[b] - rho * xk[b]).max()),
                    iterations=it,
                    method="tensor-power",
                )
            if len(done) == len(rows):
                return [out[r] for r in range(len(hs))]
            keep = [b for b in range(len(rows)) if not hi[b] - lo[b] < opts.tolerance]
            # the kept graphs' edges, shifted back to vertices 0..n-1
            edges = cols.reshape(power + 1, len(rows), -1)[:, keep]
            edges -= (np.array(keep) * n)[:, None]
            cols, slots = _edge_columns(edges.transpose(1, 2, 0), n)
            rows = [rows[b] for b in keep]
            lo, hi = [lo[b] for b in keep], [hi[b] for b in keep]
            z = z[keep]
        x = z ** (1.0 / power)
        xv = x / x.max(axis=1, keepdims=True)
    raise ConvergenceError(
        f"tensor iteration did not reach tolerance {opts.tolerance} in "
        f"{opts.max_iterations} iterations for input {labels[rows[0]]} "
        f"(enclosure width {hi[0] - lo[0]:.3e})"
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
