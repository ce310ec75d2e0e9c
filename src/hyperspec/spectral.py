"""Spectral radii via power iteration with restarted momentum.

The adjacency tensor of a k-uniform hypergraph has entry 1/(k-1)! on every
index tuple that enumerates an edge, so applying it to a vector reduces to
per-edge products: (A x^{k-1})_i = sum over edges e containing i of
prod_{j in e, j != i} x_j.  For a connected hypergraph, every positive
vector x and z = A x^{k-1} + s x^{[k-1]} (shift s = 1),

    min_i z_i/x_i^{k-1} <= rho + s <= max_i z_i/x_i^{k-1}

(Collatz-Wielandt for nonnegative irreducible tensors), so the enclosure
certifies rho at any positive point, not only at an iterate of one
particular scheme.  The shifted iteration of Ng, Qi & Zhou (2009),
x <- z^{[1/(k-1)]} normalised, drives it to zero width; iteration stops
when the enclosure at the point just evaluated is narrower than the
tolerance, and rho, the Perron vector and the residual are all read at
that point.  A simple graph is the case k = 2.

The iterate is held in log space, u = log x with max u = 0, which keeps
every point positive however far it is extrapolated.  A sweep evaluates
at x = exp(v), v = u + c (u - u_prev), with c = t/(t+3) where t counts
the sweeps since the graph's last restart (Nesterov's (j-1)/(j+2) at
j = t+1), so t = 0 is a plain NQZ step and v is u itself; the next u is
log(z)/(k-1) = v + log1p(q)/(k-1), with q the quotients
(A x^{k-1})_i/x_i^{k-1}, normalised to max u = 0.  A graph restarts
(t = 0) when its enclosure widened (O'Donoghue & Candes 2015) or when
momentum is not provably stable for it.  Near the fixed point the log map
is linear with J = (M + s I)/(rho + s), where (k-1) x_i^{k-1} M_ij sums
prod_{l in e, l != i} x_l over the edges e that hold both i and j != i.
M is similar to C/(k-1), C = sum_e P_e (q_e q_e^T - diag q_e^2), with P_e
the product of x over e and q_e holding x_i^{-k/2} at each i in e and 0
elsewhere; C >= -diag((A x^{k-1})_i / x_i^{k-1}) = -rho I at the fixed
point, so M's eigenvalues are at least -rho/(k-1).  Momentum with c -> 1
is stable exactly when J's eigenvalues exceed -1/3, which holds when
4 s >= rho (3/(k-1) - 1); the loop checks it with hi - s >= rho in place
of rho.  So momentum is always allowed at k >= 4, needs rho <= 8 at
k = 3 and rho <= 2 at k = 2, and the power-formula base graphs (rho > 2)
run plain steps.  Momentum and its restarts change only the speed, never
what a result certifies.

The quotients are taken from the log point alone, and x is never formed
inside the loop.  The term of edge e at its slot i is
exp(sum_{j in e, j != i} (v_j - v_i)); with w_j = v_j - v_(first slot)
and d the sum of an edge's w_j, it is exp(d - k w_i), so every exponent
is built from differences within one edge.  No power or product of
entries is formed, so nothing underflows however small the Perron
entries are: a hanging path whose far entries lie below 1e-308 converges
like any other input, and only its printed vector loses those entries.
The Perron vector exp(v), normalised to unit maximum, and the residual
are formed only when a graph retires, and the graph retires only if that
rounded vector's own enclosure, from its products, is narrower than the
tolerance too (where x^{k-1} stays in the normal range); otherwise it
runs another sweep.  What is left is the rounding of v
itself: an entry near -700 carries an ulp of 1.1e-13, and k such errors
in an exponent bound how narrow the enclosure can get there.

The iteration runs on a batch: B hypergraphs of one shape (k, n, m) share
one (n, B) iterate, one column per graph, so graph b's vertex v sits at
flat entry v*B + b, one bincount sums every graph's quotient terms at
once, and a graph's min and max run across the batch.  The edges are
stored by column, row j of a (k, B*m) array holding slot j of every edge,
so each step of the exponent is one whole-row operation, and bincount
sums each vertex's terms slot row by slot row.  Each graph keeps its own
enclosure, the min and max of its own quotients plus s.  One retire step
takes the graphs whose enclosure is narrower than the tolerance, checks
their returned vectors, writes the results and hands back the mask of the
graphs that leave; the others keep their momentum state (the log iterate,
t and the last width).  Any sub-batch, the graphs left or the retirees
under check, is laid out from its own vertex ids by the one encoder.
Every operation on a graph's entries is the one a one-graph loop would
do, in the same order, so a result does not depend on the batch it ran
in.  spectral_radii_tensor batches a list by shape, and
spectral_radius_tensor is the batch of one; apply_adjacency, whose x may
be any finite vector, keeps the direct product of the other entries at
each slot.
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

# Any positive shift converges.  A large one loses rho to rounding, and a
# small one turns momentum off: at k = 3 it needs rho <= 8 * _SHIFT.
_SHIFT = 1.0


class ConvergenceError(RuntimeError):
    """Raised when an iteration cannot reach its requested tolerance: the
    enclosure fails to shrink within the budget."""


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
    residual: float
    iterations: int
    method: str
    perron: tuple[float, ...] | None  # last: `rho` prints it only under --perron


def _edge_columns(idx: np.ndarray) -> np.ndarray:
    """The batch layout of a (k, B, m) array of local vertex ids, which it
    overwrites, graph b's vertex v at flat entry v*B + b: the C-ordered
    (k, B*m) columns, row j holding slot j of every edge and graph b's
    edges in columns b*m .. b*m + m - 1."""
    k, b, m = idx.shape
    idx *= b
    idx += np.arange(b)[:, None]
    return np.ascontiguousarray(idx.reshape(k, b * m))


def _sub_batch(cols: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The _edge_columns array of the graphs where mask is set, their local
    vertex ids read off the batch's columns cols."""
    k, b = cols.shape[0], mask.size
    idx = np.compress(mask, cols.reshape(k, b, -1), axis=1)
    idx //= b
    return _edge_columns(idx)


def _adjacency_product(cols: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x^{k-1} on _edge_columns arrays and the flat vector x: per edge and
    slot, the prefix product before the slot times the suffix product after
    it, summed onto the slot's vertex edge by edge."""
    k = cols.shape[0]
    g = x[cols]  # row j: the entry at slot j of every edge
    excl = np.empty(cols.shape[::-1])  # edge-major
    excl[:, 1] = pre = g[0]
    for j in range(2, k):
        pre = pre * g[j - 1]  # x_0 ... x_{j-1}
        excl[:, j] = pre
    suf = g[k - 1]
    for j in range(k - 2, 0, -1):
        excl[:, j] *= suf
        suf = suf * g[j]  # x_j ... x_{k-1}
    excl[:, 0] = suf
    return np.bincount(cols.T.ravel(), weights=excl.ravel(), minlength=x.shape[0])


def _log_quotients(cols: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(A x^{k-1})_i / x_i^{k-1} at x = exp(v), from the log point v (flat)
    alone.  At slot i of an edge the term is exp(sum_{j != i} (v_j - v_i)),
    taken as d - k w_i with w_j = v_j - v_0 and d = sum_j w_j, so every
    exponent is built from differences within one edge and no power of x
    is ever formed; the terms are summed onto their vertices slot row by
    slot row."""
    k = cols.shape[0]
    g = v.take(cols)  # row j: the log entry at slot j of every edge
    d, w = g[0], g[1:]  # d becomes slot 0's exponent
    w -= d
    np.copyto(d, w[0])
    for row in w[1:]:
        d += row
    w *= -k
    w += d
    np.exp(g, out=g)
    return np.bincount(cols.ravel(), weights=g.ravel(), minlength=v.shape[0])


def _checked_vector(h: Hypergraph, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (h.n,):
        raise ValueError(f"vector length {x.shape} does not match n={h.n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return x


def apply_adjacency(h: Hypergraph, x) -> np.ndarray:
    """y_i = sum over edges e containing i of prod_{j in e \\ {i}} x_j."""
    x = _checked_vector(h, x)
    return _adjacency_product(_edge_columns(np.asarray(h.edges, dtype=np.intp).T[:, None]), x)


def rayleigh(h: Hypergraph, x) -> float:
    """A(G) x^k = k * sum over edges of the full vertex product."""
    x = _checked_vector(h, x)
    return float(h.k * np.prod(x[np.asarray(h.edges, dtype=np.intp)], axis=1).sum())


def spectral_radius_tensor(
    h: Hypergraph,
    opts: IterationOptions | None = None,
) -> SpectralResult:
    """Largest H-eigenvalue and Perron vector of a connected hypergraph,
    iterated from the all-ones vector, so runs are deterministic."""
    return spectral_radii_tensor([h], opts)[0]


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
) -> list[SpectralResult]:
    """The restarted momentum iteration on a batch of hypergraphs of one
    shape, from the all-ones vector; labels name the inputs in a
    ConvergenceError.  Each graph leaves the batch at the sweep where
    _retire writes its result, so a converged graph costs nothing."""
    n, power = hs[0].n, hs[0].k - 1
    # momentum is stable while 4 s >= gain * rho, tested as hi <= hi_max
    gain = 3.0 / power - 1.0
    hi_max = _SHIFT * (1.0 + 4.0 / gain) if gain > 0 else math.inf
    out: list[SpectralResult | None] = [None] * len(hs)
    rows = np.arange(len(hs))  # batch column -> index into hs
    cols = _edge_columns(np.asarray([h.edges for h in hs], dtype=np.intp).transpose(2, 0, 1))
    u = u_prev = np.zeros((n, len(hs)))  # log of the iterate, one column per graph
    t = np.zeros(len(hs))  # per graph: sweeps since its last restart
    width = np.full(len(hs), np.inf)  # per graph: its last enclosure width
    for it in range(1, opts.max_iterations + 1):
        v = u - u_prev  # the point u + c (u - u_prev), c = t/(t+3); u bit for bit at t = 0
        v *= t / (t + 3.0)
        v += u
        q = _log_quotients(cols, v.ravel()).reshape(v.shape)
        lo = np.minimum.reduce(q)  # per column: each graph's own
        hi = np.maximum.reduce(q)
        lo += _SHIFT
        hi += _SHIFT
        w = hi - lo
        done = w < opts.tolerance
        if np.count_nonzero(done):
            done = _retire(out, rows, it, cols, v, q, lo, hi, done, opts.tolerance)
        if np.count_nonzero(done):
            keep = ~done
            if not np.count_nonzero(keep):
                return out
            cols = _sub_batch(cols, keep)
            rows, hi, w, t, width = rows[keep], hi[keep], w[keep], t[keep], width[keep]
            q, v, u = (np.compress(keep, a, axis=1) for a in (q, v, u))
        # restart where the enclosure widened, or where hi - s, an upper
        # bound on rho, leaves momentum not provably stable
        restart = (w > width) | (hi > hi_max)
        t = np.where(restart, 0.0, t + 1.0)
        width = w
        # x^{k-1} (q + s) is the shifted product z, so log(z)/(k-1) is
        # v + log1p(q)/(k-1) (s = 1)
        u_prev, u = u, np.log1p(q)
        u *= 1.0 / power  # a multiply: a divide costs three times as much
        u += v
        u -= np.maximum.reduce(u)
    raise ConvergenceError(
        f"tensor iteration did not reach tolerance {opts.tolerance} in "
        f"{opts.max_iterations} iterations for input {labels[rows[0]]} "
        f"(enclosure width {width[0]:.3e})"
    )


def _retire(out, rows, it, cols, v, q, lo, hi, done, tolerance) -> np.ndarray:
    """The retire step at sweep it, for the graphs of done, whose log
    enclosure [lo, hi] is narrower than the tolerance.  A graph retires
    when its returned vector x = exp(v), normalised to unit maximum, holds
    an enclosure of its own narrower than the tolerance too: its result
    goes to out[rows[j]], and the mask returned marks it.  Rounding x moves
    its quotients by a few ulps from the log point's, which can lift an
    enclosure just under the tolerance over it; such a graph runs another
    sweep.  Where x^{k-1} leaves the normal range, x cannot carry its own
    enclosure, and the log point's stands."""
    idx = np.flatnonzero(done)
    sub = v[:, idx]
    x = np.exp(sub - np.maximum.reduce(sub))
    xk = x ** (cols.shape[0] - 1)
    z = _adjacency_product(_sub_batch(cols, done), x.ravel()).reshape(x.shape)
    with np.errstate(divide="ignore", invalid="ignore"):  # x^{k-1} may be 0
        ratios = (z + _SHIFT * xk) / xk
    ok = np.maximum.reduce(ratios) - np.minimum.reduce(ratios) < tolerance
    ok |= np.minimum.reduce(xk) < np.finfo(float).tiny
    rho = 0.5 * (lo[idx] + hi[idx]) - _SHIFT
    residual = np.maximum.reduce(np.abs(q[:, idx] * xk - rho * xk))
    for i in np.flatnonzero(ok).tolist():
        out[rows[idx[i]]] = SpectralResult(rho=float(rho[i]), perron=tuple(x[:, i].tolist()),
                                           residual=float(residual[i]), iterations=it,
                                           method="tensor-power")
    done = done.copy()
    done[idx] = ok
    return done


def spectral_radius_power_formula(
    g: Hypergraph,
    k: int,
    opts: IterationOptions | None = None,
) -> SpectralResult:
    """Spectral radius of the k-th power of the simple graph g (k = 2):
    rho(g) raised to 2/k, with the residual and iterations of g's solve."""
    if k < 3:
        raise ValueError("power shortcut needs k >= 3")
    if g.k != 2:
        raise ValueError("power shortcut needs a simple graph (k = 2)")
    base = spectral_radius_tensor(g, opts)
    return SpectralResult(rho=base.rho ** (2.0 / k), perron=None, residual=base.residual,
                          iterations=base.iterations, method="power-formula")
