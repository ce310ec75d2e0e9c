"""Weighted-incidence certificates for hypergraph spectral radii.

A weighted incidence matrix assigns a positive weight B(v, e) to every
incident vertex-edge pair.  For a connected k-uniform hypergraph:

* if every vertex row sums to 1, every edge's weight product equals alpha,
  and the weight ratios multiply to 1 around the cycle ("consistent"), the
  spectral radius is exactly alpha^(-1/k);
* if row sums are >= 1 and edge products <= alpha, consistently and with
  some strict slack, the spectral radius strictly exceeds alpha^(-1/k).

solve_alpha brackets the exact alpha of any connected linear unicyclic
hypergraph between two adjacent floats, by false position on the cycle's
scaled discriminant with a bisection fallback, and spectral_radius_alpha
turns it into rho.  Here too: the verifier, the exact labelings of P_m and
O_m (normal where f_P or f_O is 1), and a slack labeling of Q_m certifying
rho(Q_m) > rho(P_m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .families import family_o_with_roles, family_p_with_roles, family_q_with_roles
from .hypergraph import Hypergraph, unique_cycle
from .spectral import SpectralResult

__all__ = [
    "WeightedIncidence",
    "NormalityReport",
    "check_normal",
    "cycle_consistency",
    "f_P",
    "f_O",
    "solve_alpha",
    "gamma",
    "phi",
    "psi",
    "rho_from_alpha",
    "spectral_radius_alpha",
    "build_B_P",
    "build_B_O",
    "build_B_Q_supernormal",
    "weights_to_text",
]

DEFAULT_CHECK_TOL = 1e-10

# strictness margin: slack below 10x the check tolerance is not certified
_STRICT_FACTOR = 10.0


@dataclass(frozen=True)
class WeightedIncidence:
    """Positive weights on exactly the incident (vertex, edge-index) pairs."""

    hypergraph: Hypergraph
    weights: dict[tuple[int, int], float]

    def __post_init__(self) -> None:
        h = self.hypergraph
        expected = {(v, j) for j, e in enumerate(h.edges) for v in e}
        got = set(self.weights)
        if got != expected:
            missing = expected - got
            extra = got - expected
            raise ValueError(
                f"weights do not match incidences (missing {sorted(missing)[:3]}, "
                f"extra {sorted(extra)[:3]})"
            )
        for pair, w in self.weights.items():
            if not w > 0:
                raise ValueError(f"weight at {pair} must be positive, got {w}")

    def row_sum(self, v: int) -> float:
        return sum(self.weights[(v, j)] for j in self.hypergraph.incidence[v])

    def edge_product(self, j: int) -> float:
        out = 1.0
        for v in self.hypergraph.edges[j]:
            out *= self.weights[(v, j)]
        return out


@dataclass(frozen=True)
class NormalityReport:
    """Outcome of a normality check at a given alpha.

    mode is "normal" when all row sums are 1, all edge products equal
    alpha, and the cycle ratio product is 1 (within tol).  The supernormal
    modes require row sums >= 1, edge products <= alpha and consistency;
    "strict" means some row sum or product has slack beyond 10x tol so the
    strict spectral bound applies, "nonstrict" means the slack is too small
    to certify.  Everything else is "neither".
    """

    mode: str
    alpha: float
    tolerance: float
    row_sums: tuple[float, ...]
    edge_products: tuple[float, ...]
    cycle_product: float | None


def cycle_consistency(w: WeightedIncidence) -> float:
    """Product of B(v_i, e_i)/B(v_{i-1}, e_i) around the unique cycle.

    1.0 means consistent.  Raises ValueError unless the underlying
    hypergraph is linear unicyclic.
    """
    verts, eidx = unique_cycle(w.hypergraph)
    out = 1.0
    l = len(eidx)
    for i in range(l):
        tail = verts[i]
        head = verts[(i + 1) % l]
        out *= w.weights[(head, eidx[i])] / w.weights[(tail, eidx[i])]
    return out


def check_normal(w: WeightedIncidence, alpha: float) -> NormalityReport:
    """Classify a weighted incidence matrix against alpha, to DEFAULT_CHECK_TOL."""
    h = w.hypergraph
    if not h.is_connected:
        raise ValueError("normality check needs a connected hypergraph")
    if h._cycle_rank and not h._linear_unicyclic:  # the only cycles checked are theirs
        raise ValueError("normality check needs a hypertree or a linear unicyclic hypergraph")
    tol = DEFAULT_CHECK_TOL
    rows = tuple(w.row_sum(v) for v in range(h.n))
    prods = tuple(w.edge_product(j) for j in range(h.m))
    cyc = cycle_consistency(w) if h._linear_unicyclic else None

    rows_eq = all(abs(r - 1.0) <= tol for r in rows)
    prods_eq = all(abs(p - alpha) <= tol for p in prods)
    consistent = cyc is None or abs(cyc - 1.0) <= tol
    super_rows = all(r >= 1.0 - tol for r in rows)
    super_prods = all(p <= alpha + tol for p in prods)
    strict_slack = any(r > 1.0 + _STRICT_FACTOR * tol for r in rows) or any(
        p < alpha - _STRICT_FACTOR * tol for p in prods
    )

    if rows_eq and prods_eq and consistent:
        mode = "normal"
    elif super_rows and super_prods and consistent:
        mode = "supernormal-strict" if strict_slack else "supernormal-nonstrict"
    else:
        mode = "neither"
    return NormalityReport(
        mode=mode,
        alpha=alpha,
        tolerance=tol,
        row_sums=rows,
        edge_products=prods,
        cycle_product=cyc,
    )


# --- scalar functions --------------------------------------------------------

def f_P(alpha: float, r: int) -> float:
    """Row sum at the max-degree vertex of the exact P-family labeling:
    2*alpha/(1 - sqrt(alpha/(1-alpha))) + r*alpha.  Strictly increasing on
    (0, 1/2); the labeling is alpha-normal exactly when this equals 1."""
    if r < 0:
        raise ValueError("pendant count r must be >= 0")
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha={alpha} outside (0, 1/2)")
    beta = math.sqrt(alpha / (1.0 - alpha))
    return 2.0 * alpha / (1.0 - beta) + r * alpha


def f_O(alpha: float, r: int) -> float:
    """Row sum at the degree-2 cycle vertex of the exact O-family labeling:
    2*alpha/(1 - sqrt(alpha/(1-(r+1)*alpha))).  Strictly increasing on
    (0, 1/(r+2))."""
    if r < 0:
        raise ValueError("pendant count r must be >= 0")
    if not 0.0 < alpha < 1.0 / (r + 2):
        raise ValueError(f"alpha={alpha} outside (0, 1/(r+2)) for r={r}")
    beta = math.sqrt(alpha / (1.0 - (r + 1) * alpha))
    return 2.0 * alpha / (1.0 - beta)


def gamma(alpha: float) -> float:
    """(1-alpha)/(1 + sqrt(alpha*(1-alpha))): the unique cycle weight that
    makes the slack Q-family labeling consistent."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1)")
    return (1.0 - alpha) / (1.0 + math.sqrt(alpha * (1.0 - alpha)))


def phi(alpha: float) -> float:
    """-1 + 2*sqrt(1-alpha)*((1-alpha)^(3/2) - alpha^(3/2)); positivity of
    this quantity is what makes the Q-family row slack strictly positive."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha={alpha} outside [0, 1]")
    s = math.sqrt(1.0 - alpha)
    return -1.0 + 2.0 * s * ((1.0 - alpha) * s - alpha * math.sqrt(alpha))


def psi(alpha: float) -> float:
    """(1-2*alpha)*sqrt(alpha*(1-alpha)) - alpha; positive exactly where
    1 - alpha - alpha/(1-2*alpha)^2 is positive on (0, 1/2)."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha={alpha} outside (0, 1/2)")
    return (1.0 - 2.0 * alpha) * math.sqrt(alpha * (1.0 - alpha)) - alpha


def rho_from_alpha(alpha: float, k: int) -> float:
    """Spectral radius certified by a consistent alpha-normal labeling."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return alpha ** (-1.0 / k)


def solve_alpha(h: Hypergraph) -> tuple[float, float]:
    """(lo, hi) around the alpha of h's exact labeling: lo is feasible, hi
    is not, and no float lies between them; rho(h) = alpha^(-1/k) (Lu & Man
    2016).  Raises ValueError unless h is connected linear unicyclic.

    On the lists of h._peel, leaves first, D(tree) sums alpha / prod(1 - D)
    over the root's branches, the product over the subtrees on a branch's
    other vertices: every tree row then sums to 1 and every tree edge
    multiplies to alpha.  Cycle vertex i keeps d_i = 1 - D(its tree), and
    cycle edge i needs end weights multiplying to c_i = alpha / prod(1 - D)
    over its side trees.  Unit rows force x_{i+1} = d_{i+1} - c_i / x_i on
    x_i, vertex i's weight on edge i: the step of A_i = [[d_{i+1}, -c_i],
    [1, 0]].  An orbit closes at a fixed point x_0 of F, the step of
    M = A_{g-1}...A_0, with eigenvector (x_0, 1) and eigenvalue prod x_i,
    and is consistent when prod x_i^2 = prod c_i = det M.

    alpha is feasible when every 1 - D > 0, tr M > 0, tr(M)^2 > 4 det M and
    the fixed point of the larger eigenvalue, which attracts and so is
    stable in floats, has a positive orbit.  Starts with positive orbits
    form an interval (t, inf) on which F rises, is concave and F(t) = 0, so
    the other fixed point lies there too.  Starts between the two end at
    F(x_0) > x_0 and carry prod x_i = p x_0 + q across sqrt(det M): one is
    consistent, strictly subnormal (vertex 0's row is 1 - F(x_0) + x_0), so
    rho < alpha^(-1/k).  D grows with alpha, so F falls pointwise and
    smaller alphas stay feasible; the fixed points merge at the exact alpha.

    The search keeps that bracket and shrinks it by Illinois false position
    (Dowell & Jarratt 1971) on the scaled discriminant
    z = (tr(M)^2 - 4 det M) / (tr(M)^2 + 4 det M), which _feasible returns
    with its verdict: z lies in (-1, 1], is positive on the feasible side
    and crosses 0 at the exact alpha.  The first test is at
    min(1/4, 1/Delta), Delta the largest degree, which the exact alpha never
    exceeds (rho is at least the Delta-edge star's Delta^(1/k) and the
    cycle's 4^(1/k)).  Each later test is the secant root of z between the
    ends, moved to the nearest float inside the bracket if it rounds onto an
    end, or the midpoint when hi has no negative z (where a slack or tr M
    is not positive, z is None).  An end kept twice in a row has its z
    halved, so the other end moves too.  A new hi with z exactly 0, where
    the last hi's z was not, is followed by a test at the float below it:
    on a pure cycle the first test lands on alpha = 1/4 exactly, and a zero
    z gives no secant step.  A z that stays 0 falls back to midpoints, so
    the search never crawls one float at a time.  Only _feasible decides
    which end a test replaces.
    """
    if not h._linear_unicyclic:
        raise ValueError("the alpha route needs a connected linear unicyclic hypergraph")
    trees, branches, beads = h._peel[:3]
    lo, hi, z_lo, z_hi, kept = 0.0, 1.0, 1.0, None, None  # z(0) = 1: every c_i is 0
    x = min(0.25, 1.0 / max(h.degrees))
    while True:
        ok, z = _feasible(x, trees, branches, beads)
        step_down = not ok and z == 0 and z_hi != 0
        if ok:
            lo, z_lo = x, z
            if kept == "hi" and z_hi is not None:
                z_hi *= 0.5
            kept = "hi"
        else:
            hi, z_hi = x, z
            if kept == "lo":
                z_lo *= 0.5
            kept = "lo"
        if (mid := 0.5 * (lo + hi)) in (lo, hi):
            return lo, hi
        x = mid
        if step_down:
            x = math.nextafter(hi, 0.0)
        elif z_hi is not None and z_hi < 0:  # z_lo > 0 always: feasible means tr^2 > 4 det
            x = lo + (hi - lo) * (z_lo / (z_lo - z_hi))
            x = min(max(x, math.nextafter(lo, 1.0)), math.nextafter(hi, 0.0))


def _feasible(alpha: float, trees: list, branches: list,
              beads: list) -> tuple[bool, float | None]:
    """solve_alpha's test at one alpha, in floats, and its scaled
    discriminant z, or None where a slack or tr M is not positive."""
    slack = [1.0] * len(trees)  # 1 - D(tree t), subtrees first
    for t, parts in enumerate(trees):
        for b in parts:
            slack[t] -= alpha / math.prod([slack[c] for c in branches[b]])
        if not slack[t] > 0:
            return False, None
    d = [slack[v] for v, _ in beads[1:] + beads[:1]]  # d_{i+1}
    c = [alpha / math.prod([slack[t] for t in side]) for _, side in beads]
    a, b, p, q, det = 1.0, 0.0, 0.0, 1.0, 1.0  # M / s = [[a, b], [p, q]], det(M / s)
    for di, ci in zip(d, c):  # s rescales each step: M's entries shrink like c^(g/2)
        a, b, p, q = di * a - ci * p, di * b - ci * q, a, b
        s = max(abs(a), abs(b), abs(p), abs(q))
        a, b, p, q, det = a / s, b / s, p / s, q / s, det * ci / s / s
    tr = a + q
    if not tr > 0:
        return False, None
    disc = tr * tr - 4.0 * det
    z = disc / (tr * tr + 4.0 * det)
    if not (disc > 0 and p > 0):
        return False, z
    x = (0.5 * (tr + math.sqrt(disc)) - q) / p  # the attracting fixed point
    for di, ci in zip(d, c):
        if not x > 0:
            return False, z
        x = di - ci / x
    return True, z


def spectral_radius_alpha(h: Hypergraph) -> SpectralResult:
    """rho = lo^(-1/k) from solve_alpha's bracket, and the bracket's width
    on rho, lo^(-1/k) - hi^(-1/k), as the residual."""
    lo, hi = solve_alpha(h)
    rho = rho_from_alpha(lo, h.k)
    return SpectralResult(rho=rho, perron=None, residual=rho - rho_from_alpha(hi, h.k),
                          iterations=0, method="alpha-normal")


# --- closed-form constructions ------------------------------------------------

def _base_weights(h: Hypergraph, roles, alpha: float) -> dict[tuple[int, int], float]:
    """Weight 1 on every cored vertex, alpha on every pendant anchor."""
    w: dict[tuple[int, int], float] = {}
    deg = h.degrees
    for j, e in enumerate(h.edges):
        for v in e:
            if deg[v] == 1:
                w[(v, j)] = 1.0
    for j in roles.pendants_v2:
        w[(roles.v2, j)] = alpha
    for j in roles.pendants_w:
        w[(roles.w, j)] = alpha
    return w


def _build_exact(h: Hypergraph, roles, alpha: float) -> WeightedIncidence:
    """The exact labeling shared by P and O: the cored cycle vertex w keeps
    c = 1 - (pendants at w) * alpha on its cycle edge, and beta = sqrt(alpha/c)
    closes the cycle consistently."""
    c = 1.0 - len(roles.pendants_w) * alpha
    beta = math.sqrt(alpha / c)
    if beta >= 1.0:
        raise ValueError("alpha too large: cycle weight would not be positive")
    w = _base_weights(h, roles, alpha)
    w[(roles.w, roles.e3)] = c
    w[(roles.v1, roles.e3)] = beta
    w[(roles.v3, roles.e3)] = beta
    w[(roles.v1, roles.e1)] = 1.0 - beta
    w[(roles.v3, roles.e2)] = 1.0 - beta
    w[(roles.v2, roles.e1)] = alpha / (1.0 - beta)
    w[(roles.v2, roles.e2)] = alpha / (1.0 - beta)
    return WeightedIncidence(hypergraph=h, weights=w)


def build_B_P(m: int, k: int, alpha: float) -> WeightedIncidence:
    """The exact P-family labeling; alpha-normal iff f_P(alpha, m-4) = 1."""
    h, roles = family_p_with_roles(k, m)
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha={alpha} outside (0, 1/2)")
    return _build_exact(h, roles, alpha)


def build_B_O(m: int, k: int, alpha: float) -> WeightedIncidence:
    """The exact O-family labeling; alpha-normal iff f_O(alpha, m-4) = 1.

    m = 4 is allowed (a single pendant edge at the cored cycle vertex) and
    is used as a numerical cross-check only.
    """
    h, roles = family_o_with_roles(k, m)
    r = m - 4
    if not 0.0 < alpha < 1.0 / (r + 2):
        raise ValueError(f"alpha={alpha} outside (0, 1/(r+2)) for r={r}")
    return _build_exact(h, roles, alpha)


def build_B_Q_supernormal(m: int, k: int, alpha: float) -> WeightedIncidence:
    """The slack Q-family labeling at the P-family root alpha.

    Taking the cycle weight x = gamma(alpha) makes the labeling consistent
    by construction; every row sums to 1 and every edge product equals
    alpha except the max-degree row, which sums to
    alpha/(1-beta) + alpha/((1-alpha)*gamma) + r*alpha > 1.
    """
    h, roles = family_q_with_roles(k, m)
    if not 0.0 < alpha <= 0.2 + 1e-12:
        raise ValueError(f"alpha={alpha} outside (0, 1/5]")
    g = gamma(alpha)
    if not g < 1.0:  # alpha below about 1e-32
        raise ValueError(f"alpha={alpha} too small: the cycle weight gamma rounds to 1")
    beta = alpha / (1.0 - g)
    if beta >= 1.0:
        raise ValueError("alpha too large: cycle weight would not be positive")
    w = _base_weights(h, roles, alpha)
    w[(roles.w, roles.e2)] = 1.0 - alpha
    w[(roles.v3, roles.e2)] = g
    w[(roles.v2, roles.e2)] = alpha / ((1.0 - alpha) * g)
    w[(roles.v3, roles.e3)] = 1.0 - g
    w[(roles.v1, roles.e3)] = beta
    w[(roles.v1, roles.e1)] = 1.0 - beta
    w[(roles.v2, roles.e1)] = alpha / (1.0 - beta)
    return WeightedIncidence(hypergraph=h, weights=w)


def weights_to_text(w: WeightedIncidence) -> str:
    """Sparse (vertex, edge, weight) triples, 17 significant digits."""
    lines = [
        f"{v} {j} {format(w.weights[(v, j)], '.17g')}"
        for (v, j) in sorted(w.weights)
    ]
    return "\n".join(lines) + "\n"
