"""Exhaustive enumeration, spectral ranking, and the inequality suite.

A connected linear unicyclic k-uniform hypergraph is a cycle of g >= 3
edges with hypertrees hanging off it.  Read around the cycle, it is a
sequence of g beads: bead i is the vertex-rooted hypertree at cycle vertex
i together with the multiset of k - 2 rooted hypertrees on the side
vertices of cycle edge i (the edge from cycle vertex i to i + 1).  Two such
hypergraphs are isomorphic iff their bead sequences agree up to the
dihedral group: a rotation shifts the beads, and a reflection maps bead i
to (V_{-i}, E_{-i-1}), the tree at vertex -i with the side trees of the
edge that now leaves it.

The constructor numbers the rooted trees by edge count (a branch is an
edge carrying k - 1 rooted subtrees, a tree is a multiset of branches),
emits, for each girth, every bead sequence whose trees hold the other
m - g edges and that is least among its 2g rotations and reflections, and
builds each such sequence once.  Every class therefore appears exactly
once, and no deduplication is needed (isomorph-free generation in the
sense of McKay, J. Algorithms 1998).

`pool_size` counts the same classes without building them, from the
ordinary generating functions of that decomposition (Polya counting, as in
Harary & Palmer, Graphical Enumeration, 1973): rooted trees R are the
Euler transform of x Z(S_{k-1}; R), a cycle edge with its side trees is
E = x Z(S_{k-2}; R), a bead is F = R E, and Burnside's lemma over the
dihedral group of each girth gives the number of necklaces.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import product
from math import gcd

from .alpha_normal import rho_from_alpha, solve_alpha_O, solve_alpha_P
from .canonical import canonical_form, canonical_id, canonicalize, encode_canonical
from .families import FamilySpec, family, simple_family_graph
from .hypergraph import Hypergraph
from .spectral import (
    IterationOptions,
    SpectralResult,
    spectral_radii_tensor,
    spectral_radius_power_formula,
    spectral_radius_tensor,
)

__all__ = [
    "CapExceededError",
    "enumerate_linear_unicyclic",
    "pool_size",
    "RankEntry",
    "rank_by_rho",
    "InstanceCheck",
    "VerificationReport",
    "verify_suite",
    "DEFAULT_CAP",
    "CROSS_METHOD_TOL",
    "TIE_TOL",
]

DEFAULT_CAP = 20000  # above every pool with m <= 10, below every one with m >= 11
CROSS_METHOD_TOL = 1e-8
TIE_TOL = 1e-9


class CapExceededError(RuntimeError):
    """Raised when a pool holds more classes than `cap`."""


# --- counting ----------------------------------------------------------------

def _mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two power series truncated to len(a) terms."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                out[i + j] += x * b[j]
    return out


def _at(a: list[int], d: int) -> list[int]:
    """a(x^d), truncated to len(a) terms."""
    out = [0] * len(a)
    out[::d] = a[: (len(a) - 1) // d + 1]
    return out


def _rooted(k: int, m: int) -> tuple[list[int], list[int]]:
    """Rooted trees, and edges with a rooted tree on k-2 of their vertices,
    counted by edges up to x^m.

    A rooted tree is a multiset of branches, and a branch is an edge at the
    root with a tree on each of its k-1 other vertices: r = Euler(b) with
    b = x Z(S_{k-1}; r).  Coefficient n of r needs only b_1..b_n, and b_n
    only r_0..r_{n-1}, so the series grows one coefficient at a time:
    z[i][t] = [x^t] Z(S_i; r) through i Z(S_i) = sum_j r(x^j) Z(S_{i-j}),
    and n r_n = sum_j c_j r_{n-j} with c_j = sum_{d | j} d b_d.
    """
    r = [1] + [0] * m
    z = [[1] + [0] * m] + [[0] * (m + 1) for _ in range(k - 1)]
    c = [0] * (m + 1)
    for n in range(1, m + 1):
        t = n - 1
        for i in range(1, k):  # exact: i Z(S_i) has integer terms
            z[i][t] = sum(
                r[s] * z[i - j][t - j * s] for j in range(1, i + 1) for s in range(t // j + 1)
            ) // i
        for j in range(n, m + 1, n):
            c[j] += n * z[k - 1][t]  # n b_n
        r[n] = sum(c[j] * r[n - j] for j in range(1, n + 1)) // n
    return r, [0] + z[k - 2][:m]


def _phi(d: int) -> int:
    return sum(1 for i in range(1, d + 1) if gcd(i, d) == 1)


def pool_size(k: int, m: int) -> int:
    """Number of isomorphism classes of connected linear unicyclic k-uniform
    hypergraphs with m edges (0 for m < 3), by exact integer arithmetic."""
    if k < 2:
        raise ValueError("uniformity k must be >= 2")
    if m < 3:
        return 0
    rooted, edge = _rooted(k, m)
    bead = _mul(rooted, edge)
    r2, e2 = _at(rooted, 2), _at(edge, 2)
    pair = _mul(r2, e2)
    bead_pow, pair_pow = [[1] + [0] * m], [[1] + [0] * m]  # bead^e, pair^e
    for _ in range(m):
        bead_pow.append(_mul(bead_pow[-1], bead))
        pair_pow.append(_mul(pair_pow[-1], pair))
    axes = [a + b for a, b in zip(_mul(_mul(rooted, rooted), e2), _mul(_mul(edge, edge), r2))]
    total = 0
    for g in range(3, m + 1):
        # bead(x^d)^(g/d) has x^m coefficient bead^(g/d)[m/d], or 0 if d does not divide m
        fixed = sum(
            _phi(d) * bead_pow[g // d][m // d]
            for d in range(1, g + 1) if g % d == 0 and m % d == 0
        )
        # a reflection's axis runs through a vertex and the opposite edge (odd
        # g: g axes, each fixing bead pair^((g-1)/2)), or through two opposite
        # vertices or two opposite edges (even g: g/2 of each, fixing
        # rooted^2 e2 pair^(g/2-1) and edge^2 r2 pair^(g/2-1))
        if g % 2:
            axis, side = g, _mul(bead, pair_pow[(g - 1) // 2])
        else:
            axis, side = g // 2, _mul(axes, pair_pow[g // 2 - 1])
        fixed += axis * side[m]
        total += fixed // (2 * g)
    return total


# --- construction ------------------------------------------------------------

def _picks(sizes: list[int], total: int, count: int | None, lo: int = 0):
    """Non-decreasing tuples of ids >= lo whose sizes sum to total: exactly
    `count` ids, or any number of them when count is None.  Ids are numbered
    in order of size, and every size is >= 1 when count is None."""
    if count == 0 or (count is None and total == 0):
        if total == 0:
            yield ()
        return
    rest = None if count is None else count - 1
    for i in range(lo, len(sizes)):
        if sizes[i] > total:
            break
        for tail in _picks(sizes, total - sizes[i], rest, i):
            yield (i,) + tail


def _compositions(total: int, parts: int, lo: int):
    """Tuples of `parts` integers >= lo that sum to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for s in range(lo, total - lo * (parts - 1) + 1):
        for tail in _compositions(total - s, parts - 1, lo):
            yield (s,) + tail


class _Beads:
    """Rooted trees, branches and beads with at most `top` edges off the
    cycle, each numbered in order of size."""

    def __init__(self, k: int, top: int):
        self.k = k
        self.trees: list[tuple[int, ...]] = [()]  # branch ids
        tree_size = [0]
        self.branches: list[tuple[int, ...]] = []  # k - 1 tree ids
        branch_size: list[int] = []
        for s in range(1, top + 1):
            for kids in _picks(tree_size, s - 1, k - 1):
                self.branches.append(kids)
                branch_size.append(s)
            for parts in _picks(branch_size, s, None):
                self.trees.append(parts)
                tree_size.append(s)
        # bead = (tree at the cycle vertex, k - 2 tree ids on the side vertices)
        self.beads: list[tuple[int, tuple[int, ...]]] = []
        self.by_size: list[range] = []
        for s in range(top + 1):
            start = len(self.beads)
            for v, a in enumerate(tree_size):
                if a <= s:
                    self.beads += [(v, side) for side in _picks(tree_size, s - a, k - 2)]
            self.by_size.append(range(start, len(self.beads)))
        self.index = {b: i for i, b in enumerate(self.beads)}

    def necklaces(self, g: int, total: int):
        """Bead sequences of length g with `total` edges off the cycle, each
        the least of its 2g rotations and reflections."""
        for s0 in range(total // g + 1):
            for sizes in _compositions(total - s0, g - 1, s0):
                for first in self.by_size[s0]:
                    rest = [range(max(first, self.by_size[s].start), self.by_size[s].stop)
                            for s in sizes]
                    for tail in product(*rest):
                        seq = (first,) + tail
                        if self._is_least(seq):
                            yield seq

    def _is_least(self, seq: tuple[int, ...]) -> bool:
        # a reading that starts above seq[0] is larger, so only the others are compared
        first, g = seq[0], len(seq)
        for i in range(1, g):
            if seq[i] == first and seq[i:] + seq[:i] < seq:
                return False
        beads = self.beads
        mirror = tuple(
            self.index[(beads[seq[-i]][0], beads[seq[-i - 1]][1])] for i in range(g)
        )
        for i in range(g):
            if mirror[i] <= first and mirror[i:] + mirror[:i] < seq:
                return False
        return True

    def build(self, seq: tuple[int, ...]) -> Hypergraph:
        """Canonical representative of the class a bead sequence reads."""
        k, g = self.k, len(seq)
        edges: list[tuple[int, ...]] = []
        todo: list[tuple[int, int]] = []  # (root vertex, tree id)
        n = g  # cycle vertices are 0..g-1
        for i, b in enumerate(seq):
            tree, side = self.beads[b]
            edges.append(tuple(sorted((i, (i + 1) % g, *range(n, n + k - 2)))))
            todo.append((i, tree))
            todo.extend(zip(range(n, n + k - 2), side))
            n += k - 2
        while todo:
            root, tree = todo.pop()
            for branch in self.trees[tree]:
                edges.append((root, *range(n, n + k - 1)))
                todo.extend(zip(range(n, n + k - 1), self.branches[branch]))
                n += k - 1
        return canonicalize(Hypergraph(k=k, n=n, edges=tuple(sorted(edges))))


def enumerate_linear_unicyclic(
    k: int,
    m: int,
    *,
    cap: int | None = DEFAULT_CAP,
) -> list[Hypergraph]:
    """All isomorphism classes of connected linear unicyclic k-uniform
    hypergraphs with m edges, as canonical representatives in canonical
    order.

    When the pool would hold more than `cap` classes (counted by
    pool_size), CapExceededError is raised before any class is built;
    cap=None lifts the cap.
    """
    if k < 3:
        raise ValueError("enumeration needs k >= 3")
    if m < 3:
        raise ValueError("no linear unicyclic hypergraph has fewer than 3 edges")
    if cap is not None and (size := pool_size(k, m)) > cap:
        raise CapExceededError(
            f"class cap exceeded at m={m}: {size} > {cap}; "
            "pass a larger --cap, or --allow-large to lift it"
        )
    beads = _Beads(k, m - 3)
    pool = [
        beads.build(seq) for g in range(3, m + 1) for seq in beads.necklaces(g, m - g)
    ]
    return sorted(pool, key=encode_canonical)


@dataclass(frozen=True)
class RankEntry:
    rank: int  # competition ranking; tied entries share it
    canonical_id: str
    rho: float
    tied: bool
    hypergraph: Hypergraph
    result: SpectralResult


def rank_by_rho(
    instances: list[Hypergraph],
    opts: IterationOptions | None = None,
) -> list[RankEntry]:
    """Sort by spectral radius, largest first.

    Consecutive values within TIE_TOL are treated as tied and ordered by
    canonical id inside the tie group.  A tie group is a chain of
    consecutive gaps <= TIE_TOL, so one group can span more than TIE_TOL
    from its largest to its smallest value.
    """
    results = spectral_radii_tensor(instances, opts)
    rows = [(res.rho, canonical_id(h), h, res) for h, res in zip(instances, results)]
    rows.sort(key=lambda r: -r[0])
    groups: list[list[tuple]] = []
    for row in rows:
        if groups and groups[-1][-1][0] - row[0] <= TIE_TOL:
            groups[-1].append(row)
        else:
            groups.append([row])
    out: list[RankEntry] = []
    pos = 1
    for grp in groups:
        grp.sort(key=lambda r: r[1])
        for rho, cid, h, res in grp:
            out.append(
                RankEntry(
                    rank=pos,
                    canonical_id=cid,
                    rho=rho,
                    tied=len(grp) > 1,
                    hypergraph=h,
                    result=res,
                )
            )
        pos += len(grp)
    return out


# --- inequality suite ---------------------------------------------------------

@dataclass(frozen=True)
class InstanceCheck:
    """One checked inequality instance; gap = rhs - lhs must clear the
    pass margin for status "pass"."""

    k: int
    m: int
    detail: str
    lhs_label: str
    rhs_label: str
    lhs: float | None
    rhs: float | None
    gap: float | None
    tolerance: float
    status: str  # "pass" | "fail" | "na"

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    description: str
    instances: tuple[InstanceCheck, ...]
    verdict: str  # "pass" | "fail" | "not-applicable"

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "description": self.description,
            "verdict": self.verdict,
            "instances": [inst.to_json_dict() for inst in self.instances],
        }


@dataclass(frozen=True)
class _FamilyValue:
    label: str
    hypergraph: Hypergraph
    rho: float  # tensor iteration
    cross: float | None  # the independent second route, where one exists
    cross_kind: str | None

    @cached_property
    def form(self) -> bytes:
        return canonical_form(self.hypergraph)


def _family_value(tag: str, k: int, m: int, g: int | None, opts: IterationOptions) -> _FamilyValue:
    """A family member's spectral radius, with its exact alpha labeling (P
    and O) or power shortcut (the power families) as a second route."""
    h = family(FamilySpec(tag=tag, k=k, m=m, g=g))
    cross: float | None = None
    kind: str | None = None
    if tag in ("Hyperstar", "CyclePower", "S", "T1", "T2", "U1"):
        cross = spectral_radius_power_formula(simple_family_graph(tag, m, g), k, opts)
        kind = "power-formula"
    elif tag in ("P", "O"):
        cross = rho_from_alpha((solve_alpha_P if tag == "P" else solve_alpha_O)(m - 4), k)
        kind = "alpha-normal"
    label = f"{tag}(m={m})" if g is None else f"{tag}(m={m},g={g})"
    return _FamilyValue(label, h, spectral_radius_tensor(h, opts).rho, cross, kind)


def verify_suite(
    k: int,
    m_lo: int,
    m_hi: int,
    opts: IterationOptions | None = None,
) -> list[VerificationReport]:
    """Evaluate the spectral-order inequalities on every m in [m_lo, m_hi].

    Each claim is one row of a table: its id, description, the least m in
    its domain, and the instances it checks at one m.  Every inequality
    instance is built by the local `check`, which holds the pass rule: the
    strict gap rhs - lhs must exceed 10x the iteration tolerance.
    Instances below a claim's domain are marked "na" and never counted as
    passes.  A cross-method agreement claim covers every family value
    computed along the way and passes when the two routes differ by at
    most CROSS_METHOD_TOL.
    """
    if m_lo > m_hi:
        raise ValueError("empty m range")
    opts = opts or IterationOptions(tolerance=1e-10)
    tol = opts.tolerance
    values: dict[tuple, _FamilyValue] = {}

    def value(tag: str, m: int, g: int | None = None) -> _FamilyValue:
        key = (tag, k, m, g)
        if key not in values:
            values[key] = _family_value(tag, k, m, g, opts)
        return values[key]

    def check(m: int, detail: str, lhs_label: str, lhs: float, rhs_label: str,
              rhs: float) -> InstanceCheck:
        gap = rhs - lhs
        return InstanceCheck(k, m, detail, lhs_label, rhs_label, lhs, rhs, gap, tol,
                             "pass" if gap > 10.0 * tol else "fail")

    def below(m: int, detail: str, lo: _FamilyValue, hi: _FamilyValue) -> InstanceCheck:
        return check(m, detail, lo.label, lo.rho, hi.label, hi.rho)

    def pair(lhs: str, rhs: str, lhs_g: int | None = None):
        return lambda m: [below(m, "", value(lhs, m, lhs_g), value(rhs, m))]

    def girth_steps(m: int) -> list[InstanceCheck]:
        return [below(m, f"g={g}", value("S", m, g), value("S", m, g - 1))
                for g in range(4, m + 1)]

    def alpha_bound(m: int) -> list[InstanceCheck]:
        q = value("Q", m)
        bound = rho_from_alpha(solve_alpha_P(m - 4), k)
        return [check(m, "", f"alpha-bound(m={m})", bound, q.label, q.rho)]

    def placement(*winners: str):
        # coincident shapes are excluded by canonical form
        def rows(m: int) -> list[InstanceCheck]:
            pool = [value("S", m, g) for g in range(3, m + 1)]
            pool += [value(tag, m) for tag in ("T1", "O", "T2", "U1", "P", "Q")]
            chain = [value("S", m, 3)] + [value(tag, m) for tag in winners]
            skip = {v.form for v in chain}
            out = [below(m, "order", lo, hi) for hi, lo in zip(chain, chain[1:])]
            return out + [below(m, "pool", v, chain[-1]) for v in pool if v.form not in skip]
        return rows

    # (claim id, description, least m of the domain, instances at one m)
    claims = [
        ("Q<T1", "pendant edge on a hub cycle edge loses to a pendant at a degree-2 cycle vertex",
         5, pair("Q", "T1")),
        ("P<Q", "pendant edge on the far cycle edge loses to one adjacent to the hub",
         5, pair("P", "Q")),
        ("O<P", "all pendants at one cored cycle vertex lose to the split P shape",
         5, pair("O", "P")),
        ("S4<O", "girth-4 star power loses to the cored-vertex hyperstar shape",
         4, pair("S", "O", lhs_g=4)),
        ("T2<U1", "two pendants at a degree-2 cycle vertex lose to the extended star leaf",
         8, pair("T2", "U1")),
        ("U1<Q", "extended star leaf loses to the pendant on a hub cycle edge",
         5, pair("U1", "Q")),
        ("S-girth-monotone", "star-on-cycle powers lose spectral radius as the girth grows",
         4, girth_steps),
        ("Q-above-alpha-bound",
         "rho(Q) strictly exceeds the exact alpha value of P (slack certificate)",
         5, alpha_bound),
        ("T1-second-in-family-pool",
         "among the named families, T1 is strictly second behind S(m,3)",
         5, placement("T1")),
        ("Q-third-in-family-pool",
         "among the named families, Q is strictly third behind S(m,3) and T1",
         8, placement("T1", "Q")),
    ]
    reports = []
    for claim, desc, dom, rows in claims:
        instances = []
        for m in range(m_lo, m_hi + 1):
            instances += rows(m) if m >= dom else [
                InstanceCheck(k, m, "", "", "", None, None, None, tol, "na")
            ]
        reports.append(_finish(claim, desc, instances))

    instances = []
    for key in sorted(values, key=repr):
        val = values[key]
        if val.cross is None:
            continue
        diff = abs(val.rho - val.cross)
        instances.append(InstanceCheck(
            k, val.hypergraph.m, val.cross_kind, f"|tensor-{val.cross_kind}| {val.label}",
            f"{CROSS_METHOD_TOL}", diff, CROSS_METHOD_TOL, CROSS_METHOD_TOL - diff, tol,
            "pass" if diff <= CROSS_METHOD_TOL else "fail",
        ))
    reports.append(_finish(
        "cross-method", "tensor iteration agrees with the independent second route", instances
    ))
    return reports


def _finish(claim: str, desc: str, instances: list[InstanceCheck]) -> VerificationReport:
    applicable = [inst for inst in instances if inst.status != "na"]
    if not applicable:
        verdict = "not-applicable"
    elif all(inst.status == "pass" for inst in applicable):
        verdict = "pass"
    else:
        verdict = "fail"
    return VerificationReport(
        claim=claim, description=desc, instances=tuple(instances), verdict=verdict
    )
