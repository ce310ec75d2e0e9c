"""Exhaustive enumeration, spectral ranking, and the inequality suite.

Enumeration grows connected linear unicyclic k-uniform hypergraphs level by
level: seed with the cycle powers C_g^k (3 <= g <= m) and repeatedly attach
a fresh pendant edge sharing exactly one vertex with the current hypergraph.
Any attachment sharing two or more vertices would either create a second
cycle or break linearity, so this growth rule is complete for the target
class; the m=4 hand count is pinned in the tests.  Isomorphic duplicates
are removed at every level via canonical forms, which keeps both the
frontier small and the output order deterministic.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .alpha_normal import rho_from_alpha, solve_alpha_O, solve_alpha_P
from .canonical import canonical_form, canonical_id, canonicalize, encode_canonical
from .families import FamilySpec, _attach_pendants, family, simple_family_graph
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
    "RankEntry",
    "rank_by_rho",
    "InstanceCheck",
    "VerificationReport",
    "verify_suite",
    "LARGE_POOL_THRESHOLD",
    "CROSS_METHOD_TOL",
    "TIE_TOL",
]

LARGE_POOL_THRESHOLD = 7  # enumeration beyond this edge count is opt-in
CROSS_METHOD_TOL = 1e-8
TIE_TOL = 1e-9


class CapExceededError(RuntimeError):
    """Raised when an enumeration level holds more classes than `cap`."""


def _expand_entry(args: tuple[int, tuple[tuple[int, ...], ...]]) -> list[tuple]:
    """Canonical edge lists of every one-pendant extension of one class."""
    k, edges = args
    n = 1 + max(v for e in edges for v in e)
    h = Hypergraph(k=k, n=n, edges=edges)
    return [canonicalize(_attach_pendants(h, [v])).edges for v in range(h.n)]


def enumerate_linear_unicyclic(
    k: int,
    m: int,
    *,
    jobs: int = 1,
    allow_large: bool = False,
    cap: int | None = None,
    _shuffle_seed: int | None = None,
) -> list[Hypergraph]:
    """All isomorphism classes of connected linear unicyclic k-uniform
    hypergraphs with m edges, as canonical representatives in canonical
    order.

    Enumeration with m >= 7 must be opted into with allow_large; `cap`
    bounds the per-level class count and raises when exceeded.  The
    `_shuffle_seed` hook reorders the expansion schedule (the result must
    be identical; exercised by the determinism tests).
    """
    if k < 3:
        raise ValueError("enumeration needs k >= 3")
    if m < 3:
        raise ValueError("no linear unicyclic hypergraph has fewer than 3 edges")
    if m >= LARGE_POOL_THRESHOLD and not allow_large:
        raise ValueError(
            f"enumeration at m={m} is expensive; pass allow_large=True (or --allow-large)"
        )
    rng = random.Random(_shuffle_seed) if _shuffle_seed is not None else None
    # canonical representatives are equal iff isomorphic, so (n, edges) is the key
    level: dict[tuple, Hypergraph] = {}
    executor = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
        for j in range(3, m + 1):
            nxt: dict[tuple, Hypergraph] = {}
            seed = canonicalize(
                family(FamilySpec(tag="CyclePower", k=k, m=j, g=j))
            )
            nxt[(seed.n, seed.edges)] = seed
            work = [(k, h.edges) for h in level.values()]
            if rng is not None:
                rng.shuffle(work)
            if executor is not None and work:
                batches = executor.map(_expand_entry, work, chunksize=8)
            else:
                batches = map(_expand_entry, work)
            for batch in batches:
                for edges in batch:
                    n = 1 + max(v for e in edges for v in e)
                    if (n, edges) not in nxt:
                        nxt[(n, edges)] = Hypergraph(k=k, n=n, edges=edges, _canonical=True)
            if cap is not None and len(nxt) > cap:
                raise CapExceededError(
                    f"class cap exceeded at m={j}: {len(nxt)} > {cap}"
                )
            level = nxt
    finally:
        if executor is not None:
            executor.shutdown()
    return sorted(level.values(), key=encode_canonical)


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
        return {
            "k": self.k,
            "m": self.m,
            "detail": self.detail,
            "lhs_label": self.lhs_label,
            "rhs_label": self.rhs_label,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "tolerance": self.tolerance,
            "status": self.status,
        }


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
    form: str  # canonical form of hypergraph
    tensor: SpectralResult
    cross: float | None
    cross_kind: str | None


class _FamilyCache:
    """Spectral radii of family members, each cross-checked by a second
    route where one exists (exact alpha labeling for P and O, the power
    shortcut for the power families)."""

    def __init__(self, opts: IterationOptions):
        self.opts = opts
        self._vals: dict[tuple, _FamilyValue] = {}

    def value(self, tag: str, k: int, m: int, g: int | None = None) -> _FamilyValue:
        key = (tag, k, m, g)
        if key in self._vals:
            return self._vals[key]
        h = family(FamilySpec(tag=tag, k=k, m=m, g=g))
        tensor = spectral_radius_tensor(h, self.opts)
        cross: float | None = None
        kind: str | None = None
        if tag in ("Hyperstar", "CyclePower", "S", "T1", "T2", "U1"):
            cross = spectral_radius_power_formula(
                simple_family_graph(tag, m, g), k, self.opts
            )
            kind = "power-formula"
        elif tag == "P":
            cross = rho_from_alpha(solve_alpha_P(m - 4), k)
            kind = "alpha-normal"
        elif tag == "O":
            cross = rho_from_alpha(solve_alpha_O(m - 4), k)
            kind = "alpha-normal"
        label = f"{tag}(m={m})" if g is None else f"{tag}(m={m},g={g})"
        val = _FamilyValue(
            label=label, hypergraph=h, form=canonical_form(h), tensor=tensor,
            cross=cross, cross_kind=kind,
        )
        self._vals[key] = val
        return val

    def all_values(self) -> list[_FamilyValue]:
        return [self._vals[key] for key in sorted(self._vals, key=repr)]


# (claim id, description, domain min m, [(lhs tag/g, rhs tag/g)])
_PAIR_CLAIMS = [
    ("Q<T1", "pendant edge on a hub cycle edge loses to a pendant at a degree-2 cycle vertex", 5,
     ("Q", None), ("T1", None)),
    ("P<Q", "pendant edge on the far cycle edge loses to one adjacent to the hub", 5,
     ("P", None), ("Q", None)),
    ("O<P", "all pendants at one cored cycle vertex lose to the split P shape", 5,
     ("O", None), ("P", None)),
    ("S4<O", "girth-4 star power loses to the cored-vertex hyperstar shape", 4,
     ("S", 4), ("O", None)),
    ("T2<U1", "two pendants at a degree-2 cycle vertex lose to the extended star leaf", 8,
     ("T2", None), ("U1", None)),
    ("U1<Q", "extended star leaf loses to the pendant on a hub cycle edge", 5,
     ("U1", None), ("Q", None)),
]


def _pass_status(gap: float, margin: float) -> str:
    return "pass" if gap > margin else "fail"


def verify_suite(
    k: int,
    m_lo: int,
    m_hi: int,
    opts: IterationOptions | None = None,
) -> list[VerificationReport]:
    """Evaluate the spectral-order inequalities on every m in [m_lo, m_hi].

    Each inequality passes only when its strict gap exceeds 10x the
    iteration tolerance; instances outside a claim's domain are marked
    "na" and never counted as passes.  A cross-method agreement claim
    covers every family value computed along the way.
    """
    if m_lo > m_hi:
        raise ValueError("empty m range")
    opts = opts or IterationOptions(tolerance=1e-10)
    margin = 10.0 * opts.tolerance
    cache = _FamilyCache(opts)
    reports: list[VerificationReport] = []

    def na(m: int, detail: str = "") -> InstanceCheck:
        return InstanceCheck(
            k=k, m=m, detail=detail, lhs_label="", rhs_label="", lhs=None,
            rhs=None, gap=None, tolerance=opts.tolerance, status="na",
        )

    for claim, desc, dom, (lt, lg), (rt, rg) in _PAIR_CLAIMS:
        instances = []
        for m in range(m_lo, m_hi + 1):
            if m < dom:
                instances.append(na(m))
                continue
            lhs = cache.value(lt, k, m, lg)
            rhs = cache.value(rt, k, m, rg)
            gap = rhs.tensor.rho - lhs.tensor.rho
            instances.append(
                InstanceCheck(
                    k=k, m=m, detail="", lhs_label=lhs.label, rhs_label=rhs.label,
                    lhs=lhs.tensor.rho, rhs=rhs.tensor.rho, gap=gap,
                    tolerance=opts.tolerance, status=_pass_status(gap, margin),
                )
            )
        reports.append(_finish(claim, desc, instances))

    # decreasing in girth: S(m,g) < S(m,g-1) for each 4 <= g <= m
    instances = []
    for m in range(m_lo, m_hi + 1):
        if m < 4:
            instances.append(na(m))
            continue
        for g in range(4, m + 1):
            lhs = cache.value("S", k, m, g)
            rhs = cache.value("S", k, m, g - 1)
            gap = rhs.tensor.rho - lhs.tensor.rho
            instances.append(
                InstanceCheck(
                    k=k, m=m, detail=f"g={g}", lhs_label=lhs.label,
                    rhs_label=rhs.label, lhs=lhs.tensor.rho, rhs=rhs.tensor.rho,
                    gap=gap, tolerance=opts.tolerance,
                    status=_pass_status(gap, margin),
                )
            )
    reports.append(
        _finish(
            "S-girth-monotone",
            "star-on-cycle powers lose spectral radius as the girth grows",
            instances,
        )
    )

    # the slack certificate really does place Q above P's exact value
    instances = []
    for m in range(m_lo, m_hi + 1):
        if m < 5:
            instances.append(na(m))
            continue
        bound = rho_from_alpha(solve_alpha_P(m - 4), k)
        q = cache.value("Q", k, m)
        gap = q.tensor.rho - bound
        instances.append(
            InstanceCheck(
                k=k, m=m, detail="", lhs_label=f"alpha-bound(m={m})",
                rhs_label=q.label, lhs=bound, rhs=q.tensor.rho, gap=gap,
                tolerance=opts.tolerance, status=_pass_status(gap, margin),
            )
        )
    reports.append(
        _finish(
            "Q-above-alpha-bound",
            "rho(Q) strictly exceeds the exact alpha value of P (slack certificate)",
            instances,
        )
    )

    # family-pool placements (coincident shapes excluded by canonical form)
    def pool_values(m: int) -> list[_FamilyValue]:
        vals = [cache.value("S", k, m, g) for g in range(3, m + 1)]
        if m >= 4:
            vals.append(cache.value("T1", k, m))
            vals.append(cache.value("O", k, m))
        if m >= 5:
            vals.extend(
                cache.value(tag, k, m) for tag in ("T2", "U1", "P", "Q")
            )
        return vals

    for claim, desc, dom, winners in (
        (
            "T1-second-in-family-pool",
            "among the named families, T1 is strictly second behind S(m,3)",
            5,
            ("T1",),
        ),
        (
            "Q-third-in-family-pool",
            "among the named families, Q is strictly third behind S(m,3) and T1",
            8,
            ("T1", "Q"),
        ),
    ):
        instances = []
        for m in range(m_lo, m_hi + 1):
            if m < dom:
                instances.append(na(m))
                continue
            vals = pool_values(m)
            top = cache.value("S", k, m, 3)
            skip_forms = {top.form}
            chain = [top]
            for tag in winners:
                v = cache.value(tag, k, m)
                skip_forms.add(v.form)
                chain.append(v)
            for above, below in zip(chain, chain[1:]):
                gap = above.tensor.rho - below.tensor.rho
                instances.append(
                    InstanceCheck(
                        k=k, m=m, detail="order", lhs_label=below.label,
                        rhs_label=above.label, lhs=below.tensor.rho,
                        rhs=above.tensor.rho, gap=gap, tolerance=opts.tolerance,
                        status=_pass_status(gap, margin),
                    )
                )
            target = chain[-1]
            for v in vals:
                if v.form in skip_forms:
                    continue
                gap = target.tensor.rho - v.tensor.rho
                instances.append(
                    InstanceCheck(
                        k=k, m=m, detail="pool", lhs_label=v.label,
                        rhs_label=target.label, lhs=v.tensor.rho,
                        rhs=target.tensor.rho, gap=gap, tolerance=opts.tolerance,
                        status=_pass_status(gap, margin),
                    )
                )
        reports.append(_finish(claim, desc, instances))

    # cross-method agreement over everything computed above
    instances = []
    for val in cache.all_values():
        if val.cross is None:
            continue
        diff = abs(val.tensor.rho - val.cross)
        gap = CROSS_METHOD_TOL - diff
        instances.append(
            InstanceCheck(
                k=k, m=val.hypergraph.m, detail=val.cross_kind or "",
                lhs_label=f"|tensor-{val.cross_kind}| {val.label}",
                rhs_label=f"{CROSS_METHOD_TOL}", lhs=diff, rhs=CROSS_METHOD_TOL,
                gap=gap, tolerance=opts.tolerance,
                status="pass" if diff <= CROSS_METHOD_TOL else "fail",
            )
        )
    reports.append(
        _finish(
            "cross-method",
            "tensor iteration agrees with the independent second route",
            instances,
        )
    )
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
