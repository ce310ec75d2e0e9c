"""Command-line interface.

Subcommands: build, profile, rho, alpha, transform, enumerate, rank,
verify.  Output is deterministic: floats are printed with 17 significant
digits and every collection is emitted in canonical order, so identical
invocations produce byte-identical output.

Exit codes: 0 success; 1 a verification claim failed; 2 invalid input or
flags; 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

# hyperspec makes no BLAS call, so numpy's BLAS thread pool only burns CPU;
# set before the first library import loads numpy.  A caller's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .alpha_normal import (
    build_B_O,
    build_B_P,
    build_B_Q_supernormal,
    check_normal,
    f_O,
    f_P,
    gamma,
    phi,
    psi,
    solve_alpha,
    spectral_radius_alpha,
    weights_to_text,
)
from .canonical import canonical_id
from .enumeration import (
    DEFAULT_CAP,
    VERIFY_TOL,
    CapExceededError,
    RankEntry,
    VerificationReport,
    enumerate_linear_unicyclic,
    rank_by_rho,
    verify_suite,
)
from .families import FAMILY_TAGS, FamilySpec, family
from .hypergraph import (
    _decimal,
    hypergraph_to_json,
    load_hypergraph,
    power_base,
    save_hypergraph,
    structural_profile,
)
from .spectral import (
    ConvergenceError,
    IterationOptions,
    spectral_radii_tensor,
    spectral_radius_power_formula,
    spectral_radius_tensor,
)
from .transforms import EdgeMove, move_edges, relocate, yss_move

_SCALARS = {"f_P": f_P, "f_O": f_O, "gamma": gamma, "phi": phi, "psi": psi}
_BUILDERS = {"P": build_B_P, "O": build_B_O, "Q": build_B_Q_supernormal}
MAX_SOLVE_R = 10000  # alpha solve --r, and alpha emit --m up to it + 4; 0.8 s and 1 s


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _fields(record) -> dict:
    """A dataclass's fields by name, in declaration order (a shallow copy)."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _render_json(obj) -> str:
    """JSON with 17-significant-digit floats and insertion-order keys.  A
    dataclass is an object whose keys are its fields in declaration order."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        # a Perron vector: "%.17g" is _fmt, in 19 ms per 40 006 entries against 29 ms one by one
        if set(map(type, obj)) == {float}:
            return "[" + ", ".join(["%.17g"] * len(obj)) % tuple(obj) + "]"
        return "[" + ", ".join(_render_json(v) for v in obj) + "]"
    if dataclasses.is_dataclass(obj):
        obj = _fields(obj)
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(key))}: {_render_json(val)}" for key, val in obj.items())
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot render {type(obj)!r}")


def _cell(value) -> str:
    """A md/csv cell: blank for None, yes/no for a bool, 17 digits for a float."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    return _fmt(value) if isinstance(value, float) else str(value)


def _table(header: list[str], rows: list[list[str]], fmt: str,
           tail: tuple[str, ...] = ()) -> str:
    """csv, or a markdown table followed by the lines of `tail`."""
    if fmt == "csv":
        quoted = [
            ",".join(f'"{c}"' if ("," in c or '"' in c) else c for c in row)
            for row in [header] + rows
        ]
        return "\n".join(quoted) + "\n"
    out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    out += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join([*out, *tail]) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write(h, out_path: str | None) -> None:
    """Save a hypergraph to `out_path`, or write its JSON to stdout."""
    if out_path:
        save_hypergraph(h, out_path)
    else:
        sys.stdout.write(hypergraph_to_json(h) + "\n")


class _BadInteger(Exception):
    """An integer flag's text is not plain decimal.  argparse would catch a
    ValueError from a flag's type and exit on its own; this one reaches
    run(), which exits 2 as for every other bad input."""


def _integer(text: str) -> int:
    """Plain ASCII decimal digits, as the text reader takes them: no sign,
    underscore, space or other numerals."""
    try:
        return _decimal(text)
    except ValueError as exc:
        raise _BadInteger(str(exc)) from None


def _iter_options(args, tolerance: float = IterationOptions.tolerance) -> IterationOptions:
    """--tol and --max-iter as given, the command's defaults where not."""
    return IterationOptions(
        tolerance=tolerance if args.tol is None else args.tol,
        max_iterations=IterationOptions.max_iterations if args.max_iter is None else args.max_iter,
    )


def _add_iter_flags(parser):
    # default None, so a command that runs no iteration can tell a flag was given
    parser.add_argument("--tol", type=float, default=None,
                        help="iteration tolerance (enclosure width)")
    parser.add_argument("--max-iter", type=_integer, default=None, dest="max_iter")


def _add_pool_flags(parser):
    parser.add_argument("--k", type=_integer, required=True)
    parser.add_argument("--m", type=_integer, required=True)
    parser.add_argument("--allow-large", action="store_const", const=None,
                        default=DEFAULT_CAP, dest="cap",
                        help=f"lift the cap of {DEFAULT_CAP} classes per pool")


def _parse_range(text: str) -> tuple[int, int]:
    """'a..b' inclusive, or a single integer."""
    if ".." in text:
        a, b = text.split("..", 1)
        return _integer(a), _integer(b)
    v = _integer(text)
    return v, v


# --- subcommand handlers ------------------------------------------------------

def _cmd_build(args) -> int:
    spec = FamilySpec(tag=args.family, k=args.k, m=args.m, g=args.g)
    _write(family(spec), args.output)
    return 0


def _cmd_profile(args) -> int:
    h = load_hypergraph(args.input)
    _emit(_render_json(structural_profile(h)) + "\n", args.output)
    return 0


def _cmd_rho(args) -> int:
    if args.perron and args.method != "tensor":  # the other routes compute no vector
        raise ValueError(f"--perron needs --method tensor (got --method {args.method})")
    h = load_hypergraph(args.input)
    opts = _iter_options(args)
    if args.method == "alpha" and (args.tol, args.max_iter) != (None, None):  # no iteration
        raise ValueError("--tol and --max-iter need --method tensor or power-formula "
                         "(got --method alpha)")
    if args.method == "tensor":
        res = spectral_radius_tensor(h, opts)
        if args.perron and 0.0 in res.perron:
            raise ValueError(
                f"{res.perron.count(0.0)} Perron entries lie below the smallest float and "
                "would print as 0.0, so the vector cannot certify rho; run without --perron"
            )
    elif args.method == "alpha":
        res = spectral_radius_alpha(h)
    else:  # power-formula
        base = power_base(h)
        if base is None:
            raise ValueError("input is not the power of a simple graph")
        res = spectral_radius_power_formula(base, h.k, opts)
    out = _fields(res)
    if not args.perron:
        del out["perron"]
    _emit(_render_json(out) + "\n", args.output)
    return 0


def _cmd_alpha(args) -> int:
    if args.action == "eval":
        fn, takes_r = _SCALARS[args.fn], args.fn in ("f_P", "f_O")
        if takes_r and args.r is None:
            raise ValueError(f"{args.fn} needs --r")
        if not takes_r and args.r is not None:
            raise ValueError(f"{args.fn} takes no --r")
        sys.stdout.write(_fmt(fn(args.alpha, args.r) if takes_r else fn(args.alpha)) + "\n")
        return 0
    if args.action == "solve":  # builds the member and searches over it: time linear in r
        if args.r > MAX_SOLVE_R:
            raise ValueError(f"alpha solve takes --r <= {MAX_SOLVE_R} (got {args.r})")
        exact = family(FamilySpec(args.family, 3, args.r + 4))  # alpha is the same at every k
        sys.stdout.write(_fmt(solve_alpha(exact)[0]) + "\n")
        return 0
    if args.m > MAX_SOLVE_R + 4:  # emit solves the member at m = r + 4, then writes it
        raise ValueError(f"alpha emit takes --m <= {MAX_SOLVE_R + 4} (got {args.m})")
    FamilySpec(args.family, args.k, args.m)  # checks m before alpha is solved
    exact = family(FamilySpec("O" if args.family == "O" else "P", args.k, args.m))  # Q uses P's
    alpha = args.alpha if args.alpha is not None else solve_alpha(exact)[0]
    w = _BUILDERS[args.family](args.m, args.k, alpha)
    report = check_normal(w, alpha)
    _emit(weights_to_text(w), args.output)
    sys.stdout.write(_render_json(report) + "\n")
    return 0


def _cmd_transform(args) -> int:
    if args.action == "move":
        h = load_hypergraph(args.input)
        moves = []
        for text in args.move:
            parts = text.split(",")
            if len(parts) != 3:
                raise ValueError(f"--move wants EDGE,SRC,DST, got {text!r}")
            edge, src, dst = map(_integer, parts)
            moves.append(EdgeMove(edge=edge, src=src, dst=dst))
        result = move_edges(h, moves)
        _write(result.hypergraph, args.output)
        sys.stdout.write(
            _render_json({"vertex_map": {str(a): b for a, b in sorted(result.vertex_map.items())}}) + "\n"
        )
        return 0
    if args.action == "yss":
        _write(yss_move(load_hypergraph(args.input), args.e, args.f), args.output)
        return 0
    # relocate
    g1 = load_hypergraph(args.input)
    g2 = load_hypergraph(args.attach)
    first, second = relocate(g1, args.v1, args.v2, g2, args.u)
    sys.stdout.write(hypergraph_to_json(first) + "\n")
    sys.stdout.write(hypergraph_to_json(second) + "\n")
    if args.output:
        save_hypergraph(first, args.output)
    if args.output2:
        save_hypergraph(second, args.output2)
    return 0


def _cmd_enumerate(args) -> int:
    opts = _iter_options(args)
    if not args.with_rho and (args.tol, args.max_iter) != (None, None):  # no radius, no iteration
        raise ValueError("--tol and --max-iter need --with-rho")
    pool = enumerate_linear_unicyclic(args.k, args.m, cap=args.cap)
    results = spectral_radii_tensor(pool, opts) if args.with_rho else None
    lines = []
    for i, h in enumerate(pool):
        row = {"canonical_id": canonical_id(h), "k": h.k, "n": h.n,
               "edges": [list(e) for e in h.edges]}
        if results is not None:
            row["rho"] = results[i].rho
        lines.append(_render_json(row))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _rank_table(entries: list[RankEntry], fmt: str) -> str:
    if fmt == "json":
        return _render_json(entries) + "\n"
    rows = [[_cell(v) for v in _fields(e).values()] for e in entries]
    return _table([f.name for f in dataclasses.fields(RankEntry)], rows, fmt)


def _cmd_rank(args) -> int:
    opts = _iter_options(args)
    pool = enumerate_linear_unicyclic(args.k, args.m, cap=args.cap)
    entries = rank_by_rho(pool, opts)
    _emit(_rank_table(entries, args.format), args.output)
    return 0


def _verify_table(reports: list[VerificationReport], fmt: str) -> str:
    if fmt == "json":
        return _render_json(reports) + "\n"
    cols = ["k", "m", "detail", "lhs", "rhs", "gap", "status"]  # no labels or tolerance
    rows = [[rep.claim, *(_cell(getattr(inst, c)) for c in cols)]
            for rep in reports for inst in rep.instances]
    summary = ("", "Summary:", *(f"- {rep.claim}: {rep.verdict}" for rep in reports))
    return _table(["claim", *cols], rows, fmt, summary)


def _cmd_verify(args) -> int:
    m_lo, m_hi = _parse_range(args.m)
    opts = _iter_options(args, tolerance=VERIFY_TOL)
    reports = verify_suite(args.k, m_lo, m_hi, opts)
    _emit(_verify_table(reports, args.format), args.output)
    return 1 if any(r.verdict == "fail" for r in reports) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperspec",
        description="Spectral radii of k-uniform hypergraphs and the ordering "
                    "of linear unicyclic families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write a family hypergraph to a file")
    p.add_argument("--family", required=True, choices=FAMILY_TAGS)
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("--g", type=_integer, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("profile", help="structural report for a hypergraph file")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("rho", help="spectral radius of a hypergraph file")
    p.add_argument("input")
    p.add_argument("--method", choices=["tensor", "alpha", "power-formula"],
                   default="tensor")
    p.add_argument("--perron", action="store_true",
                   help="include the Perron vector (--method tensor only)")
    p.add_argument("-o", "--output", default=None)
    _add_iter_flags(p)
    p.set_defaults(handler=_cmd_rho)

    p = sub.add_parser("alpha", help="scalar functions and incidence certificates")
    asub = p.add_subparsers(dest="action", required=True)
    pe = asub.add_parser("eval", help="evaluate a scalar function")
    pe.add_argument("--fn", required=True, choices=sorted(_SCALARS))
    pe.add_argument("--alpha", type=float, required=True)
    pe.add_argument("--r", type=_integer, default=None)
    pe.set_defaults(handler=_cmd_alpha)
    ps = asub.add_parser("solve", help="the exact alpha of the family at m = r + 4")
    ps.add_argument("--family", required=True, choices=["P", "O"])
    ps.add_argument("--r", type=_integer, required=True, help=f"at most {MAX_SOLVE_R}")
    ps.set_defaults(handler=_cmd_alpha)
    pm = asub.add_parser("emit", help="emit the family's weighted incidence matrix")
    pm.add_argument("--family", required=True, choices=["P", "O", "Q"])
    pm.add_argument("--m", type=_integer, required=True, help=f"at most {MAX_SOLVE_R + 4}")
    pm.add_argument("--k", type=_integer, required=True)
    pm.add_argument("--alpha", type=float, default=None,
                    help="override the solved alpha")
    pm.add_argument("-o", "--output", default=None)
    pm.set_defaults(handler=_cmd_alpha)

    p = sub.add_parser("transform", help="apply a rewiring operation")
    tsub = p.add_subparsers(dest="action", required=True)
    tm = tsub.add_parser("move", help="re-anchor edges at one target vertex")
    tm.add_argument("input")
    tm.add_argument("--move", action="append", required=True,
                    metavar="EDGE,SRC,DST")
    tm.add_argument("-o", "--output", default=None)
    tm.set_defaults(handler=_cmd_transform)
    ty = tsub.add_parser("yss", help="pendant-pattern re-anchoring move")
    ty.add_argument("input")
    ty.add_argument("--e", type=_integer, required=True)
    ty.add_argument("--f", type=_integer, required=True)
    ty.add_argument("-o", "--output", default=None)
    ty.set_defaults(handler=_cmd_transform)
    tr = tsub.add_parser("relocate", help="identification pair for two glue points")
    tr.add_argument("input")
    tr.add_argument("attach")
    tr.add_argument("--v1", type=_integer, required=True)
    tr.add_argument("--v2", type=_integer, required=True)
    tr.add_argument("--u", type=_integer, required=True)
    tr.add_argument("-o", "--output", default=None)
    tr.add_argument("--output2", default=None)
    tr.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("enumerate", help="all linear unicyclic classes as JSON lines")
    _add_pool_flags(p)
    p.add_argument("--with-rho", action="store_true", dest="with_rho")
    p.add_argument("-o", "--output", default=None)
    _add_iter_flags(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("rank", help="rank enumerated classes by spectral radius")
    _add_pool_flags(p)
    p.add_argument("--format", choices=["csv", "md", "json"], default="md")
    p.add_argument("-o", "--output", default=None)
    _add_iter_flags(p)
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("verify", help="run the inequality suite")
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--m", required=True, help="edge count or range a..b")
    p.add_argument("--format", choices=["csv", "md", "json"], default="md")
    p.add_argument("-o", "--output", default=None)
    _add_iter_flags(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, CapExceededError, _BadInteger) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
