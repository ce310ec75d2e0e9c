"""Benchmark of the hyperspec command line.

Usage, from the repository root:

    python3 bench/run.py --workload rank-pool --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --out bench/baseline.json

Every workload runs real CLI calls as child processes, one at a time, from
the source tree (PYTHONPATH=src, nothing installed, no --jobs).  A pass is
one run of all of a workload's calls; passes repeat until the next one
would end after --seconds (at least two passes, or one untraced and one
traced pass).  Every call's output is checked by bench/oracles.py, and a
call's stdout must be byte-identical in every pass.

--trace 0 reports the end-to-end metrics: wall, cpu and peak RSS of a pass
(medians over passes; cpu and RSS from os.wait4 of each child) and set-up
time, the median wall time of a CLI call that only imports and prints help.
--trace 1 alternates untraced and traced passes (bench/trace_child.py) and
reports per-layer metrics, medians over traced passes; traced numbers never
feed the end-to-end metrics.  All per-layer times are totals over one pass.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  `--workload all` runs every workload untraced and traced and can
write all numbers, the seed and the machine info to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TRACE_CHILD = os.path.join(BENCH_DIR, "trace_child.py")
CLI_MAIN = "from hyperspec.cli import main; main()"

SETUP_LAUNCHES = 11
CALL_TIMEOUT_S = 90
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Why each workload is here; the same text is in BENCHMARK.json.
WHY = {
    "rank-pool": "551 small graphs: expansion, canonical coding and many small tensor solves",
    "verify-sweep": "few large symmetric family graphs: canonical search on big graphs and the verify suite",
    "rho-large": "one large graph per call: tensor iteration and file loading, canonical and enumeration idle",
}

# rho-large inputs: (k, edges), sized so that each call takes about 2 s on a
# 2-core x86-64 box.  The graphs are drawn once from RHO_BASE_SEED and the
# workload seed relabels them: with a fresh graph per seed the sweep count
# ranges over 1 240..9 660 for one size, and the run time with it.
RHO_FILES = ((3, 20000), (4, 10000), (5, 6000))
RHO_BASE_SEED = 2020

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "canonical.calls": "count",
    "canonical.self_s": "s",
    "canonical.max_call_ms": "ms",
    "canonical.calls_per_class": "ratio",
    "enumeration.expand_self_s": "s",
    "enumeration.classes": "count",
    "enumeration.rank_self_s": "s",
    "enumeration.verify_self_s": "s",
    "enumeration.verify_instances": "count",
    "enumeration.verify_min_gap_over_margin": "ratio",
    "spectral.tensor_calls": "count",
    "spectral.tensor_self_s": "s",
    "spectral.tensor_sweeps": "count",
    "spectral.tensor_sweeps_max": "count",
    "spectral.tensor_ns_per_edge_sweep": "ns",
    "spectral.graph_calls": "count",
    "spectral.graph_self_s": "s",
    "spectral.graph_sweeps": "count",
    "alpha_normal.solve_calls": "count",
    "alpha_normal.self_s": "s",
    "families.calls": "count",
    "families.self_s": "s",
    "hypergraph.load_s": "s",
    "hypergraph.self_s": "s",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}
LIBRARY_LAYERS = ("hypergraph", "families", "canonical", "spectral", "alpha_normal", "enumeration")


@dataclass
class Call:
    argv: list[str]
    check: Callable[[int, bytes], list[str]]


# --- workloads ----------------------------------------------------------------

def random_unicyclic(k: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Edges of a linear unicyclic k-graph: the k-th power of a cycle of
    length 3..7, then pendant edges, each at a uniformly random vertex
    present when it is added, with k-1 new vertices."""
    g = int(rng.integers(3, 8))
    fresh = g + np.arange(g)[:, None] * (k - 2) + np.arange(k - 2)
    cycle = np.column_stack([np.arange(g), (np.arange(g) + 1) % g, fresh])
    before = g * (k - 1) + np.arange(m - g) * (k - 1)  # vertices before each pendant
    anchors = (rng.random(m - g) * before).astype(np.int64)
    pendants = np.column_stack([anchors, before[:, None] + np.arange(k - 1)])
    return np.vstack([cycle, pendants])


def write_rho_inputs(seed: int, workdir: str) -> list[Call]:
    calls = []
    for k, m in RHO_FILES:
        base = random_unicyclic(k, m, np.random.default_rng([RHO_BASE_SEED, k]))
        rng = np.random.default_rng([seed, k])
        n = int(base.max()) + 1
        edges = rng.permutation(n)[base]
        edges = edges[rng.permutation(m)]
        path = os.path.join(workdir, f"rho_k{k}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"k": k, "n": n, "edges": edges.tolist()}, fh)
        calls.append(Call(
            ["rho", os.path.relpath(path, ROOT), "--method", "tensor", "--perron"],
            lambda code, out, k=k, edges=edges: oracles.check_rho(code, out, k, edges),
        ))
    return calls


def make_calls(workload: str, seed: int, workdir: str) -> list[Call]:
    """The seed only changes rho-large's inputs; the other two workloads
    have fixed arguments."""
    if workload == "rank-pool":
        ref = oracles.load_rank_reference()
        return [Call(["rank", "--k", "3", "--m", "8", "--allow-large", "--format", "json"],
                     lambda code, out: oracles.check_rank_pool(code, out, ref))]
    if workload == "verify-sweep":
        return [Call(["verify", "--k", "3", "--m", "5..12", "--format", "json"], oracles.check_verify),
                Call(["verify", "--k", "4", "--m", "5..9", "--format", "json"], oracles.check_verify)]
    return write_rho_inputs(seed, workdir)


# --- child processes ----------------------------------------------------------

def spawn(prog: list[str], out_path: str, err_path: str, env: dict) -> tuple[int, float, float, float]:
    """Run prog to completion; return exit code, wall s, cpu s and peak RSS MB
    of this child alone (os.wait4, not RUSAGE_CHILDREN's running maximum)."""
    wr = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, wr, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, wr, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, prog, env, file_actions=actions)
    watchdog = threading.Timer(CALL_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


class Runner:
    """Runs calls, checks their output and counts failures."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._first_stdout: dict[str, bytes] = {}

    def call(self, argv: list[str], check, traced: bool = False) -> tuple[float, float, float, dict | None]:
        out = os.path.join(self.workdir, "stdout")
        err = os.path.join(self.workdir, "stderr")
        stats_path = os.path.join(self.workdir, "trace.json")
        if traced:
            prog = [sys.executable, TRACE_CHILD, stats_path, *argv]
        else:
            prog = [sys.executable, "-c", CLI_MAIN, *argv]
        if os.path.exists(stats_path):
            os.remove(stats_path)
        self.attempted += 1
        code, wall, cpu, rss = spawn(prog, out, err, self.env)
        with open(out, "rb") as fh:
            stdout = fh.read()
        errors = check(code, stdout)
        key = " ".join(argv)
        if self._first_stdout.setdefault(key, stdout) != stdout:
            errors.append("stdout differs from the first run of this call")
        if errors:
            self.failed += 1
            with open(err, "rb") as fh:
                tail = fh.read()[-300:].decode("ascii", "replace")
            self.errors.append(f"{key}: {'; '.join(errors)} | stderr: {tail}")
        stats = None
        if traced and os.path.exists(stats_path):
            with open(stats_path, encoding="ascii") as fh:
                stats = json.load(fh)
        return wall, cpu, rss, stats

    def run_pass(self, calls: list[Call], traced: bool) -> dict:
        walls, cpus, rsss, stats = [], [], [], []
        for c in calls:
            wall, cpu, rss, st = self.call(c.argv, c.check, traced)
            walls.append(wall)
            cpus.append(cpu)
            rsss.append(rss)
            if st is not None:
                stats.append(st)
        return {"wall": sum(walls), "cpu": sum(cpus), "rss": max(rsss), "stats": stats}


def help_ok(code: int, stdout: bytes) -> list[str]:
    return [] if code == 0 and stdout.startswith(b"usage: hyperspec") else [f"--help exited {code}"]


# --- metrics ------------------------------------------------------------------

def layer_metrics(stats: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass from its calls' statistics, and
    the self time of each library layer."""
    spans: dict[str, list] = {}
    counters = {"tensor_sweeps": 0, "tensor_sweeps_max": 0, "tensor_edge_sweeps": 0,
                "graph_sweeps": 0, "classes": 0, "verify_instances": 0}
    gaps = []
    import_s = 0.0
    for st in stats:
        import_s += st["import_s"]
        for key, (calls, entries, self_s, total_s, max_s) in st["spans"].items():
            rec = spans.setdefault(key, [0, 0, 0.0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += entries
            rec[2] += self_s
            rec[3] += total_s
            rec[4] = max(rec[4], max_s)
        for name in counters:
            if name == "tensor_sweeps_max":
                counters[name] = max(counters[name], st["counters"][name])
            else:
                counters[name] += st["counters"][name]
        if st["counters"]["verify_min_gap_over_margin"] is not None:
            gaps.append(st["counters"]["verify_min_gap_over_margin"])

    def span(key: str, field: int) -> float:
        return spans.get(key, [0, 0, 0.0, 0.0, 0.0])[field]

    def layer(name: str, field: int) -> float:
        return sum(rec[field] for key, rec in spans.items() if key.split(".")[0] == name)

    canon_calls = span("canonical.canonicalize", 0)
    tensor_self = span("spectral.spectral_radius_tensor", 2)
    canon_max = max((rec[4] for key, rec in spans.items() if key.startswith("canonical.")), default=0.0)
    metrics = {
        "canonical.calls": canon_calls,
        "canonical.self_s": layer("canonical", 2),
        "canonical.max_call_ms": 1e3 * canon_max,
        "canonical.calls_per_class": canon_calls / counters["classes"] if counters["classes"] else 0.0,
        "enumeration.expand_self_s": span("enumeration.enumerate_linear_unicyclic", 2),
        "enumeration.classes": counters["classes"],
        "enumeration.rank_self_s": span("enumeration.rank_by_rho", 2),
        "enumeration.verify_self_s": span("enumeration.verify_suite", 2),
        "enumeration.verify_instances": counters["verify_instances"],
        "enumeration.verify_min_gap_over_margin": min(gaps) if gaps else 0.0,
        "spectral.tensor_calls": span("spectral.spectral_radius_tensor", 0),
        "spectral.tensor_self_s": tensor_self,
        "spectral.tensor_sweeps": counters["tensor_sweeps"],
        "spectral.tensor_sweeps_max": counters["tensor_sweeps_max"],
        "spectral.tensor_ns_per_edge_sweep":
            1e9 * tensor_self / counters["tensor_edge_sweeps"] if counters["tensor_edge_sweeps"] else 0.0,
        "spectral.graph_calls": span("spectral.spectral_radius_graph", 0),
        "spectral.graph_self_s": span("spectral.spectral_radius_graph", 2),
        "spectral.graph_sweeps": counters["graph_sweeps"],
        "alpha_normal.solve_calls": span("alpha_normal.solve_alpha_P", 0) + span("alpha_normal.solve_alpha_O", 0),
        "alpha_normal.self_s": layer("alpha_normal", 2),
        "families.calls": layer("families", 1),
        "families.self_s": layer("families", 2),
        "hypergraph.load_s": span("hypergraph.load_hypergraph", 3),
        "hypergraph.self_s": layer("hypergraph", 2),
        "cli.self_s": span("cli.run", 2),
        "cli.import_s": import_s,
    }
    return metrics, {name: layer(name, 2) for name in LIBRARY_LAYERS}


def measure(runner: Runner, calls: list[Call], seconds: float, traced: bool) -> list[dict]:
    """Untraced passes, or untraced/traced pairs, until the next would end
    after `seconds`."""
    kinds = (False, True) if traced else (False,)
    rounds: list[list[dict]] = []
    start = time.perf_counter()
    while True:
        rounds.append([runner.run_pass(calls, kind) for kind in kinds])
        elapsed = time.perf_counter() - start
        if len(rounds) * len(kinds) >= 2 and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def run_workload(workload: str, seed: int, seconds: float, traced: bool, workdir: str) -> dict:
    runner = Runner(workdir)
    calls = make_calls(workload, seed, workdir)
    runner.call(["--help"], help_ok)  # warm-up: byte-code and file caches
    notes: list[str] = []
    if not traced:
        setup = [runner.call(["--help"], help_ok)[0] for _ in range(SETUP_LAUNCHES)]
        rounds = measure(runner, calls, seconds, traced=False)
        walls = [r[0]["wall"] for r in rounds]
        q1, med, q3 = statistics.quantiles(walls, n=4)
        metrics = {
            "wall_s": med,
            "cpu_s": statistics.median(r[0]["cpu"] for r in rounds),
            "peak_rss_mb": statistics.median(r[0]["rss"] for r in rounds),
            "setup_s": statistics.median(setup),
        }
        notes.append(f"wall_s over {len(walls)} passes of {len(calls)} calls: "
                     f"q1 {q1:.4f} s, median {med:.4f} s, q3 {q3:.4f} s; passes "
                     + " ".join(f"{w:.3f}" for w in walls))
        notes.append(f"setup_s: median of {SETUP_LAUNCHES} `hyperspec --help` launches")
    else:
        rounds = measure(runner, calls, seconds, traced=True)
        per_pass = [layer_metrics(r[1]["stats"]) for r in rounds]
        metrics = {name: statistics.median(p[0][name] for p in per_pass) for name in per_pass[0][0]}
        metrics["trace.overhead_s"] = (statistics.median(r[1]["wall"] for r in rounds)
                                       - statistics.median(r[0]["wall"] for r in rounds))
        library = {name: statistics.median(p[1][name] for p in per_pass) for name in LIBRARY_LAYERS}
        total = sum(library.values())
        shares = ", ".join(f"{name} {100 * t / total:.1f} %" for name, t in library.items()) if total else "none"
        notes.append(f"{len(rounds)} traced passes; share of library self time: {shares}")
        notes.append("transforms: on no workload's path, not measured")
    return {
        "workload": workload,
        "trace": int(traced),
        "metrics": metrics,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "notes": notes,
    }


def machine_info() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    info.update({var: os.environ.get(var, "unset") for var in BLAS_VARS})
    return info


def report(result: dict) -> None:
    units = LAYER_UNITS if result["trace"] else E2E_UNITS
    print(f"== {result['workload']}  trace {result['trace']}")
    for name, value in result["metrics"].items():
        print(f"  {name:<42} {value:>14.6g} {units[name]}")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':<42} {share:>14.6g} ({result['failed']} of {result['attempted']} calls)")
    for note in result["notes"]:
        print(f"  {note}")
    for err in result["errors"]:
        print(f"  FAILED {err}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WHY, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=None, help="with --workload all: write every number here as JSON")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "hyperspec", "cli.py")):
        print(f"error: no hyperspec source under {SRC}", file=sys.stderr)
        return 2

    machine = machine_info()
    print(f"seed {args.seed}  seconds {args.seconds:g}  machine "
          + " ".join(f"{key}={value}" for key, value in machine.items()))
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
            report(result)
            line = {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": value, "unit": (LAYER_UNITS if args.trace else E2E_UNITS)[name]}
                            for name, value in result["metrics"].items()},
            }
            print(json.dumps(line))
            return 0
        record = {"seed": args.seed, "seconds": args.seconds, "machine": machine, "workloads": {}}
        for workload in WHY:
            entry = {"why": WHY[workload], "attempted": 0, "failed": 0, "errors": []}
            for traced in (False, True):
                result = run_workload(workload, args.seed, args.seconds, traced, workdir)
                report(result)
                entry["per_layer" if traced else "end_to_end"] = result["metrics"]
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["errors"] += result["errors"]
            entry["failed_share"] = entry["failed"] / entry["attempted"]
            record["workloads"][workload] = entry
        attempted = sum(e["attempted"] for e in record["workloads"].values())
        failed = sum(e["failed"] for e in record["workloads"].values())
        if args.out:
            with open(args.out, "w", encoding="ascii") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
