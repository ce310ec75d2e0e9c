"""Run one hyperspec CLI call with a timing span around every call into a
library layer.

Usage (from the repository root):

    PYTHONPATH=src python3 bench/trace_child.py STATS.json rank --k 3 --m 6

Each public function of the traced modules is replaced by a wrapper in
every hyperspec module that holds it, because `cli` and `enumeration` bind
functions by name at import time.  A span's self time is its duration minus
the duration of the spans nested in it.  The CLI's stdout is left alone;
the aggregated statistics go to STATS.json when the call ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# `transforms` is on no workload's path and is not traced.
LAYERS = ("hypergraph", "families", "canonical", "spectral", "alpha_normal", "enumeration")


class Tracer:
    def __init__(self) -> None:
        # "layer.function" -> [calls, entries from another layer, self_s, total_s, max_s]
        self.spans: dict[str, list] = {}
        self.counters = {
            "tensor_sweeps": 0,
            "tensor_sweeps_max": 0,
            "tensor_edge_sweeps": 0,
            "graph_sweeps": 0,
            "classes": 0,
            "verify_instances": 0,
            "verify_min_gap_over_margin": None,
        }
        self._nested = [0.0]  # time of spans nested in each open span
        self._layers = [""]

    def span(self, key: str, fn, args, kwargs):
        layer = key.split(".", 1)[0]
        entry = self._layers[-1] != layer
        self._nested.append(0.0)
        self._layers.append(layer)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            nested = self._nested.pop()
            self._layers.pop()
            self._nested[-1] += dur
            rec = self.spans.setdefault(key, [0, 0, 0.0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += entry
            rec[2] += dur - nested
            rec[3] += dur
            rec[4] = max(rec[4], dur)
        self._count(key, args, result)
        return result

    def _count(self, key: str, args, result) -> None:
        c = self.counters
        if key == "spectral.spectral_radius_tensor":
            c["tensor_sweeps"] += result.iterations
            c["tensor_sweeps_max"] = max(c["tensor_sweeps_max"], result.iterations)
            c["tensor_edge_sweeps"] += result.iterations * args[0].m
        elif key == "spectral.spectral_radius_graph":
            c["graph_sweeps"] += result.iterations
        elif key == "enumeration.enumerate_linear_unicyclic":
            c["classes"] += len(result)
        elif key == "enumeration.verify_suite":
            for rep in result:
                for inst in rep.instances:
                    if inst.status == "na":
                        continue
                    c["verify_instances"] += 1
                    # inequality claims pass when gap > 10 x tolerance
                    if rep.claim != "cross-method":
                        ratio = inst.gap / (10.0 * inst.tolerance)
                        best = c["verify_min_gap_over_margin"]
                        c["verify_min_gap_over_margin"] = ratio if best is None else min(best, ratio)

    def wrap(self, key: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(key, fn, args, kwargs)

        return traced

    def patch(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "hyperspec"]
        for layer in LAYERS:
            mod = sys.modules[f"hyperspec.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                traced = self.wrap(f"{layer}.{name}", fn)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, traced)


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import hyperspec.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.patch()
    try:
        code = tracer.span("cli.run", cli.run, (argv,), {})
    finally:
        sys.stdout.flush()
        with open(stats_path, "w", encoding="ascii") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
