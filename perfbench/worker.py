"""One repetition of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload junta --seed 1 --trace 0

Times ``import divlab`` and all its submodules, runs the workload once and
prints one JSON record on stdout.  A fresh process per repetition keeps the
``lru_cache``s inside divlab cold, as they are for a user's first call.
With ``--trace 1`` every call into divlab is a span; the spans are written
to ``--spans`` and reduced to per-layer self times and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import resource
import sys
import time


def import_divlab() -> float:
    """Seconds to import divlab and every submodule."""
    t0 = time.perf_counter()
    import divlab

    for mod in pkgutil.iter_modules(divlab.__path__):
        importlib.import_module(f"divlab.{mod.name}")
    return time.perf_counter() - t0


class Spans:
    """Records a span (name, start, end, parent, work) around each call."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def call(self, fn, *args, tag="", work=0, **kwargs):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}" + (f":{tag}" if tag else "")
        parent = self._open[-1] if self._open else None
        span = {"id": len(self.spans), "parent": parent, "name": name, "work": 0}
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        span["work"] = work(result) if callable(work) else work
        return result

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


class NoSpans:
    def call(self, fn, *args, tag="", work=0, **kwargs):
        return fn(*args, **kwargs)


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--spans", help="file for the span records of a traced run")
    ap.add_argument("--setup-only", action="store_true", help="only time the import")
    args = ap.parse_args(argv)

    setup_s = import_divlab()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy

    import workloads

    body = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.workload][args.size]
    gate = workloads.Gate()
    tracer = Spans() if args.trace else NoSpans()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    tracer.call(body, tracer, gate, args.seed, size)
    wall_s = time.perf_counter() - t0
    cpu_s = cpu_seconds() - cpu0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": gate.attempted,
        "failures": gate.failures,
        "numpy": numpy.__version__,
    }
    if args.trace:
        own = tracer.self_times()
        totals: dict[str, tuple[float, int]] = {}
        layer_self = dict.fromkeys(workloads.LAYERS, 0.0)
        for span, seconds in zip(tracer.spans, own):
            t, w = totals.get(span["name"], (0.0, 0))
            totals[span["name"]] = (t + seconds, w + span["work"])
            layer = span["name"].split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += seconds
        root = tracer.spans[0]
        traced_wall = root["end"] - root["start"]
        metrics = workloads.layer_metrics(totals)
        metrics.update({f"{layer}.self_s": s for layer, s in layer_self.items()})
        metrics["proc.cpu_s"] = cpu_s
        metrics["trace.coverage_pct"] = 100.0 * sum(layer_self.values()) / traced_wall
        record["layer_metrics"] = metrics
        record["layer_units"] = workloads.LAYER_UNITS
        record["spans"] = len(tracer.spans)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
