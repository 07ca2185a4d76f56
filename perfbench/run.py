"""Benchmark of divlab: time to a verified answer on two workloads.

    python3 perfbench/run.py --workload junta --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; divlab is imported from ``src/``,
nothing is installed.  Each repetition runs ``perfbench/worker.py`` in a
fresh single-threaded interpreter, and repetitions continue while the next
one is expected to end within ``--seconds``.  The last line of stdout is
the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
repetitions); with ``--trace 1`` traced and untraced repetitions alternate
and the metrics are the per-layer ones.  The line before it is a detail
record (per-repetition values, quartiles, sample counts, provenance), also
written under ``perfbench/out/``.  ``--size smoke`` runs tiny inputs for the
benchmark's self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("junta", "sweep")

# setup_s is the median of the imports of every repetition and of
# SETUPS_PER_REP import-only processes after each, so that its samples span
# the run; runs with few repetitions are topped up to MIN_SETUP_SAMPLES.
SETUPS_PER_REP = 2
MIN_SETUP_SAMPLES = 11
# A run must end within 180 s; no worker may outlive this point.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # One thread: numpy's BLAS pool would otherwise start idle threads.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("run time limit reached before the next repetition")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} exceeded the run time limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(numpy_version: str, load_start: tuple) -> dict:
    sources = sorted((SRC / "divlab").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
        "src_divlab_lines": lines,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    if not (SRC / "divlab" / "__init__.py").is_file():
        print(f"error: divlab sources not found under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    base = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    reps: list[dict] = []
    setups: list[float] = []
    durations: list[float] = []
    try:
        while True:
            extra = []
            if args.trace == 1 and len(reps) % 2 == 0:
                spans = out_dir / f"spans-{tag}-rep{len(reps)}.json"
                extra = ["--trace", "1", "--spans", str(spans)]
            t0 = time.monotonic()
            rec = run_worker(base + extra, deadline)
            reps.append(rec)
            setups.append(rec["setup_s"])
            for _ in range(SETUPS_PER_REP):
                setups.append(run_worker(["--setup-only"], deadline)["setup_s"])
            durations.append(time.monotonic() - t0)
            print(
                f"rep {len(reps)}: trace={rec['trace']} wall_s={rec['wall_s']:.4f} "
                f"setup_s={rec['setup_s']:.4f} failures={len(rec['failures'])}",
                file=sys.stderr,
            )
            # Stop before a repetition that would end past --seconds, once a
            # traced run has at least one repetition of each kind.
            kinds = {r["trace"] for r in reps}
            projected = time.monotonic() - start + statistics.median(durations)
            if projected > args.seconds and (args.trace == 0 or kinds == {0, 1}):
                break
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_worker(["--setup-only"], deadline)["setup_s"])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [r for r in reps if r["trace"] == 0]
    traced = [r for r in reps if r["trace"] == 1]
    failures = [f for r in reps for f in r["failures"]]
    kept = ("trace", "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "attempted", "failures")
    detail = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": [{k: r[k] for k in kept} for r in reps],
        "provenance": provenance(reps[0]["numpy"], load_start),
    }
    if args.trace == 0:
        values = {
            "wall_s": [r["wall_s"] for r in untraced],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }
        units = END_TO_END_UNITS
    else:
        names = traced[0]["layer_metrics"]
        values = {name: [r["layer_metrics"][name] for r in traced] for name in names}
        # The tracing overhead compares traced with untraced repetitions.
        wall = [statistics.median(r["wall_s"] for r in group) for group in (traced, untraced)]
        values["trace.overhead_s"] = [wall[0] - wall[1]]
        units = {**traced[0]["layer_units"], "trace.overhead_s": "s"}
    detail["metrics"] = {name: summary(values[name]) for name in units}
    detail["correct"] = not failures
    detail["failures"] = failures
    text = json.dumps(detail, indent=1)
    (out_dir / f"result-{tag}.json").write_text(text + "\n", encoding="utf-8")
    print(json.dumps({"detail": detail}))
    metrics = {
        name: {"value": detail["metrics"][name]["median"], "unit": unit}
        for name, unit in units.items()
    }
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
