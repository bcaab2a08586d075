#!/usr/bin/env python3
"""forkdiv benchmark: cold-start workloads, output checks, outside-in tracing.

    python3 perfbench/run.py --workload verify-all7 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each measurement is a fresh interpreter
(`worker.py`), because forkdiv keeps its enumeration levels and harness memo
caches for the life of a process and a warm second run would time lookups.
With `--trace 0` the workers run untraced for at least `--seconds` and the
end-to-end metrics are medians over them.  With `--trace 1` one untraced and
two traced workers run, giving the per-layer metrics, the tracing overhead,
and the self-checks: layer self times cover the traced wall time, and every
count repeats exactly.  The last stdout line is one JSON object.

Inputs are generated here, in one process with one thread, from `--seed`
only, and cached under `.perfbench_cache/`; their generation is not timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"
WORKER = HERE / "worker.py"
INPUT_VERSION = 3
MIN_WORKERS = 3
SETUP_REPEATS = 12  # extra set-up-only cold starts per run, for a steadier median
WORKER_TIMEOUT_S = 120
UNCOVERED_TOLERANCE = 0.05  # untraced share of a traced run's wall time

# workload -> (n, p, graphs per worker run)
SIZES = {"verify-all7": (7, None, 1252), "hunt-n9": (9, 0.7, 1000), "color-n16": (16, 0.8, 3000)}
HUNT_FORK_FREE = 560


class BenchError(Exception):
    pass


# -- inputs: stdlib only, independent of forkdiv -------------------------------


def gnp_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """Edges of G(n, p) drawn exactly as `forkdiv gen --gnp N P SEED` draws them."""
    rng = random.Random(seed)
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def has_fork(n: int, edges) -> bool:
    """Induced fork: a centre c with neighbours a, b, d pairwise non-adjacent,
    and e adjacent to d only."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for c in range(n):
        nc = adj[c]
        for d in _bits(nc):
            for e in _bits(adj[d] & ~nc & ~(1 << c)):
                legs = nc & ~adj[d] & ~(1 << d) & ~adj[e]
                if any(legs & ~adj[a] & ~(1 << a) for a in _bits(legs)):
                    return True
    return False


def graph6(n: int, edges) -> str:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
    pair_bits = [(adj[i] >> j) & 1 for j in range(1, n) for i in range(j)]
    pair_bits += [0] * (-len(pair_bits) % 6)
    body = [chr(63 + int("".join(map(str, pair_bits[k:k + 6])), 2))
            for k in range(0, len(pair_bits), 6)]
    return chr(63 + n) + "".join(body)


def make_inputs(workload: str, seed: int) -> Path:
    """Write the workload's inputs for this seed once; later runs reuse them."""
    CACHE.mkdir(exist_ok=True)
    path = CACHE / f"{workload}-{seed}-v{INPUT_VERSION}.json"
    if path.exists():
        return path
    n, p, count = SIZES[workload]
    if workload == "verify-all7":
        data = {"graphs": count}
    elif workload == "hunt-n9":
        # a fixed fork-free share (the stream's expected 56%), so the seed
        # changes which graphs are checked but not how many
        quota = {True: HUNT_FORK_FREE, False: count - HUNT_FORK_FREE}
        samples, k = [], 0
        while len(samples) < count:
            s = seed * 1_000_000 + k
            k += 1
            edges = gnp_edges(n, p, s)
            free = not has_fork(n, edges)
            if quota[free]:
                quota[free] -= 1
                samples.append({"seed": s, "edges": edges, "fork_free": free})
        data = {"n": n, "p": p, "sampled": k, "samples": samples, "fork_free": HUNT_FORK_FREE}
    else:
        batch, k = [], 0
        while len(batch) < count:
            edges = gnp_edges(n, p, seed * 1_000_000 + k)
            k += 1
            if not has_fork(n, edges):
                batch.append(edges)
        # paths relative to the checkout root, where the workers run
        stem = CACHE.relative_to(ROOT) / f"{workload}-{seed}-v{INPUT_VERSION}"
        g6, edges_path = stem.with_suffix(".g6"), stem.with_suffix(".edges.json")
        (ROOT / g6).write_text("".join(graph6(n, e) + "\n" for e in batch))
        (ROOT / edges_path).write_text(json.dumps(batch))
        data = {"n": n, "p": p, "sampled": k, "path": str(g6), "edges_path": str(edges_path)}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data))
    tmp.replace(path)
    return path


# -- worker processes ------------------------------------------------------------


def run_worker(workload: str, inputs: Path, mode: str) -> dict:
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), workload, str(inputs), repr(launched), mode],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail_percentile(values) -> tuple[int, float]:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it,
    else the median."""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(values, n=100)[q - 1]
    return 50, statistics.median(values)


def end_to_end(workload: str, runs: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    """Timings of the timed phase are in reference seconds: each worker's
    times are divided by its calibration time (`worker.calibrate`, about one
    second on the host the bounds were set on), which cancels most of the
    host's speed drift."""
    speed = [1 / r["cal_s"] for r in runs]
    if workload == "hunt-n9":
        # each graph's time is the median over the cold runs, which also
        # filters out sub-second bursts inside any one run
        graph_s = [statistics.median(ts) for ts in
                   zip(*([t * f for t in r["graph_s"]] for r, f in zip(runs, speed)))]
        graphs_per_s = len(graph_s) / sum(graph_s)
        check_ms = [statistics.median(ts) * 1000 for ts in
                    zip(*([t * f for t in r["check_s"]] for r, f in zip(runs, speed)))]
        what = "is_perfectly_divisible_exact call"
    else:
        graphs_per_s = statistics.median(r["attempted"] / (r["wall_s"] * f) for r, f in zip(runs, speed))
        check_ms = [r["wall_s"] * f * 1000 / r["attempted"] for r, f in zip(runs, speed)]
        what = "graph's share of one CLI batch (one sample per cold run)"
    q, tail = tail_percentile(check_ms)
    metrics = {
        "graphs_per_s": graphs_per_s,
        # wall-clock: process start and imports are not the interpreter loop
        # the calibration measures, and dividing by it widened the spread
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "check_ms_p50": statistics.median(check_ms),
        "check_ms_p99": tail,
    }
    raw = statistics.median(r["attempted"] / r["wall_s"] for r in runs)
    notes = [f"check = one {what}; {len(check_ms)} samples; check_ms_p99 reports p{q}",
             f"setup_s is the median of {len(setups)} cold starts",
             f"calibration loop: median {statistics.median(r['cal_s'] for r in runs):.3f} s "
             f"(timed-phase figures below are in reference seconds); wall-clock graphs_per_s {raw:.6g}"]
    return metrics, notes


def per_layer(traced: list[dict], untraced: dict, units: dict) -> tuple[dict, list[str]]:
    """Counts from the first traced run, which the second must repeat
    exactly; times are the mean of the two."""
    problems = []
    first, second = traced[0]["layers"], traced[1]["layers"]
    metrics = {}
    for k, v in first.items():
        if units.get(k) == "s":
            metrics[k] = (v + second[k]) / 2
        else:
            metrics[k] = v
            if v != second[k]:
                problems.append(f"{k} differs across traced runs: {v} vs {second[k]}")
    for r in traced:
        share = r["unattributed_s"] / r["wall_s"]
        if not 0 <= share <= UNCOVERED_TOLERANCE:
            problems.append(f"layer self times miss {share:.1%} of the traced wall time")
    traced_wall = statistics.mean(r["wall_s"] for r in traced)
    metrics["tracing.overhead_ratio"] = traced_wall / untraced["wall_s"]
    return metrics, problems


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.exists() else "unknown (packed ref)"
    return ref


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if not (ROOT / "src" / "forkdiv" / "__init__.py").exists():
        raise BenchError("no forkdiv sources under src/; run from the root of a checkout")

    inputs = make_inputs(args.workload, args.seed)
    # compile bytecode once, so the first cold run's set-up is not an outlier
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "forkdiv")],
                   check=True, timeout=WORKER_TIMEOUT_S)
    n, p, size = SIZES[args.workload]
    print(f"forkdiv benchmark: workload {args.workload}, seed {args.seed}, "
          f"{size} graphs per run (n={n}{'' if p is None else f', p={p}'})")
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, git {git_sha()}")

    if args.trace:
        untraced = run_worker(args.workload, inputs, "run")
        traced = [run_worker(args.workload, inputs, "trace") for _ in range(2)]
        runs = [untraced, *traced]
        metrics, problems = per_layer(traced, untraced, units)
        notes = [f"1 untraced and 2 traced cold runs; tolerance {UNCOVERED_TOLERANCE:.0%}"]
    else:
        runs, problems = [], []
        start = time.monotonic()
        # start another worker only while it would end, on average, no more
        # than half a worker past --seconds
        while len(runs) < MIN_WORKERS or (
                (elapsed := time.monotonic() - start) + elapsed / len(runs) / 2 < args.seconds):
            runs.append(run_worker(args.workload, inputs, "run"))
        setups = [r["setup_s"] for r in runs]
        setups += [run_worker(args.workload, inputs, "setup")["setup_s"] for _ in range(SETUP_REPEATS)]
        metrics, notes = end_to_end(args.workload, runs, setups)
        notes.insert(0, f"{len(runs)} cold runs")

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        problems.extend(r["problems"])
    if set(metrics) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units.get(name, '?')}")
    print(f"  {'fail_ratio':48s} {failed / attempted:14.6g} ratio ({failed} of {attempted} graphs)")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
