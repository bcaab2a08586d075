"""One cold-start run of one workload, in its own interpreter.

    python3 perfbench/worker.py WORKLOAD INPUT_JSON LAUNCHED MODE

LAUNCHED is the parent's `time.monotonic()` just before it started this
process, so set-up time covers interpreter start, importing forkdiv and
making the workload's inputs ready.  MODE `setup` stops there; `run` and
`trace` time the workload's phase (`trace` under the tracer) between two
calibration loops, check every output against the benchmark's own inputs,
and print one JSON line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# `forkdiv verify --check all --all 7`, timing off, at the commit that
# defined this benchmark; ROADMAP requires the envelope to stay byte-identical
VERIFY_DIGEST = "a01145c233c97684e55864a2a91df1a8700080d2a3ba3edf833a5fa9974b02b7"
VERIFY_GRAPHS = 1252
VERIFY_MATCHES = {"T1": 778, "T2": 778, "T3": 91, "T4": 448, "T5": 132, "T6": 183,
                  "T7": 580, "T8": 42, "T9": 142, "T10": 795, "chi-audit": 1252}


def _count_cliques(adj, cand: int) -> int:
    total = 1
    while cand:
        v = (cand & -cand).bit_length() - 1
        total += _count_cliques(adj, cand & adj[v])
        cand &= ~(1 << v)
    return total


def calibrate(reps: int = 7000) -> float:
    """Seconds for a fixed stdlib loop of the kind forkdiv spends its time in
    (recursion over bitmask cliques).  It takes about one second on the host
    the bounds were set on; timings divided by it cancel host speed drift."""
    rng = random.Random(0)
    adj = [0] * 22
    for i in range(22):
        for j in range(i + 1, 22):
            if rng.random() < 0.5:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    t0 = time.perf_counter()
    for _ in range(reps):
        _count_cliques(adj, (1 << 22) - 1)
    return time.perf_counter() - t0


def _run_cli(argv) -> tuple[int | str, str]:
    """Exit code and stdout of one `forkdiv` command run in this process;
    an exception that escapes `main` fails the whole batch."""
    import forkdiv.cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = forkdiv.cli.main(argv)
    except Exception as exc:
        return f"raised {exc!r}", ""
    return rc, buf.getvalue()


# -- workloads: each returns (attempted, failed, problems, check_s, graph_s) ----


def run_verify(inputs, timed):
    with timed:
        rc, out = _run_cli(["verify", "--check", "all", "--all", "7"])
    problems = []
    if rc != 0:
        problems.append(f"verify exited {rc}")
        return VERIFY_GRAPHS, VERIFY_GRAPHS, problems, [], []
    reports = json.loads(out)["results"]
    bad = set()
    for r in reports:
        bad.update(c["graph6"] for c in r["counterexamples"] + r["skipped"])
        if not r["passed"] or r["skipped"]:
            problems.append(f"{r['check']}: passed={r['passed']} skipped={len(r['skipped'])}")
    matches = {r["check"]: r["hypothesis_matches"] for r in reports}
    if matches != VERIFY_MATCHES:
        problems.append(f"hypothesis_matches {matches} != {VERIFY_MATCHES}")
    if hashlib.sha256(out.encode()).hexdigest() != VERIFY_DIGEST:
        problems.append("envelope digest differs from the recorded one")
    failed = len(bad) if bad or not problems else VERIFY_GRAPHS
    return VERIFY_GRAPHS, failed, problems, [], []


def run_hunt(inputs, timed):
    """Also returns each sample's time and each exact check's time, both
    taken from outside the calls."""
    import forkdiv

    graphs = inputs["graphs"]
    fork = forkdiv.pattern("fork")
    graph_s, check_s = [], []
    fork_free = failed = 0
    problems = []
    perf_counter = time.perf_counter
    with timed:
        for g, sample in zip(graphs, inputs["samples"]):
            t0 = perf_counter()
            try:
                free = forkdiv.find_induced(g, fork, "fork") is None
                if free:
                    fork_free += 1
                    t1 = perf_counter()
                    ok = forkdiv.is_perfectly_divisible_exact(g)
                    check_s.append(perf_counter() - t1)
                else:
                    ok = True
            except Exception as exc:  # a raising call is a failed graph, not a lost run
                problems.append(f"seed {sample['seed']}: {exc!r}")
                failed += 1
                continue
            finally:
                graph_s.append(perf_counter() - t0)
            if free != sample["fork_free"] or not ok:
                problems.append(f"seed {sample['seed']}: fork_free={free} divisible={ok}")
                failed += 1
    if fork_free != inputs["fork_free"]:
        problems.append(f"fork-free count {fork_free} != recorded {inputs['fork_free']}")
    return len(graphs), failed, problems, check_s, graph_s


def run_color(inputs, timed):
    with timed:
        rc, out = _run_cli(["color", inputs["path"]])
    edges = json.loads(Path(inputs["edges_path"]).read_text())
    if rc != 0:
        return len(edges), len(edges), [f"color exited {rc}"], [], []
    rows = json.loads(out)["results"]
    if len(rows) != len(edges):
        return len(edges), len(edges), [f"{len(rows)} rows for {len(edges)} graphs"], [], []
    problems = []
    for k, (row, edge_list) in enumerate(zip(rows, edges)):
        colors = row["colors"]
        proper = all(colors[u] != colors[v] for u, v in edge_list)
        in_bound = row["fallback"] or row["palette"] <= row["bound"]["value"]
        if not (proper and in_bound and len(colors) == inputs["n"]):
            problems.append(f"graph {k}: proper={proper} within_bound={in_bound}")
    return len(edges), len(problems), problems, [], []


WORKLOADS = {"verify-all7": run_verify, "hunt-n9": run_hunt, "color-n16": run_color}


class Timed:
    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self.t0
        # read here, before output checks allocate anything of their own
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    workload, input_path, launched, mode = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4]
    sys.path.insert(0, str(ROOT / "src"))
    import forkdiv  # noqa: F401  (set-up covers the import)
    import forkdiv.cli  # noqa: F401

    inputs = json.loads(Path(input_path).read_text())
    if workload == "hunt-n9":
        inputs["graphs"] = [forkdiv.Graph.from_edges(inputs["n"], s["edges"]) for s in inputs["samples"]]
    setup_s = time.monotonic() - launched
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cal_before = calibrate()
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    timed = Timed()
    try:
        attempted, failed, problems, check_s, graph_s = WORKLOADS[workload](inputs, timed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "cal_s": (cal_before + calibrate()) / 2,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "wall_s": timed.wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": timed.peak_rss_mb,
        "check_s": check_s,
        "graph_s": graph_s,
    }
    if tracer is not None:
        result["layers"] = {**tracer.metrics(), **tracing.cache_metrics()}
        result["unattributed_s"] = tracer.root_self_s(timed.wall_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
