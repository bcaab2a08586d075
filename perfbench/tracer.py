"""Outside-in tracer: wraps forkdiv's public functions from the benchmark's side.

Every wrapped call opens a span whose parent is the span that was open when
it started, so a span's self time (its duration minus the time its child
spans cover) is exact.  Spans are aggregated in memory by name as they close;
the program's own code is never edited, and `uninstall` puts every original
object back.
"""

from __future__ import annotations

import sys
import time

# layer -> public functions of that layer's module that get a span
LAYER_FUNCTIONS = {
    "graph": ("canonical_form",),
    "oracles": (
        "is_perfect",
        "is_perfect_induced",
        "find_odd_hole",
        "find_odd_antihole",
        "clique_number",
        "max_clique",
        "max_weight_clique",
        "exact_coloring",
        "chromatic_number",
        "independence_number",
    ),
    "patterns": ("find_induced", "classify"),
    "decomposition": ("find_homogeneous_set",),
    "divisibility": (
        "is_perfectly_divisible_exact",
        "perfect_division",
        "divide_weighted",
        "color_by_division",
        "line_graph_division",
    ),
    "harness": ("run_check", "enumerate_nonisomorphic"),
    "formats": ("parse_graph6", "emit_graph6"),
    "cli": ("main",),
}
GRAPH_METHODS = ("induced", "complement")
LAYERS = tuple(LAYER_FUNCTIONS)

EXACT = "divisibility.is_perfectly_divisible_exact"
PERFECT_DIVISION = "divisibility.perfect_division"
DIVISION_RETURNERS = (PERFECT_DIVISION, "divisibility.divide_weighted", "divisibility.line_graph_division")
STRATEGIES = ("perfect-whole", "perfect-non-neighborhood", "homogeneous-recursion",
              "exhaustive", "spanning-tree", "none", "other")
HARNESS_CACHES = ("_free", "_homogeneous", "_pd_exact", "_perfect_mask", "_omega", "_chi")
CHECK_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "chi-audit")
ROOT = "bench"


class Tracer:
    """Span stack plus per-name aggregates; one per traced process."""

    def __init__(self):
        self.stack = [[ROOT, 0.0]]  # frames: [span name, time covered by children]
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.constructions = 0
        self.strategies = dict.fromkeys(STRATEGIES, 0)
        self.fallbacks = 0
        self.divisions_returned = 0
        self.perfect_checks = {EXACT: 0, PERFECT_DIVISION: 0}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _close(self, name: str, elapsed: float) -> None:
        frame = self.stack.pop()
        self.stack[-1][1] += elapsed
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + elapsed
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - frame[1]

    def _nearest(self, names) -> str | None:
        for frame in reversed(self.stack):
            if frame[0] in names:
                return frame[0]
        return None

    def _observe(self, name: str, result) -> None:
        """Derived counts that need a return value or the open spans."""
        if name in DIVISION_RETURNERS and self._nearest(DIVISION_RETURNERS) is None:
            d = result[2] if name == "divisibility.line_graph_division" else result
            key = "none" if d is None else d.strategy
            key = key if key in self.strategies else "other"
            self.strategies[key] += 1
        if name == PERFECT_DIVISION and result is not None:
            self.divisions_returned += 1
        if name == "divisibility.color_by_division" and result.fallback:
            self.fallbacks += 1

    def wrap(self, name: str, fn, namer=None):
        perf_counter = time.perf_counter
        stack = self.stack
        observe = name.startswith("divisibility.")
        perfection = name == "oracles.is_perfect"

        def traced(*args, **kwargs):
            span = namer(args) if namer else name
            if perfection:
                owner = self._nearest(self.perfect_checks)
                if owner is not None:
                    self.perfect_checks[owner] += 1
            stack.append([span, 0.0])
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, perf_counter() - t0)
                raise
            self._close(span, perf_counter() - t0)
            if observe:
                self._observe(span, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap each public function in every forkdiv namespace that bound it,
        since modules that did `from .oracles import f` hold their own name."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "forkdiv" or k.startswith("forkdiv."))]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"forkdiv.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                namer = _check_namer if (layer, fname) == ("harness", "run_check") else None
                wrapped = self.wrap(f"{layer}.{fname}", orig, namer)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, wrapped)
        graph_cls = sys.modules["forkdiv.graph"].Graph
        for meth in GRAPH_METHODS:
            self._patch(graph_cls, meth, self.wrap(f"graph.{meth}", getattr(graph_cls, meth)))
        validate = graph_cls.__post_init__

        def counted(g):
            self.constructions += 1
            return validate(g)

        self._patch(graph_cls, "__post_init__", counted)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- report ------------------------------------------------------------

    def root_self_s(self, wall_s: float) -> float:
        """Time of the traced phase that no layer span covers."""
        return wall_s - self.stack[0][1]

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_s.items():
            layer_self[name.split(".", 1)[0]] += value
        spanned = [f"{layer}.{f}" for layer, fs in LAYER_FUNCTIONS.items() for f in fs
                   if (layer, f) != ("harness", "run_check")]
        spanned += [f"graph.{m}" for m in GRAPH_METHODS]
        for name in spanned:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["graph.constructions"] = self.constructions
        for key, count in self.strategies.items():
            out[f"divisibility.strategy.{key}"] = count
        out["divisibility.color.fallbacks"] = self.fallbacks
        exact_calls = self.calls.get(EXACT, 0)
        out["divisibility.perfect_checks_per_exact"] = (
            self.perfect_checks[EXACT] / exact_calls if exact_calls else 0.0)
        out["divisibility.perfect_checks_per_division"] = (
            self.perfect_checks[PERFECT_DIVISION] / self.divisions_returned
            if self.divisions_returned else 0.0)
        for cid in CHECK_IDS:
            out[f"harness.check.{cid}.s"] = self.total_s.get(f"harness.check.{cid}", 0.0)
        return out


def _check_namer(args) -> str:
    return f"harness.check.{args[0].check_id}"


def cache_metrics() -> dict[str, float]:
    """Hits of the harness memo caches, read through `cache_info()`."""
    harness = sys.modules["forkdiv.harness"]
    out: dict[str, float] = {}
    hits = lookups = 0
    for name in HARNESS_CACHES:
        info = getattr(getattr(harness, name, None), "cache_info", None)
        h, m = (info().hits, info().misses) if info else (0, 0)
        out[f"harness.cache.{name}.hits"] = h
        hits, lookups = hits + h, lookups + h + m
    out["harness.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    return out
