"""Named small patterns, induced-subgraph search, and class bounds.

The catalog pins down every forbidden pattern the classifier and harness
talk about; names are the stable public identifiers used on the CLI.  The
five-vertex patterns are built from their defining claw or path plus the
extra vertex, so each construction reads like its definition.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .graph import Graph, _are_twins, _co_rows, bits
from .oracles import clique_number


CATALOG: dict[str, Graph] = {
    "K1": Graph.complete(1),
    "K2": Graph.complete(2),
    "K3": Graph.complete(3),
    "K4": Graph.complete(4),
    "K5": Graph.complete(5),
    "P3": Graph.path(3),
    "P4": Graph.path(4),
    "P5": Graph.path(5),
    "P6": Graph.path(6),
    "C4": Graph.cycle(4),
    "C5": Graph.cycle(5),
    "C6": Graph.cycle(6),
    "C7": Graph.cycle(7),
    "claw": Graph.complete_bipartite(1, 3),
    # claw centred at 2 with leaves 1, 3, 4; pendant 0 attached to leaf 1
    "fork": (fork := Graph.from_edges(5, [(2, 1), (2, 3), (2, 4), (0, 1)])),
    "antifork": fork.complement(),
    # claw centred at 0 with leaves 1, 2, 3; vertex 4 sees 0, 2, 3 but not 1
    "dart": Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (4, 0), (4, 2), (4, 3)]),
    # claw centred at 0 with leaves 1, 2, 3; vertex 4 sees 1, 2 but not 0, 3
    "banner": Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2)]),
    # path 0-1-2-3; vertex 4 sees the middle 1, 2 but not the ends
    "bull": Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 1), (4, 2)]),
    "paw": (paw := Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])),
    "diamond": (diamond := Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])),
    "co-dart": paw.disjoint_union(Graph.complete(1)),
    "co-cricket": diamond.disjoint_union(Graph.complete(1)),
    "K2,3": Graph.complete_bipartite(2, 3),
    "2K2": Graph.complete(2).disjoint_union(Graph.complete(2)),
    "3K1": Graph.empty(3),
    "4K1": Graph.empty(4),
    "P3+K1": Graph.path(3).disjoint_union(Graph.complete(1)),
    "K2+2K1": Graph.complete(2).disjoint_union(Graph.empty(2)),
    "K3+K1": Graph.complete(3).disjoint_union(Graph.complete(1)),
    "co-P5": Graph.path(5).complement(),
    "K5-e": Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (3, 4)]),
    "co-(P3+2K1)": Graph.path(3).disjoint_union(Graph.empty(2)).complement(),
}
del fork, paw, diamond

_ALIASES = {
    "K1,3": "claw",
    "paw+K1": "co-dart",
    "diamond+K1": "co-cricket",
}


def pattern(name: str) -> Graph:
    key = _ALIASES.get(name, name)
    try:
        return CATALOG[key]
    except KeyError:
        raise ValueError(f"unknown pattern {name!r}") from None


def pattern_names() -> list[str]:
    return sorted(CATALOG)


class PatternWitness(namedtuple("PatternWitness", "pattern_name mapping")):
    """An induced embedding: mapping[i] is the host vertex for pattern vertex i."""

    __slots__ = ()

    def validate(self, host: Graph, pat: Graph) -> bool:
        m = self.mapping
        if len(m) != pat.n or len(set(m)) != pat.n:
            return False
        if any(not 0 <= v < host.n for v in m):
            return False
        for u in range(pat.n):
            for v in range(u + 1, pat.n):
                if pat.has_edge(u, v) != host.has_edge(m[u], m[v]):
                    return False
        return True


@lru_cache(maxsize=64)
def _plan(pat: Graph):
    """Steps (vertices by descending degree), their degrees, adjacency to later
    steps, and per step each twin class with 2+ later members, as (first, size)."""
    order = sorted(range(pat.n), key=lambda v: (-pat.degree(v), v))
    links = tuple(tuple(pat.has_edge(u, w) for w in order[i + 1 :]) for i, u in enumerate(order))
    heads = [next(t for t in order if _are_twins(pat.adj, t, u)) for u in order]
    tails = [heads[i + 1 :] for i in range(pat.n)]
    crowds = tuple(tuple((c.index(t), c.count(t)) for t in set(c) if c.count(t) > 1) for c in tails)
    return tuple(order), tuple(pat.degree(u) for u in order), links, crowds


def iter_induced(host: Graph, pat: Graph):
    """Yield every induced embedding of pat in host as a mapping tuple.

    Pattern vertices are assigned in descending-degree order; host
    candidates ascend, so the first yield is the lexicographically least
    witness under that order.  The search uses forward checking on vertex
    masks: each later step keeps a domain of degree-feasible host vertices,
    cut to the neighbours or non-neighbours of every placed vertex as the
    pattern demands, and a placement that empties a domain is pruned.
    Unplaced pattern twins (graph._are_twins) share one domain, free of
    placed host vertices; a placement leaving it fewer vertices than the
    class has unplaced members is pruned too.  No cut drops an embedding.
    """
    return _iter_induced(host.adj, host.vertex_mask, pat)


def _iter_induced(adj, mask, pat):
    """iter_induced in the subgraph that rows adj induce on mask, with host
    vertices as they are: degrees and non-neighbours count within mask."""
    p, n = pat.n, mask.bit_count()
    if p > n:
        return
    if p == 0:
        yield ()
        return
    order, degs, links, crowds = _plan(pat)
    co = _co_rows(adj, mask)
    by_degree = [0] * n
    for v in bits(mask):
        by_degree[(adj[v] & mask).bit_count()] |= 1 << v
    # a host vertex needs as many neighbours and non-neighbours as the step
    doms = [sum(by_degree[d : d + n - p + 1]) for d in degs]
    assign, last = [0] * p, p - 1
    left = [doms[0]] + [0] * last  # left[i]: untried candidates of step i
    rest = [doms[1:]] + [()] * last  # rest[i]: domains of the steps after i
    i = 0
    while i >= 0:
        m = left[i]
        if not m:
            i -= 1
            continue
        low = m & -m
        left[i] = m ^ low
        hv = low.bit_length() - 1
        assign[order[i]] = hv
        if i == last:
            yield tuple(assign)
            continue
        a, c = adj[hv], co[hv]
        later = [d & (a if e else c) for d, e in zip(rest[i], links[i])]
        if all(later) and (not crowds[i] or all(later[j].bit_count() >= k for j, k in crowds[i])):
            i += 1
            left[i] = later[0]
            rest[i] = later[1:]


def find_induced(host: Graph, pat: Graph, name: str | None = None) -> PatternWitness | None:
    for mapping in iter_induced(host, pat):
        return PatternWitness(name, mapping)
    return None


def has_induced(host: Graph, name: str) -> bool:
    return find_induced(host, pattern(name), name) is not None


def is_free(host: Graph, names) -> tuple[bool, PatternWitness | None]:
    """Whether host avoids all named patterns; first witness otherwise."""
    for name in names:
        w = find_induced(host, pattern(name), name)
        if w is not None:
            return False, w
    return True, None


def claw_center(g: Graph) -> tuple[int, tuple[int, int, int]] | None:
    """Smallest vertex with three pairwise nonadjacent neighbours, plus the
    lexicographically least such triple."""
    for v in range(g.n):
        if (triple := _claw_triple(g.adj, v)) is not None:
            return v, triple
    return None


def _claw_triple(adj, v) -> tuple[int, int, int] | None:
    """The lexicographically least three pairwise nonadjacent neighbours of
    v, or None: the least a with a completion, then the least b, then c."""
    nb = adj[v]
    for a in bits(nb):
        rest = nb & ~adj[a] & -(2 << a)  # neighbours of v above a, not adjacent to a
        for b in bits(rest):
            if third := rest & ~adj[b] & -(2 << b):
                return a, b, (third & -third).bit_length() - 1
    return None


# -- chi bounds per forbidden companion pattern -------------------------


class BoundRecord(namedtuple("BoundRecord", "kind text evaluate")):
    """A chi-binding function: its kind, its formula as text, and evaluate,
    which maps omega to the bound."""

    __slots__ = ()

    def to_json(self):
        return {"kind": self.kind, "text": self.text}


# binom(omega+1, 2) binds every perfectly divisible graph, so it also bounds
# divisibility.color_by_division; the chi-audit applies omega^2 to every claw-free graph
_BINOMIAL = BoundRecord("binomial", "binom(omega+1,2)", lambda omega: (omega + 1) * omega // 2)
_SQUARE = BoundRecord("square", "omega^2", lambda omega: omega * omega)
_PLUS_ONE = BoundRecord("linear", "omega+1", lambda omega: omega + 1)

#: chi bound for fork-free graphs that also exclude the key pattern
CLASS_BOUNDS: dict[str, BoundRecord] = {
    "K3": BoundRecord("constant", "3", lambda omega: 3),
    "2K2": _BINOMIAL,
    "dart": _SQUARE,
    "banner": _SQUARE,
    "co-cricket": _SQUARE,
    "claw": _SQUARE,
    "P6": _BINOMIAL,
    "co-dart": _BINOMIAL,
    "bull": _BINOMIAL,
    "K5-e": _PLUS_ONE,
    "co-(P3+2K1)": _PLUS_ONE,
    "antifork": BoundRecord("linear", "2*omega", lambda omega: 2 * omega),
}


class ClassMembership(namedtuple("ClassMembership", "forbidden free bound value")):
    """Whether g is free of the forbidden pattern (and fork-free), the class's
    BoundRecord, and value, the bound at omega(g) when the class applies."""

    __slots__ = ()

    def to_json(self):
        return {
            "forbidden": self.forbidden,
            "free": self.free,
            "bound": self.bound.to_json(),
            "value": self.value,
        }


class ClassReport(namedtuple("ClassReport", "omega fork_free memberships tightest")):
    """classify's result: a ClassMembership per class bound and the tightest
    applicable (forbidden, value), or None."""

    __slots__ = ()

    def to_json(self):
        return {
            "omega": self.omega,
            "fork_free": self.fork_free,
            "classes": [m.to_json() for m in self.memberships],
            "tightest": (
                {"forbidden": self.tightest[0], "value": self.tightest[1]}
                if self.tightest
                else None
            ),
        }


def classify(g: Graph) -> ClassReport:
    """Membership in each fork-free class of the bounds table, with the
    applicable chi bounds evaluated at omega(g)."""
    omega = clique_number(g)
    fork_free = not has_induced(g, "fork")
    rows = []
    tightest: tuple[str, int] | None = None
    for forbidden, bound in CLASS_BOUNDS.items():
        free = fork_free and not has_induced(g, forbidden)
        value = bound.evaluate(omega) if free else None
        rows.append(ClassMembership(forbidden, free, bound, value))
        if value is not None and (tightest is None or value < tightest[1]):
            tightest = (forbidden, value)
    return ClassReport(omega, fork_free, tuple(rows), tightest)
