"""Exhaustive small-graph verification of the structure theorems.

Each check pairs a hypothesis filter with an assertion; running one over a
corpus yields a report listing every counterexample (there should be none)
and every graph skipped for capacity.  The corpus generators are an orderly
enumerator of all non-isomorphic graphs and a seeded G(n, p) sampler, both
deterministic.
"""

from __future__ import annotations

import time
from collections import namedtuple
from functools import cache, lru_cache
from itertools import islice, permutations

from . import formats
from .decomposition import _pair_closures
from .divisibility import is_perfectly_divisible_exact, line_graph_division, color_by_division
from .graph import MAX_VERTICES, Graph, _are_twins, _label, bits
from .limits import ENUMERATION_CAP, CapacityError, InvariantError
from .oracles import _exact_coloring, _first_odd_hole, _max_clique_size, is_perfect_induced
from .patterns import (_BINOMIAL, _SQUARE, CATALOG, CLASS_BOUNDS, _claw_triple, _iter_induced,
                       claw_center, find_induced, pattern)


def enumerate_nonisomorphic(n: int) -> list[Graph]:
    """All non-isomorphic graphs on exactly n vertices, in _sweep's order."""
    return list(iter_nonisomorphic(n))


def iter_nonisomorphic(n: int):
    """Yields enumerate_nonisomorphic(n) one graph at a time, so a caller
    that streams never holds level n as a list."""
    return (g for g in _sweep(n) if g.n == n)


def graphs_up_to(n: int) -> list[Graph]:
    """All non-isomorphic graphs on 1..n vertices, level by level."""
    return list(iter_graphs_up_to(n))


def iter_graphs_up_to(n: int):
    """Yields graphs_up_to(n) one graph at a time: _sweep without its
    empty graph, so a caller that streams holds only the sweep's level."""
    return (g for g in _sweep(n) if g.n >= 1)


def _sweep(n: int):
    """Yields the graphs of levels 0..n in order.  Level k extends each
    representative on k-1 vertices by one vertex over neighbourhoods in
    ascending order and keeps first representatives by canonical form; any
    k-vertex graph arises this way from deleting its last vertex's image, so
    the sweep is exhaustive.  Only the parent level is held, as rows with
    the automorphisms _label found, and the last level never is.

    Orbit pruning labels only the neighbourhoods _least_under_generators
    returns.  Each generator σ is an automorphism of the parent, so
    child(nb) is isomorphic to child(σ(nb)).  If some σ maps nb lower, then
    by induction on nb the child of σ(nb), or of a smaller neighbourhood
    still, was labelled earlier from the same parent, so nb's own child
    would never be kept.  No generator maps an orbit's least member lower,
    so every level keeps the same graphs in the same order; the generators
    change only how many neighbourhoods are labelled.  Candidates are
    labelled as raw rows; only kept ones become a validated Graph.

    A candidate C from parent i is dropped unlabelled when deleting some old
    vertex u leaves a degree multiset that only parents before i have.  The
    parent level holds every (k-1)-vertex graph exactly once, so C - u is
    isomorphic to some parent j < i, and C to a child of j over the least
    member of an orbit, which came before C and was labelled, or dropped in
    turn for a parent earlier still: by induction over the sweep order, a
    child isomorphic to C was labelled first.  The first candidate of a
    class is never dropped, since no earlier parent generates that class,
    so every level keeps the same graphs in the same order, with the same
    automorphisms.  The argument needs only a complete parent level, which
    the sweep of a hereditary class has too.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > ENUMERATION_CAP:
        raise CapacityError("enumerate_nonisomorphic", n, ENUMERATION_CAP)
    yield Graph.empty(0)
    parents = [((), [])]
    for k in range(1, n + 1):
        top = 1 << (k - 1)
        # last[ms]: the latest parent whose degree multiset is ms
        last = {_degree_multiset(adj): i for i, (adj, _) in enumerate(parents)}
        seen, level = set(), []
        for i, (adj, automorphisms) in enumerate(parents):
            dropped = _deletion_test(adj, last, i)
            for nb in _least_under_generators(adj, automorphisms):
                if dropped(nb):
                    continue
                rows = [row | top if nb >> v & 1 else row for v, row in enumerate(adj)]
                rows.append(nb)
                key, found = _label(rows)
                if key not in seen:
                    seen.add(key)
                    child = Graph(k, rows)
                    if k < n:
                        level.append((child.adj, found))
                    yield child
        parents = level


def _degree_multiset(rows) -> int:
    """The degree multiset of the graph with rows, as one int holding a
    4-bit count per degree value (a count is at most CANONICAL_CAP = 10)."""
    return sum(1 << 4 * row.bit_count() for row in rows)


def _deletion_test(adj, last, i):
    """The sweep's deletion test for parent i with rows adj, built once per
    parent: the returned function tells whether the child over the
    neighbourhood nb has an old vertex u whose deletion leaves a degree
    multiset (_degree_multiset) that last maps to a parent before i.

    C - u's multiset is C's less u's term, with each neighbour of u moved
    down one degree.  In C a vertex w of nb has one degree more than in adj,
    so its term is 16 terms[w] = terms[w] + 15 terms[w], and moving it down
    takes off 15 terms[w] rather than down[w]; the new vertex has the term
    t = 1 << 4|nb| and is a neighbour of u exactly when u lies in nb.  So C's
    multiset is whole + up[nb] + t, and u's old neighbours take off off[u] +
    shift[adj[u] & nb]: one lookup per u, and no child rows."""
    terms = [1 << 4 * row.bit_count() for row in adj]
    whole = sum(terms)
    # down[w]: what moving a neighbour w down one degree takes off (a vertex
    # of degree 0 is no one's neighbour)
    down = [t - (t >> 4) for t in terms]
    up, shift = [0], [0]  # subset sums over the vertex set s, one add per entry
    for t, d in zip(terms, down):
        up += [x + 15 * t for x in up]
        shift += [x + 15 * t - d for x in shift]
    # per u: its row and bit, then what deleting it takes off besides shift,
    # when u is outside nb and when it is in nb (a degree up, term shifted)
    table = []
    for u, (row, t) in enumerate(zip(adj, terms)):
        off = sum(down[w] for w in bits(row))
        table.append((row, 1 << u, t + off, (t << 4) + off))

    def dropped(nb):
        t = 1 << 4 * nb.bit_count()
        child = whole + up[nb] + t
        inside = child - t + (t >> 4)  # u in nb also moves the new vertex down
        for row, bit, out_off, in_off in table:
            if nb & bit:
                ms = inside - in_off - shift[row & nb]
            else:
                ms = child - out_off - shift[row & nb]
            if last[ms] < i:
                return True
        return False

    return dropped


def _least_under_generators(adj, gens) -> list[int] | range:
    """The new-vertex neighbourhoods over the rows adj, ascending, that no
    single generator maps lower: gens holds _label's automorphisms of adj (a
    fresh list this call extends) and gains the twin swaps (u v), which
    _label never reports.  Each orbit's least member is among them."""
    m = len(adj)
    for v in range(m):
        for u in range(v):
            if _are_twins(adj, u, v):
                p = list(range(m))
                p[u], p[v] = v, u
                gens.append(p)
    if not gens:
        return range(1 << m)
    tables = []
    for p in gens:
        img = [0]  # img[nb]: the image of nb under p, one OR per entry
        for v in range(m):
            bit = 1 << p[v]
            img += [x | bit for x in img]
        tables.append(img)
    return [nb for nb in range(1 << m) if all(img[nb] >= nb for img in tables)]


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) drawn with a Mersenne Twister seeded at seed; edge draws run
    in lexicographic pair order, so a seed pins down the graph exactly."""
    if not 0 <= n <= MAX_VERTICES:  # refuse before n(n-1)/2 draws, as Graph would after
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    import random  # here, so that importing the CLI does not load it
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


# -- memoised per-graph facts, shared by the checks on one block of graphs --


@lru_cache(maxsize=None)
def _free(g: Graph, name: str) -> bool:
    """Whether g has no induced pattern name.  The claw scan answers "claw";
    a graph with a census (_CENSUS) answers a five-vertex pattern by one set
    test against its orbit; a claw-free g is free of every pattern that
    holds a claw (the fork is a claw with one edge subdivided), and K_k is
    absent exactly when omega < k; only the other questions search."""
    if name == "claw":
        return claw_center(g) is None
    census = _CENSUS.get(g)
    if census is not None and pattern(name).n == 5:
        return census.isdisjoint(_orbit(name))
    holders, cliques = _pattern_facts()
    if name in holders and _free(g, "claw"):
        return True
    if name in cliques:
        return _max_clique_size(g.adj, g.vertex_mask) < cliques[name]
    return find_induced(g, pattern(name), name) is None


@cache
def _pattern_facts() -> tuple[frozenset[str], dict[str, int]]:
    """The catalog names whose pattern holds an induced claw, found by the
    mask search so that find_induced sees host searches only, and k for each
    complete pattern K_k; read off the catalog once, on first use."""
    claw = pattern("claw")
    holders = frozenset(name for name, pat in CATALOG.items()
                        if next(_iter_induced(pat.adj, pat.vertex_mask, claw), None) is not None)
    cliques = {name: pat.n for name, pat in CATALOG.items()
               if pat.edge_count == pat.n * (pat.n - 1) // 2}
    return holders, cliques


# A census answers every five-vertex question of a graph, and at n = 7 it
# costs about one fork search, but it grows as C(n, 5) while a search stays
# near 30 us: at G(9, p) it costs about 70 us, at n = 12 350 us and at n = 16
# 1.6 ms (Python 3.11, 2-CPU host).  At n = 9 it measured neutral under
# every check, and above that it loses.
CENSUS_MAX_N = 9
_CENSUS: dict[Graph, set[int]] = {}  # graph -> _five_codes, filled per block by _run


def _five_codes(adj, n: int) -> set[int]:
    """The codes of G[S] over every five-vertex S = {a < b < c < d < e} of
    the graph with rows adj: bit i of a code is the i-th pair of S in the
    fixed order ab, ac, bc, ad, bd, cd, ae, be, ce, de, built as each vertex
    joins.  G[S] is isomorphic to a five-vertex pattern exactly when its code
    lies in the pattern's _orbit."""
    codes = set()
    for a in range(n - 4):
        ra = adj[a]
        for b in range(a + 1, n - 3):
            rb = adj[b]
            c1 = ra >> b & 1
            for c in range(b + 1, n - 2):
                c2 = c1 | (ra >> c & 1) << 1 | (rb >> c & 1) << 2
                for d in range(c + 1, n - 1):
                    rd = adj[d]
                    c3 = c2 | (rd >> a & 1) << 3 | (rd >> b & 1) << 4 | (rd >> c & 1) << 5
                    for e in range(d + 1, n):
                        re = adj[e]
                        codes.add(c3 | (re >> a & 1) << 6 | (re >> b & 1) << 7
                                  | (re >> c & 1) << 8 | (re >> d & 1) << 9)
    return codes


@cache
def _orbit(name: str) -> frozenset[int]:
    """The codes of all 120 labellings of the five-vertex catalog pattern
    name: a graph holds the pattern exactly when its census meets them.
    Built on first use."""
    pat = pattern(name)
    return frozenset(code for p in permutations(range(5))
                     for code in _five_codes(pat.relabel(p).adj, 5))


@lru_cache(maxsize=None)
def _homogeneous(g: Graph) -> int | None:
    # a homogeneous set or None: the checks ask only whether one exists
    return next(_pair_closures(g), None)


@lru_cache(maxsize=None)
def _pd_exact(g: Graph) -> bool:
    return is_perfectly_divisible_exact(g)


def _claw_centers(g: Graph) -> list[int]:
    """Vertices with three pairwise non-adjacent neighbours."""
    return [v for v in range(g.n) if _claw_triple(g.adj, v) is not None]


def _imperfect_non_neighborhood(g: Graph, vertices, key: str) -> dict | None:
    """Failure detail naming the first of vertices whose non-neighbourhood
    M(v) is not perfect, or None when every such M(v) is perfect."""
    for v in vertices:
        m_v = g.non_neighborhood(v)
        if not is_perfect_induced(g, m_v):
            return {key: v, "m_v": sorted(bits(m_v))}
    return None


# -- the checks ----------------------------------------------------------


Outcome = namedtuple("Outcome", "matched tags failure", defaults=((), None))

# a check's tag_names get zero-filled in reports, so a vacuous direction
# still shows up as an explicit 0 rather than silently missing
TheoremCheck = namedtuple("TheoremCheck", "check_id claim evaluate tag_names", defaults=((),))


def _t1(g: Graph) -> Outcome:
    if not (_free(g, "fork") and _free(g, "P6")):
        return Outcome(False)
    pd = _pd_exact(g)
    hs = _homogeneous(g)
    tags = []
    if not pd:
        tags.append("direct")  # not divisible, so a homogeneous set must exist
    if hs is None:
        tags.append("contrapositive")  # no homogeneous set, so divisible
    failure = None
    if not pd and hs is None:
        failure = {"perfectly_divisible": False, "homogeneous_set": None}
    return Outcome(True, tuple(tags), failure)


def _t2(g: Graph) -> Outcome:
    # P3+K1 lies in the fork, so a P3+K1-free graph is fork-free: fork goes first
    if not (_free(g, "fork") and (_free(g, "P6") or _free(g, "P3+K1"))):
        return Outcome(False)
    if _pd_exact(g):
        return Outcome(True)
    return Outcome(True, failure={"perfectly_divisible": False})


def _t3(g: Graph) -> Outcome:
    # a claw-free graph is dart-free, so the cheap claw scan goes first
    if not (g.is_connected() and _free(g, "fork")):
        return Outcome(False)
    centers = _claw_centers(g)
    if not centers or not _free(g, "dart"):
        return Outcome(False)
    return Outcome(True, failure=_imperfect_non_neighborhood(g, centers, "claw_center"))


def _t4(g: Graph) -> Outcome:
    if not (g.is_connected() and _free(g, "fork") and _free(g, "co-dart")):
        return Outcome(False)
    if _homogeneous(g) is not None:
        return Outcome(True)
    return Outcome(True, failure=_imperfect_non_neighborhood(g, range(g.n), "vertex"))


def _t5(g: Graph) -> Outcome:
    if not (_free(g, "banner") and _homogeneous(g) is None):
        return Outcome(False)
    if _free(g, "K2,3"):
        return Outcome(True)
    w = find_induced(g, pattern("K2,3"), "K2,3")  # only for the witness
    return Outcome(True, failure={"k23_witness": list(w.mapping)})


def _t6(g: Graph) -> Outcome:
    if not (_free(g, "fork") and _free(g, "banner")) or _free(g, "claw"):
        return Outcome(False)
    if _homogeneous(g) is not None:
        return Outcome(True)
    if any(is_perfect_induced(g, g.non_neighborhood(v)) for v in range(g.n)):
        return Outcome(True)
    return Outcome(True, failure={"no_vertex_with_perfect_non_neighborhood": True})


def _t7(g: Graph) -> Outcome:
    if not (_free(g, "fork") and _free(g, "co-cricket")):
        return Outcome(False)
    if _free(g, "claw") or _homogeneous(g) is not None:
        return Outcome(True)
    return Outcome(True, failure=_imperfect_non_neighborhood(g, range(g.n), "vertex"))


def _t8(g: Graph) -> Outcome:
    # T1 has memoised _homogeneous for almost every fork-free graph
    if not (_free(g, "fork") and _homogeneous(g) is None and _free(g, "bull")):
        return Outcome(False)
    co_p5 = pattern("co-P5")
    for v in range(g.n):
        m_v = g.non_neighborhood(v)
        hole = _first_odd_hole(g.adj, m_v)
        if hole is not None:
            return Outcome(True, failure={"vertex": v, "odd_hole": sorted(bits(hole))})
        w = next(_iter_induced(g.adj, m_v, co_p5), None)
        if w is not None:
            return Outcome(True, failure={"vertex": v, "co_p5": sorted(w)})
    return Outcome(True)


def _t9(g: Graph) -> Outcome:
    if not (2 <= g.n <= 6 and g.is_connected()):
        return Outcome(False)
    lg, _, _ = line_graph_division(g)  # certified by the oracles
    if not is_perfectly_divisible_exact(lg):  # not the graph under check, so no memo
        return Outcome(True, failure={"line_graph_not_perfectly_divisible": True})
    return Outcome(True)


def _t10(g: Graph) -> Outcome:
    if not _free(g, "fork"):
        return Outcome(False)
    if _pd_exact(g):
        return Outcome(True)
    return Outcome(True, failure={"perfectly_divisible": False})


# (label, patterns the class excludes, chi bound) in report order
_AUDIT_CLASSES = tuple(
    (name, ("fork", name), bound) for name, bound in CLASS_BOUNDS.items()
) + (("claw-free alone", ("claw",), _SQUARE),)


def _chi_audit(g: Graph) -> Outcome:
    cert = color_by_division(g)
    chi = om = cert.omega  # a proper colouring with omega colours is optimal
    if cert.palette > om:
        colors, _ = _exact_coloring(g.adj, g.vertex_mask, om)
        chi = max(colors) + 1
    violations = []
    for name, patterns, bound in _AUDIT_CLASSES:
        # membership matters only when chi exceeds the bound, so test that first
        limit = bound.evaluate(om)
        if chi > limit and all(_free(g, p) for p in patterns):
            violations.append({"class": name, "bound": limit})
    if any(cert.colors[u] == cert.colors[v] for u, v in g.edges()):
        violations.append({"class": "division colouring not proper"})
    if cert.palette < chi:
        violations.append({"class": "division palette below chi"})
    if not cert.fallback and cert.palette > _BINOMIAL.evaluate(om):
        violations.append({"class": f"division palette above {_BINOMIAL.text}"})
    if violations:
        return Outcome(True, failure={"omega": om, "chi": chi, "violations": violations})
    return Outcome(True)


CHECKS: dict[str, TheoremCheck] = {
    c.check_id: c
    for c in [
        TheoremCheck(
            "T1",
            "{fork,P6}-free and not perfectly divisible implies a homogeneous set"
            " (contrapositive: no homogeneous set implies perfectly divisible)",
            _t1,
            tag_names=("direct", "contrapositive"),
        ),
        TheoremCheck(
            "T2",
            "{fork,P6}-free or {P3+K1}-free implies perfectly divisible",
            _t2,
        ),
        TheoremCheck(
            "T3",
            "connected {fork,dart}-free: every claw centre has a perfect non-neighbourhood",
            _t3,
        ),
        TheoremCheck(
            "T4",
            "connected {fork,co-dart}-free: a homogeneous set, or every"
            " non-neighbourhood is perfect",
            _t4,
        ),
        TheoremCheck(
            "T5",
            "banner-free with no homogeneous set implies K2,3-free",
            _t5,
        ),
        TheoremCheck(
            "T6",
            "{fork,banner}-free with a claw: a homogeneous set, or some vertex"
            " has a perfect non-neighbourhood",
            _t6,
        ),
        TheoremCheck(
            "T7",
            "{fork,co-cricket}-free: claw-free, or a homogeneous set, or every"
            " non-neighbourhood is perfect",
            _t7,
        ),
        TheoremCheck(
            "T8",
            "{fork,bull}-free with no homogeneous set: every non-neighbourhood"
            " is odd-hole-free and co-P5-free",
            _t8,
        ),
        TheoremCheck(
            "T9",
            "line graphs of connected graphs divide along a spanning tree and"
            " are perfectly divisible",
            _t9,
        ),
        TheoremCheck(
            "T10",
            "fork-free implies perfectly divisible (conjecture)",
            _t10,
        ),
        TheoremCheck(
            "chi-audit",
            "exact chi respects every applicable class bound and the division"
            f" colouring stays within {_BINOMIAL.text}",
            _chi_audit,
        ),
    ]
}

_MEMOS = (_free, _homogeneous, _pd_exact)  # bound here, so stubbing a name keeps the clearing
BLOCK = 64  # graphs per block: the memos hold at most this many graphs' facts


class TheoremReport:
    """One check's tallies over one corpus; run_check or run_all fills it in."""

    def __init__(self, check_id: str, claim: str, corpus: str):
        self.check_id = check_id
        self.claim = claim
        self.corpus = corpus
        self.graphs_scanned = 0
        self.hypothesis_matches = 0
        self.tag_counts: dict = {}
        self.counterexamples: list = []
        self.skipped: list = []
        self.wall_time_s = 0.0

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json(self, include_timing: bool = False):
        out = {
            "check": self.check_id,
            "claim": self.claim,
            "corpus": self.corpus,
            "graphs_scanned": self.graphs_scanned,
            "hypothesis_matches": self.hypothesis_matches,
            "counterexamples": self.counterexamples,
            "skipped": self.skipped,
            "passed": self.passed,
            "wall_time_s": round(self.wall_time_s, 3) if include_timing else None,
        }
        if self.tag_counts:
            out["hypothesis_breakdown"] = dict(sorted(self.tag_counts.items()))
        return out


def run_check(check: TheoremCheck, corpus, corpus_desc: str) -> TheoremReport:
    """Evaluate one check over a corpus, as run_all does."""
    return _run([check], corpus, corpus_desc)[0]


def run_all(corpus, corpus_desc: str, check_ids=None) -> list[TheoremReport]:
    return _run([CHECKS[i] for i in check_ids or CHECKS], corpus, corpus_desc)


def _run(checks, corpus, corpus_desc: str) -> list[TheoremReport]:
    """Evaluate the checks one after another over each block of BLOCK graphs
    taken from the corpus, any iterable, while the memos hold that block's
    facts alone; a capacity miss becomes a skip, a failed certificate a
    counterexample with the message as detail, and both lists come back
    sorted by graph6.  Several checks ask several five-vertex pattern
    questions of a graph, so then each graph with at most CENSUS_MAX_N
    vertices gets a census for its block; a check run alone asks one or two,
    which a search or a shortcut answers for less."""
    reports = [TheoremReport(c.check_id, c.claim, corpus_desc) for c in checks]
    corpus = iter(corpus)
    try:
        while block := list(islice(corpus, BLOCK)):
            for memo in _MEMOS:  # so no fact from before this block is reused
                memo.cache_clear()
            _CENSUS.clear()
            if len(checks) > 1:
                _CENSUS.update((g, _five_codes(g.adj, g.n)) for g in block if g.n <= CENSUS_MAX_N)
            for check, report in zip(checks, reports):
                start = time.perf_counter()
                for g in block:
                    try:
                        out = check.evaluate(g)
                    except CapacityError as exc:
                        report.skipped.append({"graph6": formats.emit_graph6(g), "reason": str(exc)})
                        continue
                    except InvariantError as exc:
                        out = Outcome(True, failure={"certificate": str(exc)})
                    if out.matched:
                        report.hypothesis_matches += 1
                        for tag in out.tags:
                            report.tag_counts[tag] = report.tag_counts.get(tag, 0) + 1
                        if out.failure is not None:
                            report.counterexamples.append(
                                {"graph6": formats.emit_graph6(g), "detail": out.failure})
                report.graphs_scanned += len(block)
                report.wall_time_s += time.perf_counter() - start
    finally:  # so nothing outlives the run, even one that raises
        for memo in _MEMOS:
            memo.cache_clear()
        _CENSUS.clear()
    for check, report in zip(checks, reports):
        report.tag_counts = dict.fromkeys(check.tag_names, 0) | report.tag_counts
        report.counterexamples.sort(key=lambda c: c["graph6"])
        report.skipped.sort(key=lambda c: c["graph6"])
    return reports
