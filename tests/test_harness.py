import gc
import hashlib
import random
import types
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bruteforce
from forkdiv.divisibility import ColoringCertificate, color_by_division
from forkdiv.formats import emit_graph6, parse_graph6
from forkdiv.graph import Graph, bits, canonical_form, mask_of
from forkdiv import divisibility, harness
from forkdiv.harness import (
    CHECKS,
    _claw_centers,
    enumerate_nonisomorphic,
    graphs_up_to,
    random_gnp,
    run_all,
    run_check,
)
from forkdiv.limits import CapacityError, InvariantError
from forkdiv.oracles import max_weight_clique
from forkdiv.patterns import _SQUARE, CATALOG, CLASS_BOUNDS, claw_center, find_induced, pattern
from strategies import graphs, imperfect_graphs


def test_enumeration_counts_match_known_sequence():
    for n, want in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)]:
        assert len(enumerate_nonisomorphic(n)) == want


def test_enumeration_matches_labeled_enumeration():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        keys = set()
        for m in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if m >> i & 1]
            keys.add(canonical_form(Graph.from_edges(n, edges)))
        assert keys == {canonical_form(g) for g in enumerate_nonisomorphic(n)}
        assert len(keys) == len(enumerate_nonisomorphic(n))


def test_enumeration_output_is_pinned(monkeypatch):
    # the bytes of `forkdiv gen --all n`: same representatives in the same
    # order; the level-8 sweep labels 34,666 candidates (85,023 with orbit
    # pruning alone, before the degree-multiset rejection)
    calls = []
    label = harness._label
    monkeypatch.setattr(harness, "_label", lambda adj: calls.append(adj) or label(adj))
    for n, expected, labellings in [
        (7, "aa8347fb48e37ddee5f27abd3425aaa093cf5184d787030198f2151ffe63ce52", 1849),
        (8, "69fda48ed5c789b5945500540fd14b642a77c93379eff11f05401a5ed26b601c", 34666),
    ]:
        calls.clear()
        text = "\n".join(emit_graph6(g) for g in enumerate_nonisomorphic(n)) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == expected, n
        assert len(calls) == labellings, n


def test_enumeration_capacity():
    with pytest.raises(CapacityError):
        enumerate_nonisomorphic(10)


def _child(p, nb):
    """p plus a last vertex adjacent to the vertex set nb."""
    k = p.n
    rows = tuple(row | (nb >> v & 1) << k for v, row in enumerate(p.adj))
    return Graph(k + 1, rows + (nb,))


@st.composite
def symmetric_parents(draw):
    """A parent on 4 to 6 vertices with a planted automorphism: a last
    vertex twinned to a drawn one, or two copies of one graph side by side
    or joined; then its vertices are shuffled."""
    if draw(st.booleans()):
        g = draw(graphs(min_n=3, max_n=5))
        w = draw(st.integers(0, g.n - 1))
        parent = _child(g, g.adj[w] | (1 << w if draw(st.booleans()) else 0))
    else:
        h = draw(graphs(min_n=2, max_n=3))
        parent = h.disjoint_union(h)
        if draw(st.booleans()):
            parent = parent.complement()
    return parent.relabel(draw(st.permutations(range(parent.n))))


@settings(max_examples=10)
@given(symmetric_parents())
def test_orbit_pruning_skips_only_isomorphic_children(parent):
    # the least neighbourhood of each brute-force orbit is labelled, and every
    # skipped one lies in the orbit of a smaller one, with an isomorphic child
    labelled = set(harness._least_under_generators(parent.adj, harness._label(parent.adj)[1]))
    group = bruteforce.automorphisms(parent)
    keys: dict[int, tuple] = {}
    for nb in range(1 << parent.n):
        least = min(mask_of(p[v] for v in bits(nb)) for p in group)
        assert least in labelled
        if nb not in labelled:
            assert least < nb
            if least not in keys:
                keys[least] = bruteforce.canonical(_child(parent, least))
            assert bruteforce.canonical(_child(parent, nb)) == keys[least]


def test_pruned_levels_match_an_unpruned_sweep():
    # every neighbourhood of every parent, first representatives kept by the
    # brute-force canonical form: the same graphs in the same order
    level = [Graph.empty(0)]
    for k in range(1, 6):
        seen, nxt = set(), []
        for parent in level:
            for nb in range(1 << (k - 1)):
                child = _child(parent, nb)
                key = bruteforce.canonical(child)
                if key not in seen:
                    seen.add(key)
                    nxt.append(child)
        level = nxt
        assert enumerate_nonisomorphic(k) == level


def test_enumeration_labels_only_unpruned_candidates(monkeypatch):
    # a deterministic guard on orbit pruning and the degree-multiset
    # rejection: building levels 1-7 labels 1,849 candidates and no parent
    # again, since the sweep keeps the automorphisms found when each parent
    # was labelled; orbit pruning alone labels 5,759 of the unpruned sweep's
    # 11,291 candidates, and the rejection drops 3,910 of those unlabelled.
    # Only kept graphs become a Graph, and since no level outlives a call, a
    # second call labels the same 1,849 again
    calls, built = [], []
    label, validate = harness._label, Graph.__post_init__
    monkeypatch.setattr(harness, "_label", lambda adj: calls.append(adj) or label(adj))
    monkeypatch.setattr(Graph, "__post_init__", lambda g: built.append(g) or validate(g))
    enumerate_nonisomorphic(7)
    assert len(calls) == 1849
    assert len(built) == 1253  # the empty graph and the 1,252 on 1..7 vertices
    calls.clear()
    assert len(graphs_up_to(7)) == 1252
    assert len(calls) == 1849


def _swept_candidates(monkeypatch, n):
    """Runs the sweep to level n and returns its levels, every candidate's
    rows (as a tuple, in sweep order: each nb the deletion test is asked
    about) and the set of those it labelled."""
    candidates, labelled = [], set()
    deletion_test, label = harness._deletion_test, harness._label

    def watched_test(adj, last, i):
        dropped, top = deletion_test(adj, last, i), 1 << len(adj)

        def watched(nb):
            rows = tuple(row | top if nb >> v & 1 else row for v, row in enumerate(adj))
            candidates.append(rows + (nb,))
            return dropped(nb)
        return watched

    monkeypatch.setattr(harness, "_deletion_test", watched_test)
    monkeypatch.setattr(harness, "_label", lambda rows: labelled.add(tuple(rows)) or label(rows))
    levels = [[] for _ in range(n + 1)]
    for g in harness._sweep(n):
        levels[g.n].append(g)
    return levels, candidates, labelled


def test_rejection_drops_only_children_kept_from_an_earlier_parent(monkeypatch):
    # every candidate the sweep drops unlabelled is isomorphic, by the
    # brute-force canonical form, to a child kept from an earlier parent
    levels, candidates, labelled = _swept_candidates(monkeypatch, 6)
    index = {g.adj: i for level in levels for i, g in enumerate(level)}

    def parent_index(rows):
        top = 1 << (len(rows) - 1)
        return index[tuple(row & ~top for row in rows[:-1])]

    first_from = {}  # brute-force key -> the parent of the kept child
    for level in levels[1:]:
        for g in level:
            first_from[bruteforce.canonical(g)] = parent_index(g.adj)
    dropped = [rows for rows in candidates if rows not in labelled]
    for rows in dropped:
        assert first_from[bruteforce.canonical(Graph(len(rows), rows))] < parent_index(rows)
    assert len(dropped) == 437
    assert len(candidates) - len(dropped) == len(labelled)


class _Lookups:
    """A stand-in for the sweep's last map: records every multiset looked
    up and answers index, so the test drops at the first lookup when index
    is -1 and never when it is 0."""

    def __init__(self, index):
        self.index, self.seen = index, []

    def __getitem__(self, ms):
        self.seen.append(ms)
        return self.index


def test_deletion_multisets_match_a_degree_recount(monkeypatch):
    # on every level-7 candidate, the multiset the per-parent test computes
    # for each old vertex u against the degrees of the rows with u removed,
    # recounted here pair by pair with a 4-bit count per degree value
    _, candidates, _ = _swept_candidates(monkeypatch, 7)
    level7 = [rows for rows in candidates if len(rows) == 7]
    assert len(level7) == 5096
    for rows in level7:
        want = []
        for u in range(6):
            rest = [v for v in range(7) if v != u]
            degrees = [sum(rows[v] >> w & 1 for w in rest) for v in rest]
            want.append(sum(degrees.count(d) << 4 * d for d in set(degrees)))
        adj, nb = [row & ~(1 << 6) for row in rows[:-1]], rows[-1]
        kept, early = _Lookups(0), _Lookups(-1)
        assert not harness._deletion_test(adj, kept, 0)(nb)
        assert kept.seen == want
        assert harness._deletion_test(adj, early, 0)(nb)
        assert early.seen == want[:1]  # it stops at the first earlier parent


def test_graphs_up_to_is_cumulative():
    assert len(graphs_up_to(5)) == 1 + 2 + 4 + 11 + 34
    assert graphs_up_to(0) == []
    with pytest.raises(ValueError, match="nonnegative"):
        graphs_up_to(-1)


def test_graphs_up_to_refuses_before_building_a_level(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "_label", lambda adj: calls.append(adj))
    for enumerate_ in (graphs_up_to, enumerate_nonisomorphic):
        for n in (10, 12):  # the message names the n asked for
            with pytest.raises(CapacityError) as exc:
                enumerate_(n)
            assert str(exc.value) == f"enumerate_nonisomorphic: graph has {n} vertices, cap is 9"
    assert calls == []


def test_no_enumerated_graph_outlives_the_call():
    # the sweep keeps only the parent level, and only while it runs
    def live_graphs():
        gc.collect()
        return sum(type(o) is Graph for o in gc.get_objects())

    before = live_graphs()
    enumerate_nonisomorphic(7)
    graphs_up_to(7)
    assert live_graphs() == before


def test_gnp_extremes_and_determinism():
    assert random_gnp(6, 0.0, 7) == Graph.empty(6)
    assert random_gnp(6, 1.0, 7) == Graph.complete(6)
    assert random_gnp(10, 0.5, 42) == random_gnp(10, 0.5, 42)
    assert random_gnp(10, 0.5, 42) != random_gnp(10, 0.5, 43)
    with pytest.raises(ValueError):
        random_gnp(5, 1.5, 0)


@pytest.mark.parametrize("n", [-1, 129, 10**6])
def test_gnp_refuses_a_vertex_count_before_drawing(n, monkeypatch):
    def no_draws(seed):
        raise AssertionError("drew edges for a vertex count Graph refuses")

    monkeypatch.setattr(random, "Random", no_draws)
    with pytest.raises(ValueError) as exc:
        random_gnp(n, 0.5, 1)
    assert str(exc.value) == f"vertex count {n} outside 0..128"


def test_gnp_golden_seed():
    assert emit_graph6(random_gnp(10, 0.5, 42)) == "I]`q_a`yw"


def test_claw_centers_golden():
    assert _claw_centers(Graph.complete_bipartite(1, 3)) == [0]
    assert _claw_centers(Graph.complete_bipartite(2, 3)) == [0, 1]
    assert _claw_centers(Graph.path(3)) == []
    assert _claw_centers(Graph.cycle(5)) == []
    assert _claw_centers(Graph.complete(5)) == []


@given(graphs(max_n=9))
def test_claw_centers_match_stable_triples(g):
    # first stable triple of N(v) in combinations order, per vertex v
    triples = {
        v: next(
            (
                (a, b, c)
                for a, b, c in combinations(bits(g.adj[v]), 3)
                if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c))
            ),
            None,
        )
        for v in range(g.n)
    }
    want = [v for v, t in triples.items() if t is not None]
    assert _claw_centers(g) == want
    assert claw_center(g) == (None if not want else (want[0], triples[want[0]]))


def test_registry_contents():
    assert list(CHECKS) == [
        "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "chi-audit",
    ]
    for check in CHECKS.values():
        assert check.claim


def test_all_checks_pass_on_small_corpus():
    corpus = graphs_up_to(5)
    for report in run_all(corpus, "all graphs on 1..5 vertices"):
        assert report.passed, report.check_id
        assert report.graphs_scanned == len(corpus)
        assert not report.skipped


def test_connected_theorems_on_larger_corpus():
    corpus = graphs_up_to(6)
    for check_id in ("T3", "T5", "T9"):
        report = run_check(CHECKS[check_id], corpus, "all graphs on 1..6 vertices")
        assert report.passed
        assert report.hypothesis_matches > 0


def test_report_json_shape_and_direction_breakdown():
    report = run_check(CHECKS["T1"], graphs_up_to(4), "tiny")
    payload = report.to_json()
    assert payload["check"] == "T1"
    assert payload["passed"] is True
    assert payload["counterexamples"] == []
    assert payload["wall_time_s"] is None
    assert report.to_json(include_timing=True)["wall_time_s"] is not None
    # both directions are reported even when one is vacuous
    breakdown = payload["hypothesis_breakdown"]
    assert set(breakdown) == {"direct", "contrapositive"}
    assert breakdown["direct"] == 0
    assert breakdown["contrapositive"] > 0


def test_chi_audit_reports_every_bound_a_chi_exceeds(monkeypatch):
    # no small graph breaks a bound, so claim chi = 5 for C5 (omega = 2):
    # every class applies to C5, and the real division colouring uses 3
    monkeypatch.setattr(harness, "_exact_coloring", lambda adj, mask, om: (list(range(5)), om))
    out = CHECKS["chi-audit"].evaluate(Graph.cycle(5))
    limits = {"K3": 3, "2K2": 3, "dart": 4, "banner": 4, "co-cricket": 4, "claw": 4,
              "P6": 3, "co-dart": 3, "bull": 3, "K5-e": 3, "co-(P3+2K1)": 3, "antifork": 4}
    assert out.failure == {
        "omega": 2,
        "chi": 5,
        "violations": [{"class": name, "bound": b} for name, b in limits.items()]
        + [{"class": "claw-free alone", "bound": 4}, {"class": "division palette below chi"}],
    }


def _eager_chi_audit_failure(g, chi, om):
    """The chi-audit failure with every class membership decided up front,
    by brute-force embedding search, before any bound is compared."""
    def free(name):
        return not bruteforce.has_induced(g, pattern(name))

    fork_free = free("fork")
    rows = [(name, bound) for name, bound in CLASS_BOUNDS.items() if fork_free and free(name)]
    if free("claw"):
        rows.append(("claw-free alone", _SQUARE))
    violations = [{"class": name, "bound": bound.evaluate(om)}
                  for name, bound in rows if chi > bound.evaluate(om)]
    cert = color_by_division(g)
    if any(cert.colors[u] == cert.colors[v] for u, v in g.edges()):
        violations.append({"class": "division colouring not proper"})
    if cert.palette < chi:
        violations.append({"class": "division palette below chi"})
    if not cert.fallback and cert.palette > (om + 1) * om // 2:
        violations.append({"class": "division palette above binom(omega+1,2)"})
    return {"omega": om, "chi": chi, "violations": violations} if violations else None


@settings(max_examples=150)
@given(imperfect_graphs(max_n=8), st.data())
def test_lazy_chi_audit_matches_an_eager_audit(drawn, data):
    # a stub chi anywhere in [omega, n] makes the class rows fire; the audit
    # must report the same rows as one that decides every membership first.
    # Only a division colouring with more than omega colours sends the audit
    # to the exact colouring, and a perfect graph never has one, hence the plant.
    g, _ = drawn
    om = bruteforce.omega(g)
    chi = data.draw(st.integers(om, max(om, g.n)))
    colors = [min(v, chi - 1) for v in range(g.n)]
    with mock.patch.object(harness, "_exact_coloring", return_value=(colors, om)) as stub:
        out = CHECKS["chi-audit"].evaluate(g)
    if color_by_division(g).palette > om:
        stub.assert_called_once_with(g.adj, g.vertex_mask, om)
    else:
        stub.assert_not_called()
        chi = om
    assert out.failure == _eager_chi_audit_failure(g, chi, om)


@settings(max_examples=150)
@given(graphs(min_n=1, max_n=8))
def test_a_perfect_graph_takes_chi_from_its_division_colouring(g):
    # chi = omega on a perfect graph, and the division's whole-graph layer
    # has already coloured it with omega colours: no second colouring
    assume(bruteforce.is_perfect(g))
    om = bruteforce.omega(g)
    with mock.patch.object(harness, "_exact_coloring", side_effect=AssertionError) as stub:
        out = CHECKS["chi-audit"].evaluate(g)
    stub.assert_not_called()
    assert out.failure == _eager_chi_audit_failure(g, om, om)


def _count_colourings(corpus, check_ids=None):
    """_exact_coloring calls made by the chi-audit itself and by the
    division colouring, over one run of the checks."""
    with mock.patch.object(harness, "_exact_coloring", wraps=harness._exact_coloring) as own, \
            mock.patch.object(divisibility, "_exact_coloring", wraps=divisibility._exact_coloring) as layers:
        run_all(corpus, "counted", check_ids)
    return {"harness": own.call_count, "divisibility": layers.call_count}


def test_verify_colours_a_perfect_graph_once():
    # a deterministic guard: every check on every graph with n <= 7 makes
    # 1,505 exact colourings, where colouring each graph in the chi-audit
    # before its division colouring made 2,651, and colouring every
    # imperfect graph again made 1,546
    assert sum(_count_colourings(graphs_up_to(7)).values()) == 1505
    # C6 and K3,3 are perfect: the division's one layer is the only
    # colouring.  EEho (C5 with a triangle on one edge) is not, but its
    # division colouring uses omega = 3 colours, so it is optimal too
    for g in (Graph.cycle(6), Graph.complete_bipartite(3, 3)):
        assert _count_colourings([g], ["chi-audit"]) == {"harness": 0, "divisibility": 1}
    assert _count_colourings([parse_graph6("EEho")], ["chi-audit"])["harness"] == 0
    # C5's division colouring uses 3 > omega colours: the chi-audit asks
    # the exact oracle, and hands it omega = 2 so no clique is searched again
    c5 = Graph.cycle(5)
    with mock.patch.object(harness, "_exact_coloring", wraps=harness._exact_coloring) as own:
        CHECKS["chi-audit"].evaluate(c5)
    own.assert_called_once_with(c5.adj, c5.vertex_mask, 2)


def _count_searches(monkeypatch, check_ids=None, n=7):
    """find_induced calls over every graph on 1..n vertices."""
    calls = []
    real = harness.find_induced
    monkeypatch.setattr(harness, "find_induced", lambda *args: calls.append(args) or real(*args))
    run_all(graphs_up_to(n), f"all graphs on 1..{n} vertices", check_ids)
    monkeypatch.undo()
    return calls


def _memo_sizes():
    memos = (harness._free, harness._homogeneous, harness._pd_exact)
    return [memo.cache_info().currsize for memo in memos] + [len(harness._CENSUS)]


def test_pattern_facts_are_read_off_the_catalog():
    # by brute-force containment: the claw-holding patterns, and K_k for
    # each pattern whose omega is its vertex count
    claw = pattern("claw")
    want = {name for name, pat in CATALOG.items() if bruteforce.has_induced(pat, claw)}
    assert want == {"claw", "fork", "dart", "banner", "K2,3"}
    cliques = {name: pat.n for name, pat in CATALOG.items() if bruteforce.omega(pat) == pat.n}
    assert cliques == {"K1": 1, "K2": 2, "K3": 3, "K4": 4, "K5": 5}
    assert harness._pattern_facts() == (want, cliques)


def test_pattern_shortcuts_never_change_an_answer():
    # the claw scan, the claw-holding patterns and omega settle some
    # questions without a search; each answer, asked from an empty memo,
    # must be brute force's on every graph with n <= 6 and a seeded G(8, p)
    # sample.  Brute force reads containment off the canonical forms of the
    # host's induced subgraphs with as many vertices as a pattern can have
    keys = {name: bruteforce.canonical(pat) for name, pat in CATALOG.items()}
    most = max(pat.n for pat in CATALOG.values())
    corpus = graphs_up_to(6) + [random_gnp(8, 0.2 + 0.05 * seed, seed) for seed in range(12)]
    try:
        for g in corpus:
            held = {bruteforce.canonical(g.induced(m)[0])
                    for m in range(1 << g.n) if m.bit_count() <= most}
            for name in CATALOG:
                harness._free.cache_clear()
                assert harness._free(g, name) == (keys[name] not in held), (emit_graph6(g), name)
    finally:
        harness._free.cache_clear()


FIVE = [name for name, pat in CATALOG.items() if pat.n == 5]


def test_each_orbit_holds_a_code_per_labelling_up_to_automorphism():
    # 120 labellings, of which |Aut(P)| give each code
    for name in FIVE:
        autos = bruteforce.automorphisms(CATALOG[name])
        assert len(harness._orbit(name)) == 120 // len(autos), name


def test_census_agrees_with_brute_force_containment():
    # on every graph with n <= 7, brute force asks has_induced of each
    # five-vertex induced subgraph, memoised by its labelled edges (at most
    # 1,024 of them); on seeded G(8, p) and G(9, p) it asks of the host
    subgraphs = {}

    def held(g, name):
        for sub in combinations(range(g.n), 5):
            key = tuple(g.has_edge(u, v) for u, v in combinations(sub, 2))
            if key not in subgraphs:
                h = Graph.from_edges(5, [uv for uv, e in zip(combinations(range(5), 2), key) if e])
                subgraphs[key] = {p: bruteforce.has_induced(h, CATALOG[p]) for p in FIVE}
            if subgraphs[key][name]:
                return True
        return False

    for g in graphs_up_to(7):
        census = harness._five_codes(g.adj, g.n)
        for name in FIVE:
            assert (not census.isdisjoint(harness._orbit(name))) == held(g, name), (emit_graph6(g), name)
    sample = [random_gnp(n, 0.3 + 0.1 * (seed % 5), seed) for n in (8, 9) for seed in range(6)]
    for g in sample:
        census = harness._five_codes(g.adj, g.n)
        for name in FIVE:
            want = bruteforce.has_induced(g, CATALOG[name])
            assert (not census.isdisjoint(harness._orbit(name))) == want, (emit_graph6(g), name)


def test_only_a_run_of_several_checks_takes_a_census(monkeypatch):
    # one census per graph with at most CENSUS_MAX_N vertices when several
    # checks run; a single check keeps its searches and shortcuts
    corpus = graphs_up_to(4) + [random_gnp(n, 0.5, n) for n in range(8, 12)]
    taken = []
    real = harness._five_codes
    monkeypatch.setattr(harness, "_five_codes", lambda adj, n: taken.append(n) or real(adj, n))
    for check in CHECKS.values():
        run_check(check, corpus, "one check")
    assert taken == []
    run_all(corpus, "every check", ["T1", "T10"])
    assert taken == [g.n for g in corpus if g.n <= harness.CENSUS_MAX_N]
    assert max(taken) == harness.CENSUS_MAX_N
    assert _memo_sizes() == [0, 0, 0, 0]


def test_verify_searches_patterns_only_when_an_outcome_depends_on_them(monkeypatch):
    # a deterministic guard: the whole run makes 812 searches, where
    # answering the five-vertex patterns by search rather than by census
    # made 4,374, searching for the claw and the patterns that hold one on
    # claw-free graphs, and for K3, 6,316, deciding every chi-audit class up
    # front 12,312, and testing T2's P3+K1 on graphs that are not fork-free
    # 457 more.  What is left: P6, P3+K1, and T5's K2,3 witnesses
    calls = _count_searches(monkeypatch)
    assert len(calls) == 812
    assert {name for _, _, name in calls} <= {"P6", "P3+K1", "K2,3"}
    # alone, the chi-audit asks only about graphs with chi >= 4, which exceed
    # K3's constant bound and no other: fork, then K3 when fork-free.  The
    # claw scan settles the fork on claw-free graphs and omega settles K3,
    # so only the fork is searched, on graphs with a claw (420 asked)
    calls = _count_searches(monkeypatch, ["chi-audit"])
    assert len(calls) == 205
    assert {name for _, _, name in calls} == {"fork"}


def test_blocks_give_the_reports_of_each_check_run_alone(monkeypatch):
    # blocks split the corpus, which is not a whole number of blocks, and
    # every check runs over a block before the next check starts: each
    # report must still be the one that check gives over the corpus alone.
    # Graphs on 10 vertices take no census, so both paths are compared
    corpus = graphs_up_to(6) + [random_gnp(7 + seed % 4, 0.5, seed) for seed in range(30)]
    assert len(corpus) % harness.BLOCK
    assert max(g.n for g in corpus) > harness.CENSUS_MAX_N
    alone = [run_check(check, corpus, "blocks").to_json() for check in CHECKS.values()]
    sizes, censuses = [], []

    def watched(check):
        def evaluate(g):
            try:
                return check.evaluate(g)
            finally:
                sizes.append(max(harness._homogeneous.cache_info().currsize,
                                 harness._pd_exact.cache_info().currsize))
                censuses.append(len(harness._CENSUS))
        return check._replace(evaluate=evaluate)

    for check_id, check in CHECKS.items():
        monkeypatch.setitem(CHECKS, check_id, watched(check))
    for given in (iter(corpus), corpus):
        assert [r.to_json() for r in run_all(given, "blocks")] == alone
    # a memo or the census holds the facts of several graphs, never of more
    # than a block
    assert 1 < max(sizes) <= harness.BLOCK
    assert 1 < max(censuses) <= harness.BLOCK
    assert _memo_sizes() == [0, 0, 0, 0]
    empty = run_all(iter(()), "empty")
    assert [r.check_id for r in empty] == list(CHECKS)
    assert all(r.passed and r.graphs_scanned == r.hypothesis_matches == 0 for r in empty)


def test_runs_leave_the_memos_empty_and_a_rerun_searches_again(monkeypatch):
    # the memos hold one block of graphs' facts at a time, so nothing
    # outlives a run
    first = _count_searches(monkeypatch, n=6)
    assert _memo_sizes() == [0, 0, 0, 0]
    assert len(_count_searches(monkeypatch, n=6)) == len(first) > 0


def test_a_run_starts_with_empty_memos(monkeypatch):
    # a fact memoised outside a run must not stand in for a search inside it
    fresh = _count_searches(monkeypatch, n=1)
    CHECKS["T10"].evaluate(Graph.empty(1))
    assert _memo_sizes() != [0, 0, 0, 0]
    assert len(_count_searches(monkeypatch, n=1)) == len(fresh) > 0
    assert _memo_sizes() == [0, 0, 0, 0]


def test_a_run_that_raises_still_empties_the_memos(monkeypatch):
    def broken(g):  # not an InvariantError, which the run would keep as a row
        raise RuntimeError("division colouring crashed before its re-check")

    monkeypatch.setattr(harness, "color_by_division", broken)
    with pytest.raises(RuntimeError, match="re-check"):
        run_all(graphs_up_to(4), "tiny")
    assert _memo_sizes() == [0, 0, 0, 0]


def test_a_failed_certificate_in_any_check_is_a_row(monkeypatch):
    corpus = graphs_up_to(4)
    k4 = next(g for g in corpus if g.n == 4 and g.edge_count == 6)
    real = harness.color_by_division

    def broken(g):
        if g == k4:
            raise InvariantError("perfect layer did not colour with omega colours")
        return real(g)

    monkeypatch.setattr(harness, "color_by_division", broken)
    reports = run_all(corpus, "tiny")
    assert [r.check_id for r in reports] == list(CHECKS)
    audit = reports[list(CHECKS).index("chi-audit")]
    detail = {"certificate": "perfect layer did not colour with omega colours"}
    assert audit.counterexamples == [{"graph6": emit_graph6(k4), "detail": detail}]
    assert audit.graphs_scanned == audit.hypothesis_matches == len(corpus)
    assert all(r.passed for r in reports if r.check_id != "chi-audit")
    assert _memo_sizes() == [0, 0, 0, 0]


def test_oracles_and_labelling_leave_no_reference_cycles():
    # recursive closures refer to themselves through their cells, so each
    # call would leave garbage that only the cyclic collector frees
    fork = pattern("fork")
    batch = [g for g in (random_gnp(16, 0.8, seed) for seed in range(60))
             if find_induced(g, fork) is None]
    gc.collect()
    gc.disable()
    try:
        for g in batch:
            color_by_division(g)
            max_weight_clique(g, range(g.n))
        for g in enumerate_nonisomorphic(6):
            canonical_form(g)
        run_all(graphs_up_to(5), "all graphs on 1..5 vertices")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_chi_audit_reports_a_bad_division_colouring(monkeypatch):
    bad = ColoringCertificate(colors=(0,) * 5, palette=9, omega=2, layers=(), fallback=False)
    monkeypatch.setattr(harness, "color_by_division", lambda g: bad)
    out = CHECKS["chi-audit"].evaluate(Graph.cycle(5))
    assert out.failure == {
        "omega": 2,
        "chi": 3,
        "violations": [
            {"class": "division colouring not proper"},
            {"class": "division palette above binom(omega+1,2)"},
        ],
    }


def test_capacity_skips_are_soft():
    corpus = [Graph.cycle(5), Graph.empty(17)]
    report = run_check(CHECKS["chi-audit"], corpus, "with an oversized graph")
    assert report.graphs_scanned == 2
    assert len(report.skipped) == 1
    # the division colouring meets the cap before the exact colouring does
    assert report.skipped[0]["reason"] == "find_odd_hole: graph has 17 vertices, cap is 16"
    assert report.passed


def test_reports_are_deterministic():
    corpus = graphs_up_to(4)
    a = [r.to_json() for r in run_all(corpus, "tiny")]
    b = [r.to_json() for r in run_all(corpus, "tiny")]
    assert a == b


def test_t9_records_a_failed_certificate_and_the_run_goes_on(monkeypatch):
    corpus = graphs_up_to(4)
    p3 = next(g for g in corpus if g.n == 3 and g.edge_count == 2)
    real = harness.line_graph_division

    def broken(g):
        if g == p3:
            raise InvariantError("spanning-tree: side A is not perfect")
        return real(g)

    monkeypatch.setattr(harness, "line_graph_division", broken)
    reports = run_all(corpus, "tiny")
    assert [r.check_id for r in reports] == list(CHECKS)
    t9 = reports[list(CHECKS).index("T9")]
    detail = {"certificate": "spanning-tree: side A is not perfect"}
    assert t9.counterexamples == [{"graph6": emit_graph6(p3), "detail": detail}]
    assert t9.hypothesis_matches > 1
    assert all(r.passed for r in reports if r.check_id != "T9")


@pytest.mark.parametrize(
    "g, detail",
    [
        (Graph.empty(1).disjoint_union(Graph.cycle(5)), {"vertex": 0, "odd_hole": [1, 2, 3, 4, 5]}),
        (Graph.empty(1).disjoint_union(pattern("co-P5")), {"vertex": 0, "co_p5": [1, 2, 3, 4, 5]}),
    ],
    ids=["odd-hole", "co-P5"],
)
def test_t8_failure_names_host_vertices(g, detail, monkeypatch):
    # T8 holds wherever its hypothesis does, so grant the hypothesis
    monkeypatch.setattr(harness, "_free", lambda g, name: True)
    monkeypatch.setattr(harness, "_homogeneous", lambda g: None)
    assert CHECKS["T8"].evaluate(g).failure == detail


def _k23_witness(g, pat, name):
    return types.SimpleNamespace(mapping=(4, 0, 1, 2, 3))


@pytest.mark.parametrize(
    "check, g, stubs, tags, detail",
    [
        # granted {fork,P6}-free, no division and no homogeneous set: both
        # directions apply, and the direct one fails
        ("T1", Graph.path(3), {"_free": True, "_pd_exact": False, "_homogeneous": None},
         ("direct", "contrapositive"), {"perfectly_divisible": False, "homogeneous_set": None}),
        ("T2", Graph.path(3), {"_free": True, "_pd_exact": False}, (),
         {"perfectly_divisible": False}),
        # granted banner-free and no homogeneous set, with K2,3 present
        ("T5", Graph.complete_bipartite(2, 3),
         {"_free": lambda g, name: name != "K2,3", "_homogeneous": None,
          "find_induced": _k23_witness}, (),
         {"k23_witness": [4, 0, 1, 2, 3]}),
        # no vertex of the Grötzsch graph has a perfect non-neighbourhood
        ("T6", parse_graph6("JhdLA_gc?N_"), {"_free": lambda g, name: name != "claw",
                                             "_homogeneous": None}, (),
         {"no_vertex_with_perfect_non_neighborhood": True}),
        ("T9", Graph.path(3), {"is_perfectly_divisible_exact": False}, (),
         {"line_graph_not_perfectly_divisible": True}),
        ("T10", Graph.path(3), {"_free": True, "_pd_exact": False}, (),
         {"perfectly_divisible": False}),
    ],
    ids=["T1", "T2", "T5", "T6", "T9", "T10"],
)
def test_failed_check_reports_its_detail(check, g, stubs, tags, detail, monkeypatch):
    # each theorem holds on every graph, so grant the hypothesis and refute
    # the conclusion through the facts the check reads
    assert run_check(CHECKS[check], [g], "one graph").passed
    for name, value in stubs.items():
        stub = value if callable(value) else lambda *args, value=value: value
        monkeypatch.setattr(harness, name, stub)
    out = CHECKS[check].evaluate(g)
    assert out.matched
    assert out.tags == tags
    assert out.failure == detail
    assert list(out.failure) == list(detail)


def test_t9_checks_every_line_graph_exactly(monkeypatch):
    sizes = []
    monkeypatch.setattr(harness, "is_perfectly_divisible_exact",
                        lambda lg: sizes.append(lg.n) or True)
    report = run_check(CHECKS["T9"], graphs_up_to(6), "all graphs on 1..6 vertices")
    # K6 has 15 edges; every line graph is within the submask-table cap
    assert report.hypothesis_matches == len(sizes) == 142
    assert max(sizes) == 15


@pytest.mark.parametrize(
    "check, n, edges, rejected, detail",
    [
        # claw centre 4 with M(4) = {3}
        ("T3", 5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 4)], [3], {"claw_center": 4, "m_v": [3]}),
        # the path 2-0-3-1 has no homogeneous set; M(0) = {1} stays perfect
        ("T4", 4, [(0, 2), (0, 3), (1, 3)], [0, 2], {"vertex": 1, "m_v": [0, 2]}),
        # claws at 0 and 5 and no homogeneous set; M(3) is the first rejected
        ("T7", 6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (2, 4), (2, 5)], [2, 4, 5],
         {"vertex": 3, "m_v": [2, 4, 5]}),
    ],
)
def test_imperfect_non_neighborhood_is_the_failure_detail(check, n, edges, rejected, detail, monkeypatch):
    g = Graph.from_edges(n, edges)
    assert CHECKS[check].evaluate(g).failure is None
    reject = sum(1 << v for v in rejected)
    monkeypatch.setattr(harness, "is_perfect_induced", lambda g, mask: mask != reject)
    out = CHECKS[check].evaluate(g)
    assert out.matched
    assert out.failure == detail
    assert list(out.failure) == list(detail)
