import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from forkdiv.formats import emit_graph6
from forkdiv.graph import Graph, are_isomorphic
from forkdiv.oracles import clique_number, independence_number
from forkdiv.patterns import (
    CATALOG,
    CLASS_BOUNDS,
    PatternWitness,
    _iter_induced,
    _plan,
    classify,
    claw_center,
    find_induced,
    has_induced,
    is_free,
    iter_induced,
    pattern,
    pattern_names,
)
from strategies import graphs, graphs_with_masks
from test_oracles import petersen


def test_catalog_sanity():
    fork = pattern("fork")
    assert fork.n == 5 and fork.edge_count == 4
    assert independence_number(fork) == 3
    assert are_isomorphic(pattern("dart").complement(), pattern("co-dart"))
    assert are_isomorphic(pattern("antifork"), fork.complement())
    assert len(pattern("co-cricket").components()) == 2
    assert are_isomorphic(pattern("co-P5"), Graph.path(5).complement())
    assert clique_number(pattern("K5-e")) == 4
    assert are_isomorphic(
        pattern("co-(P3+2K1)"),
        Graph.path(3).disjoint_union(Graph.empty(2)).complement(),
    )


# every entry, vertex labels included: witnesses and detect output depend on them
CATALOG_GRAPH6 = {
    "K1": "@", "K2": "A_", "K3": "Bw", "K4": "C~", "K5": "D~{",
    "P3": "Bg", "P4": "Ch", "P5": "DhC", "P6": "EhCG",
    "C4": "Cl", "C5": "Dhc", "C6": "EhEG", "C7": "FhCKG",
    "claw": "Cs", "fork": "DhG", "antifork": "DUs", "dart": "Dsk",
    "banner": "DsW", "bull": "DhW", "paw": "C{", "diamond": "C}",
    "co-dart": "D{?", "co-cricket": "D}?", "K2,3": "D]o", "2K2": "C`",
    "3K1": "B?", "4K1": "C?", "P3+K1": "Cg", "K2+2K1": "C_", "K3+K1": "Cw",
    "co-P5": "DUw", "K5-e": "D~w", "co-(P3+2K1)": "DV{",
}


def test_catalog_labels_are_pinned():
    assert {name: emit_graph6(g) for name, g in CATALOG.items()} == CATALOG_GRAPH6


@pytest.mark.parametrize("inner,outer", [("P3+K1", "fork"), ("claw", "fork"), ("claw", "dart")])
def test_pattern_implications_the_hypotheses_use(inner, outer):
    # an inner-free graph is outer-free: T2 tests fork first, T3 claws before darts
    assert bruteforce.has_induced(pattern(outer), pattern(inner))


def test_pattern_aliases_and_unknown():
    assert pattern("K1,3") == pattern("claw")
    assert pattern("paw+K1") == pattern("co-dart")
    assert pattern("diamond+K1") == pattern("co-cricket")
    with pytest.raises(ValueError):
        pattern("heptagram")
    assert "fork" in pattern_names()


def test_find_induced_golden_cases():
    assert find_induced(Graph.cycle(5), pattern("fork"), "fork") is None
    w = find_induced(Graph.complete_bipartite(1, 3), pattern("claw"), "claw")
    assert w is not None and w.validate(Graph.complete_bipartite(1, 3), pattern("claw"))
    w = find_induced(petersen(), pattern("claw"), "claw")
    assert w is not None and w.validate(petersen(), pattern("claw"))
    # first witnesses, as detect reports them
    assert w.mapping == (0, 1, 4, 5)
    assert find_induced(petersen(), pattern("fork"), "fork").mapping == (2, 1, 0, 4, 5)
    assert find_induced(petersen(), pattern("P6"), "P6") is None
    assert find_induced(pattern("co-dart"), pattern("co-dart")).mapping == (0, 1, 2, 3, 4)
    assert find_induced(Graph.cycle(7), pattern("P5")).mapping == (6, 0, 1, 2, 3)
    assert list(iter_induced(Graph.cycle(4), pattern("K1"))) == [(0,), (1,), (2,), (3,)]
    assert list(iter_induced(Graph.empty(2), pattern("K2"))) == []
    assert list(iter_induced(Graph.empty(0), Graph.empty(0))) == [()]


def test_is_free_golden_cases():
    ok, _ = is_free(Graph.cycle(5), ["fork", "P6", "dart", "banner", "bull", "co-dart", "co-cricket"])
    assert ok
    co_dart = pattern("co-dart")
    ok, w = is_free(co_dart, ["co-dart"])
    assert not ok and sorted(w.mapping) == list(range(5))
    ok, _ = is_free(Graph.cycle(6), ["P6"])
    assert ok


def test_claw_center_golden_cases():
    assert claw_center(Graph.complete_bipartite(1, 3)) == (0, (1, 2, 3))
    assert claw_center(Graph.complete_bipartite(1, 5)) == (0, (1, 2, 3))
    assert claw_center(Graph.cycle(7)) is None
    # the fork's claw sits at its degree-3 vertex
    v, _ = claw_center(pattern("fork"))
    assert v == 2
    assert claw_center(petersen()) == (0, (1, 4, 5))


@given(graphs(max_n=6))
def test_claw_free_three_ways(g):
    a = claw_center(g) is None
    b = find_induced(g, pattern("claw"), "claw") is None
    c = not bruteforce.induced_embeddings(g, pattern("claw"))
    assert a == b == c


SMALL_PATTERNS = sorted(name for name, pat in CATALOG.items() if pat.n <= 5)


def embeddings_in_witness_order(g, pat):
    # every embedding, sorted by the host vertices of the pattern's vertices
    # taken in descending-degree order (ties by index)
    order = sorted(range(pat.n), key=lambda v: (-pat.degree(v), v))
    return sorted(bruteforce.induced_embeddings(g, pat), key=lambda m: [m[v] for v in order])


@settings(max_examples=150)
@given(graphs(max_n=7), st.sampled_from(SMALL_PATTERNS))
def test_iter_induced_matches_all_injections_oracle(g, name):
    pat = pattern(name)
    got = list(iter_induced(g, pat))
    assert got == embeddings_in_witness_order(g, pat)
    for mapping in got:
        assert PatternWitness(name, mapping).validate(g, pat)


TWIN_PATTERNS = ["fork", "claw", "4K1", "K2,3", "2K2", "P3+K1"]


@settings(max_examples=25)
@given(graphs(min_n=8, max_n=9), st.sampled_from(TWIN_PATTERNS))
def test_twin_pruning_keeps_every_embedding_in_order(g, name):
    # each pattern has a twin class, so the count prunes; every embedding
    # must still come, in witness order
    pat = pattern(name)
    assert any(_plan(pat)[3])
    assert list(iter_induced(g, pat)) == embeddings_in_witness_order(g, pat)


@given(graphs_with_masks(), st.sampled_from(SMALL_PATTERNS))
def test_iter_induced_on_a_mask_matches_the_induced_copy(gm, name):
    g, mask = gm
    sub, vmap = g.induced(mask)
    pat = pattern(name)
    want = [tuple(vmap[i] for i in m) for m in iter_induced(sub, pat)]
    assert list(_iter_induced(g.adj, mask, pat)) == want


@given(graphs(max_n=6))
def test_witnesses_always_validate(g):
    for name in ("claw", "paw", "C4", "fork", "P4"):
        w = find_induced(g, pattern(name), name)
        if w is not None:
            assert w.validate(g, pattern(name))
            assert w.pattern_name == name
        assert (w is not None) == has_induced(g, name)


def test_bound_record_values():
    binomial = ("binomial", "binom(omega+1,2)", [0, 1, 3, 6, 10])
    square = ("square", "omega^2", [0, 1, 4, 9, 16])
    plus_one = ("linear", "omega+1", [1, 2, 3, 4, 5])
    want = {
        "K3": ("constant", "3", [3, 3, 3, 3, 3]),
        "2K2": binomial,
        "dart": square,
        "banner": square,
        "co-cricket": square,
        "claw": square,
        "P6": binomial,
        "co-dart": binomial,
        "bull": binomial,
        "K5-e": plus_one,
        "co-(P3+2K1)": plus_one,
        "antifork": ("linear", "2*omega", [0, 2, 4, 6, 8]),
    }
    got = {
        name: (b.kind, b.text, [b.evaluate(omega) for omega in range(5)])
        for name, b in CLASS_BOUNDS.items()
    }
    assert list(got) == list(want)  # table order is the order of every report
    assert got == want
    assert CLASS_BOUNDS["P6"].to_json() == {"kind": "binomial", "text": "binom(omega+1,2)"}


def test_classify_cycle_hits_every_division_class():
    report = classify(Graph.cycle(5))
    assert report.omega == 2 and report.fork_free
    by_name = {m.forbidden: m for m in report.memberships}
    for name in ("P6", "co-dart", "bull", "dart", "banner", "co-cricket"):
        assert by_name[name].free, name
    assert by_name["P6"].value == 3
    assert by_name["dart"].value == 4
    assert report.tightest == ("K3", 3)


def test_classify_complete_graph():
    report = classify(Graph.complete(4))
    by_name = {m.forbidden: m for m in report.memberships}
    assert report.fork_free
    assert not by_name["K3"].free
    assert by_name["P6"].free and by_name["P6"].value == 10
    assert by_name["K5-e"].free and by_name["K5-e"].value == 5


def test_classify_fork_itself_matches_nothing():
    report = classify(pattern("fork"))
    assert not report.fork_free
    assert all(not m.free for m in report.memberships)
    assert report.tightest is None


def test_classify_json_shape():
    payload = classify(Graph.cycle(5)).to_json()
    assert set(payload) == {"omega", "fork_free", "classes", "tightest"}
    assert payload["tightest"] == {"forbidden": "K3", "value": 3}
    assert len(payload["classes"]) == len(CLASS_BOUNDS)
