import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from forkdiv import divisibility, formats, oracles
from forkdiv.divisibility import (
    _certify,
    _divide_mask,
    _division_scan,
    _imperfect_table,
    _omega_table,
    _transversal,
    color_by_division,
    divide_weighted,
    is_perfectly_divisible_exact,
    line_graph_division,
    perfect_division,
)
from forkdiv.graph import Graph, bits, mask_of
from forkdiv.harness import random_gnp
from forkdiv.limits import CapacityError, InvariantError
from forkdiv.oracles import (
    _max_clique_size,
    chromatic_number,
    clique_number,
    is_perfect,
    max_weight_clique,
)
from forkdiv.patterns import has_induced
from strategies import (
    connected_graphs,
    graphs,
    graphs_with_masks,
    pivotless_weighted_graphs,
    weighted_graphs,
)
from test_oracles import petersen

# the Grötzsch graph: triangle-free with chi = 4, so no side A can leave a
# bipartite rest; the smallest graph with no division, which the exhaustive
# search refutes without a table
MYCIELSKI_C5 = formats.parse_graph6("JhdLA_gc?N_")
# weights under which it divides, though every vertex has an imperfect
# non-neighbourhood
GROTZSCH_WEIGHTS = (3, 1, 3, 1, 2, 2, 1, 1, 3, 1, 3)


def clebsch():
    """The folded 5-cube: u ~ v when u ^ v has one bit set or equals 15.
    Triangle-free with chi = 4 on 16 vertices, the submask-table cap."""
    return Graph.from_edges(16, [
        (u, v) for u in range(16) for v in range(u + 1, 16)
        if (u ^ v).bit_count() == 1 or u ^ v == 15
    ])


def _revalidate(g, d):
    assert d.a & d.b == 0
    assert d.a | d.b == g.vertex_mask
    sub_a, _ = g.induced(d.a)
    sub_b, _ = g.induced(d.b)
    assert bruteforce.is_perfect(sub_a)
    if g.n:
        assert bruteforce.omega(sub_b) < bruteforce.omega(g)
    assert d.omega_b == bruteforce.omega(sub_b)
    assert d.omega == bruteforce.omega(g)


def test_division_of_odd_cycle():
    d = perfect_division(Graph.cycle(5))
    assert sorted(bits(d.a)) == [0, 2, 3]
    assert sorted(bits(d.b)) == [1, 4]
    assert d.strategy == "perfect-non-neighborhood"
    assert d.pivot == 0
    _revalidate(Graph.cycle(5), d)


def test_exhaustive_search_divides_two_odd_holes():
    # no vertex of C5 + C5 has a perfect non-neighbourhood; the search meets
    # each edge it finds left at its first vertex and stops at {4, 9}
    g = Graph.cycle(5).disjoint_union(Graph.cycle(5))
    d = perfect_division(g)
    assert d.strategy == "exhaustive"
    assert d.pivot is None and d.omega_w is None
    assert sorted(bits(d.a)) == [0, 1, 2, 3, 5, 6, 7, 8]
    _revalidate(g, d)


def test_division_of_perfect_graphs_is_whole():
    for g in (Graph.path(6), Graph.complete(4)):
        d = perfect_division(g)
        assert d.a == g.vertex_mask and d.b == 0
        assert d.strategy == "perfect-whole"
    d = perfect_division(Graph.empty(0))
    assert (d.a, d.b, d.strategy, d.omega_b, d.omega) == (0, 0, "perfect-whole", 0, 0)


def test_a_perfect_whole_layer_is_proved_perfect_once(monkeypatch):
    # the test that chooses perfect-whole is that layer's only perfection
    # proof; an oracle that calls the whole mask imperfect is obeyed
    real, calls = divisibility.is_perfect_induced, []

    def counted(g, mask):
        calls.append(mask)
        return real(g, mask)

    monkeypatch.setattr(divisibility, "is_perfect_induced", counted)
    for g in (Graph.path(6), Graph.cycle(6)):
        for run in (perfect_division, color_by_division):
            calls.clear()
            run(g)
            assert calls == [g.vertex_mask]
    monkeypatch.setattr(divisibility, "is_perfect_induced",
                        lambda g, mask: mask != g.vertex_mask and real(g, mask))
    for g in (Graph.path(6), Graph.cycle(6)):
        d = perfect_division(g)
        assert d is not None and d.strategy != "perfect-whole"
        _revalidate(g, d)


def test_no_division_for_triangle_free_chi4():
    g = MYCIELSKI_C5
    assert clique_number(g) == 2 and chromatic_number(g) == 4
    assert perfect_division(g) is None
    assert not bruteforce.has_division(g)
    # not a candidate against the fork-free conjecture
    assert has_induced(g, "fork")


@pytest.mark.parametrize(
    "g, a, b, w, message",
    [
        (Graph.cycle(5), 0b11111, 0b00001, None, "do not partition"),
        (Graph.cycle(5), 0b01101, 0b00010, None, "do not partition"),
        (Graph.cycle(5), 0b11111, 0, None, "not perfect"),
        (Graph.path(3), 0b001, 0b110, None, "no clique drop"),
        # the heavy edge 1-2 keeps the max clique weight on b
        (Graph.path(3), 0b001, 0b110, (1, 0, 5), "no weighted clique drop"),
    ],
    ids=["overlap", "not-covering", "imperfect-a", "no-omega-drop", "no-weighted-drop"],
)
def test_certify_rejects_bad_divisions(g, a, b, w, message):
    with pytest.raises(InvariantError, match=message):
        _certify(g, a, b, "golden", w=w)


def _largest_division_side(g):
    perfect, omega = bruteforce.perfect_table(g), bruteforce.omega_table(g)
    full = g.vertex_mask
    return max(
        (a for a in range(full + 1) if perfect[a] and omega[full & ~a] < omega[full]),
        default=None,
    )


@given(graphs(min_n=1))
def test_division_scan_finds_a_division_iff_one_exists(g):
    # production reaches this scan only from is_perfectly_divisible_exact
    a = _division_scan(g.vertex_mask, _omega_table(g), _imperfect_table(g))
    assert (a is not None) == bruteforce.has_division(g)
    assert a == _largest_division_side(g)
    if a is not None:
        _revalidate(g, _certify(g, a, g.vertex_mask & ~a, "exhaustive"))


def test_division_scan_passes_perfect_sides_without_a_drop():
    # two C5s joined by the edge 0-5: the largest perfect side, V - {0, 5},
    # leaves that edge and so omega = 2; the scan must go further down
    two_c5 = Graph.cycle(5).disjoint_union(Graph.cycle(5))
    g = Graph.from_edges(10, list(two_c5.edges()) + [(0, 5)])
    a = _division_scan(g.vertex_mask, _omega_table(g), _imperfect_table(g))
    assert sorted(bits(a)) == [0, 2, 3, 4, 6, 7, 8, 9] and a == _largest_division_side(g)
    _revalidate(g, _certify(g, a, g.vertex_mask & ~a, "exhaustive"))


def test_exhaustive_search_meets_each_clique_left_at_its_first_vertex():
    # C5 has a pivot, so call the search directly: it meets the edges 0-1,
    # 1-2, 2-3 and 3-4 at their first vertex, which leaves {4}
    g = Graph.cycle(5)
    s = _transversal(g, g.vertex_mask, (1,) * 5, 2, 0, 0)
    assert sorted(bits(s)) == [0, 1, 2, 3]
    _revalidate(g, _certify(g, s, g.vertex_mask & ~s, "exhaustive"))
    # isolated vertices are cliques of weight 1, below the top
    h = g.disjoint_union(Graph.empty(11))
    assert _transversal(h, h.vertex_mask, (1,) * 16, 2, 0, 0) == s
    # a division runs at the cap; one vertex over it, the odd-hole search of
    # the first step refuses the graph before any search
    with pytest.raises(CapacityError, match="^find_odd_hole: graph has 17 vertices, cap is 16$"):
        perfect_division(g.disjoint_union(Graph.empty(12)))


def test_exhaustive_division_of_a_mask_maps_back_to_the_host():
    # a C5 on the scattered vertices 1, 3, 4, 6, 7, each with a pendant or
    # neighbour outside the mask; the search sees only the mask's cliques
    edges = [(1, 3), (3, 4), (4, 6), (6, 7), (7, 1), (0, 1), (2, 4), (5, 6)]
    g = Graph.from_edges(8, edges)
    mask = mask_of([1, 3, 4, 6, 7])
    s = _transversal(g, mask, (1,) * 8, 2, 0, 0)
    assert sorted(bits(s)) == [1, 3, 4, 6]
    d = _certify(g, s, mask & ~s, "exhaustive", within=mask)
    assert sorted(bits(d.b)) == [7] and (d.omega_b, d.omega) == (1, 2)


@given(graphs())
def test_division_revalidates_and_agrees_on_existence(g):
    d = perfect_division(g)
    assert (d is not None) == bruteforce.has_division(g)
    if d is not None:
        _revalidate(g, d)


def test_weighted_golden_cases():
    d = divide_weighted(Graph.complete(2), (1, 1))
    assert sorted(bits(d.a)) == [0] and sorted(bits(d.b)) == [1]
    assert (d.omega_w, d.omega_w_b) == (2, 1)

    # zero-weight vertices ride along on the dropped side
    d = divide_weighted(Graph.path(3), (1, 0, 0))
    assert sorted(bits(d.a)) == [0]
    assert sorted(bits(d.b)) == [1, 2]
    assert (d.omega_w, d.omega_w_b) == (1, 0)

    unit = divide_weighted(Graph.cycle(5), (1,) * 5)
    plain = perfect_division(Graph.cycle(5))
    assert (unit.a, unit.b) == (plain.a, plain.b)


def test_weighted_rejects_bad_weights():
    with pytest.raises(ValueError):
        divide_weighted(Graph.complete(2), (1,))
    with pytest.raises(ValueError):
        divide_weighted(Graph.complete(2), (1, -2))
    with pytest.raises(ValueError):
        divide_weighted(Graph.complete(2), (0, 0))


@pytest.mark.parametrize("entry, weights", [
    (divide_weighted, [2.9, 1, 0.4]),  # int() would make (2, 1, 0)
    (divide_weighted, [0.5, 0.5, 0.5]),  # int() would make all zero
    (max_weight_clique, ["3", 1, 1]),  # int() would make (3, 1, 1)
    (max_weight_clique, [True, 1, 1]),
])
def test_weights_must_be_plain_integers(entry, weights):
    with pytest.raises(ValueError, match="^weights must be integers$"):
        entry(Graph.path(3), weights)


def _check_weighted_division(g, w):
    """divide_weighted(g, w) re-derived by brute force; a None must be a
    graph and weighting with no division at all."""
    if not any(w):
        return
    d = divide_weighted(g, w)
    if d is None:
        assert not bruteforce.has_weighted_division(g, w)
        return
    assert d.a & d.b == 0 and d.a | d.b == g.vertex_mask
    sub_a, _ = g.induced(d.a)
    assert bruteforce.is_perfect(sub_a)
    total = bruteforce.max_weight_clique(g, w)
    sub_t, tmap = g.induced(d.b)
    dropped = bruteforce.max_weight_clique(sub_t, [w[v] for v in tmap])
    assert dropped < total
    assert (d.omega_w, d.omega_w_b) == (total, dropped)


@given(weighted_graphs())
def test_weighted_division_postconditions(gw):
    _check_weighted_division(*gw)


@given(pivotless_weighted_graphs())
def test_weighted_division_postconditions_without_a_pivot(gw):
    _check_weighted_division(*gw)


def test_weighted_division_of_the_groetzsch_graph():
    g = MYCIELSKI_C5
    d = divide_weighted(g, GROTZSCH_WEIGHTS)
    assert (d.strategy, d.pivot) == ("exhaustive", None)
    assert sorted(bits(d.a)) == [2, 8] and (d.omega_w, d.omega_w_b) == (6, 5)
    assert bruteforce.has_weighted_division(g, GROTZSCH_WEIGHTS)
    # seeded weightings, zeros included: each has a division, and each found
    # one is checked against the brute-force tables
    perfect = bruteforce.perfect_table(g)
    rng = random.Random(0)
    for _ in range(600):
        w = [rng.choice((0, 1, 1, 2, 3)) for _ in range(g.n)]
        d = divide_weighted(g, w)
        assert d is not None and bruteforce.has_weighted_division(g, w)
        heaviest = bruteforce.max_weight_clique_table(g, w)
        assert perfect[d.a] and (d.omega_w, d.omega_w_b) == (heaviest[-1], heaviest[d.b])


@given(graphs(min_n=1, max_n=6))
def test_unit_weights_agree_with_unweighted_verdict(g):
    unit = divide_weighted(g, (1,) * g.n)
    plain = perfect_division(g)
    assert (unit is None) == (plain is None)


@given(graphs(min_n=1, max_n=6))
def test_perfect_non_neighborhood_extension_stays_perfect(g):
    for v in range(g.n):
        m = g.non_neighborhood(v)
        from forkdiv.oracles import is_perfect_induced

        if is_perfect_induced(g, m):
            assert is_perfect_induced(g, m | 1 << v)


def test_exact_divisibility_golden_cases():
    assert is_perfectly_divisible_exact(Graph.cycle(5))
    assert is_perfectly_divisible_exact(Graph.path(6))
    assert is_perfectly_divisible_exact(Graph.cycle(7))
    assert is_perfectly_divisible_exact(Graph.empty(0))
    with pytest.raises(CapacityError):
        is_perfectly_divisible_exact(Graph.empty(17))


def test_exact_divisibility_refutes_triangle_free_chi4():
    # no random fork-free sample has reached the False branch; pin one graph
    assert not is_perfectly_divisible_exact(MYCIELSKI_C5)
    assert not bruteforce.is_perfectly_divisible(MYCIELSKI_C5)


def test_clebsch_goldens_at_the_table_cap(monkeypatch):
    g = clebsch()
    assert clique_number(g) == 2 and chromatic_number(g) == 4
    assert not is_perfectly_divisible_exact(g)
    # the complement is 3K1-free, so fork-free, and divisible all the way down
    assert is_perfectly_divisible_exact(g.complement())
    # no pivot, and the exhaustive search proves there is no division
    # without building the tables that exact divisibility needs
    built = count_omega_tables(monkeypatch)
    assert divisibility._divide_support(g, g.vertex_mask, (1,) * g.n, 2) is None
    assert perfect_division(g) is None and built == []
    cert = color_by_division(g)
    assert cert.fallback and cert.palette == 4
    assert [(layer.a, layer.b, layer.strategy) for layer in cert.layers] == [
        (g.vertex_mask, 0, "fallback-exact")
    ]
    assert all(cert.colors[u] != cert.colors[v] for u, v in g.edges())


@pytest.mark.parametrize(
    "g",
    [
        Graph.cycle(7).complement(),
        Graph.cycle(7).complement().disjoint_union(Graph.empty(1)),
        Graph.cycle(9).complement(),
        Graph.cycle(5).disjoint_union(Graph.path(4)).complement(),
    ],
    ids=["co-C7", "co-C7+K1", "co-C9", "co-(C5+P4)"],
)
def test_imperfect_table_sees_odd_antiholes(g):
    assert [not x for x in _imperfect_table(g)] == bruteforce.perfect_table(g)


# K3,3, the complement of P6 and the 3x3 rook's graph L(K3,3)
PERFECT = [Graph.complete_bipartite(3, 3), Graph.path(6).complement(),
           Graph.complete_bipartite(3, 3).line_graph()[0]]


def count_omega_tables(monkeypatch):
    built = []

    def counted(g):
        built.append(g)
        return _omega_table(g)

    monkeypatch.setattr(divisibility, "_omega_table", counted)
    return built


def test_perfect_graphs_build_no_omega_table(monkeypatch):
    built = count_omega_tables(monkeypatch)
    for g in PERFECT:
        assert is_perfect(g)
        assert is_perfectly_divisible_exact(g)
        assert _imperfect_table(g) == bytes(1 << g.n)
    assert built == []
    assert is_perfectly_divisible_exact(Graph.cycle(5))
    assert built == [Graph.cycle(5)]


def test_omega_tables_are_built_exactly_for_imperfect_graphs(monkeypatch):
    hunt = (random_gnp(9, 0.7, seed) for seed in range(1000))
    hunt = [g for g in hunt if not has_induced(g, "fork")][:100]
    built = count_omega_tables(monkeypatch)
    assert all(is_perfectly_divisible_exact(g) for g in hunt)
    imperfect = [g for g in hunt if not bruteforce.is_perfect(g)]
    assert built == imperfect and 0 < len(imperfect) < 100


@given(graphs(max_n=8))
def test_omega_table_matches_brute_force(g):
    assert _omega_table(g) == bruteforce.omega_table(g)


def test_omega_table_golden_cases():
    assert _omega_table(Graph.empty(0)) == [0]
    assert _omega_table(Graph.complete(3)) == [0, 1, 1, 2, 1, 2, 2, 3]
    assert _omega_table(Graph.path(3)) == [0, 1, 1, 2, 1, 1, 2, 2]
    table = _omega_table(petersen())
    assert len(table) == 1 << 10 and max(table) == 2 and table[(1 << 10) - 1] == 2


@settings(max_examples=60)
@given(graphs())
def test_imperfect_table_matches_chi_equals_omega(g):
    assert [not x for x in _imperfect_table(g)] == bruteforce.perfect_table(g)


@given(graphs())
def test_exact_divisibility_matches_brute_force(g):
    assert is_perfectly_divisible_exact(g) == bruteforce.is_perfectly_divisible(g)


@given(graphs(max_n=6))
def test_perfect_graphs_are_perfectly_divisible(g):
    if is_perfect(g):
        assert is_perfectly_divisible_exact(g)


def test_coloring_tight_on_odd_cycle():
    cert = color_by_division(Graph.cycle(5))
    assert (cert.palette, cert.omega) == (3, 2)
    assert cert.to_json()["bound"]["value"] == 3
    assert not cert.fallback


def test_coloring_complete_graph_single_layer():
    cert = color_by_division(Graph.complete(4))
    assert cert.palette == 4
    assert len(cert.layers) == 1
    assert not cert.fallback
    assert sorted(cert.colors) == [0, 1, 2, 3]


def test_coloring_generic_route_on_petersen():
    g = petersen()
    cert = color_by_division(g)
    for u, v in g.edges():
        assert cert.colors[u] != cert.colors[v]
    assert cert.palette >= chromatic_number(g) == 3


def test_coloring_falls_back_when_division_is_impossible():
    g = MYCIELSKI_C5
    cert = color_by_division(g)
    assert cert.fallback
    assert cert.palette == 4
    for u, v in g.edges():
        assert cert.colors[u] != cert.colors[v]


def test_coloring_takes_omega_from_the_first_certificate(monkeypatch):
    # omega(G) comes from the first layer: its certificate, or the search
    # that set the exhaustive division's top when G has no division, which
    # then seeds the fallback colouring.  Each certificate hands omega of the
    # residual to the next layer, a perfect side's colouring reports its own,
    # and a perfect-whole layer's colouring takes omega from its certificate,
    # so no mask is searched twice.
    searched = []

    def counted(adj, cand, w=None):
        searched.append(cand)
        return _max_clique_size(adj, cand, w)

    monkeypatch.setattr(oracles, "_max_clique_size", counted)
    monkeypatch.setattr(divisibility, "_max_clique_size", counted)
    for g, om, last in [(petersen(), 2, "perfect-whole"), (MYCIELSKI_C5, 2, "fallback-exact"),
                        (Graph.complete(4), 4, "perfect-whole"), (Graph.empty(0), 0, None)]:
        searched.clear()
        cert = color_by_division(g)
        assert cert.omega == om
        assert (cert.layers[-1].strategy if cert.layers else None) == last
        assert len(searched) == len(set(searched))


def test_coloring_refuses_a_seed_size_with_no_clique():
    # a certificate claiming more than omega cannot seed the colouring
    with pytest.raises(InvariantError, match="no clique of size 4"):
        oracles._exact_coloring(Graph.cycle(5).adj, 0b11111, 4)


@pytest.mark.parametrize("exhaustive_only", [False, True])
@given(gm=graphs_with_masks())
def test_division_of_a_mask_matches_the_induced_copy(exhaustive_only, gm):
    g, mask = gm
    h, vmap = g.induced(mask)
    if exhaustive_only:
        # the search alone, pivot or not, perfect or not
        want = _transversal(h, h.vertex_mask, (1,) * h.n, clique_number(h), 0, 0)
        got = _transversal(g, mask, (1,) * g.n, clique_number(h), 0, 0)
        assert got == (None if want is None else mask_of(vmap[i] for i in bits(want)))
        assert (got is not None) == (h.n > 0 and bruteforce.has_division(h))
        return
    want = perfect_division(h)
    got, omega = _divide_mask(g, mask)
    assert omega == bruteforce.omega(h)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.a == mask_of(vmap[i] for i in bits(want.a))
        assert got.b == mask_of(vmap[i] for i in bits(want.b))
        assert (got.strategy, got.omega_b, got.omega) == (want.strategy, want.omega_b, want.omega)
        assert got.pivot == (None if want.pivot is None else vmap[want.pivot])


def test_coloring_builds_no_graph(monkeypatch):
    # layers are masks of the host graph: no induced copy, no index map
    hosts = [Graph.cycle(5).disjoint_union(Graph.cycle(7)), petersen(), MYCIELSKI_C5]
    hosts += [random_gnp(16, 0.8, seed) for seed in (2, 4, 8)]
    assert not any(has_induced(g, "fork") for g in hosts[3:])
    built = 0
    post_init = Graph.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    Graph.empty(1)
    assert built == 1  # the counter sees constructions
    for g in hosts:
        color_by_division(g)
    assert built == 1


@given(graphs(min_n=1))
def test_coloring_certificate_properties(g):
    cert = color_by_division(g)
    assert len(cert.colors) == g.n
    for u, v in g.edges():
        assert cert.colors[u] != cert.colors[v]
    assert cert.palette == len(set(cert.colors))
    assert cert.palette >= chromatic_number(g)
    om = clique_number(g)
    assert cert.omega == om
    assert cert.to_json()["bound"]["value"] == (om + 1) * om // 2
    if not cert.fallback:
        assert cert.palette <= (om + 1) * om // 2
    covered = 0
    for layer in cert.layers:
        assert layer.a & covered == 0
        covered |= layer.a
    assert covered == g.vertex_mask


def test_line_graph_division_golden_cases():
    # L(K3) is a triangle again, so omega is 3 and the leftover edge drops to 1
    lg, _, d = line_graph_division(Graph.complete(3))
    assert (bin(d.a).count("1"), bin(d.b).count("1")) == (2, 1)
    assert (d.omega, d.omega_b) == (3, 1)

    lg, _, d = line_graph_division(Graph.complete(4))
    assert (bin(d.a).count("1"), bin(d.b).count("1")) == (3, 3)
    assert (d.omega, d.omega_b) == (3, 2)

    lg, _, d = line_graph_division(Graph.path(5))
    assert d.b == 0 and bin(d.a).count("1") == 4


def ascending_dfs_tree(g):
    """Depth-first tree from vertex 0: the vertex on top of the path steps
    to its least unseen neighbour, or is popped when it has none."""
    tree, seen, path = set(), {0}, [0]
    while path:
        v = path[-1]
        u = next((u for u in range(g.n) if g.has_edge(v, u) and u not in seen), None)
        if u is None:
            path.pop()
        else:
            seen.add(u)
            tree.add((min(u, v), max(u, v)))
            path.append(u)
    return tree


@settings(max_examples=60)
@given(connected_graphs(min_n=2, max_n=12))
def test_line_graph_division_takes_the_ascending_dfs_tree(g):
    _, edge_list, d = line_graph_division(g)
    assert {edge_list[i] for i in bits(d.a)} == ascending_dfs_tree(g)


def test_line_graph_division_rejects_bad_input():
    with pytest.raises(ValueError):
        line_graph_division(Graph.complete(1))
    with pytest.raises(ValueError):
        line_graph_division(Graph.empty(3))


@settings(max_examples=60)
@given(connected_graphs(min_n=2, max_n=6))
def test_line_graph_division_revalidates(g):
    lg, edge_list, d = line_graph_division(g)
    assert lg.n == g.edge_count
    _revalidate(lg, d)
    assert is_perfectly_divisible_exact(lg)


def test_division_json_shape():
    d = perfect_division(Graph.cycle(5))
    payload = d.to_json()
    assert payload["a"] == [0, 2, 3]
    assert payload["b"] == [1, 4]
    assert payload["pivot"] == 0
    assert payload["certificate"] == {"a_is_perfect": True, "omega_b": 1, "omega": 2}
    w = divide_weighted(Graph.path(3), (1, 0, 0)).to_json()
    assert w["certificate"]["omega_w"] == 1
    assert w["certificate"]["omega_w_b"] == 0
