import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

import bruteforce
from forkdiv.divisibility import color_by_division, is_perfectly_divisible_exact, perfect_division
from forkdiv.formats import emit_graph6, parse_graph6
from forkdiv.graph import Graph, are_isomorphic, bits, canonical_form, mask_of
from forkdiv.harness import enumerate_nonisomorphic, graphs_up_to, random_gnp
from forkdiv.limits import CANONICAL_CAP, ENUMERATION_CAP, SEARCH_CAP, CapacityError
from forkdiv.oracles import (
    _co_rows,
    _exact_coloring,
    _max_clique,
    _max_clique_size,
    _odd_holes,
    chromatic_number,
    clique_number,
    exact_coloring,
    find_odd_antihole,
    find_odd_hole,
    independence_number,
    is_perfect,
    is_perfect_induced,
    max_clique,
    max_weight_clique,
)
from strategies import graphs, graphs_with_masks, weighted_graphs


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((i + 5, (i + 2) % 5 + 5))
    return Graph.from_edges(10, edges)


PAW = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
FORK = Graph.from_edges(5, [(2, 1), (2, 3), (2, 4), (0, 1)])


def test_clique_number_small_cases():
    assert clique_number(Graph.cycle(5)) == 2
    assert clique_number(Graph.complete(4)) == 4
    assert clique_number(PAW) == 3
    assert clique_number(Graph.empty(0)) == 0


def test_max_clique_witness_is_lex_least_maximum():
    for g in [Graph.cycle(5), PAW, Graph.complete(4), petersen()]:
        assert tuple(bits(max_clique(g))) == bruteforce.max_clique(g)


@given(graphs_with_masks(max_n=9))
def test_clique_search_on_a_mask_matches_brute_force(gm):
    g, mask = gm
    h, vmap = g.induced(mask)
    assert _max_clique_size(g.adj, mask) == bruteforce.omega(h)
    witness = _max_clique(g.adj, mask, bruteforce.omega(h))
    assert witness == mask_of(vmap[i] for i in bruteforce.max_clique(h))


def test_max_clique_witness_search_is_bounded_by_colour_classes():
    # K(4x12), twelve parts of four, then a disjoint K13.  No clique
    # through the parts reaches 13 vertices, which their 12 colour classes
    # show at once; with the popcount bound alone, the ascending search
    # walks the cliques through the parts, about 4**12 of them, before it
    # reaches the K13, and a bound on weight sums alone is as blind.  The
    # row reads count the work of each value and witness search, unweighted
    # and under unit weights given as weights.
    parts = Graph.from_edges(48, [(u, v) for u, v in combinations(range(48), 2) if u // 4 != v // 4])
    g = parts.disjoint_union(Graph.complete(13))
    k13 = mask_of(range(48, 61))

    class CountedRows(tuple):
        reads = 0

        def __getitem__(self, v):
            CountedRows.reads += 1
            if CountedRows.reads > 2500:
                raise AssertionError("clique search read more than 2500 rows")
            return tuple.__getitem__(self, v)

    rows = CountedRows(g.adj)
    counted = Graph(g.n, rows)  # validation reads rows too; each search is counted afresh
    searches = [lambda: _max_clique(rows, g.vertex_mask, _max_clique_size(rows, g.vertex_mask)),
                lambda: max_weight_clique(counted, (1,) * g.n)]
    for search, want in zip(searches, [k13, (13, k13)]):
        CountedRows.reads = 0
        assert search() == want
    assert max_clique(g) == k13


def test_independence_number_small_cases():
    assert independence_number(Graph.cycle(5)) == 2
    assert independence_number(Graph.complete_bipartite(1, 3)) == 3
    # the fork carries a stable set of size 3
    assert independence_number(FORK) == 3


def test_max_weight_clique_small_cases():
    assert max_weight_clique(Graph.complete(2), (1, 1)) == (2, mask_of([0, 1]))
    value, _ = max_weight_clique(Graph.cycle(5), (1,) * 5)
    assert value == 2
    # pendant vertex 3 outweighs the triangle; the best clique is the
    # pendant edge {0, 3} at 5 + 1
    assert max_weight_clique(PAW, (1, 1, 1, 5)) == (6, mask_of([0, 3]))
    assert bruteforce.max_weight_clique(PAW, (1, 1, 1, 5)) == 6


def test_max_weight_clique_rejects_bad_weights():
    with pytest.raises(ValueError):
        max_weight_clique(Graph.complete(2), (1,))
    with pytest.raises(ValueError):
        max_weight_clique(Graph.complete(2), (1, -1))


@given(weighted_graphs())
def test_max_weight_clique_matches_brute_force(gw):
    g, w = gw
    value, witness = max_weight_clique(g, w)
    assert value == bruteforce.max_weight_clique(g, w)
    assert tuple(bits(witness)) == bruteforce.max_weight_clique_witness(g, w)


def test_max_weight_witness_is_lex_least_under_skewed_weights():
    # weights from {0, 1, 1000}: zero-weight vertices tie with the empty
    # choice, and one heavy vertex outweighs any clique of light ones
    for seed in range(150):
        rng = random.Random(seed)
        g = random_gnp(rng.randint(1, 9), rng.choice([0.3, 0.5, 0.8]), seed)
        w = [rng.choice((0, 1, 1000)) for _ in range(g.n)]
        value, witness = max_weight_clique(g, w)
        assert value == bruteforce.max_weight_clique(g, w)
        assert tuple(bits(witness)) == bruteforce.max_weight_clique_witness(g, w)


@given(graphs(min_n=1, max_n=6))
def test_unit_weights_reduce_to_clique_number(g):
    value, witness = max_weight_clique(g, (1,) * g.n)
    assert value == clique_number(g)
    assert witness == max_clique(g)


def test_chromatic_number_small_cases():
    assert chromatic_number(Graph.cycle(5)) == 3
    assert chromatic_number(Graph.complete(4)) == 4
    assert chromatic_number(petersen()) == 3
    assert chromatic_number(Graph.empty(0)) == 0
    # the greedy first descent of DSATUR takes four colours here, so only
    # the branch and bound reaches three
    g = parse_graph6("G?`fmW")
    assert chromatic_number(g) == bruteforce.chi(g) == 3


@given(graphs(max_n=8))
def test_exact_coloring_is_proper_and_minimum(g):
    colors = exact_coloring(g)
    chi = chromatic_number(g)
    assert len(colors) == g.n
    assert sorted(set(colors)) == list(range(chi))
    for u, v in g.edges():
        assert colors[u] != colors[v]
    assert chi == bruteforce.chi(g)


@given(graphs_with_masks())
def test_exact_coloring_on_a_mask_matches_the_induced_copy(gm):
    g, mask = gm
    h, vmap = g.induced(mask)
    want = [-1] * g.n
    for i, c in enumerate(exact_coloring(h)):
        want[vmap[i]] = c
    assert _exact_coloring(g.adj, mask) == (want, clique_number(h))


def test_exact_coloring_on_a_mask_takes_degrees_within_the_mask():
    # 2K2 on the mask {0, 1, 3, 4}; vertex 4 has a second neighbour, 2,
    # outside it, so it must not win the DSATUR tie against vertex 1
    g = Graph.from_edges(5, [(0, 3), (1, 4), (2, 4)])
    assert _exact_coloring(g.adj, 0b11011) == ([0, 0, -1, 1, 1], 2)


@given(graphs(min_n=1, max_n=6))
def test_omega_at_most_chi(g):
    assert clique_number(g) <= chromatic_number(g)


@given(graphs(max_n=6))
def test_alpha_is_omega_of_complement(g):
    assert independence_number(g) == clique_number(g.complement())
    assert independence_number(g) == bruteforce.alpha(g)
    assert find_odd_antihole(g) == find_odd_hole(g.complement())


def test_complement_oracles_build_no_graph(monkeypatch):
    # both run on complement rows of the host graph, not on a complement copy
    hosts = [Graph.cycle(7), Graph.cycle(7).complement(), petersen()]
    built = 0
    post_init = Graph.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    Graph.empty(1)
    assert built == 1  # the counter sees constructions
    assert [independence_number(g) for g in hosts] == [3, 2, 4]
    assert [find_odd_antihole(g) for g in hosts] == [None, 0b1111111, 0b11111]
    assert built == 1


def test_odd_hole_golden_cases():
    hole = find_odd_hole(Graph.cycle(5))
    assert hole == mask_of(range(5))
    assert find_odd_hole(Graph.cycle(6)) is None
    assert find_odd_hole(Graph.complete_bipartite(3, 3)) is None
    assert find_odd_hole(Graph.path(7)) is None
    hole7 = find_odd_hole(Graph.cycle(7))
    assert hole7 == mask_of(range(7))


@settings(max_examples=150)
@given(graphs(max_n=8))
def test_odd_hole_agrees_with_subset_enumeration(g):
    fast = find_odd_hole(g)
    slow = bruteforce.find_odd_hole_subsets(g)
    brute = bruteforce.odd_holes(g)
    assert (fast is None) == (slow is None) == (not brute)
    if fast is not None:
        assert tuple(sorted(bits(fast))) in brute
        assert tuple(sorted(bits(slow))) in brute


@settings(max_examples=150)
@given(graphs_with_masks(max_n=8))
def test_odd_holes_yields_every_hole_once(case):
    g, mask = case
    h, vmap = g.induced(mask)
    for rows, sub in ((g.adj, h), (_co_rows(g.adj, mask), h.complement())):
        found = list(_odd_holes(rows, mask))
        assert len(found) == len(set(found))
        assert set(found) == {mask_of(vmap[i] for i in hole) for hole in bruteforce.odd_holes(sub)}


def test_odd_holes_golden_counts():
    c5 = Graph.cycle(5)
    assert list(_odd_holes(c5.adj, c5.vertex_mask)) == [0b11111]
    two = c5.disjoint_union(c5)
    assert list(_odd_holes(two.adj, two.vertex_mask)) == [0b11111, 0b11111 << 5]
    p = petersen()
    assert len(list(_odd_holes(p.adj, p.vertex_mask))) == len(bruteforce.odd_holes(p)) == 12


def test_odd_hole_witnesses_are_pinned():
    # the first hole and antihole found, on every graph with n <= 7 and on
    # seeded G(n, p) with n = 8..14
    corpus = graphs_up_to(7) + [
        random_gnp(n, p, seed) for n in range(8, 15) for p in (0.3, 0.5, 0.7) for seed in range(8)
    ]
    h = hashlib.sha256()
    for g in corpus:
        h.update(f"{emit_graph6(g)} {find_odd_hole(g)} {find_odd_antihole(g)}\n".encode())
    assert h.hexdigest() == "2a4c9fed03e41943f2f2f8c27657f314124ed24b38306b3b567ef4459e8123ea"


def test_clique_and_colouring_witnesses_are_pinned():
    # the maximum clique and the optimal colouring, on every graph with
    # n <= 7 and on seeded G(n, p) with n = 8..16
    corpus = graphs_up_to(7) + [
        random_gnp(n, p, seed) for n in range(8, 17) for p in (0.3, 0.5, 0.7, 0.9) for seed in range(6)
    ]
    h = hashlib.sha256()
    for g in corpus:
        h.update(f"{emit_graph6(g)} {max_clique(g)} {exact_coloring(g)}\n".encode())
    assert h.hexdigest() == "74fb8c68b0cafd290aec581e0aa31af134ceb3ddc30b43f211e790dd25915433"


def test_perfection_golden_cases():
    assert not is_perfect(Graph.cycle(5))
    assert is_perfect(Graph.path(6))
    assert not is_perfect(Graph.cycle(7).complement())
    assert is_perfect(Graph.empty(0))
    assert find_odd_antihole(Graph.cycle(7).complement()) is not None


@given(graphs(max_n=7))
def test_perfection_matches_chi_equals_omega_everywhere(g):
    assert is_perfect(g) == bruteforce.is_perfect(g)


@settings(max_examples=60)
@given(graphs(max_n=7))
def test_perfection_of_every_submask_matches_chi_equals_omega(g):
    table = bruteforce.perfect_table(g)
    assert [is_perfect_induced(g, m) for m in range(1 << g.n)] == table


def test_perfection_of_submask_golden_cases():
    g = Graph.cycle(5).disjoint_union(Graph.cycle(7).complement())
    assert is_perfect_induced(g, mask_of(range(4)))
    assert not is_perfect_induced(g, mask_of(range(5)))
    assert not is_perfect_induced(g, mask_of(range(5, 12)))
    assert is_perfect_induced(g, mask_of(range(5, 11)))
    # only the mask's size counts against the cap
    assert is_perfect_induced(Graph.empty(20), mask_of(range(16)))


def test_perfection_of_submask_errors():
    with pytest.raises(IndexError):
        is_perfect_induced(Graph.cycle(5), 1 << 5)
    with pytest.raises(IndexError):
        is_perfect_induced(Graph.cycle(5), -1)
    with pytest.raises(CapacityError):
        is_perfect_induced(Graph.empty(20), mask_of(range(17)))


@given(graphs(max_n=6))
def test_perfection_is_self_complementary(g):
    assert is_perfect(g) == is_perfect(g.complement())


def test_capacity_errors():
    big = Graph.empty(17)
    with pytest.raises(CapacityError):
        chromatic_number(big)
    with pytest.raises(CapacityError):
        find_odd_hole(Graph.empty(20))
    with pytest.raises(CapacityError):
        bruteforce.find_odd_hole_subsets(Graph.empty(11))


# every public exponential entry point, one vertex over its cap, with the
# message that CLI error rows and verify skips carry.  graphs_up_to refuses
# as enumerate_nonisomorphic does; perfect_division and
# color_by_division first run the odd-hole search.
OVER_THE_CAP = [
    ("canonical_form", canonical_form, Graph.empty(11),
     "canonical_form: graph has 11 vertices, cap is 10"),
    ("are_isomorphic", lambda g: are_isomorphic(g, g), Graph.empty(11),
     "canonical_form: graph has 11 vertices, cap is 10"),
    ("enumerate_nonisomorphic", enumerate_nonisomorphic, 10,
     "enumerate_nonisomorphic: graph has 10 vertices, cap is 9"),
    ("graphs_up_to", graphs_up_to, 10,
     "enumerate_nonisomorphic: graph has 10 vertices, cap is 9"),
    ("exact_coloring", exact_coloring, Graph.empty(17),
     "exact_coloring: graph has 17 vertices, cap is 16"),
    ("chromatic_number", chromatic_number, Graph.empty(17),
     "exact_coloring: graph has 17 vertices, cap is 16"),
    ("find_odd_hole", find_odd_hole, Graph.empty(17),
     "find_odd_hole: graph has 17 vertices, cap is 16"),
    ("find_odd_antihole", find_odd_antihole, Graph.empty(17),
     "find_odd_hole: graph has 17 vertices, cap is 16"),
    ("is_perfect", is_perfect, Graph.empty(17),
     "find_odd_hole: graph has 17 vertices, cap is 16"),
    ("is_perfect_induced", lambda g: is_perfect_induced(g, g.vertex_mask), Graph.empty(17),
     "find_odd_hole: graph has 17 vertices, cap is 16"),
    ("perfect_division", perfect_division, Graph.empty(17),
     "find_odd_hole: graph has 17 vertices, cap is 16"),
    ("color_by_division", color_by_division, Graph.empty(17),
     "find_odd_hole: graph has 17 vertices, cap is 16"),
    ("is_perfectly_divisible_exact", is_perfectly_divisible_exact, Graph.empty(17),
     "is_perfectly_divisible_exact: graph has 17 vertices, cap is 16"),
]


@pytest.mark.parametrize(
    "entry, arg, message", [pytest.param(*row[1:], id=row[0]) for row in OVER_THE_CAP]
)
def test_entry_points_refuse_one_vertex_over_their_cap(entry, arg, message):
    assert (CANONICAL_CAP, ENUMERATION_CAP, SEARCH_CAP) == (10, 9, 16)
    with pytest.raises(CapacityError) as exc:
        entry(arg)
    assert str(exc.value) == message
