import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from forkdiv.divisibility import Division
from forkdiv.graph import (Graph, _are_twins, _label, _refine, are_isomorphic, bits, canonical_form,
                           mask_of)
from forkdiv.harness import Outcome, enumerate_nonisomorphic, graphs_up_to, random_gnp
from strategies import graphs
from test_oracles import petersen


def test_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))
    # a pass over the triangle meets 3-1 first; row by row, 0-5 comes first
    with pytest.raises(ValueError, match="^asymmetric edge 0-5$"):
        Graph(6, (0b100000, 0, 0, 0b10, 0, 0))


def first_asymmetry(adj):
    """The row-by-row reference: the first edge v-u whose reverse is missing."""
    for v, row in enumerate(adj):
        for u in range(len(adj)):
            if row >> u & 1 and not adj[u] >> v & 1:
                return f"asymmetric edge {v}-{u}"
    return None


@given(graphs(min_n=2, max_n=12), st.data())
def test_symmetry_check_matches_a_row_by_row_scan(g, data):
    # flip up to three off-diagonal bits, each in one row only
    adj = list(g.adj)
    for v, u in data.draw(st.lists(st.permutations(range(g.n)).map(lambda p: p[:2]), max_size=3)):
        adj[v] ^= 1 << u
    want = first_asymmetry(adj)
    if want is None:
        assert Graph(g.n, tuple(adj)).adj == tuple(adj)
    else:
        with pytest.raises(ValueError, match=f"^{want}$"):
            Graph(g.n, tuple(adj))


_STRIDE_EDGES = [2, 3, 4, 5, 8, 9, 16, 17, 63, 64, 65, 127, 128]


@pytest.mark.parametrize("n", _STRIDE_EDGES)
def test_symmetry_check_at_stride_boundaries(n):
    # rows are packed at the least power of two >= n, so check the last pair
    # and pairs across the halves of that stride, which its widest block
    # swap exchanges, each flipped in one row only
    half = 1 << (n - 1).bit_length() - 1
    adj = random_gnp(n, 0.5, n).adj
    assert Graph(n, adj).adj == adj
    for u, v in {(n - 2, n - 1), (half - 1, half), (0, n - 1)}:
        for row, bit in ((u, v), (v, u)):
            flipped = list(adj)
            flipped[row] ^= 1 << bit
            with pytest.raises(ValueError) as exc:
                Graph(n, tuple(flipped))
            assert str(exc.value) == first_asymmetry(flipped)


@pytest.mark.parametrize("n", _STRIDE_EDGES)
def test_row_checks_win_over_asymmetry(n):
    # an asymmetric pair in row 0, then a self-loop or a bit past n-1 later
    adj = list(random_gnp(n, 0.5, n).adj)
    adj[0] ^= 1 << (n - 1)
    loop = adj[:-1] + [adj[-1] | 1 << (n - 1)]
    with pytest.raises(ValueError, match=f"^self-loop at vertex {n - 1}$"):
        Graph(n, tuple(loop))
    wide = adj[:-1] + [adj[-1] | 1 << n]
    with pytest.raises(ValueError, match=f"^adjacency row {n - 1} has bits outside 0..{n - 1}$"):
        Graph(n, tuple(wide))


def test_rejects_self_loops():
    with pytest.raises(ValueError):
        Graph(1, (0b1,))


def test_rejects_bits_beyond_n():
    with pytest.raises(ValueError):
        Graph(2, (0b110, 0b001))


P3 = Graph.path(3)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Graph(129, (0,) * 129), ValueError, "vertex count 129 outside 0..128"),
        (lambda: Graph(-1, ()), ValueError, "vertex count -1 outside 0..128"),
        (lambda: Graph(3, (0, 0)), ValueError, "adjacency row count does not match n"),
        (lambda: Graph.from_edges(3, [(0, 1), (2, 2)]), ValueError, "self-loop at vertex 2"),
        (lambda: Graph.from_edges(3, [(0, 3)]), ValueError, "edge (0,3) out of range for n=3"),
        (lambda: Graph.from_edges(3, [(-1, 2)]), ValueError, "edge (-1,2) out of range for n=3"),
        (lambda: Graph.cycle(2), ValueError, "cycle needs at least 3 vertices"),
        (lambda: P3.neighborhood(3), IndexError, "vertex 3 out of range for n=3"),
        (lambda: P3.non_neighborhood(-1), IndexError, "vertex -1 out of range for n=3"),
        (lambda: P3.induced(0b1001), IndexError, "subset mask has bits outside the vertex range"),
        (lambda: P3.relabel((0, 1, 1)), ValueError, "not a permutation of the vertex range"),
        (lambda: P3.relabel((0, 1)), ValueError, "not a permutation of the vertex range"),
    ],
    ids=["n-over-cap", "n-negative", "row-count", "edge-self-loop", "edge-past-n",
         "edge-negative", "short-cycle", "neighborhood", "non-neighborhood", "induced",
         "relabel-repeat", "relabel-short"],
)
def test_constructor_and_accessor_guards(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_every_construction_validates_once(monkeypatch):
    # perfbench's tracer counts constructions by wrapping __post_init__ on the class
    calls = []
    validate = Graph.__post_init__

    def counted(g):
        calls.append(g)
        validate(g)

    p3 = Graph.path(3)
    monkeypatch.setattr(Graph, "__post_init__", counted)
    built = [Graph(3, p3.adj), Graph.from_edges(3, [(0, 1)]), p3.induced(0b011)[0], p3.complement()]
    assert len(calls) == len(built)
    assert all(seen is g for seen, g in zip(calls, built))


def test_graph_is_immutable():
    g = Graph.path(3)
    for attr in ("n", "adj", "other"):
        with pytest.raises(AttributeError):
            setattr(g, attr, 0)
        with pytest.raises(AttributeError):
            delattr(g, attr)
    assert (g.n, g.adj) == (3, (0b010, 0b101, 0b010))
    # rows given as a list come back as a tuple, detached from the list
    rows = [0b010, 0b101, 0b010]
    h = Graph(3, rows)
    rows[0] = 0
    assert h.adj == g.adj and type(h.adj) is tuple
    assert h == g and hash(h) == hash(g)


def test_graphs_are_equal_and_hash_by_n_and_adj_only():
    g, h = Graph.path(4), Graph.from_edges(4, [(3, 2), (2, 1), (1, 0)])
    assert g is not h and g == h and hash(g) == hash(h) and len({g, h}) == 1
    assert g != Graph.cycle(4) and Graph.empty(0) != Graph.empty(1)
    assert g != (g.n, g.adj) and (g.n, g.adj) != g and not isinstance(g, tuple)
    assert pickle.loads(pickle.dumps(g)) == g
    assert repr(g) == "Graph(n=4, adj=(2, 5, 10, 4))"


def test_result_records_keep_their_defaults():
    d = Division(0b01, 0b10, "exhaustive", 1, 1)
    assert (d.pivot, d.omega_w_b, d.omega_w) == (None, None, None)
    assert d._replace(pivot=0).pivot == 0 and d._asdict()["strategy"] == "exhaustive"
    out = Outcome(True, failure={"cycle": [0, 1, 2, 3, 4]})
    assert out.tags == () and out.failure == {"cycle": [0, 1, 2, 3, 4]}


def test_from_edges_dedupes_and_orders():
    g = Graph.from_edges(3, [(1, 0), (0, 1), (1, 2)])
    assert list(g.edges()) == [(0, 1), (1, 2)]
    assert g.edge_count == 2


def test_non_neighborhood_on_cycle_and_path():
    c5 = Graph.cycle(5)
    assert sorted(bits(c5.non_neighborhood(0))) == [2, 3]
    k4 = Graph.complete(4)
    assert all(k4.non_neighborhood(v) == 0 for v in range(4))
    p4 = Graph.path(4)
    assert sorted(bits(p4.non_neighborhood(0))) == [2, 3]


@given(graphs(min_n=1))
def test_vertex_neighborhood_non_neighborhood_partition(g):
    for v in range(g.n):
        parts = (1 << v, g.neighborhood(v), g.non_neighborhood(v))
        assert parts[0] | parts[1] | parts[2] == g.vertex_mask
        assert parts[0] & parts[1] == 0
        assert parts[0] & parts[2] == 0
        assert parts[1] & parts[2] == 0


def test_induced_of_cycle_prefix_is_path():
    c5 = Graph.cycle(5)
    sub, vmap = c5.induced(mask_of([0, 1, 2]))
    assert are_isomorphic(sub, Graph.path(3))
    assert vmap == (0, 1, 2)


@given(graphs())
def test_induced_on_full_mask_is_identity(g):
    sub, vmap = g.induced(g.vertex_mask)
    assert sub == g
    assert vmap == tuple(range(g.n))


def test_induced_pair_of_complete_is_edge():
    sub, _ = Graph.complete(4).induced(mask_of([1, 3]))
    assert sub == Graph.complete(2)


def test_complement_fixed_points():
    c5 = Graph.cycle(5)
    assert are_isomorphic(c5.complement(), c5)
    assert Graph.complete(4).complement() == Graph.empty(4)
    p4 = Graph.path(4)
    assert are_isomorphic(p4.complement(), p4)


@given(graphs())
def test_complement_is_involution(g):
    assert g.complement().complement() == g


@given(graphs(), st.data())
def test_induced_commutes_with_complement(g, data):
    s = data.draw(st.integers(0, g.vertex_mask))
    a, _ = g.induced(s)
    b, _ = g.complement().induced(s)
    assert a.complement() == b


def test_component_counts():
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    co_dart = paw.disjoint_union(Graph.complete(1))
    assert len(co_dart.components()) == 2
    assert len(Graph.cycle(7).components()) == 1
    assert len(Graph.empty(3).components()) == 3


def test_connectivity_conventions():
    assert Graph.empty(0).is_connected()
    assert Graph.empty(1).is_connected()
    assert not Graph.empty(2).is_connected()


@given(graphs(min_n=1))
def test_components_partition_vertices(g):
    comps = g.components()
    acc = 0
    for c in comps:
        assert acc & c == 0
        acc |= c
    assert acc == g.vertex_mask


def test_line_graph_small_cases():
    k3, _ = Graph.complete(3).line_graph()
    assert are_isomorphic(k3, Graph.complete(3))
    star, _ = Graph.complete_bipartite(1, 3).line_graph()
    assert are_isomorphic(star, Graph.complete(3))
    p3, _ = Graph.path(4).line_graph()
    assert are_isomorphic(p3, Graph.path(3))


def test_line_graph_refuses_more_edges_than_vertices_allowed():
    with pytest.raises(ValueError) as exc:
        Graph.complete(17).line_graph()
    assert str(exc.value) == "line graph needs 136 vertices (one per edge), above 128"
    lg, _ = Graph.complete(16).disjoint_union(Graph.path(9)).line_graph()
    assert lg.n == 128


@given(graphs())
def test_line_graph_counts(g):
    lg, edge_list = g.line_graph()
    assert lg.n == g.edge_count
    assert list(edge_list) == list(g.edges())
    want = sum(g.degree(v) * (g.degree(v) - 1) // 2 for v in range(g.n))
    assert lg.edge_count == want


def pairwise_line_graph(g):
    edge_list = tuple(g.edges())
    pairs = [(i, j) for j, f in enumerate(edge_list) for i, e in enumerate(edge_list[:j]) if set(e) & set(f)]
    return Graph.from_edges(len(edge_list), pairs), edge_list


def test_line_graph_matches_pairwise_construction_up_to_six_vertices():
    for g in graphs_up_to(6):
        assert g.line_graph() == pairwise_line_graph(g)


@given(graphs(max_n=10))
def test_line_graph_matches_pairwise_construction(g):
    assert g.line_graph() == pairwise_line_graph(g)


def test_canonical_form_of_self_complementary_cycle():
    c5 = Graph.cycle(5)
    assert canonical_form(c5) == canonical_form(c5.complement())


def test_isomorphism_examples():
    p4 = Graph.path(4)
    assert are_isomorphic(p4, p4.complement())
    k3k1 = Graph.complete(3).disjoint_union(Graph.complete(1))
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert not are_isomorphic(k3k1, paw)


@given(graphs(max_n=6), st.randoms(use_true_random=False))
def test_canonical_form_is_permutation_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_form(g.relabel(perm)) == canonical_form(g)


@settings(max_examples=60)
@given(graphs(max_n=5), st.randoms(use_true_random=False))
def test_canonical_form_separates_iff_brute_does(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = g.relabel(perm)
    edges = sorted(h.edges())
    if edges:
        u, v = edges[0]
        flipped = [e for e in edges if e != (u, v)]
        other = Graph.from_edges(h.n, flipped)
        same = bruteforce.canonical(g) == bruteforce.canonical(other)
        assert (canonical_form(g) == canonical_form(other)) == same
    assert bruteforce.canonical(g) == bruteforce.canonical(h)
    assert canonical_form(g) == canonical_form(h)


def test_canonical_form_partition_matches_bruteforce():
    # every labelled graph on n <= 5 vertices: same keys exactly when the
    # brute-force minimum over all n! relabellings agrees
    for n in range(6):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        fast: dict = {}
        slow: dict = {}
        for m in range(1 << len(pairs)):
            g = Graph.from_edges(n, [p for b, p in enumerate(pairs) if m >> b & 1])
            key, brute = canonical_form(g), bruteforce.canonical(g)
            assert fast.setdefault(key, brute) == brute
            assert slow.setdefault(brute, key) == key


def _subset_orbits(perms, n: int) -> set[frozenset[int]]:
    """The orbits on vertex subsets of the group the permutations generate."""
    orbits, met = set(), set()
    for s in range(1 << n):
        if s in met:
            continue
        orbit, stack = {s}, [s]
        while stack:
            x = stack.pop()
            for p in perms:
                if (y := mask_of(p[v] for v in bits(x))) not in orbit:
                    orbit.add(y)
                    stack.append(y)
        met |= orbit
        orbits.add(frozenset(orbit))
    return orbits


def test_label_automorphisms_match_the_bruteforce_group():
    # every graph on at most 6 vertices, as enumerated and shuffled: _label
    # keeps canonical_form's key, and each automorphism it returns is real;
    # with the twin swaps its search skips, they give the whole group's
    # orbits on vertex subsets, which is what the enumerator prunes by
    rng = random.Random(6)
    for n in range(7):
        for g in enumerate_nonisomorphic(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for h in (g, g.relabel(perm)):
                key, found = _label(h.adj)
                assert key == canonical_form(h)
                group = bruteforce.automorphisms(h)
                assert set(found) <= set(group)
                swaps = []
                for v in range(n):
                    for u in range(v):
                        if _are_twins(h.adj, u, v):
                            p = list(range(n))
                            p[u], p[v] = v, u
                            swaps.append(p)
                assert _subset_orbits(found + swaps, n) == _subset_orbits(group, n)


def _prism() -> Graph:
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


@pytest.mark.parametrize(
    "g,h",
    [
        (Graph.cycle(6), Graph.complete(3).disjoint_union(Graph.complete(3))),
        (Graph.complete_bipartite(3, 3), _prism()),
        (Graph.cycle(8), Graph.cycle(4).disjoint_union(Graph.cycle(4))),
    ],
    ids=["C6/2K3", "K33/prism", "C8/2C4"],
)
def test_canonical_form_separates_refinement_twins(g, h):
    # regular pairs: colour refinement leaves one cell, the search must split them
    assert len(_refine(g.adj)) == len(_refine(h.adj)) == 1
    assert canonical_form(g) != canonical_form(h)
    assert not are_isomorphic(g, h)


@pytest.mark.parametrize(
    "g",
    [Graph.cycle(9), Graph.cycle(7).complement(), petersen()],
    ids=["C9", "co-C7", "Petersen"],
)
def test_canonical_form_invariant_on_vertex_transitive_graphs(g):
    rng = random.Random(g.n)
    key = canonical_form(g)
    for _ in range(20):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g.relabel(perm)) == key


def test_relabel_roundtrip():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    perm = [2, 0, 3, 1]
    inverse = [perm.index(i) for i in range(4)]
    assert g.relabel(perm).relabel(inverse) == g


def test_empty_graph_is_valid_everywhere():
    g = Graph.empty(0)
    assert g.vertex_mask == 0
    assert g.edge_count == 0
    assert g.components() == []
    assert canonical_form(g) == canonical_form(Graph.empty(0))
