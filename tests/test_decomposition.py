import pytest
from hypothesis import given

import bruteforce
from forkdiv import harness
from forkdiv.decomposition import _pair_closures, find_homogeneous_set, is_homogeneous_set, mixed_vertices
from forkdiv.graph import Graph, mask_of
from forkdiv.harness import graphs_up_to
from strategies import graphs

PAW = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def test_mixed_vertices_golden_cases():
    c4 = Graph.cycle(4)
    assert mixed_vertices(c4, mask_of([0, 2])) == 0
    p4 = Graph.path(4)
    assert mixed_vertices(p4, mask_of([0, 1])) == mask_of([2])
    assert mixed_vertices(p4, p4.vertex_mask) == 0


def test_mixed_vertices_rejects_bad_input():
    with pytest.raises(ValueError):
        mixed_vertices(Graph.cycle(4), 0)
    with pytest.raises(IndexError):
        mixed_vertices(Graph.cycle(4), 1 << 6)


def test_find_homogeneous_set_golden_cases():
    assert find_homogeneous_set(Graph.cycle(4)) == mask_of([0, 2])
    assert find_homogeneous_set(Graph.path(4)) is None
    # the two triangle vertices away from the pendant form a module
    assert find_homogeneous_set(PAW) == mask_of([1, 2])
    assert find_homogeneous_set(Graph.cycle(5)) is None
    assert find_homogeneous_set(Graph.complete(2)) is None
    assert find_homogeneous_set(Graph.empty(0)) is None


@given(graphs())
def test_returned_set_is_homogeneous(g):
    s = find_homogeneous_set(g)
    if s is not None:
        assert is_homogeneous_set(g, s)
        assert 1 < bin(s).count("1") < g.n
        assert mixed_vertices(g, s) == 0


@given(graphs())
def test_agrees_with_exhaustive_subset_scan(g):
    all_sets = bruteforce.homogeneous_sets(g)
    s = find_homogeneous_set(g)
    assert (s is None) == (not all_sets)
    if s is not None:
        # smallest, then lexicographically least vertex tuple
        def key(m):
            return (bin(m).count("1"), sorted(i for i in range(g.n) if m >> i & 1))

        assert key(s) == min(key(m) for m in all_sets)
        assert s in all_sets


@given(graphs())
def test_homogeneity_is_complement_invariant(g):
    s = find_homogeneous_set(g)
    t = find_homogeneous_set(g.complement())
    assert (s is None) == (t is None)
    if s is not None:
        assert is_homogeneous_set(g.complement(), s)
        assert is_homogeneous_set(g, t)


def _assert_homogeneous_fact(g):
    all_sets = bruteforce.homogeneous_sets(g)
    harness._homogeneous.cache_clear()
    s = harness._homogeneous(g)
    if all_sets:
        assert s in all_sets
    else:
        assert s is None
    for t in _pair_closures(g):
        assert t in all_sets


def test_homogeneous_fact_matches_subset_scan_on_every_small_graph():
    # the harness memoises the first proper pair closure: a homogeneous set
    # exactly when the exhaustive scan finds one, and None otherwise
    for g in [Graph.empty(0), *graphs_up_to(7)]:
        _assert_homogeneous_fact(g)


@given(graphs())
def test_homogeneous_fact_matches_subset_scan(g):
    _assert_homogeneous_fact(g)
