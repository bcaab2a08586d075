"""Hypothesis strategies shared across the suite."""

from itertools import combinations

from hypothesis import strategies as st

from forkdiv.formats import parse_graph6
from forkdiv.graph import Graph, mask_of


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 7):
    n = draw(st.integers(min_n, max_n))
    if n < 2:
        return Graph.empty(n)
    # an edge density in eighths first, so sparse, middling and dense graphs
    # all turn up; then each pair is an edge when three coins, read as a
    # number 0..7, reach 8 - density.  Hypothesis biases its integers toward
    # 0 and the bounds, but not its coins.  Everything shrinks toward fewer
    # edges.
    density = draw(st.sampled_from(range(1, 8)))
    coins = st.booleans()
    edges = [
        e for e in combinations(range(n), 2)
        if 4 * draw(coins) + 2 * draw(coins) + draw(coins) >= 8 - density
    ]
    return Graph.from_edges(n, edges)


@st.composite
def connected_graphs(draw, min_n: int = 1, max_n: int = 7):
    n = draw(st.integers(min_n, max_n))
    if n < 2:
        return Graph.empty(n)
    # a random spanning tree first, then extra edges on top
    tree = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    pairs = list(combinations(range(n), 2))
    extra = draw(st.sets(st.sampled_from(pairs)))
    return Graph.from_edges(n, sorted(set(map(lambda e: tuple(sorted(e)), tree)) | extra))


@st.composite
def weighted_graphs(draw, min_n: int = 1, max_n: int = 6, max_w: int = 5):
    g = draw(graphs(min_n, max_n))
    w = tuple(draw(st.integers(0, max_w)) for _ in range(g.n))
    return g, w


# no vertex of these has a perfect non-neighbourhood, so under positive
# weights no pivot divides them and division falls through to the exhaustive
# search; the last is the Grötzsch graph, which under unit weights has no
# division at all
_C5, _C7 = Graph.cycle(5), Graph.cycle(7)
_PIVOTLESS = (_C5.disjoint_union(_C5), _C5.disjoint_union(_C7),
              _C7.complement().disjoint_union(_C5), parse_graph6("JhdLA_gc?N_"))


@st.composite
def pivotless_weighted_graphs(draw, max_w: int = 3):
    """A graph of _PIVOTLESS, or an induced subgraph of the Grötzsch graph,
    with positive weights up to max_w."""
    g = draw(st.sampled_from(_PIVOTLESS))
    if g is _PIVOTLESS[-1]:
        g, _ = g.induced(_vertex_mask(draw, g.n))
    w = tuple(draw(st.integers(1, max_w)) for _ in range(g.n))
    return g, w


def _vertex_mask(draw, n: int) -> int:
    # a density in eighths, then three coins per vertex, as graphs draws its
    # edges: an integer mask would lean toward 0, so toward few, low vertices
    density = draw(st.sampled_from(range(1, 9)))
    coins = st.booleans()
    return mask_of(
        v for v in range(n) if 4 * draw(coins) + 2 * draw(coins) + draw(coins) >= 8 - density
    )


# induced subgraphs that make a vertex set imperfect: an odd hole or antihole
_PLANTS = (Graph.cycle(5), Graph.cycle(7), Graph.cycle(7).complement())


@st.composite
def imperfect_graphs(draw, max_n: int = 8):
    """A graph with an induced C5, C7 or co-C7 planted on drawn vertices,
    so never perfect, and the planted vertices as a mask."""
    plant = draw(st.sampled_from([p for p in _PLANTS if p.n <= max_n]))
    g = draw(graphs(min_n=plant.n, max_n=max_n))
    at = draw(st.permutations(range(g.n)))[:plant.n]
    hole = mask_of(at)
    adj = [row & ~hole if v in at else row for v, row in enumerate(g.adj)]
    for i, j in plant.edges():
        adj[at[i]] |= 1 << at[j]
        adj[at[j]] |= 1 << at[i]
    return Graph(g.n, tuple(adj)), hole


@st.composite
def graphs_with_masks(draw, max_n: int = 8):
    """A graph and a vertex mask.  Odd holes and antiholes are rare in small
    random graphs, so about half the draws plant one (imperfect_graphs), and
    the mask then keeps it."""
    if max_n >= _PLANTS[0].n and draw(st.booleans()):
        g, hole = draw(imperfect_graphs(max_n))
    else:
        g, hole = draw(graphs(max_n=max_n)), 0
    return g, hole | _vertex_mask(draw, g.n)
