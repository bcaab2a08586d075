import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given

from forkdiv.formats import (
    FormatError,
    emit_dimacs,
    emit_edgelist,
    emit_graph6,
    parse_dimacs,
    parse_edgelist,
    parse_graph6,
    parse_graph6_lines,
)
from forkdiv.graph import Graph
from forkdiv.harness import graphs_up_to
from strategies import graphs


def test_graph6_golden_strings():
    assert emit_graph6(Graph.empty(0)) == "?"
    assert emit_graph6(Graph.complete(1)) == "@"
    assert emit_graph6(Graph.complete(2)) == "A_"
    assert emit_graph6(Graph.empty(2)) == "A?"
    star_at_end = Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    assert emit_graph6(star_at_end) == "D?{"
    assert parse_graph6("D?{") == star_at_end


def test_graph6_matches_networkx_on_catalog():
    cases = [Graph.cycle(5), Graph.path(6), Graph.complete(4), Graph.complete_bipartite(2, 3)]
    cases.extend(graphs_up_to(5))
    for g in cases:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        want = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert emit_graph6(g) == want


def read_graph6_bit_by_bit(text: str) -> Graph:
    """Reference reader for well-formed graph6: the size, then one bit at a
    time, high bit of each byte first, over the pairs x(0,1), x(0,2), x(1,2),
    x(0,3), ... of the column-major upper triangle."""
    if text[0] == "~":
        n = sum((ord(ch) - 63) << shift for ch, shift in zip(text[1:4], (12, 6, 0)))
        body = text[4:]
    else:
        n, body = ord(text[0]) - 63, text[1:]
    pairs = [(i, j) for j in range(n) for i in range(j)]
    edges = []
    for k, (i, j) in enumerate(pairs):
        if (ord(body[k // 6]) - 63) >> (5 - k % 6) & 1:
            edges.append((i, j))
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 6, 7, 62, 63, 64, 127, 128])
def test_graph6_parse_matches_bit_by_bit_reader(n):
    rng = random.Random(n)
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    pairs = n * (n - 1) // 2
    for density in (0.0, 0.1, 0.5, 0.9, 1.0):
        stream = [int(rng.random() < density) for _ in range(pairs)]
        stream += [0] * (-pairs % 6)
        text = head + "".join(
            chr(63 + int("".join(map(str, stream[k : k + 6])), 2)) for k in range(0, len(stream), 6)
        )
        assert parse_graph6(text) == read_graph6_bit_by_bit(text)


@given(graphs(max_n=12))
def test_graph6_round_trip(g):
    text = emit_graph6(g)
    assert parse_graph6(text) == read_graph6_bit_by_bit(text) == g


def test_graph6_parse_errors_carry_offsets():
    for text, message, offset in [
        ("", "empty graph6 string", 0),
        ("~??", "truncated graph6 size header", 0),
        (chr(30) + "??", "size byte '\\x1e' outside graph6 range", 0),
        ("~?" + chr(127) + "?", "size byte '\\x7f' outside graph6 range", 0),
        ("~?A@" + "?" * 1376, "graph6 sizes above 128 vertices are not supported", 0),
        ("D?", "graph6 body for n=5 needs 2 bytes, got 1", 1),
        ("D???", "graph6 body for n=5 needs 2 bytes, got 3", 1),
        ("~??~" + "?" * 300, "graph6 body for n=63 needs 326 bytes, got 300", 4),
        ("D?" + chr(200), "byte 'È' outside graph6 range", 2),
        ("D>?", "byte '>' outside graph6 range", 1),
        ("E??" + chr(127), "byte '\\x7f' outside graph6 range", 3),
        ("B" + chr(63 + 0b000001), "nonzero padding bits", 1),  # n=3 uses 3 of 6 bits
        ("D?@", "nonzero padding bits", 2),
    ]:
        with pytest.raises(FormatError) as err:
            parse_graph6(text)
        assert (str(err.value), err.value.offset) == (f"{message} (offset {offset})", offset), text


def test_graph6_lines_reports_line_numbers():
    text = "@\nA_\n\nbogus!!\n"
    with pytest.raises(FormatError) as err:
        parse_graph6_lines(text)
    assert "line 4" in str(err.value)
    assert [g.n for g in parse_graph6_lines("@\nA_\n")] == [1, 2]


@pytest.mark.parametrize("n", [63, 100, 128])
def test_graph6_four_byte_size_round_trip(n):
    rng = random.Random(n)
    g = Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.3])
    text = emit_graph6(g)
    assert text[0] == "~" and len(text) == 4 + (n * (n - 1) // 2 + 5) // 6
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(g.edges())
    assert text == nx.to_graph6_bytes(h, header=False).decode().strip()
    assert parse_graph6(text) == g


def test_graph6_size_above_max_vertices_is_rejected():
    assert emit_graph6(Graph.empty(62)) == "}" + "?" * 316
    assert emit_graph6(Graph.empty(63)).startswith("~??~")
    for text in ("~?A@" + "?" * 1376, "~~??????"):  # n = 2·64 + 1 = 129; eight-byte size
        with pytest.raises(FormatError) as err:
            parse_graph6(text)
        assert err.value.offset == 0
    with pytest.raises(FormatError) as err:
        parse_graph6("~??~" + "?" * 300)  # n = 63 needs 326 body bytes
    assert err.value.offset == 4


def test_dimacs_golden():
    text = "c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
    assert parse_dimacs(text) == Graph.complete(3)


def test_dimacs_duplicates_collapse():
    g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 1\n")
    assert g.edge_count == 1


@pytest.mark.parametrize(
    "text",
    [
        "e 1 2\n",                      # edge before header
        "p edge 3 1\ne 1 4\n",          # endpoint out of range
        "p edge 3 1\ne 1 1\n",          # self-loop
        "p edge 3 1\nq 1 2\n",          # unknown record
        "p edge 3 1\np edge 3 1\n",     # duplicate header
        "p vertex 3 1\n",               # wrong problem kind
        "p edge -1 0\n",                # negative size
        "p edge a b\n",                 # non-integer sizes
        "p edge 3 1\ne one 2\n",        # non-integer endpoint
        "",                             # missing header
    ],
)
def test_dimacs_rejects(text):
    with pytest.raises(FormatError):
        parse_dimacs(text)


def test_edgelist_golden():
    assert parse_edgelist("0 1\n1 2\n") == Graph.path(3)
    assert parse_edgelist("# comment\n\n0 1\n", n=4).n == 4


@pytest.mark.parametrize(
    "text,n",
    [
        ("0 0\n", None),     # self-loop
        ("0 -1\n", None),    # negative vertex
        ("0 x\n", None),     # non-integer
        ("0 1 2\n", None),   # wrong arity
        ("0 5\n", 3),        # beyond declared size
    ],
)
def test_edgelist_rejects(text, n):
    with pytest.raises(FormatError):
        parse_edgelist(text, n=n)


@pytest.mark.parametrize("parse, text, line", [
    (parse_dimacs, "c big\np edge 2000000 0\n", "line 2: vertex count 2000000 above 128"),
    (parse_edgelist, "0 1\n0 1999999\n", "line 2: vertex 1999999 outside 0..127"),
], ids=["dimacs", "edgelist"])
def test_oversized_sizes_are_refused_at_their_line_before_allocating(parse, text, line):
    # an n-entry row list for two million vertices took 32 MB before Graph refused n
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == line
    assert peak < 2**20
    # the largest size Graph holds still parses
    assert parse_dimacs("p edge 128 0\n").n == parse_edgelist("0 127\n").n == 128


def test_edgelist_refuses_a_declared_size_outside_the_cap_before_allocating():
    # an n-entry row list for a declared two million vertices took 30.5 MB
    # before Graph refused n, and n = -1 was reported as a vertex outside it
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            parse_edgelist("0 1\n", n=2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "declared size 2000000 outside 0..128"
    assert peak < 2**20
    with pytest.raises(FormatError) as err:
        parse_edgelist("0 1\n", n=-1)
    assert str(err.value) == "declared size -1 outside 0..128"
    assert parse_edgelist("0 1\n", n=128).n == 128


@given(graphs(max_n=7))
def test_dimacs_and_edgelist_round_trip(g):
    assert parse_dimacs(emit_dimacs(g)) == g
    if g.n:
        got = parse_edgelist(emit_edgelist(g), n=g.n)
        assert got == g
