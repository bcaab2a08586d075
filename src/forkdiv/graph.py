"""Bitset-backed simple undirected graphs.

Vertices are 0..n-1 and every vertex set is a plain int bitmask, so the
neighbourhood algebra used throughout the package (M(v) = V - N(v) - v,
induced subgraphs, mixed vertices) is a handful of and/or/not operations.
Graphs are immutable and hashable, which lets corpus-scale callers memoise
oracle results keyed on the graph itself.
"""

from __future__ import annotations

from functools import cache

from .limits import CANONICAL_CAP, CapacityError

MAX_VERTICES = 128


def bits(mask: int):
    """Iterate the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@cache
def _swap_masks(s: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) per block swap transposing an s x s bit matrix (bit c of
    row r at r*s + c; Hacker's Delight 7-3): at width j, (r, c) with bit j of
    c set and of r clear trades with (r + j, c - j); repunits tile the masks."""
    def tile(x, period, width):  # x repeated every period bits across width bits
        return x * (((1 << width) - 1) // ((1 << period) - 1))
    swaps = []
    for j in (1 << k for k in range(s.bit_length() - 1)):
        cols = tile((1 << j) - 1 << j, 2 * j, s)  # the columns with bit j set
        swaps.append((j * (s - 1), tile(tile(cols, s, j * s), 2 * j * s, s * s)))
    return tuple(swaps)


class Graph:
    """Immutable simple graph; adj[v] is the neighbour bitmask of v.
    Graphs are equal, and hash, by (n, adj), and equal no other type."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...] | list[int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))  # a list would stay mutable
        self.__post_init__()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: Graph is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n!r}, adj={self.adj!r})"

    def __reduce__(self):
        return Graph, (self.n, self.adj)

    def __post_init__(self):
        """Validate n and adj; perfbench's tracer counts constructions here.
        The rows, packed at a power-of-two stride, must equal their transpose."""
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match n")
        stride, packed = 1 << (self.n - 1).bit_length(), 0
        for v, row in enumerate(adj := self.adj):
            if row >> self.n:
                raise ValueError(f"adjacency row {v} has bits outside 0..{self.n - 1}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            packed |= row << v * stride
        t = packed
        for shift, mask in _swap_masks(stride):
            x = (t >> shift ^ t) & mask
            t ^= x ^ x << shift
        if t != packed:
            v, u = next((v, u) for v, row in enumerate(adj) for u in bits(row)
                        if not adj[u] >> v & 1)
            raise ValueError(f"asymmetric edge {v}-{u}")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << v) for v in range(n)))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "Graph":
        return cls.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])

    # -- elementary accessors ------------------------------------------

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self):
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def _check_vertex(self, v: int):
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for n={self.n}")

    def neighborhood(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v]

    def non_neighborhood(self, v: int) -> int:
        """M(v): everything outside N(v) and v itself.

        {v}, N(v), M(v) always partition the vertex set.
        """
        self._check_vertex(v)
        return self.vertex_mask & ~self.adj[v] & ~(1 << v)

    # -- transformations ------------------------------------------------

    def induced(self, s: int) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph induced on bitmask s plus the new->old index map.

        New indices follow ascending original index.
        """
        if s & ~self.vertex_mask:
            raise IndexError("subset mask has bits outside the vertex range")
        vmap = tuple(bits(s))
        pos = {v: i for i, v in enumerate(vmap)}
        adj = []
        for v in vmap:
            row = 0
            for u in bits(self.adj[v] & s):
                row |= 1 << pos[u]
            adj.append(row)
        return Graph(len(vmap), tuple(adj)), vmap

    def complement(self) -> "Graph":
        return Graph(self.n, tuple(_co_rows(self.adj, self.vertex_mask)))

    def relabel(self, perm) -> "Graph":
        """Apply a permutation old index -> new index."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the vertex range")
        adj = [0] * self.n
        for v, row in enumerate(self.adj):
            for u in bits(row):
                adj[perm[v]] |= 1 << perm[u]
        return Graph(self.n, tuple(adj))

    def disjoint_union(self, other: "Graph") -> "Graph":
        adj = list(self.adj)
        adj.extend(row << self.n for row in other.adj)
        return Graph(self.n + other.n, tuple(adj))

    def components(self) -> list[int]:
        """Connected components as bitmasks, ordered by smallest member."""
        out = []
        rest = self.vertex_mask
        while rest:
            comp = rest & -rest
            frontier = comp
            while frontier:
                grown = 0
                for v in bits(frontier):
                    grown |= self.adj[v]
                frontier = grown & rest & ~comp
                comp |= frontier
            out.append(comp)
            rest &= ~comp
        return out

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def line_graph(self) -> tuple["Graph", tuple[tuple[int, int], ...]]:
        """Line graph plus the map from its vertices back to edges of self."""
        if (m := self.edge_count) > MAX_VERTICES:
            raise ValueError(f"line graph needs {m} vertices (one per edge), above {MAX_VERTICES}")
        edge_list = tuple(self.edges())
        inc = [0] * self.n  # inc[v]: mask of the edges at v
        for i, (a, b) in enumerate(edge_list):
            inc[a] |= 1 << i
            inc[b] |= 1 << i
        adj = tuple((inc[a] | inc[b]) & ~(1 << i) for i, (a, b) in enumerate(edge_list))
        return Graph(len(edge_list), adj), edge_list


def _co_rows(adj, mask):
    """Adjacency rows of the complement of the graph induced on mask."""
    return [mask & ~row & ~(1 << v) for v, row in enumerate(adj)]


def _are_twins(adj: tuple[int, ...], u: int, v: int) -> bool:
    # Rows agree once the mutual bits are masked out; swapping such a pair
    # is an automorphism that fixes every other vertex.
    m = ~(1 << u | 1 << v)
    return adj[u] & m == adj[v] & m


def _refine(adj: tuple[int, ...]) -> list[int]:
    """Cells of the stable colour-refinement (1-WL) colouring, in colour order.

    Starts from the degree classes in ascending degree, the cells a first
    round from one cell would give; each round recolours v by (its colour,
    the number of its neighbours in each cell) and orders the new colours by
    that signature, so the cell order is invariant under isomorphism.  The
    signature leads with the old colour, so a round splits each cell in
    place, and a single-vertex cell passes through unsplit; its counts, 4
    bits each in one int, order as their tuple (each is at most
    CANONICAL_CAP - 1 = 9).  Stops once the cell count holds.
    """
    by_degree: dict[int, int] = {}
    for v, row in enumerate(adj):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    while len(cells) < len(adj):
        split: list[int] = []
        for cell in cells:
            if not cell & (cell - 1):
                split.append(cell)
                continue
            parts: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                row = adj[low.bit_length() - 1]
                sig = 0
                for m in cells:
                    sig = sig << 4 | (row & m).bit_count()
                parts[sig] = parts.get(sig, 0) | low
            split += [cell] if len(parts) < 2 else [parts[sig] for sig in sorted(parts)]
        if len(split) == len(cells):
            break
        cells = split
    return cells


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string; equal iff the graphs are isomorphic.

    Vertices are first coloured by colour refinement (1-WL): starting from
    the degree classes, each vertex is recoloured by its colour and the
    multiset of its neighbours' colours until the number of colour cells
    stops growing.
    Only orderings that list the cells in colour order are searched, so
    position k takes a vertex of the cell covering k; isomorphisms preserve
    that set of orderings, so the key stays a complete invariant.

    Within that set, backtracks for the lexicographically least adjacency bit
    string (column-major upper triangle).  At each depth only orderings
    whose next bit group is minimal can still win, so only those are
    branched, keeping one representative per twin pair; this collapses the
    factorial blowup on graphs with many interchangeable vertices.
    """
    if g.n > CANONICAL_CAP:
        raise CapacityError("canonical_form", g.n, CANONICAL_CAP)
    return _label(g.adj)[0]


def _label(adj) -> tuple[bytes, list[tuple[int, ...]]]:
    """canonical_form's key of the graph with rows adj (at most CANONICAL_CAP
    of them, unchecked), plus automorphisms as tuples p mapping v to p[v].

    Each best ordering o reached after the first one, `first`, gives the
    automorphism first[i] -> o[i], since both orderings read the same
    adjacency string.  The search keeps one vertex per twin pair, so twin
    swaps are never among them.
    """
    n = len(adj)
    # slot[k]: the cell covering position k of an ordering
    slot = [cell for cell in _refine(adj) for _ in range(cell.bit_count())]

    best: list[int] | None = None
    first: list[int] = []
    ties: list[list[int]] = []  # later orderings that reach best
    order: list[int] = []
    groups: list[int] = []  # groups[k] holds the k bits of order[k] vs order[0..k-1]

    def rec(used: int):
        nonlocal best, first
        k = len(order)
        if k == n:
            # the prune below lets no leaf past best, so a leaf that is not
            # less than best equals it
            if best is None or groups < best:
                best, first = groups.copy(), order.copy()
                ties.clear()
            else:
                ties.append(order.copy())
            return
        lowest = -1
        cands: list[int] = []
        free = slot[k] & ~used
        while free:
            low = free & -free
            free ^= low
            v = low.bit_length() - 1
            row = adj[v]
            val = 0
            for u in order:
                val = val << 1 | (row >> u & 1)
            if lowest < 0 or val < lowest:
                lowest = val
                cands = [v]
            elif val == lowest:
                for u in cands:
                    if not (row ^ adj[u]) & ~(1 << u | 1 << v):
                        break  # twins (see _are_twins): one stands for both
                else:
                    cands.append(v)
        if best is not None and groups + [lowest] > best[: k + 1]:
            return
        for v in cands:
            order.append(v)
            groups.append(lowest)
            rec(used | 1 << v)
            order.pop()
            groups.pop()

    rec(0)
    del rec  # a recursive closure is a reference cycle
    assert best is not None
    packed = 0
    width = 0
    for k, val in enumerate(best):
        packed = packed << k | val
        width += k
    automorphisms = []
    for o in ties:
        p = [0] * n
        for v, u in zip(first, o):
            p[v] = u
        automorphisms.append(tuple(p))
    return bytes([n]) + packed.to_bytes((width + 7) // 8, "big"), automorphisms


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(row.bit_count() for row in g.adj) != sorted(row.bit_count() for row in h.adj):
        return False
    return canonical_form(g) == canonical_form(h)
