"""Perfect divisions, weighted divisions, and divisibility-based colouring.

A division of G splits V into A and B with G[A] perfect and, when G has any
vertices, omega(G[B]) < omega(G).  Every routine here works on vertex masks
of one host graph, and none builds an induced copy.  The weighted engine
divides H = G[U], U the support of the weights: a pivot v with perfect
M_H(v) yields S = M_H(v) + v and T = N_H(v) plus the zero-weight vertices;
failing that, an exhaustive search for a perfect S that meets every
maximum-weight clique of H finds one or proves that none exists.
perfect_division tests G for perfection, then runs the same engine under
unit weights.  The 2**n tables serve exact divisibility alone.
color_by_division peels its layers as masks of the host.  Every returned
division is first re-derived by _certify; a perfect-whole one passes all of
its checks but perfection, which the test that chose it has just proved.
"""

from __future__ import annotations

from collections import namedtuple

from .graph import Graph, _co_rows, bits, mask_of
from .limits import SEARCH_CAP, CapacityError, InvariantError
from .oracles import (
    _check_weights,
    _exact_coloring,
    _max_clique,
    _max_clique_size,
    _odd_holes,
    is_perfect_induced,
)
from .patterns import _BINOMIAL


class Division(namedtuple("Division", "a b strategy omega_b omega pivot omega_w_b omega_w",
                          defaults=(None, None, None))):
    """A checked split (a, b) of some graph's vertex set, as bitmasks; pivot
    and the weighted certificates omega_w_b and omega_w default to None."""

    __slots__ = ()

    def to_json(self):
        out = {
            "a": list(bits(self.a)),
            "b": list(bits(self.b)),
            "strategy": self.strategy,
            "certificate": {
                "a_is_perfect": True,  # perfect-whole's own test, else _certify
                "omega_b": self.omega_b,
                "omega": self.omega,
            },
        }
        if self.pivot is not None:
            out["pivot"] = self.pivot
        if self.omega_w is not None:
            out["certificate"]["omega_w_b"] = self.omega_w_b
            out["certificate"]["omega_w"] = self.omega_w
        return out


def _certify(g, a, b, strategy, *args, **kwargs) -> Division:
    """_division's split, once the oracle re-derives that G[a] is perfect."""
    d = _division(g, a, b, strategy, *args, **kwargs)
    if not is_perfect_induced(g, a):
        raise InvariantError(f"{strategy}: side A is not perfect (a={sorted(bits(a))})")
    return d


def _division(g, a, b, strategy, pivot=None, w=None, within=None, omega=None,
              omega_w=None) -> Division:
    """Assemble a Division of G[within] (default: all of G), re-deriving from
    the oracles all of its certificate but A's perfection: a and b partition
    within, and omega drops on b (when within is nonempty) or, under weights
    w, the max clique weight does; omega(G[within]) and its max clique weight
    omega_w may come from the caller, which searched them already."""
    within = g.vertex_mask if within is None else within
    if a & b or (a | b) != within:
        raise InvariantError(f"{strategy}: sides do not partition the vertex set")
    omega_b = _max_clique_size(g.adj, b)
    omega = _max_clique_size(g.adj, within) if omega is None else omega
    omega_w_b = None
    if w is not None:
        omega_w_b = _max_clique_size(g.adj, b, w)
        omega_w = _max_clique_size(g.adj, within, w) if omega_w is None else omega_w
        if omega_w_b >= omega_w:
            raise InvariantError(
                f"{strategy}: no weighted clique drop (omega_w_b={omega_w_b}, omega_w={omega_w})"
            )
    elif within and omega_b >= omega:
        raise InvariantError(f"{strategy}: no clique drop (omega_b={omega_b}, omega={omega})")
    return Division(
        a, b, strategy, omega_b, omega, pivot=pivot, omega_w_b=omega_w_b, omega_w=omega_w
    )


def perfect_division(g: Graph) -> Division | None:
    """A division of g, None if exhaustion proves none exists.

    Strategies in order: the whole graph is perfect; the weighted engine
    under unit weights, which first tries each vertex whose
    non-neighbourhood induces a perfect graph (ascending index), then
    searches for a perfect A that meets every maximum clique (see
    _transversal).  The first step's odd-hole search raises CapacityError
    on a graph over limits.SEARCH_CAP (16) vertices, so no strategy runs
    above it.
    """
    return _divide_mask(g, g.vertex_mask)[0]


def _divide_mask(g, mask, omega=None):
    """perfect_division of G[mask], with both sides as masks of g, and
    omega(G[mask]), searched unless the caller knows it already."""
    if is_perfect_induced(g, mask):  # this layer's one perfection proof
        d = _division(g, mask, 0, "perfect-whole", within=mask, omega=omega)
        return d, d.omega
    omega = _max_clique_size(g.adj, mask) if omega is None else omega
    res = _divide_support(g, mask, None, omega)
    if res is None:
        return None, omega
    a, b, strategy, pivot = res
    return _certify(g, a, b, strategy, pivot, within=mask, omega=omega), omega


def divide_weighted(g: Graph, w) -> Division | None:
    """A division for nonnegative integer weights w (not all zero):
    G[S] perfect and the max clique weight strictly drops on T; None when
    the exhaustive search proves that none exists."""
    w = _check_weights(g, w)
    support = mask_of(v for v in range(g.n) if w[v] > 0)
    if not support:
        raise ValueError("weights must not be identically zero")
    top = _max_clique_size(g.adj, g.vertex_mask, w)  # zero weights add nothing
    res = _divide_support(g, support, w, top)
    if res is None:
        return None
    s, t, strategy, pivot = res
    return _certify(g, s, t | (g.vertex_mask & ~support), strategy, pivot, w, omega_w=top)


def _divide_support(g, u_mask, w, top):
    """Divide H = G[u_mask] under all-positive weights w (unit weights when
    None), top being H's max clique weight; returns (s, t, strategy, pivot)
    partitioning u_mask, or None when none exists."""
    for v in bits(u_mask):
        m_h = u_mask & ~g.adj[v] & ~(1 << v)
        if is_perfect_induced(g, m_h):
            return m_h | 1 << v, u_mask & g.adj[v], "perfect-non-neighborhood", v
    s = _transversal(g, u_mask, w, top, 0, 0)
    return None if s is None else (s, u_mask & ~s, "exhaustive", None)


def _transversal(g, u_mask, w, top, s, banned):
    """A perfect s' within u_mask, containing s and missing banned, that meets
    every clique of weight top (the max over u_mask), or None.

    The lexicographically first clique of weight top left in u_mask - s,
    one witness search, must be met, so branch on its unbanned vertices in
    ascending order, keeping a branch only while s stays perfect, and ban
    each vertex once its branch fails.  Perfection is hereditary, so every
    minimal such s' lies below some branch: a None proves that G[u_mask]
    has no division under w."""
    clique = _max_clique(g.adj, u_mask & ~s, top, w)
    if clique is None:
        return s
    for v in bits(clique & ~banned):
        bit = 1 << v
        if is_perfect_induced(g, s | bit):
            found = _transversal(g, u_mask, w, top, s | bit, banned)
            if found is not None:
                return found
        banned |= bit
    return None


def _imperfect_table(g: Graph) -> bytes:
    """Byte m is 1 exactly when G[m] is not perfect, for every submask m.

    A vertex set is imperfect exactly when it contains an odd hole or an odd
    antihole (Strong Perfect Graph Theorem), so mark the odd holes of G and
    of its complement and lift every mark onto all supersets, one vertex v
    at a time.  The 0/1 bytes are read as one little-endian integer, so
    lifting along v is a single shift by 2**v bytes; or-ing 0/1 bytes never
    carries.  With no mark, G and all its induced subgraphs are perfect.
    """
    size = 1 << g.n
    full = g.vertex_mask
    marks = bytearray(size)
    for rows in (g.adj, _co_rows(g.adj, full)):
        for hole in _odd_holes(rows, full):
            marks[hole] = 1
    if 1 not in marks:
        return bytes(marks)
    x = int.from_bytes(marks, "little")
    for v in range(g.n):
        step = 1 << v
        without_v = (b"\x01" * step + b"\x00" * step) * (size // (2 * step))
        x |= (x & int.from_bytes(without_v, "little")) << (8 * step)
    return x.to_bytes(size, "little")


def _omega_table(g: Graph) -> list[int]:
    """omega(G[m]) for every submask m, by doubling: for m below v,
    omega[m + v] = max(omega[m], 1 + omega[m & N(v)]), which is omega[m]
    plus one exactly when omega[m & N(v)] (never larger) equals it."""
    omega = [0]
    for v, row in enumerate(g.adj):
        low = row & ((1 << v) - 1)
        omega += [o + (omega[m & low] == o) for m, o in enumerate(omega)]
    return omega


def _division_scan(h, omega, imperfect) -> int | None:
    """The numerically largest submask a of h with G[a] perfect and
    omega(h - a) < omega(h), or None when G[h] has no division."""
    om_h = omega[h]
    a = h
    while imperfect[a] or omega[h & ~a] >= om_h:
        if not a:
            return None
        a = (a - 1) & h
    return a


def is_perfectly_divisible_exact(g: Graph) -> bool:
    """Whether every induced subgraph admits a division; exhaustive.

    Perfection of all 2**n submasks comes from one odd-hole table.  A
    perfect H divides as A = V(H), B empty, so only the imperfect h need a
    scan, in descending order, for a perfect submask a with omega(h - a) <
    omega(h); a perfect G needs none, and no omega table.
    """
    if g.n > SEARCH_CAP:
        raise CapacityError("is_perfectly_divisible_exact", g.n, SEARCH_CAP)
    imperfect = _imperfect_table(g)
    h = imperfect.rfind(1)
    omega = _omega_table(g) if h > 0 else None
    while h > 0:
        if _division_scan(h, omega, imperfect) is None:
            return False
        h = imperfect.rfind(1, 0, h)
    return True


# -- colouring through divisions ----------------------------------------


class ColorLayer(namedtuple("ColorLayer", "a b strategy colors_used")):
    """One peeled division (a, b) and the block of colours its A side took."""

    __slots__ = ()

    def to_json(self):
        return {
            "a": list(bits(self.a)),
            "b": list(bits(self.b)),
            "strategy": self.strategy,
            "colors_used": list(self.colors_used),
        }


class ColoringCertificate(namedtuple("ColoringCertificate",
                                      "colors palette omega layers fallback")):
    """Colours per vertex, their count, omega(G), the ColorLayers, and
    whether a residual was coloured exactly."""

    __slots__ = ()

    def to_json(self):
        return {
            "colors": list(self.colors),
            "palette": self.palette,
            "bound": {**_BINOMIAL.to_json(), "value": _BINOMIAL.evaluate(self.omega)},
            "layers": [layer.to_json() for layer in self.layers],
            "fallback": self.fallback,
        }


def color_by_division(g: Graph) -> ColoringCertificate:
    """Colour by peeling divisions: each perfect side takes a fresh block of
    exactly its clique number of colours, and the residual side loses at
    least one from omega, so a fully divided run uses at most
    binom(omega+1, 2) colours.  A residual proved to have no division is
    coloured exactly and flagged.  Division and colouring share
    limits.SEARCH_CAP, so a graph over it raises CapacityError before any
    layer is coloured; `fallback` never stands for a cap."""
    colors = [-1] * g.n
    layers: list[ColorLayer] = []
    remaining = g.vertex_mask
    next_color = 0
    fallback = False
    omega = 0  # omega(G), from the first layer
    top = None  # omega of the residual: the last layer's certificate measured it
    while remaining:
        d, top = _divide_mask(g, remaining, top)
        fallback = d is None
        a, b, strategy = (remaining, 0, "fallback-exact") if fallback else (d.a, d.b, d.strategy)
        layer_colors, omega_a = _exact_coloring(g.adj, a, top if a == remaining else None)
        k = max(layer_colors) + 1
        if not fallback and k != omega_a:
            raise InvariantError("perfect layer did not colour with omega colours")
        if not layers:
            omega = top
        for v in bits(a):
            colors[v] = next_color + layer_colors[v]
        layers.append(ColorLayer(a, b, strategy, tuple(range(next_color, next_color + k))))
        next_color += k
        remaining = b
        top = None if fallback else d.omega_b
    return ColoringCertificate(
        colors=tuple(colors),
        palette=next_color,
        omega=omega,
        layers=tuple(layers),
        fallback=fallback,
    )


# -- line graphs ---------------------------------------------------------


def _dfs_tree_edges(g: Graph, v: int = 0, seen: set[int] | None = None) -> set[tuple[int, int]]:
    """Edges of the depth-first tree from v, neighbours taken in ascending order."""
    seen = seen or {v}
    tree: set[tuple[int, int]] = set()
    for u in bits(g.adj[v]):
        if u not in seen:
            seen.add(u)
            tree.add((min(v, u), max(v, u)))
            tree |= _dfs_tree_edges(g, u, seen)
    return tree


def _line_graph(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """g.line_graph(), for connected g with at least one edge only."""
    if g.n < 2:
        raise ValueError("line_graph_division needs at least one edge")
    if not g.is_connected():
        raise ValueError("line_graph_division needs a connected graph")
    return g.line_graph()


def line_graph_division(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...], Division]:
    """Divide the line graph of connected g: a depth-first spanning tree's
    edges induce the perfect side.

    A depth-first tree is the safe choice: every star loses a tree edge,
    and when the maximum degree is 3 a triangle avoiding the tree would
    force a degree-4 vertex, so the clique number always drops on the rest.
    """
    lg, edge_list = _line_graph(g)
    tree = _dfs_tree_edges(g)
    a = mask_of(i for i, e in enumerate(edge_list) if e in tree)
    b = lg.vertex_mask & ~a
    return lg, edge_list, _certify(lg, a, b, "spanning-tree")
