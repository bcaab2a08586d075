"""Homogeneous sets via pair closure.

A homogeneous set is a proper module with at least two vertices: every
outside vertex sees all of it or none of it.  An outside vertex is mixed on
a set exactly when it has both a neighbour and a non-neighbour in it, so a
closure tracks two masks, the outside vertices with a neighbour in the set
and those with a non-neighbour, and ORs in one row and one co-row per vertex
added.  Any homogeneous set S and any pair inside S have the same closure
under "add the vertices mixed on the current set", because vertices outside
S are never mixed on a subset of S.  Sweeping all pairs therefore finds a
homogeneous set whenever one exists.
"""

from __future__ import annotations

import itertools

from .graph import Graph, _co_rows, bits


def mixed_vertices(g: Graph, s: int) -> int:
    """Vertices outside s adjacent to some but not all of s."""
    if not s:
        raise ValueError("mixed_vertices needs a nonempty set")
    if s & ~g.vertex_mask:
        raise IndexError("subset mask has bits outside the vertex range")
    out = 0
    for v in bits(g.vertex_mask & ~s):
        inter = g.adj[v] & s
        if inter and inter != s:
            out |= 1 << v
    return out


def is_homogeneous_set(g: Graph, s: int) -> bool:
    return 1 < s.bit_count() < g.n and not mixed_vertices(g, s)


def _pair_closures(g: Graph):
    """Yield the closure of each pair (u, v), in itertools.combinations
    order, that stays proper; each one is a homogeneous set.

    near holds the vertices with a neighbour in s and far those with a
    non-neighbour in s, so the mixed vertices are near & far & ~s.
    """
    adj, mask = g.adj, g.vertex_mask
    co = _co_rows(adj, mask)
    for u, v in itertools.combinations(range(g.n), 2):
        s = 1 << u | 1 << v
        near, far = adj[u] | adj[v], co[u] | co[v]
        while m := near & far & ~s:
            s |= m
            while m:
                low = m & -m
                m ^= low
                w = low.bit_length() - 1
                near |= adj[w]
                far |= co[w]
        if s != mask:
            yield s


def find_homogeneous_set(g: Graph) -> int | None:
    """Smallest homogeneous set (ties: lexicographically least), or None.

    The least homogeneous set containing a pair is that pair's closure, so
    the answer is the least of the proper pair closures.
    """
    return min(_pair_closures(g), key=lambda s: (s.bit_count(), tuple(bits(s))), default=None)
