"""Homogeneous sets via pair closure.

A homogeneous set is a proper module with at least two vertices: every
outside vertex sees all of it or none of it.  Any homogeneous set S and any
pair inside S have the same closure under "add the vertices mixed on the
current set", because vertices outside S are never mixed on a subset of S.
Sweeping all pairs therefore finds a homogeneous set whenever one exists.
"""

from __future__ import annotations

import itertools

from .graph import Graph, bits


def mixed_vertices(g: Graph, s: int) -> int:
    """Vertices outside s adjacent to some but not all of s."""
    if not s:
        raise ValueError("mixed_vertices needs a nonempty set")
    if s & ~g.vertex_mask:
        raise IndexError("subset mask has bits outside the vertex range")
    return _mixed(g.adj, g.vertex_mask, s)


def _mixed(adj, mask, s):
    """Vertices of mask outside s adjacent to some but not all of s."""
    out = 0
    for v in bits(mask & ~s):
        inter = adj[v] & s
        if inter and inter != s:
            out |= 1 << v
    return out


def is_homogeneous_set(g: Graph, s: int) -> bool:
    return 1 < s.bit_count() < g.n and not mixed_vertices(g, s)


def find_homogeneous_set(g: Graph) -> int | None:
    """Smallest homogeneous set (ties: lexicographically least), or None.

    Closes each vertex pair under mixed-vertex addition; the closure is the
    least homogeneous candidate containing that pair.
    """
    adj, mask = g.adj, g.vertex_mask
    best: tuple[int, tuple[int, ...], int] | None = None
    limit = g.n - 1  # closures only grow, so one above limit cannot win
    for u, v in itertools.combinations(range(g.n), 2):
        s = 1 << u | 1 << v
        while s.bit_count() <= limit and (m := _mixed(adj, mask, s)):
            s |= m
        if (size := s.bit_count()) > limit:
            continue
        key = (size, tuple(bits(s)), s)
        if best is None or key < best:
            best, limit = key, size
    return best[2] if best else None
