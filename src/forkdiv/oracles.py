"""Exact NP-hard oracles sized for small verification corpora.

Clique and weighted clique run branch-and-bound with greedy colouring
bounds, colouring runs a clique-seeded saturation-degree branch-and-bound,
and odd holes are found by extending induced paths, each hole once in one
orientation, with anchors and entries that cannot close a hole pruned.
Every witness is deterministic: ties break toward the lexicographically
smallest vertex set.
"""

from __future__ import annotations

from .graph import Graph, bits
from .limits import DEFAULT_CAPS, CapacityError


def _greedy_color_groups(adj, cand):
    """Order cand by greedy colour class; the class index bounds any clique."""
    order = []
    bound = []
    color = 0
    rest = cand
    while rest:
        color += 1
        avail = rest
        while avail:
            v = (avail & -avail).bit_length() - 1
            order.append(v)
            bound.append(color)
            avail &= ~adj[v] & ~(1 << v)
            rest &= ~(1 << v)
    return order, bound


def _max_clique_size(adj, cand, stop_at=None):
    """Largest clique within cand; stops early once stop_at is reached."""
    best = 0

    def expand(size, cand):
        nonlocal best
        if not cand:
            if size > best:
                best = size
            return
        order, bound = _greedy_color_groups(adj, cand)
        for i in range(len(order) - 1, -1, -1):
            if size + bound[i] <= best:
                return
            if stop_at is not None and best >= stop_at:
                return
            v = order[i]
            expand(size + 1, cand & adj[v])
            cand &= ~(1 << v)

    expand(0, cand)
    return best


def clique_number(g: Graph) -> int:
    return _max_clique_size(g.adj, g.vertex_mask)


def max_clique(g: Graph) -> int:
    """Lexicographically smallest maximum clique, as a bitmask."""
    return _max_clique(g.adj, g.vertex_mask)


def _max_clique(adj, mask):
    w = _max_clique_size(adj, mask)
    chosen = 0
    cand = mask
    for _ in range(w):
        for v in bits(cand):
            rest = cand & adj[v]
            need = w - chosen.bit_count() - 1
            if _max_clique_size(adj, rest, stop_at=need) >= need:
                chosen |= 1 << v
                cand = rest
                break
    return chosen


def independence_number(g: Graph) -> int:
    return _max_clique_size(_co_rows(g.adj, g.vertex_mask), g.vertex_mask)


def _co_rows(adj, mask):
    """Adjacency rows of the complement of the graph induced on mask."""
    return [mask & ~row & ~(1 << v) for v, row in enumerate(adj)]


def _check_weights(g, weights):
    weights = tuple(int(w) for w in weights)
    if len(weights) != g.n:
        raise ValueError(f"expected {g.n} weights, got {len(weights)}")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    return weights


def _max_weight_value(adj, weights, cand):
    """Largest total weight of a clique within cand (empty clique counts)."""
    order = sorted(bits(cand), key=lambda v: (-weights[v], v))
    best = 0

    def expand(wsum, cand, rest_sum):
        nonlocal best
        if wsum > best:
            best = wsum
        if wsum + rest_sum <= best:
            return
        for v in order:
            if not cand >> v & 1:
                continue
            if wsum + rest_sum <= best:
                return
            expand(wsum + weights[v], cand & adj[v], _wsum(weights, cand & adj[v]))
            cand &= ~(1 << v)
            rest_sum -= weights[v]

    expand(0, cand, _wsum(weights, cand))
    return best


def _wsum(weights, mask):
    return sum(weights[v] for v in bits(mask))


def max_weight_clique(g: Graph, weights) -> tuple[int, int]:
    """(best total weight, witness bitmask); witness is lexicographically
    smallest among optima, which may include zero-weight vertices."""
    weights = _check_weights(g, weights)
    target = _max_weight_value(g.adj, weights, g.vertex_mask)
    chosen = 0
    cand = g.vertex_mask
    remaining = target
    while remaining > 0:
        for v in bits(cand):
            rest = cand & g.adj[v]
            if weights[v] + _max_weight_value(g.adj, weights, rest) == remaining:
                chosen |= 1 << v
                cand = rest
                remaining -= weights[v]
                break
        else:  # pragma: no cover - target is always attainable
            raise AssertionError("weighted clique witness reconstruction failed")
    return target, chosen


# -- colouring --------------------------------------------------------


def _dsatur_order_pick(adj, colors, uncolored, degrees):
    best = None
    key = None
    for v in bits(uncolored):
        sat = len({colors[u] for u in bits(adj[v]) if colors[u] >= 0})
        k = (-sat, -degrees[v], v)
        if key is None or k < key:
            key = k
            best = v
    return best


def exact_coloring(g: Graph, cap: int = DEFAULT_CAPS.coloring) -> tuple[int, ...]:
    """An optimal proper colouring with colours 0..chi-1.

    Clique-seeded saturation-degree branch and bound; deterministic.
    """
    return tuple(_exact_coloring(g.adj, g.vertex_mask, cap))


def _exact_coloring(adj, mask, cap):
    """exact_coloring of the subgraph induced on mask, as a list over all
    rows of adj; vertices outside mask keep colour -1."""
    if mask.bit_count() > cap:
        raise CapacityError("exact_coloring", mask.bit_count(), cap)
    adj = [row & mask for row in adj]
    degrees = [row.bit_count() for row in adj]
    seed = _max_clique(adj, mask)
    lb = seed.bit_count()

    colors = [-1] * len(adj)
    for i, v in enumerate(bits(seed)):
        colors[v] = i

    # greedy DSATUR completion gives the initial upper bound
    greedy = colors.copy()
    uncolored = mask & ~seed
    while uncolored:
        v = _dsatur_order_pick(adj, greedy, uncolored, degrees)
        used = {greedy[u] for u in bits(adj[v]) if greedy[u] >= 0}
        c = 0
        while c in used:
            c += 1
        greedy[v] = c
        uncolored &= ~(1 << v)
    best_k = max(greedy, default=-1) + 1
    best = greedy
    if best_k == lb:
        return best

    def solve(uncolored, used_k):
        nonlocal best, best_k
        if used_k >= best_k:
            return
        if not uncolored:
            best = colors.copy()
            best_k = used_k
            return
        v = _dsatur_order_pick(adj, colors, uncolored, degrees)
        forbidden = {colors[u] for u in bits(adj[v]) if colors[u] >= 0}
        for c in range(used_k):
            if c in forbidden:
                continue
            colors[v] = c
            solve(uncolored & ~(1 << v), used_k)
            colors[v] = -1
        if used_k + 1 < best_k:
            colors[v] = used_k
            solve(uncolored & ~(1 << v), used_k + 1)
            colors[v] = -1

    solve(mask & ~seed, lb)
    return best


def chromatic_number(g: Graph, cap: int = DEFAULT_CAPS.coloring) -> int:
    coloring = exact_coloring(g, cap)
    return max(coloring) + 1 if coloring else 0


# -- odd holes and perfection ------------------------------------------


def _odd_holes(rows, mask):
    """Yield the vertex mask of every induced odd cycle of length >= 5 in the
    graph that adjacency rows induce on mask, each cycle exactly once.

    A hole is taken in one orientation: anchored at its smallest vertex low,
    entered through first, the smaller of low's two neighbours on it, and
    closed through the larger, a closer (a neighbour of low above first and
    not adjacent to first).  Its other vertices lie above low and miss low
    (far), so induced paths from first grow through far alone, candidates
    in ascending order.  Pruned, as they can close no hole: an anchor with
    fewer than two far vertices, an entry with no closer, and a path that
    leaves every closer adjacent to an interior vertex.
    """

    def extend(last, used, blocked, length):
        # blocked: vertices adjacent to an interior vertex before last
        row = rows[last]
        grown = blocked | row
        ends = row & closers & ~blocked if length >= 4 and not length & 1 else 0
        steps = row & far & ~blocked if closers & ~grown else 0
        todo = ends | steps
        while todo:
            bit = todo & -todo
            todo ^= bit
            if bit & ends:
                yield used | bit
            else:
                yield from extend(bit.bit_length() - 1, used | bit, grown, length + 1)

    above = mask
    while above.bit_count() >= 5:
        low = above & -above
        above ^= low
        near = rows[low.bit_length() - 1] & above
        far = above & ~near
        if far.bit_count() < 2:
            continue
        rest = near
        while rest:
            entry = rest & -rest
            rest ^= entry
            first = entry.bit_length() - 1
            closers = rest & ~rows[first]
            if closers:
                yield from extend(first, low | entry, 0, 2)


def find_odd_hole(g: Graph, cap: int = DEFAULT_CAPS.odd_hole) -> int | None:
    """Vertex bitmask of an induced odd cycle of length >= 5, or None."""
    return _first_odd_hole(g.adj, g.vertex_mask, cap)


def find_odd_antihole(g: Graph, cap: int = DEFAULT_CAPS.odd_hole) -> int | None:
    return _first_odd_hole(_co_rows(g.adj, g.vertex_mask), g.vertex_mask, cap)


def _first_odd_hole(rows, mask, cap):
    if mask.bit_count() > cap:
        raise CapacityError("find_odd_hole", mask.bit_count(), cap)
    return next(_odd_holes(rows, mask), None)


def is_perfect(g: Graph, cap: int = DEFAULT_CAPS.odd_hole) -> bool:
    """No odd hole and no odd antihole."""
    return is_perfect_induced(g, g.vertex_mask, cap)


def is_perfect_induced(g: Graph, mask: int, cap: int = DEFAULT_CAPS.odd_hole) -> bool:
    """Whether G[mask] has no odd hole and no odd antihole."""
    if mask & ~g.vertex_mask:
        raise IndexError("subset mask has bits outside the vertex range")
    return (_first_odd_hole(g.adj, mask, cap) is None
            and _first_odd_hole(_co_rows(g.adj, mask), mask, cap) is None)
