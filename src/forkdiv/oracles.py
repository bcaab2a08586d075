"""Exact NP-hard oracles sized for small verification corpora.

Colour classes are vertex masks throughout.  One value search and one
witness search serve every clique question, under unit weights or
nonnegative vertex weights alike: both bound a branch by the heaviest
weights of its greedy colour classes, summed, which is the class count
under unit weights, where no weight is read.  The exact colouring is a
clique-seeded saturation-degree (DSATUR) branch-and-bound over a list of
class masks, and odd holes are found by extending induced paths, each
hole once in one orientation, with anchors and entries that cannot close
a hole pruned.  Every witness is deterministic: ties break toward the
lexicographically smallest vertex set.
"""

from __future__ import annotations

from itertools import accumulate

from .graph import Graph, _co_rows, bits
from .limits import SEARCH_CAP, CapacityError, InvariantError


def _color_classes(adj, cand):
    """Greedy colour classes of cand as vertex masks, each grown from its
    lowest vertex; a clique meets every class at most once."""
    classes = []
    while cand:
        cls = 0
        avail = cand
        while avail:
            bit = avail & -avail
            cls |= bit
            avail &= ~adj[bit.bit_length() - 1] & ~bit
        classes.append(cls)
        cand ^= cls
    return classes


def _max_clique_size(adj, cand, w=None):
    """Largest weight of a clique within cand under the nonnegative weights
    w, unit weights when w is None (the empty clique weighs 0).

    The best starts at the greedy clique that keeps taking the highest
    candidate.  Each node colours its candidates greedily and branches from
    the last class down, highest vertex first, while the clique's weight plus
    the bound of the vertex's class can still beat the best.  A clique meets
    each class at most once, so classes 1..k bound it by the sum of their
    heaviest weights, which is k under unit weights; weights are read only
    when given."""
    best = 0
    rest = cand
    while rest:
        v = rest.bit_length() - 1
        best += 1 if w is None else w[v]
        rest &= adj[v]

    def expand(size, cand):
        nonlocal best
        if not cand:
            if size > best:
                best = size
            return
        classes = _color_classes(adj, cand)
        if w is not None:
            bound = list(accumulate((max(w[v] for v in bits(cls)) for cls in classes), initial=0))
        for k in range(len(classes), 0, -1):
            cls = classes[k - 1]
            reach = size + (k if w is None else bound[k])
            while cls:
                if reach <= best:
                    return
                v = cls.bit_length() - 1
                cls ^= 1 << v
                expand(size + (1 if w is None else w[v]), cand & adj[v])
                cand &= ~(1 << v)

    expand(0, cand)
    del expand  # a recursive closure is a reference cycle
    return best


def _max_clique(adj, mask, need, w=None):
    """The lexicographically first clique within mask whose weight under w
    (unit weights when None) reaches need, or None.

    Tries candidates in ascending order, each narrowing the rest to its later
    neighbours, and stops as soon as the weight reaches need, so the witness
    takes zero-weight vertices only ahead of the last one it needs.  A branch
    is pruned when its candidates weigh less than the clique still needs or
    when its colour classes do, each counting its heaviest weight (under
    unit weights, once the clique needs three or more vertices)."""

    def first(chosen, cand, need):
        if need <= 0:
            return chosen
        if w is None:
            avail = cand.bit_count()
            if avail < need or need > 2 and len(_color_classes(adj, cand)) < need:
                return None
        else:
            avail = sum(w[v] for v in bits(cand))
            if avail < need or sum(max(w[v] for v in bits(cls))
                                   for cls in _color_classes(adj, cand)) < need:
                return None
        while avail >= need:
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length() - 1
            step = 1 if w is None else w[v]
            avail -= step
            found = first(chosen | bit, cand & adj[v], need - step)
            if found is not None:
                return found
        return None

    found = first(0, mask, need)
    del first
    return found


def clique_number(g: Graph) -> int:
    return _max_clique_size(g.adj, g.vertex_mask)


def max_clique(g: Graph) -> int:
    """Lexicographically smallest maximum clique, as a bitmask."""
    return _max_clique(g.adj, g.vertex_mask, clique_number(g))


def independence_number(g: Graph) -> int:
    return _max_clique_size(_co_rows(g.adj, g.vertex_mask), g.vertex_mask)


def _check_weights(g, weights):
    weights = tuple(weights)
    if not all(isinstance(w, int) and not isinstance(w, bool) for w in weights):
        raise ValueError("weights must be integers")
    if len(weights) != g.n:
        raise ValueError(f"expected {g.n} weights, got {len(weights)}")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    return weights


def max_weight_clique(g: Graph, weights) -> tuple[int, int]:
    """(best total weight, witness bitmask): one value search, then the
    lexicographically first clique reaching that weight, which may include
    zero-weight vertices; both prune by weighted colour classes."""
    w = _check_weights(g, weights)
    value = _max_clique_size(g.adj, g.vertex_mask, w)
    return value, _max_clique(g.adj, g.vertex_mask, value, w)


# -- colouring --------------------------------------------------------


def exact_coloring(g: Graph) -> tuple[int, ...]:
    """An optimal proper colouring with colours 0..chi-1.

    Clique-seeded saturation-degree branch and bound; deterministic.
    """
    return tuple(_exact_coloring(g.adj, g.vertex_mask)[0])


def _exact_coloring(adj, mask, omega=None):
    """exact_coloring of the subgraph induced on mask as a list over all rows
    of adj (-1 outside mask), and its clique number, the seed clique's size;
    a clique number omega known to the caller spares the size search.

    DSATUR branch and bound on colour classes kept as vertex masks, with
    one class opened by each vertex of the lexicographically first maximum
    clique.  Each step colours the uncoloured vertex that meets the most
    classes (its saturation), then has the highest degree within mask, then
    the lowest index; it tries every class the vertex does not meet, then a
    new one while that can still beat the best.  The first descent is the
    greedy colouring, which sets the first bound."""
    if mask.bit_count() > SEARCH_CAP:
        raise CapacityError("exact_coloring", mask.bit_count(), SEARCH_CAP)
    adj = [row & mask for row in adj]
    degrees = [row.bit_count() for row in adj]

    def solve(uncolored):
        nonlocal best
        if not uncolored:
            best = classes.copy()
            return
        v = top_key = -1
        for u in bits(uncolored):  # ascending, so a tie keeps the lowest index
            key = degrees[u]  # below SEARCH_CAP, so one more class met outweighs any degree
            for cls in classes:
                if cls & adj[u]:
                    key += SEARCH_CAP
            if key > top_key:
                v, top_key = u, key
        bit = 1 << v
        used_k = len(classes)
        for c in range(used_k):
            if used_k >= len(best):
                return
            if not classes[c] & adj[v]:
                classes[c] |= bit
                solve(uncolored ^ bit)
                classes[c] ^= bit
        if used_k + 1 < len(best):
            classes.append(bit)
            solve(uncolored ^ bit)
            classes.pop()

    if omega is None:
        omega = _max_clique_size(adj, mask)
    seed = _max_clique(adj, mask, omega)
    if seed is None:
        raise InvariantError(f"no clique of size {omega} within the mask")
    classes = [1 << v for v in bits(seed)]
    best = [0] * (mask.bit_count() + 1)  # more classes than any colouring
    solve(mask & ~seed)
    del solve
    colors = [-1] * len(adj)
    for c, cls in enumerate(best):
        for v in bits(cls):
            colors[v] = c
    return colors, seed.bit_count()


def chromatic_number(g: Graph) -> int:
    coloring = exact_coloring(g)
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
    try:
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
    finally:
        del extend  # also when a caller drops the generator after one hole


def find_odd_hole(g: Graph) -> int | None:
    """Vertex bitmask of an induced odd cycle of length >= 5, or None."""
    return _first_odd_hole(g.adj, g.vertex_mask)


def find_odd_antihole(g: Graph) -> int | None:
    return _first_odd_hole(_co_rows(g.adj, g.vertex_mask), g.vertex_mask)


def _first_odd_hole(rows, mask):
    if mask.bit_count() > SEARCH_CAP:
        raise CapacityError("find_odd_hole", mask.bit_count(), SEARCH_CAP)
    return next(_odd_holes(rows, mask), None)


def is_perfect(g: Graph) -> bool:
    """No odd hole and no odd antihole."""
    return is_perfect_induced(g, g.vertex_mask)


def is_perfect_induced(g: Graph, mask: int) -> bool:
    """Whether G[mask] has no odd hole and no odd antihole."""
    if mask & ~g.vertex_mask:
        raise IndexError("subset mask has bits outside the vertex range")
    return mask.bit_count() < 5 or (  # fewer vertices hold no odd hole or antihole
        _first_odd_hole(g.adj, mask) is None
        and _first_odd_hole(_co_rows(g.adj, mask), mask) is None)
