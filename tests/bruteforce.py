"""Independent brute-force oracles the tests compare production code against.

Everything here computes by raw enumeration with no shared machinery: subset
scans and permutation sweeps only.  Keep it that way; the point is a second
route to each answer.
"""

from functools import lru_cache
from itertools import combinations, permutations

from forkdiv.graph import Graph, bits, mask_of
from forkdiv.limits import CapacityError


def omega(g: Graph) -> int:
    best = 0
    for k in range(g.n, 0, -1):
        for sub in combinations(range(g.n), k):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return k
    return best


def max_clique(g: Graph) -> tuple[int, ...]:
    """The lexicographically least clique of maximum size."""
    for k in range(g.n, 0, -1):
        for sub in combinations(range(g.n), k):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return sub
    return ()


def alpha(g: Graph) -> int:
    best = 0
    for k in range(g.n, 0, -1):
        for sub in combinations(range(g.n), k):
            if not any(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return k
    return best


def max_weight_clique(g: Graph, w) -> int:
    best = 0
    for k in range(g.n + 1):
        for sub in combinations(range(g.n), k):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                best = max(best, sum(w[v] for v in sub))
    return best


def max_weight_clique_witness(g: Graph, w) -> tuple[int, ...]:
    """The lexicographically least clique of maximum total weight, as a
    sorted tuple (the empty clique when every weight is zero)."""
    cliques = [sub for k in range(g.n + 1) for sub in combinations(range(g.n), k)
               if all(g.has_edge(u, v) for u, v in combinations(sub, 2))]
    best = max(sum(w[v] for v in sub) for sub in cliques)
    return min(sub for sub in cliques if sum(w[v] for v in sub) == best)


def omega_table(g: Graph) -> list[int]:
    """omega of every induced submask, by deletion/contraction recursion."""
    table = [0] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        v = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        table[mask] = max(table[rest], 1 + table[mask & g.adj[v]])
    return table


def chi_table(g: Graph) -> list[int]:
    """chi of every induced submask: peel one independent set containing the
    lowest vertex at a time."""
    full = 1 << g.n
    table = [0] * full
    for mask in range(1, full):
        v = (mask & -mask).bit_length() - 1
        best = g.n + 1
        # all independent subsets of mask that contain v
        stack = [(1 << v, mask & ~g.adj[v] & ~((1 << (v + 1)) - 1))]
        while stack:
            s, ext = stack.pop()
            best = min(best, table[mask & ~s] + 1)
            for u in bits(ext):
                stack.append((s | 1 << u, ext & ~g.adj[u] & ~((1 << (u + 1)) - 1)))
        table[mask] = best
    return table


def chi(g: Graph) -> int:
    return chi_table(g)[(1 << g.n) - 1]


def perfect_table(g: Graph) -> list[bool]:
    """Perfection of every induced submask via the chi = omega definition,
    no odd-hole machinery involved."""
    om, ch = omega_table(g), chi_table(g)
    full = 1 << g.n
    ok = [om[m] == ch[m] for m in range(full)]
    out = [True] * full
    for mask in range(full):
        sub = mask
        while True:
            if not ok[sub]:
                out[mask] = False
                break
            if sub == 0:
                break
            sub = (sub - 1) & mask
    return out


def is_perfect(g: Graph) -> bool:
    return perfect_table(g)[(1 << g.n) - 1]


def odd_holes(g: Graph) -> list[tuple[int, ...]]:
    """Every vertex set inducing an odd cycle of length >= 5."""
    out = []
    for k in range(5, g.n + 1, 2):
        for sub in combinations(range(g.n), k):
            degs = [sum(g.has_edge(u, v) for v in sub if v != u) for u in sub]
            if any(d != 2 for d in degs):
                continue
            sub_g, _ = g.induced(mask_of(sub))
            if sub_g.is_connected():
                out.append(sub)
    return out


def find_odd_hole_subsets(g: Graph, cap: int = 10) -> int | None:
    """First odd hole in (size, lexicographic) order of vertex subsets."""
    if g.n > cap:
        raise CapacityError("find_odd_hole_subsets", g.n, cap)
    for size in range(5, g.n + 1, 2):
        for combo in combinations(range(g.n), size):
            m = mask_of(combo)
            if all((g.adj[v] & m).bit_count() == 2 for v in combo):
                sub, _ = g.induced(m)
                if sub.is_connected():
                    return m
    return None


def canonical(g: Graph) -> tuple:
    """Lexicographically least upper-triangle bit tuple over all relabelings.

    The relabeling that puts vertex q[i] at position i reads bit (i, j) as
    the edge q[i]-q[j], so no relabeled graph is built."""
    adj = g.adj
    pairs = [(i, j) for j in range(1, g.n) for i in range(j)]
    return (g.n, min(tuple([adj[q[i]] >> q[j] & 1 for i, j in pairs])
                     for q in permutations(range(g.n))))


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every permutation p (vertex v to p[v]) that maps edges onto edges and
    non-edges onto non-edges, found by trying all n! of them."""
    pairs = list(combinations(range(g.n), 2))
    return [p for p in permutations(range(g.n))
            if all(g.has_edge(p[u], p[v]) == g.has_edge(u, v) for u, v in pairs)]


def _embeddings(host: Graph, pat: Graph):
    for sub in combinations(range(host.n), pat.n):
        for perm in permutations(sub):
            if all(
                pat.has_edge(u, v) == host.has_edge(perm[u], perm[v])
                for u, v in combinations(range(pat.n), 2)
            ):
                yield perm


def induced_embeddings(host: Graph, pat: Graph) -> set[tuple[int, ...]]:
    return set(_embeddings(host, pat))


def has_induced(host: Graph, pat: Graph) -> bool:
    return next(_embeddings(host, pat), None) is not None


def homogeneous_sets(g: Graph) -> list[int]:
    out = []
    for size in range(2, g.n):
        for sub in combinations(range(g.n), size):
            s = mask_of(sub)
            if all(
                (g.adj[v] & s) in (0, s)
                for v in range(g.n)
                if not s >> v & 1
            ):
                out.append(s)
    return out


def has_division(g: Graph) -> bool:
    perf = perfect_table(g)
    om = omega_table(g)
    full = (1 << g.n) - 1
    if g.n == 0:
        return True
    for a in range(full + 1):
        if perf[a] and om[full & ~a] < om[full]:
            return True
    return False


def max_weight_clique_table(g: Graph, w) -> list[int]:
    """Max clique weight of every induced submask, by deletion recursion on
    the lowest vertex: leave it out, or take it with its neighbours."""
    table = [0] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        v = (mask & -mask).bit_length() - 1
        table[mask] = max(table[mask & (mask - 1)], w[v] + table[mask & g.adj[v]])
    return table


@lru_cache(maxsize=256)
def _perfect_sets(g: Graph) -> tuple[bool, ...]:
    # one graph is checked under many weightings; graphs are hashable values
    return tuple(perfect_table(g))


def has_weighted_division(g: Graph, w) -> bool:
    """Whether some perfect A leaves a smaller max clique weight on V - A."""
    perf = _perfect_sets(g)
    heaviest = max_weight_clique_table(g, w)
    full = (1 << g.n) - 1
    return any(perf[a] and heaviest[full & ~a] < heaviest[full] for a in range(full + 1))


def is_perfectly_divisible(g: Graph) -> bool:
    perf = perfect_table(g)
    om = omega_table(g)
    for mask in range(1 << g.n):
        if mask == 0:
            continue
        found = False
        a = mask
        while True:
            if perf[a] and om[mask & ~a] < om[mask]:
                found = True
                break
            if a == 0:
                break
            a = (a - 1) & mask
        if not found:
            return False
    return True
