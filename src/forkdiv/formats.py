"""Graph serialisation: graph6, DIMACS edge lists, and plain edge lists.

graph6 here is the header-less variant: one size byte for n <= 62 and the
standard four-byte size ("~" plus 18 bits) for 63 <= n <= MAX_VERTICES,
so every Graph has a graph6 string.  Parsers validate hard and report
byte offsets; emitters are exact inverses on the supported range.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter

from .graph import MAX_VERTICES, Graph


class FormatError(ValueError):
    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


# graph6 byte -> its six bits, high bit first
_SIXES = {chr(v + 63): format(v, "06b") for v in range(64)}


@cache  # one getter per n in 1..MAX_VERTICES
def _grid(n: int):
    """Getter from "0" plus the pair stream to the n x n adjacency bits, row by row, each
    from vertex n-1 down; pair (i, j), i < j, is at 1 + j(j-1)/2 + i, the diagonal at 0."""
    at = [j * (j - 1) // 2 + 1 for j in range(n)]
    return itemgetter(*(at[v] + u if u < v else at[u] + v if u > v else 0
                        for v in range(n) for u in range(n - 1, -1, -1)))


def emit_graph6(g: Graph) -> str:
    n = g.n
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    # column-major upper triangle x(0,1), x(0,2), x(1,2), x(0,3), ...:
    # column j is the low j bits of adj[j], read from bit 0 up
    stream = "".join(format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    stream += "0" * (-len(stream) % 6)
    return head + "".join(chr(int(stream[k : k + 6], 2) + 63) for k in range(0, len(stream), 6))


def parse_graph6(line: str) -> Graph:
    if not line:
        raise FormatError("empty graph6 string", 0)
    head = 4 if line[0] == "~" else 1  # "~" opens the four-byte size header
    if len(line) < head:
        raise FormatError("truncated graph6 size header", 0)
    n = 0
    for ch in line[1:head] if head == 4 else line[0]:
        if ch not in _SIXES:
            raise FormatError(f"size byte {ch!r} outside graph6 range", 0)
        n = n << 6 | ord(ch) - 63
    if n > MAX_VERTICES:
        raise FormatError(f"graph6 sizes above {MAX_VERTICES} vertices are not supported", 0)
    need = (n * (n - 1) // 2 + 5) // 6
    body = line[head:]
    if len(body) != need:
        raise FormatError(
            f"graph6 body for n={n} needs {need} bytes, got {len(body)}", head
        )
    try:
        stream = "".join([_SIXES[ch] for ch in body])
    except KeyError as exc:
        ch = exc.args[0]  # the first byte outside the table
        raise FormatError(f"byte {ch!r} outside graph6 range", body.index(ch) + head) from None
    pairs = n * (n - 1) // 2
    if "1" in stream[pairs:]:
        raise FormatError("nonzero padding bits", len(line) - 1)
    grid = "".join(_grid(n)("0" + stream)) if n else ""
    return Graph(n, tuple(int(grid[v * n : v * n + n], 2) for v in range(n)))


def parse_graph6_lines(text: str) -> list[Graph]:
    out = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(parse_graph6(line))
        except FormatError as exc:
            raise FormatError(f"line {ln}: {exc}") from exc
    return out


def parse_dimacs(text: str) -> Graph:
    n = None
    declared_m = 0
    edges: list[tuple[int, int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {ln}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise FormatError(f"line {ln}: expected 'p edge <n> <m>'")
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(f"line {ln}: non-integer sizes") from None
            if n < 0 or declared_m < 0:
                raise FormatError(f"line {ln}: negative sizes")
            if n > MAX_VERTICES:  # refused before Graph.from_edges allocates n rows
                raise FormatError(f"line {ln}: vertex count {n} above {MAX_VERTICES}")
        elif parts[0] == "e":
            if n is None:
                raise FormatError(f"line {ln}: edge before problem line")
            if len(parts) != 3:
                raise FormatError(f"line {ln}: expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(f"line {ln}: non-integer endpoints") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise FormatError(f"line {ln}: endpoint outside 1..{n}")
            if u == v:
                raise FormatError(f"line {ln}: self-loop")
            edges.append((u - 1, v - 1))
        else:
            raise FormatError(f"line {ln}: unknown record {parts[0]!r}")
    if n is None:
        raise FormatError("missing problem line")
    return Graph.from_edges(n, edges)


def emit_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str, n: int | None = None) -> Graph:
    if n is not None and not 0 <= n <= MAX_VERTICES:  # refused before any row is built
        raise FormatError(f"declared size {n} outside 0..{MAX_VERTICES}")
    edges: list[tuple[int, int]] = []
    top = -1
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {ln}: expected two endpoints")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {ln}: non-integer endpoints") from None
        if u < 0 or v < 0:
            raise FormatError(f"line {ln}: negative vertex")
        if u == v:
            raise FormatError(f"line {ln}: self-loop")
        top = max(top, u, v)
        if top >= MAX_VERTICES:  # refused before Graph.from_edges allocates the rows
            raise FormatError(f"line {ln}: vertex {top} outside 0..{MAX_VERTICES - 1}")
        edges.append((u, v))
    size = n if n is not None else top + 1
    if top >= size:
        raise FormatError(f"vertex {top} outside declared size {size}")
    return Graph.from_edges(size, edges)


def emit_edgelist(g: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.edges())
