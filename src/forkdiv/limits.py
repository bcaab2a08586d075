"""Search caps and the error types shared across the package.

Every exponential search in the package refuses inputs beyond a fixed
vertex cap instead of silently running forever; there is no per-call
override.  The caps are sized for the verification corpora (graphs up to
8 vertices, line graphs up to 15).  SEARCH_CAP bounds the odd-hole,
colouring and submask-table searches, so a table has at most 65,536
entries.
"""

CANONICAL_CAP = 10
ENUMERATION_CAP = 8
SEARCH_CAP = 16


class CapacityError(RuntimeError):
    """An input exceeded the vertex cap of an exponential search."""

    def __init__(self, operation, n, cap):
        self.operation = operation
        self.n = n
        self.cap = cap
        super().__init__(f"{operation}: graph has {n} vertices, cap is {cap}")


class InvariantError(RuntimeError):
    """An internally constructed certificate failed its oracle re-check.

    This is always a bug, never a property of the input; the message carries
    enough detail to reproduce.
    """
