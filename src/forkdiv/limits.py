"""Search caps and the error types shared across the package.

Three fixed vertex caps, sized for the verification corpora (graphs up to
9 vertices, line graphs up to 15), with no per-call override: CANONICAL_CAP
for canonical labelling and isomorphism, ENUMERATION_CAP for enumeration,
and SEARCH_CAP for the odd-hole and exact-colouring searches and the
odd-hole table of exact divisibility (at most 65,536 entries).  The clique
value and witness searches, unit-weight or weighted, and with them the
independence number, are uncapped, and so are `classify` and
`oracle omega|alpha`.
"""

CANONICAL_CAP = 10
ENUMERATION_CAP = 9
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
