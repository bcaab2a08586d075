"""Search caps and the error types shared across the package.

Every exponential search in the package takes an explicit vertex cap and
refuses inputs beyond it instead of silently running forever.  The defaults
are sized for the verification corpora (graphs up to 8 vertices, line
graphs up to 15).  One cap of 16 bounds the odd-hole, colouring and
submask-table searches, so a table has at most 65,536 entries.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Caps:
    """Default vertex caps for the exponential searches."""

    canonical: int = 10
    coloring: int = 16
    odd_hole: int = 16
    submask_tables: int = 16
    enumeration: int = 8


DEFAULT_CAPS = Caps()


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
