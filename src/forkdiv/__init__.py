"""Constructive structure theory for fork-free graph classes.

The package splits into exact oracles (clique, colouring, odd holes),
induced-pattern machinery, homogeneous-set decomposition, perfect-division
engines with a divisibility-based colouring bound, and an exhaustive
small-graph harness that verifies the structure theorems.
"""

from .decomposition import find_homogeneous_set, is_homogeneous_set, mixed_vertices
from .divisibility import (
    ColoringCertificate,
    Division,
    color_by_division,
    divide_weighted,
    is_perfectly_divisible_exact,
    line_graph_division,
    perfect_division,
)
from .formats import (
    FormatError,
    emit_dimacs,
    emit_edgelist,
    emit_graph6,
    parse_dimacs,
    parse_edgelist,
    parse_graph6,
    parse_graph6_lines,
)
from .graph import Graph, are_isomorphic, bits, canonical_form, mask_of
from .harness import (
    CHECKS,
    TheoremCheck,
    TheoremReport,
    enumerate_nonisomorphic,
    graphs_up_to,
    random_gnp,
    run_all,
    run_check,
)
from .limits import CapacityError, InvariantError
from .oracles import (
    chromatic_number,
    clique_number,
    exact_coloring,
    find_odd_antihole,
    find_odd_hole,
    independence_number,
    is_perfect,
    max_clique,
    max_weight_clique,
)
from .patterns import (
    CLASS_BOUNDS,
    ClassReport,
    PatternWitness,
    classify,
    claw_center,
    find_induced,
    has_induced,
    is_free,
    iter_induced,
    pattern,
    pattern_names,
)

__version__ = "0.1.0"

__all__ = [
    "CHECKS",
    "CLASS_BOUNDS",
    "CapacityError",
    "ClassReport",
    "ColoringCertificate",
    "Division",
    "FormatError",
    "Graph",
    "InvariantError",
    "PatternWitness",
    "TheoremCheck",
    "TheoremReport",
    "are_isomorphic",
    "bits",
    "canonical_form",
    "chromatic_number",
    "classify",
    "claw_center",
    "clique_number",
    "color_by_division",
    "divide_weighted",
    "emit_dimacs",
    "emit_edgelist",
    "emit_graph6",
    "enumerate_nonisomorphic",
    "exact_coloring",
    "find_homogeneous_set",
    "find_induced",
    "find_odd_antihole",
    "find_odd_hole",
    "graphs_up_to",
    "has_induced",
    "independence_number",
    "is_free",
    "is_homogeneous_set",
    "is_perfect",
    "is_perfectly_divisible_exact",
    "iter_induced",
    "line_graph_division",
    "mask_of",
    "max_clique",
    "max_weight_clique",
    "mixed_vertices",
    "parse_dimacs",
    "parse_edgelist",
    "parse_graph6",
    "parse_graph6_lines",
    "pattern",
    "pattern_names",
    "perfect_division",
    "random_gnp",
    "run_all",
    "run_check",
]
