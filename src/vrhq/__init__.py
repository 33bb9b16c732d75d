"""Connectivity lower bounds for Vietoris-Rips complexes of hypercube graphs.

The bound comes from a counting estimate on total domination numbers of the
distance->=r+1 graph on Q_n; this package evaluates it exactly at any size
and verifies every ingredient computationally at desk scale: exact total
domination numbers, Vietoris-Rips complex construction, simplicial
homology over GF(2) and Z, and cross-polytope witness certificates.
"""

__version__ = "0.1.0"

from .bounds import (ExactRatio, alpha, connectivity_lower_bound,
                     consistency_check_2r, counterexample_scan, grid_table,
                     reference_table, tail_degree)
from .complexes import (SimplicialComplex, WitnessReport,
                        cross_polytope_witness_check, fundamental_cycle,
                        parse_complex, read_complex_file, vietoris_rips,
                        write_complex_file)
from .domination import (DominationResult, exact_gamma_t, gamma_t_exhaustive,
                         greedy_upper_bound, is_total_dominating,
                         trivial_lower_bound)
from .homology import (BettiProfile, BoundaryMatrix, betti_gf2,
                       boundary_matrix, cycle_is_gf2_boundary,
                       reduced_homology, smith_normal_form)
from .hypercube import (Graph, build_hamming_graph, hamming_distance,
                        read_dimacs, vertex_transitive)

__all__ = [
    "ExactRatio", "alpha", "connectivity_lower_bound",
    "consistency_check_2r", "counterexample_scan", "grid_table",
    "reference_table", "tail_degree",
    "SimplicialComplex", "WitnessReport", "cross_polytope_witness_check",
    "fundamental_cycle", "parse_complex", "read_complex_file",
    "vietoris_rips", "write_complex_file",
    "DominationResult", "exact_gamma_t", "gamma_t_exhaustive",
    "greedy_upper_bound", "is_total_dominating", "trivial_lower_bound",
    "BettiProfile", "BoundaryMatrix", "betti_gf2", "boundary_matrix",
    "cycle_is_gf2_boundary", "reduced_homology", "smith_normal_form",
    "Graph", "build_hamming_graph", "hamming_distance", "read_dimacs",
    "vertex_transitive",
]
