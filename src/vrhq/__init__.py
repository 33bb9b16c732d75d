"""Connectivity lower bounds for Vietoris-Rips complexes of hypercube graphs.

The bound comes from a counting estimate on total domination numbers of the
distance->=r+1 graph on Q_n; this package evaluates it exactly at any size
and verifies every ingredient computationally at desk scale: exact total
domination numbers, Vietoris-Rips complex construction, simplicial
homology over GF(2) and Z, and cross-polytope witness certificates.

`import vrhq` loads no layer: each export, and each layer module, is
imported on its first access (PEP 562), so a CLI run loads only the layers
its subcommand calls.
"""

__version__ = "0.1.0"

# the layer module that defines each export, in the order of __all__
_EXPORTS = {
    "bounds": ("ExactRatio", "alpha", "connectivity_lower_bound",
               "consistency_check_2r", "counterexample_scan", "grid_table",
               "reference_table", "tail_degree"),
    "complexes": ("SimplicialComplex", "WitnessReport", "cross_polytope_witness_check",
                  "fundamental_cycle", "parse_complex", "read_complex_file",
                  "vietoris_rips", "write_complex_file"),
    "domination": ("DominationResult", "exact_gamma_t", "gamma_t_exhaustive",
                   "greedy_upper_bound", "is_total_dominating", "trivial_lower_bound"),
    "homology": ("BettiProfile", "BoundaryMatrix", "betti_gf2", "cycle_is_gf2_boundary",
                 "reduced_homology", "smith_normal_form"),
    "hypercube": ("Graph", "build_hamming_graph", "hamming_distance", "read_dimacs",
                  "vertex_transitive"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = {*_EXPORTS, "bitops", "cli", "errors", "render"}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = importlib.import_module(f".{module}", __name__)
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
