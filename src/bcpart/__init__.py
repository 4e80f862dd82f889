"""Rooted bi-connected partitioning under a size cap.

Exposes the graph model, the randomized ear-growth constructor, the
regrow-based local search, feasibility checking with an exact small-case
oracle, known-optimum instance generation, and a batch bench harness.
"""

from .bench import BenchRow, CSV_HEADER, rows_to_csv, run_bench
from .generate import (GenConfig, GeneratedInstance, GenerationError,
                       certificate_solution, generate_instance, reduce_mpgsd_star)
from .graph import (Graph, Instance, biconnected_components, build_graph, disc_radius,
                    instance_from_json, instance_to_json, is_biconnected, load_instance,
                    save_instance, unit_disc_graph)
from .growth import grow, init_growth
from .local_search import GROW_N, GROW_R, SearchStats, local_search
from .solver import (Solution, SolverConfig, generate_solution, load_solution,
                     objective, save_solution, solution_from_json, solution_to_json)
from .verify import VerifyReport, Violation, brute_force_optimum, verify_solution

__version__ = "0.1.0"

__all__ = [
    "BenchRow", "CSV_HEADER", "rows_to_csv", "run_bench",
    "GenConfig", "GeneratedInstance", "GenerationError",
    "certificate_solution", "generate_instance", "reduce_mpgsd_star",
    "Graph", "Instance", "biconnected_components",
    "build_graph", "disc_radius", "instance_from_json", "instance_to_json",
    "is_biconnected", "load_instance", "save_instance", "unit_disc_graph",
    "grow", "init_growth",
    "GROW_N", "GROW_R", "SearchStats", "local_search",
    "Solution", "SolverConfig", "generate_solution", "load_solution",
    "objective", "save_solution", "solution_from_json", "solution_to_json",
    "VerifyReport", "Violation", "brute_force_optimum", "verify_solution",
    "__version__",
]
