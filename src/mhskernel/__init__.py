"""Kernelization toolkit for Multiple Hitting Set.

Data reduction rules (full edge, superedge, demand pushing, multiple
domination, pushed-demand lower bound) behind two provably equivalent
engines, the incidence-graph parameters that bound their output size and
round count, and an exact branch-and-bound solver for ground truth.
"""

from .bitmatrix import IncidenceMatrix, incidence_matrix
from .generate import generate_random, ingest_response_matrix
from .graphparams import compute_stats
from .instance import (
    FeasibilityReport,
    Hypergraph,
    InstanceError,
    instance_size,
    parse_instance,
    serialize_instance,
    validate_feasibility,
)
from .parallel import par_reduce_edges, par_reduce_vertices
from .pipeline import PipelineSpec, par_kernelize, run_pipeline, seq_kernelize
from .report import KernelReport, KernelRun
from .rules import (
    ActiveInstance,
    RuleOutcome,
    build_pushed_subinstance,
    exact_oracle,
    lp_rule_applicable,
    pushed_max_oracle,
)
from .sequential import ReductionState, init_state, seq_reduce_edges, seq_reduce_vertices
from .solver import Solution, SolveStatus, solve_opt, verify_solution

__all__ = [
    "ActiveInstance",
    "FeasibilityReport",
    "Hypergraph",
    "IncidenceMatrix",
    "InstanceError",
    "KernelReport",
    "KernelRun",
    "PipelineSpec",
    "ReductionState",
    "RuleOutcome",
    "Solution",
    "SolveStatus",
    "build_pushed_subinstance",
    "compute_stats",
    "exact_oracle",
    "generate_random",
    "incidence_matrix",
    "ingest_response_matrix",
    "init_state",
    "instance_size",
    "lp_rule_applicable",
    "par_kernelize",
    "par_reduce_edges",
    "par_reduce_vertices",
    "parse_instance",
    "pushed_max_oracle",
    "run_pipeline",
    "seq_kernelize",
    "seq_reduce_edges",
    "seq_reduce_vertices",
    "serialize_instance",
    "solve_opt",
    "validate_feasibility",
    "verify_solution",
]

__version__ = "0.1.0"
