"""Reduction pipelines and parameter stats.

A pipeline is an ordered list of rule phases (``fe``, ``dp``, ``se``,
``md``, ``lp``) run by one of the two engines, optionally looped until a
whole pass deletes nothing.  Both engines run the edge rules (``dp`` and
``se``) and ``md`` through the same predicates of :mod:`rules`.
Demand-changing rules (``fe``) invalidate the engines' cached state, so
the generic loop re-extracts the surviving subinstance before every phase;
the common ``dp,md`` loop is delegated to the engines' own kernelize
loops, which maintain state incrementally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graphparams import (
    dilworth_number,
    incidence_graph,
    matching_number,
    neighborhood_diversity,
)
from .instance import Hypergraph, instance_size, validate_feasibility
from .parallel import par_kernelize, par_reduce_edges, par_reduce_vertices
from .report import KernelReport, KernelRun
from .rules import ActiveInstance, exact_oracle, fe_pass, lp_pass, pushed_max_oracle
from .sequential import init_state, seq_reduce_edges, seq_reduce_vertices, seq_kernelize
from .bitmatrix import incidence_matrix

PHASES = ("fe", "dp", "se", "md", "lp")
ENGINES = ("sequential", "parallel")
LP_ORACLES = {"exact": exact_oracle, "pushed-max": pushed_max_oracle}


@dataclass(frozen=True)
class PipelineSpec:
    """Which phases to run, on which engine, and whether to loop.

    ``workers`` is validated but selects no code path: every worker count
    gives identical results.
    """

    phases: tuple[str, ...]
    engine: str = "sequential"
    loop: bool = False
    lp_oracle: str = "exact"
    workers: int = 1

    def __post_init__(self):
        if not self.phases:
            raise ValueError("pipeline needs at least one phase")
        for p in self.phases:
            if p not in PHASES:
                raise ValueError(f"unknown phase {p!r}; expected one of {PHASES}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.lp_oracle not in LP_ORACLES:
            raise ValueError(f"unknown lp oracle {self.lp_oracle!r}")
        if self.workers < 1:
            raise ValueError("worker count must be positive")


def _edge_phase(active: ActiveInstance, spec: PipelineSpec, rule: str) -> int:
    sub, _, edge_ids = active.extract()
    if spec.engine == "parallel":
        keep = par_reduce_edges(incidence_matrix(sub), sub.demand, rule=rule)
    else:
        state = init_state(sub)
        seq_reduce_edges(state, rule)
        keep = state.edge_alive
    deleted = 0
    for kept, i in zip(keep, edge_ids):
        if not kept:
            active.edge_alive[i - 1] = False
            deleted += 1
    return deleted


def _vertex_phase(active: ActiveInstance, spec: PipelineSpec) -> int:
    sub, vertex_ids, _ = active.extract()
    if spec.engine == "parallel":
        keep = par_reduce_vertices(incidence_matrix(sub), sub.demand)
    else:
        state = init_state(sub)
        seq_reduce_vertices(state)
        keep = state.vertex_alive
    deleted = 0
    for kept, j in zip(keep, vertex_ids):
        if not kept:
            active.vertex_alive[j - 1] = False
            deleted += 1
    return deleted


def run_pipeline(
    h: Hypergraph, spec: PipelineSpec, *, compute_bounds: bool = False
) -> tuple[Hypergraph, KernelReport]:
    """Run the phases in order (looped to joint fixpoint when flagged).

    An infeasible input, or infeasibility detected mid-pipeline by the
    full-edge cascade, halts the run with ``infeasible=True`` in the
    report.  Bound fields are filled only on request: the Dilworth number
    computation is exponential-free but far from cheap.
    """
    report = KernelReport(n_before=h.n, m_before=h.m, size_before=instance_size(h))
    if compute_bounds:
        inc = incidence_graph(h).graph
        report.bound_2_alpha_nabla = 2 * h.alpha * dilworth_number(inc)
        report.matching_bound = matching_number(inc)

    feasibility = validate_feasibility(h)
    if not feasibility:
        report.infeasible = True
        report.n_after, report.m_after, report.size_after = h.n, h.m, instance_size(h)
        return h, report

    # Pure dp/md loops run on the engines' own incremental loops.
    if spec.loop and tuple(spec.phases) == ("dp", "md"):
        runner = par_kernelize if spec.engine == "parallel" else seq_kernelize
        run: KernelRun = runner(h)
        report.rounds = run.report.rounds
        report.deleted_by_rule = run.report.deleted_by_rule
        report.wall_times_ms.update(run.report.wall_times_ms)
        report.n_after = run.hypergraph.n
        report.m_after = run.hypergraph.m
        report.size_after = run.report.size_after
        return run.hypergraph, report

    active = ActiveInstance(h)
    oracle = LP_ORACLES[spec.lp_oracle]
    while True:
        report.rounds += 1
        deletions = 0
        for phase in spec.phases:
            phase_started = time.perf_counter()
            if phase == "fe":
                outcome = fe_pass(active)
                report.budget_delta += outcome.budget_delta
                report.deleted_by_rule["fe"] += len(outcome.deleted_edges)
                deletions += len(outcome.deleted_edges) + len(outcome.deleted_vertices)
                if outcome.infeasible:
                    report.infeasible = True
            elif phase in ("dp", "se"):
                dropped = _edge_phase(active, spec, phase)
                report.deleted_by_rule[phase] += dropped
                deletions += dropped
            elif phase == "md":
                dropped = _vertex_phase(active, spec)
                report.deleted_by_rule["md"] += dropped
                deletions += dropped
            elif phase == "lp":
                removed = lp_pass(active, oracle)
                report.deleted_by_rule["lp"] += len(removed)
                deletions += len(removed)
            elapsed = (time.perf_counter() - phase_started) * 1e3
            report.wall_times_ms[phase] = report.wall_times_ms.get(phase, 0.0) + elapsed
            if report.infeasible:
                break
        if report.infeasible or not spec.loop or deletions == 0:
            break

    reduced, _, _ = active.extract()
    if h.budget is not None:
        reduced = Hypergraph(reduced.n, reduced.edges, reduced.demand, h.budget - report.budget_delta)
        if reduced.budget < 0:
            report.infeasible = True
    report.n_after = reduced.n
    report.m_after = reduced.m
    report.size_after = instance_size(reduced)
    return reduced, report


def compute_stats(h: Hypergraph, which: set[str]) -> dict[str, int]:
    """Requested parameters of the instance's incidence graph.

    ``which`` is a subset of {"dilworth", "diversity", "matching", "size"}.
    """
    known = {"dilworth", "diversity", "matching", "size"}
    unknown = which - known
    if unknown:
        raise ValueError(f"unknown stats {sorted(unknown)}; expected subset of {sorted(known)}")
    out: dict[str, int] = {}
    if "size" in which:
        out["size"] = instance_size(h)
    if which & {"dilworth", "diversity", "matching"}:
        g = incidence_graph(h).graph
        if "dilworth" in which:
            out["dilworth"] = dilworth_number(g)
        if "diversity" in which:
            out["diversity"] = neighborhood_diversity(g)
        if "matching" in which:
            out["matching"] = matching_number(g)
    return out
