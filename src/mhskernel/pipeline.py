"""Reduction pipelines and parameter stats.

A pipeline is an ordered list of rule phases (``fe``, ``dp``, ``se``,
``md``, ``lp``) run by one of the two engines, optionally looped until a
whole pass deletes nothing.  :func:`_reduce` is the only reduction loop;
every phase order and both engines run through it on one
:class:`rules.ActiveInstance`, and :func:`seq_kernelize` and
:func:`par_kernelize` are fixed specs of it.  Both engines run the edge
rules (``dp`` and ``se``) and ``md`` through the same predicates of
:mod:`rules`:

* the parallel engine extracts the alive subinstance and builds its
  incidence matrix for each such phase;
* the sequential engine keeps one :class:`sequential.ReductionState`
  across phases and rounds, built when first needed and discarded only
  after ``fe`` or ``lp`` deleted something, since those rules do not
  update its counts.
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
from .parallel import par_reduce_edges, par_reduce_vertices
from .report import KernelReport, KernelRun
from .rules import ActiveInstance, exact_oracle, fe_pass, lp_pass, pushed_max_oracle
from .sequential import init_state, seq_reduce_edges, seq_reduce_vertices
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


def _par_phase(active: ActiveInstance, phase: str) -> int:
    """One parallel-engine ``dp``, ``se`` or ``md`` phase on the compacted
    alive subinstance; returns the deletion count."""
    sub, vertex_ids, edge_ids = active.extract()
    matrix = incidence_matrix(sub)
    if phase == "md":
        keep, ids, alive = par_reduce_vertices(matrix, sub.demand), vertex_ids, active.vertex_alive
    else:
        keep, ids, alive = par_reduce_edges(matrix, sub.demand, rule=phase), edge_ids, active.edge_alive
    deleted = 0
    for kept, k in zip(keep, ids):
        if not kept:
            alive[k - 1] = False
            deleted += 1
    return deleted


def _reduce(h: Hypergraph, spec: PipelineSpec, report: KernelReport) -> ActiveInstance:
    """Run the phases of ``spec`` on a feasible ``h`` (looped to joint
    fixpoint when flagged), recording rounds, deletions, budget delta,
    infeasibility and per-phase wall times in ``report``; returns the
    overlay of the survivors."""
    active = ActiveInstance(h)
    oracle = LP_ORACLES[spec.lp_oracle]
    state = None
    while True:
        report.rounds += 1
        deletions = 0
        for phase in spec.phases:
            phase_started = time.perf_counter()
            if phase == "fe":
                outcome = fe_pass(active)
                report.budget_delta += outcome.budget_delta
                report.infeasible = outcome.infeasible
                # fe deletes vertices only together with an edge, so the
                # edge count alone tells whether anything was deleted.
                dropped = len(outcome.deleted_edges)
                deletions += len(outcome.deleted_vertices)
            elif phase == "lp":
                dropped = len(lp_pass(active, oracle))
            elif spec.engine == "parallel":
                dropped = _par_phase(active, phase)
            else:
                if state is None:
                    state = init_state(h, active)
                dropped = seq_reduce_vertices(state) if phase == "md" else seq_reduce_edges(state, phase)
            if phase in ("fe", "lp") and dropped:
                state = None  # neither rule updates the counts
            report.deleted_by_rule[phase] += dropped
            deletions += dropped
            elapsed = (time.perf_counter() - phase_started) * 1e3
            report.wall_times_ms[phase] = report.wall_times_ms.get(phase, 0.0) + elapsed
            if report.infeasible:
                break
        if report.infeasible or not spec.loop or deletions == 0:
            return active


def _record_after(report: KernelReport, reduced: Hypergraph) -> None:
    report.n_after = reduced.n
    report.m_after = reduced.m
    report.size_after = instance_size(reduced)


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

    if not validate_feasibility(h):
        report.infeasible = True
        _record_after(report, h)
        return h, report

    reduced, _, _ = _reduce(h, spec, report).extract()
    if h.budget is not None:
        reduced = Hypergraph(reduced.n, reduced.edges, reduced.demand, h.budget - report.budget_delta)
        if reduced.budget < 0:
            report.infeasible = True
    _record_after(report, reduced)
    return reduced, report


def _kernelize(h: Hypergraph, spec: PipelineSpec) -> KernelRun:
    check = validate_feasibility(h)
    if not check:
        raise ValueError(f"instance is infeasible: {check.reason}")
    report = KernelReport(n_before=h.n, m_before=h.m, size_before=instance_size(h))
    reduced, vertex_ids, edge_ids = _reduce(h, spec, report).extract()
    _record_after(report, reduced)
    return KernelRun(reduced, report, tuple(vertex_ids), tuple(edge_ids))


def seq_kernelize(h: Hypergraph) -> KernelRun:
    """The ``dp,md`` fixpoint on the sequential engine; raises
    ``ValueError`` on an infeasible instance.  Output matches
    :func:`par_kernelize` exactly."""
    return _kernelize(h, PipelineSpec(("dp", "md"), loop=True))


def par_kernelize(h: Hypergraph, *, rule: str = "dp", workers: int = 1) -> KernelRun:
    """The ``rule,md`` fixpoint (``rule`` is ``"dp"`` or ``"se"``) on the
    parallel engine; raises ``ValueError`` on an infeasible instance.

    ``workers`` is validated but selects nothing: every phase is
    vectorized, and any worker count gives identical results.
    """
    if rule not in ("dp", "se"):
        raise ValueError(f"unknown edge rule {rule!r}")
    return _kernelize(h, PipelineSpec((rule, "md"), engine="parallel", loop=True, workers=workers))


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
