"""Reduction pipelines.

A pipeline is an ordered list of rule phases (``fe``, ``dp``, ``se``,
``md``, ``lp``) run by one of the two engines, optionally looped until a
whole pass deletes nothing.  :func:`_reduce` is the only reduction loop;
every phase order and both engines run through it on one
:class:`rules.ActiveInstance`, and :func:`_run` is the only path that
finishes a run: :func:`run_pipeline` returns its hypergraph and report,
and :func:`seq_kernelize` and :func:`par_kernelize` (each taking only the
instance) are its ``dp,md`` fixpoint on one engine each.
None of them raises on infeasibility: an infeasible input comes back
unreduced with ``report.infeasible`` set, and a run whose ``fe`` phase
meets an unsatisfiable edge, or overdraws the budget, returns what it
reached with the same flag.  Both engines run the edge rules (``dp`` and
``se``) and ``md`` through the same phase bodies of :mod:`parallel`, on
the run's one incidence matrix masked by the alive rows and columns for
each such phase, and ``fe`` reads the same masked matrix:

* the parallel engine evaluates every alive item;
* the sequential engine evaluates only the rows of its candidates, flagged
  in id masks of one :class:`sequential.ReductionState` across phases and
  rounds, and queues a deleted item's partners from the masked matrix;
  the masks are reset to every alive item after ``fe`` or ``lp`` deleted
  something (neither queues candidates).

``lp`` scans each alive edge once per phase (:func:`rules.lp_pass`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graphparams import compute_stats
from .instance import Hypergraph, instance_size, validate_feasibility
from .parallel import par_reduce_edges, par_reduce_vertices
from .report import RULE_KEYS, KernelReport, KernelRun
from .rules import ActiveInstance, exact_oracle, fe_pass, lp_pass, pushed_max_oracle
from .sequential import init_state, seq_reduce_edges, seq_reduce_vertices

PHASES = RULE_KEYS
ENGINES = ("sequential", "parallel")
LP_ORACLES = {"exact": exact_oracle, "pushed-max": pushed_max_oracle}


@dataclass(frozen=True)
class PipelineSpec:
    """Which phases to run, on which engine, and whether to loop."""

    phases: tuple[str, ...]
    engine: str = "sequential"
    loop: bool = False
    lp_oracle: str = "exact"

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


def _par_phase(active: ActiveInstance, phase: str) -> int:
    """One parallel-engine ``dp``, ``se`` or ``md`` phase on the run's
    matrix masked to the alive items; returns the deletion count."""
    matrix, vertex_ids, edge_ids = active.alive_matrix()
    demand = np.array(active.demand)[edge_ids]
    if phase == "md":
        keep, ids, alive = par_reduce_vertices(matrix, demand), vertex_ids, active.vertex_alive
    else:
        keep, ids, alive = par_reduce_edges(matrix, demand, rule=phase), edge_ids, active.edge_alive
    for k in ids[np.logical_not(keep)].tolist():
        alive[k] = False
    return keep.count(False)


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
                report.budget_delta += len(outcome.deleted_vertices)
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
                state = None  # neither rule queues candidates
            report.deleted_by_rule[phase] += dropped
            deletions += dropped
            elapsed = (time.perf_counter() - phase_started) * 1e3
            report.wall_times_ms[phase] = report.wall_times_ms.get(phase, 0.0) + elapsed
            if report.infeasible:
                break
        if report.infeasible or not spec.loop or deletions == 0:
            return active


def _run(h: Hypergraph, spec: PipelineSpec) -> KernelRun:
    """Finish one run of ``spec`` on ``h``: every entry point ends here.

    An infeasible input comes back unreduced with ``infeasible=True``;
    otherwise the survivors of :func:`_reduce` come back with the budget
    lowered by the vertices ``fe`` forced, flagged if that overdraws it.
    """
    report = KernelReport(n_before=h.n, m_before=h.m, size_before=instance_size(h))
    if validate_feasibility(h):
        reduced, vertex_ids, edge_ids = _reduce(h, spec, report).extract()
        if h.budget is not None:
            reduced = reduced.with_budget(h.budget - report.budget_delta)
            report.infeasible |= reduced.budget < 0
    else:
        report.infeasible = True
        reduced, vertex_ids, edge_ids = h, range(1, h.n + 1), range(1, h.m + 1)
    report.n_after, report.m_after, report.size_after = reduced.n, reduced.m, instance_size(reduced)
    return KernelRun(reduced, report, tuple(vertex_ids), tuple(edge_ids))


def run_pipeline(
    h: Hypergraph, spec: PipelineSpec, *, compute_bounds: bool = False
) -> tuple[Hypergraph, KernelReport]:
    """Run the phases in order (looped to joint fixpoint when flagged).

    An infeasible input comes back unreduced, and infeasibility detected
    mid-pipeline by the full-edge rule halts the run; either way the
    report says ``infeasible=True`` and nothing is raised.  The bound
    fields, from the Dilworth and matching numbers of the incidence graph,
    are filled only on request.
    """
    run = _run(h, spec)
    if compute_bounds:
        stats = compute_stats(h, {"dilworth", "matching"})
        run.report.bound_2_alpha_nabla = 2 * h.alpha * stats["dilworth"]
        run.report.matching_bound = stats["matching"]
    return run.hypergraph, run.report


def seq_kernelize(h: Hypergraph) -> KernelRun:
    """The ``dp,md`` fixpoint on the sequential engine.  An infeasible
    instance comes back unreduced with ``report.infeasible`` set.  Output
    matches :func:`par_kernelize` exactly."""
    return _run(h, PipelineSpec(("dp", "md"), loop=True))


def par_kernelize(h: Hypergraph) -> KernelRun:
    """The ``dp,md`` fixpoint on the parallel engine.  An infeasible
    instance comes back unreduced with ``report.infeasible`` set.  Output
    matches :func:`seq_kernelize` exactly; other phase orders, such as the
    ``se,md`` fixpoint, run through :func:`run_pipeline`."""
    return _run(h, PipelineSpec(("dp", "md"), engine="parallel", loop=True))
