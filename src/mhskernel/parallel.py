"""Round-based data-parallel reduction engine.

Each round runs one edge phase (demand pushing) and one vertex phase
(multiple domination) on a compacted incidence matrix.  A phase reads
the pairwise counts ``A·Aᵀ`` or ``Aᵀ·A`` of the matrix in bounded chunks
(see :mod:`bitmatrix`) and evaluates the shared rule predicate
(:func:`rules.superseding`, :func:`rules.dominating`) on every pair of a
chunk at once, against the same snapshot; deletions are committed after
the last chunk.  The result therefore depends on nothing but the
instance, and mutual deletions are prevented by an index tie-break (the
lower original index survives).  Pairs that share nothing are never
evaluated: under ``1 <= f(e) <= |e|`` no rule can relate them.

A single edge phase leaves no superseding pair alive and a single vertex
phase leaves no deletable vertex alive, so one phase per rule per round is
already exhaustive for that rule.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from .bitmatrix import IncidenceMatrix, incidence_matrix
from .instance import Hypergraph, instance_size, validate_feasibility
from .report import KernelReport, KernelRun
from .rules import ActiveInstance, dominating, superseding


def par_reduce_edges(matrix: IncidenceMatrix, demand: Sequence[int], *, rule: str = "dp") -> list[bool]:
    """Keep-vector of one exhaustive edge phase on a compacted matrix.

    ``rule`` selects the deletion relation of :func:`rules.superseding`:
    ``"dp"`` (demand pushing) or the weaker ``"se"`` (containment with at
    least the same demand).  Every demand must lie in ``1 .. |row|``.
    """
    if len(demand) != matrix.rows:
        raise ValueError("one demand per matrix row required")
    f = np.asarray(demand, dtype=np.int64)
    size = matrix.row_sizes
    if np.any(f < 1) or np.any(f > size):
        raise ValueError("every demand must lie between 1 and its row's size")
    keep = np.ones(matrix.rows, dtype=bool)
    for i, j, common in matrix.edge_pairs():
        keep[j[superseding(common, size[i], f[i], i, size[j], f[j], j, rule)]] = False
    return keep.tolist()


def par_reduce_vertices(matrix: IncidenceMatrix, demand: Sequence[int]) -> list[bool]:
    """Keep-vector of one exhaustive vertex phase on a compacted matrix.

    Vertex ``j`` is deleted when its dominators (:func:`rules.dominating`)
    are at least as many as the largest demand among its edges; a vertex
    in no edge is deleted.
    """
    if len(demand) != matrix.rows:
        raise ValueError("one demand per matrix row required")
    need = np.zeros(matrix.cols, dtype=np.int64)
    np.maximum.at(need, matrix.words, np.repeat(np.asarray(demand, dtype=np.int64), matrix.row_sizes))
    deg = matrix.col_sizes
    dominators = np.zeros(matrix.cols, dtype=np.int64)
    for i, j, common in matrix.vertex_pairs():
        dominators += np.bincount(j[dominating(common, deg[i], i, deg[j], j)], minlength=matrix.cols)
    return (dominators < need).tolist()


def par_kernelize(h: Hypergraph, *, rule: str = "dp", workers: int = 1) -> KernelRun:
    """Alternate edge and vertex phases on compacted matrices until a full
    round deletes nothing.  Demands are never modified here.

    ``workers`` is validated but selects nothing: every phase is
    vectorized, and any worker count gives identical results.
    """
    if workers < 1:
        raise ValueError("worker count must be positive")
    check = validate_feasibility(h)
    if not check:
        raise ValueError(f"instance is infeasible: {check.reason}")
    active = ActiveInstance(h)
    report = KernelReport(
        n_before=h.n, m_before=h.m, size_before=instance_size(h),
    )
    started = time.perf_counter()
    while True:
        report.rounds += 1
        changed = False

        sub, _, edge_ids = active.extract()
        keep = par_reduce_edges(incidence_matrix(sub), sub.demand, rule=rule)
        for kept, i in zip(keep, edge_ids):
            if not kept:
                active.edge_alive[i - 1] = False
                report.deleted_by_rule[rule] += 1
                changed = True

        sub, vertex_ids, _ = active.extract()
        keep = par_reduce_vertices(incidence_matrix(sub), sub.demand)
        for kept, j in zip(keep, vertex_ids):
            if not kept:
                active.vertex_alive[j - 1] = False
                report.deleted_by_rule["md"] += 1
                changed = True

        if not changed:
            break
    report.wall_times_ms["parallel-engine"] = (time.perf_counter() - started) * 1e3
    reduced, vertex_ids, edge_ids = active.extract()
    report.n_after = reduced.n
    report.m_after = reduced.m
    report.size_after = instance_size(reduced)
    return KernelRun(reduced, report, tuple(vertex_ids), tuple(edge_ids))
