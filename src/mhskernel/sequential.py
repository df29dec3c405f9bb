"""Incrementally maintained sequential reduction engine.

The engine's state lives across the phases of a pipeline run (see
:mod:`pipeline`): dense pairwise intersection counts of the alive items,
taken once from the co-occurrence kernel of :mod:`bitmatrix` on the run's
incidence matrix masked to the alive items and kept up to date under
deletion by one commit routine, plus candidate lists that narrow each
phase's scan.  A phase slices the candidates' rows out of the
count matrix, ``bitmatrix.BLOCK_CELLS`` cells at a time, and applies the
same rule predicates as the parallel engine (:func:`rules.superseding`,
:func:`rules.dominating`) to each block, so it deletes exactly what the
parallel engine's phase deletes.  Candidates:

* deleting an edge can only newly enable vertex domination for that edge's
  vertices, so they are the only new vertex candidates;
* deleting a vertex can only newly enable supersedence *by* the edges that
  contained it, so those are the only new superseder candidates.

Candidate lists may hold duplicates and dead indices (cheap insertion
keeps the amortized accounting: each item enters once at startup plus once
per incident deletion); scans skip dead entries.  Rows and columns of dead
items go stale rather than being zeroed; they are never read.  Demands
are read-only: a rule that changes them (``fe``) or deletes items without
updating the counts (``fe``, ``lp``) ends the state's life, and the next
state is counted afresh, in one kernel pass over the masked matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitmatrix import BLOCK_CELLS
from .instance import Hypergraph
from .rules import ActiveInstance, dominating, superseding


@dataclass
class ReductionState:
    """Intersection-count matrices, alive flags and candidate lists.

    Between phase calls the following holds for the hypergraph restricted
    to alive items: ``edge_inter[i][j]`` is the intersection size of edges
    ``i+1`` and ``j+1`` (diagonal: edge size); ``vertex_inter[i][j]`` is
    the number of shared edges of vertices ``i+1`` and ``j+1`` (diagonal:
    degree); ``cand_edges`` contains every edge currently able to
    supersede another; ``cand_vertices`` contains every vertex currently
    deletable by domination.  Demands are read-only here.
    """

    active: ActiveInstance
    edge_inter: np.ndarray
    vertex_inter: np.ndarray
    cand_edges: list[int]
    cand_vertices: list[int]
    insertions: int = 0  # total candidate-list appends, for work accounting

    @property
    def edge_alive(self) -> list[bool]:
        return self.active.edge_alive

    @property
    def vertex_alive(self) -> list[bool]:
        return self.active.vertex_alive


def init_state(h: Hypergraph, active: ActiveInstance | None = None) -> ReductionState:
    """Count the alive items of ``active`` (all of ``h`` when omitted) and
    start with every alive item as a candidate.

    The counts are the co-occurrence kernel's chunks for
    :meth:`rules.ActiveInstance.alive_matrix`, scattered back to original
    ids.  The state shares ``active``: its phases delete in place.
    """
    if active is None:
        active = ActiveInstance(h)
    # No count exceeds n or m, so the smallest unsigned type that holds both
    # suffices; the matrices are the engine's largest allocation.
    dtype = np.min_scalar_type(max(h.n, h.m))
    matrix, vertex_ids, edge_ids = active.alive_matrix()
    return ReductionState(
        active=active,
        edge_inter=_scatter(matrix.edge_pairs(), edge_ids, h.m, dtype),
        vertex_inter=_scatter(matrix.vertex_pairs(), vertex_ids, h.n, dtype),
        cand_edges=(edge_ids + 1).tolist(),
        cand_vertices=(vertex_ids + 1).tolist(),
        insertions=edge_ids.size + vertex_ids.size,
    )


def _scatter(chunks, ids: np.ndarray, size: int, dtype) -> np.ndarray:
    """``size × size`` counts of ``chunks``, compacted index ``k`` placed at 0-based id ``ids[k]``."""
    out = np.zeros((size, size), dtype=dtype)
    for a, b, common in chunks:
        out[ids[a], ids[b]] = common
    return out


def _candidate_blocks(candidates: np.ndarray, width: int):
    """Split ``candidates`` into runs whose ``candidates × width`` slice of
    an intersection matrix holds at most ``BLOCK_CELLS`` cells."""
    step = max(1, BLOCK_CELLS // max(1, width))
    for lo in range(0, candidates.size, step):
        yield candidates[lo : lo + step]


def _alive_candidates(queue: list[int], alive: list[bool]) -> np.ndarray:
    """0-based alive entries of a candidate list, duplicates dropped."""
    return np.array([k - 1 for k in dict.fromkeys(queue) if alive[k - 1]], dtype=np.intp)


def _commit(state: ReductionState, doomed: list[int], alive: list[bool], partners, inter: np.ndarray,
            queue: list[int]) -> None:
    """Mark the 1-based items ``doomed`` dead in ``alive``; the counts
    ``inter`` lose one unit over every pair of each item's alive
    ``partners`` (an edge's vertices, a vertex's edges), which join ``queue``."""
    for k in doomed:
        alive[k - 1] = False
        members = partners(k)
        idx = [p - 1 for p in members]
        inter[np.ix_(idx, idx)] -= 1
        queue.extend(members)
        state.insertions += len(members)


def seq_reduce_edges(state: ReductionState, rule: str = "dp") -> int:
    """One exhaustive edge phase under ``rule`` (see
    :func:`rules.superseding`); returns the deletion count.

    The candidate superseders are checked against every alive edge, one
    block of rows of ``edge_inter`` at a time, with the shared predicate
    on a fixed snapshot (deletions are committed afterwards, queueing the
    edges' vertices as domination candidates), so the deleted set equals
    the parallel edge phase's.  Only ``"dp"`` empties the superseder
    candidates.
    """
    active = state.active
    alive = np.flatnonzero(active.edge_alive)
    size = np.diagonal(state.edge_inter)
    f = np.asarray(active.demand, dtype=np.int32)
    doomed = np.zeros(alive.size, dtype=bool)
    for block in _candidate_blocks(_alive_candidates(state.cand_edges, active.edge_alive), alive.size):
        i = block[:, None]
        common = state.edge_inter[i, alive]
        doomed |= superseding(common, size[i], f[i], i, size[alive], f[alive], alive, rule).any(axis=0)
    queued = (alive[doomed] + 1).tolist()
    _commit(state, queued, active.edge_alive, active.edge_members, state.vertex_inter, state.cand_vertices)
    if rule == "dp":
        # An exhaustive dp phase leaves no superseding pair; an se phase
        # can leave dp superseders, since se implies dp but not conversely.
        state.cand_edges.clear()
    return len(queued)


def seq_reduce_vertices(state: ReductionState) -> int:
    """One exhaustive multiple-domination phase; returns the deletion count.

    Each candidate needs as many alive dominators (see
    :func:`rules.dominating`) as the largest demand among its alive edges
    (zero, hence immediate deletion, for a vertex left in no edge); the
    dominators are counted one block of rows of ``vertex_inter`` at a
    time on a fixed snapshot; committing a deletion queues the vertex's
    edges as superseder candidates.
    """
    active = state.active
    demand = active.demand
    alive = np.flatnonzero(active.vertex_alive)
    deg = np.diagonal(state.vertex_inter)
    queued: list[int] = []
    for block in _candidate_blocks(_alive_candidates(state.cand_vertices, active.vertex_alive), alive.size):
        need = [max((demand[i - 1] for i in active.vertex_incidences(j + 1)), default=0) for j in block]
        j = block[:, None]
        common = state.vertex_inter[j, alive]
        dominators = dominating(common, deg[alive], alive, deg[j], j).sum(axis=1)
        queued.extend((block[dominators >= need] + 1).tolist())
    _commit(state, queued, active.vertex_alive, active.vertex_incidences, state.edge_inter, state.cand_edges)
    state.cand_vertices.clear()
    return len(queued)
