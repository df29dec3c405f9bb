"""Incrementally maintained sequential reduction engine.

The engine's state lives across the phases of a pipeline run (see
:mod:`pipeline`): dense pairwise intersection counts of the alive items,
kept up to date under deletion, plus candidate lists that narrow each
phase's scan.  A phase slices the candidates' rows out of the count
matrix, ``bitmatrix.BLOCK_CELLS`` cells at a time, and applies the same
rule predicates as the parallel engine (:func:`rules.superseding`,
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
updating the counts (``fe``, ``lp``) ends the state's life.
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

    Each alive vertex contributes one unit to every pair of its alive
    edges; each alive edge contributes one unit to every pair of its alive
    vertices.  The state shares ``active``: its phases delete in place.
    """
    if active is None:
        active = ActiveInstance(h)
    # No count exceeds n or m, so the smallest unsigned type that holds both
    # suffices; the matrices are the engine's largest allocation.
    dtype = np.min_scalar_type(max(h.n, h.m))
    cand_edges = active.alive_edge_ids()
    cand_vertices = active.alive_vertex_ids()
    edge_inter = np.zeros((h.m, h.m), dtype=dtype)
    for j in cand_vertices:
        idx = np.array(active.vertex_incidences(j), dtype=np.intp) - 1
        edge_inter[np.ix_(idx, idx)] += 1
    vertex_inter = np.zeros((h.n, h.n), dtype=dtype)
    for i in cand_edges:
        idx = np.array(active.edge_members(i), dtype=np.intp) - 1
        vertex_inter[np.ix_(idx, idx)] += 1
    return ReductionState(
        active=active,
        edge_inter=edge_inter,
        vertex_inter=vertex_inter,
        cand_edges=cand_edges,
        cand_vertices=cand_vertices,
        insertions=len(cand_edges) + len(cand_vertices),
    )


def _candidate_blocks(candidates: np.ndarray, width: int):
    """Split ``candidates`` into runs whose ``candidates × width`` slice of
    an intersection matrix holds at most ``BLOCK_CELLS`` cells."""
    step = max(1, BLOCK_CELLS // max(1, width))
    for lo in range(0, candidates.size, step):
        yield candidates[lo : lo + step]


def _alive_candidates(queue: list[int], alive: list[bool]) -> np.ndarray:
    """0-based alive entries of a candidate list, duplicates dropped."""
    return np.array([k - 1 for k in dict.fromkeys(queue) if alive[k - 1]], dtype=np.intp)


def seq_reduce_edges(state: ReductionState, rule: str = "dp") -> int:
    """One exhaustive edge phase under ``rule`` (see
    :func:`rules.superseding`); returns the deletion count.

    The candidate superseders are checked against every alive edge, one
    block of rows of ``edge_inter`` at a time, with the shared predicate
    on a fixed snapshot (deletions are committed afterwards), so the
    deleted set equals the parallel edge phase's.  Committing a deletion
    decrements the vertex co-occurrence counts over the edge's alive
    vertex pairs and queues those vertices as domination candidates.
    Only ``"dp"`` empties the superseder candidates.
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
    for j in queued:
        active.edge_alive[j - 1] = False
        members = [v - 1 for v in active.edge_members(j)]
        state.vertex_inter[np.ix_(members, members)] -= 1
        for v in members:
            state.cand_vertices.append(v + 1)
        state.insertions += len(members)
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
    time on a fixed snapshot.  Committing a deletion decrements the edge
    intersection counts over the vertex's alive incident pairs and queues
    those edges as superseder candidates.
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
    for j in queued:
        active.vertex_alive[j - 1] = False
        incident = [i - 1 for i in active.vertex_incidences(j)]
        state.edge_inter[np.ix_(incident, incident)] -= 1
        for i in incident:
            state.cand_edges.append(i + 1)
        state.insertions += len(incident)
    state.cand_vertices.clear()
    return len(queued)
