"""Candidate-driven sequential reduction engine.

The engine's state lives across the phases of a pipeline run (see
:mod:`pipeline`): the run's :class:`rules.ActiveInstance` plus candidate
lists that narrow each phase's scan, the narrowing of the paper's serial
algorithm.  A phase is the parallel engine's phase restricted to the
candidates' rows: it masks the run's incidence matrix to the alive items,
as the parallel phase does, and runs the same phase body
(:func:`parallel.superseded`, :func:`parallel.dominated`) with only the
alive candidates as left items, so the co-occurrence kernel of
:mod:`bitmatrix` counts nothing but the candidates' pairs.  It deletes
exactly what the parallel engine's phase deletes.  Candidates:

* deleting an edge can only newly enable vertex domination for that edge's
  vertices, so they are the only new vertex candidates;
* deleting a vertex can only newly enable supersedence *by* the edges that
  contained it, so those are the only new superseder candidates.

Candidate lists may hold duplicates and dead indices (cheap insertion
keeps the amortized accounting: each item enters once at startup plus once
per incident deletion); phases skip dead entries.  Demands are read-only:
a rule that changes them (``fe``) or deletes items the lists do not track
(``fe``, ``lp``) ends the state's life, and the next state starts with
every alive item as a candidate again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Hypergraph
from .parallel import dominated, superseded
from .rules import ActiveInstance


@dataclass
class ReductionState:
    """The alive overlay and its candidate lists.

    Between phase calls ``cand_edges`` contains every alive edge currently
    able to supersede another and ``cand_vertices`` every alive vertex
    currently deletable by domination (1-based ids).  Demands are
    read-only here.
    """

    active: ActiveInstance
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
    """Start with every alive item of ``active`` (all of ``h`` when
    omitted) as a candidate.  The state shares ``active``: its phases
    delete in place."""
    if active is None:
        active = ActiveInstance(h)
    edges = active.alive_edge_ids()
    vertices = [j + 1 for j in range(h.n) if active.vertex_alive[j]]
    return ReductionState(active, edges, vertices, len(edges) + len(vertices))


def _rows(ids: np.ndarray, queue: list[int], size: int) -> np.ndarray:
    """The indices into ``ids``, the sorted 0-based ids (out of ``size``)
    of a masked matrix's edges or vertices, whose item is on the 1-based
    candidate list ``queue``."""
    queued = np.zeros(size, dtype=bool)
    queued[np.asarray(queue, dtype=np.intp) - 1] = True
    return np.flatnonzero(queued[ids])


def _commit(state: ReductionState, doomed: list[int], alive: list[bool], partners, queue: list[int]) -> None:
    """Mark the 1-based items ``doomed`` dead in ``alive``; each item's
    alive ``partners`` (an edge's vertices, a vertex's edges) join ``queue``."""
    for k in doomed:
        alive[k - 1] = False
        members = partners(k)
        queue.extend(members)
        state.insertions += len(members)


def seq_reduce_edges(state: ReductionState, rule: str = "dp") -> int:
    """One exhaustive edge phase under ``rule`` (see
    :func:`rules.superseding`); returns the deletion count.

    The alive candidate superseders are checked against every alive edge
    on a fixed snapshot, and the deletions are committed afterwards,
    queueing the edges' vertices as domination candidates, so the deleted
    set equals the parallel edge phase's.  Only ``"dp"`` empties the
    superseder candidates.
    """
    active = state.active
    matrix, _, edge_ids = active.alive_matrix()
    f = np.asarray(active.demand, dtype=np.int64)[edge_ids]
    doomed = superseded(matrix, f, rule, _rows(edge_ids, state.cand_edges, len(active.edge_alive)))
    queued = (edge_ids[doomed] + 1).tolist()
    _commit(state, queued, active.edge_alive, active.edge_members, state.cand_vertices)
    if rule == "dp":
        # An exhaustive dp phase leaves no superseding pair; an se phase
        # can leave dp superseders, since se implies dp but not conversely.
        state.cand_edges.clear()
    return len(queued)


def seq_reduce_vertices(state: ReductionState) -> int:
    """One exhaustive multiple-domination phase; returns the deletion count.

    Each alive candidate needs as many alive dominators (see
    :func:`rules.dominating`) as the largest demand among its alive edges
    (zero, hence immediate deletion, for a vertex left in no edge), counted
    on a fixed snapshot; committing a deletion queues the vertex's edges as
    superseder candidates.
    """
    active = state.active
    matrix, vertex_ids, edge_ids = active.alive_matrix()
    f = np.asarray(active.demand, dtype=np.int64)[edge_ids]
    doomed = dominated(matrix, f, _rows(vertex_ids, state.cand_vertices, len(active.vertex_alive)))
    queued = (vertex_ids[doomed] + 1).tolist()
    _commit(state, queued, active.vertex_alive, active.vertex_incidences, state.cand_edges)
    state.cand_vertices.clear()
    return len(queued)
