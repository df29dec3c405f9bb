"""Candidate-driven sequential reduction engine.

The engine's state lives across the phases of a pipeline run (see
:mod:`pipeline`): the run's :class:`rules.ActiveInstance` plus candidate
masks that narrow each phase's scan, the narrowing of the paper's serial
algorithm.  A phase is the parallel engine's phase restricted to the
candidates' rows: it masks the run's incidence matrix to the alive items,
as the parallel phase does, and runs the same phase body
(:func:`parallel.superseded`, :func:`parallel.dominated`) with only the
alive candidates as left items, so the co-occurrence kernel of
:mod:`bitmatrix` counts nothing but the candidates' pairs.  It deletes
exactly what the parallel engine's phase deletes, and commits from the
same masked matrix.  Candidates:

* deleting an edge can only newly enable vertex domination for that edge's
  vertices (the columns of its row), so they are the only new vertex
  candidates;
* deleting a vertex can only newly enable supersedence *by* the edges that
  contained it (the rows of its column), so those are the only new
  superseder candidates.

Each item is queued once at startup plus once per incident deletion, the
amortized accounting kept in ``insertions``.  Demands are read-only: a
rule that changes them (``fe``) or deletes items the masks do not track
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
    """The alive overlay and its candidate masks.

    Between phase calls ``cand_edges`` flags, by 0-based original id, every
    alive edge currently able to supersede another and ``cand_vertices``
    every alive vertex currently deletable by domination.  Phases read only
    the flags of alive items.  Demands are read-only here.
    """

    active: ActiveInstance
    cand_edges: np.ndarray
    cand_vertices: np.ndarray
    insertions: int = 0  # total candidates queued, for work accounting


def init_state(h: Hypergraph, active: ActiveInstance | None = None) -> ReductionState:
    """Start with every alive item of ``active`` (all of ``h`` when
    omitted) as a candidate.  The state shares ``active``: its phases
    delete in place."""
    if active is None:
        active = ActiveInstance(h)
    edges, vertices = np.array(active.edge_alive, dtype=bool), np.array(active.vertex_alive, dtype=bool)
    return ReductionState(active, edges, vertices, int(edges.sum() + vertices.sum()))


def _commit(state: ReductionState, doomed: np.ndarray, alive: list[bool], partners: np.ndarray, queue: np.ndarray) -> int:
    """Mark the 0-based items ``doomed`` dead in ``alive`` and flag their
    alive ``partners`` (one 0-based id per incidence) in the mask ``queue``;
    returns how many items died."""
    for k in doomed.tolist():
        alive[k] = False
    queue[partners] = True
    state.insertions += partners.size
    return doomed.size


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
    matrix, vertex_ids, edge_ids = active.alive_matrix()
    f = np.asarray(active.demand, dtype=np.int64)[edge_ids]
    doomed = superseded(matrix, f, rule, np.flatnonzero(state.cand_edges[edge_ids]))
    members = vertex_ids[matrix.words[np.repeat(doomed, matrix.row_sizes)]]
    deleted = _commit(state, edge_ids[doomed], active.edge_alive, members, state.cand_vertices)
    if rule == "dp":
        # An exhaustive dp phase leaves no superseding pair; an se phase
        # can leave dp superseders, since se implies dp but not conversely.
        state.cand_edges[:] = False
    return deleted


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
    doomed = dominated(matrix, f, np.flatnonzero(state.cand_vertices[vertex_ids]))
    incidences = edge_ids[matrix.columns[1][np.repeat(doomed, matrix.col_sizes)]]
    state.cand_vertices[:] = False
    return _commit(state, vertex_ids[doomed], active.vertex_alive, incidences, state.cand_edges)
