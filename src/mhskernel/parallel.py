"""Snapshot data-parallel reduction phases, on phase bodies both engines share.

A phase works on a compacted incidence matrix of the alive items (see
:mod:`pipeline`, which masks the run's one matrix per phase and runs the
rounds).  Its body, :func:`superseded` or :func:`dominated`, reads the
pairwise counts ``A·Aᵀ`` or ``Aᵀ·A`` of the matrix in bounded chunks (see
:mod:`bitmatrix`) and evaluates the shared rule predicate
(:func:`rules.superseding`, :func:`rules.dominating`) on every pair of a
chunk at once, against the same snapshot; the caller commits the result.
The parallel phases run the bodies with every item as a candidate; the
sequential engine (:mod:`sequential`) runs them on its candidates' rows
only.  The result therefore depends on nothing but the instance (and the
candidates), and mutual deletions are prevented by an index tie-break (the
lower original index survives).  Pairs that share nothing are never
evaluated: under ``1 <= f(e) <= |e|`` no rule can relate them.

A single edge phase leaves no superseding pair alive and a single vertex
phase leaves no deletable vertex alive, so one phase per rule per round is
already exhaustive for that rule.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bitmatrix import IncidenceMatrix
from .rules import dominating, superseding


def superseded(matrix: IncidenceMatrix, f: np.ndarray, rule: str, rows=None) -> np.ndarray:
    """Per matrix row, whether an edge among the sorted rows ``rows`` (every
    row when ``None``) deletes it under ``rule`` (see :func:`rules.superseding`);
    ``f`` holds the rows' demands."""
    size = matrix.row_sizes
    doomed = np.zeros(matrix.rows, dtype=bool)
    for i, j, common in matrix.edge_pairs(rows):
        doomed[j[superseding(common, size[i], f[i], i, size[j], f[j], j, rule)]] = True
    return doomed


def dominated(matrix: IncidenceMatrix, f: np.ndarray, rows=None) -> np.ndarray:
    """Per matrix column, whether it is among the sorted columns ``rows``
    (every column when ``None``) and has at least as many dominators
    (:func:`rules.dominating`) as the largest demand among its edges; a
    vertex in no edge needs none.  ``f`` holds the rows' demands."""
    need = np.zeros(matrix.cols, dtype=np.int64)
    np.maximum.at(need, matrix.words, np.repeat(f, matrix.row_sizes))
    deg = matrix.col_sizes
    dominators = np.zeros(matrix.cols, dtype=np.int64)
    # Chunks pair the vertices of `rows` (j) with their possible dominators (i).
    for j, i, common in matrix.vertex_pairs(rows):
        dominators += np.bincount(j[dominating(common, deg[i], i, deg[j], j)], minlength=matrix.cols)
    if rows is None:
        return dominators >= need
    doomed = np.zeros(matrix.cols, dtype=bool)
    doomed[rows] = dominators[rows] >= need[rows]
    return doomed


def _checked_demand(matrix: IncidenceMatrix, demand: Sequence[int]) -> np.ndarray:
    """``demand`` as an array, if it gives every row a demand in ``1 .. |row|``."""
    if len(demand) != matrix.rows:
        raise ValueError("one demand per matrix row required")
    f = np.asarray(demand, dtype=np.int64)
    if np.any(f < 1) or np.any(f > matrix.row_sizes):
        raise ValueError("every demand must lie between 1 and its row's size")
    return f


def par_reduce_edges(matrix: IncidenceMatrix, demand: Sequence[int], *, rule: str = "dp") -> list[bool]:
    """Keep-vector of one exhaustive edge phase on a compacted matrix.

    ``rule`` selects the deletion relation of :func:`rules.superseding`:
    ``"dp"`` (demand pushing) or the weaker ``"se"`` (containment with at
    least the same demand).  Every demand must lie in ``1 .. |row|``.
    """
    return np.logical_not(superseded(matrix, _checked_demand(matrix, demand), rule)).tolist()


def par_reduce_vertices(matrix: IncidenceMatrix, demand: Sequence[int]) -> list[bool]:
    """Keep-vector of one exhaustive vertex phase on a compacted matrix.

    Vertex ``j`` is deleted when its dominators (:func:`rules.dominating`)
    are at least as many as the largest demand among its edges; a vertex
    in no edge is deleted.  Every demand must lie in ``1 .. |row|``.
    """
    return np.logical_not(dominated(matrix, _checked_demand(matrix, demand))).tolist()
