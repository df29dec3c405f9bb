"""Snapshot data-parallel reduction phases.

A phase works on a compacted incidence matrix of the alive items (see
:mod:`pipeline`, which masks the run's one matrix per phase and runs the
rounds).  It
reads the pairwise counts ``A·Aᵀ`` or ``Aᵀ·A`` of the matrix in bounded
chunks (see :mod:`bitmatrix`) and evaluates the shared rule predicate
(:func:`rules.superseding`, :func:`rules.dominating`) on every pair of a
chunk at once, against the same snapshot; the returned keep-vector is
committed by the caller.  The result therefore depends on nothing but the
instance, and mutual deletions are prevented by an index tie-break (the
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
