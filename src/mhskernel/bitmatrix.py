"""Sparse 0/1 incidence matrices and their pairwise co-occurrence counts.

Bit ``(i, j)`` is set iff vertex ``j`` belongs to edge ``i``.  The matrix
is stored row-compressed in two numpy arrays: ``words`` lists the 0-based
column of every set bit, row by row and increasing within a row, and
``indptr[i]:indptr[i + 1]`` delimits row ``i``'s run.

The reduction rules read the matrix only through pairwise counts: edge
intersection sizes (``A·Aᵀ``) and shared-edge counts of vertices
(``Aᵀ·A``).  :meth:`IncidenceMatrix.edge_pairs` and
:meth:`IncidenceMatrix.vertex_pairs` yield them in chunks of pairs
``(a, b, count)`` with ``count >= 1``; pairs that share nothing are
absent.  A chunk covers a run of left items ``a`` and every partner of
each, so per-pair facts may be accumulated across chunks.  Each count is
taken on one of two paths: the dense one when the pairs fill more than
one chunk and cost more operations than the product (``PAIR_COST``),
the sparse one otherwise.

* sparse: for each of its groups (the vertices of an edge, or the edges
  of a vertex) an item emits one pair per group member, and
  ``np.unique`` sums the repeats; ``Σ group size²`` pairs in all;
* dense: 0/1 float blocks of the matrix are multiplied; ``rows² · cols``
  multiply-adds in all.

One chunk holds at most ``BLOCK_CELLS`` pairs or dense cells; only an
item whose own pairs are more (never more than the matrix has set bits)
makes a larger sparse chunk.  The temporaries are therefore bounded
whatever the density, and no dense ``rows × rows`` or ``rows × cols``
array is held unless it fits in one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .instance import Hypergraph


# Pairs or matrix cells that one chunk of pairwise counts may hold: a
# chunk here, or a candidates × alive slice of the sequential engine's
# count matrices.  Bounds both engines' temporaries whatever the instance.
BLOCK_CELLS = 1 << 14
# One sparse pair costs about as much as this many multiply-adds of the
# dense product; only chooses the faster path, both give the same counts.
PAIR_COST = 64


def _sparse_counts(own_ptr, own, group_ptr, group):
    """Chunks of co-occurrence counts from pair lists.

    Item ``a`` belongs to the groups ``own[own_ptr[a]:own_ptr[a + 1]]``;
    group ``g`` has the members ``group[group_ptr[g]:group_ptr[g + 1]]``.
    """
    count = own_ptr.size - 1
    group_size = np.diff(group_ptr)
    # emitted[a]: pairs emitted by the items before a.
    emitted = np.concatenate(([0], np.cumsum(group_size[own])))[own_ptr]
    start = 0
    while start < count:
        stop = np.searchsorted(emitted, emitted[start] + BLOCK_CELLS, side="right") - 1
        stop = min(count, max(start + 1, stop))
        groups = own[own_ptr[start] : own_ptr[stop]]
        sizes = group_size[groups]
        left = np.repeat(np.repeat(np.arange(start, stop), np.diff(own_ptr[start : stop + 1])), sizes)
        # The k-th pair of an entry reads member k of that entry's group.
        offset = np.repeat(group_ptr[groups] - (np.cumsum(sizes) - sizes), sizes)
        right = group[offset + np.arange(left.size)]
        keys, common = np.unique(left * count + right, return_counts=True)
        yield keys // count, keys % count, common
        start = stop


def _dense_counts(own_ptr, own, group_ptr, group):
    """The same chunks as :func:`_sparse_counts`, from products of dense
    0/1 blocks: item block × all items, summed over group slices."""
    count, groups = own_ptr.size - 1, group_ptr.size - 1
    step = max(1, BLOCK_CELLS // max(1, count))
    for lo in range(0, count, step):
        hi = min(count, lo + step)
        counts = np.zeros((hi - lo, count))
        for g0 in range(0, groups, step):
            g1 = min(groups, g0 + step)
            part = np.zeros((count, g1 - g0))
            slot = np.repeat(np.arange(g1 - g0), np.diff(group_ptr[g0 : g1 + 1]))
            part[group[group_ptr[g0] : group_ptr[g1]], slot] = 1
            counts += part[lo:hi] @ part.T  # exact: sums of at most `groups` ones
        a, b = np.nonzero(counts)
        yield a + lo, b, counts[a, b].astype(np.int64)


def _cooccurrence(own_ptr, own, group_ptr, group):
    """Co-occurrence chunks on the path the module docstring describes."""
    count, groups = own_ptr.size - 1, group_ptr.size - 1
    pairs = int(np.sum(np.diff(group_ptr) ** 2))
    # A product only pays for starting up BLAS when the pairs fill several chunks.
    if pairs <= BLOCK_CELLS or pairs * PAIR_COST <= count * count * groups:
        return _sparse_counts(own_ptr, own, group_ptr, group)
    return _dense_counts(own_ptr, own, group_ptr, group)


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """Row-compressed incidence matrix of a hypergraph (see the module
    docstring for the layout of ``indptr`` and ``words``)."""

    rows: int
    cols: int
    indptr: np.ndarray
    words: np.ndarray

    @cached_property
    def row_sizes(self) -> np.ndarray:
        """Per edge, its number of vertices."""
        return np.diff(self.indptr)

    @cached_property
    def col_sizes(self) -> np.ndarray:
        """Per vertex, its number of edges."""
        return np.bincount(self.words, minlength=self.cols)

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Column-compressed form ``(colptr, members)``: the 0-based edges
        of vertex ``j`` are ``members[colptr[j]:colptr[j + 1]]``."""
        colptr = np.zeros(self.cols + 1, dtype=np.intp)
        np.cumsum(self.col_sizes, out=colptr[1:])
        edge_of = np.repeat(np.arange(self.rows), self.row_sizes)
        return colptr, edge_of[np.argsort(self.words, kind="stable")]

    def restrict(self, row_alive, col_alive) -> "IncidenceMatrix":
        """The rows (edges) and columns (vertices) flagged in the bool masks
        ``row_alive`` (``rows`` long) and ``col_alive`` (``cols`` long), renumbered in order."""
        row_alive, col_alive = np.asarray(row_alive, dtype=bool), np.asarray(col_alive, dtype=bool)
        if row_alive.shape != (self.rows,) or col_alive.shape != (self.cols,):
            raise ValueError(f"masks of length {self.rows} and {self.cols} required")
        keep = np.repeat(row_alive, self.row_sizes) & col_alive[self.words]
        # Dead rows keep nothing, so an alive row starts after the bits kept before it.
        start = np.concatenate(([0], np.cumsum(keep)))[self.indptr]
        indptr = start[np.append(np.flatnonzero(row_alive), self.rows)]
        words = np.cumsum(col_alive)[self.words[keep]] - 1  # kept columns renumbered in order
        return IncidenceMatrix(indptr.size - 1, int(col_alive.sum()), indptr, words)

    def edge_pairs(self):
        """Chunks of 0-based edge pairs ``(a, b)`` with ``|a ∩ b| >= 1``, and that count."""
        return _cooccurrence(self.indptr, self.words, *self.columns)

    def vertex_pairs(self):
        """Chunks of 0-based vertex pairs ``(a, b)`` sharing at least one edge, and how many."""
        return _cooccurrence(*self.columns, self.indptr, self.words)


def incidence_matrix(h: Hypergraph) -> IncidenceMatrix:
    """Build the row-compressed incidence matrix of ``h``."""
    sizes = np.fromiter((len(members) for members in h.edges), dtype=np.intp, count=h.m)
    indptr = np.zeros(h.m + 1, dtype=np.intp)
    np.cumsum(sizes, out=indptr[1:])
    words = np.fromiter((j - 1 for members in h.edges for j in members), dtype=np.intp, count=int(indptr[-1]))
    return IncidenceMatrix(h.m, h.n, indptr, words)
