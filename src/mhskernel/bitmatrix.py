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
absent.  The left items ``a`` are every item, or only the sorted items
``rows`` when given, and ``b`` runs over every item.  A chunk covers a
run of left items and every partner of each, so per-pair facts may be
accumulated across chunks.  Each count is taken on one of two paths:
the dense one when the left items' pairs fill more than one chunk and
outnumber its word operations (``PAIR_COST``), the sparse one otherwise.

* sparse: for each of its groups (the vertices of an edge, or the edges
  of a vertex) a left item emits one pair per group member, and
  ``np.unique`` sums the repeats; ``Σ group size²`` pairs when every
  item is a left item;
* dense: each item's groups are packed into a bit row of 64-bit words,
  and a block of left items' words is ANDed with every item's and the
  common bits counted (``np.bitwise_count``); ``left · items · groups / 64``
  word operations in all.  They run on the calling thread alone: a BLAS
  product's worker threads would stall every call whenever another
  process holds a core.

One chunk holds at most ``BLOCK_CELLS`` pairs or dense cells; only an
item whose own pairs are more (never more than the matrix has set bits)
makes a larger sparse chunk.  The temporaries are therefore bounded
whatever the density, and no dense ``left × items`` array, nor words of
``items × groups`` bits, is held unless it fits in one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .instance import Hypergraph


# Pairs or matrix cells that one chunk of pairwise counts may hold.  Both
# engines read their counts only chunk by chunk, so this bounds their
# temporaries whatever the instance.
BLOCK_CELLS = 1 << 14
# One sparse pair costs about as much as one dense word operation, which
# covers this many groups; only chooses the faster path, both give the
# same counts.
PAIR_COST = 64


def _take_rows(ptr, members, rows):
    """The compressed lists ``(ptr, members)`` cut down to the sorted rows ``rows``."""
    sizes = ptr[rows + 1] - ptr[rows]
    sub_ptr = np.zeros(rows.size + 1, dtype=np.intp)
    np.cumsum(sizes, out=sub_ptr[1:])
    return sub_ptr, members[np.repeat(ptr[rows] - sub_ptr[:-1], sizes) + np.arange(sub_ptr[-1])]


def _sparse_counts(own_ptr, own, group_ptr, group, rows=None, cut=None):
    """Chunks of co-occurrence counts from pair lists.

    Item ``a`` belongs to the groups ``own[own_ptr[a]:own_ptr[a + 1]]``;
    group ``g`` has the members ``group[group_ptr[g]:group_ptr[g + 1]]``.
    The left items are ``rows`` (sorted), or every item when ``None``;
    ``cut`` is ``_take_rows(own_ptr, own, rows)``, which the caller has
    already taken to choose the path.
    """
    count = own_ptr.size - 1
    if rows is not None:
        own_ptr, own = cut
    left_items = own_ptr.size - 1
    group_size = np.diff(group_ptr)
    # emitted[a]: pairs emitted by the left items before a.
    emitted = np.concatenate(([0], np.cumsum(group_size[own])))[own_ptr]
    start = 0
    while start < left_items:
        stop = np.searchsorted(emitted, emitted[start] + BLOCK_CELLS, side="right") - 1
        stop = min(left_items, max(start + 1, stop))
        groups = own[own_ptr[start] : own_ptr[stop]]
        sizes = group_size[groups]
        items = np.arange(start, stop) if rows is None else rows[start:stop]
        left = np.repeat(np.repeat(items, np.diff(own_ptr[start : stop + 1])), sizes)
        # The k-th pair of an entry reads member k of that entry's group.
        offset = np.repeat(group_ptr[groups] - (np.cumsum(sizes) - sizes), sizes)
        right = group[offset + np.arange(left.size)]
        keys, common = np.unique(left * count + right, return_counts=True)
        yield keys // count, keys % count, common
        start = stop


def _bit_rows(group_ptr, group, count, w0, w1):
    """Words ``w0 .. w1 - 1`` of every item's bit row: bit ``k`` of
    ``bits[w - w0, a]`` is set iff item ``a`` is in group ``64·w + k``."""
    g0, g1 = 64 * w0, min(group_ptr.size - 1, 64 * w1)
    slot = np.repeat(np.arange(g1 - g0), np.diff(group_ptr[g0 : g1 + 1]))
    bits = np.zeros((w1 - w0, count), dtype=np.uint64)
    bit = np.left_shift(np.uint64(1), (slot & 63).astype(np.uint64))
    np.bitwise_or.at(bits, (slot >> 6, group[group_ptr[g0] : group_ptr[g1]]), bit)
    return bits


def _dense_counts(own_ptr, own, group_ptr, group, rows=None, cut=None):
    """The same chunks as :func:`_sparse_counts`, from bit rows: a block of
    left items' words ANDed with every item's, and the common bits counted.
    Bit rows are packed from the group lists alone, so ``cut`` goes unused;
    both paths take the same arguments."""
    count, groups = own_ptr.size - 1, group_ptr.size - 1
    left_items = count if rows is None else rows.size
    step = max(1, BLOCK_CELLS // max(1, count))  # left items, or words, per block
    words = -(-groups // 64)
    word_blocks = [(w0, min(words, w0 + step)) for w0 in range(0, words, step)]
    # A single word block is packed once; more are packed per left block.
    packed = [_bit_rows(group_ptr, group, count, *word_blocks[0])] if len(word_blocks) == 1 else None
    for lo in range(0, left_items, step):
        hi = min(left_items, lo + step)
        items = slice(lo, hi) if rows is None else rows[lo:hi]
        counts = np.zeros((hi - lo, count), dtype=np.int64)
        for bits in packed or (_bit_rows(group_ptr, group, count, *block) for block in word_blocks):
            for word in bits:
                counts += np.bitwise_count(word[items, None] & word)
        a, b = np.nonzero(counts)
        yield (a + lo if rows is None else items[a]), b, counts[a, b]


def _cooccurrence(own_ptr, own, group_ptr, group, rows=None):
    """Co-occurrence chunks for the left items ``rows`` (every item when
    ``None``) on the path the module docstring describes."""
    count, groups = own_ptr.size - 1, group_ptr.size - 1
    cut = None if rows is None else _take_rows(own_ptr, own, rows)
    left_items = count if rows is None else rows.size
    # Each left item pairs with every member of each of its groups.
    pairs = int(np.sum(np.diff(group_ptr)[own if rows is None else cut[1]]))
    # Packing bit rows only pays when the pairs fill several chunks.
    if pairs <= BLOCK_CELLS or pairs * PAIR_COST <= left_items * count * groups:
        return _sparse_counts(own_ptr, own, group_ptr, group, rows, cut)
    return _dense_counts(own_ptr, own, group_ptr, group, rows, cut)


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

    def edge_pairs(self, rows=None):
        """Chunks of 0-based edge pairs ``(a, b)`` with ``|a ∩ b| >= 1``, and
        that count; ``a`` only among the edges of the sorted index array
        ``rows`` when given."""
        return _cooccurrence(self.indptr, self.words, *self.columns, rows)

    def vertex_pairs(self, rows=None):
        """Chunks of 0-based vertex pairs ``(a, b)`` sharing at least one edge,
        and how many; ``a`` only among the vertices of the sorted index array
        ``rows`` when given."""
        return _cooccurrence(*self.columns, self.indptr, self.words, rows)


def incidence_matrix(h: Hypergraph) -> IncidenceMatrix:
    """The row-compressed incidence matrix of ``h``, on its stored arrays."""
    return IncidenceMatrix(h.m, h.n, h.indptr, h.words)
