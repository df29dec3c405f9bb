"""Incidence-graph parameters: Dilworth number, neighborhood diversity, matching.

These are the verification-side parameters: the reduced size reachable by
the edge/vertex deletion rules is bounded by ``2 * alpha * dilworth`` of
the incidence graph, and the engines' round count is bounded by its
matching number plus one.  Everything here is exact.

The incidence graph is never built: every parameter is read off the
instance's :class:`~.bitmatrix.IncidenceMatrix`.  The containment
preorder comes in blocks.  Within a side it is read off the pairwise
common-neighbour counts, one ``vertex_pairs`` and one ``edge_pairs`` pass
taken in bounded chunks by the same co-occurrence kernel as the reduction
engines; across sides only isolated nodes and leaves lie below anything.
No count matrix is held, only ``(n + m)²`` booleans.  Two nodes lie below
each other exactly when they are twins, so the preorder's classes are the
twin classes that neighborhood diversity counts.  The maximum matching
takes the vertices as its left side and their edges from the matrix's
columns.

:func:`compute_stats` builds the matrix once for all requested
parameters and is the only route to them; the pipeline's bound fields
read them through it.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .bitmatrix import IncidenceMatrix, incidence_matrix
from .instance import Hypergraph, instance_size

STATS = ("dilworth", "diversity", "matching", "size")


def _containment(matrix: IncidenceMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The containment preorder of the incidence graph as a bool matrix
    ``leq``, and the lowest node of each class of nodes comparable in both
    directions (the twin classes); one pass serves both parameters.

    Vertex ``j`` is node ``j`` and edge ``i`` is node ``n + i`` (0-based).
    ``a <= b`` iff ``N(a) ⊆ N(b) ∪ {b}``.  Two nodes of one side are never
    adjacent, so there ``a <= b`` iff ``|N(a) ∩ N(b)| == deg(a)``, with the
    counts taken in chunks of the pairs that share a neighbour.  Two nodes
    of different sides share no neighbour, so there ``a <= b`` iff
    ``N(a) ⊆ {b}``: ``a`` is isolated or a leaf of ``b``.
    """
    n, nodes = matrix.cols, matrix.cols + matrix.rows
    deg = np.concatenate((matrix.col_sizes, matrix.row_sizes))
    # An isolated node lies below every node; otherwise, across sides, a
    # leaf lies below its one neighbour.
    leq = np.zeros((nodes, nodes), dtype=bool)
    leq[deg == 0] = True
    vertex, edge = matrix.words, n + np.repeat(np.arange(matrix.rows), matrix.row_sizes)
    leq[vertex, edge] = deg[vertex] == 1
    leq[edge, vertex] = deg[edge] == 1
    for a, b, common in matrix.vertex_pairs():
        leq[a, b] = common == deg[a]
    for a, b, common in matrix.edge_pairs():
        leq[n + a, n + b] = common == deg[n + a]
    if nodes == 0:  # argmax needs a node
        return leq, np.arange(0)
    rep = (leq & leq.T).argmax(axis=1)
    return leq, np.flatnonzero(rep == np.arange(nodes))


def _chain_cover(leq: np.ndarray, classes: np.ndarray) -> int:
    """Minimum number of chains covering the preorder ``leq``; equals the
    largest antichain.

    Nodes comparable in both directions collapse into one class (itself a
    chain), named by its lowest node; the answer is a minimum path cover of
    the strict class order: number of classes minus a maximum matching of
    the split comparability graph.
    """
    below = leq[np.ix_(classes, classes)]
    np.fill_diagonal(below, False)
    adjacency = {a: np.flatnonzero(row).tolist() for a, row in enumerate(below)}
    return classes.size - _hopcroft_karp(list(range(classes.size)), adjacency)


def _hopcroft_karp(left: list[int], adjacency: dict[int, list[int]]) -> int:
    """Layered augmenting-path maximum matching; deterministic in node order."""
    INF = float("inf")
    match_l: dict[int, int | None] = {u: None for u in left}
    match_r: dict[int, int | None] = {}
    size = 0
    while True:
        dist: dict[int, float] = {}
        queue = deque()
        for u in left:
            if match_l[u] is None:
                dist[u] = 0
                queue.append(u)
        reachable_free = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_r.get(v)
                if w is None:
                    reachable_free = True
                elif w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not reachable_free:
            return size

        def try_augment(root: int) -> bool:
            # An explicit stack, as a path can be as long as the graph; each
            # node above the root was reached through its partner match_l[node].
            stack = [(root, iter(adjacency[root]))]
            while stack:
                u, untried = stack[-1]
                for v in untried:
                    w = match_r.get(v)
                    if w is None:
                        for node, _ in reversed(stack):
                            match_r[v] = node
                            match_l[node], v = v, match_l[node]
                        return True
                    if dist.get(w) == dist[u] + 1:
                        stack.append((w, iter(adjacency[w])))
                        break
                else:
                    dist[u] = INF
                    stack.pop()
            return False

        for u in left:
            if match_l[u] is None and try_augment(u):
                size += 1


def compute_stats(h: Hypergraph, which: set[str]) -> dict[str, int]:
    """Requested parameters of the instance's incidence graph, read off one
    incidence matrix.

    ``which`` is a subset of :data:`STATS`:

    * ``dilworth``: the minimum number of chains of the
      neighborhood-containment preorder covering all nodes, which equals
      the largest antichain (0 for the empty instance);
    * ``diversity``: the number of classes of twins, nodes ``a`` and ``b``
      with ``N(a) - {b} == N(b) - {a}``, adjacent or not;
    * ``matching``: the maximum number of pairwise disjoint edges;
    * ``size``: :func:`~.instance.instance_size`.
    """
    unknown = which - set(STATS)
    if unknown:
        raise ValueError(f"unknown stats {sorted(unknown)}; expected subset of {sorted(STATS)}")
    out: dict[str, int] = {}
    if "size" in which:
        out["size"] = instance_size(h)
    if which & {"dilworth", "diversity", "matching"}:
        matrix = incidence_matrix(h)
        if which & {"dilworth", "diversity"}:
            leq, classes = _containment(matrix)
            if "dilworth" in which:
                out["dilworth"] = _chain_cover(leq, classes)
            if "diversity" in which:
                out["diversity"] = classes.size
        if "matching" in which:
            # The vertices are one side of the bipartite incidence graph.
            colptr, members = matrix.columns
            adjacency = {j: members[colptr[j] : colptr[j + 1]].tolist() for j in range(h.n)}
            out["matching"] = _hopcroft_karp(list(range(h.n)), adjacency)
    return out
