"""Incidence-graph parameters: Dilworth number, neighborhood diversity, matching.

These are the verification-side parameters: the reduced size reachable by
the edge/vertex deletion rules is bounded by ``2 * alpha * dilworth`` of
the incidence graph, and the engines' round count is bounded by its
matching number plus one.  Everything here is exact.

The containment preorder is read off the pairwise common-neighbour counts
``|N(a) ∩ N(b)|``, taken in bounded chunks by the same co-occurrence
kernel as the reduction engines (:mod:`.bitmatrix`); no count matrix is
held, only ``num_nodes²`` booleans.  Two nodes lie below each other
exactly when they are twins, so the preorder's classes are the twin
classes that neighborhood diversity counts.

:func:`compute_stats` builds the incidence graph once for all requested
parameters; :func:`kernel_bound` and the pipeline's bound fields read
them through it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bitmatrix import IncidenceMatrix
from .instance import Hypergraph, instance_size

STATS = ("dilworth", "diversity", "matching", "size")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes ``0..num_nodes-1``."""

    adj: tuple[frozenset[int], ...]

    @classmethod
    def from_edges(cls, num_nodes: int, edges) -> "Graph":
        sets: list[set[int]] = [set() for _ in range(num_nodes)]
        for u, v in edges:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise IndexError(f"edge ({u}, {v}) has a node out of range 0..{num_nodes - 1}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            sets[u].add(v)
            sets[v].add(u)
        return cls(tuple(frozenset(s) for s in sets))

    @property
    def num_nodes(self) -> int:
        return len(self.adj)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    @cached_property
    def _containment(self) -> tuple[np.ndarray, np.ndarray]:
        """The containment preorder as a bool matrix ``leq``, and the lowest
        node of each class of nodes comparable in both directions (the twin
        classes); one pass per graph serves both parameters.

        ``a <= b`` iff ``|N(a) ∩ N(b)| + [a ~ b] == deg(a)``, with the counts
        taken in chunks of the node pairs that share a neighbour.  Needs at
        least one node.
        """
        n = self.num_nodes
        deg = np.fromiter(map(len, self.adj), dtype=np.intp, count=n)
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(deg, out=indptr[1:])
        nbr = np.fromiter((v for s in self.adj for v in sorted(s)), dtype=np.intp, count=int(indptr[-1]))
        adj = np.zeros((n, n), dtype=bool)
        adj[np.repeat(np.arange(n), deg), nbr] = True
        # Pairs sharing no neighbour: N(a) ⊆ {b}, so a is isolated or a leaf of b.
        leq = deg[:, None] == adj
        for a, b, common in IncidenceMatrix(n, n, indptr, nbr).edge_pairs():
            leq[a, b] = common + adj[a, b] == deg[a]
        del adj
        rep = (leq & leq.T).argmax(axis=1)
        return leq, np.flatnonzero(rep == np.arange(n))


def incidence_graph(h: Hypergraph) -> Graph:
    """Bipartite incidence graph of a hypergraph.

    Vertex ``j`` of the hypergraph becomes node ``j-1``; edge ``i`` becomes
    node ``n + i - 1``.  An edge-side node is adjacent exactly to the
    vertices the hyperedge contains.
    """
    vertex_side = (frozenset(h.n + i - 1 for i in incident) for incident in h.vertex_edges)
    edge_side = (frozenset(j - 1 for j in members) for members in h.edges)
    return Graph((*vertex_side, *edge_side))


def vinical_leq(g: Graph, u: int, v: int) -> bool:
    """Whether u's neighborhood is contained in v's closed neighborhood."""
    n = len(g.adj)
    if not (0 <= u < n and 0 <= v < n):
        raise IndexError(f"node out of range 0..{n - 1}")
    return g.adj[u] <= g.adj[v] | {v}


def dilworth_number(g: Graph) -> int:
    """Minimum number of chains of the neighborhood-containment preorder
    covering all nodes; equals the largest antichain.  0 for the empty graph.

    Nodes comparable in both directions collapse into one class (itself a
    chain), named by its lowest node; the answer is a minimum path cover of
    the strict class order: number of classes minus a maximum matching of
    the split comparability graph.
    """
    if g.num_nodes == 0:
        return 0
    leq, classes = g._containment
    below = leq[np.ix_(classes, classes)]
    np.fill_diagonal(below, False)
    adjacency = {a: np.flatnonzero(row).tolist() for a, row in enumerate(below)}
    return classes.size - _hopcroft_karp(list(range(classes.size)), adjacency)


def neighborhood_diversity(g: Graph) -> int:
    """Number of classes of nodes with identical neighborhoods up to each
    other (adjacent twins and non-adjacent twins both collapse).

    ``a`` and ``b`` are twins, ``N(a) - {b} == N(b) - {a}``, exactly when
    each lies below the other in the containment preorder, so these are
    the classes :func:`dilworth_number` builds.
    """
    if g.num_nodes == 0:
        return 0
    return g._containment[1].size


def _bipartition(g: Graph) -> tuple[list[int], list[int]]:
    color = [-1] * g.num_nodes
    left, right = [], []
    for start in range(g.num_nodes):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    raise ValueError("graph is not bipartite")
    for u in range(g.num_nodes):
        (left if color[u] == 0 else right).append(u)
    return left, right


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


def matching_number(g: Graph) -> int:
    """Maximum number of pairwise disjoint edges; rejects non-bipartite input."""
    left, _ = _bipartition(g)
    adjacency = {u: sorted(g.adj[u]) for u in left}
    return _hopcroft_karp(left, adjacency)


def compute_stats(h: Hypergraph, which: set[str]) -> dict[str, int]:
    """Requested parameters of the instance's incidence graph, built once.

    ``which`` is a subset of :data:`STATS`.
    """
    unknown = which - set(STATS)
    if unknown:
        raise ValueError(f"unknown stats {sorted(unknown)}; expected subset of {sorted(STATS)}")
    out: dict[str, int] = {}
    if "size" in which:
        out["size"] = instance_size(h)
    if which & {"dilworth", "diversity", "matching"}:
        g = incidence_graph(h)
        if "dilworth" in which:
            out["dilworth"] = dilworth_number(g)
        if "diversity" in which:
            out["diversity"] = neighborhood_diversity(g)
        if "matching" in which:
            out["matching"] = matching_number(g)
    return out


def kernel_bound(h: Hypergraph) -> int:
    """Size bound ``2 * alpha * dilworth(incidence graph)`` guaranteed for
    the reduced instance after one edge phase followed by one vertex phase."""
    return 2 * h.alpha * compute_stats(h, {"dilworth"})["dilworth"]
