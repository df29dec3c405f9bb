"""Shared instances, independent oracles and one state check.

The oracles are deliberately naive: subset enumeration, pairwise
neighbourhood tests, recursive matching search.  Oracles never reuse the
code paths they check.  The graph parameters are checked on an explicit
incidence graph of frozenset neighbourhoods (``Graph``), which the
library itself never builds.
"""

from __future__ import annotations

import copy
import csv
import io
import math
import operator
import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations

import pytest

from mhskernel import (
    Hypergraph,
    ReductionState,
    generate_random,
    init_state,
    lp_rule_applicable,
    parse_instance,
    seq_reduce_edges,
    seq_reduce_vertices,
)

# Three edges {1,2}, {2,3,4}, {2,3,5}, all demanding two hits.  The
# canonical regression instance: vertex 3 must never be deleted by the
# domination rule (doing so raises the optimum from 3 to 4).
CE_TEXT = """\
p mhs 5 3
e 2 1 2
e 2 2 3 4
e 2 2 3 5
"""


@pytest.fixture
def ce() -> Hypergraph:
    return parse_instance(CE_TEXT)


def from_edges(n: int, edges, demand, budget: int | None = None) -> Hypergraph:
    """An instance from unsorted vertex lists.  Each edge is sorted, so the
    constructor refuses only a duplicate vertex within an edge (duplicate
    edges are fine)."""
    return Hypergraph(n, [sorted(members) for members in edges], demand, budget)


def singletons(n: int) -> Hypergraph:
    """n disjoint singleton edges with unit demands (the tight family)."""
    return Hypergraph(n, tuple((j,) for j in range(1, n + 1)), (1,) * n)


def brute_force_opt(h: Hypergraph) -> int | None:
    """Minimum hitting set size by subset enumeration; None if infeasible."""
    universe = list(range(1, h.n + 1))
    for size in range(h.n + 1):
        for subset in combinations(universe, size):
            picked = set(subset)
            if all(len(picked.intersection(e)) >= f for e, f in zip(h.edges, h.demand)):
                return size
    return None


def brute_force_feasible(h: Hypergraph) -> bool:
    full = set(range(1, h.n + 1))
    return all(len(full.intersection(e)) >= f for e, f in zip(h.edges, h.demand))


def dense_nested_instance(seed: int) -> Hypergraph:
    """A dense 300 x 300 instance on which both rules fire: every base
    vertex is tripled (equal incidences, so md applies) and every extra
    edge contains a base edge of the same demand (so dp applies)."""
    base = generate_random(n=100, m=150, p=0.5, alpha=2, seed=seed)
    tripled = [tuple(3 * v - k for v in e for k in (2, 1, 0)) for e in base.edges]
    extra = [tuple(sorted(set(tripled[i]) | set(tripled[(i + 1) % 150]))) for i in range(150)]
    return from_edges(300, tripled + extra, list(base.demand) * 2)


def overlay_copy(active):
    """A copy of an ``ActiveInstance`` overlay; only the input and its
    matrix, which no rule changes, are shared."""
    copied = copy.copy(active)
    copied.vertex_alive, copied.edge_alive = list(active.vertex_alive), list(active.edge_alive)
    copied.demand = list(active.demand)
    return copied


def assert_candidates_sound(state) -> None:
    """The sequential state's candidate masks miss no deletion: on copies of
    the state, each phase deletes with the state's candidates exactly what
    it deletes with every alive item as a candidate.  (A check of the
    engine against itself, not an oracle: the phases are shared.)"""
    for phase in (seq_reduce_edges, lambda s: seq_reduce_edges(s, "se"), seq_reduce_vertices):
        narrow = ReductionState(overlay_copy(state.active), state.cand_edges.copy(), state.cand_vertices.copy())
        every = init_state(state.active.h, overlay_copy(state.active))
        assert phase(narrow) == phase(every)
        assert narrow.active.edge_alive == every.active.edge_alive
        assert narrow.active.vertex_alive == every.active.vertex_alive


@lru_cache(maxsize=64)
def vertex_edges(h: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """Per vertex, the increasing tuple of edge ids containing it (cached,
    since the per-vertex references below ask for it once per vertex)."""
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for i, members in enumerate(h.edges, start=1):
        for j in members:
            incident[j - 1].append(i)
    return tuple(tuple(lst) for lst in incident)


def edges_of(h: Hypergraph, j: int) -> frozenset[int]:
    """Ids of the edges containing vertex ``j``."""
    if not 1 <= j <= h.n:
        raise IndexError(f"vertex {j} out of range 1..{h.n}")
    return frozenset(vertex_edges(h)[j - 1])


def require_vertex(active, j: int) -> None:
    if not 1 <= j <= active.h.n:
        raise IndexError(f"vertex {j} out of range 1..{active.h.n}")
    if not active.vertex_alive[j - 1]:
        raise ValueError(f"vertex {j} is deleted")


def vertex_incidences(active, j: int) -> tuple[int, ...]:
    """Alive edges of an ``ActiveInstance`` containing vertex ``j``."""
    return tuple(i for i in vertex_edges(active.h)[j - 1] if active.edge_alive[i - 1])


def supersedes(active, i: int, j: int) -> bool:
    """Whether edge ``i`` pushes at least ``f(j)`` demand into edge ``j`` of
    an ``ActiveInstance``, i.e. ``f(i) - |i \\ j| >= f(j)`` over current
    contents: the demand-pushing rule for one pair, the engines' reference."""
    if i == j:
        raise ValueError("supersedence is checked between distinct edges")
    active.require_edge(i)
    active.require_edge(j)
    in_j = set(active.edge_members(j))
    only_i = sum(1 for v in active.edge_members(i) if v not in in_j)
    return active.demand[i - 1] - only_i >= active.demand[j - 1]


def dominators(active, j: int) -> frozenset[int]:
    """Alive vertices whose incidences contain all of vertex ``j``'s."""
    require_vertex(active, j)
    own = set(vertex_incidences(active, j))
    out = []
    for i in range(1, active.h.n + 1):
        if i != j and active.vertex_alive[i - 1] and own.issubset(vertex_incidences(active, i)):
            out.append(i)
    return frozenset(out)


def md_applicable(active, j: int) -> bool:
    """Whether vertex ``j`` has enough dominators to cover the largest
    demand among its alive edges (a vertex in no alive edge always has):
    the multiple-domination rule for one vertex, the engines' reference."""
    require_vertex(active, j)
    need = max((active.demand[i - 1] for i in vertex_incidences(active, j)), default=0)
    if need == 0:
        return True
    return len(dominators(active, j)) >= need


def naive_extract(active) -> tuple[Hypergraph, list[int], list[int]]:
    """The alive items of an ``ActiveInstance`` compacted through a
    renumbering dict: the renumbered hypergraph plus the original 1-based
    ids of its vertices and edges, in order."""
    vertex_ids = [j + 1 for j in range(active.h.n) if active.vertex_alive[j]]
    edge_ids = active.alive_edge_ids()
    new_id = {v: k + 1 for k, v in enumerate(vertex_ids)}
    edges = tuple(tuple(new_id[j] for j in active.edge_members(i)) for i in edge_ids)
    demand = tuple(active.demand[i - 1] for i in edge_ids)
    return Hypergraph(len(vertex_ids), edges, demand, active.h.budget), vertex_ids, edge_ids


def rescan_lp_pass(active, oracle) -> set[int]:
    """The lower-bound rule applied edge by edge, rescanning every alive
    edge after any scan that deleted something, until one deletes nothing."""
    deleted: set[int] = set()
    changed = True
    while changed:
        changed = False
        for j in active.alive_edge_ids():
            if lp_rule_applicable(active, j, oracle):
                active.edge_alive[j - 1] = False
                deleted.add(j)
                changed = True
    return deleted


def fixpoint_fe(active) -> tuple[set[int], set[int], bool]:
    """The full-edge rule one edge at a time on an ``ActiveInstance``:
    pick any alive full edge, force its alive vertices, lower the demand of
    every alive edge per forced vertex it holds, delete the edges left with
    no demand, and repeat until no alive edge is full.  Returns the deleted
    edges, the forced vertices and whether some alive edge was found with
    more demand than alive vertices (the search stops there)."""
    deleted_edges: set[int] = set()
    forced: set[int] = set()
    while True:
        alive = [i for i in range(1, active.h.m + 1) if active.edge_alive[i - 1]]
        members = {i: {v for v in active.h.edges[i - 1] if active.vertex_alive[v - 1]} for i in alive}
        if any(active.demand[i - 1] > len(members[i]) for i in alive):
            return deleted_edges, forced, True
        full = [i for i in alive if active.demand[i - 1] == len(members[i])]
        if not full:
            return deleted_edges, forced, False
        for v in members[full[0]]:
            active.vertex_alive[v - 1] = False
            forced.add(v)
            for i in alive:
                if v in members[i]:
                    active.demand[i - 1] -= 1
        for i in alive:
            if active.demand[i - 1] <= 0:
                active.edge_alive[i - 1] = False
                deleted_edges.add(i)


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


def incidence_graph(h: Hypergraph) -> Graph:
    """Bipartite incidence graph of a hypergraph.

    Vertex ``j`` of the hypergraph becomes node ``j-1``; edge ``i`` becomes
    node ``n + i - 1``.  An edge-side node is adjacent exactly to the
    vertices the hyperedge contains.
    """
    vertex_side = (frozenset(h.n + i - 1 for i in incident) for incident in vertex_edges(h))
    edge_side = (frozenset(j - 1 for j in members) for members in h.edges)
    return Graph((*vertex_side, *edge_side))


def vinical_leq(g: Graph, u: int, v: int) -> bool:
    """Whether u's neighborhood is contained in v's closed neighborhood."""
    n = len(g.adj)
    if not (0 <= u < n and 0 <= v < n):
        raise IndexError(f"node out of range 0..{n - 1}")
    return g.adj[u] <= g.adj[v] | {v}


def brute_force_matching(g: Graph) -> int:
    """Maximum matching size by exhaustive search over edge subsets."""
    edges = sorted({(min(u, v), max(u, v)) for u in range(g.num_nodes) for v in g.adj[u]})

    def grow(idx: int, used: set[int]) -> int:
        if idx == len(edges):
            return 0
        best = grow(idx + 1, used)
        u, v = edges[idx]
        if u not in used and v not in used:
            used |= {u, v}
            best = max(best, 1 + grow(idx + 1, used))
            used -= {u, v}
        return best

    return grow(0, set())


def brute_force_max_antichain(g: Graph) -> int:
    """Largest set of pairwise incomparable nodes, by subset enumeration."""
    n = g.num_nodes
    best = 0
    for mask in range(1 << n):
        nodes = [u for u in range(n) if mask >> u & 1]
        if len(nodes) <= best:
            continue
        ok = all(
            not vinical_leq(g, u, v) and not vinical_leq(g, v, u)
            for a, u in enumerate(nodes)
            for v in nodes[a + 1 :]
        )
        if ok:
            best = len(nodes)
    return best


def naive_dilworth(g: Graph) -> int:
    """Minimum chain cover of the containment preorder: classes from
    pairwise ``vinical_leq``, minus a maximum matching of the strict class
    order found by plain augmenting paths."""
    n = g.num_nodes
    leq = [[vinical_leq(g, u, v) for v in range(n)] for u in range(n)]
    reps = [u for u in range(n) if not any(leq[u][v] and leq[v][u] for v in range(u))]
    above = {a: [b for b in reps if b != a and leq[a][b]] for a in reps}
    matched_to: dict[int, int] = {}

    def augment(a: int, seen: set[int]) -> bool:
        for b in above[a]:
            if b not in seen:
                seen.add(b)
                if b not in matched_to or augment(matched_to[b], seen):
                    matched_to[b] = a
                    return True
        return False

    return len(reps) - sum(augment(a, set()) for a in reps)


def naive_diversity(g: Graph) -> int:
    """Classes of nodes whose neighbourhoods agree outside each other, by
    pairwise set comparison and union-find."""
    n = g.num_nodes
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(n):
        for v in range(u + 1, n):
            if g.adj[u] - {v} == g.adj[v] - {u}:
                parent[find(u)] = find(v)
    return len({find(x) for x in range(n)})


def random_graph(seed: int, max_nodes: int = 12) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(1, max_nodes)
    p = rng.choice([0.15, 0.3, 0.5, 0.8])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, pairs)


def random_hypergraph(seed: int, max_nodes: int = 12) -> Hypergraph:
    """A seeded instance whose incidence graph has 1..max_nodes nodes."""
    rng = random.Random(seed)
    nodes = rng.randint(1, max_nodes)
    n = rng.randint(0, nodes)
    p = rng.choice([0.15, 0.3, 0.5, 0.8])
    edges = [[j for j in range(1, n + 1) if rng.random() < p] for _ in range(nodes - n)]
    return from_edges(n, edges, [1] * len(edges))


def mixed_hypergraph(seed: int) -> Hypergraph:
    """Isolated vertices, empty edges, leaves on both sides, duplicate
    edges, complete bipartite blocks and a random part, under seeded
    relabellings of the vertices and the edges so no case sits at fixed ids."""
    rng = random.Random(seed)
    n = rng.randint(0, 3)  # isolated vertices
    edges: list[list[int]] = [[] for _ in range(rng.randint(0, 2))]
    for _ in range(rng.randint(0, 2)):  # stars: an edge of vertex-side leaves
        leaves = rng.randint(1, 4)
        edges.append(list(range(n, n + leaves)))
        n += leaves
    for _ in range(rng.randint(0, 2)):  # a vertex whose edges are edge-side leaves
        edges.extend([n] for _ in range(rng.randint(1, 3)))
        n += 1
    for _ in range(rng.randint(0, 2)):  # complete bipartite blocks K_{a,b}
        a, b = rng.randint(1, 4), rng.randint(1, 3)
        edges.extend(list(range(n, n + a)) for _ in range(b))
        n += a
    rest_n = rng.randint(0, 8)
    p = rng.choice([0.1, 0.3, 0.6, 1.0])
    rest = [[v for v in range(n, n + rest_n) if rng.random() < p] for _ in range(rng.randint(0, 8))]
    edges.extend(rest + rng.sample(rest, min(len(rest), rng.randint(0, 2))))  # duplicate edges
    n += rest_n
    label = list(range(1, n + 1))
    rng.shuffle(label)
    rng.shuffle(edges)
    return from_edges(n, [[label[v] for v in e] for e in edges], [1] * len(edges))


def complete_bipartite(a: int, b: int) -> Hypergraph:
    """``b`` copies of the edge ``{1..a}``: the incidence graph is ``K_{a,b}``."""
    return from_edges(a, [range(1, a + 1)] * b, [1] * b)


def nested_hypergraph(n: int) -> Hypergraph:
    """The nested edges ``{1..i}``, ``i = 1..n``.

    Each side of the incidence graph is one containment chain, and the last
    vertex and the first edge are leaves below the last edge and the first
    vertex, so for n >= 2 two chains cover everything while no two nodes
    are twins.
    """
    return from_edges(n, [range(1, i + 1) for i in range(1, n + 1)], [1] * n)


def response_matrix_csv(seed: int, rows: int, cols: int, modules: int) -> str:
    """Gaussian responses with planted, overlapping modules: each row
    responds on most columns of one module, so its thresholded edge is that
    module with dropout plus a little noise."""
    rng = random.Random(seed)
    planted = [rng.sample(range(cols), rng.randint(5, 10)) for _ in range(modules)]
    lines = []
    for _ in range(rows):
        values = [rng.gauss(0.0, 1.0) for _ in range(cols)]
        for c in rng.choice(planted):
            if rng.random() < 0.95:
                values[c] += 5.0
        lines.append(",".join(f"{v:.3f}" for v in values))
    return "\n".join(lines) + "\n"


def ingest_reference(text: str, sigmas: float, alpha: int, direction: str) -> Hypergraph:
    """Response-matrix thresholding cell by cell: ``csv.reader`` and
    ``float()`` for the cells, then per row a mean and a population
    deviation summed left to right, as ``ingest_response_matrix``
    documents.  A row whose spread overflows raises ``ValueError``."""
    rows = [[float(cell) for cell in row] for row in csv.reader(io.StringIO(text)) if any(c.strip() for c in row)]
    edges = []
    demand = []
    for values in rows:
        mean = reduce(operator.add, values, 0.0) / len(values)
        sigma = math.sqrt(reduce(operator.add, [(x - mean) * (x - mean) for x in values], 0.0) / len(values))
        if math.isinf(sigma):
            raise ValueError("the spread of a row overflows a float")
        if direction == "above":
            members = [j + 1 for j, x in enumerate(values) if x > mean + sigmas * sigma]
        else:
            members = [j + 1 for j, x in enumerate(values) if x < mean - sigmas * sigma]
        if members:
            edges.append(tuple(members))
            demand.append(min(alpha, len(members)))
    return Hypergraph(len(rows[0]) if rows else 0, tuple(edges), tuple(demand))


def nested_neighborhood_graph(n: int) -> Graph:
    """2n nodes added as (isolated, adjacent-to-all-before) pairs.

    One neighborhood-containment chain covers everything, yet all node
    pairs except the first two are pairwise distinguishable, so the
    diversity count is 2n - 1 while the chain-cover number is 1.
    """
    pairs = []
    added: list[int] = []
    for i in range(n):
        u = 2 * i
        added.append(u)
        v = 2 * i + 1
        pairs.extend((v, w) for w in added)
        added.append(v)
    return Graph.from_edges(2 * n, pairs)


def disjoint_union(a: Hypergraph, b: Hypergraph) -> Hypergraph:
    edges = a.edges + tuple(tuple(v + a.n for v in e) for e in b.edges)
    return Hypergraph(a.n + b.n, edges, a.demand + b.demand)
