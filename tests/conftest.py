"""Shared instances and independent oracles.

Everything here is deliberately naive: subset enumeration, triple-loop
counting, pairwise neighbourhood tests, recursive matching search.
Oracles never reuse the code paths they check.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from mhskernel import Graph, Hypergraph, lp_rule_applicable, parse_instance, vinical_leq

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


def naive_edge_intersections(h: Hypergraph, edge_alive, vertex_alive):
    """|e_i ∩ e_j| over alive items, by plain set arithmetic."""
    members = [
        {v for v in e if vertex_alive[v - 1]} if edge_alive[i] else set()
        for i, e in enumerate(h.edges)
    ]
    return [
        [len(members[i] & members[j]) if edge_alive[i] and edge_alive[j] else None
         for j in range(h.m)]
        for i in range(h.m)
    ]


def naive_vertex_intersections(h: Hypergraph, edge_alive, vertex_alive):
    """|E(v_i) ∩ E(v_j)| over alive items."""
    incident = [
        {i for i in h.vertex_edges[j] if edge_alive[i - 1]} if vertex_alive[j] else set()
        for j in range(h.n)
    ]
    return [
        [len(incident[i] & incident[j]) if vertex_alive[i] and vertex_alive[j] else None
         for j in range(h.n)]
        for i in range(h.n)
    ]


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


def mixed_graph(seed: int) -> Graph:
    """Isolated nodes, adjacent leaf pairs, stars, a complete block and a
    random part, under a seeded relabelling so no case sits at fixed ids."""
    rng = random.Random(seed)
    pairs: list[tuple[int, int]] = []
    n = rng.randint(0, 3)  # isolated nodes
    for _ in range(rng.randint(0, 3)):  # adjacent leaves
        pairs.append((n, n + 1))
        n += 2
    for _ in range(rng.randint(0, 2)):  # stars
        leaves = rng.randint(1, 4)
        pairs.extend((n, n + k) for k in range(1, leaves + 1))
        n += leaves + 1
    block = rng.randint(0, 5)
    pairs.extend(combinations(range(n, n + block), 2))
    n += block
    rest = rng.randint(0, 15)
    p = rng.choice([0.1, 0.3, 0.6, 1.0])
    pairs.extend((u, v) for u in range(n, n + rest) for v in range(u + 1, n + rest) if rng.random() < p)
    n += rest
    label = list(range(n))
    rng.shuffle(label)
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in pairs])


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
