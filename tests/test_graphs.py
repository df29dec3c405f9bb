import random
import tracemalloc
from itertools import combinations

import pytest

from mhskernel import (
    Graph,
    Hypergraph,
    compute_stats,
    dilworth_number,
    generate_random,
    incidence_graph,
    ingest_response_matrix,
    kernel_bound,
    matching_number,
    neighborhood_diversity,
    vinical_leq,
)
from mhskernel import bitmatrix
from mhskernel.bitmatrix import BLOCK_CELLS

from conftest import (
    brute_force_matching,
    brute_force_max_antichain,
    mixed_graph,
    naive_dilworth,
    naive_diversity,
    nested_neighborhood_graph,
    random_graph,
    response_matrix_csv,
    singletons,
)


def test_incidence_graph_shapes(ce):
    # Vertex j is node j - 1, edge i is node n + i - 1.
    g = incidence_graph(ce)
    assert g.num_nodes == 5 + 3
    assert g.num_edges == 2 + 3 + 3
    # edge-side node neighborhoods are exactly the hyperedge contents
    assert g.adj[5 + 2 - 1] == {j - 1 for j in (2, 3, 4)}
    g_t3 = incidence_graph(singletons(3))
    assert g_t3.num_edges == 3
    assert all(len(g_t3.adj[u]) == 1 for u in range(6))
    assert incidence_graph(Hypergraph(0, (), ())).num_nodes == 0
    # Empty edges and uncovered vertices stay isolated nodes.
    instances = [Hypergraph(4, ((), (1, 3), (1, 3)), (1, 1, 2))]
    instances += [generate_random(9, 7, 0.3, 2, seed) for seed in range(5)]
    for h in instances:
        pairs = [(j - 1, h.n + i - 1) for i, members in enumerate(h.edges, start=1) for j in members]
        assert incidence_graph(h) == Graph.from_edges(h.n + h.m, pairs)


def test_graph_rejects_nodes_out_of_range():
    # A negative id would otherwise index from the end and add a phantom neighbour.
    for edge in ((-1, 0), (0, -3), (3, 0), (0, 3)):
        with pytest.raises(IndexError):
            Graph.from_edges(3, [edge])


def test_vinical_examples():
    ladder = nested_neighborhood_graph(2)  # u1=0, v1=1, u2=2, v2=3
    assert vinical_leq(ladder, 2, 0)  # later isolated node sits below earlier
    assert not vinical_leq(ladder, 0, 2)
    g = incidence_graph(singletons(2))
    e1, e2 = 2, 3  # the edge-side nodes follow the two vertex-side ones
    assert not vinical_leq(g, e1, e2)
    assert not vinical_leq(g, e2, e1)
    for u in range(g.num_nodes):
        assert vinical_leq(g, u, u)  # reflexive
    with pytest.raises(IndexError):
        vinical_leq(ladder, 0, 99)


def test_vinical_transitive_on_random_triples():
    rng = random.Random(5)
    for seed in range(60):
        g = random_graph(seed)
        nodes = range(g.num_nodes)
        for _ in range(40):
            u, v, w = (rng.choice(nodes) for _ in range(3))
            if vinical_leq(g, u, v) and vinical_leq(g, v, w):
                assert vinical_leq(g, u, w)


@pytest.mark.parametrize("n", range(1, 9))
def test_nested_neighborhood_family(n):
    g = nested_neighborhood_graph(n)
    assert dilworth_number(g) == 1
    assert neighborhood_diversity(g) == 2 * n - 1


def test_dilworth_examples():
    assert dilworth_number(Graph.from_edges(1, [])) == 1
    assert dilworth_number(Graph.from_edges(0, [])) == 0
    for n in (1, 2, 5):
        assert dilworth_number(incidence_graph(singletons(n))) == n


def test_diversity_examples():
    complete4 = Graph.from_edges(4, list(combinations(range(4), 2)))
    assert neighborhood_diversity(complete4) == 1
    assert dilworth_number(complete4) == 1
    # In the incidence graph of two disjoint singletons each hyperedge node
    # and its single vertex are adjacent twins, leaving two classes.
    assert neighborhood_diversity(incidence_graph(singletons(2))) == 2


@pytest.mark.parametrize("seed", range(100))
def test_dilworth_vs_diversity_and_antichain_oracle(seed):
    g = random_graph(seed, max_nodes=12)
    nabla = dilworth_number(g)
    assert nabla <= neighborhood_diversity(g)
    assert nabla == brute_force_max_antichain(g)


def test_quotient_strict_order_is_acyclic():
    # Any cycle of strict comparabilities would collapse into one class.
    for seed in range(30):
        g = random_graph(seed, max_nodes=10)
        n = g.num_nodes
        strict = {
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and vinical_leq(g, u, v) and not vinical_leq(g, v, u)
        }

        def reaches(u, target, depth=0):
            if depth > n:
                return False
            return any(v == target or reaches(v, target, depth + 1) for w, v in strict if w == u)

        for u in range(n):
            assert not reaches(u, u)


def test_matching_examples(ce):
    for n in (1, 3, 6):
        assert matching_number(incidence_graph(singletons(n))) == n
    g = incidence_graph(ce)
    assert matching_number(g) == 3
    assert matching_number(g) == brute_force_matching(g)
    assert matching_number(Graph.from_edges(0, [])) == 0
    with pytest.raises(ValueError):
        matching_number(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))


@pytest.mark.parametrize("seed", range(25))
def test_matching_against_bruteforce_random(seed):
    rng = random.Random(seed)
    edges = [sorted(rng.sample(range(1, 6), rng.randint(1, 3))) for _ in range(rng.randint(1, 5))]
    h = Hypergraph.from_edges(5, edges, [1] * len(edges))
    g = incidence_graph(h)
    assert matching_number(g) == brute_force_matching(g)


def test_kernel_bound(ce):
    for n in (1, 4, 7):
        assert kernel_bound(singletons(n)) == 2 * n
    assert kernel_bound(Hypergraph(0, (), ())) == 0
    nabla = dilworth_number(incidence_graph(ce))
    assert kernel_bound(ce) == 2 * 2 * nabla
    assert nabla == 4  # frozen from the antichain oracle


def assert_matches_oracles(g):
    assert dilworth_number(g) == naive_dilworth(g)
    assert neighborhood_diversity(g) == naive_diversity(g)


@pytest.mark.parametrize("seed", range(60))
def test_parameters_match_oracles_on_mixed_graphs(seed):
    assert_matches_oracles(mixed_graph(seed))


def test_parameters_match_oracles_on_small_cases():
    for n in range(5):
        assert_matches_oracles(Graph.from_edges(n, []))
        assert_matches_oracles(Graph.from_edges(n, list(combinations(range(n), 2))))
    assert_matches_oracles(Graph.from_edges(4, [(2, 0), (3, 1)]))  # two adjacent leaf pairs
    assert_matches_oracles(Graph.from_edges(5, [(4, 1), (4, 2), (4, 3)]))  # star and an isolated node


@pytest.mark.parametrize("seed, rows, cols, modules", [(1, 450, 64, 5), (2, 300, 50, 7), (4, 250, 50, 6)])
def test_parameters_match_oracles_on_screen_inputs(seed, rows, cols, modules):
    h = ingest_response_matrix(response_matrix_csv(seed, rows, cols, modules), alpha=2)
    g = incidence_graph(h)
    # The co-occurrence kernel emits sum(deg²) pairs: several chunks here.
    assert sum(len(s) ** 2 for s in g.adj) > 2 * BLOCK_CELLS
    assert_matches_oracles(g)


def planted_dense_graph(seed: int, half: int = 150, p: float = 0.5) -> Graph:
    """A dense random part of ``half`` nodes, plus for each node one node
    adjacent to a subset of its neighbours (below it in the containment
    preorder); every fifth added node copies the previous one (a twin)."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(half) for v in range(u + 1, half) if rng.random() < p]
    nbrs = [set() for _ in range(half)]
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    keep: set[int] = set()
    for u in range(half):
        if u % 5:
            keep = {w for w in nbrs[u] if rng.random() < 0.9}
        pairs.extend((w, half + u) for w in keep)
    return Graph.from_edges(2 * half, pairs)


def test_parameters_match_oracles_on_dense_graph(monkeypatch):
    g = planted_dense_graph(1)

    def no_sparse_path(*args):
        raise AssertionError("expected the dense bit-row path")

    monkeypatch.setattr(bitmatrix, "_sparse_counts", no_sparse_path)
    nabla, diversity = dilworth_number(g), neighborhood_diversity(g)
    assert nabla == naive_dilworth(g)
    assert diversity == naive_diversity(g)
    assert nabla < g.num_nodes // 2 + 10 and diversity < g.num_nodes  # comparabilities and twins exist


def test_parameter_temporaries_stay_bounded_on_sparse_graph():
    # Only boolean num_nodes² arrays are held; one int64 count matrix of
    # this graph alone (18 MB) would break the bound.
    n = 1500
    rng = random.Random(7)
    g = Graph.from_edges(n, {tuple(sorted(rng.sample(range(n), 2))) for _ in range(2 * n)})
    tracemalloc.start()
    try:
        dilworth_number(g)
        neighborhood_diversity(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n + 400 * BLOCK_CELLS


def test_stats_compute_the_containment_preorder_once(monkeypatch):
    h = generate_random(n=40, m=30, p=0.2, alpha=2, seed=5)
    edge_pairs = bitmatrix.IncidenceMatrix.edge_pairs
    passes = []

    def counting(self):
        passes.append(self)
        return edge_pairs(self)

    monkeypatch.setattr(bitmatrix.IncidenceMatrix, "edge_pairs", counting)
    stats = compute_stats(h, {"dilworth", "diversity"})
    assert len(passes) == 1
    g = incidence_graph(h)
    assert stats == {"dilworth": naive_dilworth(g), "diversity": naive_diversity(g)}
