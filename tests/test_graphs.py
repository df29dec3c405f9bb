import random
import tracemalloc

import pytest

from mhskernel import (
    Hypergraph,
    PipelineSpec,
    compute_stats,
    generate_random,
    ingest_response_matrix,
    run_pipeline,
)
from mhskernel import bitmatrix, graphparams
from mhskernel.bitmatrix import BLOCK_CELLS

from conftest import (
    Graph,
    brute_force_matching,
    brute_force_max_antichain,
    complete_bipartite,
    from_edges,
    incidence_graph,
    mixed_hypergraph,
    naive_dilworth,
    naive_diversity,
    nested_hypergraph,
    nested_neighborhood_graph,
    random_graph,
    random_hypergraph,
    response_matrix_csv,
    singletons,
    vinical_leq,
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
    h = nested_hypergraph(n)
    g = incidence_graph(h)
    stats = compute_stats(h, {"dilworth", "diversity"})
    assert stats["dilworth"] == (2 if n > 1 else 1) == naive_dilworth(g)
    assert stats["diversity"] == (2 * n if n > 1 else 1) == naive_diversity(g)


def test_dilworth_examples():
    assert compute_stats(Hypergraph(1, (), ()), {"dilworth"})["dilworth"] == 1
    assert compute_stats(Hypergraph(0, (), ()), {"dilworth"})["dilworth"] == 0
    for n in (1, 2, 5):
        assert compute_stats(singletons(n), {"dilworth"})["dilworth"] == n


def test_diversity_examples():
    # K_{3,4}: the vertices are twins and so are the edges, and neither
    # side lies below the other.
    k34 = complete_bipartite(3, 4)
    stats = compute_stats(k34, {"dilworth", "diversity"})
    assert stats["diversity"] == 2 == naive_diversity(incidence_graph(k34))
    assert stats["dilworth"] == 2 == naive_dilworth(incidence_graph(k34))
    # In the incidence graph of two disjoint singletons each hyperedge node
    # and its single vertex are adjacent twins, leaving two classes.
    assert compute_stats(singletons(2), {"diversity"})["diversity"] == 2


@pytest.mark.parametrize("seed", range(100))
def test_dilworth_vs_diversity_and_antichain_oracle(seed):
    h = random_hypergraph(seed)
    stats = compute_stats(h, {"dilworth", "diversity", "matching"})
    assert stats["dilworth"] <= stats["diversity"]
    assert stats["dilworth"] == brute_force_max_antichain(incidence_graph(h))
    assert stats["matching"] == brute_force_matching(incidence_graph(h))


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
        assert compute_stats(singletons(n), {"matching"})["matching"] == n
    assert compute_stats(ce, {"matching"})["matching"] == 3
    assert compute_stats(ce, {"matching"})["matching"] == brute_force_matching(incidence_graph(ce))
    assert compute_stats(Hypergraph(0, (), ()), {"matching"})["matching"] == 0
    assert compute_stats(Hypergraph(2, ((), ()), (1, 1)), {"matching"})["matching"] == 0
    k34 = complete_bipartite(3, 4)
    assert compute_stats(k34, {"matching"})["matching"] == 3 == brute_force_matching(incidence_graph(k34))


@pytest.mark.parametrize("seed", range(25))
def test_matching_against_bruteforce_random(seed):
    rng = random.Random(seed)
    edges = [sorted(rng.sample(range(1, 6), rng.randint(1, 3))) for _ in range(rng.randint(1, 5))]
    h = from_edges(5, edges, [1] * len(edges))
    assert compute_stats(h, {"matching"})["matching"] == brute_force_matching(incidence_graph(h))


def test_kernel_bound(ce):
    def bound(h):
        return run_pipeline(h, PipelineSpec(("dp", "md")), compute_bounds=True)[1].bound_2_alpha_nabla

    for n in (1, 4, 7):
        assert bound(singletons(n)) == 2 * n
    assert bound(Hypergraph(0, (), ())) == 0
    nabla = compute_stats(ce, {"dilworth"})["dilworth"]
    assert bound(ce) == 2 * 2 * nabla
    assert nabla == 4  # frozen from the antichain oracle


def assert_matches_oracles(h):
    g = incidence_graph(h)
    stats = compute_stats(h, {"dilworth", "diversity"})
    assert stats["dilworth"] == naive_dilworth(g)
    assert stats["diversity"] == naive_diversity(g)


@pytest.mark.parametrize("seed", range(60))
def test_parameters_match_oracles_on_mixed_graphs(seed):
    assert_matches_oracles(mixed_hypergraph(seed))


def test_parameters_match_oracles_on_small_cases():
    for n in range(5):
        assert_matches_oracles(Hypergraph(n, (), ()))  # isolated vertices
        assert_matches_oracles(Hypergraph(0, ((),) * n, (1,) * n))  # empty edges
        for b in range(1, 4):
            assert_matches_oracles(complete_bipartite(n, b))
    assert_matches_oracles(singletons(2))  # two adjacent leaf pairs
    assert_matches_oracles(Hypergraph(4, ((1, 2, 3),), (1,)))  # star and an isolated vertex


@pytest.mark.parametrize("seed, rows, cols, modules", [(1, 450, 64, 5), (2, 300, 50, 7), (4, 250, 50, 6)])
def test_parameters_match_oracles_on_screen_inputs(seed, rows, cols, modules):
    h = ingest_response_matrix(response_matrix_csv(seed, rows, cols, modules), alpha=2)
    # The co-occurrence kernel emits sum(deg²) pairs: several chunks here.
    assert sum(len(s) ** 2 for s in incidence_graph(h).adj) > 2 * BLOCK_CELLS
    assert_matches_oracles(h)


def planted_dense_hypergraph(seed: int, half: int = 75, p: float = 0.5) -> Hypergraph:
    """A dense random ``half × half`` part, then for each vertex one vertex
    in a subset of its edges (below it in the containment preorder), then
    for each edge one edge holding a subset of it, closed under that
    planting so the vertices stay below; every fifth added item copies the
    previous one (a twin)."""
    rng = random.Random(seed)
    edges = [{v for v in range(half) if rng.random() < p} for _ in range(half)]
    keep: set[int] = set()
    for v in range(half):
        if v % 5:
            keep = {i for i in range(half) if v in edges[i] and rng.random() < 0.9}
        for i in keep:
            edges[i].add(half + v)
    kept: set[int] = set()
    for i in range(half):
        if i % 5:
            base = {v for v in edges[i] if v < half and rng.random() < 0.9}
            kept = base | {half + v for v in base if half + v in edges[i]}
        edges.append(set(kept))
    return from_edges(2 * half, [[v + 1 for v in e] for e in edges], [1] * len(edges))


def test_parameters_match_oracles_on_dense_graph(monkeypatch):
    h = planted_dense_hypergraph(1)

    def no_sparse_path(*args):
        raise AssertionError("expected the dense bit-row path")

    monkeypatch.setattr(bitmatrix, "_sparse_counts", no_sparse_path)
    stats = compute_stats(h, {"dilworth", "diversity"})
    nabla, diversity = stats["dilworth"], stats["diversity"]
    g = incidence_graph(h)
    assert nabla == naive_dilworth(g)
    assert diversity == naive_diversity(g)
    assert nabla < g.num_nodes // 2 + 10 and diversity < g.num_nodes  # comparabilities and twins exist


def test_parameter_temporaries_stay_bounded_on_sparse_graph():
    # Only boolean num_nodes² arrays are held; one int64 count matrix of
    # this incidence graph alone (18 MB) would break the bound.
    n = 1500
    rng = random.Random(7)
    h = from_edges(n // 2, [rng.sample(range(1, n // 2 + 1), 4) for _ in range(n // 2)], [1] * (n // 2))
    tracemalloc.start()
    try:
        compute_stats(h, {"dilworth"})
        compute_stats(h, {"diversity"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n + 400 * BLOCK_CELLS


def test_stats_compute_the_containment_preorder_once(monkeypatch):
    h = generate_random(n=40, m=30, p=0.2, alpha=2, seed=5)
    calls = []

    def counted(name, fn):
        def run(*args):
            calls.append(name)
            return fn(*args)
        return run

    monkeypatch.setattr(graphparams, "incidence_matrix", counted("build", graphparams.incidence_matrix))
    for name in ("edge_pairs", "vertex_pairs"):
        monkeypatch.setattr(bitmatrix.IncidenceMatrix, name, counted(name, getattr(bitmatrix.IncidenceMatrix, name)))
    stats = compute_stats(h, {"dilworth", "diversity"})
    assert sorted(calls) == ["build", "edge_pairs", "vertex_pairs"]
    g = incidence_graph(h)
    assert stats == {"dilworth": naive_dilworth(g), "diversity": naive_diversity(g)}
