import json
import tracemalloc

import numpy as np
import pytest

from mhskernel import (
    ActiveInstance,
    Hypergraph,
    PipelineSpec,
    compute_stats,
    generate_random,
    incidence_matrix,
    par_kernelize,
    par_reduce_edges,
    par_reduce_vertices,
    run_pipeline,
    seq_kernelize,
    serialize_instance,
    solve_opt,
)

from mhskernel.bitmatrix import BLOCK_CELLS, PAIR_COST, _dense_counts, _sparse_counts
from mhskernel.cli import main

from conftest import (
    brute_force_opt,
    dense_nested_instance,
    dominators,
    from_edges,
    md_applicable,
    singletons,
    supersedes,
    vertex_edges,
    vertex_incidences,
)


def test_edge_phase_tie_breaks_duplicates():
    h = Hypergraph(1, ((1,), (1,)), (1, 1))
    keep = par_reduce_edges(incidence_matrix(h), h.demand)
    assert keep == [True, False]


def test_edge_phase_ce_deletes_nothing(ce):
    keep = par_reduce_edges(incidence_matrix(ce), ce.demand)
    assert keep == [True, True, True]


def test_edge_phase_one_way_supersedence():
    h = from_edges(4, [[1, 2, 3], [3, 4]], [3, 1])
    keep = par_reduce_edges(incidence_matrix(h), h.demand)
    assert keep == [True, False]


def test_edge_phase_se_variant():
    # containment with lower demand must NOT fire under the superedge rule
    h = from_edges(3, [[1, 2], [1, 2, 3]], [1, 2])
    assert par_reduce_edges(incidence_matrix(h), h.demand, rule="se") == [True, True]
    equal = from_edges(3, [[1, 2], [1, 2, 3]], [2, 2])
    assert par_reduce_edges(incidence_matrix(equal), equal.demand, rule="se") == [True, False]
    with pytest.raises(ValueError):
        par_reduce_edges(incidence_matrix(h), h.demand, rule="w2")


def test_vertex_phase_dominated_tail():
    h = from_edges(4, [[1, 2, 3], [1, 2, 3, 4]], [2, 2])
    keep = par_reduce_vertices(incidence_matrix(h), h.demand)
    assert keep == [True, True, False, False]


def test_vertex_phase_ce_protects_vertex_three(ce):
    keep = par_reduce_vertices(incidence_matrix(ce), ce.demand)
    assert keep[2]  # vertex 3 has one dominator against demand two
    assert keep[:2] == [True, True]
    # vertices 4 and 5 each have two dominators against demand two
    assert keep[3] is False and keep[4] is False


def test_vertex_phase_unit_demand_domination():
    h = from_edges(3, [[1, 2], [1, 3]], [1, 1])
    # every edge with vertex 2 or 3 also has vertex 1
    keep = par_reduce_vertices(incidence_matrix(h), h.demand)
    assert keep == [True, False, False]


def test_vertex_phase_orphans_go():
    h = Hypergraph(3, ((2,),), (1,))
    keep = par_reduce_vertices(incidence_matrix(h), h.demand)
    assert keep == [False, True, False]


def test_kernelize_fixpoints(ce):
    run = par_kernelize(singletons(5))
    assert run.alive_vertices == (1, 2, 3, 4, 5)
    assert run.alive_edges == (1, 2, 3, 4, 5)
    assert run.report.rounds == 1

    run = par_kernelize(ce)
    assert run.alive_vertices == (1, 2, 3)
    assert run.alive_edges == (1, 2)
    assert run.report.rounds == 3
    assert run.report.deleted_by_rule["md"] == 2
    assert run.report.deleted_by_rule["dp"] == 1
    assert run.hypergraph == Hypergraph(3, ((1, 2), (2, 3)), (2, 2))

    dup = Hypergraph(1, ((1,), (1,)), (1, 1))
    run = par_kernelize(dup)
    assert run.alive_edges == (1,)
    assert run.report.rounds == 2


def test_kernelize_rejects_infeasible():
    # Flagged, not raised, as by run_pipeline: the input comes back unreduced.
    h = Hypergraph(1, ((1,),), (2,))
    run = par_kernelize(h)
    assert run.report.infeasible
    assert run.hypergraph == h
    assert (run.alive_vertices, run.alive_edges) == ((1,), (1,))
    assert (run.report.n_after, run.report.m_after, run.report.size_after) == (1, 1, 2)


def test_kernelize_se_variant_is_weaker():
    # demand pushing removes the partially overlapped edge; containment cannot
    h = from_edges(4, [[1, 2, 3], [3, 4]], [3, 1])
    strong = par_kernelize(h)
    _, weak = run_pipeline(h, PipelineSpec(("se", "md"), engine="parallel", loop=True))
    assert strong.alive_edges == (1,)
    assert (weak.m_before, weak.m_after) == (2, 2)
    assert weak.deleted_by_rule["se"] == 0
    assert weak.deleted_by_rule["md"] >= 1  # vertex 4 is still dominated


@pytest.mark.parametrize("seed", range(40))
def test_worker_counts_agree(seed, tmp_path):
    # Only the CLI still takes a worker count, and it ignores it: every
    # count writes the library's kernel and report (wall times aside).
    h = generate_random(n=3 + seed % 20, m=3 + (7 * seed) % 20, p=0.4, alpha=1 + seed % 3, seed=seed)
    run = par_kernelize(h)
    expected = {**run.report.to_dict(), "wall_times_ms": None}
    instance = tmp_path / "instance.mhs"
    instance.write_text(serialize_instance(h))
    for workers in ("1", "4", "8"):
        kernel, report = tmp_path / f"kernel{workers}.mhs", tmp_path / f"report{workers}.json"
        argv = ["reduce", "-i", str(instance), "-o", str(kernel), "--report", str(report),
                "--rules", "dp,md", "--engine", "par", "--loop", "--workers", workers]
        assert main(argv) == 0
        assert kernel.read_text() == serialize_instance(run.hypergraph)
        assert {**json.loads(report.read_text()), "wall_times_ms": None} == expected


def _single_pair_keep_vectors(h):
    """Keep-vectors of one edge phase and one vertex phase, recounted pair
    by pair through the single-pair reference predicates."""
    a = ActiveInstance(h)
    edges = range(1, h.m + 1)
    edge_keep = [
        not any(i != j and supersedes(a, i, j) and (not supersedes(a, j, i) or i < j) for i in edges)
        for j in edges
    ]
    vertex_keep = []
    for j in range(1, h.n + 1):
        own = vertex_incidences(a, j)
        need = max((h.demand[i - 1] for i in own), default=0)
        ranked = [i for i in dominators(a, j) if vertex_incidences(a, i) != own or i < j]
        vertex_keep.append(need > 0 and len(ranked) < need)
    return edge_keep, vertex_keep


def _counts(chunks):
    return {(a, b): c for chunk in chunks for a, b, c in zip(*chunk)}


@pytest.mark.parametrize("seed", range(30))
def test_matrix_product_path_agrees_with_popcount(seed):
    """The dense bit-row counts and the sparse pair-list counts both
    equal per-pair popcounts of the rows, and the phases equal a per-pair
    recount through the single-pair reference predicates."""
    h = generate_random(n=2 + seed % 15, m=2 + (3 * seed) % 15, p=0.5, alpha=2, seed=seed)
    A = incidence_matrix(h)
    rows = [set(e) for e in h.edges]
    cols = [set(v) for v in vertex_edges(h)]
    popcounts = {(a, b): len(rows[a] & rows[b]) for a in range(h.m) for b in range(h.m)}
    for path in (_dense_counts, _sparse_counts):
        assert _counts(path(A.indptr, A.words, *A.columns)) == {k: c for k, c in popcounts.items() if c}
    popcounts = {(a, b): len(cols[a] & cols[b]) for a in range(h.n) for b in range(h.n)}
    for path in (_dense_counts, _sparse_counts):
        assert _counts(path(*A.columns, A.indptr, A.words)) == {k: c for k, c in popcounts.items() if c}
    edge_keep, vertex_keep = _single_pair_keep_vectors(h)
    assert par_reduce_edges(A, h.demand) == edge_keep
    assert par_reduce_vertices(A, h.demand) == vertex_keep


def test_dense_phases_match_single_pair_reference():
    # Dense enough that the phases count on the bit-row path, with
    # more rows and columns than one block holds.
    h = dense_nested_instance(seed=0)
    A = incidence_matrix(h)
    assert h.m * h.m > BLOCK_CELLS and h.n * h.n > BLOCK_CELLS
    edge_pairs, vertex_pairs = (A.col_sizes ** 2).sum(), (A.row_sizes ** 2).sum()
    assert edge_pairs > BLOCK_CELLS and edge_pairs * PAIR_COST > h.m * h.m * h.n
    assert vertex_pairs > BLOCK_CELLS and vertex_pairs * PAIR_COST > h.n * h.n * h.m
    edge_keep, vertex_keep = _single_pair_keep_vectors(h)
    assert not all(edge_keep) and not all(vertex_keep)
    assert par_reduce_edges(A, h.demand) == edge_keep
    assert par_reduce_vertices(A, h.demand) == vertex_keep
    seq, par = seq_kernelize(h), par_kernelize(h)
    assert (seq.alive_vertices, seq.alive_edges) == (par.alive_vertices, par.alive_edges)


def test_phase_temporaries_stay_bounded_on_dense_input():
    # One pair list of this instance would hold 300 * 150**2 pairs (about
    # 270 MB of temporaries); chunked counting stays within a few blocks.
    h = generate_random(n=300, m=300, p=0.5, alpha=2, seed=1)
    A = incidence_matrix(h)
    A.columns  # cached with the matrix, not a phase temporary
    tracemalloc.start()
    try:
        par_reduce_edges(A, h.demand)
        par_reduce_vertices(A, h.demand)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * BLOCK_CELLS


@pytest.mark.parametrize("n, p", [(400, 0.025), (300, 0.5)])
def test_count_paths_agree_beyond_one_chunk(n, p):
    # Both paths split these counts into several chunks; the union must be
    # the full product, with each pair in exactly one chunk.
    A = incidence_matrix(generate_random(n=n, m=n, p=p, alpha=1, seed=1))
    dense = np.zeros((A.rows, A.cols))
    dense[np.repeat(np.arange(A.rows), A.row_sizes), A.words] = 1
    for own, groups, product in (
        ((A.indptr, A.words), A.columns, dense @ dense.T),
        (A.columns, (A.indptr, A.words), dense.T @ dense),
    ):
        for path in (_dense_counts, _sparse_counts):
            chunks = list(path(*own, *groups))
            assert len(chunks) > 1
            a, b, c = (np.concatenate(x) for x in zip(*chunks))
            assert len(set(zip(a.tolist(), b.tolist()))) == a.size == np.count_nonzero(product)
            assert (product[a, b] == c).all()


@pytest.mark.parametrize("seed", range(25))
def test_intersection_counts_match_triple_loop(seed):
    h = generate_random(n=2 + seed % 10, m=2 + seed % 10, p=0.5, alpha=2, seed=seed)
    A = incidence_matrix(h)
    edge_counts = _counts(A.edge_pairs())
    vertex_counts = _counts(A.vertex_pairs())
    for i in range(h.m):
        for j in range(h.m):
            naive = sum(
                1 for k in range(1, h.n + 1) if k in h.edges[i] and k in h.edges[j]
            )
            assert edge_counts.get((i, j), 0) == naive
    for i in range(h.n):
        for j in range(h.n):
            naive = sum(
                1
                for k in range(h.m)
                if (i + 1) in h.edges[k] and (j + 1) in h.edges[k]
            )
            assert vertex_counts.get((i, j), 0) == naive
    assert all(c > 0 for c in edge_counts.values()) and all(c > 0 for c in vertex_counts.values())


def test_edge_phase_rejects_demand_outside_row_size():
    # Pairs that share nothing are skipped, which is exact only for 1 <= f <= |e|.
    h = from_edges(3, [[1, 2], [3]], [1, 1])
    A = incidence_matrix(h)
    with pytest.raises(ValueError):
        par_reduce_edges(A, [3, 1])
    with pytest.raises(ValueError):
        par_reduce_edges(A, [1, 0])
    with pytest.raises(ValueError):
        par_reduce_edges(A, [1])
    assert par_reduce_edges(A, [2, 1]) == [True, True]


@pytest.mark.parametrize("demand", [0, 3])
def test_both_phases_reject_a_demand_outside_its_row(demand):
    # Unchecked, demand 0 would let the vertex phase delete both vertices.
    A = incidence_matrix(Hypergraph(2, ((1, 2),), (1,)))
    for phase in (par_reduce_edges, par_reduce_vertices):
        with pytest.raises(ValueError, match="between 1 and its row's size"):
            phase(A, [demand])
    assert par_reduce_vertices(A, [2]) == [True, True]


@pytest.mark.parametrize("seed", range(40))
def test_phases_are_exhaustive(seed):
    h = generate_random(n=2 + seed % 12, m=2 + (5 * seed) % 12, p=0.45, alpha=1 + seed % 3, seed=seed)
    run = par_kernelize(h)
    survivors = ActiveInstance(run.hypergraph)
    for i in range(1, run.hypergraph.m + 1):
        for j in range(1, run.hypergraph.m + 1):
            if i != j:
                assert not supersedes(survivors, i, j)
    for j in range(1, run.hypergraph.n + 1):
        assert not md_applicable(survivors, j)


@pytest.mark.parametrize("seed", range(60))
def test_optimum_preserved(seed):
    h = generate_random(n=1 + seed % 14, m=1 + (3 * seed) % 12, p=0.4, alpha=1 + seed % 3, seed=seed)
    run = par_kernelize(h)
    assert brute_force_opt(h) == brute_force_opt(run.hypergraph)
    assert solve_opt(h).cardinality == solve_opt(run.hypergraph).cardinality


@pytest.mark.parametrize("seed", range(40))
def test_round_bound(seed):
    h = generate_random(n=2 + seed % 16, m=2 + (7 * seed) % 16, p=0.35, alpha=1 + seed % 3, seed=seed)
    run = par_kernelize(h)
    assert run.report.rounds <= compute_stats(h, {"matching"})["matching"] + 1


@pytest.mark.parametrize("seed", range(30))
def test_deletion_relation_is_acyclic(seed):
    # arcs i -> j when i may cause j's deletion under the tie-break
    h = generate_random(n=8, m=8, p=0.5, alpha=2, seed=seed)
    a = ActiveInstance(h)

    def relates(i, j):
        return supersedes(a, i, j)

    arcs = {
        (i, j)
        for i in range(1, h.m + 1)
        for j in range(1, h.m + 1)
        if i != j and relates(i, j) and (not relates(j, i) or i < j)
    }
    order: list[int] = []
    state = {i: 0 for i in range(1, h.m + 1)}

    def visit(u):
        assert state[u] != 1, "cycle in deletion relation"
        if state[u] == 0:
            state[u] = 1
            for x, y in arcs:
                if x == u:
                    visit(y)
            state[u] = 2
            order.append(u)

    for u in range(1, h.m + 1):
        visit(u)
