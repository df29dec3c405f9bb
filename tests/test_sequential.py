import random
import tracemalloc

import numpy as np
import pytest

from mhskernel import (
    ActiveInstance,
    Hypergraph,
    generate_random,
    incidence_matrix,
    init_state,
    md_applicable,
    par_kernelize,
    par_reduce_edges,
    par_reduce_vertices,
    pushed_max_oracle,
    seq_kernelize,
    seq_reduce_edges,
    seq_reduce_vertices,
    supersedes,
)
from mhskernel.rules import fe_pass, lp_pass
from mhskernel import bitmatrix
from mhskernel.sequential import BLOCK_CELLS

from conftest import naive_edge_intersections, naive_vertex_intersections, singletons


def assert_invariant(state):
    """Alive-restricted intersection counts must equal a from-scratch recount."""
    h = state.active.h
    edge_oracle = naive_edge_intersections(h, state.edge_alive, state.vertex_alive)
    for i in range(h.m):
        for j in range(h.m):
            if state.edge_alive[i] and state.edge_alive[j]:
                assert state.edge_inter[i, j] == edge_oracle[i][j]
    vertex_oracle = naive_vertex_intersections(h, state.edge_alive, state.vertex_alive)
    for i in range(h.n):
        for j in range(h.n):
            if state.vertex_alive[i] and state.vertex_alive[j]:
                assert state.vertex_inter[i, j] == vertex_oracle[i][j]


def test_init_state_ce(ce):
    state = init_state(ce)
    assert np.array_equal(np.diag(state.edge_inter), [2, 3, 3])
    assert state.edge_inter[0, 1] == 1
    assert state.edge_inter[0, 2] == 1
    assert state.edge_inter[1, 2] == 2
    assert state.cand_edges == [1, 2, 3]
    assert state.cand_vertices == [1, 2, 3, 4, 5]
    assert_invariant(state)


def test_init_state_singletons():
    state = init_state(singletons(3))
    assert np.array_equal(state.edge_inter, np.eye(3, dtype=np.int32))
    assert np.array_equal(state.vertex_inter, np.eye(3, dtype=np.int32))


def test_init_state_empty():
    state = init_state(Hypergraph(0, (), ()))
    assert state.edge_inter.shape == (0, 0)
    assert state.cand_edges == [] and state.cand_vertices == []


def test_edge_step_duplicate_edges():
    h = Hypergraph(1, ((1,), (1,)), (1, 1))
    state = init_state(h)
    assert seq_reduce_edges(state) == 1
    assert state.edge_alive == [True, False]
    assert state.vertex_inter[0, 0] == 1  # decremented from 2
    assert 1 in state.cand_vertices
    assert state.cand_edges == []
    assert_invariant(state)


def test_edge_step_ce_is_noop(ce):
    state = init_state(ce)
    assert seq_reduce_edges(state) == 0
    assert state.cand_edges == []
    assert_invariant(state)


def test_edge_step_update_trace():
    h = Hypergraph.from_edges(4, [[1, 2, 3], [3, 4]], [3, 1])
    state = init_state(h)
    before = state.vertex_inter.copy()
    assert seq_reduce_edges(state) == 1
    assert state.edge_alive == [True, False]
    changed = before - state.vertex_inter
    # exactly the (3,4) x (3,4) block lost one unit
    expected = np.zeros_like(changed)
    expected[np.ix_([2, 3], [2, 3])] = 1
    assert np.array_equal(changed, expected)
    assert set(state.cand_vertices) >= {3, 4}
    assert_invariant(state)


def test_vertex_step_matches_parallel_example():
    h = Hypergraph.from_edges(4, [[1, 2, 3], [1, 2, 3, 4]], [2, 2])
    state = init_state(h)
    assert seq_reduce_vertices(state) == 2
    assert state.vertex_alive == [True, True, False, False]
    assert state.cand_vertices == []
    # both edges restrict to {1, 2} once vertices 3 and 4 are gone
    assert np.array_equal(
        state.edge_inter[np.ix_([0, 1], [0, 1])], np.array([[2, 2], [2, 2]])
    )
    assert_invariant(state)


def test_vertex_step_ce_with_narrowed_candidates(ce):
    state = init_state(ce)
    state.cand_vertices = [3]
    assert seq_reduce_vertices(state) == 0
    assert state.vertex_alive == [True] * 5


def test_vertex_step_orphan():
    h = Hypergraph(2, ((1,), (1,)), (1, 1))
    state = init_state(h)
    seq_reduce_edges(state)  # deletes the duplicate edge
    state.cand_vertices.append(2)
    assert seq_reduce_vertices(state) == 1  # vertex 2 is in no edge at all
    assert state.vertex_alive == [True, False]


def test_kernelize_fixpoints(ce):
    run = seq_kernelize(ce)
    assert run.alive_vertices == (1, 2, 3)
    assert run.alive_edges == (1, 2)
    assert run.hypergraph == Hypergraph(3, ((1, 2), (2, 3)), (2, 2))

    run = seq_kernelize(singletons(6))
    assert run.hypergraph == singletons(6)
    assert run.report.rounds == 1

    dup = Hypergraph(1, ((1,), (1,)), (1, 1))
    run = seq_kernelize(dup)
    assert run.alive_edges == (1,)
    assert run.report.rounds == 2


def test_kernelize_rejects_infeasible():
    # Flagged, not raised, as by run_pipeline: the input comes back unreduced.
    h = Hypergraph(1, ((1,),), (2,))
    run = seq_kernelize(h)
    assert run.report.infeasible
    assert run.hypergraph == h
    assert (run.alive_vertices, run.alive_edges) == ((1,), (1,))
    assert (run.report.n_after, run.report.m_after, run.report.size_after) == (1, 1, 2)


@pytest.mark.parametrize("seed", range(120))
def test_engine_equivalence(seed):
    h = generate_random(
        n=1 + seed % 40,
        m=1 + (11 * seed) % 40,
        p=(0.15, 0.3, 0.5)[seed % 3],
        alpha=1 + seed % 3,
        seed=seed,
    )
    seq = seq_kernelize(h)
    par = par_kernelize(h)
    assert seq.alive_vertices == par.alive_vertices
    assert seq.alive_edges == par.alive_edges
    assert seq.hypergraph == par.hypergraph
    assert seq.report.rounds == par.report.rounds


@pytest.mark.parametrize("seed", range(30))
def test_invariant_after_every_substep(seed):
    h = generate_random(n=2 + seed % 12, m=2 + (5 * seed) % 12, p=0.45, alpha=1 + seed % 3, seed=seed)
    state = init_state(h)
    assert_invariant(state)
    while True:
        dropped = seq_reduce_edges(state)
        assert_invariant(state)
        dropped += seq_reduce_vertices(state)
        assert_invariant(state)
        if dropped == 0:
            break


@pytest.mark.parametrize("rule", ["fe", "lp"])
@pytest.mark.parametrize("seed", range(12))
def test_init_state_on_overlay_after_fe_or_lp(seed, rule):
    # Edge 1 is full and the last edge is doubled, so fe and lp both delete.
    h = generate_random(n=10 + seed, m=8 + seed, p=0.4, alpha=3, seed=seed)
    rng = random.Random(seed)
    demand = [len(h.edges[0])] + [rng.randint(1, f) for f in h.demand[1:]]
    h = Hypergraph(h.n, h.edges + h.edges[-1:], tuple(demand) + (demand[-1],))

    def overlay():
        active = ActiveInstance(h)
        if rule == "fe":
            assert fe_pass(active).deleted_edges
        else:
            assert lp_pass(active, pushed_max_oracle)
        return active

    state = init_state(h, overlay())
    assert_invariant(state)
    assert state.cand_edges == state.active.alive_edge_ids()
    assert state.cand_vertices == [j + 1 for j in range(h.n) if state.vertex_alive[j]]

    sub, vertex_ids, edge_ids = state.active.extract()
    seq_reduce_edges(state)
    assert [state.edge_alive[i - 1] for i in edge_ids] == par_reduce_edges(incidence_matrix(sub), sub.demand)

    state = init_state(h, overlay())
    seq_reduce_vertices(state)
    assert [state.vertex_alive[j - 1] for j in vertex_ids] == par_reduce_vertices(incidence_matrix(sub), sub.demand)


@pytest.mark.parametrize("seed", range(40))
def test_idempotent(seed):
    h = generate_random(n=2 + seed % 14, m=2 + seed % 14, p=0.4, alpha=1 + seed % 3, seed=seed)
    once = seq_kernelize(h)
    again = seq_kernelize(once.hypergraph)
    assert again.hypergraph == once.hypergraph
    assert again.report.deleted_by_rule["dp"] == 0
    assert again.report.deleted_by_rule["md"] == 0


@pytest.mark.parametrize("seed", range(30))
def test_candidate_insertions_stay_within_budget(seed):
    # each index enters a candidate list once at startup and at most once
    # per incident deletion
    h = generate_random(n=2 + seed % 15, m=2 + (3 * seed) % 15, p=0.4, alpha=1 + seed % 3, seed=seed)
    state = init_state(h)
    while seq_reduce_edges(state) + seq_reduce_vertices(state):
        pass
    budget = h.n + h.m + sum(len(e) for e in h.edges) + sum(len(v) for v in h.vertex_edges)
    assert state.insertions <= budget


@pytest.mark.parametrize("alpha", [1, 2])
def test_engines_agree_beyond_one_block(alpha):
    # n*n and m*m exceed the block budget, so sequential phases span
    # several row blocks while the parallel ones read sparse pair lists.
    n = 300
    assert n * n > BLOCK_CELLS
    h = generate_random(n=n, m=n, p=2 / n, alpha=alpha, seed=0)
    seq = seq_kernelize(h)
    par = par_kernelize(h)
    assert seq.alive_vertices == par.alive_vertices
    assert seq.alive_edges == par.alive_edges
    assert seq.report.deleted_by_rule["dp"] > 0 and seq.report.deleted_by_rule["md"] > 0

    state = init_state(h)
    assert seq_reduce_edges(state, "se") > 0
    assert state.edge_alive == par_reduce_edges(incidence_matrix(h), h.demand, rule="se")

    survivors = ActiveInstance(seq.hypergraph)
    for i in range(1, seq.hypergraph.m + 1):
        for j in range(1, seq.hypergraph.m + 1):
            if i != j:
                assert not supersedes(survivors, i, j)
    for j in range(1, seq.hypergraph.n + 1):
        assert not md_applicable(survivors, j)


def _full_edge_overlay(h):
    """``h`` behind an overlay on which ``fe_pass`` deleted items."""
    active = ActiveInstance(h)
    assert fe_pass(active).deleted_edges
    return active


def test_init_state_spans_several_sparse_chunks_after_fe():
    # Edge 1 is full: fe deletes it, its vertices and, with unit demands,
    # every edge that meets it.
    h = generate_random(n=400, m=400, p=0.025, alpha=1, seed=1)
    h = Hypergraph(h.n, h.edges, (len(h.edges[0]),) + h.demand[1:])
    state = init_state(h, _full_edge_overlay(h))
    sub, _, _ = state.active.extract()
    matrix = incidence_matrix(sub)
    assert len(list(matrix.edge_pairs())) > 1 and len(list(matrix.vertex_pairs())) > 1
    assert not all(state.edge_alive) and not all(state.vertex_alive)
    assert_invariant(state)


def test_init_state_on_dense_product_path_after_fe(monkeypatch):
    # A full edge on two fresh vertices leads, so dead ids come first.
    base = generate_random(n=300, m=300, p=0.5, alpha=2, seed=1)
    edges = ((1, 2),) + tuple(tuple(v + 2 for v in e) for e in base.edges)
    h = Hypergraph(base.n + 2, edges, (2,) + base.demand)

    def no_pair_lists(*args):
        raise AssertionError("dense input counted on the pair-list path")

    monkeypatch.setattr(bitmatrix, "_sparse_counts", no_pair_lists)
    state = init_state(h, _full_edge_overlay(h))
    assert state.edge_alive[0] is False and state.vertex_alive[:2] == [False, False]
    assert_invariant(state)


def test_init_state_temporaries_stay_bounded_on_dense_input():
    h = generate_random(n=300, m=300, p=0.5, alpha=2, seed=1)
    tracemalloc.start()
    try:
        state = init_state(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < state.edge_inter.nbytes + state.vertex_inter.nbytes + 400 * BLOCK_CELLS
