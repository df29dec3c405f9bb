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
    par_kernelize,
    par_reduce_edges,
    par_reduce_vertices,
    pushed_max_oracle,
    seq_kernelize,
    seq_reduce_edges,
    seq_reduce_vertices,
)
from mhskernel.rules import fe_pass, lp_pass
from mhskernel import bitmatrix
from mhskernel.bitmatrix import BLOCK_CELLS

from conftest import (
    assert_candidates_sound,
    dense_nested_instance,
    from_edges,
    md_applicable,
    overlay_copy,
    singletons,
    supersedes,
    vertex_edges,
)


def _flagged(mask) -> list[int]:
    """The 1-based ids a candidate mask flags."""
    return (np.flatnonzero(mask) + 1).tolist()


def test_init_state_ce(ce):
    state = init_state(ce)
    assert _flagged(state.cand_edges) == [1, 2, 3]
    assert _flagged(state.cand_vertices) == [1, 2, 3, 4, 5]
    assert state.insertions == 8
    assert_candidates_sound(state)


def test_init_state_singletons():
    state = init_state(singletons(3))
    assert _flagged(state.cand_edges) == _flagged(state.cand_vertices) == [1, 2, 3]
    assert seq_reduce_edges(state) == 0 and seq_reduce_vertices(state) == 0


def test_init_state_empty():
    state = init_state(Hypergraph(0, (), ()))
    assert state.cand_edges.shape == state.cand_vertices.shape == (0,)
    assert seq_reduce_edges(state) == 0 and seq_reduce_vertices(state) == 0


def test_edge_step_duplicate_edges():
    h = Hypergraph(1, ((1,), (1,)), (1, 1))
    state = init_state(h)
    assert seq_reduce_edges(state) == 1
    assert state.active.edge_alive == [True, False]
    assert _flagged(state.cand_vertices) == [1]
    assert state.insertions == 3 + 1  # queued again by the deleted edge
    assert not state.cand_edges.any()
    assert_candidates_sound(state)


def test_edge_step_ce_is_noop(ce):
    state = init_state(ce)
    assert seq_reduce_edges(state) == 0
    assert not state.cand_edges.any()
    assert_candidates_sound(state)


def test_edge_step_update_trace():
    h = from_edges(4, [[1, 2, 3], [3, 4]], [3, 1])
    state = init_state(h)
    state.cand_vertices[:] = False
    assert seq_reduce_edges(state) == 1
    assert state.active.edge_alive == [True, False]
    # exactly the deleted edge's vertices 3 and 4 were queued
    assert _flagged(state.cand_vertices) == [3, 4]
    assert state.insertions == 6 + 2
    assert_candidates_sound(state)


def test_vertex_step_matches_parallel_example():
    h = from_edges(4, [[1, 2, 3], [1, 2, 3, 4]], [2, 2])
    state = init_state(h)
    state.cand_edges[:] = False
    assert seq_reduce_vertices(state) == 2
    assert state.active.vertex_alive == [True, True, False, False]
    assert not state.cand_vertices.any()
    # both edges restrict to {1, 2} once vertices 3 and 4 are gone, and
    # every edge that held them (1 and 2 for vertex 3, 2 for vertex 4) is
    # queued as a superseder again
    assert state.active.edge_members(1) == state.active.edge_members(2) == (1, 2)
    assert _flagged(state.cand_edges) == [1, 2]
    assert state.insertions == 6 + 3
    assert_candidates_sound(state)


def test_vertex_step_ce_with_narrowed_candidates(ce):
    state = init_state(ce)
    state.cand_vertices[:] = False
    state.cand_vertices[2] = True
    assert seq_reduce_vertices(state) == 0
    assert state.active.vertex_alive == [True] * 5


def test_vertex_step_orphan():
    h = Hypergraph(2, ((1,), (1,)), (1, 1))
    state = init_state(h)
    seq_reduce_edges(state)  # deletes the duplicate edge
    state.cand_vertices[1] = True
    assert seq_reduce_vertices(state) == 1  # vertex 2 is in no edge at all
    assert state.active.vertex_alive == [True, False]


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
    assert_candidates_sound(state)
    while True:
        dropped = seq_reduce_edges(state)
        assert_candidates_sound(state)
        dropped += seq_reduce_vertices(state)
        assert_candidates_sound(state)
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
    assert_candidates_sound(state)
    assert state.cand_edges.tolist() == state.active.edge_alive
    assert state.cand_vertices.tolist() == state.active.vertex_alive

    sub, vertex_ids, edge_ids = state.active.extract()
    seq_reduce_edges(state)
    assert [state.active.edge_alive[i - 1] for i in edge_ids] == par_reduce_edges(incidence_matrix(sub), sub.demand)

    state = init_state(h, overlay())
    seq_reduce_vertices(state)
    assert [state.active.vertex_alive[j - 1] for j in vertex_ids] == par_reduce_vertices(incidence_matrix(sub), sub.demand)


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
    # each index is queued once at startup and at most once
    # per incident deletion
    h = generate_random(n=2 + seed % 15, m=2 + (3 * seed) % 15, p=0.4, alpha=1 + seed % 3, seed=seed)
    state = init_state(h)
    while seq_reduce_edges(state) + seq_reduce_vertices(state):
        pass
    budget = h.n + h.m + sum(len(e) for e in h.edges) + sum(len(v) for v in vertex_edges(h))
    assert state.insertions <= budget


@pytest.mark.parametrize("alpha", [1, 2])
def test_engines_agree_beyond_one_block(alpha):
    # n*n and m*m exceed the block budget, but the input is sparse: both
    # engines read pair lists, the sequential one for its candidates only.
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
    assert state.active.edge_alive == par_reduce_edges(incidence_matrix(h), h.demand, rule="se")

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


def _parallel_keep_vectors(active):
    """Keep-vectors of the parallel phases on the survivors of ``active``,
    by original 1-based id of the alive edges and vertices."""
    sub, vertex_ids, edge_ids = active.extract()
    matrix = incidence_matrix(sub)
    edge_keep = dict(zip(edge_ids, par_reduce_edges(matrix, sub.demand)))
    vertex_keep = dict(zip(vertex_ids, par_reduce_vertices(matrix, sub.demand)))
    return edge_keep, vertex_keep


def _assert_phases_match(h, active, edge_keep, vertex_keep):
    """A sequential edge phase and, on a fresh state, a vertex phase on a
    copy of the overlay ``active`` keep what the parallel phases keep."""
    state = init_state(h, overlay_copy(active))
    seq_reduce_edges(state)
    assert {i: state.active.edge_alive[i - 1] for i in edge_keep} == edge_keep
    state = init_state(h, overlay_copy(active))
    seq_reduce_vertices(state)
    assert {j: state.active.vertex_alive[j - 1] for j in vertex_keep} == vertex_keep


def test_init_state_spans_several_sparse_chunks_after_fe():
    # Edge 1 is full: fe deletes it, its vertices and, with unit demands,
    # every edge that meets it.  The sequential phases start with every
    # survivor as a candidate, so their rows fill several sparse chunks.
    h = generate_random(n=400, m=400, p=0.025, alpha=1, seed=1)
    h = Hypergraph(h.n, h.edges, (len(h.edges[0]),) + h.demand[1:])
    active = _full_edge_overlay(h)
    matrix, vertex_ids, edge_ids = active.alive_matrix()
    assert len(list(matrix.edge_pairs(np.arange(edge_ids.size)))) > 1
    assert len(list(matrix.vertex_pairs(np.arange(vertex_ids.size)))) > 1
    assert not all(active.edge_alive) and not all(active.vertex_alive)
    edge_keep, vertex_keep = _parallel_keep_vectors(active)
    assert not all(vertex_keep.values())
    _assert_phases_match(h, active, edge_keep, vertex_keep)


def test_init_state_on_dense_product_path_after_fe(monkeypatch):
    # A full edge on two fresh vertices leads, so dead ids come first; both
    # rules fire on the dense rest.
    base = dense_nested_instance(seed=0)
    edges = ((1, 2),) + tuple(tuple(v + 2 for v in e) for e in base.edges)
    h = Hypergraph(base.n + 2, edges, (2,) + base.demand)
    active = _full_edge_overlay(h)
    assert active.edge_alive[0] is False and active.vertex_alive[:2] == [False, False]
    edge_keep, vertex_keep = _parallel_keep_vectors(active)
    assert not all(edge_keep.values()) and not all(vertex_keep.values())

    def no_pair_lists(*args):
        raise AssertionError("dense input counted on the pair-list path")

    monkeypatch.setattr(bitmatrix, "_sparse_counts", no_pair_lists)
    _assert_phases_match(h, active, edge_keep, vertex_keep)


def test_init_state_temporaries_stay_bounded_on_dense_input():
    # The state holds no counts; a phase's temporaries are the masked
    # matrix and a few blocks of counts for the candidates' rows.
    h = generate_random(n=300, m=300, p=0.5, alpha=2, seed=1)
    active = ActiveInstance(h)
    active.matrix.columns  # cached with the run's matrix, not a phase temporary
    tracemalloc.start()
    try:
        state = init_state(h, active)
        seq_reduce_edges(state)
        seq_reduce_vertices(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * BLOCK_CELLS


def _sparse_instance(n: int, seed: int) -> Hypergraph:
    """Sparse α = 2 instance on n vertices and n edges, about 2.5 members
    per edge, drawn without the per-cell loop of ``generate_random``."""
    rng = np.random.default_rng(seed)
    edges = [np.sort(rng.choice(n, size=max(1, rng.binomial(n, 2.5 / n)), replace=False)) + 1 for _ in range(n)]
    return Hypergraph(n, tuple(tuple(e.tolist()) for e in edges), tuple(min(2, e.size) for e in edges))


def test_sequential_memory_stays_within_twice_parallel_at_scale():
    # The sequential engine keeps no counts between phases, so at scale it
    # needs no more memory than the parallel engine, which counts every pair.
    h = _sparse_instance(4000, seed=3)
    peaks = []
    for kernelize in (seq_kernelize, par_kernelize):
        tracemalloc.start()
        try:
            run = kernelize(h)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert run.report.deleted_by_rule["dp"] > 0 and run.report.deleted_by_rule["md"] > 0
    assert peaks[0] <= 2 * peaks[1], peaks
