import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhskernel import (
    ActiveInstance,
    Hypergraph,
    apply_fe_exhaustively,
    build_pushed_subinstance,
    dominators,
    exact_oracle,
    generate_random,
    incidence_matrix,
    init_state,
    lp_rule_applicable,
    md_applicable,
    pushed_max_oracle,
    seq_reduce_edges,
    seq_reduce_vertices,
    solve_opt,
    supersedes,
)
from mhskernel.pipeline import _par_phase
from mhskernel.rules import fe_pass, lp_pass

from conftest import brute_force_feasible, brute_force_opt, naive_extract, rescan_lp_pass, singletons


def active(h: Hypergraph) -> ActiveInstance:
    return ActiveInstance(h)


class TestSupersedes:
    def test_demand_is_pushed(self):
        h = Hypergraph.from_edges(4, [[1, 2, 3], [3, 4]], [3, 1])
        assert supersedes(active(h), 1, 2)  # 3 - |{1,2}| >= 1
        assert not supersedes(active(h), 2, 1)

    def test_ce_pairs(self, ce):
        a = active(ce)
        assert not supersedes(a, 2, 3)  # 2 - 1 < 2
        assert not any(
            supersedes(a, i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j
        )

    def test_disjoint_unit_edges(self):
        a = active(singletons(2))
        assert not supersedes(a, 1, 2)
        assert not supersedes(a, 2, 1)

    def test_errors(self, ce):
        a = active(ce)
        with pytest.raises(ValueError):
            supersedes(a, 1, 1)
        with pytest.raises(IndexError):
            supersedes(a, 1, 9)
        a.edge_alive[1] = False
        with pytest.raises(ValueError):
            supersedes(a, 1, 2)

    def test_containment_implies_supersedence(self):
        # superedge condition (containment, at least equal demand) is the
        # special case with an empty private part
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(2, 8)
            small = sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
            extra = [v for v in range(1, n + 1) if v not in small]
            big = sorted(small + rng.sample(extra, rng.randint(1, len(extra))))
            f_small = rng.randint(1, len(small))
            f_big = rng.randint(1, f_small)
            h = Hypergraph.from_edges(n, [small, big], [f_small, f_big])
            assert supersedes(active(h), 1, 2)

    def test_unit_demands_reduce_to_containment(self):
        rng = random.Random(2)
        for seed in range(60):
            h = generate_random(n=6, m=4, p=0.45, alpha=1, seed=seed)
            a = active(h)
            for i in range(1, 5):
                for j in range(1, 5):
                    if i != j:
                        contained = set(h.edges[i - 1]) <= set(h.edges[j - 1])
                        assert supersedes(a, i, j) == contained

    def test_transitive_on_sampled_triples(self):
        rng = random.Random(3)
        for seed in range(60):
            h = generate_random(n=7, m=6, p=0.4, alpha=3, seed=seed)
            a = active(h)
            for _ in range(30):
                i, j, k = rng.sample(range(1, 7), 3)
                if supersedes(a, i, j) and supersedes(a, j, k):
                    assert supersedes(a, i, k)


class TestDominators:
    def test_ce(self, ce):
        a = active(ce)
        assert dominators(a, 3) == {2}
        assert dominators(a, 2) == frozenset()
        assert dominators(a, 4) == {2, 3}

    def test_orphan_is_dominated_by_everyone(self):
        h = Hypergraph(3, ((1,),), (1,))
        a = active(h)
        assert dominators(a, 2) == {1, 3}

    def test_dead_index_rejected(self, ce):
        a = active(ce)
        a.vertex_alive[0] = False
        with pytest.raises(ValueError):
            dominators(a, 1)


class TestMdApplicable:
    def test_ce_vertex_three_is_protected(self, ce):
        # One dominator is not enough against demand two; firing here would
        # change the optimum from 3 to 4.
        assert not md_applicable(active(ce), 3)

    def test_enough_dominators(self):
        h = Hypergraph.from_edges(4, [[1, 2, 3], [1, 2, 3, 4]], [2, 2])
        assert md_applicable(active(h), 4)  # dominators {1,2,3}

    def test_orphan_always_deletable(self):
        h = Hypergraph(2, ((1,),), (1,))
        assert md_applicable(active(h), 2)

    def test_unit_demand_specialization(self):
        for seed in range(40):
            h = generate_random(n=6, m=5, p=0.4, alpha=1, seed=seed)
            a = active(h)
            for j in range(1, 7):
                assert md_applicable(a, j) == (
                    len(dominators(a, j)) >= 1 or not a.vertex_incidences(j)
                )


class TestFullEdge:
    def test_cascade(self):
        h = Hypergraph.from_edges(3, [[1, 2], [2, 3]], [2, 1])
        reduced, outcome = apply_fe_exhaustively(h)
        assert outcome.deleted_edges == {1, 2}
        assert outcome.deleted_vertices == {1, 2}
        assert outcome.budget_delta == 2
        assert not outcome.infeasible
        assert reduced.n == 1 and reduced.m == 0

    def test_singletons_fully_consumed(self):
        reduced, outcome = apply_fe_exhaustively(singletons(4))
        assert outcome.budget_delta == 4
        assert reduced.n == 0 and reduced.m == 0

    def test_ce_canonical_trace(self, ce):
        # Edge 1 is full (two vertices, demand two): vertices 1 and 2 are
        # forced, the other demands drop to one.
        a = ActiveInstance(ce)
        outcome = fe_pass(a)
        assert outcome.deleted_edges == {1}
        assert outcome.deleted_vertices == {1, 2}
        assert outcome.budget_delta == 2
        assert outcome.demand_decrements == {2: 1, 3: 1}
        assert a.vertex_alive == [False, False, True, True, True]
        assert a.edge_members(2) == (3, 4) and a.demand[1] == 1
        assert a.edge_members(3) == (3, 5) and a.demand[2] == 1

    def test_budget_carries_through(self):
        h = Hypergraph.from_edges(3, [[1, 2], [2, 3]], [2, 1], budget=3)
        reduced, outcome = apply_fe_exhaustively(h)
        assert reduced.budget == 1

    def test_infeasible_input_reported_not_raised(self):
        h = Hypergraph(2, ((1,), (1, 2)), (2, 1))
        _, outcome = apply_fe_exhaustively(h)
        assert outcome.infeasible

    @pytest.mark.parametrize("seed", range(60))
    def test_preserves_optimum(self, seed):
        h = generate_random(
            n=1 + seed % 12,
            m=1 + (2 * seed) % 10,
            p=(0.3, 0.6)[seed % 2],
            alpha=1 + seed % 3,
            seed=seed,
        )
        reduced, outcome = apply_fe_exhaustively(h)
        assert not outcome.infeasible
        assert brute_force_opt(h) == brute_force_opt(reduced) + outcome.budget_delta
        # no full edge is left behind
        assert all(len(e) > f for e, f in zip(reduced.edges, reduced.demand))

    def test_infeasible_flag_agrees_with_bruteforce(self):
        h = Hypergraph(3, ((1, 2), (2, 3)), (2, 2))
        _, outcome = apply_fe_exhaustively(h)
        assert outcome.infeasible == (not brute_force_feasible(h))
        assert not outcome.infeasible

    @pytest.mark.parametrize("seed", range(30))
    def test_infeasible_flag_sweep(self, seed):
        h = generate_random(n=5, m=4, p=0.5, alpha=3, seed=seed)
        if seed % 2:
            # push one edge's demand out of reach
            demand = list(h.demand)
            idx = seed % h.m
            demand[idx] = len(h.edges[idx]) + 1
            h = Hypergraph(h.n, h.edges, tuple(demand))
        _, outcome = apply_fe_exhaustively(h)
        assert outcome.infeasible == (not brute_force_feasible(h))


class TestPushedSubinstance:
    def test_ce_second_edge(self, ce):
        sub, vertex_ids = build_pushed_subinstance(active(ce), 2)
        assert vertex_ids == [2, 3, 4]
        # edge 1 pushes one unit into {2}, edge 3 pushes one into {2,3}
        assert sub.n == 3
        assert sub.edges == ((1,), (1, 2))
        assert sub.demand == (1, 1)

    def test_disjoint_edge_pushes_nothing(self):
        h = Hypergraph.from_edges(4, [[1, 2], [3, 4]], [2, 2])
        sub, _ = build_pushed_subinstance(active(h), 1)
        assert sub.m == 0

    def test_contained_edge_pushes_full_demand(self):
        h = Hypergraph.from_edges(3, [[1, 2], [1, 2, 3]], [2, 2])
        sub, _ = build_pushed_subinstance(active(h), 2)
        assert sub.edges == ((1, 2),)
        assert sub.demand == (2,)


class TestLpRule:
    def test_ce_not_applicable(self, ce):
        # The pushed subinstance of edge 2 is hit by one vertex.
        a = active(ce)
        sub, _ = build_pushed_subinstance(a, 2)
        assert solve_opt(sub).cardinality == 1
        assert not lp_rule_applicable(a, 2)

    def test_superseded_edge_is_lp_deletable(self):
        h = Hypergraph.from_edges(4, [[1, 2, 3], [3, 4]], [3, 1])
        assert lp_rule_applicable(active(h), 2)

    def test_empty_subinstance_never_fires(self):
        h = Hypergraph.from_edges(4, [[1, 2], [3, 4]], [2, 2])
        assert not lp_rule_applicable(active(h), 1)

    def test_pushed_max_oracle_is_weaker_but_valid(self, ce):
        a = active(ce)
        for j in (1, 2, 3):
            sub, _ = build_pushed_subinstance(a, j)
            assert pushed_max_oracle(sub) <= exact_oracle(sub)

    @pytest.mark.parametrize("seed", range(40))
    def test_lp_subsumes_dp_deletions(self, seed):
        # Whatever demand pushing can delete, the subinstance bound can too
        # (evaluated against the same alive sets).
        h = generate_random(n=8, m=6, p=0.5, alpha=3, seed=seed)
        a = active(h)
        for j in range(1, h.m + 1):
            dp_deletable = any(supersedes(a, i, j) for i in range(1, h.m + 1) if i != j)
            if dp_deletable:
                assert lp_rule_applicable(a, j)

    @pytest.mark.parametrize("seed", range(30))
    def test_lp_pass_preserves_optimum(self, seed):
        h = generate_random(n=9, m=7, p=0.45, alpha=3, seed=seed)
        a = active(h)
        deleted = lp_pass(a)
        reduced, _, _ = a.extract()
        assert brute_force_opt(h) == brute_force_opt(reduced)
        assert deleted == set(range(1, h.m + 1)) - set(a.alive_edge_ids())

    @pytest.mark.parametrize("oracle", [exact_oracle, pushed_max_oracle], ids=["exact", "pushed-max"])
    @pytest.mark.parametrize("seed", range(30))
    def test_lp_pass_single_scan_is_exhaustive(self, seed, oracle):
        # The last edge is doubled, so every scan deletes something.
        h = generate_random(n=10, m=7, p=0.45, alpha=3, seed=seed)
        rng = random.Random(seed)
        demand = [rng.randint(1, f) for f in h.demand]
        h = Hypergraph(h.n, h.edges + h.edges[-1:], tuple(demand) + (demand[-1],))
        calls = []

        def counting(sub):
            calls.append(sub)
            return oracle(sub)

        a = active(h)
        deleted = lp_pass(a, counting)
        assert deleted
        assert len(calls) == h.m  # one oracle call per edge alive at phase start
        assert deleted == rescan_lp_pass(active(h), oracle)
        assert not any(lp_rule_applicable(a, j, oracle) for j in a.alive_edge_ids())


def assert_alive_view_matches(a: ActiveInstance) -> None:
    """``extract`` and ``alive_matrix`` agree with the dict-based compaction."""
    sub, vertex_ids, edge_ids = naive_extract(a)
    got = a.extract()
    assert got == (sub, vertex_ids, edge_ids)
    got_sub, got_vertices, got_edges = got
    values = got_vertices + got_edges + list(got_sub.demand) + [v for e in got_sub.edges for v in e]
    assert all(type(x) is int for x in values)
    matrix, vertex_idx, edge_idx = a.alive_matrix()
    ref = incidence_matrix(sub)
    assert (matrix.rows, matrix.cols) == (ref.rows, ref.cols)
    assert matrix.indptr.tolist() == ref.indptr.tolist()
    assert matrix.words.tolist() == ref.words.tolist()
    assert (vertex_idx + 1).tolist() == vertex_ids
    assert (edge_idx + 1).tolist() == edge_ids


@st.composite
def overlays(draw) -> ActiveInstance:
    """A small instance (empty edges and dead-only edges included) under
    random alive masks."""
    n = draw(st.integers(0, 8))
    edges = draw(st.lists(st.sets(st.integers(1, max(n, 1)), max_size=n), max_size=8))
    demand = draw(st.lists(st.integers(1, 3), min_size=len(edges), max_size=len(edges)))
    budget = draw(st.none() | st.integers(0, 6))
    a = ActiveInstance(Hypergraph.from_edges(n, edges, demand, budget))
    a.vertex_alive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    a.edge_alive = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return a


class TestAliveView:
    @settings(max_examples=300, deadline=1000, derandomize=True, database=None)
    @given(overlays())
    def test_matches_naive_compaction(self, a):
        assert_alive_view_matches(a)

    def test_empty_instance(self):
        assert_alive_view_matches(active(Hypergraph(0, (), ())))

    def test_all_rows_dead(self):
        a = active(generate_random(n=9, m=7, p=0.4, alpha=2, seed=3))
        a.edge_alive = [False] * a.h.m
        assert_alive_view_matches(a)
        assert a.alive_matrix()[0].rows == 0

    def test_all_columns_dead(self):
        a = active(generate_random(n=9, m=7, p=0.4, alpha=2, seed=4))
        a.vertex_alive = [False] * a.h.n
        assert_alive_view_matches(a)
        matrix = a.alive_matrix()[0]
        assert (matrix.rows, matrix.cols, matrix.words.size) == (7, 0, 0)

    def test_empty_rows(self):
        # Edge 1 is empty in the input; edge 3 loses both of its vertices.
        a = active(Hypergraph(5, ((), (1, 2, 5), (3, 4), (4, 5)), (1, 2, 1, 1), budget=2))
        a.vertex_alive[2] = a.vertex_alive[3] = False
        a.edge_alive[3] = False
        assert_alive_view_matches(a)
        assert a.alive_matrix()[0].row_sizes.tolist() == [0, 3, 0]

    @pytest.mark.parametrize("seed", range(12))
    def test_after_rule_passes(self, seed):
        rng = random.Random(seed)
        h = generate_random(n=10 + seed, m=9 + seed, p=0.35, alpha=3, seed=seed)
        h = Hypergraph(h.n, h.edges, tuple(rng.randint(1, f) for f in h.demand))
        a = active(h)
        fe_pass(a)
        assert_alive_view_matches(a)
        lp_pass(a, pushed_max_oracle)
        assert_alive_view_matches(a)
        for phase in ("dp", "md", "se"):
            _par_phase(a, phase)
            assert_alive_view_matches(a)
        state = init_state(h)
        seq_reduce_edges(state, "se")
        assert_alive_view_matches(state.active)
        seq_reduce_vertices(state)
        assert_alive_view_matches(state.active)
        seq_reduce_edges(state)
        assert_alive_view_matches(state.active)
