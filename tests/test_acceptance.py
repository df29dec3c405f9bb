"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them on a green run).  Tolerances are exact unless a criterion states a
numeric guard; wall-clock checks guard growth ratios only, never absolute
times.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from mhskernel import (
    ActiveInstance,
    Hypergraph,
    PipelineSpec,
    SolveStatus,
    compute_stats,
    generate_random,
    incidence_matrix,
    init_state,
    par_kernelize,
    par_reduce_vertices,
    run_pipeline,
    seq_kernelize,
    solve_opt,
)
from mhskernel.sequential import seq_reduce_edges, seq_reduce_vertices

from conftest import (
    assert_candidates_sound,
    brute_force_max_antichain,
    brute_force_opt,
    disjoint_union,
    incidence_graph,
    md_applicable,
    naive_dilworth,
    naive_diversity,
    nested_hypergraph,
    random_hypergraph,
    singletons,
    supersedes,
)


@contextmanager
def verdict(label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


@pytest.fixture(scope="module")
def equivalence_runs():
    """500 seeded instances (n, m <= 40) run through both engines; shared
    by criteria 3 and 6."""
    runs = []
    for seed in range(500):
        h = generate_random(
            n=1 + (7 * seed) % 40,
            m=1 + (13 * seed) % 40,
            p=(0.15, 0.3, 0.5)[seed % 3],
            alpha=1 + seed % 3,
            seed=seed,
        )
        seq = seq_kernelize(h)
        par = par_kernelize(h)
        nu = compute_stats(h, {"matching"})["matching"]
        runs.append((h, seq, par, nu))
    return runs


def test_criterion_1_kernel_bound():
    with verdict("criterion 1 (kernel bound, 200 instances, <60s)"):
        started = time.perf_counter()
        spec = PipelineSpec(("dp", "md"), engine="parallel", loop=False)
        violations = 0
        for seed in range(200):
            h = generate_random(
                n=1 + (3 * seed) % 25,
                m=1 + (5 * seed) % 25,
                p=(0.2, 0.5)[seed % 2],
                alpha=1 + seed % 3,
                seed=seed,
            )
            _, report = run_pipeline(h, spec, compute_bounds=True)
            if report.n_after + report.m_after > report.bound_2_alpha_nabla:
                violations += 1
        elapsed = time.perf_counter() - started
        assert violations == 0
        assert elapsed < 60.0


def test_criterion_2_tight_instances():
    with verdict("criterion 2 (tight singleton family, n=1..20)"):
        for n in range(1, 21):
            h = singletons(n)
            reduced, report = run_pipeline(
                h, PipelineSpec(("dp", "md"), loop=True), compute_bounds=True
            )
            assert reduced == h
            assert report.bound_2_alpha_nabla == 2 * n
            assert report.n_after + report.m_after == 2 * n


def test_criterion_3_engine_equivalence(equivalence_runs):
    with verdict("criterion 3 (engine equivalence, 500 instances)"):
        mismatches = 0
        for _, seq, par, _ in equivalence_runs:
            if (par.alive_vertices, par.alive_edges) != (seq.alive_vertices, seq.alive_edges):
                mismatches += 1
        assert mismatches == 0


def test_criterion_4_optimum_preservation():
    with verdict("criterion 4 (optimum preservation, 300 instances, 4 pipelines)"):
        pipelines = [
            PipelineSpec(("dp", "md"), loop=True),
            PipelineSpec(("se", "md"), loop=True),
            PipelineSpec(("fe", "dp", "md"), loop=True),
            PipelineSpec(("dp", "md", "lp"), loop=True, lp_oracle="exact"),
        ]
        violations = 0
        for seed in range(300):
            h = generate_random(
                n=1 + (3 * seed) % 14,
                m=1 + (7 * seed) % 12,
                p=(0.3, 0.6)[seed % 2],
                alpha=1 + seed % 3,
                seed=seed,
            )
            expected = brute_force_opt(h)
            solution = solve_opt(h)
            assert solution.status is SolveStatus.OPTIMAL
            if solution.cardinality != expected:
                violations += 1
            for spec in pipelines:
                reduced, report = run_pipeline(h, spec)
                assert not report.infeasible
                if brute_force_opt(reduced) + report.budget_delta != expected:
                    violations += 1
        assert violations == 0


def test_criterion_5_regression_instance(ce):
    with verdict("criterion 5 (protected vertex regression)"):
        assert not md_applicable(ActiveInstance(ce), 3)
        keep = par_reduce_vertices(incidence_matrix(ce), ce.demand)
        assert keep[2], "vertex 3 must survive the domination phase"
        assert 3 in par_kernelize(ce).alive_vertices
        assert 3 in seq_kernelize(ce).alive_vertices
        assert solve_opt(ce).cardinality == 3
        pruned = Hypergraph(5, ((1, 2), (2, 4), (2, 5)), (2, 2, 2))
        assert solve_opt(pruned).cardinality == 4


def test_criterion_6_iteration_bound(equivalence_runs):
    with verdict("criterion 6 (round count <= matching number + 1)"):
        violations = 0
        for _, seq, par, nu in equivalence_runs:
            for run in (seq, par):
                if run.report.rounds > nu + 1:
                    violations += 1
        assert violations == 0


def test_criterion_7_supersedence_transitivity():
    with verdict("criterion 7 (supersedence transitivity, 10^4 triples)"):
        rng = random.Random(1729)
        checked = 0
        while checked < 10_000:
            h = generate_random(
                n=2 + rng.randrange(10),
                m=3 + rng.randrange(10),
                p=rng.choice((0.3, 0.5, 0.8)),
                alpha=1 + rng.randrange(3),
                seed=rng.randrange(10**6),
            )
            a = ActiveInstance(h)
            for _ in range(50):
                i, j, k = rng.sample(range(1, h.m + 1), 3)
                if supersedes(a, i, j) and supersedes(a, j, k):
                    assert supersedes(a, i, k)
                checked += 1


def test_criterion_8_parameter_family():
    with verdict("criterion 8 (chain-cover number vs diversity and antichain oracle)"):
        for n in range(1, 9):
            h = nested_hypergraph(n)
            stats = compute_stats(h, {"dilworth", "diversity"})
            assert stats["dilworth"] == (2 if n > 1 else 1) == naive_dilworth(incidence_graph(h))
            assert stats["diversity"] == (2 * n if n > 1 else 1) == naive_diversity(incidence_graph(h))
        for seed in range(100):
            h = random_hypergraph(seed)
            stats = compute_stats(h, {"dilworth", "diversity"})
            assert stats["dilworth"] <= stats["diversity"]
            assert stats["dilworth"] == brute_force_max_antichain(incidence_graph(h))


def test_criterion_9_incremental_state_soundness():
    with verdict("criterion 9 (candidate masks miss no deletion of a full recount, 100 runs)"):
        for seed in range(100):
            h = generate_random(
                n=1 + (5 * seed) % 14,
                m=1 + (11 * seed) % 14,
                p=(0.3, 0.5)[seed % 2],
                alpha=1 + seed % 3,
                seed=seed,
            )
            state = init_state(h)
            while True:
                deletions = seq_reduce_edges(state)
                assert_candidates_sound(state)
                deletions += seq_reduce_vertices(state)
                assert_candidates_sound(state)
                if deletions == 0:
                    break


def test_criterion_10_scaling_guard():
    with verdict("criterion 10 (sequential runtime growth factor <= 5 at 2x size)"):
        base = generate_random(n=150, m=150, p=0.08, alpha=2, seed=99)
        doubled = disjoint_union(base, base)

        def best_of(h, reps=3):
            times = []
            for _ in range(reps):
                started = time.perf_counter()
                seq_kernelize(h)
                times.append(time.perf_counter() - started)
            return min(times)

        t_base = best_of(base)
        t_doubled = best_of(doubled)
        assert t_doubled <= 5.0 * t_base, (
            f"sequential time grew by {t_doubled / t_base:.2f}x on doubling"
        )
