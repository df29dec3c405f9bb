import pytest

from mhskernel import Hypergraph, SolveStatus, generate_random, solve_opt, verify_solution

from conftest import brute_force_opt, singletons


def test_ce_optimum(ce):
    solution = solve_opt(ce)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.cardinality == 3
    assert solution.chosen == {1, 2, 3}  # the unique optimum here
    assert verify_solution(ce, solution.chosen)


def test_ce_without_vertex_three_costs_one_more(ce):
    # Dropping vertex 3 (the bad deletion) forces both private vertices in.
    pruned = Hypergraph(5, ((1, 2), (2, 4), (2, 5)), (2, 2, 2))
    solution = solve_opt(pruned)
    assert solution.cardinality == 4
    assert solution.chosen == {1, 2, 4, 5}


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_singletons_need_everything(n):
    solution = solve_opt(singletons(n))
    assert solution.cardinality == n
    assert solution.chosen == set(range(1, n + 1))


def test_infeasible_instance():
    solution = solve_opt(Hypergraph(1, ((1,),), (2,)))
    assert solution.status is SolveStatus.INFEASIBLE
    assert solution.cardinality == 0


def test_empty_instance():
    solution = solve_opt(Hypergraph(0, (), ()))
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.cardinality == 0


def test_node_limit_is_reported_distinctly():
    h = generate_random(n=14, m=12, p=0.5, alpha=3, seed=3)
    for limit in (1, 5):
        stopped = solve_opt(h, node_limit=limit)
        assert stopped.status is SolveStatus.BUDGET_EXCEEDED
        assert stopped.nodes == limit + 1
        assert verify_solution(h, stopped.chosen)  # the best cover found so far
    assert solve_opt(h).status is SolveStatus.OPTIMAL


@pytest.mark.parametrize("limit", [0, -5])
def test_node_limit_below_one_is_rejected(ce, limit):
    with pytest.raises(ValueError, match="node limit"):
        solve_opt(ce, node_limit=limit)


def test_verify_solution(ce):
    assert verify_solution(ce, {1, 2, 3})
    assert not verify_solution(ce, {2, 3})  # first edge only gets one hit
    assert verify_solution(ce, set(range(1, 6)))
    assert not verify_solution(Hypergraph(1, ((1,),), (2,)), {1})
    with pytest.raises(IndexError):
        verify_solution(ce, {9})


@pytest.mark.parametrize("seed", range(40))
def test_agrees_with_bruteforce(seed):
    h = generate_random(
        n=1 + seed % 10,
        m=1 + (3 * seed) % 9,
        p=(0.25, 0.5, 0.9)[seed % 3],
        alpha=1 + seed % 3,
        seed=seed,
    )
    expected = brute_force_opt(h)
    solution = solve_opt(h)
    assert expected is not None
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.cardinality == expected
    assert verify_solution(h, solution.chosen)


def test_deterministic_witness(ce):
    runs = {tuple(sorted(solve_opt(ce).chosen)) for _ in range(5)}
    assert len(runs) == 1


def milp_optimum(h):
    """Optimum from ``scipy.optimize.milp`` (HiGHS): min Σx, A·x >= f, x binary."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    a = np.zeros((h.m, h.n))
    for i, members in enumerate(h.edges):
        a[i, [j - 1 for j in members]] = 1
    result = optimize.milp(
        np.ones(h.n),
        constraints=optimize.LinearConstraint(a, lb=np.array(h.demand, dtype=float)),
        integrality=np.ones(h.n),
        bounds=optimize.Bounds(0, 1),
    )
    assert result.status == 0, result.message
    return round(result.fun)


@pytest.mark.parametrize("seed", range(30))
def test_agrees_with_milp(seed):
    # Sizes well beyond the brute-force oracle's reach.
    n = 30 + (seed * 17) % 51
    alpha = 1 + seed % 3
    pn = alpha + 1.5 + 2.0 * ((seed * 7) % 10) / 9
    h = generate_random(n=n, m=n, p=pn / n, alpha=alpha, seed=900 + seed)
    solution = solve_opt(h)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.cardinality == milp_optimum(h)
    assert verify_solution(h, solution.chosen)
