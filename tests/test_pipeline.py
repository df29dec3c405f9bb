import json
import random
import re
from pathlib import Path

import pytest

from mhskernel import (
    Hypergraph,
    PipelineSpec,
    compute_stats,
    generate_random,
    run_pipeline,
    serialize_instance,
    solve_opt,
)
from mhskernel import pipeline
from mhskernel.rules import ActiveInstance, lp_pass

from conftest import assert_candidates_sound, brute_force_opt, from_edges, singletons


def test_spec_validation():
    with pytest.raises(ValueError):
        PipelineSpec(phases=())
    with pytest.raises(ValueError):
        PipelineSpec(phases=("dp", "nope"))
    with pytest.raises(ValueError):
        PipelineSpec(phases=("dp",), engine="gpu")
    with pytest.raises(ValueError):
        PipelineSpec(phases=("lp",), lp_oracle="psychic")


@pytest.mark.parametrize("engine", ["sequential", "parallel"])
def test_dp_md_on_ce(ce, engine):
    reduced, report = run_pipeline(ce, PipelineSpec(("dp", "md"), engine=engine, loop=True))
    assert reduced == Hypergraph(3, ((1, 2), (2, 3)), (2, 2))
    assert report.deleted_by_rule["md"] == 2  # vertices 4 and 5
    assert report.deleted_by_rule["dp"] == 1  # duplicate edge left behind
    assert report.budget_delta == 0
    assert report.n_before == 5 and report.m_before == 3 and report.size_before == 13
    assert report.n_after == 3 and report.m_after == 2 and report.size_after == 7
    # optimum is preserved throughout
    assert solve_opt(ce).cardinality == solve_opt(reduced).cardinality


def test_fe_dp_md_looped_solves_ce(ce):
    # The full-edge cascade plus domination keeps feeding each other until
    # nothing remains; the forced vertices account for the whole optimum.
    reduced, report = run_pipeline(ce, PipelineSpec(("fe", "dp", "md"), loop=True))
    assert reduced.n == 0 and reduced.m == 0
    assert report.budget_delta == 3
    assert report.budget_delta == solve_opt(ce).cardinality
    assert report.deleted_by_rule["fe"] >= 1


def test_singletons_meet_bound_exactly():
    h = singletons(7)
    reduced, report = run_pipeline(
        h, PipelineSpec(("dp", "md"), loop=True), compute_bounds=True
    )
    assert reduced == h
    assert report.bound_2_alpha_nabla == 14
    assert report.n_after + report.m_after == report.bound_2_alpha_nabla
    assert report.matching_bound == 7
    assert report.rounds <= report.matching_bound + 1


def test_budget_tracking():
    h = from_edges(3, [[1, 2], [2, 3]], [2, 1], budget=5)
    reduced, report = run_pipeline(h, PipelineSpec(("fe",), loop=True))
    assert report.budget_delta == 2
    assert reduced.budget == 3
    assert not report.infeasible

    tight = from_edges(3, [[1, 2], [2, 3]], [2, 1], budget=1)
    reduced, report = run_pipeline(tight, PipelineSpec(("fe",), loop=True))
    assert reduced.budget == -1
    assert report.infeasible


def test_infeasible_input_halts():
    bad = Hypergraph(1, ((1,),), (2,))
    reduced, report = run_pipeline(bad, PipelineSpec(("dp", "md")))
    assert report.infeasible
    assert reduced == bad


def test_se_md_pipeline(ce):
    # superedge is weaker than demand pushing but still optimum-preserving
    reduced, report = run_pipeline(ce, PipelineSpec(("se", "md"), loop=True))
    assert brute_force_opt(ce) == brute_force_opt(reduced) + report.budget_delta


def test_lp_pipeline_uses_oracle(ce):
    h = from_edges(4, [[1, 2, 3], [3, 4]], [3, 1])
    reduced, report = run_pipeline(h, PipelineSpec(("lp",), loop=True))
    assert report.deleted_by_rule["lp"] >= 1
    assert brute_force_opt(h) == brute_force_opt(reduced)
    cheap, _ = run_pipeline(h, PipelineSpec(("lp",), loop=True, lp_oracle="pushed-max"))
    assert brute_force_opt(h) == brute_force_opt(cheap)


def test_lp_retries_an_edge_whose_oracle_raised(monkeypatch):
    # Edge 2 pushes its whole demand into edge 1, so lp deletes edge 1 and
    # nothing else; md deletes vertices 2 and 3 in round 1 either way.  If
    # edge 1's oracle call raises, md's deletions start round 2, which
    # retries and deletes edge 1.
    h = from_edges(3, [[1, 2, 3], [1, 2]], [1, 1])
    spec = PipelineSpec(("lp", "md"), loop=True)
    expected, _ = run_pipeline(h, spec)
    oracle = pipeline.LP_ORACLES["exact"]
    failed = []

    def flaky(sub):
        if not failed and sub.n == 3:  # edge 1's pushed subinstance, once
            failed.append(sub)
            raise RuntimeError("oracle gave up")
        return oracle(sub)

    rounds = []

    def recorded(active, oracle):
        rounds.append(lp_pass(active, oracle))
        return rounds[-1]

    monkeypatch.setitem(pipeline.LP_ORACLES, "exact", flaky)
    monkeypatch.setattr(pipeline, "lp_pass", recorded)
    reduced, report = run_pipeline(h, spec)
    assert failed
    assert rounds == [set(), {1}, set()]
    assert report.deleted_by_rule["lp"] == 1 and report.deleted_by_rule["md"] == 2
    assert reduced == expected == Hypergraph(1, ((1,),), (1,))


@pytest.mark.parametrize("seed", range(40))
def test_engine_equivalence_end_to_end(seed):
    h = generate_random(n=2 + seed % 25, m=2 + (9 * seed) % 25, p=0.35, alpha=1 + seed % 3, seed=seed)
    spec_seq = PipelineSpec(("dp", "md"), engine="sequential", loop=True)
    spec_par = PipelineSpec(("dp", "md"), engine="parallel", loop=True)
    assert run_pipeline(h, spec_seq)[0] == run_pipeline(h, spec_par)[0]


PHASE_ORDERS = ["se,dp,md", "dp,se,md", "md,se", "md,dp", "fe,dp,md", "fe,se,md,dp", "dp,md,lp", "lp,dp,md,fe"]


def phase_order_instance(seed: int) -> Hypergraph:
    """A seeded random instance whose demands are redrawn in ``1..f(e)``."""
    rng = random.Random(seed)
    h = generate_random(n=rng.randint(2, 30), m=rng.randint(2, 30), p=rng.choice((0.1, 0.2, 0.35)),
                        alpha=rng.randint(1, 4), seed=seed)
    return Hypergraph(h.n, h.edges, tuple(rng.randint(1, f) for f in h.demand))


@pytest.mark.parametrize("order", PHASE_ORDERS)
@pytest.mark.parametrize("seed", range(12))
def test_engine_equivalence_over_phase_orders(order, seed):
    # The sequential engine carries its candidate masks across phases and
    # rounds; the parallel engine evaluates every alive item in each phase.
    h = phase_order_instance(seed)
    for loop in (False, True):
        (seq, seq_report), (par, par_report) = (
            run_pipeline(h, PipelineSpec(tuple(order.split(",")), engine=engine, loop=loop, lp_oracle="pushed-max"))
            for engine in ("sequential", "parallel")
        )
        assert seq == par
        assert seq_report.deleted_by_rule == par_report.deleted_by_rule
        assert seq_report.rounds == par_report.rounds
        assert seq_report.budget_delta == par_report.budget_delta
        assert seq_report.infeasible == par_report.infeasible


def test_se_deletes_in_the_phase_orders():
    # After dp, se finds nothing left to delete; in md,se it has work.
    deleted = sum(
        run_pipeline(phase_order_instance(seed), PipelineSpec(("md", "se"), loop=loop))[1].deleted_by_rule["se"]
        for seed in range(12)
        for loop in (False, True)
    )
    assert deleted > 0


@pytest.mark.parametrize("order", PHASE_ORDERS)
@pytest.mark.parametrize("seed", range(12))
def test_sequential_counts_match_a_recount_around_every_phase(order, seed, monkeypatch):
    # The candidate masks live across phases and restart from every alive
    # item after fe or lp deleted anything; a stale mask would miss a
    # deletion that a phase counting every alive item's pairs makes.
    calls = []

    def checked(phase):
        def run(state, *args):
            assert_candidates_sound(state)
            dropped = phase(state, *args)
            assert_candidates_sound(state)
            calls.append(dropped)
            return dropped
        return run

    monkeypatch.setattr(pipeline, "seq_reduce_edges", checked(pipeline.seq_reduce_edges))
    monkeypatch.setattr(pipeline, "seq_reduce_vertices", checked(pipeline.seq_reduce_vertices))
    for loop in (False, True):
        run_pipeline(phase_order_instance(seed), PipelineSpec(tuple(order.split(",")), loop=loop, lp_oracle="pushed-max"))
    assert calls


@pytest.mark.parametrize("engine", ["sequential", "parallel"])
def test_phases_read_the_overlay_through_its_masked_matrix(engine, monkeypatch):
    # fe, dp, se and md, and the sequential commits, read alive contents
    # only from the masked matrix, never through the per-edge tuple reader.
    # lp is left out: its single-edge reference builder reads tuples.  se
    # deletes nothing right after dp, so it also runs first.
    orders = (("fe", "dp", "se", "md"), ("se", "fe", "dp", "md"))
    specs = [PipelineSpec(order, engine=engine, loop=True) for order in orders]

    def runs():
        for seed in range(40):
            for spec in specs:
                reduced, report = run_pipeline(phase_order_instance(seed), spec)
                yield reduced, {k: v for k, v in report.to_dict().items() if k != "wall_times_ms"}

    expected = list(runs())
    assert all(sum(report["deleted_by_rule"][rule] for _, report in expected) for rule in ("fe", "dp", "se", "md"))

    def no_tuples(*args):
        raise AssertionError("alive contents read through a tuple reader")

    monkeypatch.setattr(ActiveInstance, "edge_members", no_tuples)
    assert list(runs()) == expected


@pytest.mark.parametrize("engine", ["sequential", "parallel"])
def test_hypergraph_builds_do_not_grow_with_rounds(engine, monkeypatch):
    # Phases read the run's one matrix masked by the alive flags; only the
    # output is built as a Hypergraph, however many rounds the loop takes.
    chains = [Hypergraph(n, tuple((i, i + 1) for i in range(1, n)), (1,) * (n - 1)) for n in (50, 400)]
    post_init = Hypergraph.__post_init__
    builds = []

    def counting(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(Hypergraph, "__post_init__", counting)
    counts, rounds = [], []
    for chain in chains:
        builds.clear()
        _, report = run_pipeline(chain, PipelineSpec(("dp", "md"), engine=engine, loop=True))
        counts.append(len(builds))
        rounds.append(report.rounds)
    assert rounds[1] > 6 * rounds[0]
    assert counts[0] == counts[1]


@pytest.mark.parametrize(
    "phases", [("dp", "md"), ("se", "md"), ("fe", "dp", "md"), ("dp", "md", "lp")]
)
@pytest.mark.parametrize("seed", [0, 7, 23])
def test_pipelines_preserve_optimum(phases, seed):
    h = generate_random(n=1 + (seed * 13) % 12, m=1 + (seed * 5) % 10, p=0.4, alpha=1 + seed % 3, seed=seed)
    reduced, report = run_pipeline(h, PipelineSpec(phases, loop=True))
    assert not report.infeasible
    assert brute_force_opt(h) == brute_force_opt(reduced) + report.budget_delta


def test_report_json_shape(ce):
    _, report = run_pipeline(ce, PipelineSpec(("dp", "md"), loop=True), compute_bounds=True)
    payload = json.loads(report.to_json())
    assert list(payload) == [
        "n_before",
        "m_before",
        "size_before",
        "n_after",
        "m_after",
        "size_after",
        "rounds",
        "deleted_by_rule",
        "budget_delta",
        "infeasible",
        "bound_2_alpha_nabla",
        "matching_bound",
        "wall_times_ms",
    ]
    assert list(payload["deleted_by_rule"]) == ["fe", "dp", "se", "md", "lp"]
    assert payload["n_after"] + payload["m_after"] <= payload["bound_2_alpha_nabla"]


def test_stats(ce):
    assert compute_stats(singletons(4), {"dilworth", "matching"}) == {
        "dilworth": 4,
        "matching": 4,
    }
    assert compute_stats(ce, {"matching"}) == {"matching": 3}
    assert compute_stats(Hypergraph(0, (), ()), {"dilworth", "diversity", "matching", "size"}) == {
        "dilworth": 0,
        "diversity": 0,
        "matching": 0,
        "size": 0,
    }
    with pytest.raises(ValueError):
        compute_stats(ce, {"girth"})


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.DOTALL)
    assert example, "README.md has no fenced python block under '## Library example'"
    (tmp_path / "inst.mhs").write_text(serialize_instance(generate_random(n=14, m=10, p=0.3, alpha=2, seed=5)))
    monkeypatch.chdir(tmp_path)
    exec(compile(example.group(1), "README.md", "exec"), {})
