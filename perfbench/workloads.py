"""Seeded inputs and per-input op plans of the benchmark workloads.

Every input is a pure function of (workload, seed, index, scale): the same
seed always yields the same files, and no two indices share an input.
Size and density (for CSVs: rows and columns) are drawn from continuous
ranges along a two-dimensional low-discrepancy sequence with a seeded
start, so any prefix of the input stream covers each family's ranges evenly
whatever the seed; the instances themselves come from a seeded RNG.  This
keeps run-to-run spread low without clustering sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("dpmd", "lp-loop", "screen")

# Explicit B&B node budget of every `solve` op; the greedy start before the
# search is not bounded by it.
NODE_LIMIT = 1_000_000

# Steps of the R2 sequence (Roberts): inverse powers of the plastic number.
_PLASTIC = 1.324717957244746
_STEPS = (1.0 / _PLASTIC, 1.0 / _PLASTIC**2)


@dataclass(frozen=True)
class Op:
    """One `cli.main` call: ``kind`` groups ops for the metrics."""

    name: str
    kind: str  # "ingest", "reduce", "solve" or "stats"
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Input:
    """One seeded input and the ops run on it, in order.

    Paths are relative to the run directory.  ``raw`` is the instance the
    optimum checks start from (for CSV inputs it is the `ingest` output);
    ``reports`` maps each reduce op to its report and reduced files.
    """

    index: int
    family: str
    params: dict
    source: str
    raw: str
    ops: tuple[Op, ...]
    reports: dict = field(default_factory=dict)


def _spread(seed: int, family: str, j: int) -> tuple[float, float]:
    """The ``j``-th point in [0, 1)^2 of the family's sequence for ``seed``."""
    start = random.Random(f"{seed}:{family}")
    return tuple((start.random() + j * step) % 1.0 for step in _STEPS)


def _lerp(lo: float, hi: float, u: float) -> int:
    return int(round(lo + (hi - lo) * u))


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:input:{index}")


def _reduce(name: str, src: str, stem: str, rules: str, extra: tuple[str, ...]) -> tuple[Op, dict]:
    kernel, report = f"{stem}.{name}.mhs", f"{stem}.{name}.json"
    argv = ("reduce", "-i", src, "-o", kernel, "--rules", rules, "--loop", *extra, "--report", report)
    return Op(name, "reduce", argv), {"kernel": kernel, "report": report}


def _solve(kernel: str) -> Op:
    return Op("solve", "solve", ("solve", "-i", kernel, "--node-limit", str(NODE_LIMIT)))


def _dpmd(seed: int, index: int, scale: float) -> Input:
    family = ("random-a1", "random-a2", "chain")[index % 3]
    u, v = _spread(seed, family, index // 3)
    rng = _rng(seed, index)
    stem = f"in{index:05d}"
    raw = f"{stem}.mhs"
    if family == "chain":
        # The par engine needs about length/4 rounds; longer chains make its
        # thread-pool phases dominate the run and its noise.
        params = {"length": max(4, int(_lerp(80, 200, u) * scale))}
    elif family == "random-a1":
        # Denser alpha=1 kernels can need a deep search instead of the greedy.
        params = {"n": max(8, int(_lerp(300, 700, u) * scale)), "pn": 1.6 + 0.4 * v, "alpha": 1}
    else:
        params = {"n": max(8, int(_lerp(300, 800, u) * scale)), "pn": 2.0 + v, "alpha": 2}
    params["gen_seed"] = rng.randrange(2**31)
    seq, seq_files = _reduce("reduce-seq", raw, stem, "dp,md", ("--engine", "seq"))
    par, par_files = _reduce("reduce-par", raw, stem, "dp,md", ("--engine", "par", "--workers", "2"))
    ops = [seq, par]
    if family != "random-a2":
        # alpha=2 kernels stay near the raw size and are too large to solve.
        ops.append(_solve(seq_files["kernel"]))
    return Input(index, family, params, raw, raw, tuple(ops), {seq.name: seq_files, par.name: par_files})


def _lp_loop(seed: int, index: int, scale: float) -> Input:
    alpha = 2 + index % 2
    family = f"random-a{alpha}"
    u, v = _spread(seed, family, index // 2)
    rng = _rng(seed, index)
    # Densities stay where the rules fire and the milp reference stays fast.
    params = {
        "n": max(8, int(_lerp(200, 400, u) * scale)),
        "pn": alpha + 1.5 + v,
        "alpha": alpha,
        "gen_seed": rng.randrange(2**31),
    }
    stem = f"in{index:05d}"
    raw = f"{stem}.mhs"
    extra = ("--engine", "par", "--workers", "2", "--lp-oracle", "exact")
    op, files = _reduce("reduce-lp", raw, stem, "fe,dp,md,lp", extra)
    return Input(index, family, params, raw, raw, (op,), {op.name: files})


def _screen(seed: int, index: int, scale: float) -> Input:
    u, v = _spread(seed, "csv", index)
    rng = _rng(seed, index)
    # Narrower CSVs collapse under the fe cascade; wider ones can leave
    # kernels whose search needs close to a million nodes.
    params = {
        "rows": max(12, int(_lerp(250, 450, u) * scale)),
        "cols": max(10, int(_lerp(50, 64, v) * scale)),
        "modules": 4 + index % 4,
        "csv_seed": rng.randrange(2**31),
    }
    stem = f"in{index:05d}"
    csv, raw = f"{stem}.csv", f"{stem}.mhs"
    ingest = Op("ingest", "ingest", ("ingest", "--csv", csv, "--alpha", "2", "-o", raw))
    reduce, files = _reduce("reduce-fe", raw, stem, "fe,dp,md", ("--engine", "seq"))
    ops = (ingest, reduce, _solve(files["kernel"]), Op("stats", "stats", ("stats", "-i", raw)))
    return Input(index, "csv", params, csv, raw, ops, {reduce.name: files})


_BUILDERS = {"dpmd": _dpmd, "lp-loop": _lp_loop, "screen": _screen}


def make_input(workload: str, seed: int, index: int, scale: float = 1.0) -> Input:
    """The ``index``-th input of a workload's stream for ``seed``."""
    return _BUILDERS[workload](seed, index, scale)


def chain_text(length: int) -> str:
    """Path ``{i, i+1}`` with unit demands: the dp/md loop needs about
    ``length / 4`` rounds on it."""
    lines = [f"p mhs {length} {length - 1}"]
    lines.extend(f"e 1 {i} {i + 1}" for i in range(1, length))
    return "\n".join(lines) + "\n"


def response_csv(params: dict) -> str:
    """Gaussian response matrix with planted, overlapping response modules.

    Each row responds strongly on most columns of one module, so after
    thresholding its edge is the module with dropout plus a few noise
    columns: near-duplicate edges for ``dp``, rare columns for ``md``.
    """
    rng = random.Random(params["csv_seed"])
    cols = params["cols"]
    size_hi = max(2, min(10, cols // 2))
    modules = [rng.sample(range(cols), rng.randint(min(5, size_hi), size_hi)) for _ in range(params["modules"])]
    lines = []
    for _ in range(params["rows"]):
        values = [rng.gauss(0.0, 1.0) for _ in range(cols)]
        for c in modules[rng.randrange(len(modules))]:
            if rng.random() < 0.95:
                values[c] += 5.0
        lines.append(",".join(f"{v:.3f}" for v in values))
    return "\n".join(lines) + "\n"
