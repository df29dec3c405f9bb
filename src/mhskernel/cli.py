"""Command-line surface.

Exit codes: 0 ok, 1 infeasible, 2 input error, 3 limit exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .generate import generate_random, ingest_response_matrix
from .graphparams import STATS, compute_stats
from .instance import InstanceError, parse_instance, serialize_instance
from .pipeline import LP_ORACLES, PHASES, PipelineSpec, run_pipeline
from .solver import DEFAULT_NODE_LIMIT, SolveStatus, solve_opt

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(path: str | None, text: str) -> None:
    """Write ``text`` to the file at ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_reduce(args) -> int:
    if args.workers < 1:
        raise ValueError("worker count must be positive")
    h = parse_instance(_read(args.input))
    phases = tuple(p.strip() for p in args.rules.split(",") if p.strip())
    spec = PipelineSpec(
        phases=phases,
        engine={"seq": "sequential", "par": "parallel"}[args.engine],
        loop=args.loop,
        lp_oracle=args.lp_oracle,
    )
    reduced, report = run_pipeline(h, spec, compute_bounds=args.bounds)
    if args.output:
        _emit(args.output, serialize_instance(reduced))
    _emit(args.report, report.to_json() + "\n")
    return EXIT_INFEASIBLE if report.infeasible else EXIT_OK


def _cmd_solve(args) -> int:
    h = parse_instance(_read(args.input))
    solution = solve_opt(h, node_limit=args.node_limit)
    print(json.dumps({
        "status": solution.status.value,
        "cardinality": solution.cardinality,
        "chosen": sorted(solution.chosen),
        "within_budget": None if h.budget is None else solution.cardinality <= h.budget,
    }, indent=2))
    if solution.status is SolveStatus.INFEASIBLE:
        return EXIT_INFEASIBLE
    if solution.status is SolveStatus.BUDGET_EXCEEDED:
        return EXIT_LIMIT
    return EXIT_OK


def _cmd_stats(args) -> int:
    h = parse_instance(_read(args.input))
    which = {name for name in STATS if getattr(args, name)} or set(STATS)
    print(json.dumps(compute_stats(h, which), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_gen(args) -> int:
    h = generate_random(args.n, args.m, args.p, args.alpha, args.seed)
    _emit(args.output, serialize_instance(h))
    return EXIT_OK


def _cmd_ingest(args) -> int:
    h = ingest_response_matrix(_read(args.csv), sigmas=args.sigmas, alpha=args.alpha, direction=args.direction)
    _emit(args.output, serialize_instance(h))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` keeps no state on it."""
    parser = argparse.ArgumentParser(
        prog="mhskernel",
        description="Data reduction, solving and parameter stats for Multiple Hitting Set instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="run a reduction pipeline")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", help="write the reduced instance here")
    p.add_argument("--rules", default="dp,md", help=f"comma-separated phases from {','.join(PHASES)}")
    p.add_argument("--engine", choices=("seq", "par"), default="seq")
    p.add_argument("--loop", action="store_true", help="repeat the phase list until nothing changes")
    p.add_argument("--report", help="write the JSON report here (default: stdout)")
    p.add_argument("--bounds", action="store_true", help="also compute the size/iteration bounds")
    p.add_argument("--lp-oracle", choices=tuple(LP_ORACLES), default="exact")
    p.add_argument("--workers", type=int, default=1, help="accepted for compatibility and ignored; must be positive")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("solve", help="solve an instance exactly")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("stats", help="incidence-graph parameters")
    p.add_argument("-i", "--input", required=True)
    for name in STATS:
        p.add_argument(f"--{name}", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("ingest", help="threshold a numeric response matrix into an instance")
    p.add_argument("--csv", required=True)
    p.add_argument("--sigmas", type=float, default=2.0)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--direction", choices=("above", "below"), default="above")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_ingest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
