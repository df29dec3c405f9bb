"""Command-line surface.

Exit codes: 0 ok, 1 infeasible, 2 input error, 3 limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .generate import generate_random, ingest_response_matrix
from .instance import InstanceError, parse_instance, serialize_instance
from .pipeline import PipelineSpec, compute_stats, run_pipeline
from .solver import DEFAULT_NODE_LIMIT, SolveStatus, solve_opt

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _read_instance(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_reduce(args) -> int:
    if args.workers < 1:
        raise ValueError("worker count must be positive")
    h = _read_instance(args.input)
    phases = tuple(p.strip() for p in args.rules.split(",") if p.strip())
    spec = PipelineSpec(
        phases=phases,
        engine={"seq": "sequential", "par": "parallel"}[args.engine],
        loop=args.loop,
        lp_oracle=args.lp_oracle,
    )
    reduced, report = run_pipeline(h, spec, compute_bounds=args.bounds)
    if args.output:
        _write_text(args.output, serialize_instance(reduced))
    if args.report:
        _write_text(args.report, report.to_json() + "\n")
    else:
        print(report.to_json())
    return EXIT_INFEASIBLE if report.infeasible else EXIT_OK


def _cmd_solve(args) -> int:
    h = _read_instance(args.input)
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
    h = _read_instance(args.input)
    which = {
        name
        for name, wanted in (
            ("dilworth", args.dilworth),
            ("diversity", args.diversity),
            ("matching", args.matching),
            ("size", args.size),
        )
        if wanted
    }
    if not which:
        which = {"dilworth", "diversity", "matching", "size"}
    print(json.dumps(compute_stats(h, which), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_gen(args) -> int:
    h = generate_random(args.n, args.m, args.p, args.alpha, args.seed)
    text = serialize_instance(h)
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_ingest(args) -> int:
    with open(args.csv, "r", encoding="utf-8") as fh:
        text = fh.read()
    h = ingest_response_matrix(text, sigmas=args.sigmas, alpha=args.alpha, direction=args.direction)
    out = serialize_instance(h)
    if args.output:
        _write_text(args.output, out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhskernel",
        description="Data reduction, solving and parameter stats for Multiple Hitting Set instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="run a reduction pipeline")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", help="write the reduced instance here")
    p.add_argument("--rules", default="dp,md", help="comma-separated phases from fe,dp,se,md,lp")
    p.add_argument("--engine", choices=("seq", "par"), default="seq")
    p.add_argument("--loop", action="store_true", help="repeat the phase list until nothing changes")
    p.add_argument("--report", help="write the JSON report here (default: stdout)")
    p.add_argument("--bounds", action="store_true", help="also compute the size/iteration bounds")
    p.add_argument("--lp-oracle", choices=("exact", "pushed-max"), default="exact")
    p.add_argument("--workers", type=int, default=1, help="accepted for compatibility and ignored; must be positive")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("solve", help="solve an instance exactly")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("stats", help="incidence-graph parameters")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--dilworth", action="store_true")
    p.add_argument("--diversity", action="store_true")
    p.add_argument("--matching", action="store_true")
    p.add_argument("--size", action="store_true")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
