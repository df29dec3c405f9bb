"""Span tracing of mhskernel from outside the program.

``Tracer.install`` rebinds the public functions of each module, in every
namespace that imported them by name, to wrappers that record a span
(op id, span id, parent span id, name, start, end) and counts taken at the
same boundary.  The program itself is unchanged: an untraced process never
imports this module.

Self time of a span is its duration minus the durations of its direct
child spans.  Calls from threads other than the main thread (the parallel
engine's pool workers) pass straight through; no wrapped function is
called from them today.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import Counter, defaultdict

# Per-layer metrics, reported per input processed.  Times are the summed
# self time of the listed spans; counts are a counter key (a span name
# counts its calls).
SELF_TIME = {
    "sequential.edge_phase_s": ("sequential.edge_phase",),
    "sequential.vertex_phase_s": ("sequential.vertex_phase",),
    "sequential.init_s": ("sequential.init",),
    "parallel.edge_phase_s": ("parallel.edge_phase",),
    "parallel.vertex_phase_s": ("parallel.vertex_phase",),
    "bitmatrix.build_s": ("bitmatrix.build",),
    "rules.extract_s": ("rules.extract",),
    "rules.fe_s": ("rules.fe",),
    "rules.lp_s": ("rules.lp", "rules.lp_oracle"),
    "instance.parse_s": ("instance.parse",),
    "instance.serialize_s": ("instance.serialize",),
    "instance.validate_s": ("instance.validate",),
    "instance.build_s": ("instance.build",),
    "generate.ingest_s": ("generate.ingest",),
    "generate.random_s": ("generate.random",),
    "pipeline.self_s": ("pipeline.run", "pipeline.stats"),
    "pipeline.kernelize_s": ("pipeline.kernelize",),
    "solver.solve_s": ("solver.solve",),
    "solver.oracle_s": ("solver.oracle",),
    "graphparams.incidence_graph_s": ("graphparams.incidence_graph",),
    "graphparams.dilworth_s": ("graphparams.dilworth",),
    "graphparams.diversity_s": ("graphparams.diversity",),
    "graphparams.matching_s": ("graphparams.matching",),
    "cli.self_s": ("cli.main",),
}
COUNTS = {
    "sequential.deleted": "sequential.deleted",
    "sequential.insertions": "sequential.insertions",
    "sequential.inits": "sequential.init",
    "sequential.init_bytes_computed": "sequential.init_bytes",
    "parallel.phases": "parallel.phases",
    "parallel.pairs_computed": "parallel.pairs",
    "parallel.deleted": "parallel.deleted",
    "bitmatrix.builds": "bitmatrix.build",
    "bitmatrix.bytes_computed": "bitmatrix.bytes",
    "rules.extracts": "rules.extract",
    "rules.lp_oracle_calls": "rules.lp_oracle",
    "rules.lp_oracle_failures": "rules.lp_oracle_failures",
    "instance.builds": "instance.build",
    "pipeline.rounds": "pipeline.rounds",
    "solver.nodes": "solver.nodes",
    "solver.oracle_calls": "solver.oracle",
}
UNITS = {
    "sequential.init_bytes_computed": "B",
    "bitmatrix.bytes_computed": "B",
    "rules.lp_yield": "ratio",
    "solver.nodes_per_s": "1/s",
    "trace.overhead_share": "share",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s" for name in SELF_TIME}
    units.update({name: UNITS.get(name, "count") for name in COUNTS})
    units.update({name: UNITS[name] for name in ("rules.lp_yield", "solver.nodes_per_s", "trace.overhead_share")})
    return units


class Tracer:
    """In-memory spans and counters; one instance per traced process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.total_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._op = None
        self._main = threading.main_thread()

    def _enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, name, start, child = frame
        duration = end - start
        self.self_time[name] += duration - child
        self.total_time[name] += duration
        self.counts[name] += 1
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((self._op, span_id, parent, name, start, end))

    @contextlib.contextmanager
    def op(self, op_id: str, root: str = "cli.main"):
        """The root span of one op; nested spans carry its id.  Input
        generation uses the root ``setup``, which no metric reads."""
        self._op = op_id
        frame = self._enter(root)
        try:
            yield
        finally:
            self._exit(frame)
            self._op = None

    def wrap(self, fn, name: str, after=None, before=None):
        """A wrapper of ``fn`` recording a span named ``name``.

        ``before(args)`` runs ahead of the call and its value reaches
        ``after(args, result, token)``.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not self._main:
                return fn(*args, **kwargs)
            token = before(args) if before else None
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after:
                after(args, result, token)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every traced name; call once, before the first op."""
        from mhskernel import cli, parallel, pipeline, rules, sequential
        from mhskernel.instance import Hypergraph
        from mhskernel.rules import ActiveInstance

        count = self._count

        def init_after(args, state, _):
            h = args[0]
            count("sequential.init_bytes", 4 * (h.n * h.n + h.m * h.m))
            count("sequential.insertions", state.insertions)

        def phase_after(args, deleted, before_insertions):
            count("sequential.deleted", deleted)
            count("sequential.insertions", args[0].insertions - before_insertions)

        def par_after(dim):
            def after(args, keep, _):
                size = getattr(args[0], dim)
                count("parallel.phases", 1)
                count("parallel.pairs", size * (size - 1))
                count("parallel.deleted", sum(1 for k in keep if not k))

            return after

        def matrix_after(args, matrix, _):
            count("bitmatrix.bytes", 8 * len(matrix.words))

        def rounds_after(args, result, _):
            count("pipeline.rounds", result[1].rounds)

        def lp_after(args, removed, _):
            count("rules.lp_deleted", len(removed))

        def nodes_after(args, solution, _):
            count("solver.nodes", solution.nodes)

        oracle = pipeline.LP_ORACLES["exact"]

        @functools.wraps(oracle)
        def counted_oracle(sub):
            # lp_rule_applicable swallows RuntimeError; count it first.
            try:
                return oracle(sub)
            except RuntimeError:
                count("rules.lp_oracle_failures", 1)
                raise

        def insertions(args):
            return args[0].insertions

        targets = {
            "init_state": ("sequential.init", init_after, None),
            "seq_reduce_edges": ("sequential.edge_phase", phase_after, insertions),
            "seq_reduce_vertices": ("sequential.vertex_phase", phase_after, insertions),
            "seq_kernelize": ("pipeline.kernelize", None, None),
            "par_kernelize": ("pipeline.kernelize", None, None),
            "par_reduce_edges": ("parallel.edge_phase", par_after("rows"), None),
            "par_reduce_vertices": ("parallel.vertex_phase", par_after("cols"), None),
            "incidence_matrix": ("bitmatrix.build", matrix_after, None),
            "fe_pass": ("rules.fe", None, None),
            "lp_pass": ("rules.lp", lp_after, None),
            "validate_feasibility": ("instance.validate", None, None),
            "incidence_graph": ("graphparams.incidence_graph", None, None),
            "dilworth_number": ("graphparams.dilworth", None, None),
            "neighborhood_diversity": ("graphparams.diversity", None, None),
            "matching_number": ("graphparams.matching", None, None),
            "parse_instance": ("instance.parse", None, None),
            "serialize_instance": ("instance.serialize", None, None),
            "run_pipeline": ("pipeline.run", rounds_after, None),
            "compute_stats": ("pipeline.stats", None, None),
            "ingest_response_matrix": ("generate.ingest", None, None),
            "generate_random": ("generate.random", None, None),
        }
        # One wrapper per function, shared by every namespace binding it.
        wrappers = {}
        for module in (cli, pipeline, sequential, parallel):
            for attr, (name, after, before) in targets.items():
                if hasattr(module, attr):
                    fn = getattr(module, attr)
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self.wrap(fn, name, after, before)
                    setattr(module, attr, wrappers[id(fn)])
        # The same solve_opt is a user-facing solve in cli and an lp oracle
        # call in rules, so each namespace gets its own span name.
        cli.solve_opt = self.wrap(cli.solve_opt, "solver.solve", nodes_after)
        rules.solve_opt = self.wrap(rules.solve_opt, "solver.oracle")
        pipeline.LP_ORACLES["exact"] = self.wrap(counted_oracle, "rules.lp_oracle")
        ActiveInstance.extract = self.wrap(ActiveInstance.extract, "rules.extract")
        Hypergraph.__post_init__ = self.wrap(Hypergraph.__post_init__, "instance.build")

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def per_layer(self, inputs: int) -> dict[str, float]:
        """Per-layer metrics per input (ratios as they are)."""
        per = max(inputs, 1)
        out = {name: sum(self.self_time[s] for s in spans) / per for name, spans in SELF_TIME.items()}
        out.update({name: self.counts[key] / per for name, key in COUNTS.items()})
        calls = self.counts["rules.lp_oracle"]
        out["rules.lp_yield"] = self.counts["rules.lp_deleted"] / calls if calls else 0.0
        solve_s = self.total_time["solver.solve"]
        out["solver.nodes_per_s"] = self.counts["solver.nodes"] / solve_s if solve_s else 0.0
        return out

    def write_spans(self, path: str) -> None:
        keys = ("op", "id", "parent", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
