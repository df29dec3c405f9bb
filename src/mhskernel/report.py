"""Reduction run reports.

Every pipeline entry point reports infeasibility in
:attr:`KernelReport.infeasible` and never raises for it; the report's
JSON keys are its fields, in declaration order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .instance import Hypergraph

RULE_KEYS = ("fe", "dp", "se", "md", "lp")


@dataclass
class KernelReport:
    """Before/after accounting of a reduction run.

    ``bound_2_alpha_nabla`` and ``matching_bound`` are filled only when the
    caller asked for the parameter computations; the wall times
    are informational and never asserted by tests.
    """

    n_before: int = 0
    m_before: int = 0
    size_before: int = 0
    n_after: int = 0
    m_after: int = 0
    size_after: int = 0
    rounds: int = 0
    deleted_by_rule: dict[str, int] = field(default_factory=lambda: {k: 0 for k in RULE_KEYS})
    budget_delta: int = 0
    infeasible: bool = False
    bound_2_alpha_nabla: int | None = None
    matching_bound: int | None = None
    wall_times_ms: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        # The field order is the key order, which keeps report files diffable.
        out = asdict(self)
        out["wall_times_ms"] = dict(sorted(self.wall_times_ms.items()))
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass
class KernelRun:
    """Result of a reduction engine run.

    ``hypergraph`` is the compacted remainder (the input itself when it was
    infeasible); the alive tuples carry the surviving items' original
    1-based ids, which is what engine-equivalence checks compare.
    """

    hypergraph: Hypergraph
    report: KernelReport
    alive_vertices: tuple[int, ...]
    alive_edges: tuple[int, ...]
