"""Reduction run reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
        # Fixed key order keeps report files diffable.
        return {
            "n_before": self.n_before,
            "m_before": self.m_before,
            "size_before": self.size_before,
            "n_after": self.n_after,
            "m_after": self.m_after,
            "size_after": self.size_after,
            "rounds": self.rounds,
            "deleted_by_rule": {k: self.deleted_by_rule.get(k, 0) for k in RULE_KEYS},
            "budget_delta": self.budget_delta,
            "infeasible": self.infeasible,
            "bound_2_alpha_nabla": self.bound_2_alpha_nabla,
            "matching_bound": self.matching_bound,
            "wall_times_ms": {k: self.wall_times_ms[k] for k in sorted(self.wall_times_ms)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass
class KernelRun:
    """Result of a reduction engine run.

    ``hypergraph`` is the compacted remainder; the alive tuples carry the
    surviving items' original 1-based ids, which is what engine-equivalence
    checks compare.
    """

    hypergraph: Hypergraph
    report: KernelReport
    alive_vertices: tuple[int, ...]
    alive_edges: tuple[int, ...]
