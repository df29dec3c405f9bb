"""Multiple Hitting Set instance model, validation and (de)serialization.

An instance is a hypergraph with a per-edge demand (how many of the edge's
vertices every solution must contain) and an optional solution budget.
Vertices and hyperedges are identified by their 1-based position in the
input; reductions elsewhere in this package never renumber, so all results
are deterministic in input order.

File format (line oriented, ``#`` starts a comment line)::

    p mhs <n> <m> [k]
    e <demand> <v1> <v2> ...     (exactly m such lines, 1-based vertices)
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


class InstanceError(ValueError):
    """Malformed instance text.  Carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class Hypergraph:
    """Immutable hypergraph with per-edge demands.

    Attributes:
        n: number of vertices (ids ``1..n``).
        edges: per edge, a strictly increasing tuple of vertex ids.
        demand: per edge, the required number of hits (``>= 1``).
        budget: optional solution-size budget.  May go negative in
            intermediate reduction results; negative budgets are reported
            as infeasible by :func:`validate_feasibility`.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]
    demand: tuple[int, ...]
    budget: int | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if self.n > sys.maxsize:
            raise ValueError(f"vertex count must be at most {sys.maxsize}")
        if len(self.edges) != len(self.demand):
            raise ValueError("one demand per edge required")
        for idx, (members, f) in enumerate(zip(self.edges, self.demand), start=1):
            if f < 1:
                raise ValueError(f"edge {idx}: demand must be positive, got {f}")
            if not all(map(operator.lt, members, members[1:])):
                raise ValueError(f"edge {idx}: vertices must be strictly increasing")
            if members and (members[0] < 1 or members[-1] > self.n):
                raise ValueError(f"edge {idx}: vertex id out of range 1..{self.n}")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[Iterable[int]],
        demand: Iterable[int],
        budget: int | None = None,
    ) -> "Hypergraph":
        """Build an instance, sorting each edge's vertex list.

        Duplicate vertices within an edge are rejected; duplicate edges are
        allowed (reduction rules resolve them by index tie-breaking).
        """
        canon = []
        for idx, members in enumerate(edges, start=1):
            mem = sorted(members)
            if any(mem[i] == mem[i + 1] for i in range(len(mem) - 1)):
                raise ValueError(f"edge {idx}: duplicate vertex")
            canon.append(tuple(mem))
        return cls(n, tuple(canon), tuple(demand), budget)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def alpha(self) -> int:
        """Maximum demand over all edges (0 for an edgeless instance)."""
        return max(self.demand, default=0)

    @cached_property
    def edge_bits(self) -> tuple[int, ...]:
        """Per edge, a bitset of its vertices (vertex j maps to bit j-1)."""
        out = []
        for members in self.edges:
            bits = 0
            for j in members:
                bits |= 1 << (j - 1)
            out.append(bits)
        return tuple(out)

    @cached_property
    def vertex_edges(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the increasing tuple of edge ids containing it."""
        incident: list[list[int]] = [[] for _ in range(self.n)]
        for i, members in enumerate(self.edges, start=1):
            for j in members:
                incident[j - 1].append(i)
        return tuple(tuple(lst) for lst in incident)


def parse_instance(text: str) -> Hypergraph:
    """Parse instance text, validating the header and every edge line."""
    header: tuple[int, int, int | None] | None = None
    edges: list[tuple[int, ...]] = []
    demand: list[int] = []
    header_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if fields[0] != "p" or len(fields) < 4 or len(fields) > 5 or fields[1] != "mhs":
                raise InstanceError("expected header 'p mhs <n> <m> [k]'", line_no)
            try:
                n, m = int(fields[2]), int(fields[3])
                k = int(fields[4]) if len(fields) == 5 else None
            except ValueError:
                raise InstanceError("non-integer field in header", line_no) from None
            if n < 0 or m < 0:
                raise InstanceError("vertex/edge counts must be non-negative", line_no)
            if n > sys.maxsize:
                raise InstanceError(f"vertex count must be at most {sys.maxsize}", line_no)
            if k is not None and k < 0:
                raise InstanceError("budget must be non-negative", line_no)
            header = (n, m, k)
            header_line = line_no
            continue
        if fields[0] != "e":
            raise InstanceError(f"expected edge line 'e <demand> <v1> ...', got {fields[0]!r}", line_no)
        if len(fields) < 2:
            raise InstanceError("edge line missing demand", line_no)
        try:
            values = list(map(int, fields[1:]))
        except ValueError:
            raise InstanceError("non-integer field in edge line", line_no) from None
        f = values[0]
        if f < 1:
            raise InstanceError(f"demand must be positive, got {f}", line_no)
        members = sorted(values[1:])
        if members and (members[0] < 1 or members[-1] > header[0] or len(set(members)) < len(members)):
            # Name the first bad vertex in input order.
            seen: set[int] = set()
            for v in values[1:]:
                if v < 1 or v > header[0]:
                    raise InstanceError(f"vertex {v} out of range 1..{header[0]}", line_no)
                if v in seen:
                    raise InstanceError(f"duplicate vertex {v} in edge", line_no)
                seen.add(v)
        edges.append(tuple(members))
        demand.append(f)
    if header is None:
        raise InstanceError("missing header line")
    n, m, k = header
    if len(edges) != m:
        raise InstanceError(f"header declares {m} edges but {len(edges)} found", header_line)
    return Hypergraph(n, tuple(edges), tuple(demand), k)


def serialize_instance(h: Hypergraph) -> str:
    """Render an instance back to text; round-trips through parse_instance."""
    head = f"p mhs {h.n} {h.m}" + (f" {h.budget}" if h.budget is not None else "")
    lines = [head]
    for members, f in zip(h.edges, h.demand):
        lines.append("e " + " ".join(str(x) for x in (f, *members)))
    return "\n".join(lines) + "\n"


def instance_size(h: Hypergraph) -> int:
    """Size measure: vertex count plus the sum of all edge cardinalities."""
    return h.n + sum(len(e) for e in h.edges)


def edges_of(h: Hypergraph, j: int) -> frozenset[int]:
    """Ids of the edges containing vertex ``j``."""
    if not 1 <= j <= h.n:
        raise IndexError(f"vertex {j} out of range 1..{h.n}")
    return frozenset(h.vertex_edges[j - 1])


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    reason: str | None = None
    edge: int | None = None

    def __bool__(self) -> bool:
        return self.feasible


def validate_feasibility(h: Hypergraph) -> FeasibilityReport:
    """Check that no edge demands more hits than it has vertices.

    Also flags a negative budget, which arises when forced deletions have
    consumed more than the declared allowance.
    """
    if h.budget is not None and h.budget < 0:
        return FeasibilityReport(False, reason=f"budget {h.budget} is negative")
    for i, (members, f) in enumerate(zip(h.edges, h.demand), start=1):
        if f > len(members):
            return FeasibilityReport(
                False, reason=f"edge {i} demands {f} hits but has {len(members)} vertices", edge=i
            )
    return FeasibilityReport(True)
