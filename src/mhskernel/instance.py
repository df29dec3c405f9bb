"""Multiple Hitting Set instance model, validation and (de)serialization.

An instance is a hypergraph with a per-edge demand (how many of the edge's
vertices every solution must contain) and an optional solution budget.
Vertices and hyperedges are identified by their 1-based position in the
input; reductions elsewhere in this package never renumber, so all results
are deterministic in input order.

File format (line oriented, ``#`` starts a comment line)::

    p mhs <n> <m> [k]
    e <demand> <v1> <v2> ...     (exactly m such lines, 1-based vertices)

Plain text, the kind :func:`serialize_instance` writes, is read in bulk by
numpy; any other text goes to the line parser, which gives the same
instance or names the offending line.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterable

import numpy as np


class InstanceError(ValueError):
    """Malformed instance text.  Carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _frozen(a) -> np.ndarray:
    """A read-only view of ``a`` as an intp array; ``a`` stays writeable."""
    view = np.asarray(a, dtype=np.intp).view()
    view.flags.writeable = False
    return view


class Hypergraph:
    """Immutable hypergraph with per-edge demands.

    Attributes:
        n: number of vertices (ids ``1..n``).
        indptr, words: the row-compressed incidence matrix.  ``words``
            lists the 0-based vertex of every incidence, edge by edge and
            increasing within an edge, and ``indptr[i]:indptr[i + 1]``
            delimits the run of edge ``i + 1``.  Both are read-only.
        demand: per edge, the required number of hits (``>= 1``), as a
            tuple of ints.
        budget: optional solution-size budget.  May go negative in
            intermediate reduction results; negative budgets are reported
            as infeasible by :func:`validate_feasibility`.

    These five are all an instance stores, whichever constructor built it.
    ``edges`` (per edge, a strictly increasing tuple of vertex ids) and
    ``edge_bits`` are views derived from the arrays on first use.
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[Iterable[int]],
        demand: Iterable[int],
        budget: int | None = None,
    ):
        vars(self)["n"] = n
        self.__post_init__()
        edges, demand = tuple(edges), tuple(demand)
        if len(edges) != len(demand):
            raise ValueError("one demand per edge required")
        rows, demands = [], []
        for idx, (row, f) in enumerate(zip(edges, demand), start=1):
            try:
                f, row = operator.index(f), tuple(map(operator.index, row))
            except TypeError:
                raise ValueError(f"edge {idx}: demand and vertex ids must be integers, got {f!r} and {row!r}") from None
            if f < 1:
                raise ValueError(f"edge {idx}: demand must be positive, got {f}")
            if not all(map(operator.lt, row, row[1:])):
                raise ValueError(f"edge {idx}: vertices must be strictly increasing")
            if row and (row[0] < 1 or row[-1] > n):
                raise ValueError(f"edge {idx}: vertex id out of range 1..{n}")
            rows.append(row)
            demands.append(f)
        indptr = np.fromiter(accumulate(map(len, rows), initial=0), dtype=np.intp, count=len(rows) + 1)
        words = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=int(indptr[-1]))
        words -= 1
        vars(self).update(indptr=_frozen(indptr), words=_frozen(words), demand=tuple(demands), budget=budget)

    @classmethod
    def _from_arrays(cls, n: int, indptr, words, demand: Iterable[int], budget: int | None = None) -> "Hypergraph":
        """An instance from its row-compressed incidence matrix (see the
        class docstring) and per-edge demands as Python ints.  Only ``n`` is
        checked: the callers (the parser, ``ActiveInstance.extract``, lp's
        ``build_pushed_subinstance`` and ingest) pass arrays that already
        hold every other invariant."""
        h = object.__new__(cls)
        vars(h)["n"] = n
        h.__post_init__()
        vars(h).update(indptr=_frozen(indptr), words=_frozen(words), demand=tuple(demand), budget=budget)
        return h

    def __post_init__(self):
        """Check the vertex count; each constructor calls this once, before
        it stores the arrays."""
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if self.n > sys.maxsize:
            raise ValueError(f"vertex count must be at most {sys.maxsize}")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.n, self.demand, self.budget) != (other.n, other.demand, other.budget):
            return False
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(self.words, other.words)

    def __hash__(self):
        return hash((self.n, self.demand, self.budget))

    def __repr__(self):
        return f"Hypergraph(n={self.n!r}, edges={self.edges!r}, demand={self.demand!r}, budget={self.budget!r})"

    def with_budget(self, budget: int | None) -> "Hypergraph":
        """The same instance with ``budget``, sharing the arrays."""
        h = object.__new__(self.__class__)
        vars(h).update(n=self.n, indptr=self.indptr, words=self.words, demand=self.demand, budget=budget)
        return h

    @property
    def m(self) -> int:
        return len(self.demand)

    @cached_property
    def alpha(self) -> int:
        """Maximum demand over all edges (0 for an edgeless instance)."""
        return max(self.demand, default=0)

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        members, bounds = (self.words + 1).tolist(), self.indptr.tolist()
        return tuple(tuple(members[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    @cached_property
    def edge_bits(self) -> tuple[int, ...]:
        """Per edge, a bitset of its vertices (vertex j maps to bit j-1)."""
        columns, bounds = self.words.tolist(), self.indptr.tolist()
        out = []
        for lo, hi in zip(bounds, bounds[1:]):
            bits = 0
            for j in columns[lo:hi]:
                bits |= 1 << j
            out.append(bits)
        return tuple(out)


# Plain text: the header, then edge lines of "e" and numbers of at most 18
# digits (which fit in an int64) after single spaces, each ending in "\n".
_PLAIN_HEADER = re.compile(r"p mhs ([0-9]{1,18}) ([0-9]{1,18})(?: ([0-9]{1,18}))?\n")
_PLAIN_BODY = re.compile(r"(?:e(?: [0-9]{1,18})+\n)*")


def parse_instance(text: str) -> Hypergraph:
    """Parse instance text, validating the header and every edge line.

    Plain text is read by :func:`_parse_plain`; any other text, and plain
    text that fails a check, goes to :func:`_parse_lines`, the reference,
    which words every error."""
    h = _parse_plain(text)
    return _parse_lines(text) if h is None else h


def _parse_plain(text: str) -> Hypergraph | None:
    """The instance of plain text, read in bulk: one ``np.fromstring``
    call, then the demand, range, order and edge-count checks on the
    arrays.  ``None`` when the text is not plain or fails a check."""
    header = _PLAIN_HEADER.match(text)
    if header is None or _PLAIN_BODY.fullmatch(text, header.end()) is None:
        return None
    n, m = int(header[1]), int(header[2])
    body = text[header.end() :]
    # "e" reads as -1, the only negative value, and marks each edge line.
    values = np.fromstring(body.replace("e", "-1"), dtype=np.int64, sep=" ") if body else np.empty(0, np.int64)
    starts = np.flatnonzero(values == -1)
    if starts.size != m:
        return None
    sizes = np.diff(np.append(starts, values.size)) - 2
    member = np.ones(values.size, dtype=bool)
    member[starts] = member[starts + 1] = False
    demand, words = values[starts + 1], values[member] - 1
    row = np.repeat(np.arange(m), sizes)
    if (
        np.any(demand < 1)
        or np.any(words >= n)
        or np.any(words < 0)
        or not np.all((np.diff(words) > 0) | (np.diff(row) != 0))
    ):
        return None
    indptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(sizes, out=indptr[1:])
    return Hypergraph._from_arrays(n, indptr, words, demand.tolist(), None if header[3] is None else int(header[3]))


def _parse_lines(text: str) -> Hypergraph:
    """Parse any instance text line by line; raises :class:`InstanceError`
    naming the first offending line."""
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
    """Render an instance back to text, from its arrays; round-trips
    through parse_instance."""
    head = f"p mhs {h.n} {h.m}" + (f" {h.budget}" if h.budget is not None else "")
    members, bounds = list(map(str, (h.words + 1).tolist())), h.indptr.tolist()
    lines = [head]
    lines.extend(" ".join(["e", str(f), *members[lo:hi]]) for f, lo, hi in zip(h.demand, bounds, bounds[1:]))
    return "\n".join(lines) + "\n"


def instance_size(h: Hypergraph) -> int:
    """Size measure: vertex count plus the sum of all edge cardinalities."""
    return h.n + h.words.size


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
    for i, (f, size) in enumerate(zip(h.demand, np.diff(h.indptr).tolist()), start=1):
        if f > size:
            return FeasibilityReport(False, reason=f"edge {i} demands {f} hits but has {size} vertices", edge=i)
    return FeasibilityReport(True)
