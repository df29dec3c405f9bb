"""Data reduction rules for Multiple Hitting Set.

Rule-level predicates and single-rule applications, shared by both
reduction engines and testable in isolation:

* full-edge (fe): an edge whose demand equals its size forces all of its
  vertices into every solution; deleting them cascades demand decrements.
* superedge (se): delete an edge containing another edge of at least the
  same demand.
* demand pushing (dp): edge ``a`` supersedes edge ``b`` when
  ``f(a) - |a \\ b| >= f(b)``; superseded edges are deleted.
* multiple domination (md): vertex ``u`` dominates ``v`` when every edge
  containing ``v`` also contains ``u``; ``v`` is deletable once its
  dominators can cover the largest demand among its edges.
* lower bound (lp): delete an edge when the demand pushed into it by the
  other edges already forces at least its own demand.

All functions work on an :class:`ActiveInstance`, an alive-flag overlay on
an immutable hypergraph: deletions are tombstones and never renumber, so
tie-breaking by original index stays meaningful throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bitmatrix import IncidenceMatrix, incidence_matrix
from .instance import Hypergraph
from .solver import DEFAULT_NODE_LIMIT, SolveStatus, solve_opt


@dataclass
class RuleOutcome:
    """Net effect of one rule application (indices refer to the input)."""

    deleted_edges: set[int] = field(default_factory=set)
    deleted_vertices: set[int] = field(default_factory=set)
    demand_decrements: dict[int, int] = field(default_factory=dict)
    budget_delta: int = 0
    infeasible: bool = False


class ActiveInstance:
    """Alive-flag overlay of a hypergraph with mutable demands.

    Edge contents are always read restricted to alive vertices; dead items
    keep their index (tombstones) so later tie-breaks compare original
    input positions.  The input's incidence matrix is built once, here;
    :meth:`alive_matrix` masks it by the alive flags.
    """

    def __init__(self, h: Hypergraph):
        self.h = h
        self.matrix = incidence_matrix(h)
        self.vertex_alive = [True] * h.n
        self.edge_alive = [True] * h.m
        self.demand = list(h.demand)

    def alive_edge_ids(self) -> list[int]:
        return [i + 1 for i in range(self.h.m) if self.edge_alive[i]]

    def edge_members(self, i: int) -> tuple[int, ...]:
        """Alive vertices of edge ``i``."""
        return tuple(j for j in self.h.edges[i - 1] if self.vertex_alive[j - 1])

    def edge_size(self, i: int) -> int:
        return sum(1 for j in self.h.edges[i - 1] if self.vertex_alive[j - 1])

    def vertex_incidences(self, j: int) -> tuple[int, ...]:
        """Alive edges containing vertex ``j``."""
        return tuple(i for i in self.h.vertex_edges[j - 1] if self.edge_alive[i - 1])

    def require_edge(self, i: int) -> None:
        if not 1 <= i <= self.h.m:
            raise IndexError(f"edge {i} out of range 1..{self.h.m}")
        if not self.edge_alive[i - 1]:
            raise ValueError(f"edge {i} is deleted")

    def require_vertex(self, j: int) -> None:
        if not 1 <= j <= self.h.n:
            raise IndexError(f"vertex {j} out of range 1..{self.h.n}")
        if not self.vertex_alive[j - 1]:
            raise ValueError(f"vertex {j} is deleted")

    def alive_matrix(self) -> tuple[IncidenceMatrix, np.ndarray, np.ndarray]:
        """The input's matrix restricted to the alive edges (rows) and vertices (columns),
        plus the 0-based original ids of its vertices and of its edges, in order."""
        vertex_alive, edge_alive = np.array(self.vertex_alive, dtype=bool), np.array(self.edge_alive, dtype=bool)
        return self.matrix.restrict(edge_alive, vertex_alive), np.flatnonzero(vertex_alive), np.flatnonzero(edge_alive)

    def extract(self) -> tuple[Hypergraph, list[int], list[int]]:
        """The alive items as a hypergraph, read off :meth:`alive_matrix`.

        Returns the renumbered hypergraph plus the original 1-based ids of
        its vertices and edges, in order.
        """
        matrix, vertex_ids, edge_ids = self.alive_matrix()
        members, bounds = (matrix.words + 1).tolist(), matrix.indptr.tolist()
        edges = tuple(tuple(members[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
        sub = Hypergraph(matrix.cols, edges, tuple(self.demand[i] for i in edge_ids.tolist()), self.h.budget)
        return sub, (vertex_ids + 1).tolist(), (edge_ids + 1).tolist()


def supersedes(active: ActiveInstance, i: int, j: int) -> bool:
    """Whether edge ``i`` pushes at least ``f(j)`` demand into edge ``j``,
    i.e. ``f(i) - |i \\ j| >= f(j)`` over current contents."""
    if i == j:
        raise ValueError("supersedence is checked between distinct edges")
    active.require_edge(i)
    active.require_edge(j)
    in_j = set(active.edge_members(j))
    only_i = sum(1 for v in active.edge_members(i) if v not in in_j)
    return active.demand[i - 1] - only_i >= active.demand[j - 1]


def dominators(active: ActiveInstance, j: int) -> frozenset[int]:
    """Alive vertices whose incidences contain all of vertex ``j``'s."""
    active.require_vertex(j)
    own = set(active.vertex_incidences(j))
    out = []
    for i in range(1, active.h.n + 1):
        if i != j and active.vertex_alive[i - 1] and own.issubset(active.vertex_incidences(i)):
            out.append(i)
    return frozenset(out)


def md_applicable(active: ActiveInstance, j: int) -> bool:
    """Whether vertex ``j`` has enough dominators to cover the largest
    demand among its alive edges (a vertex in no alive edge always has)."""
    active.require_vertex(j)
    need = max((active.demand[i - 1] for i in active.vertex_incidences(j)), default=0)
    if need == 0:
        return True
    return len(dominators(active, j)) >= need


def superseding(common, size_i, f_i, id_i, size_j, f_j, id_j, rule: str = "dp"):
    """Elementwise: whether edge ``i`` deletes edge ``j`` in an edge phase.

    Arguments broadcast like numpy arrays; ``common`` is ``|i ∩ j|``.  Under
    ``"dp"`` edge ``i`` relates to ``j`` when ``f(i) - |i \\ j| >= f(j)``,
    under ``"se"`` when ``i ⊆ j`` and ``f(i) >= f(j)``.  ``j`` goes when
    ``i`` relates to it and either ``j`` does not relate back or ``i`` has
    the lower id, so of two mutually related edges exactly one survives and
    an edge never deletes itself.  Both engines apply this one predicate.
    """
    if rule == "dp":
        forward = f_i - (size_i - common) >= f_j
        one_way = f_j - (size_j - common) < f_i
    elif rule == "se":
        forward = (common == size_i) & (f_i >= f_j)
        one_way = (common != size_j) | (f_j < f_i)
    else:
        raise ValueError(f"unknown edge rule {rule!r}")
    return forward & (one_way | (id_i < id_j))


def dominating(common, deg_i, id_i, deg_j, id_j):
    """Elementwise: whether vertex ``i`` counts as a dominator of ``j``.

    ``common`` is the number of edges containing both.  ``j``'s incidences
    must lie within ``i``'s; on equal incidence sets only the lower id
    counts, so a vertex never counts for itself.  Both engines apply this
    one predicate.
    """
    return (common == deg_j) & ((common != deg_i) | (id_i < id_j))


def fe_pass(active: ActiveInstance) -> RuleOutcome:
    """Exhaustively apply the full-edge rule, cascading demand decrements.

    Deleting a full edge forces its vertices into the solution; each
    forced vertex shrinks the other edges containing it and lowers their
    demand by one, which may create new full edges or satisfy edges
    entirely (demand zero).  The outcome's budget delta counts the forced
    vertices.  Infeasibility (an edge left with more demand than vertices)
    is reported in the outcome, not raised.
    """
    outcome = RuleOutcome()
    sizes = [0] * active.h.m
    queue: list[int] = []
    for i in active.alive_edge_ids():
        sizes[i - 1] = active.edge_size(i)
        if active.demand[i - 1] > sizes[i - 1]:
            outcome.infeasible = True
            return outcome
        if active.demand[i - 1] == sizes[i - 1]:
            queue.append(i)
    while queue:
        i = queue.pop()
        if not active.edge_alive[i - 1] or active.demand[i - 1] != sizes[i - 1]:
            continue
        forced = active.edge_members(i)
        active.edge_alive[i - 1] = False
        outcome.deleted_edges.add(i)
        for v in forced:
            active.vertex_alive[v - 1] = False
            outcome.deleted_vertices.add(v)
            outcome.budget_delta += 1
            for other in active.vertex_incidences(v):
                sizes[other - 1] -= 1
                active.demand[other - 1] -= 1
                outcome.demand_decrements[other] = outcome.demand_decrements.get(other, 0) + 1
                if active.demand[other - 1] <= 0:
                    active.edge_alive[other - 1] = False
                    outcome.deleted_edges.add(other)
                elif active.demand[other - 1] == sizes[other - 1]:
                    queue.append(other)
                elif active.demand[other - 1] > sizes[other - 1]:
                    outcome.infeasible = True
                    return outcome
    return outcome


def apply_fe_exhaustively(h: Hypergraph) -> tuple[Hypergraph, RuleOutcome]:
    """Full-edge rule on a whole instance; returns the compacted remainder."""
    active = ActiveInstance(h)
    outcome = fe_pass(active)
    reduced, _, _ = active.extract()
    if h.budget is not None:
        reduced = Hypergraph(reduced.n, reduced.edges, reduced.demand, h.budget - outcome.budget_delta)
    return reduced, outcome


def build_pushed_subinstance(active: ActiveInstance, j: int) -> tuple[Hypergraph, list[int]]:
    """Subinstance on edge ``j``'s vertices collecting the demand every
    other alive edge pushes into it.

    Edge ``i`` contributes ``i ∩ j`` with demand ``f(i) - |i \\ j|``;
    non-positive contributions are dropped.  Returns the subinstance
    (vertices renumbered) and the original ids of its vertices in order.
    """
    active.require_edge(j)
    base = active.edge_members(j)
    new_id = {v: k + 1 for k, v in enumerate(base)}
    edges = []
    demand = []
    for i in active.alive_edge_ids():
        if i == j:
            continue
        members = active.edge_members(i)
        common = tuple(v for v in members if v in new_id)
        pushed = active.demand[i - 1] - (len(members) - len(common))
        if pushed >= 1:
            edges.append(tuple(new_id[v] for v in common))
            demand.append(pushed)
    return Hypergraph(len(base), tuple(edges), tuple(demand)), list(base)


LowerBoundOracle = Callable[[Hypergraph], int]


def exact_oracle(sub: Hypergraph) -> int:
    """Exact optimum of the pushed subinstance (the strongest valid bound)."""
    solution = solve_opt(sub, DEFAULT_NODE_LIMIT)
    if solution.status is not SolveStatus.OPTIMAL:
        raise RuntimeError(f"lower-bound solve ended with status {solution.status.value}")
    return solution.cardinality


def pushed_max_oracle(sub: Hypergraph) -> int:
    """Cheap bound: the largest single pushed demand."""
    return max(sub.demand, default=0)


def lp_rule_applicable(
    active: ActiveInstance, j: int, oracle: LowerBoundOracle = exact_oracle
) -> bool:
    """Whether the pushed-demand lower bound already reaches edge ``j``'s
    own demand, making ``j`` redundant."""
    active.require_edge(j)
    sub, _ = build_pushed_subinstance(active, j)
    try:
        bound = oracle(sub)
    except RuntimeError:
        return False  # oracle failure means the rule is simply not applied
    return bound >= active.demand[j - 1]


def lp_pass(active: ActiveInstance, oracle: LowerBoundOracle = exact_oracle) -> set[int]:
    """Apply the lower-bound rule to each alive edge once, in id order,
    deleting as it goes; returns the deleted edges.

    One scan is exhaustive for an oracle whose bound never rises when a
    pushed constraint is removed.  lp deletes only edges, so a deletion
    only removes one pushed constraint from the other edges' subinstances,
    and neither shipped oracle's bound (the exact optimum, or the largest
    push) can rise: a finished scan leaves no deletable edge, unless an
    oracle call raised.  Such an edge is retried in the next round of a
    looped pipeline, if that round deleted anything."""
    deleted: set[int] = set()
    for j in active.alive_edge_ids():
        if lp_rule_applicable(active, j, oracle):
            active.edge_alive[j - 1] = False
            deleted.add(j)
    return deleted
