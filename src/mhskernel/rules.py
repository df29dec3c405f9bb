"""Data reduction rules for Multiple Hitting Set.

Rule-level predicates and single-rule applications, shared by both
reduction engines and testable in isolation:

* full-edge (fe): an edge whose demand equals its size forces all of its
  vertices into every solution; forcing them lowers the demand of every
  edge holding them, and one pass is exhaustive because forcing never
  makes another edge full.
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

    def require_edge(self, i: int) -> None:
        if not 1 <= i <= self.h.m:
            raise IndexError(f"edge {i} out of range 1..{self.h.m}")
        if not self.edge_alive[i - 1]:
            raise ValueError(f"edge {i} is deleted")

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
        demand = [self.demand[i] for i in edge_ids.tolist()]
        sub = Hypergraph._from_arrays(matrix.cols, matrix.indptr, matrix.words, demand, self.h.budget)
        return sub, (vertex_ids + 1).tolist(), (edge_ids + 1).tolist()


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
    """Exhaustively apply the full-edge rule, in one pass.

    A full edge (demand equal to its alive size) forces its vertices into
    every solution.  Forcing a vertex lowers both the size and the demand
    of each alive edge holding it by one, so ``|e| - f(e)`` never changes:
    an edge that is not full at the start never becomes full.  Forcing the
    union of the full edges' members therefore reaches the fixpoint at
    once.  The pass reads the overlay's masked matrix: alive sizes are its
    row sizes and the forced vertices the columns of its full rows.  Each
    alive edge's demand drops by the forced vertices it holds, and the
    edges left with no demand (the full ones among them) are deleted, then
    the forced vertices.  An edge with more demand than alive vertices
    makes the outcome infeasible and leaves the overlay untouched.
    """
    outcome = RuleOutcome()
    matrix, vertex_ids, edge_ids = active.alive_matrix()
    f, size = np.asarray(active.demand, dtype=np.int64)[edge_ids], matrix.row_sizes
    if np.any(f > size):
        outcome.infeasible = True
        return outcome
    forced = np.zeros(matrix.cols, dtype=bool)
    forced[matrix.words[np.repeat(f == size, size)]] = True
    if not forced.any():
        return outcome
    hits = np.bincount(np.repeat(np.arange(matrix.rows), size)[forced[matrix.words]], minlength=matrix.rows)
    for i, hit in zip(edge_ids.tolist(), hits.tolist()):
        active.demand[i] -= hit
    for i in edge_ids[hits >= f].tolist():
        active.edge_alive[i] = False
        outcome.deleted_edges.add(i + 1)
    for v in vertex_ids[forced].tolist():
        active.vertex_alive[v] = False
        outcome.deleted_vertices.add(v + 1)
    return outcome


def build_pushed_subinstance(active: ActiveInstance, j: int) -> tuple[Hypergraph, list[int]]:
    """Subinstance on edge ``j``'s vertices collecting the demand every
    other alive edge pushes into it.

    Edge ``i`` contributes ``i ∩ j`` with demand ``f(i) - |i \\ j|``;
    non-positive contributions are dropped.  Returns the subinstance
    (vertices renumbered) and the original ids of its vertices in order.
    """
    active.require_edge(j)
    base = active.edge_members(j)
    column = {v: k for k, v in enumerate(base)}
    indptr, words, demand = [0], [], []
    for i in active.alive_edge_ids():
        if i == j:
            continue
        members = active.edge_members(i)
        common = [column[v] for v in members if v in column]
        pushed = active.demand[i - 1] - (len(members) - len(common))
        if pushed >= 1:
            words.extend(common)
            indptr.append(len(words))
            demand.append(pushed)
    # Each row is increasing and in range, since ``base`` and every edge's
    # members are, and every demand is positive: the arrays are valid as built.
    return Hypergraph._from_arrays(len(base), indptr, words, demand), list(base)


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
