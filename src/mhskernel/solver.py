"""Exact Multiple Hitting Set solver (branch and bound).

Ground truth for optimum-preservation checks and the default lower-bound
provider for the subinstance-based edge deletion rule.  Deterministic:
every branching choice is tie-broken by index.  The search starts from
all vertices as its incumbent, with no heuristic pre-pass, and keeps its
own stack: its node limit bounds the whole solve, and its depth is not
bounded by Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .instance import Hypergraph

DEFAULT_NODE_LIMIT = 10_000_000


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    BUDGET_EXCEEDED = "budget-exceeded"  # search node budget exhausted


@dataclass(frozen=True)
class Solution:
    status: SolveStatus
    chosen: frozenset[int]  # 1-based vertex ids
    cardinality: int
    nodes: int = 0


def verify_solution(h: Hypergraph, chosen: Iterable[int]) -> bool:
    """Whether every edge's demand is met by the given vertex set."""
    picked = set(chosen)
    for v in picked:
        if not 1 <= v <= h.n:
            raise IndexError(f"vertex {v} out of range 1..{h.n}")
    mask = 0
    for v in picked:
        mask |= 1 << (v - 1)
    return all((bits & mask).bit_count() >= f for bits, f in zip(h.edge_bits, h.demand))


def solve_opt(h: Hypergraph, node_limit: int = DEFAULT_NODE_LIMIT) -> Solution:
    """Minimum-cardinality multiple hitting set of ``h``.

    Returns an infeasible status when some edge demands more hits than it
    has vertices.  The incumbent starts as all vertices, feasible once that
    check passed; the search's first dive takes a vertex at every level, so
    it is a greedy cover.  ``node_limit`` (at least 1) bounds the whole
    solve: exceeding it is reported as a distinct status, with the best
    cover found so far as the witness, rather than as a silently
    suboptimal answer.
    """
    if node_limit < 1:
        raise ValueError(f"node limit must be at least 1, got {node_limit}")
    for bits, f in zip(h.edge_bits, h.demand):
        if f > bits.bit_count():
            return Solution(SolveStatus.INFEASIBLE, frozenset(), 0)
    edge_bits = list(h.edge_bits)
    n = h.n

    def packing_bound(residual: list[int], avail: int) -> int:
        # Disjoint edges each need `residual` distinct vertices, so their
        # residual demands add up to a valid lower bound.
        used = 0
        bound = 0
        for bits, r in zip(edge_bits, residual):
            if r <= 0:
                continue
            live = bits & avail
            if live & used == 0:
                bound += r
                used |= live
        return bound

    best_mask = (1 << n) - 1
    best_size = n
    nodes = 0
    status = SolveStatus.OPTIMAL
    stack = [(0, list(h.demand), best_mask, 0)]
    while stack:
        count, residual, avail, picked = stack.pop()
        nodes += 1
        if nodes > node_limit:
            status = SolveStatus.BUDGET_EXCEEDED
            break
        # Select the tightest unsatisfied edge; none means `picked` is feasible.
        target, target_ratio = -1, -1.0
        for i, r in enumerate(residual):
            if r <= 0:
                continue
            live = (edge_bits[i] & avail).bit_count()
            if r > live:
                break  # demand no longer satisfiable on this branch
            ratio = r / live
            if ratio > target_ratio:
                target, target_ratio = i, ratio
        else:
            if target < 0:
                if count < best_size:
                    best_mask, best_size = picked, count
                continue
            if count + packing_bound(residual, avail) >= best_size:
                continue
            # Branch on the highest-degree available vertex of the target edge.
            candidates = edge_bits[target] & avail
            branch_v, branch_deg = -1, -1
            cand = candidates
            while cand:
                low = cand & -cand
                v = low.bit_length() - 1
                deg = sum(1 for bits, r in zip(edge_bits, residual) if r > 0 and bits >> v & 1)
                if deg > branch_deg:
                    branch_v, branch_deg = v, deg
                cand ^= low
            vbit = 1 << branch_v
            taken = [r - 1 if bits & vbit and r > 0 else r for bits, r in zip(edge_bits, residual)]
            # The skip branch goes below the take branch, so it is searched
            # after the take branch's whole subtree, against its incumbent.
            stack.append((count, residual, avail & ~vbit, picked))
            stack.append((count + 1, taken, avail & ~vbit, picked | vbit))
    chosen = frozenset(v + 1 for v in range(n) if best_mask >> v & 1)
    return Solution(status, chosen, len(chosen), nodes)
