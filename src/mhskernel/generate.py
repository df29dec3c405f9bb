"""Instance sources: seeded random generation and response-matrix ingestion."""

from __future__ import annotations

import csv
import io
import logging
import math
import random

from .instance import Hypergraph

logger = logging.getLogger(__name__)

_EMPTY_EDGE_RETRIES = 20


def generate_random(n: int, m: int, p: float, alpha: int, seed: int) -> Hypergraph:
    """Random instance with every incidence sampled independently.

    Empty edges are re-sampled up to a retry cap, then padded with one
    random vertex.  Demands follow ``min(alpha, |e|)``.  The generator is
    seeded, so equal arguments always produce the identical instance.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be non-negative")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"inclusion probability must be in (0, 1], got {p}")
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    if m > 0 and n == 0:
        raise ValueError("cannot generate edges without vertices")
    rng = random.Random(seed)
    edges = []
    demand = []
    for _ in range(m):
        members: list[int] = []
        for _ in range(_EMPTY_EDGE_RETRIES):
            members = [j for j in range(1, n + 1) if rng.random() < p]
            if members:
                break
        if not members:
            members = [rng.randrange(1, n + 1)]
        edges.append(tuple(members))
        demand.append(min(alpha, len(members)))
    return Hypergraph(n, tuple(edges), tuple(demand))


def _parse_matrix(text: str) -> list[list[float]]:
    rows: list[list[float]] = []
    width: int | None = None
    for row_no, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            values = [float(cell) for cell in row]
        except ValueError as exc:
            raise ValueError(f"row {row_no}: non-numeric cell ({exc})") from None
        if not all(map(math.isfinite, values)):
            col_no = next(c for c, x in enumerate(values, start=1) if not math.isfinite(x))
            raise ValueError(f"row {row_no}, column {col_no}: non-finite cell {values[col_no - 1]}")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ValueError(f"row {row_no}: expected {width} columns, got {len(values)}")
        rows.append(values)
    return rows


def ingest_response_matrix(
    text: str, *, sigmas: float = 2.0, alpha: int = 1, direction: str = "above"
) -> Hypergraph:
    """Threshold a numeric response matrix into a hypergraph.

    Rows become hyperedges, columns become vertices.  Column ``j`` joins
    row ``i``'s edge when the value deviates from the row mean by strictly
    more than ``sigmas`` population standard deviations, in the requested
    direction.  Rows thresholding to an empty edge are dropped with a
    warning (a constant row always is: its deviation is zero).  Demands
    follow ``min(alpha, |e|)``.  A NaN or infinite cell raises
    ``ValueError`` naming its row and column, a row whose mean or standard
    deviation overflows a float raises ``ValueError`` naming the row, and
    a NaN or infinite ``sigmas`` raises ``ValueError`` naming the value.
    """
    if direction not in ("above", "below"):
        raise ValueError(f"direction must be 'above' or 'below', got {direction!r}")
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    if not math.isfinite(sigmas):
        raise ValueError(f"sigmas must be finite, got {sigmas}")
    rows = _parse_matrix(text)
    n = len(rows[0]) if rows else 0
    edges = []
    demand = []
    for row_no, values in enumerate(rows, start=1):
        mean = sum(values) / len(values)
        # Finite cells can still overflow: a square raises, a sum turns infinite.
        try:
            sigma = math.sqrt(sum((x - mean) ** 2 for x in values) / len(values))
        except OverflowError:
            sigma = math.inf
        if math.isinf(sigma):
            raise ValueError(f"row {row_no}: the spread of its cells overflows a float")
        if direction == "above":
            members = [j + 1 for j, x in enumerate(values) if x > mean + sigmas * sigma]
        else:
            members = [j + 1 for j, x in enumerate(values) if x < mean - sigmas * sigma]
        if not members:
            logger.warning("row %d thresholds to an empty edge; dropping it", row_no)
            continue
        edges.append(tuple(members))
        demand.append(min(alpha, len(members)))
    return Hypergraph(n, tuple(edges), tuple(demand))
