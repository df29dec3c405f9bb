"""Instance sources: seeded random generation and response-matrix ingestion."""

from __future__ import annotations

import csv
import io
import logging
import math
import random

import numpy as np

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


def _csv_rows(text: str):
    """``(row number, cells)`` of each CSV row with a non-blank cell; blank
    rows count towards the numbers.  A row ``csv.reader`` cannot read
    raises ``ValueError`` naming it."""
    row_no = 0
    try:
        for row_no, row in enumerate(csv.reader(io.StringIO(text)), start=1):
            if any(cell.strip() for cell in row):
                yield row_no, row
    except csv.Error as exc:
        raise ValueError(f"row {row_no + 1}: unreadable CSV ({exc})") from None


def _read_matrix(text: str) -> np.ndarray:
    """Reference parse, cell by cell with ``float()``; it names the row and
    column of every bad cell."""
    rows: list[list[float]] = []
    width: int | None = None
    for row_no, row in _csv_rows(text):
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
    return np.array(rows, dtype=float).reshape(len(rows), width or 0)


def _parse_matrix(text: str) -> np.ndarray:
    """The CSV's data rows as a float matrix.  What ``np.loadtxt`` refuses
    or reads as non-finite goes to :func:`_read_matrix`."""
    if not text or text.isspace():
        return np.empty((0, 0))
    try:
        cells = np.loadtxt(io.StringIO(text), delimiter=",", dtype=float, ndmin=2, comments=None)
    except ValueError:
        return _read_matrix(text)
    return cells if np.isfinite(cells).all() else _read_matrix(text)


def ingest_response_matrix(
    text: str, *, sigmas: float = 2.0, alpha: int = 1, direction: str = "above"
) -> Hypergraph:
    """Threshold a numeric response matrix into a hypergraph.

    Rows become hyperedges, columns become vertices.  Column ``j`` joins
    row ``i``'s edge when the value deviates from the row mean by strictly
    more than ``sigmas`` population standard deviations, in the requested
    direction.  Means and deviations are summed left to right, so the
    result does not depend on the interpreter's ``sum()``.  Rows
    thresholding to an empty edge are dropped with a warning (a constant
    row always is: its deviation is zero).  Demands follow
    ``min(alpha, |e|)``.  A NaN or infinite cell raises ``ValueError``
    naming its row and column, a row whose mean or standard deviation
    overflows a float raises ``ValueError`` naming the row, and a NaN or
    infinite ``sigmas`` raises ``ValueError`` naming the value.  Rows are
    numbered as CSV rows, blank ones included.
    """
    if direction not in ("above", "below"):
        raise ValueError(f"direction must be 'above' or 'below', got {direction!r}")
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    if not math.isfinite(sigmas):
        raise ValueError(f"sigmas must be finite, got {sigmas}")
    cells = _parse_matrix(text)
    m, n = cells.shape
    if not m:
        return Hypergraph(0, (), ())
    # Finite cells can still overflow: a square or a sum turns infinite.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.accumulate(cells, axis=1)[:, -1] / n
        dev = cells - mean[:, None]
        sigma = np.sqrt(np.add.accumulate(dev * dev, axis=1)[:, -1] / n)
        if direction == "above":
            inside = cells > (mean + sigmas * sigma)[:, None]
        else:
            inside = cells < (mean - sigmas * sigma)[:, None]
    overflow = np.flatnonzero(np.isinf(sigma))
    stop = int(overflow[0]) if overflow.size else m
    inside = inside[:stop]
    sizes = inside.sum(axis=1)
    kept = sizes > 0
    # Data rows are numbered as CSV rows only for a message.
    row_nos = [row_no for row_no, _ in _csv_rows(text)] if stop < m or not kept.all() else None
    for r in np.flatnonzero(~kept).tolist():
        logger.warning("row %d thresholds to an empty edge; dropping it", row_nos[r])
    if stop < m:
        raise ValueError(f"row {row_nos[stop]}: the spread of its cells overflows a float")
    sizes = sizes[kept]
    indptr = np.zeros(sizes.size + 1, dtype=np.intp)
    np.cumsum(sizes, out=indptr[1:])
    demand = [min(alpha, size) for size in sizes.tolist()]
    return Hypergraph._from_arrays(n, indptr, np.nonzero(inside[kept])[1], demand)
