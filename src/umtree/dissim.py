"""Pairwise dissimilarities: Euclidean distances and the set-valued
simple-matching dissimilarity on boolean attribute tables.

Euclidean distances are summed from the differences themselves, column
by column in order, one block of rows at a time: no BLAS call and no
Gram matrix, so offset data loses no precision, and the result equals
scipy's cdist bit for bit.  The cost is O(n^2 m) elementwise work.

The set-valued rule scores each attribute position of a pair of rows:
0 when both rows have the attribute present (1), and 1 otherwise --
so co-absence counts toward the distance set.  The distance between two
objects is then the *set* of attributes scored 1: d(i, j) = ~(w_i & w_j),
with w_i the attribute mask of row i.  The row masks (the table's formal
context) therefore hold every distance, and are all a table stores.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dendrogram import DistanceMatrix, _overflow_named, _row_blocks

__all__ = [
    "Table",
    "euclidean_matrix",
    "setvalued_table",
    "SetValuedDistanceTable",
    "load_csv",
]


@dataclass(frozen=True)
class Table:
    """Rectangular numeric table with optional row/column labels."""

    values: np.ndarray
    row_labels: tuple = None
    col_labels: tuple = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("table must be 2-dimensional")
        if not np.isfinite(v).all():
            raise ValueError("table values must be finite")
        object.__setattr__(self, "values", v)
        if self.row_labels is not None and len(self.row_labels) != v.shape[0]:
            raise ValueError("row_labels length mismatch")
        if self.col_labels is not None and len(self.col_labels) != v.shape[1]:
            raise ValueError("col_labels length mismatch")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


def load_csv(text_or_path, columns=None) -> Table:
    """Read a CSV table: first row headers, first column row labels if
    its header cell is empty or non-numeric data appears there.

    text_or_path is a file object, CSV text (a string holding a newline)
    or a path.  columns optionally selects a subset of column names.
    """
    if hasattr(text_or_path, "read"):
        text = text_or_path.read()
    elif isinstance(text_or_path, str) and "\n" in text_or_path:
        text = text_or_path
    else:
        with open(text_or_path, "r", newline="") as fh:
            text = fh.read()
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, r) for r in reader if r]
    if len(rows) < 2:
        raise ValueError("CSV needs a header row and at least one data row")
    header = rows[0][1]
    for line, r in rows[1:]:
        if len(r) != len(header):
            raise ValueError(
                f"CSV line {line} (row {r[0].strip()!r}) has {len(r)} fields, "
                f"expected {len(header)} as in the header row"
            )
    body = [r for _, r in rows[1:]]

    def numeric(s):
        try:
            float(s)
            return True
        except ValueError:
            return False

    has_row_labels = header[0].strip() == "" or not all(
        numeric(r[0]) for r in body
    )
    col_labels = tuple(h.strip() for h in header[int(has_row_labels):])
    if not col_labels:  # the only column holds the row labels
        if header[0].strip() == "":
            cause = f"CSV line {rows[0][0]}, column 1: the header cell is empty"
        else:
            line, x = next((line, r[0]) for line, r in rows[1:] if not numeric(r[0]))
            cause = f"CSV line {line}, column {header[0].strip()!r}: {x!r} is not a number"
        raise ValueError(f"{cause}, so the column holds row labels and no data column is left")
    seen = {}
    for k, label in enumerate(col_labels, start=2 if has_row_labels else 1):  # CSV column numbers
        if seen.setdefault(label, k) != k:
            raise ValueError(f"CSV column {k} repeats column label {label!r} of column {seen[label]}")
    if has_row_labels:
        row_labels = tuple(r[0].strip() for r in body)
        first = {}
        for (line, _), label in zip(rows[1:], row_labels):
            if first.setdefault(label, line) != line:
                raise ValueError(
                    f"CSV line {line} repeats row label {label!r} of line {first[label]}"
                )
        data = [r[1:] for r in body]
    else:
        row_labels = None
        data = body
    try:
        values = np.array([[float(x) for x in r] for r in data])
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():  # name the first bad cell
        line, label, x = next((line, label, x) for (line, _), r in zip(rows[1:], data)
                              for label, x in zip(col_labels, r)
                              if not (numeric(x) and math.isfinite(float(x))))
        kind = "a finite number" if numeric(x) else "a number"
        raise ValueError(f"CSV line {line}, column {label!r}: {x!r} is not {kind}")
    table = Table(values, row_labels, col_labels)
    if columns:
        for k, c in enumerate(columns):
            if c not in col_labels:
                raise ValueError(f"no column {c!r}; the columns are {', '.join(col_labels)}")
            if c in columns[:k]:
                raise ValueError(f"column {c!r} selected twice")
        idx = [col_labels.index(c) for c in columns]
        table = Table(values[:, idx], row_labels, tuple(columns))
    return table


def euclidean_matrix(data) -> DistanceMatrix:
    """Pairwise Euclidean distance matrix of the table rows.

    d_ij = sqrt(sum_k (x_ik - x_jk)^2), summed over the columns in order:
    the bits of scipy's cdist(x, x), and exactly symmetric, since
    (a - b)^2 == (b - a)^2 and both entries are summed in the same order.
    """
    x = np.asarray(data.values if isinstance(data, Table) else data, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("table values must be finite")
    n = x.shape[0]
    cols = np.ascontiguousarray(x.T)
    d = np.zeros((n, n))
    blocks = _row_blocks(n)
    tmp = np.empty_like(d[blocks[0]]) if blocks else None
    # a ufunc buffer longer than a row makes numpy copy both broadcast
    # operands of the subtraction through it; with one no longer than a
    # row (a multiple of 16 elements, as numpy 1.x asks) it reads them in
    # place, about twice as fast at n = 1000
    old = np.setbufsize(max(16, n - n % 16))
    try:
        with _overflow_named("a squared Euclidean distance overflows float64 (a column "
                             "difference above about 1.34e154 is enough)"):
            for rows in blocks:
                out = d[rows]
                t = tmp[: len(out)]
                for c in cols:
                    np.subtract(c[rows, None], c, out=t)
                    np.multiply(t, t, out=t)
                    out += t
                np.sqrt(out, out=out)
    finally:
        np.setbufsize(old)
    return DistanceMatrix._trusted(d)


def to_mask(attributes) -> int:
    """Attribute set as an int bitmask: bit a is set iff a is a member."""
    mask = 0
    for a in attributes:
        mask |= 1 << int(a)
    return mask


def from_mask(mask: int) -> tuple:
    """Members of an int bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def row_masks(x: np.ndarray) -> tuple:
    """Each row of a boolean matrix as an int bitmask (bit j = column j).

    Python ints, so any number of columns fits.
    """
    packed = np.packbits(np.asarray(x, dtype=bool), axis=1, bitorder="little")
    return tuple(int.from_bytes(r.tobytes(), "little") for r in packed)


@dataclass(frozen=True)
class SetValuedDistanceTable:
    """The set-valued distances of a boolean table, held as its formal
    context: rows[i] is row i's attribute mask w_i, and objects i != j
    are at distance ~(w_i & w_j), within the n_attributes bits.

    Three views are built on first use, at most once per table: cols,
    the transposed context; the closed attribute sets, which genlattice
    reads; and the pairs grouped by distance, only for the readers that
    list pairs (dist, pairs and genlattice.pairs_for_node).
    """

    n_attributes: int
    rows: tuple
    object_labels: tuple = None
    attribute_labels: tuple = None

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def cols(self) -> tuple:
        """One object mask per attribute: bit i of cols[a] is set iff row i holds a."""
        cols = [0] * self.n_attributes
        for i, w in enumerate(self.rows):
            for a in from_mask(w):
                cols[a] |= 1 << i
        return tuple(cols)

    def _closure(self, b: int) -> tuple:
        """(c(b), extent of b) for an attribute mask b: the extent is the
        objects holding all of b, and c(b) the attributes all of them
        hold, or every attribute when fewer than two objects do."""
        extent = (1 << self.n) - 1
        for a in from_mask(b):
            extent &= self.cols[a]
        if extent.bit_count() < 2:
            return (1 << self.n_attributes) - 1, extent
        return to_mask(a for a, col in enumerate(self.cols) if col & extent == extent), extent

    @cached_property
    def _closed_sets(self) -> dict:
        """{closed set: its extent} for the closed sets of _closure whose
        extent has two or more objects, in the lectic order that
        NextClosure (Ganter) lists them."""
        full = (1 << self.n_attributes) - 1
        found = {}
        b, extent = self._closure(0)
        while True:
            if extent.bit_count() > 1:
                found[b] = extent
            if b == full:
                return found
            for a in reversed(range(self.n_attributes)):
                bit = 1 << a
                if b & bit:
                    b ^= bit
                    continue
                c, extent = self._closure(b | bit)
                if c & ~b & (bit - 1) == 0:  # no new attribute below a
                    b = c
                    break

    @cached_property
    def _pairs_by_distance(self) -> dict:
        """{distance mask: (i, j)}, index arrays of its pairs i[k] < j[k]
        in lexicographic order.

        Each row is packed little-endian into bytes, and the distance
        bytes of every pair are sorted once; the sort is stable, so each
        distance keeps its pairs in the order that triu_indices lists them.
        """
        if self.n < 2:
            return {}
        width = max(1, -(-self.n_attributes // 8))
        packed = np.frombuffer(b"".join(w.to_bytes(width, "little") for w in self.rows),
                               np.uint8).reshape(self.n, width)
        full = np.frombuffer(((1 << self.n_attributes) - 1).to_bytes(width, "little"), np.uint8)
        i, j = np.triu_indices(self.n, 1)
        key = ~(packed[i] & packed[j]) & full
        order = np.lexsort(key.T)
        key, i, j = key[order], i[order], j[order]
        cuts = np.flatnonzero((key[1:] != key[:-1]).any(axis=1)) + 1
        return {int.from_bytes(key[s].tobytes(), "little"): (i[s:e], j[s:e])
                for s, e in zip([0, *cuts.tolist()], [*cuts.tolist(), len(key)])}

    @cached_property
    def dist(self) -> dict:
        """{(i, j): frozenset} for i < j; pairs with one distance share one set."""
        out = {}
        for mask, (i, j) in self._pairs_by_distance.items():
            out.update(dict.fromkeys(zip(i.tolist(), j.tolist()), frozenset(from_mask(mask))))
        return dict(sorted(out.items()))

    def __getitem__(self, ij) -> frozenset:
        i, j = ij
        return self.dist[(min(i, j), max(i, j))]

    def pairs(self):
        return list(self.dist)


def setvalued_table(data) -> SetValuedDistanceTable:
    """The set-valued distance table of a boolean table: its rows packed
    into attribute masks, bit j set iff the row has attribute j."""
    x = data.values if isinstance(data, Table) else np.asarray(data, float)
    if not np.isin(x, (0.0, 1.0)).all():
        raise ValueError("boolean table must contain only 0 and 1")
    labels = (data.row_labels, data.col_labels) if isinstance(data, Table) else (None, None)
    return SetValuedDistanceTable(x.shape[1], row_masks(x == 1), *labels)
