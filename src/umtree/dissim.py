"""Pairwise dissimilarities: Euclidean distances and the set-valued
simple-matching dissimilarity on boolean attribute tables.

The set-valued rule scores each attribute position of a pair of rows:
0 when both rows have the attribute present (1), and 1 otherwise --
so co-absence counts toward the distance set.  The distance between two
objects is then the *set* of attributes scored 1.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .dendrogram import DistanceMatrix

__all__ = [
    "Table",
    "euclidean_matrix",
    "simple_matching_setvalued",
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

    def is_boolean(self) -> bool:
        return bool(np.isin(self.values, (0.0, 1.0)).all())


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
    col_labels = tuple(h.strip() for h in header[1:] if has_row_labels) or tuple(
        h.strip() for h in header
    )
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
    values = np.array([[float(x) for x in r] for r in data])
    table = Table(values, row_labels, col_labels)
    if columns:
        idx = [col_labels.index(c) for c in columns]
        table = Table(values[:, idx], row_labels, tuple(columns))
    return table


def euclidean_matrix(data) -> DistanceMatrix:
    """Pairwise Euclidean distance matrix of the table rows."""
    x = data.values if isinstance(data, Table) else np.asarray(data, float)
    sq = np.sum(x**2, axis=1)
    # sq_i + sq_j - 2 x_i.x_j in place, in that order: the bits of the
    # plain expression with one n x n temporary instead of three
    d = sq[:, None] + sq[None, :]
    gram = x @ x.T
    gram *= 2.0
    d -= gram
    del gram
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)
    np.fill_diagonal(d, 0.0)
    d = np.minimum(d, d.T)  # frees the unsymmetrised copy before validation
    return DistanceMatrix(d)


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


def row_masks(x: np.ndarray) -> np.ndarray:
    """Each row of a boolean matrix as an int bitmask (bit j = column j).

    Python ints in an object array, so any number of columns fits.
    """
    packed = np.packbits(np.asarray(x, dtype=bool), axis=1, bitorder="little")
    return np.array([int.from_bytes(r.tobytes(), "little") for r in packed], dtype=object)


@dataclass(frozen=True)
class SetValuedDistanceTable:
    """Map from unordered object pairs to subsets of the attribute set J.

    The distances are stored once, as int bitmasks: masks lists each
    distinct distance set once, and codes[k] is the index in masks of
    the k-th pair in lexicographic order.
    """

    n: int
    n_attributes: int
    masks: tuple
    codes: np.ndarray
    object_labels: tuple = None
    attribute_labels: tuple = None

    @cached_property
    def dist(self) -> dict:
        """{(i, j): frozenset} for i < j; pairs with one distance share one set."""
        sets = [frozenset(from_mask(mask)) for mask in self.masks]
        return dict(zip(self.pairs(), [sets[c] for c in self.codes.tolist()]))

    def __getitem__(self, ij) -> frozenset:
        i, j = ij
        return self.dist[(min(i, j), max(i, j))]

    def __eq__(self, other):
        # field by field, as the generated __eq__ cannot compare arrays
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def pairs(self):
        i, j = np.triu_indices(self.n, 1)
        return list(zip(i.tolist(), j.tolist()))


def _bool_values(data) -> np.ndarray:
    x = data.values if isinstance(data, Table) else np.asarray(data, float)
    if not np.isin(x, (0.0, 1.0)).all():
        raise ValueError("boolean table must contain only 0 and 1")
    return x.astype(int)


def simple_matching_setvalued(data, i: int, j: int) -> frozenset:
    """Attributes NOT present in both rows: {j in J : not(x_ij and x_jj)}."""
    x = _bool_values(data)
    both = (x[i] == 1) & (x[j] == 1)
    return frozenset(np.flatnonzero(~both).tolist())


def setvalued_table(data) -> SetValuedDistanceTable:
    """All pairwise set-valued distances (distinct pairs only).

    Every pair's distance mask is full & ~(w_i & w_j), with w the rows'
    attribute masks.
    """
    x = _bool_values(data)
    n, m = x.shape
    full = (1 << m) - 1
    w = row_masks(x == 1)
    i, j = np.triu_indices(n, 1)
    index = {}  # distinct masks in first-seen order
    codes = [index.setdefault(d, len(index)) for d in (full & ~(w[i] & w[j])).tolist()]
    labels = (data.row_labels, data.col_labels) if isinstance(data, Table) else (None, None)
    return SetValuedDistanceTable(n, m, tuple(index), np.array(codes, np.intp), *labels)
