"""In-memory span recorder that wraps umtree's public functions.

A span is (name, start, end, parent index).  Wrapping happens from the
benchmark's side: each target is replaced where callers look it up (a
module attribute, or a class attribute for methods), so calls made from
inside umtree are recorded too.  `uninstall` restores the originals,
which leaves untraced iterations with no wrapper at all.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

import numpy as np

# (owner, attribute, span name); an owner is a module, or "module:Class"
# for methods.  A function imported by name into another module is
# patched there as well, under the same span name.
TARGETS = [
    ("umtree.dissim", "load_csv", "dissim.load_csv"),
    ("umtree.cli", "load_csv", "dissim.load_csv"),
    ("umtree.dissim", "euclidean_matrix", "dissim.euclidean_matrix"),
    ("umtree.cli", "euclidean_matrix", "dissim.euclidean_matrix"),
    ("umtree.dissim", "setvalued_table", "dissim.setvalued_table"),
    ("umtree.cli", "setvalued_table", "dissim.setvalued_table"),
    ("umtree.linkage", "nn_chain_cluster", "linkage.nn_chain_cluster"),
    ("umtree.linkage", "naive_cluster", "linkage.naive_cluster"),
    ("umtree.dendrogram:Dendrogram", "__post_init__", "dendrogram.construct"),
    ("umtree.dendrogram:Dendrogram", "from_json", "dendrogram.from_json"),
    ("umtree.dendrogram:Dendrogram", "to_json", "dendrogram.to_json"),
    ("umtree.dendrogram", "cophenetic_matrix", "dendrogram.cophenetic_matrix"),
    ("umtree.dendrogram", "verify_ultrametric", "dendrogram.verify_ultrametric"),
    ("umtree.haar", "forward", "haar.forward"),
    ("umtree.haar", "inverse", "haar.inverse"),
    ("umtree.haar", "reconstruct_one", "haar.reconstruct_one"),
    ("umtree.haar", "threshold_regress", "haar.threshold_regress"),
    ("umtree.haar", "approximation_chain", "haar.approximation_chain"),
    ("umtree.padic", "encode", "padic.encode"),
    ("umtree.padic", "decimal_value", "padic.decimal_value"),
    ("umtree.padic", "check_uniqueness", "padic.check_uniqueness"),
    ("umtree.symmetry", "canonicalize", "symmetry.canonicalize"),
    ("umtree.genlattice", "build_lattice", "genlattice.build_lattice"),
    ("umtree.genlattice", "pairs_for_node", "genlattice.pairs_for_node"),
    ("umtree.genlattice", "clusters_at_level", "genlattice.clusters_at_level"),
]

SPAN_NAMES = sorted({name for _, _, name in TARGETS})


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    def install(self):
        for where, attr, name in TARGETS:
            module, _, cls = where.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            else:
                new = self.wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans) -> dict:
    """Per span name: total duration minus the time its children cover."""
    if not spans:
        return {}
    dur = np.array([end - start for _, start, end, _ in spans])
    parent = np.array([p for *_, p in spans])
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(spans))
    out = {}
    for (name, *_), s in zip(spans, dur - covered):
        out[name] = out.get(name, 0.0) + float(s)
    return out
