"""Independent checks on every job's output, and shape counts read off
the outputs.

Nothing here calls umtree.  Trees are compared with
`scipy.cluster.hierarchy`; wavelet, p-adic, canonical-order and lattice
outputs are recomputed from the input table and the tree JSON with the
small reference code below.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.spatial.distance import pdist, squareform

PRINT_TOL = 5e-7 + 1e-9  # CLI tables print 6 decimals
TOL = 1e-9


class Tree:
    """Merges of a dendrogram JSON file, with the arrays the checks use."""

    def __init__(self, path):
        obj = json.loads(Path(path).read_text())
        self.obj = obj
        self.n = n = obj["n_terminals"]
        self.merges = [(int(a), int(b), float(lev)) for a, b, lev in obj["merges"]]
        self.parent = np.full(2 * n - 1, -1)
        self.left = np.zeros(2 * n - 1, dtype=bool)  # is the first-listed child
        size = np.ones(2 * n - 1)
        for r, (a, b, _) in enumerate(self.merges):
            self.parent[a] = self.parent[b] = n + r
            self.left[a] = True
            size[n + r] = size[a] + size[b]
        self.size = size
        depth = np.zeros(2 * n - 1, dtype=int)
        for node in range(2 * n - 3, -1, -1):  # parents have larger ids
            depth[node] = depth[self.parent[node]] + 1
        self.depth = depth[:n]

    def scipy_z(self):
        z = np.array([[a, b, lev, 0.0] for a, b, lev in self.merges])
        z[:, 3] = self.size[self.n:]
        return z

    def path(self, t):
        """Internal nodes from the root down to terminal t's parent, and
        for each the child the path takes."""
        out = []
        node = t
        while self.parent[node] >= 0:
            out.append((int(self.parent[node]), node))
            node = self.parent[node]
        return out[::-1]

    def smooths(self, x):
        """Mean-based Haar smooths of every node, and the details."""
        n = self.n
        s = np.zeros((2 * n - 1, x.shape[1]))
        s[:n] = x
        det = np.zeros((n - 1, x.shape[1]))
        for r, (a, b, _) in enumerate(self.merges):
            s[n + r] = 0.5 * (s[a] + s[b])
            det[r] = s[n + r] - s[b]
        return s, det

    def reconstruct(self, smooth, det):
        """Rows from root smooth and details: the left child of a node
        gets node + detail, the right one node - detail."""
        n = self.n
        v = np.zeros((2 * n - 1, det.shape[1]))
        v[2 * n - 2] = smooth
        for r in range(n - 2, -1, -1):
            a, b, _ = self.merges[r]
            v[a] = v[n + r] + det[r]
            v[b] = v[n + r] - det[r]
        return v[:n]


def read_csv_rows(path):
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    return rows[0], rows[1:]


def read_table(path) -> np.ndarray:
    """Values of an input table (row labels dropped)."""
    _, rows = read_csv_rows(path)
    return np.array([[float(v) for v in r[1:]] for r in rows])


class Checker:
    """Checks jobs in a work directory; caches inputs, trees and scipy
    references, and times scipy's linkage as a reference row."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self._tables = {}
        self._trees = {}
        self.ref_linkage_s = 0.0
        self.counts = {"merges": 0, "matrix_bytes": 0, "depth_max": 0, "path_nodes": 0,
                       "pairs": 0, "vertices": 0, "edges": 0, "clusters": 0}

    def table(self, name):
        if name not in self._tables:
            self._tables[name] = read_table(self.dir / name)
        return self._tables[name]

    def tree(self, name):
        if name not in self._trees:
            self._trees[name] = Tree(self.dir / name)
        return self._trees[name]

    def check(self, job) -> list:
        """Failure messages for one job (empty when the output is right)."""
        try:
            return getattr(self, "check_" + job["kind"])({**job["params"], "id": job["id"]})
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]

    # -- clustering ----------------------------------------------------------

    def check_cluster(self, p):
        x = self.table(p["data"])
        tree = self.tree(p["tree"])
        n, crit = len(x), p["criterion"]
        c = self.counts
        c["merges"] += len(tree.merges)
        c["matrix_bytes"] = max(c["matrix_bytes"], (2 * n - 1) ** 2 * 8)
        c["depth_max"] = max(c["depth_max"], int(tree.depth.max()))
        c["path_nodes"] += int(tree.depth.sum())
        if tree.n != n or len(tree.merges) != n - 1:
            return [f"{len(tree.merges)} merges for {n} rows"]
        d = pdist(x)
        t0 = perf_counter()
        z = linkage(d, crit)
        self.ref_linkage_s += perf_counter() - t0
        ours = tree.scipy_z()
        fails = []
        if crit == "median":
            # the naive driver merges in scipy's order; levels are the
            # running maximum of scipy's heights (monotone repair)
            z[:, 2] = np.maximum.accumulate(z[:, 2])
            if not np.allclose(ours[:, 2], z[:, 2], rtol=TOL, atol=TOL):
                fails.append("merge levels differ from scipy")
        elif not np.allclose(np.sort(ours[:, 2]), z[:, 2], rtol=TOL, atol=TOL):
            fails.append("merge heights differ from scipy")
        if not np.allclose(cophenet(ours), cophenet(z), rtol=TOL, atol=TOL):
            fails.append("cophenetic matrix differs from scipy")
        if tree.obj.get("labels") != [f"r{i}" for i in range(n)]:
            fails.append("row labels not carried")
        return fails

    # -- wavelet -------------------------------------------------------------

    def check_forward(self, p):
        x, tree = self.table(p["data"]), self.tree(p["tree"])
        s, det = tree.smooths(x)
        n = tree.n
        out = json.loads((self.dir / p["out"]).read_text())
        fails = []
        if not np.allclose(out["smooth"], s[-1], rtol=0, atol=TOL):
            fails.append("smooth differs")
        got = np.array([out["details"][str(n - 1 + r)]["vector"] for r in range(1, n)])
        if got.shape != det.shape or not np.allclose(got, det, rtol=0, atol=TOL):
            fails.append("details differ")
        head, rows = read_csv_rows(self.dir / p["csv"])
        table = np.array([[float(v) for v in r[1:]] for r in rows])
        want = np.vstack([s[-1], det[::-1]]).T  # columns s, d_{n-1} .. d_1
        if table.shape != want.shape or np.abs(table - want).max() > PRINT_TOL:
            fails.append("coefficient table differs")
        return fails

    def _rows_match(self, path, want, what):
        head, rows = read_csv_rows(self.dir / path)
        got = np.array([[float(v) for v in r] for r in rows])
        if got.shape != want.shape or np.abs(got - want).max() > PRINT_TOL:
            return [f"{what} rows differ beyond printed precision"]
        if head != [f"a{j}" for j in range(want.shape[1])]:
            return ["column names not carried"]
        return []

    def check_inverse(self, p):
        return self._rows_match(p["out"], self.table(p["data"]), "inverse")

    def check_regress(self, p):
        x, tree = self.table(p["data"]), self.tree(p["tree"])
        s, det = tree.smooths(x)
        kept = np.where((np.linalg.norm(det, axis=1) < p["tau"])[:, None], 0.0, det)
        return self._rows_match(p["out"], tree.reconstruct(s[-1], kept), "regression")

    def check_chain(self, p):
        x, tree = self.table(p["data"]), self.tree(p["tree"])
        s, _ = tree.smooths(x)
        out = json.loads((self.dir / p["out"]).read_text())
        if list(out) != [f"r{t}" for t in range(tree.n)]:
            return ["chain keys are not the row labels"]
        for t in range(tree.n):
            want = [s[-1]] + [s[child] for _, child in tree.path(t)]
            got = out[f"r{t}"]
            partial = np.array([g["partial"] for g in got])
            err = np.array([g["error"] for g in got])
            if partial.shape != (len(want), x.shape[1]) or not np.allclose(
                    partial, want, rtol=0, atol=TOL):
                return [f"chain of terminal {t} differs from its ancestors' smooths"]
            if not np.allclose(err, np.linalg.norm(partial - x[t], axis=1), rtol=0, atol=TOL):
                return [f"chain errors of terminal {t} differ"]
        return []

    # -- p-adic codes ----------------------------------------------------------

    def check_padic(self, p):
        tree, base = self.tree(p["tree"]), p["p"]
        n = tree.n
        out = json.loads((self.dir / p["out"]).read_text())
        powers = [1]
        for _ in range(n):
            powers.append(powers[-1] * base)
        fails = []
        values = []
        for t in range(n):
            entry = out["terminals"][f"r{t}"]
            want = [[node - n + 1, 1 if tree.left[child] else -1]
                    for node, child in tree.path(t)]
            if sorted(entry["coefficients"]) != sorted(want):
                fails.append(f"coefficients of terminal {t} differ")
                break
            value = sum(c * powers[j] for j, c in entry["coefficients"])
            if value != entry["decimal"]:
                fails.append(f"decimal of terminal {t} differs from its coefficients")
                break
            values.append(value)
        unique = len(set(values)) == n
        if out.get("p") != base or out.get("unique") != unique:
            fails.append("uniqueness flag differs")
        if base == 3 and out.get("unique") is not True:
            fails.append("p=3 codes not unique")
        return fails

    # -- symmetry ------------------------------------------------------------

    def check_canon(self, p):
        tree = self.tree(p["tree"])
        out = json.loads((self.dir / p["out"]).read_text())
        n = tree.n
        lowest = list(range(n)) + [0] * (n - 1)
        swapped, fails = [], []
        if len(out["merges"]) != n - 1:
            return ["wrong number of merges"]
        for r, ((a, b, lev), (ca, cb, clev)) in enumerate(zip(tree.merges, out["merges"])):
            if {a, b} != {ca, cb} or lev != clev:
                return [f"merge {r + 1} is not the original up to a swap"]
            if lowest[ca] > lowest[cb]:
                fails.append(f"merge {r + 1}: left child does not hold the smallest terminal")
            lowest[n + r] = min(lowest[ca], lowest[cb])
            if (ca, cb) != (a, b):
                swapped.append(n + r)
        if out.get("swapped_nodes") != swapped:
            fails.append("swapped_nodes differs")
        return fails[:1]

    # -- library steps -------------------------------------------------------

    def check_cophenetic(self, p):
        tree = self.tree(p["tree"])
        got = np.load(self.dir / f"{p['id']}.npy")
        want = squareform(cophenet(tree.scipy_z()))
        if got.shape != want.shape or not np.allclose(got, want, rtol=TOL, atol=TOL):
            return ["cophenetic matrix differs from scipy's cophenet of the tree"]
        return []

    def check_verify(self, p):
        got = json.loads((self.dir / f"{p['id']}.json").read_text())
        d = np.load(self.dir / f"{p['matrix']}.npy")[:p["block"], :p["block"]]
        # strong triangle inequality, one pivot k at a time
        bad = any((d > np.maximum(d[:, k][:, None], d[k][None, :]) + TOL).any()
                  for k in range(len(d)))
        if got != [] or bad:
            return ["a cophenetic block must be ultrametric with no violations listed"]
        return []

    # -- set-valued lattice --------------------------------------------------

    def check_genum(self, p):
        x = self.table(p["data"]).astype(int)
        n, m = x.shape
        out = json.loads((self.dir / p["out"]).read_text())
        full = (1 << m) - 1
        rows = [int("".join(map(str, r[::-1])), 2) for r in x]  # bit j = column j
        name_bit = {f"v{j + 1}": 1 << j for j in range(m)}

        def mask(names):
            return sum(name_bit[a] for a in names)

        observed = {}
        for i in range(n):
            for j in range(i + 1, n):
                observed[(i, j)] = full & ~(rows[i] & rows[j])
        closure = set(observed.values())
        frontier = set(closure)
        while frontier:
            new = {a | b for a in frontier for b in closure} - closure
            closure |= new
            frontier = new
        c = self.counts
        c["pairs"] += sum(len(v) for v in out["pairs"].values())
        c["vertices"] += len(out["vertices"])
        c["edges"] += len(out["edges"])
        c["clusters"] += sum(len(v) for v in out["clusters"].values())
        fails = []
        got = [mask(v["set"]) for v in out["vertices"]]
        if sorted(got) != sorted(closure) or any(
                v["level"] != bin(mk).count("1") for v, mk in zip(out["vertices"], got)):
            fails.append("vertices differ from the union closure")
        covers = {(lo, hi) for lo in closure for hi in closure
                  if lo != hi and lo & hi == lo and not any(
                      mid not in (lo, hi) and lo & mid == lo and mid & hi == mid
                      for mid in closure)}

        def setmask(text):
            return 0 if text == "{}" else mask(text.split(","))

        if {(setmask(a), setmask(b)) for a, b in out["edges"]} != covers or len(
                out["edges"]) != len(covers):
            fails.append("edges are not the cover relation")
        label = {f"o{i}": i for i in range(n)}
        seen = {}
        for node, pairs in out["pairs"].items():
            mk = setmask(node)
            for a, b in pairs:
                key = (label[a], label[b])
                if key in seen or observed.get(key) != mk:
                    fails.append(f"pair {a},{b} misplaced or listed twice")
                    return fails
                seen[key] = mk
        if len(seen) != n * (n - 1) // 2:
            fails.append("pair lists do not cover all pairs")
        return fails
