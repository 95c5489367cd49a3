"""The row-block matrix passes on one CPU and on several.

_each_block deals the blocks of rows round-robin over the CPUs in the
process's affinity mask.  The passes that go through it (the
euclidean_matrix fill and the cophenetic_matrix permutation) must give
the same bits, the same errors and the same messages whatever that count
is, and leave the caller's numpy state as it found it.
"""

import os
import sys
import threading
import warnings

import numpy as np
import pytest

from umtree import euclidean_matrix
from umtree import dendrogram
from umtree.dendrogram import _BLOCK, _each_block, _row_blocks

import test_tree_oracles as oracles

OVERFLOW = "^a squared Euclidean distance overflows float64"


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpus"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(dendrogram, "_cpus", lambda: request.param)
    return request.param


@pytest.fixture(scope="module")
def cdist():
    return pytest.importorskip("scipy.spatial.distance").cdist


class TestCpus:
    def test_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        assert dendrogram._cpus() == 3

    @pytest.mark.parametrize("count, want", [(6, 6), (None, 1)])
    def test_cpu_count_without_affinity(self, monkeypatch, count, want):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert dendrogram._cpus() == want


class TestEachBlock:
    def test_results_in_block_order(self, cpus):
        n = 1000
        assert _each_block(lambda rows: rows.start, n) == [r.start for r in _row_blocks(n)]

    @pytest.mark.parametrize("k", [2, 3])
    def test_blocks_dealt_round_robin(self, monkeypatch, k):
        monkeypatch.setattr(dendrogram, "_cpus", lambda: k)
        # Thread objects, not idents: a finished thread's ident can be reused
        ran_in = _each_block(lambda rows: threading.current_thread(), 1000)
        assert len(ran_in) > k
        assert ran_in[0] is threading.current_thread()  # the caller takes the first share
        assert len(set(ran_in)) == k
        assert all(ran_in[b] is ran_in[b % k] for b in range(len(ran_in)))

    @pytest.mark.parametrize("n", [0, 1, 256])
    def test_one_block_starts_no_thread(self, monkeypatch, n):
        monkeypatch.setattr(dendrogram, "_cpus", lambda: 2)
        monkeypatch.setattr(threading, "Thread", None)
        assert set(_each_block(lambda rows: threading.current_thread(), n)) <= {threading.current_thread()}

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(dendrogram, "_cpus", lambda: 1)
        monkeypatch.setattr(threading, "Thread", None)
        assert set(_each_block(lambda rows: threading.current_thread(), 1000)) == {threading.current_thread()}

    def test_first_error_by_block_raised_after_join(self, cpus):
        def fn(rows):
            if rows.start // (_BLOCK // 1000) in (3, 4):
                raise KeyError(rows.start)

        before = threading.active_count()
        with pytest.raises(KeyError) as err:
            _each_block(fn, 1000)
        assert err.value.args == (3 * (_BLOCK // 1000),)
        assert threading.active_count() == before

    @pytest.mark.parametrize("fails", [{1, 2}, {2}])
    def test_share_without_a_thread_runs_in_caller(self, monkeypatch, fails):
        """A thread that cannot be started leaves its share to the caller;
        the threads started before it are joined all the same."""
        monkeypatch.setattr(dendrogram, "_cpus", lambda: 3)
        start, calls = threading.Thread.start, []

        def flaky_start(thread):
            calls.append(thread)
            if len(calls) in fails:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", flaky_start)
        before = threading.active_count()
        caller = threading.current_thread()
        ran_in = _each_block(lambda rows: threading.current_thread(), 1000)
        assert threading.active_count() == before
        assert len(calls) == 2
        assert all(ran_in[b] is ran_in[b % 3] for b in range(len(ran_in)))
        assert [ran_in[s] is caller for s in range(3)] == [True] + [s in fails for s in (1, 2)]

    def test_blocks_run_under_caller_errstate(self, cpus):
        with np.errstate(under="raise", divide="ignore", invalid="warn"):
            want = np.geterr()
            assert _each_block(lambda rows: np.geterr(), 1000) == [want] * len(_row_blocks(1000))

    def test_worker_block_raises_under_caller_errstate(self, cpus):
        """An underflow the caller asked to raise is raised from whichever
        thread meets it, as the serial loop raises it."""
        step = _BLOCK // 1000

        def fn(rows):
            x = np.float64(1e-200 if rows.start // step in (1, 3) else 1.0)
            return x * x

        with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
            _each_block(fn, 1000)
        assert np.geterr()["under"] == "ignore"
        with np.errstate(under="ignore"):
            assert _each_block(fn, 1000)[1] == 0.0


def test_more_threads_than_cpus_lose_no_block(monkeypatch, cdist):
    """Eight threads on a short switch interval: every block's result and
    every row arrive, in block order and with cdist's bits."""
    monkeypatch.setattr(dendrogram, "_cpus", lambda: 8)
    x = np.random.default_rng(8).normal(size=(1200, 3))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert _each_block(lambda rows: rows.start, 5000) == [r.start for r in _row_blocks(5000)]
            assert euclidean_matrix(x).values.tobytes() == cdist(x, x).tobytes()
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize("n", [300, 1000, oracles._one_row_last_block()])
def test_euclidean_bits_of_cdist(cpus, cdist, n):
    x = np.random.default_rng(n).normal(size=(n, 5)) * 10.0 ** np.arange(-2, 3)
    assert euclidean_matrix(x).values.tobytes() == cdist(x, x).tobytes()


def _overflow_in_worker_blocks(n=1000):
    """A table whose one overflowing pair of rows lies in blocks 1 and 3,
    which the second thread runs, and the second row of the pair: each
    row's difference with a zero row squares to 1e308, theirs to 4e308."""
    step = _BLOCK // n
    x = np.zeros((n, 3))
    x[step + 5, 1] = 1e154
    x[3 * step + 5, 1] = -1e154
    return x, 3 * step + 5


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_overflow_in_worker_named_without_warning(cpus, action):
    x, second = _overflow_in_worker_blocks()
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(ValueError, match=OVERFLOW):
            euclidean_matrix(x)
    x[second] = 0.0
    assert np.isfinite(euclidean_matrix(x).values).all()


def test_caller_numpy_state_unchanged(cpus):
    x, _ = _overflow_in_worker_blocks()
    with np.errstate(over="ignore", invalid="warn"):  # the blocks raise all the same
        before = np.geterr(), np.getbufsize()
        euclidean_matrix(np.ones((1000, 2)))
        assert (np.geterr(), np.getbufsize()) == before
        with pytest.raises(ValueError, match=OVERFLOW):
            euclidean_matrix(x)
        assert (np.geterr(), np.getbufsize()) == before


@pytest.mark.parametrize("n", [300, 1000, oracles._one_row_last_block()])
def test_cophenetic_matrix_over_row_blocks(cpus, n):
    oracles.test_cophenetic_matrix_over_row_blocks(n)


def test_cli_import_leaves_out_thread_pools():
    """_each_block starts plain threads: concurrent.futures alone adds
    about 9 ms to the import of umtree.cli."""
    import subprocess

    import umtree

    src = os.path.dirname(os.path.dirname(umtree.__file__))
    code = ("import sys, numpy, umtree.cli; umtree.euclidean_matrix(numpy.ones((1000, 2))); "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    assert run.stdout.strip() == "[]"
