import os
import sys
import threading

import numpy as np
import pytest

from rffnet import numerics
from rffnet.numerics import Rng, row_blocks, side_by_side, split_pays, sym_eig_topk


def test_gaussian_zero_stddev_is_constant():
    # mean + std * z: a zero std gives +0.0 (never -0.0) at a zero mean, as the layer and readout inits rely on
    m = Rng(0).normal((3, 3), 0.0, 0.0)
    assert np.array_equal(m, np.zeros((3, 3))) and not np.signbit(m).any()
    m = Rng(0).normal((2, 2), 1.5, 0.0)
    assert np.array_equal(m, np.full((2, 2), 1.5))


def test_gaussian_law_of_large_numbers():
    m = Rng(123).normal((1000, 1000), 0.0, 0.1)
    assert abs(m.mean()) < 0.001


def test_gaussian_same_seed_same_matrix():
    a = Rng(99).normal((4, 5), 0.0, 1.0)
    b = Rng(99).normal((4, 5), 0.0, 1.0)
    assert np.array_equal(a, b)


def test_rng_streams_differ_across_seeds_and_derivations():
    a = Rng(1).uniform(100)
    b = Rng(2).uniform(100)
    c = Rng(1).derive("other").uniform(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_uniform_range_and_mean():
    u = Rng(5).uniform(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_rng_permutation_is_permutation():
    p = Rng(3).permutation(257)
    assert np.array_equal(np.sort(p), np.arange(257))


def test_rng_derive_is_deterministic():
    a = Rng(7).derive("shuffle", 3).uniform(10)
    b = Rng(7).derive("shuffle", 3).uniform(10)
    assert np.array_equal(a, b)


def test_sym_eig_diagonal():
    vals, vecs = sym_eig_topk(np.diag([3.0, 1.0, 2.0]), 2)
    assert np.allclose(vals, [3.0, 2.0])
    assert np.allclose(np.abs(vecs), [[1, 0], [0, 0], [0, 1]], atol=1e-12)


def test_sym_eig_identity():
    vals, _ = sym_eig_topk(np.eye(5), 1)
    assert abs(vals[0] - 1.0) < 1e-12


def test_sym_eig_matches_lapack_oracle():
    rng = Rng(17)
    a = rng.normal((6, 6))
    a = (a + a.T) / 2.0
    vals, _ = sym_eig_topk(a, 6)
    ref = np.sort(np.linalg.eigvalsh(a))[::-1]
    assert np.abs(vals - ref).max() < 1e-8


@pytest.mark.parametrize("n,seed", [(3, 0), (8, 1), (20, 2), (40, 3)])
def test_sym_eig_residual_invariant(n, seed):
    rng = Rng(seed)
    a = rng.normal((n, n))
    a = (a + a.T) / 2.0
    vals, vecs = sym_eig_topk(a, n)
    for i in range(n):
        v = vecs[:, i]
        assert abs(np.linalg.norm(v) - 1.0) < 1e-10
        res = np.linalg.norm(a @ v - vals[i] * v) / max(np.linalg.norm(v), 1e-300)
        assert res < 1e-8
    assert np.all(np.diff(vals) <= 1e-12)


def test_sym_eig_random_40x40_eigenpairs_orthonormal_descending():
    a = Rng(40).normal((40, 40))
    a = (a + a.T) / 2.0
    vals, vecs = sym_eig_topk(a, 40)
    assert np.abs(a @ vecs - vecs * vals).max() < 1e-10
    assert np.abs(vecs.T @ vecs - np.eye(40)).max() < 1e-10
    assert np.all(np.diff(vals) <= 0)


def test_row_blocks_cover_the_rows_and_merge_only_a_trailing_single_row():
    assert row_blocks(10, 4, merge_singleton=True) == [(0, 4), (4, 8), (8, 10)]
    assert row_blocks(9, 4, merge_singleton=False) == [(0, 4), (4, 8), (8, 9)]
    assert row_blocks(9, 4, merge_singleton=True) == [(0, 4), (4, 9)]
    assert row_blocks(1, 4, merge_singleton=True) == [(0, 1)]  # the whole set may be one row
    assert row_blocks(5, 1, merge_singleton=True) == [(0, 1), (1, 2), (2, 3), (3, 5)]
    assert row_blocks(0, 4, merge_singleton=True) == []


def test_rng_values_are_pinned():
    # derive mixes a Python int and raw a uint64 array through one splitmix64 mixer
    assert Rng(0).derive("shuffle", 3).seed == 17774802409441207355
    assert Rng(12345).derive("init").seed == 11977022823666714978
    assert Rng(2**64 - 1).derive("monks", "monks1").seed == 12432021632082054024
    assert Rng(7).raw(3).tolist() == [7191089600892374487, 309689372594955804, 16616101746815609346]


def test_the_split_rule_needs_two_cpus_and_halves_of_the_minimum_size(monkeypatch):
    # the rule's function is called with a patched affinity; no thread is started
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not split_pays(1 << 24)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert split_pays(numerics.SPLIT_MIN_VALUES)
    assert not split_pays(numerics.SPLIT_MIN_VALUES - 1)


def test_side_by_side_runs_both_here_when_the_rule_says_no(monkeypatch):
    monkeypatch.setattr(numerics, "SPLIT_MIN_VALUES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(numerics, "_helper", None)
    calls = []
    assert side_by_side(lambda: calls.append(("first", threading.get_ident())) or 1,
                        lambda: calls.append(("second", threading.get_ident())) or 2, 1 << 20) == (1, 2)
    assert calls == [("first", threading.get_ident()), ("second", threading.get_ident())]
    assert numerics._helper is None  # no helper thread was started on one CPU


def test_an_error_raised_on_the_helper_reaches_the_caller(split_everything):
    split_everything()
    threads, ran = [], []

    def fail():
        threads.append(threading.get_ident())
        raise ValueError("raised on the helper")

    with pytest.raises(ValueError, match="raised on the helper"):
        side_by_side(fail, lambda: ran.append("second"), 1)
    assert ran == ["second"]  # the caller's call ran, and the caller waited for the helper
    assert threads and threads[0] != threading.get_ident()
    assert side_by_side(lambda: 1, lambda: 2, 1) == (1, 2)  # the helper still serves

    def fail_here():
        raise KeyError("raised here")

    with pytest.raises(KeyError):  # the caller's own error wins, and the helper's is not kept for later
        side_by_side(fail, fail_here, 1)
    assert side_by_side(lambda: 1, lambda: 2, 1) == (1, 2)


def test_an_idle_helper_thread_exits_and_the_next_split_starts_another(split_everything, monkeypatch):
    split_everything()
    monkeypatch.setattr(numerics, "HELPER_IDLE_S", 0.01)
    threads = []
    for _ in range(2):
        thread, _ = side_by_side(threading.current_thread, lambda: None, 1)
        thread.join(timeout=10)
        assert thread is not threading.current_thread() and not thread.is_alive()
        threads.append(thread)
    assert threads[0] is not threads[1] and numerics._helper is None


def test_callers_on_many_threads_each_get_their_own_results(split_everything):
    # more callers than cores share the one helper: a result handed to the wrong
    # caller, or a call lost between them, breaks the pairs
    split_everything()
    failures = []

    def caller(k):
        for i in range(300):
            pair = side_by_side(lambda: (k, i, "first"), lambda: (k, i, "second"), 1)
            if pair != ((k, i, "first"), (k, i, "second")):
                failures.append(pair)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
