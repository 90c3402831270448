import numpy as np
import pytest

from rffnet.numerics import Rng, gaussian_matrix, row_blocks, sym_eig_topk


def test_gaussian_zero_stddev_is_constant():
    m = gaussian_matrix(3, 3, 0.0, 0.0, Rng(0))
    assert np.array_equal(m, np.zeros((3, 3)))
    m = gaussian_matrix(2, 2, 1.5, 0.0, Rng(0))
    assert np.array_equal(m, np.full((2, 2), 1.5))


def test_gaussian_law_of_large_numbers():
    m = gaussian_matrix(1000, 1000, 0.0, 0.1, Rng(123))
    assert abs(m.mean()) < 0.001


def test_gaussian_same_seed_same_matrix():
    a = gaussian_matrix(4, 5, 0.0, 1.0, Rng(99))
    b = gaussian_matrix(4, 5, 0.0, 1.0, Rng(99))
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
