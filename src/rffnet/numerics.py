"""Dense float64 helpers: matrix coercion, row blocking, a portable PRNG, and a
symmetric top-k eigensolver.

All matrices are plain 2-D float64 numpy arrays in row-major order. The PRNG is a
counter-based splitmix64 stream defined here (not the platform default) so that a
seed produces the same draws everywhere, independent of numpy's generator choices.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a float64 array, copying only if needed."""
    return np.asarray(a, dtype=np.float64)


def row_blocks(n: int, size: int, merge_singleton: bool) -> list[tuple[int, int]]:
    """(lo, hi) bounds cutting range(n) into consecutive blocks of ``size`` rows.

    With ``merge_singleton`` a trailing one-row block is folded into the block
    before it: one row breaks batch-norm statistics, and a one-row matmul takes
    another BLAS path whose last bits differ from a many-row product's.
    """
    blocks = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
    if merge_singleton and len(blocks) > 1 and blocks[-1][1] - blocks[-1][0] == 1:
        last = blocks.pop()
        blocks[-1] = (blocks[-1][0], last[1])
    return blocks


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class Rng:
    """Deterministic counter-based generator (splitmix64 output function).

    The i-th 64-bit word of the stream is ``mix(seed + i * gamma)``, so draws are
    a pure function of (seed, position): identical seeds give identical streams.
    Instances are single-owner; never share one across threads.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._count = 0

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 words."""
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return _mix64(np.uint64(self.seed) + idx * np.uint64(_GAMMA))

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1)."""
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform_open(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on (0, 1); safe to feed to log/tan inverses."""
        return ((self.raw(n) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Gaussian draws via Box-Muller on the uniform stream."""
        size = int(np.prod(shape)) if not np.isscalar(shape) else int(shape)
        half = (size + 1) // 2
        u1 = self.uniform_open(half)
        u2 = self.uniform(half)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:size]
        out = mean + std * z
        return out if np.isscalar(shape) else out.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n)."""
        return np.argsort(self.uniform(n), kind="stable")

    def derive(self, *tags) -> "Rng":
        """Child generator whose seed is a hash of this seed and the tags.

        Tags may be ints or strings; strings are hashed with FNV-1a, never with
        Python's salted ``hash``.
        """
        s = self.seed
        for tag in tags:
            t = _fnv1a64(tag) if isinstance(tag, str) else int(tag) & _MASK64
            s = int(_mix64(np.array([((s ^ t) + _GAMMA) & _MASK64], dtype=np.uint64))[0])
        return Rng(s)


def gaussian_matrix(rows: int, cols: int, mean: float, stddev: float, rng: Rng) -> np.ndarray:
    """(rows x cols) matrix of i.i.d. N(mean, stddev^2) entries."""
    return rng.normal((rows, cols), mean, stddev)


def sym_eig_topk(a, k: int):
    """Top-k eigenpairs of a symmetric matrix, eigenvalues descending.

    Eigenvectors are returned as unit-norm columns of an (n x k) matrix. LAPACK
    reads one triangle of ``a``, so its only caller, kpca_project, passes an
    exactly symmetrized matrix and a k in [1, n].
    """
    vals, vecs = np.linalg.eigh(a)  # eigenvalues ascending
    return vals[::-1][:k], vecs[:, ::-1][:, :k]
