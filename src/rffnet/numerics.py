"""Dense float64 helpers: row blocking, running two halves of an array's work side
by side, a portable PRNG, and a symmetric top-k eigensolver.

All matrices are plain 2-D float64 numpy arrays in row-major order. The PRNG is a
counter-based splitmix64 stream defined here (not the platform default) so that a
seed produces the same draws everywhere, independent of numpy's generator choices.
"""

from __future__ import annotations

import os
import threading

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


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


# A hand-off to the helper thread costs about 0.3-0.5 ms on a 2-core VM, so only
# halves of at least this many values run side by side: a 200 x 512 cos half
# takes about 0.8 ms.
SPLIT_MIN_VALUES = 1 << 16


def split_pays(values: int) -> bool:
    """The split rule: each half holds at least SPLIT_MIN_VALUES values and the
    process may run on at least 2 CPUs."""
    if values < SPLIT_MIN_VALUES:
        return False
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return len(cpus) >= 2


# An idle helper thread exits after this many seconds, and the next split starts
# another: a process that re-imports rffnet then keeps no thread per import.
HELPER_IDLE_S = 0.1


class _Helper:
    """One daemon thread that runs a call handed to it, then signals that it is done."""

    def __init__(self):
        self.pid = os.getpid()  # a forked child has no helper thread and starts its own
        self.handed = threading.Lock()  # held while no call waits for the thread
        self.handed.acquire()
        self.done = threading.Lock()  # held until the handed call has run
        self.done.acquire()
        self.call = None
        self.result = self.error = None
        self.thread = threading.Thread(target=self._serve, name="rffnet-split", daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        global _helper
        while True:
            if self.handed.acquire(timeout=HELPER_IDLE_S):
                try:
                    self.result = self.call()
                except BaseException as exc:  # re-raised on the caller
                    self.error = exc
                self.call = None
                self.done.release()
            elif _helper_free.acquire(blocking=False):  # idle, and no caller is handing a call over
                if _helper is self:
                    _helper = None
                _helper_free.release()
                return


_helper: _Helper | None = None
_helper_free = threading.Lock()  # held while a caller uses the helper, or while it decides to exit


def side_by_side(first, second, values: int):
    """Call first() and second(); returns their results as a pair.

    When split_pays(values), first runs on the helper thread (a daemon, started
    on first use, which exits once idle for HELPER_IDLE_S) while second runs
    here, and an error raised by first is raised here once both are done.
    Otherwise, or while another thread uses the helper, both run here in order.
    Each call writes its own part of arrays the caller made, computing that
    part alone (a wide layer's forward maps half of its frequency rows, product
    included, in each): numpy and BLAS release the interpreter lock, so the two
    run at once.
    """
    global _helper
    if not split_pays(values) or not _helper_free.acquire(blocking=False):
        return first(), second()
    try:
        if _helper is None or _helper.pid != os.getpid():
            _helper = _Helper()
        helper = _helper
        helper.call = first
        helper.handed.release()
        try:
            second_result = second()
        finally:  # the helper's call writes into the caller's arrays: wait for it, whatever second did
            helper.done.acquire()
            first_result, error = helper.result, helper.error
            helper.result = helper.error = None
    finally:
        _helper_free.release()
    if error is not None:
        raise error
    return first_result, second_result


def _mix64(z):
    """splitmix64's output function, of a Python int, or in place of a uint64 array."""
    if isinstance(z, int):
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(_MIX1)  # wraps modulo 2^64, as the int path's mask does
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


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
        z = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        z *= np.uint64(_GAMMA)
        z += np.uint64(self.seed)
        return _mix64(z)

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1)."""
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform_open(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on (0, 1); safe to feed to log/tan inverses."""
        return ((self.raw(n) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    def normal(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Gaussian draws via Box-Muller on the uniform stream, shaped like ``shape``
        (an int or a tuple of ints)."""
        size = int(np.prod(shape))
        half = (size + 1) // 2
        r = self.uniform_open(half)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        angle = self.uniform(half)
        angle *= 2.0 * np.pi
        z = np.empty(2 * half)
        np.cos(angle, out=z[:half])
        z[:half] *= r
        np.sin(angle, out=z[half:])
        z[half:] *= r
        z = z[:size]
        z *= std
        z += mean
        return z.reshape(shape)

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
            s = _mix64(((s ^ t) + _GAMMA) & _MASK64)
        return Rng(s)


def sym_eig_topk(a, k: int):
    """Top-k eigenpairs of a symmetric matrix, eigenvalues descending.

    Eigenvectors are returned as unit-norm columns of an (n x k) matrix. LAPACK
    reads one triangle of ``a``, so its only caller, kpca_project, passes an
    exactly symmetrized matrix and a k in [1, n].
    """
    vals, vecs = np.linalg.eigh(a)  # eigenvalues ascending
    return vals[::-1][:k], vecs[:, ::-1][:, :k]
