"""Kernel-view diagnostics: empirical kernel matrices, spectral-density sampling,
feature-map approximation error, kernel PCA, and frequency histograms.

These tools read raw cos/sin features (before batch normalization): only those
carry the unit-diagonal kernel interpretation.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .numerics import Rng, row_blocks, sym_eig_topk
from .rff_layer import RffLayer, forward

# A kernel family is its kind and a bandwidth b (finite and > 0), each kind
# sampling the frequency law of one shift-invariant kernel:
# 'rbf': Gaussian frequencies <-> kernel exp(-||z||^2 / (2 b^2));
# 'laplacian': Cauchy frequencies <-> kernel exp(-||z||_1 / b);
# 'cauchy': Laplace frequencies <-> kernel prod_j 1 / (1 + (z_j/b)^2).
DENSITY_KINDS = ("rbf", "laplacian", "cauchy")
# bytes of one block's feature map in rff_approx_error: 16 rows at D = 4096, 1024 at D = 64
APPROX_BLOCK_BYTES = 1 << 20


def empirical_kernel(features) -> np.ndarray:
    """K = S S^T over raw layer features; rows of S are unit norm, so diag(K) = 1."""
    return features @ features.T


def sample_frequencies(kind: str, bandwidth: float, D: int, d: int, rng: Rng) -> np.ndarray:
    """Draw a (D x d) frequency matrix from the frequency law of the named kernel."""
    if kind == "rbf":
        return rng.normal((D, d), 0.0, 1.0 / bandwidth)
    v = rng.uniform_open(D * d) - 0.5
    if kind == "laplacian":
        return (np.tan(np.pi * v) / bandwidth).reshape(D, d)
    # cauchy kernel <-> Laplace-distributed frequencies (inverse CDF)
    return (-np.sign(v) * np.log(1.0 - 2.0 * np.abs(v)) / bandwidth).reshape(D, d)


def closed_form_kernel(kind: str, bandwidth: float, U, V) -> np.ndarray:
    """Exact kernel values k(u_i - v_i) for paired rows of U and V."""
    z = U - V
    if kind == "rbf":
        return np.exp(-np.sum(z * z, axis=1) / (2.0 * bandwidth * bandwidth))
    if kind == "laplacian":
        return np.exp(-np.sum(np.abs(z), axis=1) / bandwidth)
    return np.prod(1.0 / (1.0 + (z / bandwidth) ** 2), axis=1)


def feature_map(omega: np.ndarray, X) -> np.ndarray:
    """sqrt(1/D) [cos(X omega^T) | sin(X omega^T)] - the raw randomized map, as a layer computes it."""
    return forward(RffLayer(omega=omega), X)[0]


def rff_approx_error(kind: str, bandwidth: float, D: int, U, V, rng: Rng) -> tuple[float, float]:
    """(mean, max) of |<psi(u), psi(v)> - k(u - v)| over paired points, for a
    fresh D-frequency draw from the kernel's frequency law.

    The estimates are computed in row blocks of about APPROX_BLOCK_BYTES per
    feature map, so memory is O(block x D) whatever the number of pairs; each
    estimate has the same bits as a one-shot map of all pairs."""
    exact = closed_form_kernel(kind, bandwidth, U, V)
    omega = sample_frequencies(kind, bandwidth, D, U.shape[1], rng)
    est = _kernel_estimate(omega, U, V)
    err = np.abs(est - exact)
    return float(err.mean()), float(err.max())


def _kernel_estimate(omega: np.ndarray, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """<psi(u_i), psi(v_i)> for each row pair, one feature_map call per block and side.

    No block has a single row unless all of U is one row: a one-row matmul takes
    another BLAS path and would change the last bit."""
    row_bytes = 2 * omega.shape[0] * 8  # D cos and D sin float64 columns
    rows = max(2, APPROX_BLOCK_BYTES // row_bytes)
    est = np.empty(U.shape[0])
    for lo, hi in row_blocks(U.shape[0], rows, merge_singleton=True):
        est[lo:hi] = np.sum(feature_map(omega, U[lo:hi]) * feature_map(omega, V[lo:hi]), axis=1)
    return est


def kpca_project(K: np.ndarray, k: int) -> np.ndarray:
    """Kernel PCA: double-center K, eigendecompose, scale projections by sqrt(eigenvalue).

    Returns the (n, k) coordinates, columns ordered by descending eigenvalue.
    Sign convention: the largest-magnitude coordinate of each component is made
    positive, so outputs are reproducible. Near-zero or negative eigenvalues
    (numerical noise on a centered PSD matrix) yield zero columns.
    """
    n = K.shape[0]
    row_mean = K.mean(axis=1, keepdims=True)
    col_mean = K.mean(axis=0, keepdims=True)
    Kc = K - row_mean - col_mean + K.mean()
    Kc = (Kc + Kc.T) / 2.0
    if float(np.abs(Kc).max()) < 1e-12 * max(1.0, float(np.abs(K).max())):
        return np.zeros((n, k))
    vals, vecs = sym_eig_topk(Kc, k)
    coords = vecs * np.sqrt(np.maximum(vals, 0.0))
    for j in range(k):
        i = int(np.argmax(np.abs(coords[:, j])))
        if coords[i, j] < 0:
            coords[:, j] = -coords[:, j]
    return coords


def omega_histogram(omega: np.ndarray, dim_index: int, bins: int):
    """Histogram of one input-dimension column of a frequency matrix over equal-width bins.

    A column that no ``bins`` finite-width bins can cut, its range too wide for
    a float64 or too narrow to split, raises NumericError."""
    column = omega[:, dim_index]
    span = column.max() - column.min()
    if np.isfinite(span):  # on a range that overflows, np.histogram fails with an IndexError
        try:
            counts, edges = np.histogram(column, bins=bins)
        except ValueError:  # too narrow a range: numpy's "Too many bins for data range"
            pass
        else:
            return edges, counts
    raise NumericError(f"omega column {dim_index} cannot be cut into {bins} finite-width bins")


# --- CSV export ------------------------------------------------------------


def kernel_to_csv_text(K: np.ndarray) -> str:
    n = K.shape[0]
    lines = [",".join(f"s{j}" for j in range(n))]
    for row in K:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def kpca_to_csv_text(coords: np.ndarray, labels) -> str:
    lines = [",".join(f"pc{j + 1}" for j in range(coords.shape[1])) + ",label"]
    for row, label in zip(coords, labels):
        lines.append(",".join(repr(float(v)) for v in row) + f",{int(label)}")
    return "\n".join(lines) + "\n"


def histogram_to_csv_text(edges: np.ndarray, counts: np.ndarray) -> str:
    lines = ["bin_left,bin_right,count"]
    for j in range(len(counts)):
        lines.append(f"{float(edges[j])!r},{float(edges[j + 1])!r},{int(counts[j])}")
    return "\n".join(lines) + "\n"
