"""Reference checks and readers that only tests use: kernel-matrix invariants,
the closed-form composed-RBF kernel, the one-shot feature-map kernel estimate,
the per-cell CSV loader, and parsers for the CSV files the commands write."""

import csv

import numpy as np

from rffnet.dataio import Dataset, _open_text, code_labels
from rffnet.errors import DataError, ParameterError
from rffnet.kernel_analysis import feature_map
from rffnet.numerics import sym_eig_topk
from rffnet.rff_layer import forward


def assert_valid_kernel(K: np.ndarray, sym_tol: float = 1e-10, psd_tol: float = -1e-8,
                        diag_tol: float = 1e-10, check_diag: bool = True) -> None:
    """Assert symmetry, positive semi-definiteness, and (optionally) a unit diagonal."""
    n = K.shape[0]
    sym_err = float(np.abs(K - K.T).max())
    if sym_err > sym_tol:
        raise DataError(f"kernel matrix asymmetric by {sym_err:.3g}")
    if check_diag:
        diag_err = float(np.abs(np.diag(K) - 1.0).max())
        if diag_err > diag_tol:
            raise DataError(f"kernel diagonal deviates from 1 by {diag_err:.3g}")
    vals, _ = sym_eig_topk(K, n)
    if float(vals[-1]) < psd_tol:
        raise DataError(f"kernel matrix not PSD: min eigenvalue {vals[-1]:.3g}")


def composed_rbf_oracle(k_inner: float, lam: float) -> float:
    """Two stacked RBF maps: the outer kernel exp(-lam ||a - b||^2) evaluated on
    unit-norm inner features reduces to exp(-2 lam (1 - k_inner))."""
    if not 0.0 <= k_inner <= 1.0:
        raise ParameterError(f"k_inner must lie in [0, 1], got {k_inner}")
    if lam <= 0:
        raise ParameterError(f"lambda must be positive, got {lam}")
    return float(np.exp(-2.0 * lam * (1.0 - k_inner)))


def oneshot_kernel_estimate(omega: np.ndarray, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """<psi(u_i), psi(v_i)> for every row pair from one feature map of all of U and V."""
    return np.sum(feature_map(omega, U) * feature_map(omega, V), axis=1)


def layer_features(net, X) -> list[np.ndarray]:
    """Every layer's raw trig features (before batch norm) on X in inference mode,
    collected layer by layer as `rffnet inspect` collects them."""
    feats, h = [], X
    for layer in net.layers:
        h, cache = forward(layer, h)
        feats.append(cache.features)
    return feats


def load_csv_oracle(path, label_column: int = -1, label_names: list[str] | None = None) -> Dataset:
    """dataio.load_csv as it was before its one numpy cast: each row's feature
    cells are parsed with float() as the row is read."""
    rows = []
    label_tokens = []
    width = None
    with _open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            line_no = reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if width is None:
                width = len(row)
            if len(row) != width:
                raise DataError(f"{path} line {line_no}: expected {width} columns, found {len(row)}")
            col = label_column if label_column >= 0 else len(row) + label_column
            if not 0 <= col < len(row):
                raise DataError(f"{path} line {line_no}: label column {label_column} out of range "
                                f"for {len(row)} columns")
            label_tokens.append(row[col].strip())
            feats = []
            for j, cell in enumerate(row):
                if j == col:
                    continue
                try:
                    feats.append(float(cell))
                except ValueError:
                    raise DataError(f"{path} line {line_no}: non-numeric feature value {cell!r} "
                                    f"in column {j}") from None
            rows.append(feats)
    if not rows:
        raise DataError(f"{path}: no data rows")
    X = np.array(rows, dtype=np.float64)
    y, names = code_labels(label_tokens, label_names)
    return Dataset(X=X, y=y, label_names=names)


def kernel_from_csv_text(text: str) -> np.ndarray:
    """The matrix kernel_analysis.kernel_to_csv_text wrote."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])


def training_log_from_csv_text(text: str) -> list[tuple[float, float, float]]:
    """The (loss, reg_loss, train_acc) rows that cli.log_csv_text wrote, one per epoch in order."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows = []
    for ln in lines[1:]:
        _, loss, reg, tacc = ln.split(",")
        rows.append((float(loss), float(reg), float(tacc)))
    return rows
