"""Seeded training is bit-identical to recorded digests.

The digests were recorded with the original per-array training step (a loss
that also computed the report, one Adam loop iteration per parameter array).
Any later change to the training hot path must keep every seeded bit: the same
element-wise operation order, the same per-array L2 sums and the same matmul
operand layouts.
"""

import hashlib
import os

import numpy as np

from rffnet.dataio import load_csv, preprocess_pair
from rffnet.network import build_network, parameters
from rffnet.numerics import Rng
from rffnet.optimizer import TrainConfig, fit
from rffnet.tasks import two_blobs

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def _digests(net, log):
    """(sha256 of every parameter and batch-norm running statistic, sha256 of the log csv)."""
    h = hashlib.sha256()
    for p in parameters(net):
        h.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
    for layer in net.layers:
        if layer.batchnorm is not None:
            h.update(layer.batchnorm.running_mean.astype("<f8").tobytes())
            h.update(layer.batchnorm.running_var.astype("<f8").tobytes())
    return h.hexdigest(), hashlib.sha256(log.to_csv_text().encode()).hexdigest()


def test_monks1_batchnorm_adam_minibatch_golden():
    train, _, _ = preprocess_pair(load_csv(os.path.join(DATA_DIR, "monks1-train.csv")), None)
    net = build_network(train.d, train.class_count, 2, [64, 64], "squared_hinge",
                        Rng(0).derive("init"), batch_norm=True)
    log = fit(net, train.X, train.y, TrainConfig(epochs=20, batch_size=32, seed=0))
    assert _digests(net, log) == (
        "d649171f42a65fe1920e196d5503ad296523f1155cccf5fe2ca28ef5a4bc96ff",
        "17077bbcf1f4d9507364b7332649e9599574829b73eed422bee7959f42ac75bd",
    )


def test_no_batchnorm_sgd_full_batch_golden():
    data = two_blobs(90, seed=3)
    net = build_network(2, 2, 2, [8, 6], "squared", Rng(5).derive("init"))
    log = fit(net, data.X, data.y, TrainConfig(epochs=25, optimizer="sgd", lr=0.05, reg_lambda=1e-3, seed=2))
    assert _digests(net, log) == (
        "0232adbdcd5b4584b04ee19056d0e170226f4bb529020e8a7cdbc2e166119a9c",
        "900a7f73dc66b3dbf8aa4ef5c19d19f2e3b557cb6f63cbf398cade03e65d9148",
    )


def test_batchnorm_trailing_single_row_merged_golden():
    # 33 rows in batches of 8 leave one row, which is folded into the batch before it
    data = two_blobs(33, seed=4)
    val = two_blobs(20, seed=6)
    net = build_network(2, 2, 2, [5, 7], "squared_hinge", Rng(6).derive("init"), batch_norm=True)
    log = fit(net, data.X, data.y, TrainConfig(epochs=15, batch_size=8, lr=0.01, seed=7,
                                               lr_schedule=((10, 0.003),)),
              X_val=val.X, y_val=val.y)
    assert _digests(net, log) == (
        "adcdd883dac1bfc0b7d3e2491e0d0affd526bd6239412a55747e235774479211",
        "8407a2dd30e88123a583a7bb4d0d7a950df7f8e8b3d46bd151adcf21b6d1d919",
    )


def test_cross_entropy_parameters_golden():
    # only the parameters are pinned: the logged cross-entropy loss moved from
    # -log(p + 1e-300) to the exact log-sum-exp form, while its gradient kept every bit
    rng = Rng(21)
    X = rng.normal((40, 3))
    y = np.argmax(X, axis=1).astype(np.int64)
    net = build_network(3, 3, 2, [6, 6], "cross_entropy", Rng(8).derive("init"), batch_norm=True)
    log = fit(net, X, y, TrainConfig(epochs=12, batch_size=10, lr=0.01, seed=3))
    assert _digests(net, log)[0] == "20246be6bf8ffe066bc1946e00c50bfa5aac9b37cebfe0a853b250da118adbd1"
