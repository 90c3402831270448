"""Seeded training is bit-identical to recorded digests.

The digests were recorded with the original per-array training step (a loss
that also computed the report, one Adam loop iteration per parameter array);
the full-batch and merged-trailing-row digests were recorded with the code of
the last commit that still had SGD and the lr schedule, run without either.
The merged-trailing-row log digest was re-recorded when fit lost its
validation split: it is the log of the last code that still had that split,
run without it (its parameter digest did not change). Every log digest was
re-recorded again when the log lost its constant lr and empty val_acc columns:
it is the digest of the earlier log with those two columns taken out.
Any later change to the training hot path must keep every seeded bit: the same
element-wise operation order, the same per-array L2 sums and the same matmul
operand layouts.
"""

import hashlib
import os

import numpy as np

from rffnet.cli import RunConfig, log_csv_text
from rffnet.dataio import load_csv, preprocess_pair
from rffnet.network import build_network, parameters
from rffnet.numerics import Rng
from rffnet.optimizer import fit
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
    return h.hexdigest(), hashlib.sha256(log_csv_text(log).encode()).hexdigest()


def test_monks1_batchnorm_adam_minibatch_golden():
    train, _, _ = preprocess_pair(load_csv(os.path.join(DATA_DIR, "monks1-train.csv")), None)
    net = build_network(train.d, train.class_count, 2, [64, 64], "squared_hinge",
                        Rng(0).derive("init"), batch_norm=True)
    log = fit(net, train.X, train.y, RunConfig(), 20, 32, 0)
    assert _digests(net, log) == (
        "d649171f42a65fe1920e196d5503ad296523f1155cccf5fe2ca28ef5a4bc96ff",
        "c2156fa816576dd871e839d721e99545a363127fd9e565079ff1b5a3a642b969",
    )


def test_no_batchnorm_full_batch_golden():
    data = two_blobs(90, seed=3)
    net = build_network(2, 2, 2, [8, 6], "squared", Rng(5).derive("init"))
    log = fit(net, data.X, data.y, RunConfig(lr=0.05, reg_lambda=1e-3), 25, None, 2)
    assert _digests(net, log) == (
        "bc1885acb108a09268bbbf5cd13e38bab097c0006728f4c70ab230322ecbcc7d",
        "fea0e90a06f9f7299e38d6281f222a2807be35f4984f34c5603f3e8949a9d236",
    )


def test_batchnorm_trailing_single_row_merged_golden():
    # 33 rows in batches of 8 leave one row, which is folded into the batch before it
    data = two_blobs(33, seed=4)
    net = build_network(2, 2, 2, [5, 7], "squared_hinge", Rng(6).derive("init"), batch_norm=True)
    log = fit(net, data.X, data.y, RunConfig(lr=0.01), 15, 8, 7)
    assert _digests(net, log) == (
        "ebad9d3b088613a3e8549e1284afd465c48e9d65d925754b385b4ea45844f240",
        "78a1bc10877e3cd1d8a5d3d41f42d8ba09f6201948a39e02b2088391e68f583b",
    )


def test_cross_entropy_parameters_golden():
    # only the parameters are pinned: the logged cross-entropy loss moved from
    # -log(p + 1e-300) to the exact log-sum-exp form, while its gradient kept every bit
    rng = Rng(21)
    X = rng.normal((40, 3))
    y = np.argmax(X, axis=1).astype(np.int64)
    net = build_network(3, 3, 2, [6, 6], "cross_entropy", Rng(8).derive("init"), batch_norm=True)
    log = fit(net, X, y, RunConfig(lr=0.01), 12, 10, 3)
    assert _digests(net, log)[0] == "20246be6bf8ffe066bc1946e00c50bfa5aac9b37cebfe0a853b250da118adbd1"
