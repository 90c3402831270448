"""The Adam update and the minibatch training loop that applies it."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError
from .network import (
    Network,
    backward_full,
    compute_loss,
    forward_full,
    loss_gradient,
    parameters,
)
from .numerics import Rng, as_matrix, row_blocks


@dataclass
class AdamState:
    """First/second moment accumulators, shaped like the one array they update."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_step(p: np.ndarray, g: np.ndarray, state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected Adam update of p, in place (fit passes net.flat), with
    config's lr, beta1, beta2 and epsilon."""
    state.step += 1
    t = state.step
    # theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps), with scalars hoisted; the
    # update alpha * m / (sqrt(v) * root_bc2 + eps) is evaluated in place, in that
    # order, through one scratch array besides denom
    alpha = config.lr / (1.0 - config.beta1**t)
    root_bc2 = 1.0 / np.sqrt(1.0 - config.beta2**t)
    m, v = state.m, state.v
    scratch = np.multiply(1.0 - config.beta1, g)
    m *= config.beta1
    m += scratch
    np.multiply(1.0 - config.beta2, g, out=scratch)
    scratch *= g
    v *= config.beta2
    v += scratch
    denom = np.sqrt(v)
    denom *= root_bc2
    denom += config.epsilon
    np.multiply(alpha, m, out=scratch)
    scratch /= denom
    p -= scratch


@dataclass
class TrainConfig:
    epochs: int = 300
    batch_size: int | None = None  # None = full batch
    reg_lambda: float = 1e-4
    seed: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    shuffle: bool = True


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    reg_loss: float
    train_acc: float


@dataclass
class TrainingLog:
    records: list[EpochRecord] = field(default_factory=list)

    def to_csv_text(self) -> str:
        lines = ["epoch,loss,reg_loss,train_acc"]
        for r in self.records:
            lines.append(f"{r.epoch},{r.loss!r},{r.reg_loss!r},{r.train_acc!r}")
        return "\n".join(lines) + "\n"


def fit(net: Network, X, y, config: TrainConfig) -> TrainingLog:
    """Train with shuffled minibatches; logs post-epoch loss and training accuracy.

    Shuffling for epoch e depends only on (config.seed, e), so two runs with the
    same seed and data produce bit-identical logs and final parameters.

    Each step writes its gradients into one reused buffer laid out like
    net.flat, so Adam updates every parameter with a single call. A step's
    activations are freed before Adam runs, so at most one trace is alive.

    X and y are a Dataset's features and labels, as wide as net's input, and
    with batch norm every batch has at least 2 rows: run_training builds the
    network from the data it trains on and checks the batch size first. That
    every parameter is still a view of net.flat is checked once, before the
    first step.
    """
    X = as_matrix(X)
    n = X.shape[0]
    has_bn = any(layer.batchnorm is not None for layer in net.layers)
    batch_size = config.batch_size if config.batch_size is not None else n
    flat = net.flat
    if not all(p.base is flat for p in parameters(net)):
        raise ParameterError("a trainable array was rebound and is no longer a view of net.flat; "
                             "assign into it in place, or build a new Network from the arrays")
    grad = np.empty_like(flat)
    state = AdamState(m=np.zeros_like(flat), v=np.zeros_like(flat))
    log = TrainingLog()
    base_rng = Rng(config.seed)
    for epoch in range(config.epochs):
        if config.shuffle:
            order = base_rng.derive("shuffle", epoch).permutation(n)
        else:
            order = np.arange(n)
        for lo, hi in row_blocks(n, batch_size, merge_singleton=has_bn):
            idx = order[lo:hi]
            trace = forward_full(net, X[idx], training=True)
            backward_full(net, trace, loss_gradient(net, trace.logits, y[idx]), config.reg_lambda, out=grad)
            # free this step's activations before Adam, the next forward and the evaluation
            del trace
            adam_step(flat, grad, state, config)
        if not np.isfinite(flat).all():
            raise NumericError(f"non-finite parameter after epoch {epoch}")
        report = compute_loss(net, forward_full(net, X, training=False).logits, y, config.reg_lambda)
        log.records.append(EpochRecord(epoch=epoch, loss=report.total, reg_loss=report.reg_loss,
                                       train_acc=report.correct_count / n))
    return log
