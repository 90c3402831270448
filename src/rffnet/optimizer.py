"""The Adam update and the minibatch training loop that applies it."""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import NumericError, ParameterError
from .network import (
    Network,
    backward_full,
    compute_loss,
    forward_full,
    loss_gradient,
    parameters,
    unflatten,
)
from .numerics import Rng, row_blocks, side_by_side, split_pays


def _adam_update(p, g, m, v, scratch, alpha: float, root_bc2: float, config) -> None:
    """The Adam update of one slice, in place; g ends up holding the denominator."""
    # theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps), with scalars hoisted; the
    # update alpha * m / (sqrt(v) * root_bc2 + eps) is evaluated in place, in that
    # order, through scratch, with the denominator written over g once v is updated
    np.multiply(1.0 - config.beta1, g, out=scratch)
    m *= config.beta1
    m += scratch
    np.multiply(1.0 - config.beta2, g, out=scratch)
    scratch *= g
    v *= config.beta2
    v += scratch
    denom = np.sqrt(v, out=g)
    denom *= root_bc2
    denom += config.epsilon
    np.multiply(alpha, m, out=scratch)
    scratch /= denom
    p -= scratch


def adam_step(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, config) -> None:
    """Adam update number t (1-based) of p, bias-corrected, in place (fit passes
    net.flat), with the lr, beta1, beta2 and epsilon of config, the run's
    cli.RunConfig. The first and second moments m and v, shaped like p, are
    updated in place too, and g, the gradient, is overwritten. Every element
    is updated alone, so when each half of p is large enough
    (numerics.split_pays) the two halves are updated side by side."""
    alpha = config.lr / (1.0 - config.beta1**t)
    root_bc2 = 1.0 / np.sqrt(1.0 - config.beta2**t)
    scratch = np.empty_like(p)
    half = p.size // 2
    if split_pays(half):
        lo, hi = slice(None, half), slice(half, None)
        side_by_side(partial(_adam_update, p[lo], g[lo], m[lo], v[lo], scratch[lo], alpha, root_bc2, config),
                     partial(_adam_update, p[hi], g[hi], m[hi], v[hi], scratch[hi], alpha, root_bc2, config), half)
    else:
        _adam_update(p, g, m, v, scratch, alpha, root_bc2, config)


def fit(net: Network, X, y, config, epochs: int, batch_size: int | None, seed: int) -> list[tuple]:
    """Train with shuffled minibatches of batch_size rows (None: the full batch);
    returns one (loss, reg_loss, train_acc) row per epoch, taken after it.

    config is the run's cli.RunConfig, whose reg_lambda, shuffle and Adam
    settings apply. epochs, batch_size and seed are the trial's resolved values,
    which RunConfig holds only as 'auto' or as the base seed.

    Shuffling for epoch e depends only on (seed, e), so two runs with the same
    seed and data produce bit-identical logs and final parameters.

    Each step writes its gradients into one reused buffer laid out like
    net.flat, through views made once per fit, so Adam updates every parameter
    with one call. A step's activations are freed before Adam runs, so at most
    one trace is alive.

    X and y are a Dataset's features and labels, as wide as net's input, and
    with batch norm every batch has at least 2 rows: run_training builds the
    network from the data it trains on and checks the batch size first. That
    every parameter is still a view of net.flat is checked once, before the
    first step.
    """
    n = X.shape[0]
    has_bn = any(layer.batchnorm is not None for layer in net.layers)
    batch_size = batch_size if batch_size is not None else n
    flat = net.flat
    if not all(p.base is flat for p in parameters(net)):
        raise ParameterError("a trainable array was rebound and is no longer a view of net.flat; "
                             "assign into it in place, or build a new Network from the arrays")
    grad = np.empty_like(flat)
    grad_views = unflatten(net, grad)
    m, v, t = np.zeros_like(flat), np.zeros_like(flat), 0
    log = []
    base_rng = Rng(seed)
    for epoch in range(epochs):
        if config.shuffle:
            order = base_rng.derive("shuffle", epoch).permutation(n)
        else:
            order = np.arange(n)
        for lo, hi in row_blocks(n, batch_size, merge_singleton=has_bn):
            idx = order[lo:hi]
            trace = forward_full(net, X[idx], training=True)
            backward_full(net, trace, loss_gradient(net, trace.logits, y[idx]), config.reg_lambda, grad, grad_views)
            # free this step's activations before Adam, the next forward and the evaluation
            del trace
            t += 1
            adam_step(flat, grad, m, v, t, config)  # overwrites grad, which the next step rewrites whole
        if not np.isfinite(flat).all():
            raise NumericError(f"non-finite parameter after epoch {epoch}")
        data_loss, reg_loss, correct = compute_loss(net, forward_full(net, X, training=False).logits, y,
                                                    config.reg_lambda)
        log.append((data_loss + reg_loss, reg_loss, correct / n))
    return log
