"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The large UCI tasks (eeg, phishing) are real measured data that cannot be
generated; their criteria run against data/eeg.csv and data/phishing.csv and
are skipped with a loud reason when the files are absent (scripts/fetch_data.py
downloads and converts them where network access exists).
"""

import os

import numpy as np
import pytest
from oracles import assert_valid_kernel, composed_rbf_oracle, layer_features
from test_scripts import load_script

from rffnet.cli import RunConfig, run_training
from rffnet.kernel_analysis import (
    SpectralDensity,
    closed_form_kernel,
    empirical_kernel,
    feature_map,
    rff_approx_error,
    sample_frequencies,
)
from rffnet.network import (
    backward_full,
    build_network,
    compute_loss,
    forward_full,
    loss_gradient,
    parameters,
    unflatten,
)
from rffnet.numerics import Rng
from rffnet.optimizer import TrainConfig, fit
from rffnet.rff_layer import forward, init_layer
from rffnet.tasks import make_monks

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")
PROTOCOLS = load_script("run_benchmarks").PROTOCOLS  # the benchmark table's settings per task


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def trial_accuracies(tmp_path, task):
    """Test accuracy of each trial of the task's protocol, as scripts/run_benchmarks.py runs it."""
    cfg = RunConfig(task=task, registry=os.path.join(DATA_DIR, "registry.txt"), out=str(tmp_path / "run"),
                    **PROTOCOLS[task])
    results = run_training(cfg)
    return np.array([r.test_acc for r in results])


@pytest.mark.slow
def test_c1_monks1(tmp_path):
    accs = trial_accuracies(tmp_path, "monks1")
    mean = accs.mean()
    report("C1 monks1 mean acc >= 0.98", mean >= 0.98,
           f"mean={mean:.4f} std={accs.std(ddof=1):.4f} over {len(accs)} trials")


@pytest.mark.slow
def test_c2_monks2(tmp_path):
    accs = trial_accuracies(tmp_path, "monks2")
    mean = accs.mean()
    report("C2 monks2 mean acc >= 0.94", mean >= 0.94,
           f"mean={mean:.4f} std={accs.std(ddof=1):.4f} over {len(accs)} trials")


@pytest.mark.slow
def test_c3_monks3(tmp_path):
    accs = trial_accuracies(tmp_path, "monks3")
    mean = accs.mean()
    report("C3 monks3 mean acc in [0.91, 0.96]", 0.91 <= mean <= 0.96,
           f"mean={mean:.4f} std={accs.std(ddof=1):.4f} over {len(accs)} trials")


@pytest.mark.skipif(not os.path.exists(os.path.join(DATA_DIR, "eeg.csv")),
                    reason="requires the real EEG eye-state data: run scripts/fetch_data.py eeg")
def test_c4_eeg(tmp_path):
    accs = trial_accuracies(tmp_path, "eeg")
    mean = accs.mean()
    report("C4 eeg mean acc >= 0.95", mean >= 0.95,
           f"mean={mean:.4f} std={accs.std(ddof=1):.4f} over {len(accs)} trials,"
           f" {PROTOCOLS['eeg']['layers']} layers")


@pytest.mark.skipif(not os.path.exists(os.path.join(DATA_DIR, "phishing.csv")),
                    reason="requires the real phishing data: run scripts/fetch_data.py phishing")
def test_c5_phishing(tmp_path):
    accs = trial_accuracies(tmp_path, "phishing")
    mean = accs.mean()
    report("C5 phishing mean acc >= 0.95", mean >= 0.95,
           f"mean={mean:.4f} std={accs.std(ddof=1):.4f} over {len(accs)} trials,"
           f" {PROTOCOLS['phishing']['layers']} layers")


def _network_objective(net, X, y, lam):
    trace = forward_full(net, X, training=True)
    return compute_loss(net, trace.logits, y, lam).total


def test_c6a_gradient_check_random_architectures():
    # pass when |analytic - numeric| <= 1e-8 + 1e-5 * max(|analytic|, |numeric|),
    # i.e. 1e-5 relative with a 1e-8 absolute floor for true-zero gradients
    losses = ("squared", "squared_hinge", "cross_entropy")
    worst = 0.0
    configs = 0
    for i in range(24):
        rng = Rng(1000 + i)
        loss_kind = losses[i % 3]
        bn = bool((i // 3) % 2)
        depth = 1 + i % 3
        dims = [int(2 + rng.derive("D", j).uniform(1)[0] * 4) for j in range(depth)]
        d_in = 1 + i % 4
        batch = 3 + i % 3
        classes = 2 if loss_kind != "cross_entropy" else 2 + i % 2
        net = build_network(d_in, classes, depth, dims, loss_kind, rng.derive("init"), batch_norm=bn)
        X = rng.derive("x").normal((batch, d_in))
        y = np.array([int(v * classes) for v in rng.derive("y").uniform(batch)])
        lam = 1e-3
        trace = forward_full(net, X, training=True)
        grad_logits = loss_gradient(net, trace.logits, y)
        grads = backward_full(net, trace, grad_logits, lam, np.empty_like(net.flat))
        h = 1e-6
        for p, g in zip(parameters(net), unflatten(net, grads)):
            flat, gflat = p.reshape(-1), g.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                lp = _network_objective(net, X, y, lam)
                flat[k] = orig - h
                lm = _network_objective(net, X, y, lam)
                flat[k] = orig
                num = (lp - lm) / (2 * h)
                score = abs(num - gflat[k]) / (1e-8 + 1e-5 * max(abs(num), abs(gflat[k])))
                worst = max(worst, score)
        configs += 1
    report("C6a full-network gradient check < 1e-5 (1e-8 floor)", worst < 1.0,
           f"worst error at {worst:.3f} of tolerance over {configs} architectures, "
           f"all losses, bn on/off")


def test_c6b_unit_norm_invariant():
    worst = 0.0
    count = 0
    for i in range(100):
        rng = Rng(2000 + i)
        d = 1 + i % 6
        D = 1 + (i * 13) % 64
        layer = init_layer(d, D, 0.1 + (i % 5) * 0.2, rng)
        U = rng.derive("u").normal((100, d), 0.0, 2.0)
        out, _ = forward(layer, U)
        worst = max(worst, float(np.abs(np.sum(out * out, axis=1) - 1.0).max()))
        count += 100
    report("C6b unit-norm features within 1e-12", worst < 1e-12,
           f"max deviation {worst:.2e} over {count} random (u, omega)")


def test_c6c_rff_rbf_convergence_slope():
    density = SpectralDensity("rbf", 1.0)
    rng = Rng(3000)
    U = rng.normal((40, 3))
    V = U + rng.derive("off").normal((40, 3))
    dims = [2**p for p in range(6, 14)]
    means = []
    for D in dims:
        errs = [rff_approx_error(density, D, U, V, Rng(s).derive("acc", D))[0]
                for s in range(5)]
        means.append(np.mean(errs))
    slope = float(np.polyfit(np.log(dims), np.log(means), 1)[0])
    report("C6c log-log error slope = -0.5 +/- 0.15", abs(slope + 0.5) < 0.15,
           f"slope {slope:.3f} over D in 2^6..2^13")


def test_c6d_kernel_invariants_on_trained_model():
    train, _ = make_monks("monks1")
    from rffnet.dataio import preprocess_pair

    tr, _, _ = preprocess_pair(train, None)
    net = build_network(tr.d, 2, 2, [64, 64], "squared_hinge", Rng(4000).derive("init"),
                        batch_norm=True)
    fit(net, tr.X, tr.y, TrainConfig(epochs=200, batch_size=32, seed=7))
    for feats in layer_features(net, tr.X):
        K = empirical_kernel(feats)
        assert_valid_kernel(K, sym_tol=1e-10, psd_tol=-1e-8, diag_tol=1e-10)
    report("C6d trained-model kernel invariants", True,
           "symmetry, PSD >= -1e-8, unit diagonal on both layers of a trained monks1 model")


def test_c6e_composed_kernel_large_D():
    rng = Rng(5000)
    density = SpectralDensity("rbf", 1.0)
    U = rng.normal((100, 3))
    V = U + rng.derive("off").normal((100, 3))
    k_inner = closed_form_kernel(density, U, V)
    oracle = np.array([composed_rbf_oracle(float(k), 0.5) for k in k_inner])
    D = 8192
    om1 = sample_frequencies(density, D, 3, rng.derive("w1"))
    A = feature_map(om1, U)
    B = feature_map(om1, V)
    est = np.zeros(100)
    done = 0
    while done < D:
        chunk = min(512, D - done)
        om2 = sample_frequencies(density, chunk, 2 * D, rng.derive("w2", done))
        fa = A @ om2.T
        fb = B @ om2.T
        est += np.sum(np.cos(fa - fb), axis=1)
        done += chunk
    est /= D
    worst = float(np.abs(est - oracle).max())
    report("C6e composed kernel within 0.05 at D=8192", worst < 0.05,
           f"max |estimate - oracle| = {worst:.4f} over 100 pairs")


def test_c6f_determinism_byte_identical_metrics(tmp_path):
    def one(out):
        cfg = RunConfig(task="monks1", trials=2, epochs="5", batch_size="16",
                        seed=3, out=str(out))
        run_training(cfg)
        return ((out / "metrics.csv").read_bytes(), (out / "summary.csv").read_bytes(),
                (out / "model-trial0.bin").read_bytes())

    a = one(tmp_path / "a")
    b = one(tmp_path / "b")
    report("C6f identical seeds give byte-identical metrics", a == b,
           "metrics.csv, summary.csv and snapshots byte-equal across reruns")
