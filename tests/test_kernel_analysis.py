import tracemalloc

import numpy as np
import pytest
from oracles import (
    assert_valid_kernel,
    composed_rbf_oracle,
    kernel_from_csv_text,
    layer_features,
    oneshot_kernel_estimate,
)

from rffnet.kernel_analysis import (
    APPROX_BLOCK_BYTES,
    DENSITY_KINDS,
    _kernel_estimate,
    SpectralDensity,
    closed_form_kernel,
    empirical_kernel,
    feature_map,
    kernel_to_csv_text,
    kpca_project,
    omega_histogram,
    rff_approx_error,
    sample_frequencies,
)
from rffnet.numerics import Rng
from rffnet.rff_layer import RffLayer, forward, init_layer


def test_empirical_kernel_identical_rows():
    layer = init_layer(3, 16, 0.2, Rng(0))
    x = Rng(1).normal((1, 3))
    feats, _ = forward(layer, np.vstack([x, x]))
    K = empirical_kernel(feats)
    assert abs(K[0, 1] - 1.0) < 1e-12


def test_empirical_kernel_unit_diagonal():
    layer = init_layer(4, 32, 0.3, Rng(2))
    feats, _ = forward(layer, Rng(3).normal((10, 4)))
    K = empirical_kernel(feats)
    assert np.abs(np.diag(K) - 1.0).max() < 1e-12


def test_empirical_kernel_matches_brute_force():
    S = Rng(4).normal((4, 6))
    K = empirical_kernel(S)
    for i in range(4):
        for j in range(4):
            assert abs(K[i, j] - float(S[i] @ S[j])) < 1e-12


def test_empirical_kernel_invariants_validate():
    layer = init_layer(5, 64, 0.2, Rng(5))
    feats, _ = forward(layer, Rng(6).normal((20, 5)))
    assert_valid_kernel(empirical_kernel(feats))


def test_sample_frequencies_rbf_moments():
    w = sample_frequencies(SpectralDensity("rbf", 1.0), 1000, 100, Rng(7))
    assert abs(w.var() - 1.0) < 0.05
    w2 = sample_frequencies(SpectralDensity("rbf", 2.0), 1000, 100, Rng(7))
    assert abs(w2.var() - 0.25) < 0.02


def test_sample_frequencies_laplacian_quartiles():
    # |Cauchy(0, 1/b)| has median 1/b
    w = sample_frequencies(SpectralDensity("laplacian", 1.0), 1000, 100, Rng(8))
    assert abs(np.median(np.abs(w)) - 1.0) < 0.05


def test_sample_frequencies_cauchy_kernel_laplace_freqs():
    # Laplace(0, 1/b) has variance 2/b^2 and median |.| = ln(2)/b
    w = sample_frequencies(SpectralDensity("cauchy", 1.0), 1000, 100, Rng(9))
    assert abs(w.var() - 2.0) < 0.1
    assert abs(np.median(np.abs(w)) - np.log(2.0)) < 0.02


def test_sample_frequencies_deterministic():
    a = sample_frequencies(SpectralDensity("rbf", 1.0), 8, 3, Rng(10))
    b = sample_frequencies(SpectralDensity("rbf", 1.0), 8, 3, Rng(10))
    assert np.array_equal(a, b)


def test_closed_form_kernels():
    u = np.array([[1.0, 0.0]])
    v = np.array([[0.0, 1.0]])  # ||u-v||^2 = 2, ||u-v||_1 = 2
    assert abs(closed_form_kernel(SpectralDensity("rbf", 1.0), u, v)[0] - np.exp(-1.0)) < 1e-15
    assert abs(closed_form_kernel(SpectralDensity("laplacian", 1.0), u, v)[0] - np.exp(-2.0)) < 1e-15
    assert abs(closed_form_kernel(SpectralDensity("cauchy", 1.0), u, v)[0] - 0.25) < 1e-15


def test_approx_error_zero_at_identical_points():
    U = Rng(11).normal((5, 3))
    _, max_error = rff_approx_error(SpectralDensity("rbf", 1.0), 64, U, U.copy(), Rng(12))
    assert max_error < 1e-12


def test_approx_error_rbf_concentration():
    # ||u - v||^2 = 2 -> k = e^{-1}; at D = 10^4 the estimate should be close
    u = np.array([[1.0, 0.0]])
    v = np.array([[0.0, 1.0]])
    for seed in range(5):
        _, max_error = rff_approx_error(SpectralDensity("rbf", 1.0), 10_000, u, v, Rng(seed))
        assert max_error < 0.05


def test_approx_error_decreases_with_D():
    density = SpectralDensity("rbf", 1.0)
    rng = Rng(13)
    U = rng.normal((20, 3))
    V = U + rng.derive("off").normal((20, 3))
    wins = 0
    trials = 40
    for seed in range(trials):
        small, _ = rff_approx_error(density, 256, U, V, Rng(seed).derive("s"))
        big, _ = rff_approx_error(density, 4096, U, V, Rng(seed).derive("b"))
        if big < small:
            wins += 1
    assert wins >= int(0.95 * trials)


def test_approx_error_loglog_slope():
    density = SpectralDensity("rbf", 1.0)
    rng = Rng(14)
    U = rng.normal((40, 3))
    V = U + rng.derive("off").normal((40, 3))
    dims = [2**p for p in range(6, 14)]
    means = []
    for D in dims:
        errs = [rff_approx_error(density, D, U, V, Rng(s).derive("slope", D))[0]
                for s in range(5)]
        means.append(np.mean(errs))
    slope = np.polyfit(np.log(dims), np.log(means), 1)[0]
    assert abs(slope + 0.5) < 0.15


@pytest.mark.parametrize("D", [16, 64, 256, 1024, 4096])
@pytest.mark.parametrize("kind", DENSITY_KINDS)
def test_blocked_estimate_matches_the_oneshot_map_bit_for_bit(kind, D):
    # the block is 16 rows at D = 4096 and 1024 at D = 64; block + 1 leaves a trailing single row
    block = APPROX_BLOCK_BYTES // (16 * D)
    density = SpectralDensity(kind, 1.3)
    for d in (1, 3, 5):
        for pairs in (1, 2, block, block + 1, 3 * block + 5):
            rng = Rng(D).derive(kind, d, pairs)
            U = rng.derive("u").normal((pairs, d))
            V = U + rng.derive("v").normal((pairs, d))
            omega = sample_frequencies(density, D, d, rng.derive("omega"))
            est = _kernel_estimate(omega, U, V)
            oracle = oneshot_kernel_estimate(omega, U, V)
            assert est.tobytes() == oracle.tobytes(), (d, pairs)
    # the error statistics are those of the one-shot estimate of the same draw
    err = np.abs(oracle - closed_form_kernel(density, U, V))
    got = rff_approx_error(density, D, U, V, rng.derive("omega"))
    assert got == (float(err.mean()), float(err.max()))


def test_approx_error_memory_is_bounded_by_the_block_not_the_pairs():
    # the one-shot map of 1000 pairs at D = 2048 peaks at about 100 MB
    rng = Rng(3)
    U = rng.derive("u").normal((1000, 3))
    V = U + rng.derive("v").normal((1000, 3))
    tracemalloc.start()
    try:
        rff_approx_error(SpectralDensity("rbf", 1.0), 2048, U, V, rng.derive("omega"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def composed_two_layer_estimate(U, V, D1, D2, rng, chunk=512):
    """Monte Carlo <psi2(psi1(u)), psi2(psi1(v))> with streamed outer frequencies."""
    density = SpectralDensity("rbf", 1.0)
    d = U.shape[1]
    om1 = sample_frequencies(density, D1, d, rng.derive("w1"))
    A = feature_map(om1, U)
    B = feature_map(om1, V)
    est = np.zeros(U.shape[0])
    done = 0
    while done < D2:
        k = min(chunk, D2 - done)
        om2 = sample_frequencies(density, k, 2 * D1, rng.derive("w2", done))
        fa = A @ om2.T
        fb = B @ om2.T
        est += np.sum(np.cos(fa - fb), axis=1)  # cos a cos b + sin a sin b
        done += k
    return est / D2


def test_composed_two_layers_match_oracle_small():
    rng = Rng(15)
    U = rng.normal((20, 3))
    V = U + rng.derive("off").normal((20, 3))
    k_inner = closed_form_kernel(SpectralDensity("rbf", 1.0), U, V)
    oracle = np.array([composed_rbf_oracle(float(k), 0.5) for k in k_inner])
    est = composed_two_layer_estimate(U, V, 2048, 2048, rng.derive("mc"))
    assert np.abs(est - oracle).max() < 0.1


def test_kpca_degenerate_identical_rows():
    feats = np.tile(Rng(16).normal((1, 8)), (6, 1))
    K = empirical_kernel(feats)
    coords = kpca_project(K, 2)
    assert np.abs(coords).max() == 0.0


def test_kpca_component_variances_nonincreasing():
    layer = init_layer(3, 32, 0.4, Rng(17))
    feats, _ = forward(layer, Rng(18).normal((25, 3)))
    coords = kpca_project(empirical_kernel(feats), 4)
    variances = coords.var(axis=0)
    assert np.all(np.diff(variances) <= 1e-12)


def test_kpca_matches_brute_force_oracle():
    S = Rng(19).normal((5, 7))
    S /= np.linalg.norm(S, axis=1, keepdims=True)
    K = empirical_kernel(S)
    coords = kpca_project(K, 3)
    # independent route: explicit centering matrix + LAPACK eigensolver
    n = 5
    J = np.eye(n) - np.ones((n, n)) / n
    Kc = J @ K @ J
    vals, vecs = np.linalg.eigh(Kc)
    order = np.argsort(vals)[::-1][:3]
    ref = vecs[:, order] * np.sqrt(np.maximum(vals[order], 0.0))
    for j in range(3):
        diff = min(np.abs(coords[:, j] - ref[:, j]).max(),
                   np.abs(coords[:, j] + ref[:, j]).max())
        assert diff < 1e-8


def test_kpca_sign_convention():
    layer = init_layer(2, 16, 0.5, Rng(20))
    feats, _ = forward(layer, Rng(21).normal((12, 2)))
    coords = kpca_project(empirical_kernel(feats), 3)
    for j in range(3):
        i = int(np.argmax(np.abs(coords[:, j])))
        assert coords[i, j] >= 0.0


def test_kpca_permutation_consistency():
    layer = init_layer(3, 16, 0.4, Rng(22))
    X = Rng(23).normal((9, 3))
    feats, _ = forward(layer, X)
    K = empirical_kernel(feats)
    perm = Rng(24).permutation(9)
    coords_a = kpca_project(K, 2)
    coords_b = kpca_project(K[np.ix_(perm, perm)], 2)
    for j in range(2):
        a = coords_a[perm, j]
        b = coords_b[:, j]
        assert min(np.abs(a - b).max(), np.abs(a + b).max()) < 1e-8


def test_omega_histogram_constant_column():
    layer = RffLayer(omega=np.full((10, 2), 3.0))
    edges, counts = omega_histogram(layer, 0, 5)
    assert counts.sum() == 10
    assert (counts > 0).sum() == 1


def test_omega_histogram_counts_sum_to_D():
    layer = init_layer(3, 257, 0.1, Rng(26))
    edges, counts = omega_histogram(layer, 1, 13)
    assert counts.sum() == 257
    assert len(edges) == 14


def test_omega_histogram_column_stddev():
    layer = init_layer(2, 10_000, 0.1, Rng(27))
    col = layer.omega[:, 0]
    assert abs(col.std() - 0.1) / 0.1 < 0.05


def test_deeper_layer_separates_classes_in_kpca():
    # the kernel-cascade claim: after training, kPCA of the layer-2 kernel pulls
    # the classes far apart while layer 1 still mixes them
    from rffnet.dataio import preprocess_pair
    from rffnet.network import build_network
    from rffnet.optimizer import TrainConfig, fit
    from rffnet.tasks import make_monks

    def fisher_ratio(coords, y):
        m0, m1 = coords[y == 0].mean(axis=0), coords[y == 1].mean(axis=0)
        within = coords[y == 0].var(axis=0).sum() + coords[y == 1].var(axis=0).sum()
        return float(np.sum((m0 - m1) ** 2) / within)

    train, _ = make_monks("monks1")
    tr, _, _ = preprocess_pair(train, None)
    net = build_network(tr.d, 2, 2, [64, 64], "squared_hinge", Rng(0).derive("init"),
                        batch_norm=True)
    log = fit(net, tr.X, tr.y, TrainConfig(epochs=600, batch_size=32, seed=0))
    assert log.records[-1].train_acc == 1.0
    ratios = [fisher_ratio(kpca_project(empirical_kernel(feats), 2), tr.y)
              for feats in layer_features(net, tr.X)]
    assert ratios[1] > 5.0 * ratios[0]


def test_kernel_csv_roundtrip():
    layer = init_layer(3, 16, 0.3, Rng(29))
    feats, _ = forward(layer, Rng(30).normal((6, 3)))
    K = empirical_kernel(feats)
    back = kernel_from_csv_text(kernel_to_csv_text(K))
    assert np.array_equal(back, K)
    assert_valid_kernel(back)
