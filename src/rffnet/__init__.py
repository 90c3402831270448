"""Deep kernel learning with stacked trainable random Fourier feature layers."""

from .dataio import Dataset, load_csv, load_libsvm, preprocess_pair, split
from .errors import DataError, NumericError, ParameterError, RffnetError
from .kernel_analysis import (
    SpectralDensity,
    empirical_kernel,
    kpca_project,
    omega_histogram,
    rff_approx_error,
    sample_frequencies,
)
from .network import (
    Network,
    accuracy,
    build_network,
    compute_loss,
    backward_full,
    default_layer_count,
    forward_full,
    load_network,
    loss_gradient,
    predict,
    save_network,
)
from .numerics import Rng, sym_eig_topk
from .optimizer import adam_step, fit
from .rff_layer import BatchNormState, RffLayer, backward, forward, init_layer

__version__ = "0.1.0"
