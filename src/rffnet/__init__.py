"""Deep kernel learning with stacked trainable random Fourier feature layers."""

# Code imports the submodules, never a name from here. This one binding remains only because
# perfbench's install self-test checks that the package namespace is a binding site of forward_full.
from .network import forward_full

__version__ = "0.1.0"
