import numpy as np
import pytest
from oracles import composed_rbf_oracle

from rffnet.errors import ParameterError


def test_composed_oracle_values():
    assert composed_rbf_oracle(1.0, 0.5) == 1.0
    assert composed_rbf_oracle(1.0, 3.0) == 1.0
    assert abs(composed_rbf_oracle(0.0, 0.5) - np.exp(-1.0)) < 1e-15


def test_composed_oracle_validation():
    with pytest.raises(ParameterError):
        composed_rbf_oracle(1.5, 0.5)
    with pytest.raises(ParameterError):
        composed_rbf_oracle(0.5, 0.0)
