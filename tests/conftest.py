import numpy as np
import pytest


@pytest.fixture
def direction_computations(monkeypatch):
    """Row counts of the sphere directions computed while the test runs:
    LocalSphereModel takes one np.cos per computation."""
    computed = []
    cos = np.cos

    def counting_cos(x, *args, **kwargs):
        computed.append(len(x))
        return cos(x, *args, **kwargs)

    monkeypatch.setattr(np, "cos", counting_cos)
    return computed
