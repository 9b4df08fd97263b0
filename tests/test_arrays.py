"""Sorted-array stand-ins for np.quantile and np.unique."""

import numpy as np
import pytest

from gramspec import _arrays

# the quantiles the package takes: solver probe points, the default x grid
# and the toeplitz plotting window
CALL_SITE_QS = [0.05, 0.25, 0.5, 0.75, 0.95, 1.0 - 3e-4, 1.0 - 1e-4]


@pytest.mark.parametrize("n", [5, 100, 16385])
def test_quantiles_equal_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    samples = [rng.standard_normal(n), np.exp(3.0 * rng.standard_normal(n)),
               np.round(rng.uniform(0.0, 4.0, n), 1),  # ties
               np.linspace(0.0, 1.0, n)]
    for v in samples:
        got = _arrays.quantiles(v, CALL_SITE_QS)
        assert got.tobytes() == np.quantile(v, CALL_SITE_QS).tobytes()
        for q in CALL_SITE_QS + [0.0, 1.0]:
            assert float(_arrays.quantiles(v, q)) == float(np.quantile(v, q))


def test_unique_equals_numpy():
    rng = np.random.default_rng(3)
    v = np.round(rng.uniform(-2.0, 2.0, 500), 2)
    assert _arrays.unique(v).tobytes() == np.unique(v).tobytes()
    assert _arrays.unique(np.array([1.0])).tolist() == [1.0]
    assert _arrays.unique(np.empty(0)).size == 0
