"""The numeric kernels: eigensolver steps and the limit-equation solve."""

import numpy as np
import pytest

import gramspec
from gramspec import _kernels


def test_backend_reports_a_known_name():
    assert gramspec.backend_name() == "numpy"


def test_warm_up_is_idempotent():
    gramspec.warm_up()
    gramspec.warm_up()


def test_fixed_point_status_codes():
    # 0 once the residual meets tol, 1 when the iteration budget runs out
    rng = np.random.default_rng(0)
    g = np.sort(rng.uniform(0.1, 5.0, 64))
    w = rng.uniform(0.005, 0.02, 64)  # pre-scaled kernel weights
    z = complex(1.2, 0.3)
    s0 = complex(0.0, 1.0)
    s, resid, iters, status = _kernels.fixed_point(z, g, w, s0, 1e-12, 10_000)
    assert status == 0 and resid <= 1e-12 and 0 < iters < 100
    assert abs(z + 1.0 / s - np.sum(w / (s + g))) <= 1e-12
    _, resid, iters, status = _kernels.fixed_point(z, g, w, s0, 1e-12, 1)
    assert status == 1 and iters == 1 and resid > 1e-12


def _random_symmetric(seed: int, n: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((n, n))
    return (a + a.T) / 2.0


def _block_diagonal(*blocks) -> np.ndarray:
    # no reflector of a later block reaches an earlier one, so the first
    # row of each block but the first is exactly zero left of the diagonal
    # when its turn comes, with the later block's updates still pending
    n = sum(b.shape[0] for b in blocks)
    a = np.zeros((n, n))
    lo = 0
    for b in blocks:
        a[lo:lo + b.shape[0], lo:lo + b.shape[0]] = b
        lo += b.shape[0]
    return a


def _low_rank(n: int, r: int) -> np.ndarray:
    b = np.random.default_rng(4).standard_normal((n, r))
    return b @ b.T  # n - r exact zero eigenvalues


_TRIDIAGONALIZE_CASES = {
    "random-24": lambda: _random_symmetric(1, 24),
    # tridiag(-1, 2, -1): constant diagonal, eigenvalues 2 - 2 cos(k pi / 25)
    "laplacian-24": lambda: (2.0 * np.eye(24) - np.eye(24, k=1)
                             - np.eye(24, k=-1)),
    # orders around the panel width and over several panels
    **{f"random-{n}": (lambda n=n: _random_symmetric(n, n))
       for n in (31, 32, 33, 65, 100, 300)},
    # a zero row and column between two blocks
    "zero-row-in-panel": lambda: _block_diagonal(
        _random_symmetric(2, 50), np.zeros((1, 1)), _random_symmetric(3, 49)),
    "block-diagonal": lambda: _block_diagonal(
        _random_symmetric(4, 40), _random_symmetric(5, 25),
        _random_symmetric(6, 35)),
    "low-rank-100x20": lambda: _low_rank(100, 20),
    "scaled-1e200": lambda: 1e200 * _random_symmetric(5, 80),
    "scaled-1e-200": lambda: 1e-200 * _random_symmetric(5, 80),
}


@pytest.mark.parametrize("case", list(_TRIDIAGONALIZE_CASES))
def test_tridiagonalize_keeps_the_spectrum(case):
    # the kernels, step by step, against numpy.linalg.eigvalsh
    m = _TRIDIAGONALIZE_CASES[case]()
    before = m.copy()
    expect = np.linalg.eigvalsh(m)
    atol = 1e-13 * float(np.max(np.abs(expect)))
    d, e = _kernels.tridiagonalize(m)
    np.testing.assert_array_equal(m, before)
    # the reduction is orthogonal, so the tridiagonal matrix keeps the
    # spectrum to rounding
    t = np.diag(d) + np.diag(e[1:], 1) + np.diag(e[1:], -1)
    np.testing.assert_allclose(np.linalg.eigvalsh(t), expect, rtol=0.0,
                               atol=atol)
    eigs, status = _kernels.tridiagonal_eigenvalues(d, e, 30 * m.shape[0])
    assert status == 0
    np.testing.assert_allclose(eigs, expect, rtol=0.0, atol=atol)
