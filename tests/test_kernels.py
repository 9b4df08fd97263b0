"""The numeric kernels: eigensolver steps and the limit-equation solve."""

import numpy as np

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


def test_tridiagonalize_variants_agree_in_process():
    # the kernels, step by step, against numpy.linalg.eigvalsh
    rng = np.random.default_rng(1)
    a = rng.standard_normal((24, 24))
    # tridiag(-1, 2, -1): constant diagonal, eigenvalues 2 - 2 cos(k pi / 25)
    lap = 2.0 * np.eye(24) - np.eye(24, k=1) - np.eye(24, k=-1)
    for m in ((a + a.T) / 2.0, lap):
        expect = np.linalg.eigvalsh(m)
        d, e = _kernels.tridiagonalize(m.copy())
        # the reduction is orthogonal, so the tridiagonal matrix keeps the
        # spectrum to rounding
        t = np.diag(d) + np.diag(e[1:], 1) + np.diag(e[1:], -1)
        np.testing.assert_allclose(np.linalg.eigvalsh(t), expect, atol=1e-12)
        eigs, status = _kernels.tridiagonal_eigenvalues(d, e, 720)
        assert status == 0
        np.testing.assert_allclose(eigs, expect, atol=1e-10)
