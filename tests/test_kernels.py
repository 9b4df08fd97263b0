"""Jit-compiled kernels versus the pure-numpy fallback path."""

import json
import os
import subprocess
import sys

import numpy as np

import gramspec
from gramspec import _kernels


def test_backend_reports_a_known_name():
    assert gramspec.backend_name() in ("numba", "numpy")


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
    # the scalar loops and the numpy fallback are named explicitly: without
    # numba the dispatching kernels *are* the numpy ones, and the loops run
    # as plain Python (fast enough at this order)
    rng = np.random.default_rng(1)
    a = rng.standard_normal((24, 24))
    # tridiag(-1, 2, -1): constant diagonal at the middle of its Gershgorin
    # interval, so bisection midpoints land exactly on diagonal entries
    lap = 2.0 * np.eye(24) - np.eye(24, k=1) - np.eye(24, k=-1)
    for m in ((a + a.T) / 2.0, lap):
        d1, e1 = _kernels.tridiagonalize_loops(m.copy())
        d2, e2 = _kernels.tridiagonalize_numpy(m.copy())
        # Householder sign choices are deterministic, so the tridiagonal
        # data must match to rounding
        np.testing.assert_allclose(d1, d2, atol=1e-12)
        np.testing.assert_allclose(np.abs(e1), np.abs(e2), atol=1e-12)
        eig1, st1 = _kernels.tridiagonal_eigenvalues_loops(d1.copy(),
                                                           e1.copy(), 720)
        eig2, st2 = _kernels.tridiagonal_eigenvalues_numpy(d2.copy(),
                                                           e2.copy(), 720)
        assert st1 == st2 == 0
        np.testing.assert_allclose(np.sort(eig1), np.sort(eig2), atol=1e-10)


def test_numba_disabled_subprocess_matches():
    """GRAMSPEC_DISABLE_NUMBA=1 must select the numpy backend and agree with
    the in-process result on a full solve."""
    f = gramspec.constant_density(1.0)
    here = gramspec.solve_limit_density(f, 0.5, 1.0 + 0.1j)
    script = (
        "import json, gramspec\n"
        "pt = gramspec.solve_limit_density("
        "gramspec.constant_density(1.0), 0.5, 1.0 + 0.1j)\n"
        "print(json.dumps({'backend': gramspec.backend_name(),"
        " 're': pt.s_under.real, 'im': pt.s_under.imag}))\n"
    )
    env = dict(os.environ, GRAMSPEC_DISABLE_NUMBA="1")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout.strip().splitlines()[-1])
    assert payload["backend"] == "numpy"
    assert abs(complex(payload["re"], payload["im"]) - here.s_under) < 1e-10
