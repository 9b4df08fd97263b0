"""Hot numeric kernels.

The eigensolver kernels (tridiagonalization and tridiagonal eigenvalues)
ship in two implementations: ``*_loops`` (numba @njit scalar loops) and
``*_numpy`` (vectorized numpy).  The active pair is chosen at import:
numba when importable, unless the environment variable
GRAMSPEC_DISABLE_NUMBA is set to a non-empty value other than "0".
benchmarks/bench_kernels.py times both.  The limiting-equation solve,
``fixed_point``, is a safeguarded Newton iteration with a single numpy
implementation.
"""

from __future__ import annotations

import math
import os

import numpy as np

_EPS = float(np.finfo(np.float64).eps)

_disable = os.environ.get("GRAMSPEC_DISABLE_NUMBA", "").strip()
_want_numba = _disable in ("", "0")

try:
    if not _want_numba:
        raise ImportError("numba disabled by GRAMSPEC_DISABLE_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:

    def njit(*args, **kwargs):  # no-op decorator so the loop code stays importable
        if args and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn

        return deco

    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA


def backend_name() -> str:
    return "numba" if USE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# Householder tridiagonalization (eigenvalues only, lower triangle).

@njit(cache=True, nogil=True)
def _tred_loops(a, d, e):
    n = a.shape[0]
    for i in range(n - 1, 0, -1):
        l = i - 1
        if l > 0:
            scale = 0.0
            for k in range(i):
                scale += abs(a[i, k])
            if scale == 0.0:
                e[i] = a[i, l]
            else:
                h = 0.0
                for k in range(i):
                    a[i, k] /= scale
                    h += a[i, k] * a[i, k]
                f = a[i, l]
                g = -math.sqrt(h) if f >= 0.0 else math.sqrt(h)
                e[i] = scale * g
                h -= f * g
                a[i, l] = f - g
                f = 0.0
                for j in range(i):
                    g = 0.0
                    for k in range(j + 1):
                        g += a[j, k] * a[i, k]
                    for k in range(j + 1, i):
                        g += a[k, j] * a[i, k]
                    e[j] = g / h
                    f += e[j] * a[i, j]
                hh = f / (h + h)
                for j in range(i):
                    ff = a[i, j]
                    gg = e[j] - hh * ff
                    e[j] = gg
                    for k in range(j + 1):
                        a[j, k] -= ff * e[k] + gg * a[i, k]
        else:
            e[i] = a[i, l]
    e[0] = 0.0
    for i in range(n):
        d[i] = a[i, i]


def tridiagonalize_loops(a: np.ndarray):
    a = np.array(a, dtype=np.float64, order="C")
    n = a.shape[0]
    d = np.empty(n)
    e = np.zeros(n)
    if n > 1:
        _tred_loops(a, d, e)
    else:
        d[0] = a[0, 0]
    return d, e


def tridiagonalize_numpy(a: np.ndarray):
    a = np.array(a, dtype=np.float64, order="C")
    n = a.shape[0]
    e = np.zeros(n)
    # rows v and q of the rank-2 update a -= q v^T + v q^T, done as one
    # (i x 2) @ (2 x i) product
    vq = np.empty((2, n))
    for i in range(n - 1, 0, -1):
        if i == 1:
            e[1] = a[1, 0]
            continue
        v = vq[0, :i]
        v[:] = a[i, :i]
        scale = float(np.sum(np.abs(v)))
        if scale == 0.0:
            e[i] = a[i, i - 1]
            continue
        v /= scale
        h = float(v @ v)
        f = v[-1]
        g = -math.sqrt(h) if f >= 0.0 else math.sqrt(h)
        e[i] = scale * g
        h -= f * g
        v[-1] = f - g
        blk = a[:i, :i]
        p = (blk @ v) / h
        kk = float(p @ v) / (2.0 * h)
        np.subtract(p, kk * v, out=vq[1, :i])
        blk -= vq[::-1, :i].T @ vq[:, :i]
    d = np.diag(a).copy()
    if n == 1:
        d[0] = a[0, 0]
    return d, e


# ---------------------------------------------------------------------------
# Tridiagonal eigenvalues: implicit-shift QL (loops) / Sturm bisection (numpy).
# Input convention: e[i] couples rows i-1 and i (e[0] unused).

@njit(cache=True, nogil=True)
def _tql_loops(d, e, cap):
    n = d.shape[0]
    for i in range(1, n):
        e[i - 1] = e[i]
    e[n - 1] = 0.0
    total = 0
    for l in range(n):
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd:
                    break
                m += 1
            if m == l:
                break
            total += 1
            if total > cap:
                return l + 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            sr = r if g >= 0.0 else -r
            g = d[m] - d[l] + e[l] / (g + sr)
            s = 1.0
            c = 1.0
            p = 0.0
            broke = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    broke = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            if broke:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    return 0


def tridiagonal_eigenvalues_loops(d: np.ndarray, e: np.ndarray, cap: int):
    d = np.array(d, dtype=np.float64)
    e = np.array(e, dtype=np.float64)
    status = 0
    if d.size > 1:
        status = _tql_loops(d, e, cap)
    return np.sort(d), int(status)


def _sturm_counts(d, b2, x, pivmin):
    # of eigenvalues below each entry of x, by the signs of the LDL^T pivots
    # of T - xI.  As in LAPACK dlaebz, every pivot within pivmin of zero
    # (the first and last included) is replaced by -pivmin before it is
    # counted, so it counts as negative and the next division stays finite.
    dx = d[:, None] - x
    cnt = np.zeros(x.shape, dtype=np.int64)
    q = dx[0]
    for i in range(d.size):
        if i:
            q = dx[i] - b2[i - 1] / q
        q[np.abs(q) < pivmin] = -pivmin
        cnt += q < 0.0
    return cnt


def tridiagonal_eigenvalues_numpy(d: np.ndarray, e: np.ndarray, cap: int):
    d = np.asarray(d, dtype=np.float64)
    n = d.size
    if n == 1:
        return d.copy(), 0
    b = np.asarray(e, dtype=np.float64)[1:]
    b2 = b * b
    pad = np.concatenate([[0.0], np.abs(b), [0.0]])
    radius = pad[:-1] + pad[1:]
    lo = np.full(n, float(np.min(d - radius)))
    hi = np.full(n, float(np.max(d + radius)))
    pivmin = max(1e-300, _EPS * _EPS * float(np.max(b2, initial=0.0)))
    # every sweep halves every interval; stop once they are at the working
    # precision of the Gershgorin bounds, as LAPACK dstebz does
    width_tol = _EPS * max(abs(lo[0]), abs(hi[0]))
    ks = np.arange(n)
    for _ in range(75):
        if hi[0] - lo[0] <= width_tol:
            break
        mid = 0.5 * (lo + hi)
        above = _sturm_counts(d, b2, mid, pivmin) <= ks
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return np.sort(0.5 * (lo + hi)), 0


# ---------------------------------------------------------------------------
# Safeguarded Newton solve of the limiting equation.
# g holds the reciprocal transformed-density values at quadrature nodes,
# w the (aspect-ratio-folded) weights; the equation reads
#   z = -1/s + sum_q w_q / (s + g_q).
# Status codes: 0 converged, 1 max_iter exhausted, 2 Herglotz loss.

def fixed_point(z, g, w, s0, tol, max_iter):
    """Solve s = T(s), T(s) = -1/(z - sum w/(s + g)), from s0 in C+.

    Newton runs on F(s) = s - T(s) rather than on the residual: T maps the
    upper half-plane into itself, so the half step s - F/2 (the average of
    s and T(s)) never leaves it.  A Newton step is kept only if it stays in
    C+ and shrinks |F|; otherwise the half step is taken.  The iteration
    stops once the residual |z + 1/s - sum w/(s + g)| is at most tol.  Near
    a hard edge that residual is small against the error in s, so the
    Newton step computed at the stopping iterate is still kept when it
    shrinks |F|.  Returns (s, residual, iterations, status).
    """
    z = complex(z)
    g = np.asarray(g, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    s = complex(s0)
    u = 1.0 / (s + g)
    acc = complex(w @ u)
    for it in range(int(max_iter)):
        resid = abs(z + 1.0 / s - acc)
        t = -1.0 / (z - acc)
        f = s - t
        dfds = 1.0 - complex(w @ (u * u)) * t * t
        s_new = s - f / dfds if dfds != 0.0 else s
        newton = s_new.imag > 1e-14 and math.isfinite(abs(s_new))
        if newton:
            u_new = 1.0 / (s_new + g)
            acc_new = complex(w @ u_new)
            newton = abs(s_new + 1.0 / (z - acc_new)) < abs(f)
        if resid <= tol:
            if newton:
                resid_new = abs(z + 1.0 / s_new - acc_new)
                if resid_new <= resid:
                    return s_new, resid_new, it + 1, 0
            return s, resid, it, 0
        if newton:
            s, u, acc = s_new, u_new, acc_new
            continue
        s = s - 0.5 * f
        if s.imag <= 1e-14:
            return s, resid, it, 2
        u = 1.0 / (s + g)
        acc = complex(w @ u)
    return s, abs(z + 1.0 / s - acc), int(max_iter), 1


# ---------------------------------------------------------------------------
# Dispatch.

if USE_NUMBA:
    tridiagonalize = tridiagonalize_loops
    tridiagonal_eigenvalues = tridiagonal_eigenvalues_loops
else:
    tridiagonalize = tridiagonalize_numpy
    tridiagonal_eigenvalues = tridiagonal_eigenvalues_numpy


def warm_up():
    """Trigger jit compilation on tiny inputs (no-op on the numpy path)."""
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    d, e = tridiagonalize(a)
    tridiagonal_eigenvalues(d, e, 60)
    fixed_point(1j, np.array([1.0]), np.array([0.5]), 1j, 1e-10, 50)
