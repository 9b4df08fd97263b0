"""Hot numeric kernels.

One implementation of each, at every input size: Householder
tridiagonalization in numpy (the rank-2 updates of each panel of 32
columns applied as one product, those of the last 32 columns one at a
time), root-free implicit-shift QL for the eigenvalues of the tridiagonal
matrix (a plain Python loop on Python floats), and ``fixed_point``, the
safeguarded Newton iteration that solves the limiting equation.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = float(np.finfo(np.float64).eps)


def backend_name() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# Householder tridiagonalization (eigenvalues only), blocked by panels.

# Panel width: reflectors whose rank-2 updates are deferred and applied to the
# trailing block as one product.
_NB = 32


def tridiagonalize(a: np.ndarray):
    """Diagonal d and off-diagonal e (e[i] couples rows i-1 and i) of a
    tridiagonal matrix orthogonally similar to the symmetric matrix a.

    Rows are reduced from the last up, as in EISPACK tred1, with the
    updates deferred over panels of _NB reflectors as in LAPACK
    dsytrd/dlatrd.  Row i's Householder vector u and the vector q of its
    update a -= q u^T + u q^T are kept in the store s: the j-th pair of a
    panel puts u in row _NB-1-j and q in row _NB+j.  With k pairs stored,
    w = s[_NB-k:_NB+k] pairs each u with its q in w[::-1], so the pending
    update is w[::-1].T @ w.  A row is brought up to date by one small
    product against w before its reflector is built, and the product of
    the stale trailing block with u is corrected by w the same way.  After
    _NB pairs, or at once when the trailing block has order at most _NB,
    the pending update goes into the trailing block as one product.  The
    input is not modified.
    """
    a = np.array(a, dtype=np.float64, order="C")
    n = a.shape[0]
    e = np.zeros(n)
    s = np.empty((2 * _NB, n))
    k = 0
    for i in range(n - 1, 1, -1):
        if k:  # bring row i up to date
            w = s[_NB - k:_NB + k]
            a[i, :i + 1] -= w[::-1, i] @ w[:, :i + 1]
        v = s[_NB - 1 - k, :i]
        v[:] = a[i, :i]
        scale = float(np.sum(np.abs(v)))
        blk = a[:i, :i]
        if scale == 0.0:
            e[i] = a[i, i - 1]
        else:
            v /= scale
            h = float(v @ v)
            f = v[-1]
            g = -math.sqrt(h) if f >= 0.0 else math.sqrt(h)
            e[i] = scale * g
            h -= f * g
            v[-1] = f - g
            p = blk @ v
            if k:
                w = s[_NB - k:_NB + k, :i]
                p -= (w @ v)[::-1] @ w
            p /= h
            kk = float(p @ v) / (2.0 * h)
            np.subtract(p, kk * v, out=s[_NB + k, :i])
            k += 1
        if k == _NB or (k and i <= _NB):
            w = s[_NB - k:_NB + k, :i]
            blk -= w[::-1].T @ w
            k = 0
    if n > 1:
        e[1] = a[1, 0]
    return np.diag(a).copy(), e


# ---------------------------------------------------------------------------
# Tridiagonal eigenvalues by root-free implicit-shift QL.
# Input convention: e[i] couples rows i-1 and i (e[0] unused).

def tridiagonal_eigenvalues(d, e, cap: int):
    """Eigenvalues of the symmetric tridiagonal matrix (d, e), sorted.

    Implicit-shift QL in the root-free form of Pal, Walker and Kahan
    (LAPACK dsterf): it runs on the squared off-diagonals, so a rotation
    needs no square root.  The shift is the eigenvalue of the leading 2x2
    block nearer d[l]; row l deflates once e[l]^2 <= eps^2 (|d[l]| +
    |d[l+1]|)^2, the test of EISPACK tql1.  The matrix is first scaled by a
    power of two to unit size, exactly, so no square overflows and only
    entries far below eps times the norm can underflow.  The loop runs on
    Python floats, where indexing costs far less than on numpy scalars.  Returns (eigenvalues, status): status is
    0, or k + 1 when the total sweep count exceeded cap while eigenvalue k
    was being deflated.
    """
    d = np.asarray(d, dtype=np.float64)
    b = np.asarray(e, dtype=np.float64)[1:]
    top = max(float(np.max(np.abs(d))), float(np.max(np.abs(b), initial=0.0)))
    scale_exp = math.frexp(top)[1]
    d = np.ldexp(d, -scale_exp).tolist()
    b = np.ldexp(b, -scale_exp)
    e2 = (b * b).tolist() + [0.0]
    n = len(d)
    eps2 = _EPS * _EPS
    total = 0
    for l in range(n):
        while True:
            m = l
            while m < n - 1:
                t = abs(d[m]) + abs(d[m + 1])
                if e2[m] <= eps2 * t * t:
                    break
                m += 1
            if m == l:
                break
            total += 1
            if total > cap:
                return np.ldexp(np.sort(d), scale_exp), l + 1
            e2[m] = 0.0
            rte = math.sqrt(e2[l])
            sigma = (d[l + 1] - d[l]) / (2.0 * rte)
            r = math.hypot(sigma, 1.0)
            sigma = d[l] - rte / (sigma + (r if sigma >= 0.0 else -r))
            c = 1.0
            s = 0.0  # so the first rotation writes e2[m] = 0 back
            gamma = d[m] - sigma
            p = gamma * gamma
            for i in range(m - 1, l - 1, -1):
                bb = e2[i]
                r = p + bb
                e2[i + 1] = s * r
                oldc = c
                c = p / r
                s = bb / r
                oldgam = gamma
                alpha = d[i]
                gamma = c * (alpha - sigma) - s * oldgam
                d[i + 1] = oldgam + (alpha - gamma)
                p = gamma * gamma / c if c != 0.0 else oldc * bb
            e2[l] = s * p
            d[l] = sigma + gamma
    return np.ldexp(np.sort(d), scale_exp), 0


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


def warm_up():
    """Run every kernel once on tiny inputs, so that first-call costs fall
    outside timed work."""
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    d, e = tridiagonalize(a)
    tridiagonal_eigenvalues(d, e, 60)
    fixed_point(1j, np.array([1.0]), np.array([0.5]), 1j, 1e-10, 50)
