"""Hot numeric kernels.

Householder tridiagonalization in numpy (the rank-2 updates of each panel
of 32 columns applied as one product, those of the last 32 columns one at
a time), on a copy scaled once by an exact power of two where EISPACK
tred1 rescales every row, with rows whose h = v.v falls below 2^-1000
taken as already reduced; the eigenvalues of the tridiagonal matrix, by
root-free implicit-shift QL (a plain Python loop on Python floats) up to
order 200, where it is the faster of the two, and by divide and conquer
above, whose merges solve all their secular equation roots at once in
numpy; the trace of the tridiagonal resolvent, ``resolvent_trace``, by
pivots in O(n); and ``fixed_point``, the safeguarded Newton iteration
that solves the limiting equation.  The eigenvalue routines raise
EigenNonConvergence themselves when an iteration hits its cap.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EigenNonConvergence

_EPS = float(np.finfo(np.float64).eps)


def backend_name() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# Householder tridiagonalization (eigenvalues only), blocked by panels.

# Panel width: reflectors whose rank-2 updates are deferred and applied to the
# trailing block as one product.
_NB = 32
# A row of the scaled matrix whose h = v.v is below this counts as already
# reduced.
_H_MIN = 2.0 ** -1000


def _exponent(top: float) -> int:
    """The k for which 2^-k top lies in [0.5, 1); 0 for top = 0."""
    return math.frexp(top)[1]


def tridiagonalize(a: np.ndarray):
    """Diagonal d and off-diagonal e (e[i] couples rows i-1 and i) of a
    tridiagonal matrix orthogonally similar to the symmetric matrix a.

    The working copy is first scaled, exactly, by the power of two 2^-k
    that brings max |a_ij| into [0.5, 1) (the exponent rule of
    _unit_scaled), and d and e are scaled back by 2^k at the end.  This
    one scaling replaces EISPACK tred1's l1 rescale of every row: no
    h = v.v of a Householder vector v can overflow, and, while no entry is
    denormal, 2^j a gives 2^j times the bytes of a.  A row with
    h < 2^-1000 counts as already reduced (e[i] = a[i, i-1]): the entries
    left of its subdiagonal, each below 2^-500, that is below
    2^-499 max |a_ij| in the input's units, are dropped, because an h in
    the denormal range would make the rank-2 update wrong by O(|a|).

    Rows are reduced from the last up, as in EISPACK tred1, with the
    updates deferred over panels of _NB reflectors as in LAPACK
    dsytrd/dlatrd.  Row i's Householder vector u and the vector q of its
    update a -= q u^T + u q^T are kept in the store s: the j-th pair of a
    panel puts u in row _NB-1-j and q in row _NB+j.  With k pairs stored,
    w = s[_NB-k:_NB+k] pairs each u with its q in w[::-1], so the pending
    update is w[::-1].T @ w.  A row is brought up to date by one small
    product against w before its reflector is built, and the product of
    the stale trailing block with u is corrected by w the same way; the
    reversed vector of each such product is copied first, because numpy
    runs a product with a negative-stride operand outside BLAS.  After
    _NB pairs, or at once when the trailing block has order at most _NB,
    the pending update goes into the trailing block as one product.  The
    input is not modified.
    """
    a = np.array(a, dtype=np.float64, order="C")
    n = a.shape[0]
    scale_exp = _exponent(float(np.max(np.abs(a), initial=0.0)))
    np.ldexp(a, -scale_exp, out=a)
    e = np.zeros(n)
    s = np.empty((2 * _NB, n))
    k = 0
    for i in range(n - 1, 1, -1):
        if k:  # bring row i up to date
            w = s[_NB - k:_NB + k]
            a[i, :i + 1] -= w[::-1, i].copy() @ w[:, :i + 1]
        v = s[_NB - 1 - k, :i]
        v[:] = a[i, :i]
        h = float(v @ v)
        blk = a[:i, :i]
        if h < _H_MIN:
            e[i] = a[i, i - 1]
        else:
            f = float(v[-1])
            g = -math.sqrt(h) if f >= 0.0 else math.sqrt(h)
            e[i] = g
            h -= f * g
            v[-1] = f - g
            p = blk @ v
            if k:
                w = s[_NB - k:_NB + k, :i]
                p -= (w @ v)[::-1].copy() @ w
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
    return np.ldexp(np.diag(a), scale_exp), np.ldexp(e, scale_exp)


# ---------------------------------------------------------------------------
# Tridiagonal eigenvalues: root-free implicit-shift QL up to order _QL_MAX,
# divide and conquer above.
# Input convention: e[i] couples rows i-1 and i (e[0] unused).

# Largest order solved by QL: the crossover below which the QL loop beats the
# divide and conquer.
_QL_MAX = 200
# Leaf size of the divide and conquer, whose leaves run QL.
_LEAF = 32
# Secular roots solved together: bounds the (order x _CHUNK) work arrays.
_CHUNK = 128
# Iteration cap of one secular root, as in LAPACK dlaed4.
_SECULAR_MAXIT = 30
# QL sweeps allowed per row of the matrix: an order-n matrix, or the leaves
# of its divide and conquer together, get _SWEEPS_PER_ROW * n.
_SWEEPS_PER_ROW = 30


def _unit_scaled(d, e, z: complex = 0.0):
    """The diagonal d and the off-diagonals e[1:] scaled, exactly, by the
    power of two 2^-k that brings the largest of their magnitudes and |z|
    to unit size, so no square overflows and only entries far below eps
    times that size can underflow; returns (d, e[1:], k)."""
    d = np.asarray(d, dtype=np.float64)
    b = np.asarray(e, dtype=np.float64)[1:]
    top = max(float(np.max(np.abs(d))), float(np.max(np.abs(b), initial=0.0)),
              abs(z))
    k = _exponent(top)
    return np.ldexp(d, -k), np.ldexp(b, -k), k


def _sweep_cap(index: int) -> EigenNonConvergence:
    return EigenNonConvergence(
        f"implicit-shift QL exceeded the sweep cap of {_SWEEPS_PER_ROW} "
        f"sweeps per row while deflating eigenvalue index {index}", index)


def tridiagonal_eigenvalues(d, e) -> np.ndarray:
    """Eigenvalues of the symmetric tridiagonal matrix (d, e), sorted.

    The matrix is first scaled to unit size by _unit_scaled.  Up to order
    _QL_MAX the eigenvalues come from implicit-shift QL in the root-free
    form of Pal, Walker and Kahan (LAPACK dsterf): it runs on the squared
    off-diagonals, so a rotation needs no square root.
    The shift is the eigenvalue of the leading 2x2 block nearer d[l]; row l
    deflates once e[l]^2 <= eps^2 (|d[l]| + |d[l+1]|)^2, the test of
    EISPACK tql1.  The loop runs on Python floats, where indexing costs far
    less than on numpy scalars.  Larger orders go to the divide and conquer
    of _divide, whose leaves share one budget of sweeps.

    Raises EigenNonConvergence when the sweeps exceed _SWEEPS_PER_ROW * n,
    with the index k of the row whose eigenvalue was being deflated, or
    when a secular root of the divide and conquer does not converge in
    _SECULAR_MAXIT iterations, with k = lo + i for root i of the merge of
    the rows from lo on.
    """
    d, b, scale_exp = _unit_scaled(d, e)
    n = d.size
    cap = _SWEEPS_PER_ROW * n
    if n > _QL_MAX:
        # the signs of the off-diagonals do not change the spectrum
        eigs = _divide(d, np.abs(b), 0, [cap], rows=False)[0]
        return np.ldexp(eigs, scale_exp)
    d = d.tolist()
    e2 = (b * b).tolist() + [0.0]
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
                raise _sweep_cap(l)
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
    return np.ldexp(np.sort(d), scale_exp)


def resolvent_trace(d, e, z: complex) -> complex:
    """Tr (T - zI)^{-1} = sum_i 1/(lambda_i - z) of the symmetric
    tridiagonal matrix T = (d, e), for Im z != 0, in O(n).

    T and z are first scaled to unit size by _unit_scaled.
    With u_i = d_i - z, the forward pivots f_0 = u_0,
    f_i = u_i - e_i^2 / f_{i-1} of the LDL^T factorization of T - zI and
    the backward ones g_{n-1} = u_{n-1}, g_i = u_i - e_{i+1}^2 / g_{i+1} of
    its UDU^T one give every diagonal entry of the inverse,
    1 / (u_i - e_i^2 / f_{i-1} - e_{i+1}^2 / g_{i+1}) (Golub and Meurant,
    Matrices, Moments and Quadrature, 2010, ch. 3).  Subtracting
    e^2 / f moves Im f further from zero on the side of -Im z, so every
    pivot and every denominator has |Im| >= |Im z|: none can vanish.  The
    loops run on Python complex floats.
    """
    z = complex(z)
    d, b, scale_exp = _unit_scaled(d, e, z)
    zs = complex(math.ldexp(z.real, -scale_exp),
                 math.ldexp(z.imag, -scale_exp))
    u = [x - zs for x in d.tolist()]
    e2 = (b * b).tolist()
    n = len(u)
    down = [0.0j] * n  # down[i] = e_i^2 / f_{i-1}
    f = u[0]
    for i in range(1, n):
        down[i] = e2[i - 1] / f
        f = u[i] - down[i]
    up = 0.0j  # e_{i+1}^2 / g_{i+1}
    total = 0.0j
    for i in range(n - 1, -1, -1):
        total += 1.0 / (u[i] - down[i] - up)
        up = e2[i - 1] / (u[i] - up) if i else 0.0j
    return complex(math.ldexp(total.real, -scale_exp),
                   math.ldexp(total.imag, -scale_exp))


def _divide(d, b, lo: int, budget: list, rows: bool = True):
    """Sorted eigenvalues of the tridiagonal matrix (d, b), b[i] >= 0
    coupling rows i and i+1, and the first and last rows of its eigenvector
    matrix, in the same order, as a (2, n) array; (0, n) unless rows.

    Cuppen's divide and conquer: with beta = b[m-1] at the middle row m,
    the matrix is diag(T1, T2) + beta v v^T, v the sum of the unit vectors
    m-1 and m, where T1 and T2 are its leading and trailing blocks with
    beta taken off their facing corners.  If T1 = Q1 D1 Q1^T and
    T2 = Q2 D2 Q2^T, the matrix is similar to D + 2 beta z z^T,
    D = diag(D1, D2), z = (last row of Q1, first row of Q2) / sqrt(2),
    which _merge solves; it needs no more of Q1 and Q2 than those rows.
    lo is the first row's index in the whole matrix, budget[0] the QL
    sweeps left to the leaves.
    """
    n = d.size
    if n <= _LEAF:
        return _leaf(d, b, lo, budget)
    m = n // 2
    beta = float(b[m - 1])
    d = d.copy()
    d[m - 1] -= beta
    d[m] -= beta
    lam1, rows1 = _divide(d[:m], b[:m - 1], lo, budget)
    lam2, rows2 = _divide(d[m:], b[m:], lo + m, budget)
    # the first row of diag(Q1, Q2) is (first row of Q1, 0), the last one
    # (0, last row of Q2)
    outer = np.zeros((2 if rows else 0, n))
    if rows:
        outer[0, :m] = rows1[0]
        outer[1, m:] = rows2[1]
    return _merge(np.concatenate([lam1, lam2]),
                  np.concatenate([rows1[1], rows2[0]]) * math.sqrt(0.5),
                  2.0 * beta, outer, lo)


def _leaf(d, b, lo: int, budget: list):
    """_divide's result for a leaf, by implicit-shift QL in the explicit
    form of EISPACK tql2 on Python floats, with the rotations applied to
    the first and last rows of the eigenvector matrix only.  Row l
    deflates once |b[l]| <= eps (|d[l]| + |d[l+1]|), the test of the
    root-free loop."""
    n = d.size
    d = d.tolist()
    e = b.tolist() + [0.0]
    first = [0.0] * n
    last = [0.0] * n
    first[0] = last[-1] = 1.0
    for l in range(n):
        while True:
            m = l
            while m < n - 1:
                if abs(e[m]) <= _EPS * (abs(d[m]) + abs(d[m + 1])):
                    break
                m += 1
            if m == l:
                break
            budget[0] -= 1
            if budget[0] < 0:
                raise _sweep_cap(lo + l)
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + (r if g >= 0.0 else -r))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                ei = e[i]
                f = s * ei
                bb = c * ei
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # f and g underflowed: restart the sweep
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * bb
                p = s * r
                d[i + 1] = g + p
                g = c * r - bb
                x = first[i]
                y = first[i + 1]
                first[i] = c * x - s * y
                first[i + 1] = s * x + c * y
                x = last[i]
                y = last[i + 1]
                last[i] = c * x - s * y
                last[i + 1] = s * x + c * y
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    order = np.argsort(d, kind="stable")
    return np.array(d)[order], np.array([first, last])[:, order]


def _merge(d, z, rho: float, rows, lo: int):
    """Eigenvalues of D + rho z z^T, D = diag(d), rho >= 0, |z| <= 1, sorted,
    and rows times its eigenvector matrix, in the same order.

    Deflation follows LAPACK dlaed2, with tol = 8 eps max(|d|, |z|): a pole
    with rho |z_j| <= tol is an eigenvalue as it stands, and of two
    neighbouring poles whose Givens rotation would zero one z entry at a
    cost |t c s| <= tol (t their distance, c and s the rotation) one is.
    The rest go to _secular.
    """
    order = np.argsort(d, kind="stable")
    d, z, rows = d[order], z[order], rows[:, order]
    tol = 8.0 * _EPS * max(float(np.max(np.abs(d))), float(np.max(np.abs(z))))
    keep = np.flatnonzero(rho * np.abs(z) > tol)
    if keep.size > 1:
        zp, zn = z[keep[:-1]], z[keep[1:]]
        tau = np.hypot(zp, zn)
        gap = d[keep[1:]] - d[keep[:-1]]
        if np.any(np.abs(gap * (zn / tau) * (zp / tau)) <= tol):
            keep = _deflate_close_poles(d, z, rows, keep.tolist(), tol)
    lam = d.copy()
    if keep.size == 1:
        lam[keep] += rho * z[keep] ** 2
    elif keep.size:
        lam[keep], rows[:, keep] = _secular(d[keep], z[keep], rho,
                                            rows[:, keep], lo)
    order = np.argsort(lam, kind="stable")
    return lam[order], rows[:, order]


def _deflate_close_poles(d, z, rows, keep: list, tol: float):
    """dlaed2's sweep over neighbouring kept poles: each pair close enough
    is rotated so its lower pole's z entry vanishes, and that pole drops
    out.  Updates d, z and rows in place; returns the indices still
    kept."""
    kept = []
    pj = keep[0]
    for nj in keep[1:]:
        tau = math.hypot(z[nj], z[pj])
        c = float(z[nj]) / tau
        s = -float(z[pj]) / tau
        if abs((d[nj] - d[pj]) * c * s) <= tol:
            z[nj] = tau
            z[pj] = 0.0
            x, y = rows[:, pj], rows[:, nj]
            rows[:, pj], rows[:, nj] = c * x + s * y, c * y - s * x
            dp, dn = d[pj], d[nj]
            d[pj] = dp * c * c + dn * s * s
            d[nj] = dp * s * s + dn * c * c
        else:
            kept.append(pj)
        pj = nj
    kept.append(pj)
    return np.array(kept)


def _secular(d, z, rho: float, rows, lo: int):
    """The k >= 2 roots of the secular equation
    w(x) = 1/rho + sum_j z_j^2 / (d_j - x) = 0, d strictly increasing and
    every z_j nonzero, and rows times the eigenvector matrix as in
    _merge.

    Root i lies in (d_i, d_{i+1}), the last root in (d_k, d_k + rho |z|^2].
    Each is found relative to its nearer pole, the origin: x = d_o + tau,
    so d_j - x = (d_j - d_o) - tau is exact to rounding as tau shrinks.  A
    two-pole model at the bracket's midpoint picks the origin and the
    first tau.  The steps are those of LAPACK dlaed4: w is modelled by a
    constant plus one term for each of the two poles a < b around the
    root, fitted to the value and slope of w.  The fixed-weight model
    gives the origin its exact weight z_o^2; the middle way fits the
    terms to the sums over j <= a and j >= b, and the two take turns
    while |w| falls by less than 10x without changing sign.  The last root
    models the sum over j < k by one pole fitted to its value and slope,
    as Bunch, Nielsen and Sorensen do.  A step away from the root is
    replaced by a Newton step; one that leaves the bracket, or the second
    of two such slow steps in a row, by bisection of the bracket (in the
    geometric mean where its ends are far apart on one side of the
    origin).  A root converges once |w| <= eps (8 sum_j |z_j^2 /
    (d_j - x)| + 2/rho + |tau| w') or its bracket is below eps |tau|.  The
    roots are solved _CHUNK at a time, all of a chunk at once in numpy.

    The eigenvectors come from the Gu-Eisenstat z-hat, the z for which the
    computed roots are exact: z-hat_i^2 = prod_j (x_j - d_i) /
    (rho prod_{j != i} (d_j - d_i)), with u_j proportional to
    z-hat / (d - x_j), normalized.
    """
    k = d.size
    z2 = z * z
    idx = np.arange(k)
    a = np.minimum(idx, k - 2)  # the poles a and a + 1 around each root
    width = np.append(np.diff(d), rho * float(np.sum(z2)))
    origin = np.empty(k, dtype=np.intp)
    tau = np.empty(k)
    zhat2 = np.full(k, -1.0)  # becomes rho z-hat^2
    for c0 in range(0, k, _CHUNK):
        roots = slice(c0, min(c0 + _CHUNK, k))
        org, t = _secular_roots(d, z2, rho, a[roots], width[roots], c0, lo)
        origin[roots] = org
        tau[roots] = t
        if rows.size:
            # d_j - x_i over d_j - d_i, or over 1 where j = i
            ratio = d - d[org, None]
            ratio -= t[:, None]
            diff = d - d[roots, None]
            diff[idx[:t.size], idx[roots]] = 1.0
            zhat2 *= np.prod(np.divide(ratio, diff, out=ratio), axis=0)
    if not rows.size:
        return d[origin] + tau, rows
    zhat = np.copysign(np.sqrt(np.abs(zhat2)), z)
    new_rows = np.empty(rows.shape)
    for c0 in range(0, k, _CHUNK):
        roots = slice(c0, min(c0 + _CHUNK, k))
        u = d - d[origin[roots], None]
        u -= tau[roots, None]
        np.divide(zhat, u, out=u)
        new_rows[:, roots] = ((rows @ u.T)
                              / np.sqrt(np.einsum("ij,ij->i", u, u)))
    return d[origin] + tau, new_rows


def _secular_roots(d, z2, rho, a, width, c0, lo):
    """Origins and taus of the roots c0, c0 + 1, ... of _secular's
    equation, one per entry of a; raises EigenNonConvergence for index
    lo + i if root i is still unconverged after _SECULAR_MAXIT steps."""
    m = a.size
    b = a + 1
    # only the last root has a = i - 1; it is the chunk's last
    has_last = b[-1] == c0 + m - 1
    # psi sums the poles j <= a, phi the rest; the poles a[0]..a[-1] are
    # split by the weights of the window
    w0, w1 = int(a[0]), int(a[-1]) + 1
    below = np.arange(w0, w1) <= a[:, None]
    wpsi = np.where(below, z2[w0:w1], 0.0)
    wphi = np.where(below, 0.0, z2[w0:w1])

    # the two-pole model at the midpoint x = d_i + width / 2
    base = d[c0:c0 + m]
    half = 0.5 * width
    w = 1.0 / rho + (1.0 / ((d - base[:, None]) - half[:, None])) @ z2
    right = w <= 0.0  # the root lies right of the midpoint
    org = np.where(right, b, a)
    lo_t = np.where(right, -half, 0.0)
    hi_t = np.where(right, 0.0, half)
    if has_last:  # its origin is its lower pole, on either side
        org[-1] = b[-1]
        lo_t[-1], hi_t[-1] = (half[-1], width[-1]) if right[-1] \
            else (0.0, half[-1])
    da0 = d[a] - d[org]
    db0 = d[b] - d[org]
    c = w - z2[a] / ((d[a] - base) - half) - z2[b] / ((d[b] - base) - half)
    tau = _two_pole_root(c, c * (da0 + db0) + z2[a] + z2[b],
                         c * da0 * db0 + z2[a] * db0 + z2[b] * da0, has_last)
    bad = ~((tau > lo_t) & (tau < hi_t))
    tau[bad] = _bisect(lo_t[bad], hi_t[bad])
    tau[w == 0.0] = lo_t[w == 0.0]  # the midpoint is the root
    pole = d[org]
    # the other pole's offset from the origin, and the origin's weight
    dp0 = np.where(org == a, db0, da0)
    zo2 = z2[org]
    middle = np.zeros(m, dtype=bool)
    stalled = np.zeros(m, dtype=bool)
    prev = np.zeros(m)
    out = np.empty(m)
    act = np.arange(m)  # the unconverged roots, whose rows follow
    buf = np.empty((2, m, d.size))  # 1 / (d_j - x_i) and its square
    for it in range(_SECULAR_MAXIT + 1):
        rr = buf[:, :act.size]
        np.subtract(d, pole[:, None], out=rr[0])
        rr[0] -= tau[:, None]
        np.divide(1.0, rr[0], out=rr[0])
        np.multiply(rr[0], rr[0], out=rr[1])
        window = rr[:, :, w0:w1]
        psi, dpsi = (rr[:, :, :w0] @ z2[:w0]
                     + np.einsum("ij,sij->si", wpsi, window))
        phi, dphi = (rr[:, :, w1:] @ z2[w1:]
                     + np.einsum("ij,sij->si", wphi, window))
        w = 1.0 / rho + psi + phi
        dw = dpsi + dphi
        bound = (8.0 * (np.abs(psi) + np.abs(phi)) + 2.0 / rho
                 + np.abs(tau) * dw)
        done = ((np.abs(w) <= _EPS * bound)
                | (hi_t - lo_t <= _EPS * np.abs(tau)))
        out[act[done]] = tau[done]
        if done.all():
            return org, out
        if it == _SECULAR_MAXIT:
            k = lo + c0 + int(act[np.argmin(done)])
            raise EigenNonConvergence(
                f"divide and conquer: the secular equation root for "
                f"eigenvalue index {k} did not converge in {_SECULAR_MAXIT} "
                f"iterations", k)
        if done.any():  # drop the converged roots
            keep = ~done
            has_last = has_last and keep[-1]
            (act, tau, lo_t, hi_t, da0, db0, dp0, zo2, middle, stalled,
             prev, w, dw, psi, dpsi, dphi, pole, wpsi, wphi) = (
                v[keep] for v in (act, tau, lo_t, hi_t, da0, db0, dp0, zo2,
                                  middle, stalled, prev, w, dw, psi, dpsi,
                                  dphi, pole, wpsi, wphi))
        left = w <= 0.0  # the root lies right of tau
        lo_t = np.where(left, np.maximum(lo_t, tau), lo_t)
        hi_t = np.where(left, hi_t, np.minimum(hi_t, tau))
        da = da0 - tau
        db = db0 - tau
        # |w| fell by less than 10x without a sign change: switch model;
        # bisect if the last step was as slow
        stall = (w * prev > 0.0) & (np.abs(w) > 0.1 * np.abs(prev))
        middle ^= stall
        stuck = stall & stalled
        stalled = stall
        prev = w
        with np.errstate(over="ignore", divide="ignore"):
            fixed = w - (dp0 - tau) * dw + dp0 * zo2 / (tau * tau)
        c = np.where(middle, w - da * dpsi - db * dphi, fixed)
        qa = (da + db) * w - da * db * dw
        qb = da * db * w
        if has_last:
            # psi as one pole fitted to its value and slope (Bunch, Nielsen
            # and Sorensen), the last pole exact
            de = psi[-1] / dpsi[-1]
            se = psi[-1] * de
            c[-1] = 1.0 / rho
            qa[-1] = (de + db[-1]) / rho + se + zo2[-1]
            qb[-1] = de * db[-1] / rho + se * db[-1] + zo2[-1] * de
        eta = _two_pole_root(c, qa, qb, has_last)
        wrong = w * eta >= 0.0
        eta[wrong] = -w[wrong] / dw[wrong]
        tau = tau + eta
        bad = ~((tau > lo_t) & (tau < hi_t)) | stuck
        tau[bad] = _bisect(lo_t[bad], hi_t[bad])
    raise AssertionError("unreachable")


def _bisect(lo, hi):
    """Midpoints of the brackets (lo, hi): geometric where both ends lie
    on one side of the origin, more than a factor 4 apart."""
    mid = 0.5 * (lo + hi)
    far = ((lo > 0.0) & (hi > 4.0 * lo)) | ((hi < 0.0) & (lo < 4.0 * hi))
    mid[far] = np.copysign(np.sqrt(lo[far] * hi[far]), hi[far])
    return mid


def _two_pole_root(c, a, b, has_last):
    """For each entry, the root of c t^2 - a t + b = 0 that a two-pole
    model of the secular function has between its poles; for the last
    entry, if has_last, the root above the upper pole, with c taken as
    |c|.  Each in the stable form of the quadratic formula for the sign
    of a."""
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(np.abs(a * a - 4.0 * b * c))
        t = np.where(a > 0.0, 2.0 * b / (a + sq), (a - sq) / (2.0 * c))
        if has_last:
            cl = abs(c[-1])
            sl = math.sqrt(abs(a[-1] * a[-1] - 4.0 * b[-1] * cl))
            t[-1] = (np.divide(a[-1] + sl, 2.0 * cl) if a[-1] >= 0.0
                     else np.divide(2.0 * b[-1], a[-1] - sl))
    return t


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
    # nodes and weights made complex once per call, so that an iteration
    # is one reciprocal and two complex dots with no cast
    g = np.asarray(g, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    s = complex(s0)
    u = np.reciprocal(s + g)
    acc = complex(w @ u)
    for it in range(int(max_iter)):
        resid = abs(z + 1.0 / s - acc)
        t = -1.0 / (z - acc)
        f = s - t
        dfds = 1.0 - complex(w @ (u * u)) * t * t
        s_new = s - f / dfds if dfds != 0.0 else s
        newton = s_new.imag > 1e-14 and math.isfinite(abs(s_new))
        if newton:
            u_new = np.reciprocal(s_new + g)
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
        u = np.reciprocal(s + g)
        acc = complex(w @ u)
    return s, abs(z + 1.0 / s - acc), int(max_iter), 1


def warm_up():
    """Run every kernel once on tiny inputs, so that first-call costs fall
    outside timed work."""
    # order 3, so that tridiagonalize builds one Householder reflector
    a = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 4.0]])
    d, e = tridiagonalize(a)
    tridiagonal_eigenvalues(d, e)
    resolvent_trace(d, e, 1j)
    fixed_point(1j, np.array([1.0]), np.array([0.5]), 1j, 1e-10, 50)
