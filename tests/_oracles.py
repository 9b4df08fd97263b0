"""Independently derived closed forms used as test oracles.

Everything here is computed from textbook identities (gamma-function
ratios, the Marchenko-Pastur quadratic, Faddeev-LeVerrier recursion) or by
brute force (bisection on the Levy corridor predicate), with no calls into
the package's own numeric pipelines, so agreement is evidence rather than
tautology.
"""

import cmath
import math

import numpy as np


def mp_transform(z: complex, c: float, sigma2: float = 1.0) -> complex:
    """Companion Stieltjes transform of the Marchenko-Pastur law.

    Root of z*s2*S^2 + S*(z + s2*(1-c)) + 1 = 0 in the upper half-plane.
    """
    a = z * sigma2
    b = z + sigma2 * (1.0 - c)
    disc = cmath.sqrt(b * b - 4.0 * a)
    for sign in (1.0, -1.0):
        root = (-b + sign * disc) / (2.0 * a)
        if root.imag > 0:
            return root
    raise AssertionError(f"no upper-half-plane root at z={z!r}, c={c}")


def mp_edges(c: float, sigma2: float = 1.0) -> tuple[float, float]:
    return (sigma2 * (1.0 - math.sqrt(c)) ** 2,
            sigma2 * (1.0 + math.sqrt(c)) ** 2)


def mp_density(x, c: float, sigma2: float = 1.0) -> np.ndarray:
    """Continuous part of the Marchenko-Pastur density on the p x p side."""
    x = np.asarray(x, dtype=float)
    lo, hi = mp_edges(c, sigma2)
    out = np.zeros_like(x)
    inside = (x > lo) & (x < hi)
    xi = x[inside]
    out[inside] = np.sqrt((xi - lo) * (hi - xi)) / (2.0 * math.pi * c
                                                   * sigma2 * xi)
    return out


def mp_cdf(x_grid, c: float, sigma2: float = 1.0,
           resolution: int = 2_000_001) -> np.ndarray:
    """CDF of the Marchenko-Pastur law by dense quadrature of the closed
    form density plus the analytic atom at zero.

    The quadrature runs in theta, x = lo + (hi - lo) sin^2(theta), where the
    density times dx/dtheta is (hi - lo)^2 sin^2 cos^2 / (pi c sigma2 x):
    smooth at both edges, the x^(-1/2) hard edge at c = 1 included."""
    lo, hi = mp_edges(c, sigma2)
    theta = np.linspace(0.0, 0.5 * math.pi, resolution)
    sin2 = np.sin(theta) ** 2
    xs = lo + (hi - lo) * sin2
    # sin^2/x, whose limit at x = 0 (the hard edge, lo = 0) is 1/(hi - lo)
    ratio = np.divide(sin2, xs, out=np.full_like(xs, 1.0 / (hi - lo)),
                      where=xs > 0)
    dens = (hi - lo) ** 2 * (1.0 - sin2) * ratio / (math.pi * c * sigma2)
    cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(theta))])
    atom = max(0.0, 1.0 - 1.0 / c)
    grid = np.asarray(x_grid, dtype=float)
    t = np.arcsin(np.sqrt(np.clip((grid - lo) / (hi - lo), 0.0, 1.0)))
    vals = atom + np.interp(t, theta, cum)
    vals[grid < 0] = 0.0
    return vals


def semicircle_cdf(x, radius: float) -> np.ndarray:
    """CDF of the semicircle law on [-radius, radius], whose density is
    2 sqrt(radius^2 - x^2) / (pi radius^2)."""
    t = np.clip(np.asarray(x, dtype=float) / radius, -1.0, 1.0)
    return 0.5 + (t * np.sqrt(1.0 - t * t) + np.arcsin(t)) / math.pi


def _ar1_coefficients(phi: float, sigma2: float) -> tuple[float, float]:
    # 1/(2 pi f) = alpha - beta cos(lam) for the AR(1) density
    return (1.0 + phi * phi) / sigma2, 2.0 * phi / sigma2


def _ar1_root(s: complex, alpha: float, beta: float) -> complex:
    # r with r^2 = (s + alpha)^2 - beta^2 and Im r > 0 for Im s > 0, so
    # that (1/pi) * integral over (0, pi) of dlam / (s + alpha - beta cos
    # lam) = 1/r: each factor's principal root has its argument in
    # (0, pi/2)
    return cmath.sqrt(s + alpha - beta) * cmath.sqrt(s + alpha + beta)


def ar1_transform(z: complex, c: float, phi: float,
                  sigma2: float = 1.0) -> complex:
    """Companion Stieltjes transform of the limit for the AR(1) density.

    With 1/(2 pi f) = alpha - beta cos(lam), the limiting equation
    z = -1/s + (c/pi) * integral over (0, pi) of dlam / (s + 1/(2 pi f))
    reads z = -1/s + c/r, r^2 = (s + alpha)^2 - beta^2, so s is a root of
    the quartic ((s + alpha)^2 - beta^2) (z s + 1)^2 = c^2 s^2: the one in
    the upper half-plane that solves the unsquared equation, polished by
    Newton steps on it."""
    alpha, beta = _ar1_coefficients(phi, sigma2)
    quad = np.array([1.0, 2.0 * alpha, alpha * alpha - beta * beta])
    quartic = np.polymul(quad, np.array([z * z, 2.0 * z, 1.0]))
    quartic[2] -= c * c

    def resid(s):
        return z + 1.0 / s - c / _ar1_root(s, alpha, beta)

    upper = [complex(s) for s in np.roots(quartic) if s.imag > 0]
    if not upper:
        raise AssertionError(f"no upper-half-plane root at z={z!r}")
    s = min(upper, key=lambda s: abs(resid(s)))
    for _ in range(3):
        r = _ar1_root(s, alpha, beta)
        slope = -1.0 / (s * s) + c * (s + alpha) / r ** 3
        s -= resid(s) / slope
    return s


def ar1_edges(c: float, phi: float, sigma2: float = 1.0) -> list[float]:
    """Support edges of the AR(1) limit, increasing; at c = 1 the hard
    edge 0 is not among them.

    On the real s axis off the poles, |s + alpha| > |beta|, the inverse is
    x(s) = -1/s + c/r with r^2 = (s + alpha)^2 - beta^2 and r of the sign
    of s + alpha, so x'(s) = 1/s^2 - c (s + alpha)/r^3 vanishes where
    r^3 = c s^2 (s + alpha).  Squared, that is the sextic
    ((s + alpha)^2 - beta^2)^3 = c^2 s^4 (s + alpha)^2, whose squaring adds
    no root there: both sides of the unsquared equation have the sign of
    s + alpha.  The edges are the positive critical values x(s) at its real
    roots (Silverstein & Choi 1995); a critical point only moves x to
    second order, so the roots need no polishing."""
    alpha, beta = _ar1_coefficients(phi, sigma2)
    quad = np.array([1.0, 2.0 * alpha, alpha * alpha - beta * beta])
    sextic = np.polysub(np.polymul(np.polymul(quad, quad), quad),
                        c * c * np.polymul([1.0, 0.0, 0.0, 0.0, 0.0],
                                           [1.0, 2.0 * alpha, alpha ** 2]))
    edges = []
    for s in np.roots(sextic):
        s = float(s.real) if abs(s.imag) <= 1e-9 * abs(s) else None
        if s is None or abs(s + alpha) <= abs(beta):
            continue
        r = math.copysign(math.sqrt((s + alpha) ** 2 - beta * beta),
                          s + alpha)
        x = -1.0 / s + c / r
        if x > 0:
            edges.append(x)
    return sorted(edges)


def _limit_from(x, c: float, eta: float, transform, phi_of):
    # Density and CDF at z = x + i eta x from a closed-form companion
    # transform s = transform(z) and antiderivative phi_of(s, z): the
    # density is Im s_plain / pi with the zero atom max(0, 1 - 1/c) taken
    # out, s_plain = (s + (1 - c)/z)/c; the CDF is ((Im Phi)/pi - (1 - c))/c.
    atom0 = max(0.0, 1.0 - 1.0 / c)
    xs = np.asarray(x, dtype=float)
    rho = np.empty(xs.shape)
    cdf = np.empty(xs.shape)
    for i, xv in enumerate(xs):
        z = complex(xv, eta * xv)
        s = transform(z)
        rho[i] = ((s + (1.0 - c) / z) / c + atom0 / z).imag / math.pi
        cdf[i] = (phi_of(s, z).imag / math.pi - (1.0 - c)) / c
    return rho, cdf


def ar1_limit(x, c: float, phi: float, sigma2: float = 1.0,
              eta: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Density and CDF of the AR(1) limit at z = x + i eta x, read off the
    closed forms (see _limit_from), with the antiderivative
    Phi = s z + log s - c log((s + alpha + r)/2), which uses
    (1/pi) * integral over (0, pi) of log(A - B cos lam) dlam
    = log((A + sqrt(A^2 - B^2))/2)."""
    alpha, beta = _ar1_coefficients(phi, sigma2)

    def phi_of(s, z):
        r = _ar1_root(s, alpha, beta)
        return s * z + cmath.log(s) - c * cmath.log(0.5 * (s + alpha + r))

    return _limit_from(x, c, eta, lambda z: ar1_transform(z, c, phi, sigma2),
                       phi_of)


def _ma1_coefficients(theta: float, sigma2: float) -> tuple[float, float]:
    # 2 pi f = a + b cos(lam) for the MA(1) density
    return sigma2 * (1.0 + theta * theta), 2.0 * sigma2 * theta


def _ma1_root(s: complex, a: float, b: float) -> complex:
    # R with R^2 = (1 + s a)^2 - (s b)^2, the product of principal roots of
    # 1 + s (a - b) and 1 + s (a + b), both in the closed upper half-plane
    # for Im s > 0 (a +- b = sigma2 (1 +- theta)^2 >= 0), so that
    # (1/pi) * integral over (0, pi) of dlam / (1 + s a + s b cos lam) = 1/R
    return cmath.sqrt(1.0 + s * (a - b)) * cmath.sqrt(1.0 + s * (a + b))


def ma1_transform(z: complex, c: float, theta: float,
                  sigma2: float = 1.0) -> complex:
    """Companion Stieltjes transform of the limit for the MA(1) density.

    With 2 pi f = a + b cos(lam), a = sigma2 (1 + theta^2) and
    b = 2 sigma2 theta, the integral (1/pi) * integral over (0, pi) of
    dlam / (s + 1/(2 pi f)) is (1/s)(1 - 1/R), R^2 = (1 + s a)^2 - (s b)^2,
    so z = -1/s + (c/s)(1 - 1/R) and s is a root of the quartic
    ((1 + s a)^2 - (s b)^2) (c - 1 - z s)^2 = c^2: the one in the upper
    half-plane that solves the unsquared equation, polished by Newton
    steps on it."""
    a, b = _ma1_coefficients(theta, sigma2)
    quad = np.array([a * a - b * b, 2.0 * a, 1.0])
    quartic = np.polymul(quad, np.array([z * z, -2.0 * z * (c - 1.0),
                                         (c - 1.0) ** 2]))
    quartic[-1] -= c * c

    def resid(s):
        return z + 1.0 / s - (c / s) * (1.0 - 1.0 / _ma1_root(s, a, b))

    upper = [complex(s) for s in np.roots(quartic) if s.imag > 0]
    if not upper:
        raise AssertionError(f"no upper-half-plane root at z={z!r}")
    s = min(upper, key=lambda s: abs(resid(s)))
    for _ in range(3):
        r = _ma1_root(s, a, b)
        dr = (a * (1.0 + s * a) - s * b * b) / r
        slope = (-1.0 / (s * s) + (c / (s * s)) * (1.0 - 1.0 / r)
                 - (c / s) * dr / (r * r))
        s -= resid(s) / slope
    return s


def ma1_edges(c: float, theta: float, sigma2: float = 1.0) -> list[float]:
    """Support edges of the MA(1) limit, increasing; at c = 1 the hard
    edge 0 is not among them.

    On the real s axis where Q = R^2 = 1 + 2as + (a^2 - b^2)s^2 > 0, the
    inverse is x(s) = -1/s + (c/s)(1 - 1/R) with R of the sign of 1 + as,
    and x'(s) = 0 reads F(s) = (c - 1) R Q - c P = 0,
    P = 1 + 3as + 2(a^2 - b^2)s^2; the edges are the positive critical
    values x(s) (Silverstein & Choi 1995).  Squared, F = 0 is the sextic
    (c - 1)^2 Q^3 = c^2 P^2, whose real roots are candidates, and so are
    the roots of P: next to c = 1 the sextic's leading coefficient
    (c - 1)^2 all but vanishes, and its roots near those of P come in
    pairs, one of F = 0 and one of (c - 1) R Q = -c P, that np.roots may
    split off the real axis.  Each candidate is polished by Newton steps
    on the unsquared F, F' = (3/2)(c - 1) R Q' - c P', and kept only where
    they converge, so a root of the squared-in half never passes."""
    a, b = _ma1_coefficients(theta, sigma2)
    q = np.array([a * a - b * b, 2.0 * a, 1.0])
    p = np.array([2.0 * (a * a - b * b), 3.0 * a, 1.0])
    dq, dp = np.polyder(q), np.polyder(p)
    sextic = np.polysub((c - 1.0) ** 2 * np.polymul(np.polymul(q, q), q),
                        c * c * np.polymul(p, p))

    def polished(s):
        # Newton on F from s: the root and its R, or None if a step leaves
        # Q > 0 or 50 steps do not converge
        for _ in range(50):
            qs = float(np.polyval(q, s))
            if not qs > 0:
                return None
            r = math.copysign(math.sqrt(qs), 1.0 + a * s)
            step = ((c - 1.0) * r * qs - c * float(np.polyval(p, s))) / (
                1.5 * (c - 1.0) * r * float(np.polyval(dq, s))
                - c * float(np.polyval(dp, s)))
            if abs(step) <= 1e-14 * abs(s):
                return s, r
            s -= step
        return None

    edges = []
    for root in (*np.roots(sextic), *np.roots(p)):
        if abs(root.imag) > 1e-9 * abs(root) or \
                (found := polished(float(root.real))) is None:
            continue
        s, r = found
        x = -1.0 / s + (c / s) * (1.0 - 1.0 / r)
        if x > 0 and not any(math.isclose(x, e, rel_tol=1e-9)
                             for e in edges):
            edges.append(x)
    return sorted(edges)


def ma1_limit(x, c: float, theta: float, sigma2: float = 1.0,
              eta: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Density and CDF of the MA(1) limit at z = x + i eta x, read off the
    closed forms (see _limit_from).  Since s + 1/(2 pi f) =
    (1 + s a + s b cos lam)/(a + b cos lam), the antiderivative is
    Phi = s z + log s - c [log((A + R)/2) - log((a + sqrt(a^2 - b^2))/2)]
    with A = 1 + s a, by the same log-cosine integral as ar1_limit's."""
    a, b = _ma1_coefficients(theta, sigma2)
    base = math.log(0.5 * (a + math.sqrt(a * a - b * b)))

    def phi_of(s, z):
        r = _ma1_root(s, a, b)
        return (s * z + cmath.log(s)
                - c * (cmath.log(0.5 * (1.0 + s * a + r)) - base))

    return _limit_from(x, c, eta, lambda z: ma1_transform(z, c, theta, sigma2),
                       phi_of)


def ar1_covariance(k: int, phi: float, sigma2: float = 1.0) -> float:
    """Autocovariance of the stationary AR(1) recursion."""
    return sigma2 * phi ** abs(k) / (1.0 - phi * phi)


def _gamma_ratio(log_num, log_den) -> float:
    return math.exp(math.fsum(log_num) - math.fsum(log_den))


def fractional_covariance(k: int, d: float, sigma2: float = 1.0) -> float:
    """Autocovariance of the long-memory family with singularity exponent
    2d: sigma^2 * G(1-2d) G(|k|+d) / (G(d) G(1-d) G(|k|+1-d))."""
    k = abs(k)
    return sigma2 * _gamma_ratio(
        [math.lgamma(1.0 - 2.0 * d), math.lgamma(k + d)],
        [math.lgamma(d), math.lgamma(1.0 - d), math.lgamma(k + 1.0 - d)])


def fractional_filter_coeff(k: int, d: float, sigma2: float = 1.0) -> float:
    """Two-sided square-root filter coefficient of the long-memory family:
    sigma * G(1-d) G(|k|+d/2) / (G(d/2) G(1-d/2) G(|k|+1-d/2))."""
    k = abs(k)
    return math.sqrt(sigma2) * _gamma_ratio(
        [math.lgamma(1.0 - d), math.lgamma(k + d / 2.0)],
        [math.lgamma(d / 2.0), math.lgamma(1.0 - d / 2.0),
         math.lgamma(k + 1.0 - d / 2.0)])


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial of a small matrix via Faddeev-LeVerrier.

    Returns monic coefficients [1, c_{n-1}, ..., c_0] with
    det(tI - A) = t^n + c_{n-1} t^{n-1} + ... + c_0.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def ar1_pushforward_cdf(x, phi: float, sigma2: float = 1.0) -> np.ndarray:
    """Law of 2*pi*f(U) for the AR(1) density, U uniform on [-pi, pi].

    2*pi*f(lam) = sigma^2 / (1 + phi^2 - 2 phi cos lam) is decreasing in
    lam on [0, pi] for phi > 0, so the CDF inverts in closed form.
    """
    x = np.asarray(x, dtype=float)
    lo = sigma2 / (1.0 + phi) ** 2
    hi = sigma2 / (1.0 - phi) ** 2
    out = np.empty_like(x)
    for i, xv in enumerate(x.ravel()):
        if xv < lo:
            val = 0.0
        elif xv >= hi:
            val = 1.0
        else:
            cos_lam = (1.0 + phi * phi - sigma2 / xv) / (2.0 * phi)
            val = 1.0 - math.acos(min(1.0, max(-1.0, cos_lam))) / math.pi
        out.ravel()[i] = val
    return out


def _step_cdf_values(cdf, t, side: str) -> np.ndarray:
    """F(t) (side "right") or F(t-) (side "left") of a StepCdf-shaped
    object, read from its breakpoint arrays alone: 0 left of xs[0], linear
    from right[i] to left[i+1] between breakpoints, right[-1] past the
    last one."""
    xs = np.asarray(cdf.xs, dtype=float)
    fl = np.asarray(cdf.left, dtype=float)
    fr = np.asarray(cdf.right, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    for k, tv in enumerate(t):
        i = int(np.searchsorted(xs, tv, side="right")) - 1
        if i < 0:
            continue
        if tv == xs[i]:
            out[k] = (fl if side == "left" else fr)[i]
        elif i == xs.size - 1:
            out[k] = fr[-1]
        else:
            frac = (tv - xs[i]) / (xs[i + 1] - xs[i])
            out[k] = fr[i] + frac * (fl[i + 1] - fr[i])
    return out


def levy_corridor_holds(f, g, eps: float) -> bool:
    """The Levy corridor G(x - eps) - eps <= F(x) <= G(x + eps) + eps for
    every real x, checked at every breakpoint of both sides, eps-shifted
    ones included, from the left and from the right.  Between those points
    both sides are linear, so the mesh decides the whole line."""
    for a, b in ((f, g), (g, f)):
        ts = np.unique(np.concatenate((a.xs, np.asarray(b.xs) - eps)))
        for side in ("left", "right"):
            if np.any(_step_cdf_values(a, ts, side)
                      > _step_cdf_values(b, ts + eps, side) + eps + 1e-15):
                return False
    return True


def levy_by_bisection(f, g) -> float:
    """Brute-force Levy distance: 60 bisection steps on the corridor
    predicate over [0, 1 + span], returning the upper end of the last
    bracket."""
    if levy_corridor_holds(f, g, 0.0):
        return 0.0
    span = max(f.xs[-1], g.xs[-1]) - min(f.xs[0], g.xs[0])
    lo, hi = 0.0, 1.0 + span
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if levy_corridor_holds(f, g, mid):
            hi = mid
        else:
            lo = mid
    return hi
