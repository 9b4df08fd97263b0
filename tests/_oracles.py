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
