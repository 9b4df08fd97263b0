"""Reference values the benchmark checks gramspec's outputs against.

Nothing here imports gramspec.  The Marchenko-Pastur forms are derived
below for identity population covariance (gramspec's `constant` density
with sigma2 = 1, so 2*pi*f = 1) and aspect ratio c = p/N:

* companion transform s: the limit equation z = -1/s + c/(1 + s) clears to
  z s^2 + (z + 1 - c) s + 1 = 0; s is the root with Im s > 0;
* density on [a, b] = [(1 - sqrt c)^2, (1 + sqrt c)^2]:
  sqrt((x - a)(b - x)) / (2 pi c x);
* CDF: with m = 1 + c, h = 2 sqrt c and ab = (1 - c)^2, an antiderivative
  of sqrt((x - a)(b - x)) / x is
  G(x) = sqrt((x - a)(b - x)) + m asin((x - m)/h)
         - |1 - c| asin((m x - ab)/(h x)),
  so F(x) = max(0, 1 - 1/c) + (G(x) - G(a)) / (2 pi c) on [a, b]; the
  atom at 0 is present when c > 1, and F(b) = 1.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def mp_companion(z: complex, c: float) -> complex:
    """Companion Stieltjes transform of Marchenko-Pastur at z in C+."""
    b = z + 1.0 - c
    disc = cmath.sqrt(b * b - 4.0 * z)
    roots = [(-b + disc) / (2.0 * z), (-b - disc) / (2.0 * z)]
    return max(roots, key=lambda r: r.imag)


def mp_edges(c: float) -> tuple[float, float]:
    return (1.0 - math.sqrt(c)) ** 2, (1.0 + math.sqrt(c)) ** 2


def mp_density(x, c: float) -> np.ndarray:
    """Continuous part of the Marchenko-Pastur density."""
    x = np.asarray(x, dtype=float)
    a, b = mp_edges(c)
    out = np.zeros(x.shape)
    inside = (x > a) & (x < b)
    xi = x[inside]
    out[inside] = np.sqrt((xi - a) * (b - xi)) / (2.0 * math.pi * c * xi)
    return out


def mp_cdf(x, c: float) -> np.ndarray:
    """Marchenko-Pastur CDF in closed form, atom at 0 included."""
    x = np.asarray(x, dtype=float)
    a, b = mp_edges(c)
    m, h, ab = 1.0 + c, 2.0 * math.sqrt(c), (1.0 - c) ** 2

    def g(t):
        root = np.sqrt(np.clip((t - a) * (b - t), 0.0, None))
        out = root + m * np.arcsin(np.clip((t - m) / h, -1.0, 1.0))
        if ab > 0:
            out -= math.sqrt(ab) * np.arcsin(
                np.clip((m * t - ab) / (h * t), -1.0, 1.0))
        return out

    atom = max(0.0, 1.0 - 1.0 / c)
    t = np.clip(x, max(a, 1e-300), b)
    vals = atom + (g(t) - g(np.asarray(max(a, 1e-300)))) / (2.0 * math.pi * c)
    vals = np.where(x >= b, 1.0, vals)
    return np.where(x < 0.0, 0.0, np.where(x < a, atom, vals))


def ks_to_cdf(sorted_eigs: np.ndarray, cdf) -> float:
    """sup |F_n - F| for an empirical CDF against a continuous CDF with
    possible atoms, checked on both sides of every jump."""
    e = np.asarray(sorted_eigs, dtype=float)
    n = e.size
    f = cdf(e)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(max(np.max(np.abs(upper - f)), np.max(np.abs(f - lower))))


def ks_between_samples(a, b) -> float:
    """Kolmogorov distance between the empirical CDFs of two samples."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    ts = np.concatenate([a, b])
    fa = np.searchsorted(a, ts, side="right") / a.size
    fb = np.searchsorted(b, ts, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def eig_mismatch(program_eigs, matrix) -> float:
    """max |program eigenvalue - eigvalsh eigenvalue| relative to the
    spectral radius, both lists sorted."""
    ref = np.linalg.eigvalsh(np.asarray(matrix, dtype=float))
    got = np.sort(np.asarray(program_eigs, dtype=float))
    if got.shape != ref.shape:
        return math.inf
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    return float(np.max(np.abs(got - ref))) / scale
