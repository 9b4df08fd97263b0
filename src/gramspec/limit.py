"""Limiting-spectrum solver.

Solves the self-consistent equation for the companion Stieltjes transform
of the limiting Gram spectrum,

    z = -1/s + (c/pi) * integral over (0, pi) of dlam / (s + 1/(2 pi f(lam))),

by a safeguarded Newton iteration at each z (see _kernels.fixed_point),
inverts it to the limiting density and CDF on a grid of real points, and
runs truncation ladders for unbounded densities.

The inversion works on the real axis: the support edges are critical
values of the explicit inverse x(s) (Silverstein & Choi 1995), each grid
point inside the support takes one solve just above the axis, warm-started
from its neighbour (as in Dobriban's SPECTRODE), and the CDF is read
pointwise off an exact antiderivative; see invert_to_distribution.

Every accepted solve carries a residual certificate: the frequency grid is
re-selected at a tenth of the quadrature tolerance and the residual of the
accepted iterate must stay below the solver tolerance on that finer grid,
otherwise the solve escalates to the finer grid and tries again.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels, quadrature
from .errors import (DomainError, HerglotzLoss, NonConvergence,
                     QuadratureError, UniquenessError)
from .spectral import (SpectralDensity, TWO_PI, _refine_points,
                       _singular_in_half, density_values, probe_values)

# Reciprocal transformed-density values above this are treated as infinite
# bins; the induced integral error is ~ c / _G_CAP, far below certificates.
_G_CAP = 1e14

_DUAL_START_TOL = 1e-9
_MAX_LEVEL = 9


@dataclass(frozen=True)
class SolverSettings:
    """Knobs for the Newton solver and its quadrature layer."""

    tol: float = 1e-12
    max_iter: int = 10_000
    quad_tol: float = 1e-10

    def __post_init__(self):
        if not self.tol > 0:
            raise DomainError("tol must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")
        if not self.quad_tol > 0:
            raise DomainError("quad_tol must be positive")


class LimitPoint(NamedTuple):
    """One accepted solve: companion transform first, plain transform second."""

    s_under: complex
    s: complex
    residual: float
    iterations: int


def companion(s: complex, c: float, z: complex) -> complex:
    """Companion transform: s_under = -(1 - c)/z + c s."""
    return -(1.0 - c) / z + c * s


def companion_inverse(s_under: complex, c: float, z: complex) -> complex:
    """Invert the companion relation: s = (s_under + (1 - c)/z) / c."""
    return (s_under + (1.0 - c) / z) / c


# ---------------------------------------------------------------------------
# Frequency-grid construction and certification.

@lru_cache(maxsize=64)
def _nodes(f: SpectralDensity, level: int):
    marks = tuple(sorted(set(_singular_in_half(f)) | set(_refine_points(f))))
    edges = quadrature.build_edges(0.0, math.pi, singular=marks,
                                   base=64 * 2**level, depth=60 + 10 * level)
    lam, w = quadrature.gauss_nodes(edges, order=12)
    fv = density_values(f, lam)
    with np.errstate(divide="ignore"):
        g = 1.0 / (TWO_PI * fv)
    g = np.minimum(g, _G_CAP)    # f == 0 stretches become negligible bins
    g[~np.isfinite(fv)] = 0.0    # singular points: 1/(2 pi f) -> 0
    g.flags.writeable = False
    w.flags.writeable = False
    return g, w


def _lambda_integral(s: complex, g: np.ndarray, w: np.ndarray,
                     c: float) -> complex:
    return (c / math.pi) * complex(np.sum(w / (s + g)))


def _probe_points(g: np.ndarray) -> list[complex]:
    finite = g[g < 0.5 * _G_CAP]
    if finite.size == 0:
        finite = np.array([1.0])
    qs = np.quantile(finite, [0.05, 0.25, 0.5, 0.75, 0.95])
    probes = []
    for q in qs:
        scale = 1.0 + q
        for eta in (3e-3, 5e-2, 0.5):
            probes.append(complex(-q, eta * scale))
    probes.append(complex(0.0, 1.0))
    return probes


@lru_cache(maxsize=64)
def _certified_level(f: SpectralDensity, c: float, target: float) -> int:
    """Coarsest grid level whose lambda-integral matches the next level to
    within `target` at a spread of Herglotz probe points."""
    for level in range(_MAX_LEVEL):
        g0, w0 = _nodes(f, level)
        g1, w1 = _nodes(f, level + 1)
        worst = 0.0
        for s in _probe_points(g0):
            diff = abs(_lambda_integral(s, g0, w0, c)
                       - _lambda_integral(s, g1, w1, c))
            worst = max(worst, diff)
        if worst <= target:
            return level
    raise QuadratureError(
        f"frequency grid did not certify to {target:.2e} within "
        f"{_MAX_LEVEL} refinement levels")


# ---------------------------------------------------------------------------
# Certified solve driver (shared by the density and measure entry points).
# Node weights arrive folded: the kernel equation is z = -1/s + sum w/(s + g).

def _run_start(z: complex, g, w, s0: complex, settings: SolverSettings,
               tol: float | None = None) -> tuple[complex, float, int]:
    target = 0.5 * settings.tol if tol is None else tol
    s, resid, iters, status = _kernels.fixed_point(
        z, g, w, s0, target, settings.max_iter)
    if status == 1:
        raise NonConvergence(
            f"Newton solve at z={z!r} still has residual {resid:.3e} after "
            f"{settings.max_iter} iterations", resid)
    if status == 2:
        raise HerglotzLoss(
            f"iterate collapsed onto the real axis at z={z!r}")
    return s, resid, iters


def _dual_start(z: complex, g, w,
                settings: SolverSettings) -> tuple[complex, int]:
    """Uniqueness probe: run the two canonical starts and require agreement.

    Converged iterates can sit apart by far more than the residual when the
    map is badly conditioned, so on disagreement both are re-iterated at
    tighter residual targets before the gate fires; two genuinely distinct
    fixed points keep their distance no matter how far the targets drop.
    """
    s_a, _, it_a = _run_start(z, g, w, -1.0 / z, settings)
    s_b, _, it_b = _run_start(z, g, w, 1j, settings)
    total = it_a + it_b
    target = 0.5 * settings.tol
    while abs(s_a - s_b) > _DUAL_START_TOL and target > 1e-15:
        target = max(0.01 * target, 1e-15)
        try:
            s_a, _, it_a = _run_start(z, g, w, s_a, settings, target)
            s_b, _, it_b = _run_start(z, g, w, s_b, settings, target)
        except NonConvergence:
            break  # residual floor for this z; judge with what we have
        total += it_a + it_b
    if abs(s_a - s_b) > _DUAL_START_TOL:
        raise UniquenessError(
            f"starts -1/z and i reached distinct fixed points at z={z!r}: "
            f"|diff| = {abs(s_a - s_b):.3e}")
    return s_a, total


def _check_point(z, c: float) -> complex:
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("z must lie in the open upper half-plane")
    if not c > 0:
        raise DomainError("aspect ratio c must be positive")
    return z


def _solve_under(nodes, c: float, z: complex, settings: SolverSettings,
                 initial: complex | None, attempts: int,
                 failure: str) -> LimitPoint:
    """Solve on the folded nodes of step k, then certify the residual on
    those of step k + 1, escalating to the next step if the certificate
    fails; `nodes` maps k to folded (g, w)."""
    total_iters = 0
    for k in range(attempts):
        g, w = nodes(k)
        if initial is None:
            s, it = _dual_start(z, g, w, settings)
        else:
            s, _, it = _run_start(z, g, w, initial, settings)
        total_iters += it
        g_fine, w_fine = nodes(k + 1)
        resid_fine = abs(z + 1.0 / s - complex(np.sum(w_fine / (s + g_fine))))
        if resid_fine <= settings.tol:
            s_plain = companion_inverse(s, c, z)
            if s_plain.imag <= 0:
                raise HerglotzLoss(
                    f"recovered transform has Im <= 0 at z={z!r}")
            return LimitPoint(s, s_plain, resid_fine, total_iters)
    raise QuadratureError(failure)


def solve_limit_density(f: SpectralDensity, c: float, z: complex,
                        settings: SolverSettings | None = None, *,
                        initial: complex | None = None) -> LimitPoint:
    """Solve the limiting equation for spectral density f at one z in C+.

    With no `initial`, runs the two canonical starts -1/z and i and requires
    them to agree (uniqueness probe); a warm start skips the probe.
    """
    z = _check_point(z, c)
    settings = settings or SolverSettings()
    level = _level(f, c, settings)
    return _solve_under(
        lambda k: _folded_nodes(f, c, level + k), c, z, settings, initial, 4,
        f"residual certificate kept failing at z={z!r} through grid "
        f"level {level + 4}")


def _level(f: SpectralDensity, c: float, settings: SolverSettings) -> int:
    return _certified_level(f, c, min(settings.quad_tol, 0.25 * settings.tol))


def _folded_nodes(f: SpectralDensity, c: float, level: int):
    g, w = _nodes(f, level)
    return g, w * (c / math.pi)


# ---------------------------------------------------------------------------
# Solving directly against a spectral-mass CDF (atoms + linear pieces).

def _measure_nodes(h, order: int):
    xs, fl, fr = h.xs, h.left, h.right
    if xs[0] < 0:
        raise DomainError("spectral-mass CDF must live on [0, inf)")
    jumps = fr - fl
    ax = xs[jumps > 0]
    aw = jumps[jumps > 0]
    keep = ax > 0  # an atom at 0 contributes nothing to the integral
    parts_x = [ax[keep]]
    parts_w = [aw[keep]]
    pmass = fl[1:] - fr[:-1]
    piece = pmass > 0
    if np.any(piece):
        xi, wi = np.polynomial.legendre.leggauss(order)
        lo = xs[:-1][piece]
        hi = xs[1:][piece]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = mid[:, None] + half[:, None] * xi[None, :]
        wts = 0.5 * pmass[piece][:, None] * wi[None, :]
        parts_x.append(nodes.ravel())
        parts_w.append(wts.ravel())
    x = np.concatenate(parts_x)
    w = np.concatenate(parts_w)
    if x.size == 0:
        raise DomainError("spectral-mass CDF carries no positive mass")
    return 1.0 / x, w


def solve_limit_H(h, c: float, z: complex,
                  settings: SolverSettings | None = None, *,
                  initial: complex | None = None) -> LimitPoint:
    """Solve the limiting equation driven by a spectral-mass CDF instead of
    a density.

    `h` is a StepCdf on [0, inf): its atoms and linear pieces are integrated
    exactly-in-structure (Gauss rule per piece), so this route shares no
    frequency quadrature with solve_limit_density and serves as an
    independent cross-check of it.
    """
    z = _check_point(z, c)

    def nodes(k):
        # the weights already hold mass, so they fold with plain c where
        # the density route's frequency weights fold with c/pi
        g, w = _measure_nodes(h, 12 * 2**k)
        return g, c * w

    return _solve_under(
        nodes, c, z, settings or SolverSettings(), initial, 3,
        f"piecewise Gauss rule for the mass CDF kept failing its residual "
        f"certificate at z={z!r}")


# ---------------------------------------------------------------------------
# Inversion on the real axis: exact support, density and CDF.

# Evaluation points sit at x + i*_ETA*x.  On the real axis itself the
# iterate falls onto the kernel's 1e-14 Herglotz floor far in the tail of an
# unbounded density; at this height the density and CDF move by O(_ETA).
_ETA = 1e-8


@dataclass(frozen=True, eq=False)
class LimitDistribution:
    """Limiting spectral distribution on a real grid.

    `density` holds the absolutely continuous part on x_grid; `atom0` the
    point mass at zero (present when c > 1); `cdf` is the full CDF, atom
    included, evaluated pointwise from the antiderivative of the companion
    transform.  `edges` are the support edges: the lower edge a (0 at a
    hard edge) and, when the support is bounded, the upper edge b.
    """

    x_grid: np.ndarray
    density: np.ndarray
    cdf: np.ndarray
    atom0: float
    c: float
    edges: tuple[float, ...] = ()
    residual_max: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x_grid, dtype=float)
        rho = np.asarray(self.density, dtype=float)
        cdf = np.asarray(self.cdf, dtype=float)
        if x.ndim != 1 or x.size < 2 or rho.shape != x.shape or cdf.shape != x.shape:
            raise DomainError("grid arrays must be matching 1-d, length >= 2")
        if np.any(np.diff(x) <= 0) or x[0] <= 0:
            raise DomainError("x_grid must be positive and strictly increasing")
        if np.any(rho < 0):
            raise DomainError("density must be nonnegative")
        if np.any(np.diff(cdf) < -1e-12):
            raise DomainError("cdf must be nondecreasing")
        if not 0.0 <= self.atom0 <= 1.0:
            raise DomainError("atom0 must lie in [0, 1]")
        if cdf[-1] > 1.0 + 1e-6:
            raise DomainError("cdf exceeds 1 beyond numerical slack")
        if not self.c > 0:
            raise DomainError("aspect ratio must be positive")
        for arr in (x, rho, cdf):
            arr.flags.writeable = False
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "density", rho)
        object.__setattr__(self, "cdf", cdf)

    @property
    def total_mass(self) -> float:
        return float(self.cdf[-1])

    @property
    def unstable_points(self) -> int:
        # Always 0: the real-axis inversion extrapolates nothing that could
        # disagree.  Kept only because perfbench/child.py's traced mode
        # reads it.
        return 0


def _slope(s: float, g: np.ndarray, w: np.ndarray) -> float:
    """x'(s) of the inverse x(s) = -1/s + sum w/(s + g)."""
    return 1.0 / (s * s) - float(np.sum(w / (s + g) ** 2))


def _critical_point(g, w, up: float, down: float) -> float:
    """Root of x' between `up`, where x' > 0, and `down`, where x' < 0, by
    bisection to the last bit."""
    while True:
        mid = 0.5 * (up + down)
        if mid in (up, down):
            return mid
        if _slope(mid, g, w) > 0.0:
            up = mid
        else:
            down = mid


def _inverse(s: float, g, w) -> float:
    return -1.0 / s + float(np.sum(w / (s + g)))


def _support(f: SpectralDensity, c: float, g, w) -> tuple[float, float]:
    """Support edges (a, b), the critical values of x(s).

    By Silverstein & Choi (1995), the complement of the support is where
    x' > 0 on the real s axis off {0} and [-g_max, -g_min].  x is convex
    on (-g_min, 0) with poles at both ends, so b is its minimum there, or
    infinite when f has a singular point (g_min = 0).  a is the maximum of
    x on (-inf, -g_max) for c < 1, where x rises from 0 at -inf, and on
    (0, inf) for c > 1, where x falls back to 0 at +inf; a = 0 when there
    is none (c = 1: the hard edge).
    """
    a, b = 0.0, math.inf
    if c != 1.0:
        g_max = float(np.max(g[g < 0.5 * _G_CAP]))
        # double outward until x' takes the sign it has at infinity:
        # rising for c < 1 (s -> -inf), falling for c > 1 (s -> +inf)
        far = -g_max if c < 1.0 else g_max
        for _ in range(60):
            far *= 2.0
            if (_slope(far, g, w) > 0.0) == (c < 1.0):
                up, down = (far, -g_max) if c < 1.0 else (0.0, far)
                a = max(0.0, _inverse(_critical_point(g, w, up, down), g, w))
                break
    if not _singular_in_half(f):
        b = _inverse(_critical_point(g, w, 0.0, -float(np.min(g))), g, w)
    return a, b


def _antiderivative(s: complex, z: complex, g, w) -> complex:
    """Phi = s z + log s - sum w log(s + g).  dPhi/ds is the residual
    z + 1/s - sum w/(s + g), which vanishes on the solution branch, so
    there dPhi/dz = s and Im Phi/pi is the companion CDF."""
    return s * z + cmath.log(s) - complex(w @ np.log(s + g))


def invert_to_distribution(f: SpectralDensity, c: float, x_grid,
                           settings: SolverSettings | None = None
                           ) -> LimitDistribution:
    """Recover the limiting distribution on a positive grid of real points.

    The support [a, b] comes first: the critical values of the explicit
    inverse x(s) on the certified frequency nodes (see _support).  Grid points
    outside it get density 0 and CDF atom0 (below a) or 1 (above b), with
    no solve.  Points inside are solved at z = x + i 1e-8 x from right to
    left, each warm-started from its right neighbour; the first runs the
    cold two-start uniqueness probe.  The density is Im s/pi with the known
    zero atom max(0, 1 - 1/c) removed from s; the companion CDF is
    Im Phi/pi for the antiderivative Phi of the companion transform, on
    the same nodes as the solve, and is mapped to the CDF by
    F = (F_under - (1 - c))/c.  The returned x_grid is the grid passed.
    """
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1 or x.size < 2 or np.any(np.diff(x) <= 0) or x[0] <= 0:
        raise DomainError("x_grid must be positive and strictly increasing")
    if not c > 0:
        raise DomainError("aspect ratio c must be positive")
    settings = settings or SolverSettings()
    atom0 = max(0.0, 1.0 - 1.0 / c)
    g, w = _folded_nodes(f, c, _level(f, c, settings))
    a, b = _support(f, c, g, w)

    rho = np.zeros(x.size)
    cdf = np.where(x <= a, atom0, 1.0)
    resid_max = 0.0
    s_prev = None
    for j in np.nonzero((x > a) & (x < b))[0][::-1]:
        z = complex(x[j], _ETA * x[j])
        pt = solve_limit_density(f, c, z, settings, initial=s_prev)
        s_prev = pt.s_under
        resid_max = max(resid_max, pt.residual)
        rho[j] = max((pt.s + atom0 / z).imag / math.pi, 0.0)
        under = _antiderivative(pt.s_under, z, g, w).imag / math.pi
        cdf[j] = (under - (1.0 - c)) / c
    edges = (a,) if math.isinf(b) else (a, b)
    return LimitDistribution(x, rho, cdf, atom0, c, edges, resid_max)


def default_x_grid(f: SpectralDensity, c: float,
                   n_points: int = 480) -> np.ndarray:
    """Geometric-then-linear grid sized from the transformed-density range.

    The upper end covers the (1 - 3e-4) quantile of 2 pi f scaled by the
    hard-edge factor (1 + sqrt(c))^2, so unbounded densities lose only a
    negligible mass beyond the window.
    """
    if not c > 0:
        raise DomainError("aspect ratio c must be positive")
    if n_points < 16:
        raise DomainError("n_points must be >= 16")
    v = probe_values(f)
    hi_q = float(np.quantile(v, 1.0 - 3e-4))
    top = 1.05 * hi_q * (1.0 + math.sqrt(c)) ** 2
    vmin = float(np.min(v))
    lower_edge = 0.25 * vmin * (1.0 - math.sqrt(c)) ** 2 if c < 1.0 else 0.0
    lo = max(top * 1e-7, lower_edge)
    n_geo = n_points // 4
    knee = top / 16.0
    geo = np.geomspace(lo, knee, n_geo, endpoint=False)
    lin = np.linspace(knee, top, n_points - n_geo)
    return np.concatenate([geo, lin])


# ---------------------------------------------------------------------------
# Truncation ladder for unbounded spectral densities.

@dataclass(frozen=True, eq=False)
class TruncationLadder:
    """Limits of capped densities plus consecutive Levy gaps and masses."""

    caps: tuple[float, ...]
    limits: tuple[LimitDistribution, ...]
    gaps: tuple[float, ...]
    masses: tuple[float, ...]


def truncation_ladder(f: SpectralDensity, c: float, caps,
                      settings: SolverSettings | None = None, *,
                      n_points: int = 360) -> TruncationLadder:
    """Invert the limit for min(f, b) along an increasing ladder of caps b.

    Returns the per-cap limits, the Levy distance between consecutive rungs
    (these contract as the caps exhaust the density), and the total spectral
    mass of each capped density.
    """
    from .metrics import StepCdf, levy_distance
    from .spectral import covariance_from_density, truncate_density

    caps = tuple(float(b) for b in caps)
    if len(caps) < 2 or any(b <= 0 for b in caps) or \
            any(b2 <= b1 for b1, b2 in zip(caps, caps[1:])):
        raise DomainError("caps must be positive and strictly increasing")
    limits = []
    masses = []
    for b in caps:
        fb = truncate_density(f, b)
        grid = default_x_grid(fb, c, n_points)
        limits.append(invert_to_distribution(fb, c, grid, settings))
        masses.append(covariance_from_density(fb, 0))
    gaps = tuple(
        levy_distance(StepCdf.from_limit(limits[i]),
                      StepCdf.from_limit(limits[i + 1]))
        for i in range(len(limits) - 1))
    return TruncationLadder(caps, tuple(limits), gaps, tuple(masses))
