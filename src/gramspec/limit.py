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

Every solve certifies its own frequency-grid level, walking up from the
coarsest until its residual on the next level's nodes meets the solver
tolerance, both as it stands and as the error in s it implies; the support
edges walk up until two levels agree to the quadrature tolerance.  The
Newton target and the certificate have a floor of a few eps |z|, the
rounding error of the residual itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _arrays, _kernels, quadrature
from .errors import (DomainError, HerglotzLoss, NonConvergence,
                     QuadratureError, UniquenessError)
from .spectral import (SpectralDensity, TWO_PI, _marks, _singular_in_half,
                       density_values, probe_values)

# Reciprocal transformed-density values above this are treated as infinite
# bins; the induced integral error is ~ c / _G_CAP, far below certificates.
_G_CAP = 1e14

_DUAL_START_TOL = 1e-9
_EPS = float(np.finfo(np.float64).eps)
_MAX_LEVEL = 9
# Newton iterations one start may take before NonConvergence.
_MAX_ITER = 10_000
# Points of a default grid unless a caller sets them.
DEFAULT_GRID_POINTS = 480


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances of the solver: tol, the residual each solve must meet on
    the next grid level (solve_limit_density); quad_tol, the relative gap
    that certifies the support edges of two consecutive levels
    (_certified_support).  Each start may take _MAX_ITER Newton steps."""

    tol: float = 1e-12
    quad_tol: float = 1e-10

    def __post_init__(self):
        if not self.tol > 0:
            raise DomainError("tol must be positive")
        if not self.quad_tol > 0:
            raise DomainError("quad_tol must be positive")


class LimitPoint(NamedTuple):
    """One accepted solve: companion transform, plain one, grid level."""

    s_under: complex
    s: complex
    residual: float
    iterations: int
    level: int


def companion_inverse(s_under: complex, c: float, z: complex) -> complex:
    """Invert the companion relation s_under = -(1 - c)/z + c s:
    s = (s_under + (1 - c)/z) / c."""
    return (s_under + (1.0 - c) / z) / c


# ---------------------------------------------------------------------------
# Frequency-grid construction.

@lru_cache(maxsize=64)
def _nodes(f: SpectralDensity, c: float, level: int):
    # The level's nodes g = 1/(2 pi f(lam)) and weights folded by c/pi, so
    # that the lambda-integral is sum w/(s + g); both read-only and held
    # once per (f, c, level).
    lam, w = quadrature.gauss_nodes(
        quadrature.build_edges(singular=_marks(f), base=64 * 2**level))
    fv = density_values(f, lam)
    with np.errstate(divide="ignore"):
        g = 1.0 / (TWO_PI * fv)
    g = np.minimum(g, _G_CAP)    # f == 0 stretches become negligible bins
    g[~np.isfinite(fv)] = 0.0    # singular points: 1/(2 pi f) -> 0
    w = w * (c / math.pi)
    g.flags.writeable = False
    w.flags.writeable = False
    return g, w


# ---------------------------------------------------------------------------
# Certified solve at one z.  Node weights arrive folded: the kernel
# equation is z = -1/s + sum w/(s + g).

def _run_start(z: complex, g, w, s0: complex, settings: SolverSettings,
               tol: float | None = None) -> tuple[complex, float, int]:
    # rounding in z + 1/s - sum w/(s + g) alone is about eps |z|, so the
    # default target never asks for less
    target = max(0.5 * settings.tol, 8.0 * _EPS * abs(z)) if tol is None \
        else tol
    s, resid, iters, status = _kernels.fixed_point(
        z, g, w, s0, target, _MAX_ITER)
    if status == 1:
        raise NonConvergence(
            f"Newton solve at z={z!r} still has residual {resid:.3e} after "
            f"{_MAX_ITER} iterations", resid)
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


def solve_limit_density(f: SpectralDensity, c: float, z: complex,
                        settings: SolverSettings | None = None, *,
                        initial: complex | None = None) -> LimitPoint:
    """Solve the limiting equation for spectral density f at one z in C+.

    With no `initial`, runs the two canonical starts -1/z and i and requires
    them to agree (uniqueness probe); a warm start skips the probe.  Levels
    L = 0 .. _MAX_LEVEL are tried in turn, each from the last one's iterate,
    and L stands when the residual r on the level-(L + 1) nodes meets
    r <= tol and r <= tol |s x'(s)| (x' on the level-L nodes): the error in
    s that r stands for, r / |x'(s)|, is within tol of |s|.  Both bounds
    have a floor of 16 eps |z|."""
    z = complex(z)
    if not (z.imag > 0 and cmath.isfinite(z)):
        raise DomainError("z must be finite and lie in the open upper "
                          "half-plane")
    if not 0 < c < math.inf:
        raise DomainError("aspect ratio c must be finite and positive")
    settings = settings or SolverSettings()
    total_iters = 0
    for level in range(_MAX_LEVEL + 1):
        g, w = _nodes(f, c, level)
        if initial is None:
            s, it = _dual_start(z, g, w, settings)
        else:
            s, _, it = _run_start(z, g, w, initial, settings)
        total_iters += it
        g_fine, w_fine = _nodes(f, c, level + 1)
        resid_fine = abs(z + 1.0 / s - complex(np.sum(w_fine / (s + g_fine))))
        # below the rounding floor the slope is not needed, so not computed
        if resid_fine <= 16.0 * _EPS * abs(z) or resid_fine <= settings.tol \
                * min(1.0, abs(s * _slope(s, g, w))):
            s_plain = companion_inverse(s, c, z)
            if s_plain.imag <= 0:
                raise HerglotzLoss(
                    f"recovered transform has Im <= 0 at z={z!r}")
            return LimitPoint(s, s_plain, resid_fine, total_iters, level)
        initial = s
    raise QuadratureError(
        f"residual certificate kept failing at z={z!r} through grid "
        f"level {_MAX_LEVEL}")


# ---------------------------------------------------------------------------
# Inversion on the real axis: exact support, density and CDF.

def check_x_grid(x_grid) -> np.ndarray:
    """The evaluation grid as a float array; DomainError unless it is 1-d,
    of length >= 2, positive and strictly increasing (NaN fails)."""
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1 or x.size < 2 or not np.all(np.diff(x) > 0) \
            or not x[0] > 0:
        raise DomainError("x_grid must be a 1-d array of at least two "
                          "positive, strictly increasing values")
    return x


def check_grid_points(n_points: int) -> int:
    """DomainError unless a default grid of n_points can be laid out."""
    if n_points < 16:
        raise DomainError("n_points must be >= 16")
    return n_points


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
        x = check_x_grid(self.x_grid)
        rho = np.asarray(self.density, dtype=float)
        cdf = np.asarray(self.cdf, dtype=float)
        if rho.shape != x.shape or cdf.shape != x.shape:
            raise DomainError("density and cdf must match x_grid's shape")
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


def _slope(s: complex, g: np.ndarray, w: np.ndarray) -> complex:
    """x'(s) of the inverse x(s) = -1/s + sum w/(s + g), real for a real s."""
    return 1.0 / (s * s) - np.sum(w / (s + g) ** 2)


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


def _certified_support(f: SpectralDensity, c: float,
                       quad_tol: float) -> tuple[float, float]:
    """_support on the coarsest grid level whose edges both agree with the
    next level's to quad_tol relative; an infinite b agrees with itself."""
    edges = _support(f, c, *_nodes(f, c, 0))
    for level in range(1, _MAX_LEVEL + 2):
        finer = _support(f, c, *_nodes(f, c, level))
        if all(math.isclose(e, e_fine, rel_tol=quad_tol)
               for e, e_fine in zip(edges, finer)):
            return edges
        edges = finer
    raise QuadratureError(f"support edges moved by over {quad_tol:.2e} "
                          f"at every grid level through {_MAX_LEVEL}")


def _antiderivative_imag(s: complex, z: complex, g, w) -> float:
    """Im Phi for Phi = s z + log s - sum w log(s + g).  dPhi/ds is the
    residual z + 1/s - sum w/(s + g), which vanishes on the solution
    branch, so there dPhi/dz = s and Im Phi/pi is the companion CDF.  The
    imaginary part of a principal log is the argument, so Im Phi is read as
    Im(s z) + arg s - sum w atan2(Im s, Re s + g), one real pass over the
    nodes and no complex log."""
    return ((s * z).imag + math.atan2(s.imag, s.real)
            - float(w @ np.arctan2(s.imag, s.real + g)))


def invert_to_distribution(f: SpectralDensity, c: float, x_grid,
                           settings: SolverSettings | None = None
                           ) -> LimitDistribution:
    """Recover the limiting distribution on a positive grid of real points.

    The support [a, b] comes first: the critical values of the explicit
    inverse x(s) on the nodes of the level that certifies them
    (_certified_support).  Grid points outside it get density 0 and CDF
    atom0 (below a) or 1 (above b), with no solve.  Points inside are
    solved at z = x + i 1e-8 x from right to left, each warm-started from
    its right neighbour; the first runs the cold two-start uniqueness
    probe.  The density is Im s/pi with the known zero atom
    max(0, 1 - 1/c) removed from s; the companion CDF is Im Phi/pi for the
    antiderivative Phi of the companion transform, on the nodes of the
    solve's level, and is mapped to the CDF by F = (F_under - (1 - c))/c.
    The returned x_grid is the grid passed.
    """
    x = check_x_grid(x_grid)
    if not 0 < c < math.inf:
        raise DomainError("aspect ratio c must be finite and positive")
    settings = settings or SolverSettings()
    atom0 = max(0.0, 1.0 - 1.0 / c)
    a, b = _certified_support(f, c, settings.quad_tol)

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
        under = _antiderivative_imag(pt.s_under, z,
                                     *_nodes(f, c, pt.level)) / math.pi
        cdf[j] = (under - (1.0 - c)) / c
    edges = (a,) if math.isinf(b) else (a, b)
    return LimitDistribution(x, rho, cdf, atom0, c, edges, resid_max)


def default_x_grid(f: SpectralDensity, c: float,
                   n_points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Geometric-then-linear grid sized from the transformed-density range.

    The upper end covers the (1 - 3e-4) quantile of 2 pi f scaled by the
    hard-edge factor (1 + sqrt(c))^2, so unbounded densities lose only a
    negligible mass beyond the window.
    """
    if not c > 0:
        raise DomainError("aspect ratio c must be positive")
    check_grid_points(n_points)
    v = probe_values(f)
    hi_q = float(_arrays.quantiles(v, 1.0 - 3e-4))
    top = 1.05 * hi_q * (1.0 + math.sqrt(c)) ** 2
    vmin = float(np.min(v))
    lower_edge = 0.25 * vmin * (1.0 - math.sqrt(c)) ** 2 if c < 1.0 else 0.0
    lo = max(top * 1e-7, lower_edge)
    n_geo = n_points // 4
    # a flat density at small c lifts lo past top/16; lo <= 0.24 top always
    # (vmin <= hi_q), so a knee at 2 lo keeps both runs increasing
    knee = max(top / 16.0, 2.0 * lo)
    geo = np.geomspace(lo, knee, n_geo, endpoint=False)
    lin = np.linspace(knee, top, n_points - n_geo)
    return check_x_grid(np.concatenate([geo, lin]))


# ---------------------------------------------------------------------------
# Truncation ladder for unbounded spectral densities.

@dataclass(frozen=True, eq=False)
class TruncationLadder:
    """Limits of capped densities plus consecutive Levy gaps and masses."""

    caps: tuple[float, ...]
    limits: tuple[LimitDistribution, ...]
    gaps: tuple[float, ...]
    masses: tuple[float, ...]


def check_caps(caps) -> tuple[float, ...]:
    """The caps of a truncation ladder as floats; DomainError unless there
    are at least two, all finite, positive and strictly increasing (NaN
    fails)."""
    caps = tuple(float(b) for b in caps)
    if len(caps) < 2:
        raise DomainError(f"caps need at least two entries, got {len(caps)}")
    if not all(0 < b < math.inf for b in caps) or \
            not all(b2 > b1 for b1, b2 in zip(caps, caps[1:])):
        raise DomainError("caps must be finite, positive and strictly "
                          "increasing")
    return caps


def truncation_ladder(f: SpectralDensity, c: float, caps,
                      settings: SolverSettings | None = None, *,
                      n_points: int = DEFAULT_GRID_POINTS) -> TruncationLadder:
    """Invert the limit for min(f, b) along an increasing ladder of caps b.

    Returns the per-cap limits, the Levy distance between consecutive rungs
    (these contract as the caps exhaust the density), and the total spectral
    mass of each capped density.
    """
    from .metrics import StepCdf, levy_distance
    from .spectral import covariance_from_density, truncate_density

    caps = check_caps(caps)
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
