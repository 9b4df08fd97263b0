"""Spectral densities on [-pi, pi] and quantities derived from them.

Conventions used throughout the package:

* densities are even, nonnegative, integrable, in units of spectral mass
  per radian; the lag-k autocovariance is c_k = integral of e^{ik.theta}
  f(theta) d.theta over [-pi, pi] with NO 1/(2pi) prefactor, so the
  constant density sigma^2/(2pi) has c_0 = sigma^2;
* the moving-average representation of a density uses coefficients
  a_k = (2pi)^{-1/2} * integral of e^{ikx} sqrt(f(x)) dx, which for even
  real densities are real and even in k;
* evaluation at a declared singular point returns +inf rather than
  raising, so quadrature layers can split panels around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quadrature
from .errors import DomainError, TailToleranceUnreachable

TWO_PI = 2.0 * math.pi

# Hard cap on the one-sided filter length K (coefficients run over |k| <= K).
MAX_FILTER_HALF_LENGTH = 2**18


@dataclass(frozen=True)
class SpectralDensity:
    """Even nonnegative integrable density on [-pi, pi].

    ``params`` is a family-specific tuple; ``singular_points`` lists the
    lambda values where the density diverges (empty for bounded families).
    ``base`` is set only for the capped family 'truncated-of'; ``table``
    only for 'tabulated' (lambda row, value row, both tuples).
    """

    family: str
    params: tuple[float, ...]
    singular_points: tuple[float, ...] = ()
    base: "SpectralDensity | None" = None
    table: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def __call__(self, lam):
        return eval_density(self, lam)


def constant_density(sigma2: float = 1.0) -> SpectralDensity:
    """Flat density sigma^2/(2pi): i.i.d. entries with variance sigma^2."""
    if sigma2 <= 0:
        raise DomainError("sigma2 must be positive")
    return SpectralDensity("constant", (float(sigma2),))


def ar1_density(phi: float, sigma2: float = 1.0) -> SpectralDensity:
    """Autoregressive lag-1 density sigma^2 / (2pi |1 - phi e^{i.lam}|^2).

    sigma2 is the innovation variance; c_k = sigma2 phi^|k| / (1 - phi^2).
    """
    if not -1.0 < phi < 1.0:
        raise DomainError("phi must lie in (-1, 1)")
    if sigma2 <= 0:
        raise DomainError("sigma2 must be positive")
    return SpectralDensity("ar1", (float(phi), float(sigma2)))


def ma1_density(theta: float, sigma2: float = 1.0) -> SpectralDensity:
    """Moving-average lag-1 density sigma^2 |1 + theta e^{i.lam}|^2 / (2pi)."""
    if sigma2 <= 0:
        raise DomainError("sigma2 must be positive")
    return SpectralDensity("ma1", (float(theta), float(sigma2)))


def fractional_density(d: float, sigma2: float = 1.0) -> SpectralDensity:
    """Long-memory density sigma^2 |2 sin(lam/2)|^{-2d} / (2pi), d in (0, 1/2).

    Diverges at lam = 0; for d >= 1/4 it is integrable but not
    square-integrable, which is the regime the truncation ladder exists for.
    """
    if not 0.0 < d < 0.5:
        raise DomainError("d must lie in (0, 1/2)")
    if sigma2 <= 0:
        raise DomainError("sigma2 must be positive")
    return SpectralDensity("fractional", (float(d), float(sigma2)), (0.0,))


def tabulated_density(lams, vals) -> SpectralDensity:
    """Piecewise-linear density from samples on [0, pi], mirrored evenly."""
    lams = np.asarray(lams, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if lams.ndim != 1 or lams.size < 2 or lams.shape != vals.shape:
        raise DomainError("table needs two equal-length rows with >= 2 points")
    if np.any(np.diff(lams) <= 0):
        raise DomainError("table lambda column must be strictly increasing")
    if lams[0] < 0 or lams[-1] > math.pi:
        raise DomainError("table lambda values must lie in [0, pi]")
    if np.any(vals < 0) or not np.all(np.isfinite(vals)):
        raise DomainError("table values must be finite and nonnegative")
    return SpectralDensity("tabulated", (), table=(tuple(map(float, lams)),
                                                   tuple(map(float, vals))))


def truncate_density(f: SpectralDensity, b: float) -> SpectralDensity:
    """Pointwise cap min(f, b); the result is bounded with no singular points."""
    if b <= 0:
        raise DomainError("cap b must be positive")
    return SpectralDensity("truncated-of", (float(b),), (), base=f)


@lru_cache(maxsize=None)
def _table_arrays(f: SpectralDensity):
    lams, vals = f.table
    return np.asarray(lams), np.asarray(vals)


def density_values(f: SpectralDensity, lam: np.ndarray) -> np.ndarray:
    """Vectorized evaluation; +inf at singular points, no domain checks."""
    lam = np.asarray(lam, dtype=float)
    if f.family == "constant":
        (s2,) = f.params
        return np.full(lam.shape, s2 / TWO_PI)
    if f.family == "ar1":
        phi, s2 = f.params
        return s2 / (TWO_PI * (1.0 - 2.0 * phi * np.cos(lam) + phi * phi))
    if f.family == "ma1":
        th, s2 = f.params
        return s2 * (1.0 + 2.0 * th * np.cos(lam) + th * th) / TWO_PI
    if f.family == "fractional":
        d, s2 = f.params
        base = np.abs(2.0 * np.sin(lam / 2.0))
        with np.errstate(divide="ignore"):
            out = s2 / TWO_PI * base ** (-2.0 * d)
        return out
    if f.family == "tabulated":
        xs, ys = _table_arrays(f)
        return np.interp(np.abs(lam), xs, ys)
    if f.family == "truncated-of":
        (b,) = f.params
        return np.minimum(density_values(f.base, lam), b)
    raise DomainError(f"unknown density family {f.family!r}")


def probe_values(f: SpectralDensity) -> np.ndarray:
    """The finite values of 2 pi f at 16385 equispaced points of [0, pi],
    from whose quantiles plotting and solver windows are sized."""
    v = TWO_PI * density_values(f, np.linspace(0.0, math.pi, 16385))
    v = v[np.isfinite(v)]
    if v.size == 0:
        raise DomainError(
            "density evaluates to +inf everywhere on the probe grid")
    return v


def eval_density(f: SpectralDensity, lam: float) -> float:
    """Density value at a single lam in [-pi, pi]; +inf marks a singularity."""
    if not -math.pi <= lam <= math.pi:
        raise DomainError("lambda outside [-pi, pi]")
    return float(density_values(f, np.asarray([lam]))[0])


def _singular_in_half(f: SpectralDensity) -> tuple[float, ...]:
    # Singular abscissae folded into [0, pi] (densities are even).
    return tuple(sorted({abs(s) for s in f.singular_points}))


def _refine_points(f: SpectralDensity) -> tuple[float, ...]:
    # Non-singular abscissae worth panel refinement: cap crossings of a
    # truncated density and the node kinks of a tabulated one.
    if f.family == "tabulated":
        return tuple(f.table[0][1:-1])
    if f.family == "truncated-of":
        (b,) = f.params
        marks = list(_refine_points(f.base))
        grid = np.linspace(0.0, math.pi, 8193)
        v = density_values(f.base, grid) - b
        sign = np.sign(v)
        for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
            lo, hi = grid[i], grid[i + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if sign[i] * (float(density_values(f.base, np.asarray([mid]))[0]) - b) > 0:
                    lo = mid
                else:
                    hi = mid
            marks.append(0.5 * (lo + hi))
        return tuple(sorted(marks))
    return ()


@lru_cache(maxsize=None)
def _cosine_block(f: SpectralDensity, k_cap: int, kind: str,
                  rel_tol: float) -> np.ndarray:
    fn = {
        "density": lambda x: density_values(f, x),
        "root": lambda x: np.sqrt(density_values(f, x)),
    }[kind]
    marks = _singular_in_half(f) + _refine_points(f)
    out = quadrature.cosine_coefficients(fn, k_cap, singular=marks,
                                         rel_tol=rel_tol)
    out.flags.writeable = False
    return out


def covariance_sequence(f: SpectralDensity, max_lag: int) -> np.ndarray:
    """Autocovariances c_0..c_max_lag under the un-normalized convention."""
    if max_lag < 0:
        raise DomainError("max_lag must be >= 0")
    k_cap = 1 << max(3, int(max_lag - 1).bit_length())
    block = _cosine_block(f, k_cap, "density", 1e-10)
    return 2.0 * block[: max_lag + 1]


def covariance_from_density(f: SpectralDensity, k: int) -> float:
    """Lag-k autocovariance c_k = integral of e^{ik.theta} f over [-pi, pi]."""
    return float(covariance_sequence(f, abs(int(k)))[abs(int(k))])


@dataclass(frozen=True, eq=False)
class LinearFilter:
    """Finite real filter a_k, k in [-offset, len(coeffs)-1-offset].

    ``tail_bound`` certifies the discarded mass: the sum of a_k^2 over the
    dropped indices is at most tail_bound.  Causal filters have offset 0.
    """

    offset: int
    coeffs: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("coeffs must be a nonempty 1-d sequence")
        if not 0 <= self.offset < arr.size:
            raise DomainError("offset must index into coeffs")
        if self.tail_bound < 0:
            raise DomainError("tail_bound must be >= 0")

    @property
    def k_min(self) -> int:
        return -self.offset

    @property
    def k_max(self) -> int:
        return self.coeffs.size - 1 - self.offset

    @property
    def is_causal(self) -> bool:
        return self.offset == 0

    def sum_sq(self) -> float:
        return float(np.dot(self.coeffs, self.coeffs))

    def shifted_causal(self) -> "LinearFilter":
        """Time-shifted copy starting at lag 0.

        Shifting a stationary moving average in time does not change its
        law, so a two-sided filter can be profiled or simulated through the
        causal code path after this reindexing.
        """
        return LinearFilter(0, self.coeffs, self.tail_bound)


def check_tail_tol(tail_tol) -> float:
    """The filter's relative tail tolerance as a float; DomainError unless
    it is positive (NaN included)."""
    tail_tol = float(tail_tol)
    if not tail_tol > 0:
        raise DomainError("tail_tol must be positive")
    return tail_tol


def filter_from_density(f: SpectralDensity, tail_tol: float = 1e-6,
                        hard_cap: int = MAX_FILTER_HALF_LENGTH) -> LinearFilter:
    """Symmetric-support moving-average filter reproducing the density f.

    a_k come from singularity-refined quadrature of cos(kx) sqrt(f(x)),
    cached per (f, K); the half-length K doubles from 64 until the
    certified discarded tail
    c_0 - sum of a_k^2 drops below tail_tol * c_0.  Raises
    TailToleranceUnreachable if that needs K beyond hard_cap.
    """
    check_tail_tol(tail_tol)
    c0 = covariance_from_density(f, 0)
    scale = 2.0 / math.sqrt(TWO_PI)
    k = 64
    while True:
        a = scale * _cosine_block(f, k, "root", 1e-10)
        sum_sq = a[0] ** 2 + 2.0 * float(np.dot(a[1:], a[1:]))
        tail = max(c0 - sum_sq, 0.0)
        if tail <= tail_tol * c0:
            coeffs = np.concatenate([a[:0:-1], a])
            return LinearFilter(offset=k, coeffs=coeffs, tail_bound=tail)
        if k >= hard_cap:
            raise TailToleranceUnreachable(
                f"tail mass {tail:.3e} still above {tail_tol:.1e} * c0 at "
                f"half-length K={k}; raising K past the hard cap {hard_cap} "
                f"is refused")
        k = min(2 * k, hard_cap)


def regularity_profile(filt: LinearFilter, m: int) -> float:
    """Tail root-mass (sum of a_k^2 for k >= m)^(1/2) of a causal filter.

    Only causal filters are accepted: the profile is defined against the
    one-sided innovation filtration, and a two-sided filter has no such
    reading (use shifted_causal() first, which preserves the law).  The
    analogous conditional-mixing profile of general nonlinear rows has no
    closed form and is deliberately not computed anywhere in this package.
    """
    if not filt.is_causal:
        raise DomainError("regularity profile requires a causal filter")
    if m < 0:
        raise DomainError("m must be >= 0")
    tail = filt.coeffs[m:]
    return float(math.sqrt(np.dot(tail, tail))) if tail.size else 0.0


def _extrema_marks(f: SpectralDensity) -> tuple[float, ...]:
    # Interior stationary points of the density, located by a coarse scan
    # plus golden-section refinement; endpoints 0 and pi are always marks.
    grid = np.linspace(0.0, math.pi, 8193)
    v = density_values(f, grid)
    finite = np.isfinite(v)
    dv = np.diff(np.where(finite, v, np.nan))
    marks = []
    flips = np.nonzero(dv[:-1] * dv[1:] < 0)[0]
    inv_gold = (math.sqrt(5.0) - 1.0) / 2.0
    for i in flips:
        lo, hi = grid[i], grid[i + 2]
        maximize = dv[i] > 0
        a, b = lo, hi
        x1 = b - inv_gold * (b - a)
        x2 = a + inv_gold * (b - a)
        f1 = float(density_values(f, np.asarray([x1]))[0])
        f2 = float(density_values(f, np.asarray([x2]))[0])
        for _ in range(80):
            take_left = (f1 > f2) if maximize else (f1 < f2)
            if take_left:
                b, x2, f2 = x2, x1, f1
                x1 = b - inv_gold * (b - a)
                f1 = float(density_values(f, np.asarray([x1]))[0])
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + inv_gold * (b - a)
                f2 = float(density_values(f, np.asarray([x2]))[0])
        marks.append(0.5 * (a + b))
    return tuple(marks)


def _pushforward_cells(f: SpectralDensity, level: int):
    # Sample 2.pi.f on [0, pi] with dyadic clustering toward every mark, and
    # return per-cell (width, vmin, vmax) for the measure computation.
    marks = sorted(set(_singular_in_half(f)) | set(_refine_points(f))
                   | set(_extrema_marks(f)) | {0.0, math.pi})
    pieces = [np.linspace(0.0, math.pi, 2**level + 1)]
    window = math.pi / 64.0
    for m in marks:
        lo = max(0.0, m - window)
        hi = min(math.pi, m + window)
        if m > lo:
            pieces.append(quadrature._ladder(m, lo))
        if hi > m:
            pieces.append(quadrature._ladder(m, hi))
    edges = np.unique(np.concatenate(pieces))
    v = TWO_PI * density_values(f, edges)
    lo = np.minimum(v[:-1], v[1:])
    hi = np.maximum(v[:-1], v[1:])
    width = np.diff(edges)
    keep = np.isfinite(lo)  # cells touching a singular edge carry ~0 width
    return width[keep], lo[keep], np.where(np.isfinite(hi[keep]), hi[keep], np.inf)


def _measure_cdf(width, vlo, vhi, x_grid):
    # Law of the linear interpolant of 2.pi.f under uniform lambda: each cell
    # is a ramp from vlo to vhi carrying mass width/pi; flat cells are atoms.
    flat = vhi - vlo <= 1e-300
    ramp = ~flat & np.isfinite(vhi)
    atoms_x = vlo[flat]
    atoms_w = width[flat]
    starts = vlo[ramp]
    stops = vhi[ramp]
    slopes = width[ramp] / (stops - starts)
    events = np.concatenate([starts, stops])
    deltas = np.concatenate([slopes, -slopes])
    order = np.argsort(events, kind="stable")
    events = events[order]
    cum_slope = np.cumsum(deltas[order])
    seg = np.diff(events)
    mass = np.concatenate([[0.0], np.cumsum(cum_slope[:-1] * seg)])
    idx = np.searchsorted(events, x_grid, side="right") - 1
    out = np.zeros(len(x_grid))
    inside = idx >= 0
    ii = idx[inside]
    out[inside] = mass[ii] + cum_slope[ii] * (x_grid[inside] - events[ii])
    total = mass[-1] if events.size else 0.0
    out = np.minimum(out, total)
    if atoms_x.size:
        aorder = np.argsort(atoms_x)
        ax, aw = atoms_x[aorder], np.cumsum(atoms_w[aorder])
        j = np.searchsorted(ax, x_grid, side="right")
        out += np.where(j > 0, aw[np.maximum(j - 1, 0)], 0.0)
    return np.minimum(out / math.pi, 1.0)


def h_pushforward(f: SpectralDensity, x_grid) -> np.ndarray:
    """CDF of 2.pi.f(U), U uniform on [-pi, pi], evaluated on x_grid.

    This is the limiting eigenvalue law of the pure-covariance (Toeplitz)
    matrices built from f.  Computed by measuring {lambda : 2.pi.f <= x}
    on a refined sampling of [0, pi]; two sampling resolutions must agree
    to 1e-7 in sup norm or QuadratureError is raised.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.ndim != 1 or x_grid.size == 0 or np.any(np.diff(x_grid) <= 0):
        raise DomainError("x_grid must be nonempty and strictly increasing")
    prev = None
    for level in (15, 16, 17):
        cur = _measure_cdf(*_pushforward_cells(f, level), x_grid)
        # cell measures carry ~1e-11 sampling jitter; a CDF must not dip
        cur = np.maximum.accumulate(cur)
        if prev is not None and float(np.max(np.abs(cur - prev))) <= 1e-7:
            return cur
        prev = cur
    raise quadrature.QuadratureError(
        "pushforward CDF did not stabilize across sampling resolutions")


def density_from_spec(spec: dict, base_dir=None) -> SpectralDensity:
    """Build a density from a declarative mapping (config-file form)."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise DomainError("density spec must be a mapping with a 'family' key")
    fam = spec["family"]
    sigma2 = float(spec.get("sigma2", 1.0))
    if fam == "constant":
        return constant_density(sigma2)
    if fam == "ar1":
        return ar1_density(float(spec["phi"]), sigma2)
    if fam == "ma1":
        return ma1_density(float(spec["theta"]), sigma2)
    if fam == "fractional":
        return fractional_density(float(spec["d"]), sigma2)
    if fam == "tabulated":
        import os
        path = spec["path"]
        if base_dir is not None:
            path = os.path.join(base_dir, path)
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] != 2:
            raise DomainError("tabulated density file must have two columns")
        return tabulated_density(data[:, 0], data[:, 1])
    if fam == "truncated-of":
        inner = {k: v for k, v in spec.items() if k not in ("family", "cap")}
        inner["family"] = spec["base_family"]
        del inner["base_family"]
        return truncate_density(density_from_spec(inner, base_dir),
                                float(spec["cap"]))
    raise DomainError(f"unknown density family {fam!r}")
