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
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quadrature
from .errors import DomainError, TailToleranceUnreachable

TWO_PI = 2.0 * math.pi

# Hard cap on the one-sided filter length K (coefficients run over |k| <= K).
MAX_FILTER_HALF_LENGTH = 2**18
# The filter's relative tail tolerance unless a caller sets one.
DEFAULT_TAIL_TOL = 1e-6


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


def constant_density(sigma2: float = 1.0) -> SpectralDensity:
    """Flat density sigma^2/(2pi): i.i.d. entries with variance sigma^2."""
    if not 0 < sigma2 < math.inf:
        raise DomainError("sigma2 must be finite and positive")
    return SpectralDensity("constant", (float(sigma2),))


def ar1_density(phi: float, sigma2: float = 1.0) -> SpectralDensity:
    """Autoregressive lag-1 density sigma^2 / (2pi |1 - phi e^{i.lam}|^2).

    sigma2 is the innovation variance; c_k = sigma2 phi^|k| / (1 - phi^2).
    """
    if not -1.0 < phi < 1.0:
        raise DomainError("phi must lie in (-1, 1)")
    if not 0 < sigma2 < math.inf:
        raise DomainError("sigma2 must be finite and positive")
    return SpectralDensity("ar1", (float(phi), float(sigma2)))


def ma1_density(theta: float, sigma2: float = 1.0) -> SpectralDensity:
    """Moving-average lag-1 density sigma^2 |1 + theta e^{i.lam}|^2 / (2pi)."""
    if not math.isfinite(theta):
        raise DomainError("theta must be finite")
    if not 0 < sigma2 < math.inf:
        raise DomainError("sigma2 must be finite and positive")
    return SpectralDensity("ma1", (float(theta), float(sigma2)))


def fractional_density(d: float, sigma2: float = 1.0) -> SpectralDensity:
    """Long-memory density sigma^2 |2 sin(lam/2)|^{-2d} / (2pi), d in (0, 1/2).

    Diverges at lam = 0; for d >= 1/4 it is integrable but not
    square-integrable, which is the regime the truncation ladder exists for.
    """
    if not 0.0 < d < 0.5:
        raise DomainError("d must lie in (0, 1/2)")
    if not 0 < sigma2 < math.inf:
        raise DomainError("sigma2 must be finite and positive")
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
    if not 0 < b < math.inf:
        raise DomainError("cap b must be finite and positive")
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


def _singular_in_half(f: SpectralDensity) -> tuple[float, ...]:
    # Singular abscissae folded into [0, pi] (densities are even).
    return tuple(sorted({abs(s) for s in f.singular_points}))


def _refine_points(f: SpectralDensity) -> tuple[float, ...]:
    # Non-singular abscissae worth panel refinement: cap crossings of a
    # truncated density and the node kinks of a tabulated one.  np.interp
    # holds a table flat past its end knots, so those are kinks too.
    if f.family == "tabulated":
        return tuple(lam for lam in f.table[0] if 0.0 < lam < math.pi)
    if f.family == "truncated-of":
        (b,) = f.params
        marks = list(_refine_points(f.base))
        for lo, hi, vlo, vhi in _monotone_pieces(f.base):
            if min(vlo, vhi) < b < max(vlo, vhi):
                end = _level_set_ends(f.base, lo, hi, vlo < vhi,
                                      np.asarray([b]))
                marks.append(float(end[0]))
        return tuple(sorted(marks))
    return ()


def _marks(f: SpectralDensity) -> tuple[float, ...]:
    # Every abscissa of [0, pi] where f is singular or has a kink, sorted:
    # the points quadrature panels and monotone pieces split at.
    return tuple(sorted({*_singular_in_half(f), *_refine_points(f)}))


def _monotone_pieces(f: SpectralDensity):
    # (lo, hi, f(lo), f(hi)) for each stretch of [0, pi] between consecutive
    # marks.  Every family is monotone between its singular points and
    # refine points (an extremum sits at 0, at pi or at a table knot), so f
    # is monotone on each piece and constant where f(lo) == f(hi).
    marks = sorted({0.0, math.pi, *_marks(f)})
    vals = density_values(f, np.asarray(marks))
    return zip(marks[:-1], marks[1:], vals[:-1].tolist(), vals[1:].tolist())


def _level_set_ends(f: SpectralDensity, lo: float, hi: float, rising: bool,
                    levels: np.ndarray) -> np.ndarray:
    # Inner end t of {lam in [lo, hi] : f(lam) <= y} for every level y, on
    # a piece where f rises (the set is [lo, t]) or falls ([t, hi]).  All
    # levels halve along one dyadic tree, and two levels part at the first
    # midpoint where they disagree, so t is monotone in y even where f
    # rounds non-monotonically.
    a = np.full(levels.shape, float(lo))
    b = np.full(levels.shape, float(hi))
    for _ in range(60):
        mid = 0.5 * (a + b)
        right = (density_values(f, mid) <= levels) == rising
        a = np.where(right, mid, a)
        b = np.where(right, b, mid)
    return 0.5 * (a + b)


@lru_cache(maxsize=None)
def _cosine_block(f: SpectralDensity, k_cap: int, kind: str) -> np.ndarray:
    fn = {
        "density": lambda x: density_values(f, x),
        "root": lambda x: np.sqrt(density_values(f, x)),
    }[kind]
    out = quadrature.cosine_coefficients(fn, k_cap, singular=_marks(f))
    out.flags.writeable = False
    return out


def covariance_sequence(f: SpectralDensity, max_lag: int) -> np.ndarray:
    """Autocovariances c_0..c_max_lag under the un-normalized convention."""
    if max_lag < 0:
        raise DomainError("max_lag must be >= 0")
    k_cap = 1 << max(3, int(max_lag - 1).bit_length())
    block = _cosine_block(f, k_cap, "density")
    return 2.0 * block[: max_lag + 1]


def covariance_from_density(f: SpectralDensity, k: int) -> float:
    """Lag-k autocovariance c_k = integral of e^{ik.theta} f over [-pi, pi]."""
    return float(covariance_sequence(f, abs(int(k)))[abs(int(k))])


@dataclass(frozen=True, eq=False)
class LinearFilter:
    """Finite real filter a_k, k in [-offset, len(coeffs)-1-offset].

    ``tail_bound`` certifies the discarded mass: the sum of a_k^2 over the
    dropped indices is at most tail_bound.
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
        if not 0 <= self.tail_bound < math.inf:
            raise DomainError("tail_bound must be finite and >= 0")


def check_tail_tol(tail_tol) -> float:
    """The filter's relative tail tolerance as a float; DomainError unless
    it is positive (NaN included)."""
    tail_tol = float(tail_tol)
    if not tail_tol > 0:
        raise DomainError("tail_tol must be positive")
    return tail_tol


def filter_from_density(f: SpectralDensity,
                        tail_tol: float = DEFAULT_TAIL_TOL) -> LinearFilter:
    """Symmetric-support moving-average filter reproducing the density f.

    a_k come from singularity-refined quadrature of cos(kx) sqrt(f(x)),
    cached per (f, K); the half-length K doubles from 64 until the
    certified discarded tail c_0 - sum of a_k^2 drops below
    tail_tol * c_0.  Raises TailToleranceUnreachable if that needs K beyond
    MAX_FILTER_HALF_LENGTH.
    """
    filt, k, tail = _filter_walk(f, tail_tol, lambda k: True)
    if filt is None:
        raise TailToleranceUnreachable(
            f"tail mass {tail:.3e} still above {tail_tol:.1e} * c0 at "
            f"half-length K={k}; raising K past the hard cap "
            f"{MAX_FILTER_HALF_LENGTH} is refused")
    return filt


def _filter_walk(f: SpectralDensity, tail_tol: float, fits):
    # filter_from_density's doubling of K from 64 up to the hard cap, taken
    # while fits(K) holds: the filter at the first K whose tail certifies,
    # else None, with the K the walk stopped at and the last tail computed.
    check_tail_tol(tail_tol)
    c0 = covariance_from_density(f, 0)
    scale = 2.0 / math.sqrt(TWO_PI)
    k, tail = 64, math.inf
    while fits(k):
        a = scale * _cosine_block(f, k, "root")
        sum_sq = a[0] ** 2 + 2.0 * float(np.dot(a[1:], a[1:]))
        tail = max(c0 - sum_sq, 0.0)
        if tail <= tail_tol * c0:
            coeffs = np.concatenate([a[:0:-1], a])
            return LinearFilter(offset=k, coeffs=coeffs, tail_bound=tail), \
                k, tail
        if k >= MAX_FILTER_HALF_LENGTH:
            break
        k = min(2 * k, MAX_FILTER_HALF_LENGTH)
    return None, k, tail


def h_pushforward(f: SpectralDensity, x_grid) -> np.ndarray:
    """CDF of 2.pi.f(U), U uniform on [-pi, pi], evaluated on x_grid.

    H(x) = |{lambda in [0, pi] : 2.pi.f(lambda) <= x}| / pi is the limiting
    eigenvalue law of the Toeplitz covariance matrices built from f (first
    Szego theorem; Tilli 1998 extends it to every f in L^1, long memory
    included).  f is monotone between consecutive marks (0, pi, singular
    points, table knots, cap crossings), so on each such piece the level set
    is one interval, whose inner end is found by one bisection over all of
    x_grid at once; a flat piece is an atom.  The result is exact up to
    rounding, nondecreasing, and ends at exactly 1 above the top value of
    2.pi.f.  Raises only DomainError, for a grid that is empty, holds NaN or
    is not strictly increasing.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.ndim != 1 or x_grid.size == 0 or np.isnan(x_grid).any() \
            or np.any(np.diff(x_grid) <= 0):
        raise DomainError("x_grid must be nonempty, free of NaN and strictly "
                          "increasing")
    y = x_grid / TWO_PI
    measure = np.zeros(y.shape)
    total = 0.0
    for lo, hi, vlo, vhi in _monotone_pieces(f):
        rising = vlo < vhi
        part = np.where(y >= max(vlo, vhi), hi - lo, 0.0)
        inside = (y >= min(vlo, vhi)) & (y < max(vlo, vhi))
        ends = _level_set_ends(f, lo, hi, rising, y[inside])
        part[inside] = ends - lo if rising else hi - ends
        measure += part
        total += hi - lo
    # the pieces' widths sum to pi up to rounding; dividing by that same
    # sum makes H exactly 1 once x clears every piece
    return measure / total


def _real(value) -> float:
    """A number of a config mapping as a float: DomainError for a bool, a
    string such as "0.5" or anything else that is not a real number,
    which is refused rather than coerced.  NaN and the infinities pass, for
    the validator of the value to judge."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        import json
        raise DomainError(
            f"expected a number, got {json.dumps(value, default=repr)}")
    return float(value)


def _check_keys(spec: dict, what: str, needs, may=()) -> None:
    """DomainError naming the keys of needs that spec lacks, else the keys
    of spec in neither needs nor may."""
    missing = [k for k in needs if k not in spec]
    if missing:
        raise DomainError(f"{what} spec needs {', '.join(map(repr, missing))}")
    extra = sorted(set(spec) - set(needs) - set(may))
    if extra:
        raise DomainError(f"{what} spec has unknown keys {extra}")


# The families built from numbers: constructor and parameter keys, each
# with an optional sigma2.
_PARAMETRIC = {"constant": (constant_density, ()),
               "ar1": (ar1_density, ("phi",)),
               "ma1": (ma1_density, ("theta",)),
               "fractional": (fractional_density, ("d",))}


def density_from_spec(spec: dict, base_dir=None) -> SpectralDensity:
    """Build a density from a declarative mapping (config-file form).

    Besides "family" the mapping holds that family's keys and no others:
    phi (ar1), theta (ma1) or d (fractional), and an optional sigma2 for
    these and constant; path, a two-column file relative to base_dir, for
    tabulated; cap and base_family, plus the base family's keys, for
    truncated-of.  Numbers are read by _real; a missing or unknown key is a
    DomainError that names it.
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise DomainError("density spec must be a mapping with a 'family' key")
    fam = spec["family"]
    if isinstance(fam, str) and fam in _PARAMETRIC:
        make, names = _PARAMETRIC[fam]
        _check_keys(spec, f"{fam} density", ("family", *names), ("sigma2",))
        return make(*(_real(spec[k]) for k in names),
                    _real(spec.get("sigma2", 1.0)))
    if fam == "tabulated":
        import os
        _check_keys(spec, "tabulated density", ("family", "path"))
        path = spec["path"]
        if base_dir is not None:
            path = os.path.join(base_dir, path)
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] != 2:
            raise DomainError("tabulated density file must have two columns")
        return tabulated_density(data[:, 0], data[:, 1])
    if fam == "truncated-of":
        # the base family's reader judges the keys left over
        inner = {k: v for k, v in spec.items()
                 if k not in ("family", "base_family", "cap")}
        _check_keys(spec, "truncated-of density",
                    ("family", "base_family", "cap"), inner)
        inner["family"] = spec["base_family"]
        return truncate_density(density_from_spec(inner, base_dir),
                                _real(spec["cap"]))
    raise DomainError(f"unknown density family {fam!r}")
