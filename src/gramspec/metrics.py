"""Distribution-distance machinery: a shared CDF representation, the Levy
and Kolmogorov metrics, and numeric evaluators for the two trace-based
comparison bounds used by the randomized inequality suites.  Both metrics
are exact up to rounding: Kolmogorov from the values at every breakpoint,
Levy from the 45-degree-rotated completed graphs.

A StepCdf stores breakpoints xs with left limits and right values; between
consecutive breakpoints the function is linear from right[i] to left[i+1].
Pure jump CDFs (ESDs, weighted atoms) and sampled continuous CDFs both fit
this shape, so every metric below works on one type.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _arrays, _kernels
from .errors import DomainError
from .matrixops import Esd, SymMatrix, gram_eigenvalues

_EDGE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StepCdf:
    xs: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        fl = np.asarray(self.left, dtype=float)
        fr = np.asarray(self.right, dtype=float)
        if xs.ndim != 1 or xs.size == 0 or fl.shape != xs.shape or fr.shape != xs.shape:
            raise DomainError("StepCdf needs matching 1-d breakpoint arrays")
        if not np.all(np.isfinite(xs)):
            raise DomainError("breakpoints must be finite")
        if np.any(np.diff(xs) <= 0):
            raise DomainError("breakpoints must be strictly increasing")
        if np.any(fr < fl - 1e-15) or np.any(fl[1:] < fr[:-1] - 1e-15):
            raise DomainError("CDF values must be nondecreasing")
        if fl[0] < -_EDGE_TOL or fr[-1] > 1.0 + _EDGE_TOL:
            raise DomainError("CDF values must stay within [0, 1]")
        for arr in (xs, fl, fr):
            arr.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "left", fl)
        object.__setattr__(self, "right", fr)

    # -- evaluation ---------------------------------------------------------

    def _eval(self, t, side: str) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        xs, fl, fr = self.xs, self.left, self.right
        out = np.empty(t.shape)
        pos = np.searchsorted(xs, t, side="right") - 1
        below = pos < 0
        out[below] = 0.0
        ii = np.clip(pos, 0, xs.size - 1)
        node = ~below & (t == xs[ii])
        vals = fl if side == "left" else fr
        out[node] = vals[ii[node]]
        mid = ~below & ~node
        past = mid & (ii == xs.size - 1)
        out[past] = fr[-1]
        inner = mid & (ii < xs.size - 1)
        j = ii[inner]
        frac = (t[inner] - xs[j]) / (xs[j + 1] - xs[j])
        out[inner] = fr[j] + frac * (fl[j + 1] - fr[j])
        return out

    def value(self, t):
        """F(t), right-continuous."""
        out = self._eval(t, "right")
        return float(out[0]) if np.isscalar(t) else out

    def left_limit(self, t):
        """F(t-), the limit from below."""
        out = self._eval(t, "left")
        return float(out[0]) if np.isscalar(t) else out

    @property
    def total_mass(self) -> float:
        return float(self.right[-1])

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_esd(e: Esd) -> "StepCdf":
        uniq, counts = np.unique(e.eigs, return_counts=True)
        right = np.cumsum(counts) / e.n
        left = right - counts / e.n
        return StepCdf(uniq, left, right)

    @staticmethod
    def from_grid(xs, cdf_vals, atom0: float = 0.0) -> "StepCdf":
        """Piecewise-linear CDF through (xs, cdf_vals), optionally preceded
        by an atom of mass atom0 at 0."""
        xs = np.asarray(xs, dtype=float)
        vals = np.asarray(cdf_vals, dtype=float)
        if xs.shape != vals.shape or xs.ndim != 1 or xs.size == 0:
            raise DomainError("need matching 1-d grid arrays")
        if atom0 < 0:
            raise DomainError("atom mass must be nonnegative")
        if atom0 > 0:
            if xs[0] <= 0.0:
                raise DomainError("the atom must sit left of the grid")
            bx = np.concatenate(([0.0], xs))
            bl = np.concatenate(([0.0], vals))
            br = np.concatenate(([atom0], vals))
            return StepCdf(bx, bl, br)
        left = vals.copy()
        left[0] = 0.0
        return StepCdf(xs, left, vals)

    @staticmethod
    def from_limit(limit) -> "StepCdf":
        # the pointwise CDF is exact to the solver tolerance; the clip only
        # removes rounding past 1 (within LimitDistribution's 1e-6 slack),
        # so the result is a genuine sub-probability CDF
        vals = np.clip(limit.cdf, 0.0, 1.0)
        return StepCdf.from_grid(limit.x_grid, vals,
                                 atom0=min(limit.atom0, 1.0))


def _rotated_graph(f: StepCdf, lo: float, hi: float):
    """Vertices of the completed graph of f (jumps filled in vertically),
    extended along its flat tails to u = lo and u = hi, rotated by 45
    degrees: u = x + F, v = F - x."""
    m = f.total_mass
    x = np.concatenate(([lo, f.xs[0]], np.repeat(f.xs, 2), [hi - m]))
    y = np.concatenate(([0.0, 0.0], np.column_stack((f.left, f.right)).ravel(),
                        [m]))
    return x + y, y - x


def levy_distance(f: StepCdf, g: StepCdf) -> float:
    """Levy metric from the 45-degree-rotated completed graphs.

    In the rotated coordinates each completed graph is a piecewise-linear
    function v(u), and the corridor G(x - e) - e <= F(x) <= G(x + e) + e
    shifts G by 2e in v at fixed u, so L(F, G) = sup_u |v_F(u) - v_G(u)| / 2
    (the geometric form of the Levy metric; Rachev, Probability Metrics,
    1991).  Left of its graph a CDF is 0, so v = -u; right of it the CDF is
    its total mass m, so v = 2m - u.  Both v's are linear between the merged
    vertices, so the sup sits at one of them: the result is exact up to
    rounding, with no bisection.
    """
    lo = min(f.xs[0], g.xs[0])
    hi = max(f.xs[-1] + f.total_mass, g.xs[-1] + g.total_mass)
    (uf, vf), (ug, vg) = _rotated_graph(f, lo, hi), _rotated_graph(g, lo, hi)
    u = np.concatenate((uf, ug))
    return 0.5 * float(np.max(np.abs(np.interp(u, uf, vf)
                                     - np.interp(u, ug, vg))))


def kolmogorov_distance(f: StepCdf, g: StepCdf) -> float:
    """sup |F - G|, including the left-limit values at every breakpoint."""
    ts = _arrays.unique(np.concatenate((f.xs, g.xs)))
    best = 0.0
    for side in ("left", "right"):
        diff = np.abs(f._eval(ts, side) - g._eval(ts, side))
        best = max(best, float(diff.max()))
    return best


def stieltjes_diff_bound(a: SymMatrix, b: SymMatrix,
                         z: complex) -> tuple[float, float]:
    """Trace-difference bound on Stieltjes transforms of two symmetric
    matrices of the same order.

    Returns (lhs, rhs) with lhs = |S_A(z) - S_B(z)| and
    rhs = |Tr(A - B)|^{1/2} / (y^2 sqrt(n)), y = Im z.  Each transform is
    (1/n) Tr (T - zI)^{-1} of the matrix's tridiagonal form T, summed by
    _kernels.resolvent_trace without the eigenvalues.
    """
    if a.n != b.n:
        raise DomainError("matrices must have equal order")
    z = complex(z)
    y = z.imag
    if not (y != 0.0 and cmath.isfinite(z)):
        raise DomainError("bound needs a finite z with Im z != 0")
    if a.n < 1:
        raise DomainError("order must be >= 1")
    sa, sb = (_kernels.resolvent_trace(*_kernels.tridiagonalize(m.values), z)
              for m in (a, b))
    lhs = abs(sa - sb) / a.n
    tr = abs(float(np.trace(a.values - b.values)))
    rhs = math.sqrt(tr) / (y * y * math.sqrt(a.n))
    return lhs, rhs


def levy_gram_bound(a, b) -> tuple[float, float]:
    """Trace bound on the squared Levy distance between unnormalized Gram
    spectra.

    For n x p arrays A and B, returns (lhs, rhs) with
    lhs = levy(F_{AA^T}, F_{BB^T})^2 and
    rhs = (sqrt(2)/n) [Tr(AA^T + BB^T) Tr((A-B)(A-B)^T)]^{1/2}.
    The Levy metric is not scale-invariant, so the spectra are those of the
    unnormalized products, each taken by gram_eigenvalues at order
    min(n, p).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape != b.shape:
        raise DomainError("need two arrays of identical shape")
    fa = StepCdf.from_esd(gram_eigenvalues(a.T, 1.0))
    fb = StepCdf.from_esd(gram_eigenvalues(b.T, 1.0))
    lhs = levy_distance(fa, fb) ** 2
    tr_sum = float(np.sum(a * a) + np.sum(b * b))
    tr_diff = float(np.sum((a - b) ** 2))
    rhs = math.sqrt(2.0) / a.shape[0] * math.sqrt(tr_sum * tr_diff)
    return lhs, rhs
