"""Composite Gauss-Legendre quadrature with dyadic refinement toward
integrable singularities.

Panels are laid out uniformly away from singular points; toward each
singular point the panel widths shrink dyadically, so an integrable
power singularity is resolved geometrically.  Refinement doubles the
uniform panel count, extends the dyadic ladders, and halves the width
cap applied to every panel (ladder rungs included) until two successive
levels agree to the requested relative tolerance.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

EVAL_CAP = 2**20  # hard cap on integrand evaluations per call

_BASE0 = 8       # uniform panels per segment at level 0
_DEPTH0 = 60     # dyadic ladder rungs per singular side at level 0
_ORDER = 12      # Gauss-Legendre points per panel (integrate)
_ORDER_OSC = 16  # points per panel for oscillatory cosine transforms


@lru_cache(maxsize=None)
def _gl(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _split_wide(edges: np.ndarray, cap: float) -> np.ndarray:
    # Subdivide any panel wider than `cap` into equal parts.  The slack factor
    # keeps panels created as exact divisions of the interval from being split
    # again over a one-ulp excess.
    widths = np.diff(edges)
    counts = np.ceil(widths / cap * (1.0 - 1e-12)).astype(int)
    counts = np.maximum(counts, 1)
    if int(counts.max(initial=1)) <= 1:
        return edges
    pieces = [edges[:1]]
    for lo, hi, m in zip(edges[:-1], edges[1:], counts):
        if m == 1:
            pieces.append(np.asarray([hi]))
        else:
            pieces.append(np.linspace(lo, hi, m + 1)[1:])
    return np.concatenate(pieces)


def _ladder(anchor: float, far: float, depth: int) -> np.ndarray:
    # Edges marching dyadically from `far` toward `anchor` (exclusive of anchor
    # itself only in the sense that the innermost edge is anchor exactly).
    # Depth is capped so consecutive edges stay representable.
    width = abs(far - anchor)
    tiny = max(4.0 * np.spacing(max(abs(anchor), abs(far))), 5e-324)
    max_depth = int(np.floor(np.log2(width / tiny))) if width > tiny else 0
    d = max(1, min(depth, max_depth))
    j = np.arange(d, -1, -1, dtype=float)
    edges = anchor + (far - anchor) * 0.5**j
    return np.concatenate(([anchor], edges))


def build_edges(a: float, b: float, singular=(), base: int = _BASE0,
                depth: int = _DEPTH0, width_cap: float | None = None) -> np.ndarray:
    """Panel edges on [a, b] with dyadic ladders toward each singular point.

    ``width_cap`` bounds the width of every panel, ladder rungs included.
    Without it the outer rungs of a ladder stay as wide as half the segment
    no matter how the uniform region is refined, which matters whenever the
    integrand has structure on a finer scale (oscillation, kinks) inside the
    ladder's span.
    """
    if not b > a:
        raise ValueError("empty integration interval")
    sing = sorted({float(s) for s in singular if a <= s <= b})
    cuts = sorted(set([a] + sing + [b]))
    pieces = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        lo_sing = lo in sing
        hi_sing = hi in sing
        mid_lo, mid_hi = lo, hi
        seg = []
        if lo_sing and hi_sing:
            mid = 0.5 * (lo + hi)
            seg.append(_ladder(lo, mid, depth))
            seg.append(_ladder(hi, mid, depth)[::-1])
            pieces.append(np.concatenate([seg[0], seg[1][1:]]))
            continue
        if lo_sing:
            mid_lo = lo + 0.5 * (hi - lo)
            seg.append(_ladder(lo, mid_lo, depth))
        if hi_sing:
            mid_hi = hi - 0.5 * (hi - lo)
        uniform = np.linspace(mid_lo, mid_hi, base + 1)
        if seg:
            uniform = uniform[1:]
        seg.append(uniform)
        if hi_sing:
            seg.append(_ladder(hi, mid_hi, depth)[::-1][1:])
        pieces.append(np.concatenate(seg))
    edges = np.concatenate([p if i == 0 else p[1:] for i, p in enumerate(pieces)])
    if width_cap is not None and width_cap > 0.0:
        edges = _split_wide(edges, float(width_cap))
    return edges


def gauss_nodes(edges: np.ndarray, order: int = _ORDER):
    """Flattened Gauss-Legendre nodes/weights over the given panel edges."""
    xi, wi = _gl(order)
    widths = np.diff(edges)
    nodes = edges[:-1, None] + (xi[None, :] + 1.0) * 0.5 * widths[:, None]
    weights = wi[None, :] * 0.5 * widths[:, None]
    return nodes.ravel(), weights.ravel()


def _eval(fn, nodes: np.ndarray) -> np.ndarray:
    vals = np.asarray(fn(nodes), dtype=float)
    if vals.shape != nodes.shape:
        raise ValueError("integrand must be vectorized over the node array")
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("non-finite integrand value at a quadrature node")
    return vals


def integrate(fn, a: float, b: float, *, singular=(), rel_tol: float = 1e-10,
              eval_cap: int = EVAL_CAP, scale_floor: float = 0.0,
              max_levels: int = 12) -> float:
    """Adaptive integral of a vectorized fn over [a, b].

    Convergence: two successive refinement levels agree within
    rel_tol * max(|I|, scale_floor).  Raises QuadratureError when the
    evaluation cap is hit first.
    """
    spent = 0
    prev = None
    for level in range(max_levels):
        base = _BASE0 * 2**level
        edges = build_edges(a, b, singular, base=base,
                            depth=_DEPTH0 * (level + 1),
                            width_cap=(b - a) / base)
        nodes, weights = gauss_nodes(edges, _ORDER)
        spent += nodes.size
        if spent > eval_cap:
            raise QuadratureError(
                f"evaluation cap {eval_cap} exceeded before convergence "
                f"(last estimate {prev!r})")
        cur = float(np.dot(weights, _eval(fn, nodes)))
        if prev is not None:
            scale = max(abs(cur), abs(prev), scale_floor, 1e-300)
            if abs(cur - prev) <= rel_tol * scale:
                return cur
        prev = cur
    raise QuadratureError(
        f"no convergence after {max_levels} refinement levels "
        f"(last estimate {prev!r})")


def _cosine_sums(x: np.ndarray, g: np.ndarray, k_max: int) -> np.ndarray:
    # S_k = sum_j g_j cos(k x_j) for k = 0..k_max by angle addition: with
    # k = q*b + r and b = floor(sqrt(k_max + 1)),
    #   S_{qb+r} = sum_j cos(r x_j) [g_j cos(qb x_j)] - sin(r x_j) [g_j sin(qb x_j)],
    # two (b x n) @ (n x Q) products from about 4 sqrt(k_max) n trig calls
    # instead of k_max n.  Only library cos/sin are evaluated, on the same
    # k*x products a direct sum forms, so no error builds up with k.  Nodes
    # are chunked so the four trig buffers hold at most 128 * x.size floats.
    b = math.isqrt(k_max + 1)
    r = np.arange(b, dtype=float)
    qb = np.arange(0, k_max + 1, b, dtype=float)
    acc = np.zeros((b, qb.size))
    step = max(1, 64 * x.size // (b + qb.size))
    for lo in range(0, x.size, step):
        xs = x[lo:lo + step]
        gs = g[lo:lo + step, None]
        rx = np.multiply.outer(r, xs)
        cr = np.cos(rx)
        sr = np.sin(rx, out=rx)
        qx = np.multiply.outer(xs, qb)
        sq = np.sin(qx)
        sq *= gs
        cq = np.cos(qx, out=qx)
        cq *= gs
        acc += cr @ cq
        acc -= sr @ sq
    return acc.T.ravel()[:k_max + 1]


def cosine_coefficients(fn, k_max: int, *, singular=(), rel_tol: float = 1e-10,
                        eval_cap: int = EVAL_CAP) -> np.ndarray:
    """All C_k = integral of cos(k*x) * fn(x) over [0, pi], k = 0..k_max.

    One shared node set sized for the highest frequency; the weighted
    cosine sums are formed by angle addition, k = q*b + r with
    b = floor(sqrt(k_max + 1)), from cos/sin at the b offsets r and the
    k_max/b + 1 strides q*b, which cuts the trig evaluations per pass
    from k_max per node to about 4 sqrt(k_max).  The result is certified
    against a doubled resolution, and the finer one is returned.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")

    def _pass(level: int) -> tuple[np.ndarray, int]:
        width_cap = 18.0 / max(k_max, 1)
        base = max(_BASE0, int(np.ceil(np.pi / width_cap)))
        edges = build_edges(0.0, np.pi, singular, base=base * 2**level,
                            depth=_DEPTH0 * (level + 1),
                            width_cap=width_cap / 2**level)
        nodes, weights = gauss_nodes(edges, _ORDER_OSC)
        g = weights * _eval(fn, nodes)
        return _cosine_sums(nodes, g, k_max), nodes.size

    spent = 0
    prev = None
    for level in range(6):
        cur, used = _pass(level)
        spent += used
        if spent > eval_cap:
            raise QuadratureError(
                f"evaluation cap {eval_cap} exceeded in cosine transform")
        if prev is not None:
            scale = max(float(np.max(np.abs(cur))), 1e-300)
            if float(np.max(np.abs(cur - prev))) <= rel_tol * scale:
                return cur
        prev = cur
    raise QuadratureError("cosine transform failed to converge")
