"""Gauss-Legendre quadrature on [0, pi]: cosine transforms summed by FFT
over aligned cells, and composite panels for the limit solver.

``cosine_coefficients`` lays [0, pi] out as M equal cells of width
h = pi/M with 16 Gauss-Legendre nodes at the same offsets c_j in each.
The weighted sum is Re sum_j e^{ik c_j} sum_p g_{p,j} e^{ikph}, whose inner
sum has period 2M in k, so one real FFT of length 2M per offset serves
every frequency.  The few cells touching a mark (a singularity or a kink)
are cut by dyadic ladders toward it and summed node by node.  M doubles
until two successive levels agree to _REL_TOL relative.

The limit solver's panels come from ``build_edges``, which cuts [0, pi]
into uniform panels with dyadic ladders toward each singular point, and
``gauss_nodes``, which puts _ORDER (12) Gauss-Legendre points in each
panel; the limit module folds its weights and caches the nodes per grid
level.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import _arrays
from .errors import QuadratureError

_BASE0 = 8       # uniform panels per segment (cells on [0, pi]) at level 0
_ORDER = 12      # Gauss-Legendre points per panel (gauss_nodes default)
_ORDER_OSC = 16  # points per cell for oscillatory cosine transforms
_REL_TOL = 1e-10  # cosine_coefficients' level-to-level agreement


@lru_cache(maxsize=None)
def _gl(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _ladder(anchor: float, far: float) -> np.ndarray:
    # Edges marching dyadically from `far` toward `anchor`, halving the
    # distance at each rung, with the anchor itself as the innermost edge.
    # The rungs run to the representable bound: the innermost panel spans
    # at least 4 ulps of the larger end, so consecutive edges stay
    # distinct, and at least 1024 ulps of the anchor, so its Gauss nodes,
    # the nearest 0.53 % of the width from the anchor, stay distinct and
    # off it.  Near 0 the ulps are tiny and the first bound alone applies.
    # With both ends in [-pi/2, 3pi/2], as every caller has them, that is
    # at most 50 rungs.
    width = abs(far - anchor)
    tiny = max(4.0 * np.spacing(max(abs(anchor), abs(far))),
               1024.0 * np.spacing(abs(anchor)), 5e-324)
    depth = int(np.floor(np.log2(width / tiny))) if width > tiny else 0
    j = np.arange(max(1, depth), -1, -1, dtype=float)
    edges = anchor + (far - anchor) * 0.5**j
    return np.concatenate(([anchor], edges))


def build_edges(singular=(), base: int = _BASE0) -> np.ndarray:
    """Panel edges on [0, pi] with dyadic ladders toward each singular point.

    Each segment between singular points gets `base` uniform panels; a
    ladder runs from the segment's midpoint to each singular end, halving
    its rungs down to the representable bound (see _ladder).
    """
    sing = sorted({float(s) for s in singular if 0.0 <= s <= math.pi})
    cuts = sorted(set([0.0] + sing + [math.pi]))
    pieces = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        lo_sing = lo in sing
        hi_sing = hi in sing
        mid_lo, mid_hi = lo, hi
        seg = []
        if lo_sing and hi_sing:
            mid = 0.5 * (lo + hi)
            seg.append(_ladder(lo, mid))
            seg.append(_ladder(hi, mid)[::-1])
            pieces.append(np.concatenate([seg[0], seg[1][1:]]))
            continue
        if lo_sing:
            mid_lo = lo + 0.5 * (hi - lo)
            seg.append(_ladder(lo, mid_lo))
        if hi_sing:
            mid_hi = hi - 0.5 * (hi - lo)
        uniform = np.linspace(mid_lo, mid_hi, base + 1)
        if seg:
            uniform = uniform[1:]
        seg.append(uniform)
        if hi_sing:
            seg.append(_ladder(hi, mid_hi)[::-1][1:])
        pieces.append(np.concatenate(seg))
    return np.concatenate([p if i == 0 else p[1:] for i, p in enumerate(pieces)])


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


def _lattice_sums(g: np.ndarray, offsets: np.ndarray, k_max: int) -> np.ndarray:
    # S_k = sum_{p,j} g[p, j] cos(k (p h + offsets[j])), h = pi/M, M = len(g).
    # The inner sum over p has period 2M in k: it is conj(F[k mod 2M]) for
    # the length-2M real FFT F of column j, read as F[2M - k mod 2M] past
    # the Nyquist bin M.
    cells = g.shape[0]
    spec = np.fft.rfft(g, 2 * cells, axis=0)
    k = np.arange(k_max + 1)
    m = k % (2 * cells)
    fold = (m > cells)[:, None]
    lat = spec[np.minimum(m, 2 * cells - m)]
    lat = np.where(fold, lat, lat.conj())
    kc = np.multiply.outer(k.astype(float), offsets)
    return np.sum(np.cos(kc) * lat.real - np.sin(kc) * lat.imag, axis=1)


def _marked_cells(marks, cells: int):
    # Cells of width pi/cells that touch a mark, and the Gauss nodes and
    # weights of their panels.  A mark within a few ulps of a cell boundary
    # becomes that boundary, and both neighbours are marked.  Each marked
    # cell is cut at the marks and the ladder rungs m -+ (pi/2) 2^-j inside
    # it; the rungs sit a fixed distance from the mark at every level, so
    # the innermost panel does not move as the cells shrink.
    h = math.pi / cells
    bounds = np.arange(cells + 1) * h
    bounds[-1] = math.pi
    touched = set()
    for m in marks:
        i = round(m / h)
        if abs(bounds[i] - m) <= 4.0 * np.spacing(math.pi):
            bounds[i] = m
            touched.update(p for p in (i - 1, i) if 0 <= p < cells)
        else:
            touched.add(min(int(m / h), cells - 1))
    idx = np.array(sorted(touched), dtype=int)
    if not touched:
        return idx, np.empty(0), np.empty(0)
    rungs = np.concatenate([_ladder(m, m + side * 0.5 * math.pi)
                            for m in marks for side in (-1.0, 1.0)])
    panels = [gauss_nodes(_arrays.unique(np.concatenate(
                  ([lo, hi], rungs[(rungs > lo) & (rungs < hi)]))), _ORDER_OSC)
              for lo, hi in zip(bounds[idx], bounds[idx + 1])]
    return (idx, np.concatenate([x for x, _ in panels]),
            np.concatenate([w for _, w in panels]))


def cosine_coefficients(fn, k_max: int, *, singular=()) -> np.ndarray:
    """All C_k = integral of cos(k*x) * fn(x) over [0, pi], k = 0..k_max.

    Level L lays [0, pi] out as M = max(8, ceil(pi K / 18)) * 2^L equal
    cells, K = max(k_max, 1), each with 16 Gauss-Legendre nodes at shared
    offsets.  The sums over the plain cells come from one real FFT of
    length 2M per offset; only the cells touching a point of `singular`
    (singularities and kinks) are summed node by node, by angle addition;
    each mark gets dyadic ladders over pi/2 on both sides, run to the
    representable bound and the same at every level.  Each level is
    certified against the previous one to _REL_TOL of the largest
    coefficient, and the finer one is returned.  Raises QuadratureError
    when six levels do not agree; together they evaluate fn at most 63
    times as often on plain cells as level 0 does, and the ladder nodes
    do not grow from level to level.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    marks = sorted({float(s) for s in singular if 0.0 <= s <= math.pi})
    xi, wi = _gl(_ORDER_OSC)
    prev = None
    for level in range(6):
        cells = max(_BASE0, math.ceil(math.pi * max(k_max, 1) / 18.0)) * 2**level
        h = math.pi / cells
        offsets = 0.5 * h * (xi + 1.0)
        marked, m_nodes, m_weights = _marked_cells(marks, cells)
        plain = np.ones(cells, dtype=bool)
        plain[marked] = False
        p_nodes = (np.arange(cells)[plain, None] * h + offsets).ravel()
        vals = _eval(fn, np.concatenate([p_nodes, m_nodes]))
        g = np.zeros((cells, _ORDER_OSC))
        g[plain] = vals[:p_nodes.size].reshape(-1, _ORDER_OSC) * (0.5 * h * wi)
        cur = (_lattice_sums(g, offsets, k_max)
               + _cosine_sums(m_nodes, m_weights * vals[p_nodes.size:], k_max))
        if prev is not None:
            scale = max(float(np.max(np.abs(cur))), 1e-300)
            if float(np.max(np.abs(cur - prev))) <= _REL_TOL * scale:
                return cur
        prev = cur
    raise QuadratureError("cosine transform failed to converge")
