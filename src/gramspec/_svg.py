"""Minimal deterministic SVG line/step plots for run artifacts.

No plotting library: artifacts must be byte-identical across repeated runs
with the same config, so everything here is plain string assembly with
fixed float formatting.
"""

from __future__ import annotations

import math

import numpy as np

_PALETTE = ("#1f6feb", "#d1242f", "#2da44e", "#8250df", "#bf8700", "#57606a")
_W, _H = 840, 520
_ML, _MR, _MT, _MB = 72, 24, 40, 56  # margins


def _fmt(v: float) -> str:
    out = f"{v:.6g}"
    return "0" if out == "-0" else out


def _nice_ticks(lo: float, hi: float) -> list[float]:
    # about six ticks at 1, 2 or 5 times a power of ten apart
    if not hi > lo:
        hi = lo + 1.0
    raw = (hi - lo) / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mult * mag >= raw:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _staircase(xs: np.ndarray, ys: np.ndarray):
    # right-continuous step curve: horizontal run then vertical rise, so
    # x0, x1, x1, x2, x2, ... against y0, y0, y1, y1, y2, ...
    return np.repeat(xs, 2)[1:], np.repeat(ys, 2)[:-1]


def write_overlay(path, curves, *, title: str, x_label: str,
                  y_label: str) -> None:
    """curves: iterable of dicts with keys xs, ys, label and optional
    kind ('line' | 'step'); colours follow _PALETTE in order."""
    prepared = []
    for i, cv in enumerate(curves):
        xs = np.asarray(cv["xs"], dtype=float)
        ys = np.asarray(cv["ys"], dtype=float)
        if cv.get("kind", "line") == "step":
            xs, ys = _staircase(xs, ys)
        prepared.append((xs, ys, cv["label"], _PALETTE[i % len(_PALETTE)]))
    x_lo = min(float(np.min(c[0])) for c in prepared)
    x_hi = max(float(np.max(c[0])) for c in prepared)
    y_lo = min(0.0, min(float(np.min(c[1])) for c in prepared))
    y_hi = max(float(np.max(c[1])) for c in prepared)
    if not y_hi > y_lo:
        y_hi = y_lo + 1.0
    y_hi += 0.04 * (y_hi - y_lo)
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(v):
        # v a float or an array; a flat x range maps to the left margin
        if x_hi > x_lo:
            return _ML + (v - x_lo) / (x_hi - x_lo) * pw
        return np.full(np.shape(v), float(_ML))

    def py(v):
        return _MT + ph - (v - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" '
        f'font-family="Helvetica, Arial, sans-serif" font-size="16" '
        f'fill="#1f2328">{title}</text>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        X = _fmt(px(t))
        parts.append(f'<line x1="{X}" y1="{_MT}" x2="{X}" y2="{_MT + ph}" '
                     f'stroke="#d0d7de" stroke-width="1"/>')
        parts.append(f'<text x="{X}" y="{_MT + ph + 20}" text-anchor="middle" '
                     f'font-family="Helvetica, Arial, sans-serif" '
                     f'font-size="12" fill="#57606a">{_fmt(t)}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        Y = _fmt(py(t))
        parts.append(f'<line x1="{_ML}" y1="{Y}" x2="{_ML + pw}" y2="{Y}" '
                     f'stroke="#d0d7de" stroke-width="1"/>')
        parts.append(f'<text x="{_ML - 8}" y="{Y}" text-anchor="end" '
                     f'dominant-baseline="middle" '
                     f'font-family="Helvetica, Arial, sans-serif" '
                     f'font-size="12" fill="#57606a">{_fmt(t)}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#57606a" stroke-width="1"/>')
    parts.append(f'<text x="{_ML + pw // 2}" y="{_H - 12}" '
                 f'text-anchor="middle" font-family="Helvetica, Arial, '
                 f'sans-serif" font-size="13" fill="#1f2328">{x_label}</text>')
    parts.append(f'<text x="18" y="{_MT + ph // 2}" text-anchor="middle" '
                 f'font-family="Helvetica, Arial, sans-serif" font-size="13" '
                 f'fill="#1f2328" transform="rotate(-90 18 '
                 f'{_MT + ph // 2})">{y_label}</text>')
    for xs, ys, label, color in prepared:
        # every point mapped in one numpy pass, then formatted as floats
        pts = " ".join(f"{_fmt(a)},{_fmt(b)}"
                       for a, b in zip(px(xs).tolist(), py(ys).tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.6"/>')
    ly = _MT + 16
    for _, _, label, color in prepared:
        parts.append(f'<line x1="{_ML + pw - 170}" y1="{ly}" '
                     f'x2="{_ML + pw - 140}" y2="{ly}" stroke="{color}" '
                     f'stroke-width="2.4"/>')
        parts.append(f'<text x="{_ML + pw - 132}" y="{ly + 4}" '
                     f'font-family="Helvetica, Arial, sans-serif" '
                     f'font-size="12" fill="#1f2328">{label}</text>')
        ly += 18
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
