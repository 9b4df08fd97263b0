"""Deterministic vector-graphics output."""

import xml.etree.ElementTree as ET

import numpy as np

from gramspec._svg import write_overlay


def _curves():
    xs = np.linspace(0.0, 2.0, 40)
    return [
        {"xs": xs, "ys": np.exp(-xs), "label": "limit"},
        {"xs": np.array([0.0, 0.5, 1.0, 2.0]),
         "ys": np.array([0.0, 0.25, 0.5, 1.0]),
         "label": "empirical", "kind": "step"},
    ]


def test_overlay_is_valid_svg_with_polylines(tmp_path):
    path = tmp_path / "plot.svg"
    write_overlay(path, _curves(), title="densities", x_label="x",
                  y_label="F")
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    body = path.read_text()
    assert body.count("<polyline") >= 2
    assert "densities" in body and "empirical" in body


def test_overlay_bytes_are_deterministic(tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    write_overlay(a, _curves(), title="t", x_label="x", y_label="y")
    write_overlay(b, _curves(), title="t", x_label="x", y_label="y")
    assert a.read_bytes() == b.read_bytes()
    assert b"<?xml" == a.read_bytes()[:5] or a.read_bytes().startswith(b"<svg")


def _old_polyline_points(curves):
    # the per-point formula the overlay used before it mapped points in
    # one numpy pass: a Python loop for the staircase, then the pixel map
    # and %.6g formatting point by point
    from gramspec._svg import _H, _MB, _ML, _MR, _MT, _W, _fmt

    prepared = []
    for cv in curves:
        xs = np.asarray(cv["xs"], dtype=float)
        ys = np.asarray(cv["ys"], dtype=float)
        if cv.get("kind", "line") == "step":
            out_x, out_y = [xs[0]], [ys[0]]
            for i in range(1, len(xs)):
                out_x.extend([xs[i], xs[i]])
                out_y.extend([ys[i - 1], ys[i]])
            xs, ys = np.asarray(out_x), np.asarray(out_y)
        prepared.append((xs, ys))
    x_lo = min(float(np.min(x)) for x, _ in prepared)
    x_hi = max(float(np.max(x)) for x, _ in prepared)
    y_lo = min(0.0, min(float(np.min(y)) for _, y in prepared))
    y_hi = max(float(np.max(y)) for _, y in prepared)
    y_hi += 0.04 * (y_hi - y_lo)
    pw, ph = _W - _ML - _MR, _H - _MT - _MB
    return [" ".join(
        f"{_fmt(_ML + (a - x_lo) / (x_hi - x_lo) * pw)},"
        f"{_fmt(_MT + ph - (b - y_lo) / (y_hi - y_lo) * ph)}"
        for a, b in zip(xs, ys)) for xs, ys in prepared]


def test_polylines_match_the_per_point_formula(tmp_path):
    # a line and a step curve of irregular values: the vectorized map and
    # staircase give the bytes of the per-point loop
    rng = np.random.default_rng(7)
    eigs = np.sort(rng.gamma(2.0, 0.7, 300))
    xs = np.linspace(0.01, 6.0, 97)
    curves = [{"xs": xs, "ys": 1.0 - np.exp(-xs / 1.3), "label": "limit"},
              {"xs": eigs, "ys": np.arange(1, 301) / 300, "label": "esd",
               "kind": "step"}]
    path = tmp_path / "plot.svg"
    write_overlay(path, curves, title="t", x_label="x", y_label="y")
    got = [line.split('points="')[1].split('"')[0]
           for line in path.read_text().splitlines()
           if line.startswith("<polyline")]
    assert got == _old_polyline_points(curves)
