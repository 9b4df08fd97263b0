"""Panel quadrature: exactness, singular integrands, cosine transforms."""

import math

import numpy as np
import pytest

from gramspec import quadrature, spectral
from gramspec.errors import QuadratureError
from gramspec.quadrature import build_edges, cosine_coefficients, gauss_nodes

from _oracles import fractional_filter_coeff


# ---------------------------------------------------------------------------
# build_edges structure


def test_edges_plain_interval_is_uniform():
    edges = build_edges(base=8)
    assert edges[0] == 0.0 and edges[-1] == math.pi
    assert np.all(np.diff(edges) > 0)
    np.testing.assert_allclose(np.diff(edges), math.pi / 8, rtol=1e-12)


def test_edges_include_singular_point_and_refine_toward_it():
    edges = build_edges(singular=(0.0,), base=8)
    assert edges[0] == 0.0
    widths = np.diff(edges)
    # ladder widths shrink geometrically toward the anchor
    assert widths[0] < 1e-5
    assert np.all(widths[:5] < widths[5:10].min())


def test_edges_interior_singularity_gets_two_sided_ladder():
    edges = build_edges(singular=(1.0,), base=8)
    assert 1.0 in edges
    i = int(np.where(edges == 1.0)[0][0])
    # panels adjacent to the mark are tiny on both sides
    assert edges[i] - edges[i - 1] < 1e-3
    assert edges[i + 1] - edges[i] < 1e-3


def test_gauss_nodes_integrate_polynomial_exactly():
    edges = build_edges(base=4)
    nodes, weights = gauss_nodes(edges, order=6)
    # degree-7 polynomial is exact under 6-point Gauss panels
    val = float(np.dot(weights, nodes**7))
    assert val == pytest.approx(math.pi**8 / 8, rel=1e-14)


# ---------------------------------------------------------------------------
# cosine_coefficients


def test_cosine_constant_function():
    out = cosine_coefficients(lambda x: np.ones_like(x), 16)
    assert abs(out[0] - math.pi) < 1e-12
    assert float(np.max(np.abs(out[1:]))) < 1e-12


def test_cosine_orthogonality_picks_single_mode():
    out = cosine_coefficients(lambda x: np.cos(7.0 * x), 12)
    expect = np.zeros(13)
    expect[7] = math.pi / 2
    np.testing.assert_allclose(out, expect, atol=1e-11)


def test_cosine_linear_function_closed_form():
    # integral of x cos(kx) over [0, pi] = ((-1)^k - 1)/k^2 for k >= 1
    out = cosine_coefficients(lambda x: x, 2048)
    k = np.arange(1, 2049, dtype=float)
    expect = ((-1.0) ** k - 1.0) / k**2
    assert abs(out[0] - math.pi**2 / 2) < 1e-11
    assert float(np.max(np.abs(out[1:] - expect))) < 1e-11


def test_cosine_high_frequency_of_singular_integrand_matches_oracle():
    # regression: the dyadic ladder toward the singularity used to keep
    # rungs wider than the oscillation wavelength at every refinement
    # level, so certification agreed on badly wrong high-k coefficients
    # (7e-2 relative at k = 128 for this very integrand)
    d = 0.3
    f = spectral.fractional_density(d, 1.0)
    fn = lambda x: np.sqrt(spectral.density_values(f, x))
    out = cosine_coefficients(fn, 128, singular=f.singular_points)
    scale = math.sqrt(2.0 * math.pi) / 2.0
    for k in (0, 1, 2, 5, 20, 64, 100, 127, 128):
        oracle = scale * fractional_filter_coeff(k, d, 1.0)
        assert abs(out[k] - oracle) / abs(oracle) < 1e-9, f"k={k}"


@pytest.mark.parametrize("k_cap", [1000, 4096])
def test_cosine_high_k_of_singular_integrand_matches_oracle(k_cap):
    # the angle-addition split k = q*b + r with b = floor(sqrt(K + 1)):
    # block boundaries (63, 64, 65), the last partial block, and a K + 1
    # that b does not divide (K = 1000)
    d = 0.3
    f = spectral.fractional_density(d, 1.0)
    fn = lambda x: np.sqrt(spectral.density_values(f, x))
    out = cosine_coefficients(fn, k_cap, singular=f.singular_points)
    assert out.shape == (k_cap + 1,)
    scale = math.sqrt(2.0 * math.pi) / 2.0
    for k in (0, 63, 64, 65, 999, 1000, k_cap - 1, k_cap):
        oracle = scale * fractional_filter_coeff(k, d, 1.0)
        assert abs(out[k] - oracle) / abs(oracle) < 1e-9, f"k={k}"


def test_cosine_rejects_negative_k_max():
    with pytest.raises(ValueError):
        cosine_coefficients(lambda x: np.ones_like(x), -1)


def test_cosine_inverse_sqrt_singularity():
    # exponent -1/2 is the hardest case the ladder meets in practice; the
    # innermost representable panel bounds accuracy near 1e-9
    out = cosine_coefficients(lambda x: 1.0 / np.sqrt(x), 16, singular=(0.0,))
    assert abs(out[0] - 2.0 * math.sqrt(math.pi)) < 1e-8


def test_cosine_nonfinite_integrand_raises():
    with pytest.raises(QuadratureError):
        cosine_coefficients(lambda x: np.full_like(x, np.nan), 16)


def test_marked_cells_cover_the_cells_touching_each_mark():
    # pi/2 is the boundary between cells 714 and 715 of 1430 (up to the
    # rounding of 715 * pi/1430), so both are marked; 0.7 lies strictly
    # inside one cell; the ends 0 and pi touch only the first and last
    cells = 1430
    h = math.pi / cells
    for marks, expect in (((math.pi / 2,), [714, 715]),
                          ((0.7,), [int(0.7 / h)]),
                          ((0.0, math.pi), [0, cells - 1])):
        idx, nodes, weights = quadrature._marked_cells(marks, cells)
        assert list(idx) == expect
        assert abs(weights.sum() - len(expect) * h) < 1e-15
        assert np.all(np.diff(nodes) >= 0)
        assert nodes.min() >= idx[0] * h and nodes.max() <= (idx[-1] + 1) * h


@pytest.mark.parametrize("mark", [math.pi / 2, 0.7])
def test_marked_cell_nodes_stay_distinct_and_off_an_interior_mark(mark):
    # the innermost ladder panel is wide enough in ulps of the mark for
    # its 16 Gauss nodes to be distinct doubles, none on the mark itself
    idx, nodes, weights = quadrature._marked_cells((mark,), 1430)
    assert np.all(np.diff(nodes) > 0)
    assert not np.any(nodes == mark)
    assert abs(weights.sum() - len(idx) * math.pi / 1430) < 1e-15


def test_ladders_anchored_at_zero_reach_the_first_representable_bound():
    # near 0 the ulps are tiny, so the innermost rung is set by 4 ulps of
    # the far end: 50 rungs from pi/2, as for every level's fractional
    # filter and limit nodes
    edges = quadrature._ladder(0.0, 0.5 * math.pi)
    assert edges.size == 52 and edges[1] == 0.5 * math.pi * 0.5**50


def test_interior_kinks_match_piecewise_linear_closed_form():
    # at K = 4096 the cells number M = 715, then 1430: the kinks at 0.7 and
    # 2.9 lie strictly inside a cell, pi/2 inside one at M = 715 and on a
    # boundary at M = 1430; lags 0..4096 run past both lattice periods
    # 2M = 1430 and 2860
    lams = [0.0, 0.7, math.pi / 2, 2.9, math.pi]
    vals = [1.0, 3.0, 0.5, 2.0, 0.25]
    f = spectral.tabulated_density(lams, vals)
    out = spectral.covariance_sequence(f, 4096)
    k = np.arange(1, 4097, dtype=float)
    exact = np.zeros(4097)
    for a, b, fa, fb in zip(lams[:-1], lams[1:], vals[:-1], vals[1:]):
        beta = (fb - fa) / (b - a)
        alpha = fa - beta * a

        def primitive(x):
            # antiderivative of (alpha + beta x) cos(kx), k >= 1
            return ((alpha + beta * x) * np.sin(k * x) / k
                    + beta * np.cos(k * x) / k**2)

        exact[0] += alpha * (b - a) + 0.5 * beta * (b * b - a * a)
        exact[1:] += primitive(b) - primitive(a)
    exact *= 2.0
    assert float(np.max(np.abs(out - exact))) < 1e-13 * exact[0]


def test_cosine_transform_sums_few_nodes_directly(monkeypatch):
    # the lattice FFT carries the transform: only the nodes of the cells
    # touching the singularity reach the O(K n) direct sums
    direct, total = [], []
    sums, evaluate = quadrature._cosine_sums, quadrature._eval
    monkeypatch.setattr(quadrature, "_cosine_sums",
                        lambda x, g, k: direct.append(x.size) or sums(x, g, k))
    monkeypatch.setattr(quadrature, "_eval",
                        lambda fn, x: total.append(x.size) or evaluate(fn, x))
    f = spectral.fractional_density(0.3, 1.0)
    cosine_coefficients(lambda x: np.sqrt(spectral.density_values(f, x)),
                        4096, singular=f.singular_points)
    assert len(direct) == len(total) >= 2
    assert sum(direct) < 0.05 * sum(total)


def test_lattice_sums_match_direct_sums():
    # the FFT route against the direct sum on the same lattice nodes, for
    # lags past several periods 2M = 26 and at odd M
    rng = np.random.default_rng(5)
    cells, k_max = 13, 100
    h = math.pi / cells
    offsets = np.sort(rng.uniform(0.0, h, 16))
    g = rng.standard_normal((cells, 16))
    nodes = (np.arange(cells)[:, None] * h + offsets).ravel()
    fast = quadrature._lattice_sums(g, offsets, k_max)
    direct = quadrature._cosine_sums(nodes, g.ravel(), k_max)
    assert float(np.max(np.abs(fast - direct))) < 1e-13 * np.abs(g).sum()
