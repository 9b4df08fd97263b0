"""Panel quadrature: exactness, singular integrands, cosine transforms."""

import math

import numpy as np
import pytest

from gramspec import spectral
from gramspec.errors import QuadratureError
from gramspec.quadrature import (build_edges, cosine_coefficients,
                                 gauss_nodes, integrate)

from _oracles import fractional_filter_coeff


# ---------------------------------------------------------------------------
# build_edges structure


def test_edges_plain_interval_is_uniform():
    edges = build_edges(0.0, 1.0, base=8)
    assert edges[0] == 0.0 and edges[-1] == 1.0
    assert np.all(np.diff(edges) > 0)
    np.testing.assert_allclose(np.diff(edges), 1.0 / 8, rtol=1e-12)


def test_edges_include_singular_point_and_refine_toward_it():
    edges = build_edges(0.0, 1.0, singular=(0.0,), base=8, depth=20)
    assert edges[0] == 0.0
    widths = np.diff(edges)
    # ladder widths shrink geometrically toward the anchor
    assert widths[0] < 1e-5
    assert np.all(widths[:5] < widths[5:10].min())


def test_edges_interior_singularity_gets_two_sided_ladder():
    edges = build_edges(0.0, 2.0, singular=(1.0,), base=8, depth=15)
    assert 1.0 in edges
    i = int(np.where(edges == 1.0)[0][0])
    # panels adjacent to the mark are tiny on both sides
    assert edges[i] - edges[i - 1] < 1e-3
    assert edges[i + 1] - edges[i] < 1e-3


def test_edges_width_cap_bounds_every_panel():
    cap = 0.01
    edges = build_edges(0.0, 1.0, singular=(0.0,), base=8, depth=30,
                        width_cap=cap)
    assert float(np.diff(edges).max()) <= cap * (1.0 + 1e-9)


def test_edges_empty_interval_rejected():
    with pytest.raises(ValueError):
        build_edges(1.0, 1.0)


def test_gauss_nodes_integrate_polynomial_exactly():
    edges = build_edges(0.0, 2.0, base=4)
    nodes, weights = gauss_nodes(edges, order=6)
    # degree-7 polynomial is exact under 6-point Gauss panels
    val = float(np.dot(weights, nodes**7))
    assert abs(val - 2.0**8 / 8) < 1e-12


# ---------------------------------------------------------------------------
# integrate


def test_integrate_smooth_matches_closed_forms():
    assert abs(integrate(np.sin, 0.0, math.pi) - 2.0) < 1e-12
    assert abs(integrate(np.exp, 0.0, 1.0) - (math.e - 1.0)) < 1e-12


def test_integrate_inverse_sqrt_singularity():
    # exponent -1/2 is the hardest case the ladder meets in practice; the
    # innermost representable panel bounds accuracy near 1e-9
    val = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, singular=(0.0,))
    assert abs(val - 2.0) < 1e-8


def test_integrate_fractional_density_matches_gamma_ratio():
    # integral of |2 sin(x/2)|^{-2d}/(2 pi) over [-pi, pi] is the lag-0
    # autocovariance; closed form via gamma ratios
    d = 0.3
    f = spectral.fractional_density(d, 1.0)
    val = 2.0 * integrate(lambda x: spectral.density_values(f, x), 0.0,
                          math.pi, singular=f.singular_points)
    c0 = math.exp(math.lgamma(1 - 2 * d) - 2 * math.lgamma(1 - d))
    assert abs(val - c0) / c0 < 1e-7


def test_integrate_kink_inside_ladder_region():
    # a kink at 0.3 sits inside the singular ladder's span [0, 0.5]; the
    # width cap forces genuine refinement there, so the certified value
    # must be right even though the mark at 0 is irrelevant to the kink
    val = integrate(lambda x: np.abs(x - 0.3), 0.0, 1.0, singular=(0.0,))
    exact = 0.5 * (0.3**2 + 0.7**2)
    assert abs(val - exact) < 1e-10


def test_integrate_eval_cap_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.cos(57.0 * x) * np.exp(x), 0.0, math.pi,
                  eval_cap=32)


def test_integrate_nonfinite_integrand_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


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


def test_cosine_eval_cap_raises():
    with pytest.raises(QuadratureError):
        cosine_coefficients(lambda x: np.exp(np.cos(x)), 64, eval_cap=64)
