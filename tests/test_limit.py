"""Limit solver, companion transform, density inversion."""

import math

import numpy as np
import pytest

import gramspec
from gramspec import _kernels, limit
from gramspec.errors import DomainError

from _oracles import (ar1_edges, ar1_limit, ar1_transform, ma1_edges,
                      ma1_limit, ma1_transform, mp_cdf, mp_density, mp_edges,
                      mp_transform)


FAST = gramspec.SolverSettings(tol=1e-9, quad_tol=1e-7)


# ---------------------------------------------------------------------------
# companion transform algebra


def test_companion_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = complex(rng.uniform(-2, 2), rng.uniform(0.01, 2))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.01, 2))
        c = float(rng.uniform(0.1, 3.0))
        s_under = -(1.0 - c) / z + c * s  # the companion transform
        assert abs(gramspec.companion_inverse(s_under, c, z) - s) < 1e-13


def test_mp_cdf_oracle_resolves_the_hard_edge():
    # at c = 1 the density blows up like x^(-1/2) at 0; the closed form is
    # F(1) = 1/3 + sqrt(3)/(2 pi)
    exact = 1.0 / 3.0 + math.sqrt(3.0) / (2.0 * math.pi)
    assert abs(mp_cdf([1.0], 1.0)[0] - exact) <= 1e-10


# ---------------------------------------------------------------------------
# solves against the quadratic-formula oracle


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0])
def test_constant_density_matches_mp_oracle(c):
    f = gramspec.constant_density(1.0)
    for z in (0.5 + 0.05j, 1.5 + 0.3j, -0.2 + 1.0j, 3.0 + 0.02j):
        pt = gramspec.solve_limit_density(f, c, z)
        assert abs(pt.s_under - mp_transform(z, c)) < 1e-10
        assert pt.s.imag > 0 and pt.s_under.imag > 0
        assert pt.residual <= 1e-12


def test_scaled_constant_density_oracle():
    s2 = 2.5
    f = gramspec.constant_density(s2)
    z = 1.0 + 0.2j
    pt = gramspec.solve_limit_density(f, 0.5, z)
    assert abs(pt.s_under - mp_transform(z, 0.5, s2)) < 1e-10


def test_h_route_dirac_equals_mp_oracle():
    # H = point mass at 1 reproduces the constant-density limit
    f = gramspec.constant_density(1.0)
    assert gramspec.h_pushforward(f, [0.5, 1.0, 1.5]).tolist() == [0, 1, 1]
    for c in (0.25, 1.0, 2.0):
        for z in (0.8 + 0.1j, -0.5 + 0.7j):
            pt = gramspec.solve_limit_density(f, c, z)
            assert abs(pt.s_under - mp_transform(z, c)) < 1e-10


@pytest.mark.parametrize("family, param, c", [
    ("ar1", 0.5, 0.5), ("ma1", 0.5, 0.5), ("ma1", 0.5, 2.0),
    # f vanishes at pi (theta = 1) or 0 (theta = -1), where g meets _G_CAP
    ("ma1", 1.0, 0.5), ("ma1", 1.0, 2.0), ("ma1", -1.0, 0.5),
    ("ma1", -1.0, 2.0)])
def test_off_axis_solves_match_the_ar1_and_ma1_closed_forms(family, param,
                                                           c):
    # the quartic roots of the closed forms, away from the real axis
    make, transform = {"ar1": (gramspec.ar1_density, ar1_transform),
                       "ma1": (gramspec.ma1_density, ma1_transform)}[family]
    f = make(param)
    for z in (0.5 + 0.5j, 1.2 + 0.1j, 2.0 + 0.05j):
        pt = gramspec.solve_limit_density(f, c, z)
        assert abs(pt.s_under - transform(z, c, param)) < 1e-10


def test_warm_start_skips_probe_and_agrees():
    f = gramspec.constant_density(1.0)
    z = 1.0 + 0.05j
    cold = gramspec.solve_limit_density(f, 0.5, z)
    warm = gramspec.solve_limit_density(f, 0.5, z, initial=cold.s_under)
    assert abs(warm.s_under - cold.s_under) < 1e-10
    assert warm.iterations <= cold.iterations


# ---------------------------------------------------------------------------
# Newton solves where a plain fixed point crawls or plain Newton strays


@pytest.mark.parametrize("x", [1e-3, 1e-2])
@pytest.mark.parametrize("shrink", [10, 100, 1000])
def test_hard_edge_points_match_mp_oracle(x, shrink):
    # at c = 1 the density has a hard edge at 0, where the fixed-point map
    # contracts ever more slowly; Newton needs tens to hundreds of steps
    # for both starts together, the damped iteration thousands
    f = gramspec.constant_density(1.0)
    z = complex(x, x / shrink)
    pt = gramspec.solve_limit_density(f, 1.0, z)
    assert abs(pt.s_under - mp_transform(z, 1.0)) < 1e-10
    assert pt.residual <= 1e-12
    assert pt.iterations < 1000


def test_cold_start_reaches_mp_root_for_tall_aspect():
    # from the start -1/z, plain Newton on the residual leaves the upper
    # half-plane here and runs off to infinity within a few steps
    c = 2.0
    z = complex(0.1084024161943907, 0.05)
    f = gramspec.constant_density(1.0)
    g, w = limit._nodes(f, c, 0)
    s, resid, _, status = _kernels.fixed_point(z, g, w, -1.0 / z, 1e-13,
                                               10_000)
    assert status == 0 and resid <= 1e-13
    assert abs(s - mp_transform(z, c)) < 1e-10
    pt = gramspec.solve_limit_density(f, c, z)
    assert abs(pt.s_under - mp_transform(z, c)) < 1e-10


def test_dual_start_tightens_until_the_starts_agree(monkeypatch):
    # just above the real axis near 0 the two starts, each stopped at the
    # default residual target, sit millions apart; only re-iterating them
    # at tighter targets lets the uniqueness probe accept the point
    calls = []
    run = limit._run_start
    monkeypatch.setattr(limit, "_run_start",
                        lambda *a, **k: calls.append(1) or run(*a, **k))
    z = 1e-7 + 1e-15j
    pt = gramspec.solve_limit_density(gramspec.constant_density(), 0.25, z)
    oracle = mp_transform(z, 0.25)
    assert abs(pt.s_under - oracle) <= 1e-10 * abs(oracle)
    assert len(calls) > 2


# ---------------------------------------------------------------------------
# argument validation


def test_solver_rejects_bad_arguments():
    f = gramspec.constant_density(1.0)
    with pytest.raises(DomainError):
        gramspec.solve_limit_density(f, 0.5, 1.0 - 0.1j)
    with pytest.raises(DomainError):
        gramspec.solve_limit_density(f, 0.5, 1.0 + 0.0j)
    with pytest.raises(DomainError):
        gramspec.solve_limit_density(f, -0.5, 1.0 + 0.1j)
    # NaN or infinite z and c are refused up front, not by a failed solve
    for z in (complex(math.inf, 0.1), complex(1.0, math.nan),
              complex(math.nan, 0.1)):
        with pytest.raises(DomainError):
            gramspec.solve_limit_density(f, 0.5, z)
    with pytest.raises(DomainError):
        gramspec.solve_limit_density(f, math.inf, 1.0 + 0.1j)
    with pytest.raises(DomainError):
        gramspec.invert_to_distribution(f, math.inf, [1.0, 2.0])


def test_solver_settings_validation():
    with pytest.raises(DomainError):
        gramspec.SolverSettings(tol=0.0)
    with pytest.raises(DomainError):
        gramspec.SolverSettings(quad_tol=-1.0)


# ---------------------------------------------------------------------------
# inversion to a distribution


def test_inversion_recovers_mp_law():
    f = gramspec.constant_density(1.0)
    c = 0.5
    grid = gramspec.default_x_grid(f, c, n_points=240)
    lim = gramspec.invert_to_distribution(f, c, grid, FAST)
    assert lim.atom0 == 0.0
    assert abs(lim.total_mass - 1.0) < 2e-3
    xs = lim.x_grid
    lo, hi = mp_edges(c)
    inner = (xs > lo + 0.05) & (xs < hi - 0.05)
    np.testing.assert_allclose(lim.density[inner], mp_density(xs, c)[inner],
                               atol=5e-3)
    # CDF against dense quadrature of the closed form
    sup = float(np.max(np.abs(lim.cdf - mp_cdf(xs, c))))
    assert sup < 5e-3
    # detected support edges near the analytic ones
    assert any(abs(e - lo) < 0.05 for e in lim.edges)
    assert any(abs(e - hi) < 0.05 for e in lim.edges)


def test_inversion_atom_at_zero_for_tall_aspect():
    f = gramspec.constant_density(1.0)
    c = 2.0
    grid = gramspec.default_x_grid(f, c, n_points=200)
    lim = gramspec.invert_to_distribution(f, c, grid, FAST)
    assert lim.atom0 == 0.5  # exactly 1 - 1/c
    assert abs(lim.total_mass - 1.0) < 2e-3
    sup = float(np.max(np.abs(lim.cdf - mp_cdf(lim.x_grid, c))))
    assert sup < 5e-3


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_inversion_is_exact_for_constant_density(c):
    # the edges are critical values of the explicit inverse x(s), and the
    # CDF comes pointwise from the antiderivative of the transform, so
    # nothing is lost to a quadrature over the x grid, hard edge included
    f = gramspec.constant_density(1.0)
    grid = gramspec.default_x_grid(f, c, 64)
    lim = gramspec.invert_to_distribution(f, c, grid, FAST)
    np.testing.assert_array_equal(lim.x_grid, grid)
    assert float(np.max(np.abs(lim.cdf - mp_cdf(grid, c)))) <= 1e-6
    assert abs(lim.total_mass - 1.0) <= 1e-6
    lo, hi = mp_edges(c)
    assert len(lim.edges) == 2
    assert abs(lim.edges[0] - lo) <= 1e-8 and abs(lim.edges[1] - hi) <= 1e-8
    if c == 1.0:
        assert lim.edges[0] == 0.0
    outside = (grid <= lo) | (grid >= hi)
    assert np.all(lim.density[outside] == 0.0)


_CS = (0.25, 0.5, 1.0, 2.0, 4.0)


@pytest.mark.parametrize("phi, c", [
    (0.7, 0.5), (0.95, 0.5), (0.9, 2.0),
    *((phi, c) for phi in (-0.9, 0.5) for c in _CS),
    # near-poles of the integrand far out in the tail: the first needs
    # grid levels 8 and 9 for x in (170, 360), and the second reads its
    # CDF off the nodes of each point's own level
    (-0.95, 0.1), (0.9, 0.05)])
def test_inversion_matches_the_ar1_closed_form(phi, c):
    # the AR(1) limit in closed form (quartic root, and the antiderivative
    # from (1/pi) int log(A - B cos) = log((A + sqrt(A^2 - B^2))/2)) at the
    # package's own evaluation points x + i 1e-8 x; it pins the CDF read
    # off arguments, the sum of w arg(s + g) term included.  240 points
    # put 41 inside the narrow support of phi = -0.9 at c = 4.
    f = gramspec.ar1_density(phi)
    grid = gramspec.default_x_grid(f, c, 240)
    lim = gramspec.invert_to_distribution(f, c, grid)
    rho, cdf = ar1_limit(grid, c, phi, eta=1e-8)
    # at c = 1 the oracle leaves out the hard edge 0
    edges = [0.0, *ar1_edges(c, phi)] if c == 1.0 else ar1_edges(c, phi)
    np.testing.assert_allclose(lim.edges, edges, rtol=1e-8, atol=0.0)
    inside = lim.density > 0
    assert inside.sum() >= 40
    np.testing.assert_allclose(lim.density[inside], rho[inside], rtol=1e-8,
                               atol=0.0)
    # outside the package's support the closed form is O(1e-8) too
    assert np.all(rho[~inside] <= 1e-6)
    assert float(np.max(np.abs(lim.cdf - cdf))) <= 2e-7
    assert abs(lim.total_mass - cdf[-1]) <= 1e-6
    assert abs(lim.total_mass - 1.0) <= 1e-6


def test_quad_tol_picks_the_grid_level_of_the_support_edges():
    # the AR(1) phi = 0.95 upper edge at c = 0.5 moves by 2.4e-8 (relative)
    # from grid level 0 to 1 and by 2.8e-11 from 1 to 2; both grid points
    # lie below the support, so only the edges are computed
    f = gramspec.ar1_density(0.95)
    b = ar1_edges(0.5, 0.95)[1]
    for quad_tol, lo, hi in ((1e-6, 1e-8, 1e-7), (1e-9, 1e-12, 1e-10)):
        lim = gramspec.invert_to_distribution(
            f, 0.5, [1e-3, 2e-3], gramspec.SolverSettings(quad_tol=quad_tol))
        assert lo < abs(lim.edges[1] / b - 1.0) < hi


@pytest.mark.parametrize("theta, c", [
    *((0.5, c) for c in _CS), (0.9, 0.5), (0.9, 2.0),
    # theta = +-1 has a zero of f, and at c = 1 a hard edge where
    # |x'(s)| ~ 1e-9 (x ~ 2e-6): a residual small only in absolute terms
    # leaves the density there 1.8e-7 off
    *((theta, c) for theta in (-1.0, 1.0) for c in (1.0, 2.0, 4.0))])
def test_inversion_matches_the_ma1_closed_form(theta, c):
    # the MA(1) limit in closed form: the integral is (1/s)(1 - 1/R) with
    # R^2 = (1 + s a)^2 - (s b)^2, and the antiderivative takes the same
    # log-cosine integral as AR(1)'s, at the AR(1) test's tolerances
    f = gramspec.ma1_density(theta)
    grid = gramspec.default_x_grid(f, c, 200)
    lim = gramspec.invert_to_distribution(f, c, grid)
    rho, cdf = ma1_limit(grid, c, theta, eta=1e-8)
    edges = [0.0, *ma1_edges(c, theta)] if c == 1.0 else ma1_edges(c, theta)
    np.testing.assert_allclose(lim.edges, edges, rtol=1e-8, atol=0.0)
    inside = lim.density > 0
    assert inside.sum() >= 40
    np.testing.assert_allclose(lim.density[inside], rho[inside], rtol=1e-8,
                               atol=0.0)
    assert np.all(rho[~inside] <= 1e-6)
    assert float(np.max(np.abs(lim.cdf - cdf))) <= 1e-6
    assert abs(lim.total_mass - cdf[-1]) <= 1e-6
    assert abs(lim.total_mass - 1.0) <= 1e-6


def test_long_memory_limit_has_one_edge():
    # the compare_longmem limit: the density is unbounded, so the support
    # has no upper edge, and the lower edge is a critical value of x(s)
    f = gramspec.fractional_density(0.3)
    lim = gramspec.invert_to_distribution(
        f, 0.5, gramspec.default_x_grid(f, 0.5, 400), FAST)
    assert len(lim.edges) == 1
    assert abs(lim.edges[0] - 0.0742) < 1e-3


@pytest.mark.parametrize("c", [2.0, 10.0])
def test_inversion_far_out_meets_a_residual_target_scaled_by_z(c):
    # the grid reaches x = 2261 (c = 2) and 8158 (c = 10), where rounding
    # in the residual, about eps |z|, exceeds the default tol / 2
    f = gramspec.fractional_density(0.45)
    lim = gramspec.invert_to_distribution(
        f, c, gramspec.default_x_grid(f, c, 200))
    assert abs(lim.total_mass - 1.0) <= 1e-3


def test_default_x_grid_covers_support():
    # c <= 0.1 is where the lower MP edge of a flat density passes top/16
    f = gramspec.constant_density(1.0)
    for c in (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1,
              0.5):
        grid = gramspec.default_x_grid(f, c, n_points=100)
        assert grid.ndim == 1 and grid.size == 100
        assert np.all(grid > 0) and np.all(np.diff(grid) > 0)
        assert grid[-1] >= mp_edges(c)[1]


def test_limit_distribution_validation():
    x = np.array([1.0, 2.0])
    ok = dict(x_grid=x, density=np.array([0.1, 0.1]),
              cdf=np.array([0.2, 0.4]), atom0=0.0, c=0.5)
    gramspec.LimitDistribution(**ok)
    bad = dict(ok, cdf=np.array([0.4, 0.2]))
    with pytest.raises(DomainError):
        gramspec.LimitDistribution(**bad)
    with pytest.raises(DomainError):
        gramspec.LimitDistribution(**dict(ok, atom0=1.5))
    with pytest.raises(DomainError):
        gramspec.LimitDistribution(**dict(ok, density=np.array([-0.1, 0.1])))
    with pytest.raises(DomainError):
        gramspec.LimitDistribution(**dict(ok, cdf=np.array([0.2, 1.5])))


def test_truncation_ladder_small_smoke():
    f = gramspec.fractional_density(0.3, 1.0)
    ladder = gramspec.truncation_ladder(f, 0.5, caps=(4.0, 8.0),
                                        settings=FAST, n_points=200)
    assert ladder.caps == (4.0, 8.0)
    assert len(ladder.limits) == 2 and len(ladder.gaps) == 1
    assert 0.0 <= ladder.gaps[0] < 0.05
    # masses are the spectral masses c_0 of the capped densities: they
    # grow with the cap toward the uncapped c_0
    c0 = gramspec.covariance_from_density(f, 0)
    assert ladder.masses[0] < ladder.masses[1] < c0
    assert ladder.masses[1] > 0.9 * c0
    for lim in ladder.limits:
        assert abs(lim.total_mass - 1.0) < 5e-3
