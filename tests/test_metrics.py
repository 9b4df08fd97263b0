"""Step CDFs, Levy and Kolmogorov metrics, trace-inequality bounds."""

import math

import numpy as np
import pytest

import gramspec
from gramspec.errors import DomainError

from _oracles import levy_by_bisection


def _atom(t: float) -> gramspec.StepCdf:
    return gramspec.StepCdf([t], [0.0], [1.0])


def _discrete(xs, weights) -> gramspec.StepCdf:
    # atoms of the given weights, which sum to 1, at xs; repeats merge
    xs, at = np.unique(xs, return_inverse=True)
    w = np.bincount(at, weights=weights)
    right = np.minimum(np.cumsum(w), 1.0)
    return gramspec.StepCdf(xs, right - w, right)


def _random_cdf(rng, k: int = 6) -> gramspec.StepCdf:
    xs = np.sort(rng.uniform(-1.0, 3.0, k))
    w = rng.uniform(0.1, 1.0, k)
    return _discrete(xs, w / w.sum())


# ---------------------------------------------------------------------------
# StepCdf construction and evaluation


def test_from_esd_counts_eigenvalues_at_or_below():
    eigs = np.array([0.5, 0.5, 1.25, 3.0])
    e = gramspec.Esd(eigs)
    f = gramspec.StepCdf.from_esd(e)
    for t in (-1.0, 0.5, 0.7, 1.25, 2.0, 3.0, 4.0):
        assert f.value(t) == pytest.approx(np.count_nonzero(eigs <= t) / 4)
    assert f.left_limit(0.5) == 0.0


def test_from_grid_with_atom():
    xs = np.array([1.0, 2.0, 3.0])
    vals = np.array([0.4, 0.7, 1.0])  # includes the atom mass
    f = gramspec.StepCdf.from_grid(xs, vals, atom0=0.3)
    assert f.value(0.0) == pytest.approx(0.3)
    assert f.left_limit(0.0) == 0.0
    assert f.value(1.0) == pytest.approx(0.4)
    assert f.value(2.5) == pytest.approx(0.85)  # linear interpolation
    assert f.value(9.0) == pytest.approx(1.0)


def test_stepcdf_validation_errors():
    with pytest.raises(DomainError):
        gramspec.StepCdf.from_grid([2.0, 1.0], [0.1, 0.9])
    with pytest.raises(DomainError):
        gramspec.StepCdf.from_grid([1.0, 2.0], [0.5, 0.4])
    with pytest.raises(DomainError):
        gramspec.StepCdf.from_grid([1.0, 2.0], [0.0, 1.5])


# ---------------------------------------------------------------------------
# metrics: closed-form oracles and metric axioms


@pytest.mark.parametrize("t", [0.3, 0.7, 1.0, 2.5])
def test_levy_between_point_masses(t):
    # classical value: L(delta_0, delta_t) = min(t, 1)
    got = gramspec.levy_distance(_atom(0.0), _atom(t))
    assert got == pytest.approx(min(t, 1.0), abs=2e-6)


def test_levy_between_shifted_point_masses_is_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = rng.uniform(-50.0, 50.0)
        t = rng.uniform(0.0, 3.0)
        got = gramspec.levy_distance(_atom(s), _atom(s + t))
        assert got == pytest.approx(min(t, 1.0), abs=1e-14 * (1.0 + abs(s)))


def test_levy_of_identical_cdfs_is_zero():
    rng = np.random.default_rng(12)
    for _ in range(10):
        f = _random_cdf(rng, int(rng.integers(1, 20)))
        twin = gramspec.StepCdf(f.xs.copy(), f.left.copy(), f.right.copy())
        assert gramspec.levy_distance(f, f) == 0.0
        assert gramspec.levy_distance(f, twin) == 0.0


def test_levy_matches_corridor_bisection_on_atoms():
    rng = np.random.default_rng(13)
    for _ in range(40):
        k1, k2 = (int(k) for k in rng.integers(1, 15, 2))
        # rounded positions make shared breakpoints and merged atoms common
        f, g = (_discrete(np.round(rng.uniform(-1.0, 3.0, k), 1),
                          rng.dirichlet(np.ones(k))) for k in (k1, k2))
        got = gramspec.levy_distance(f, g)
        assert got == pytest.approx(levy_by_bisection(f, g), abs=1e-12)
        assert gramspec.levy_distance(g, f) == pytest.approx(got, abs=1e-15)


def test_levy_esd_against_sub_probability_limit_matches_bisection():
    dens = gramspec.constant_density(1.0)
    lim = gramspec.invert_to_distribution(
        dens, 2.0, gramspec.default_x_grid(dens, 2.0, 64))
    assert lim.atom0 > 0.0  # c = 2: half the mass sits at zero
    full = gramspec.StepCdf.from_limit(lim)
    # capped at 0.9, so the right tails differ by a fixed mass whatever
    # mass the solved limit ends at
    capped = gramspec.StepCdf(full.xs, np.minimum(full.left, 0.9),
                              np.minimum(full.right, 0.9))
    rng = np.random.default_rng(14)
    for n_rows in (30, 60):
        x = rng.standard_normal((n_rows, 2 * n_rows))
        esd = gramspec.StepCdf.from_esd(
            gramspec.symmetric_eigenvalues(gramspec.gram(x)))
        for limit_cdf in (full, capped):
            expect = levy_by_bisection(esd, limit_cdf)
            for a, b in ((esd, limit_cdf), (limit_cdf, esd)):
                assert gramspec.levy_distance(a, b) == pytest.approx(
                    expect, abs=1e-12)
        assert gramspec.levy_distance(esd, capped) >= 0.1 - 1e-12


def test_kolmogorov_between_point_masses():
    assert gramspec.kolmogorov_distance(_atom(0.0), _atom(2.0)) == \
        pytest.approx(1.0)
    f = _discrete([0.0, 1.0], [0.5, 0.5])
    assert gramspec.kolmogorov_distance(f, _atom(0.0)) == pytest.approx(0.5)


def test_kolmogorov_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(20):
        f, g = _random_cdf(rng), _random_cdf(rng)
        got = gramspec.kolmogorov_distance(f, g)
        pts = np.concatenate([f.xs, g.xs])
        brute = 0.0
        for t in pts:
            brute = max(brute, abs(f.value(t) - g.value(t)),
                        abs(f.left_limit(t) - g.left_limit(t)))
        assert got == pytest.approx(brute, abs=1e-12)


def test_metric_axioms_and_levy_dominated_by_kolmogorov():
    rng = np.random.default_rng(3)
    for _ in range(15):
        f, g, h = (_random_cdf(rng) for _ in range(3))
        lfg = gramspec.levy_distance(f, g)
        assert lfg == pytest.approx(gramspec.levy_distance(g, f), abs=2e-6)
        assert gramspec.levy_distance(f, f) == pytest.approx(0.0, abs=2e-6)
        assert lfg <= gramspec.kolmogorov_distance(f, g) + 2e-6
        assert lfg <= (gramspec.levy_distance(f, h)
                       + gramspec.levy_distance(h, g) + 5e-6)


# ---------------------------------------------------------------------------
# trace-bound smoke checks (full randomized suites run in acceptance)


def test_stieltjes_diff_bound_shapes_and_smoke():
    rng = np.random.default_rng(5)
    n = 8
    a = rng.standard_normal((n, n))
    a = gramspec.SymMatrix((a + a.T) / 2.0)
    b = gramspec.SymMatrix(a.values + 0.2 * np.eye(n))
    lhs, rhs = gramspec.stieltjes_diff_bound(a, b, 0.5 + 0.8j)
    assert lhs >= 0.0 and rhs >= 0.0 and math.isfinite(rhs)
    assert lhs <= rhs  # same-sign diagonal shift: provable regime
    with pytest.raises(DomainError):
        gramspec.stieltjes_diff_bound(a, gramspec.SymMatrix(np.eye(3)),
                                      0.5 + 0.8j)
    # the bound squares Im z, so either half-plane works; only the real
    # axis is rejected
    lhs2, rhs2 = gramspec.stieltjes_diff_bound(a, b, 0.5 - 0.8j)
    assert lhs2 == pytest.approx(lhs) and rhs2 == pytest.approx(rhs)
    with pytest.raises(DomainError):
        gramspec.stieltjes_diff_bound(a, b, 0.5)
    # a NaN lhs or rhs would pass a check written as lhs > rhs
    for z in (complex(math.nan, 1.0), complex(0.0, math.nan),
              complex(math.inf, 1.0), complex(0.0, math.inf)):
        with pytest.raises(DomainError):
            gramspec.stieltjes_diff_bound(a, b, z)


def test_levy_gram_bound_shapes_and_smoke():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((10, 6))
    b = a + 0.1 * rng.standard_normal((10, 6))
    lhs, rhs = gramspec.levy_gram_bound(a, b)
    assert 0.0 <= lhs <= rhs
    lhs0, rhs0 = gramspec.levy_gram_bound(a, a.copy())
    assert lhs0 <= max(rhs0, 4e-12)
    with pytest.raises(DomainError):
        gramspec.levy_gram_bound(a, rng.standard_normal((9, 6)))
