"""Spectral densities, covariance sequences, and square-root filters."""

import cmath
import math

import numpy as np
import pytest

import gramspec
from gramspec import spectral
from gramspec.errors import DomainError, TailToleranceUnreachable

from _oracles import (ar1_covariance, ar1_pushforward_cdf,
                      fractional_covariance, fractional_filter_coeff)


FAMS = {
    "constant": lambda: gramspec.constant_density(1.3),
    "ar1": lambda: gramspec.ar1_density(0.5, 1.0),
    "ma1": lambda: gramspec.ma1_density(0.4, 2.0),
    "fractional": lambda: gramspec.fractional_density(0.3, 1.0),
}


# ---------------------------------------------------------------------------
# density families: shared structural properties


@pytest.mark.parametrize("fam", sorted(FAMS))
def test_density_even_and_nonnegative(fam):
    f = FAMS[fam]()
    lam = np.linspace(0.05, math.pi, 40)
    plus = spectral.density_values(f, lam)
    minus = spectral.density_values(f, -lam)
    np.testing.assert_allclose(plus, minus, rtol=1e-13)
    assert np.all(plus >= 0)


# each family's defining formula at one point, in complex form
FORMULAS = {
    "constant": lambda lam: 1.3 / (2 * math.pi),
    "ar1": lambda lam: 1.0 / (2 * math.pi * abs(1 - 0.5 * cmath.exp(1j * lam))
                              ** 2),
    "ma1": lambda lam: 2.0 * abs(1 + 0.4 * cmath.exp(1j * lam)) ** 2
    / (2 * math.pi),
    "fractional": lambda lam: abs(1 - cmath.exp(1j * lam)) ** -0.6
    / (2 * math.pi),
}


def _at(f, lam):
    return float(spectral.density_values(f, [lam])[0])


@pytest.mark.parametrize("fam", sorted(FAMS))
def test_density_scalar_eval_matches_vectorized(fam):
    # one point at a time gives the vectorized values, and both are the
    # family's formula
    f = FAMS[fam]()
    lams = [0.1, 1.0, 2.5, math.pi]
    vec = spectral.density_values(f, np.array(lams))
    for lam, v in zip(lams, vec):
        assert _at(f, lam) == v
        assert v == pytest.approx(FORMULAS[fam](lam), rel=1e-13)


def test_fractional_singularity_marked_and_infinite():
    f = gramspec.fractional_density(0.3, 1.0)
    assert f.singular_points == (0.0,)
    assert _at(f, 0.0) == math.inf


# ---------------------------------------------------------------------------
# covariance conventions (c_k = integral of e^{ik.theta} f over [-pi, pi])


def test_constant_density_covariance():
    f = gramspec.constant_density(1.7)
    cs = gramspec.covariance_sequence(f, 4)
    assert cs[0] == pytest.approx(1.7, rel=1e-12)
    assert float(np.max(np.abs(cs[1:]))) < 1e-12


def test_ma1_covariance():
    theta, s2 = 0.4, 2.0
    cs = gramspec.covariance_sequence(gramspec.ma1_density(theta, s2), 5)
    assert cs[0] == pytest.approx(s2 * (1 + theta**2), rel=1e-12)
    assert cs[1] == pytest.approx(s2 * theta, rel=1e-12)
    assert float(np.max(np.abs(cs[2:]))) < 1e-11


def test_ar1_covariance_matches_oracle():
    phi, s2 = 0.5, 1.0
    cs = gramspec.covariance_sequence(gramspec.ar1_density(phi, s2), 32)
    for k in range(33):
        oracle = ar1_covariance(k, phi, s2)
        assert abs(cs[k] - oracle) < 1e-10 * max(1.0, oracle)


def test_fractional_covariance_matches_gamma_ratio_oracle():
    d, s2 = 0.3, 1.0
    cs = gramspec.covariance_sequence(gramspec.fractional_density(d, s2), 64)
    for k in range(65):
        oracle = fractional_covariance(k, d, s2)
        assert abs(cs[k] - oracle) <= 1e-6 * abs(oracle) + 1e-9


def test_covariance_from_density_single_lag():
    f = gramspec.ar1_density(0.5, 1.0)
    assert gramspec.covariance_from_density(f, 3) == pytest.approx(
        ar1_covariance(3, 0.5), rel=1e-10)
    # negative lags fold onto positive ones
    assert gramspec.covariance_from_density(f, -3) == pytest.approx(
        gramspec.covariance_from_density(f, 3), rel=1e-14)


def test_covariance_sequence_rejects_negative_lag():
    with pytest.raises(DomainError):
        gramspec.covariance_sequence(gramspec.constant_density(1.0), -1)


# ---------------------------------------------------------------------------
# square-root filters


def test_filter_from_constant_density_is_single_tap():
    s2 = 1.69
    filt = gramspec.filter_from_density(gramspec.constant_density(s2))
    center = filt.coeffs[filt.offset]
    assert center == pytest.approx(math.sqrt(s2), rel=1e-10)
    off = np.delete(filt.coeffs, filt.offset)
    assert float(np.max(np.abs(off))) < 1e-10
    assert float(np.dot(filt.coeffs, filt.coeffs)) == pytest.approx(
        s2, rel=1e-10)
    assert filt.tail_bound <= 1e-10


def test_fractional_filter_matches_gamma_ratio_oracle():
    d, s2 = 0.3, 1.0
    filt = gramspec.filter_from_density(gramspec.fractional_density(d, s2),
                                        tail_tol=5e-3)
    k_max = filt.coeffs.size - 1 - filt.offset
    assert filt.offset == k_max  # two-sided symmetric support
    for k in (0, 1, 2, 5, 50, 500, k_max):
        got = filt.coeffs[filt.offset + k]
        oracle = fractional_filter_coeff(k, d, s2)
        assert abs(got - oracle) / abs(oracle) < 1e-8, f"k={k}"
    # symmetry a_{-k} = a_k
    np.testing.assert_allclose(filt.coeffs, filt.coeffs[::-1], rtol=1e-12)


def test_fractional_filter_tail_bound_is_honest_parseval_remainder():
    d, s2 = 0.3, 1.0
    c0 = fractional_covariance(0, d, s2)
    filt = gramspec.filter_from_density(gramspec.fractional_density(d, s2),
                                        tail_tol=5e-3)
    # tail bound satisfies the requested tolerance
    assert filt.tail_bound <= 5e-3 * c0
    # and equals the true discarded Parseval mass computed from the oracle
    true_tail = c0 - (fractional_filter_coeff(0, d, s2) ** 2
                      + 2.0 * sum(fractional_filter_coeff(k, d, s2) ** 2
                                  for k in range(1, filt.offset + 1)))
    assert filt.tail_bound == pytest.approx(true_tail, rel=1e-3)
    # Parseval: retained mass + tail = c0
    assert float(np.dot(filt.coeffs, filt.coeffs)) + filt.tail_bound == \
        pytest.approx(c0, rel=1e-6)


def test_filter_tail_tolerance_unreachable_raises(monkeypatch):
    # d = 0.3 tails decay like K^{-0.4}; 1e-6 needs K far beyond any cap
    monkeypatch.setattr(spectral, "MAX_FILTER_HALF_LENGTH", 256)
    with pytest.raises(TailToleranceUnreachable, match="K=256"):
        gramspec.filter_from_density(gramspec.fractional_density(0.3, 1.0),
                                     tail_tol=1e-6)


def test_filter_past_k_65536_reaches_its_hard_cap(monkeypatch):
    # the default evaluation cap follows the level-0 cell count, so a
    # K = 131072 transform (about 1.1e6 evaluations over two levels) runs,
    # and the refusal is the tail's, not the quadrature's
    monkeypatch.setattr(spectral, "MAX_FILTER_HALF_LENGTH", 2**17)
    with pytest.raises(TailToleranceUnreachable, match="K=131072"):
        gramspec.filter_from_density(gramspec.fractional_density(0.3),
                                     tail_tol=1e-6)


def test_linear_filter_validation():
    with pytest.raises(DomainError):
        gramspec.LinearFilter(0, np.array([]))
    with pytest.raises(DomainError):
        gramspec.LinearFilter(5, np.array([1.0, 2.0]))
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            gramspec.LinearFilter(0, np.array([1.0]), tail_bound=bad)


# ---------------------------------------------------------------------------
# density transforms


def test_truncate_density_caps_pointwise():
    f = gramspec.fractional_density(0.3, 1.0)
    g = gramspec.truncate_density(f, 0.5)
    assert g.singular_points == ()
    assert _at(g, 0.0) == 0.5
    lam = np.linspace(0.01, math.pi, 50)
    fv = spectral.density_values(f, lam)
    gv = spectral.density_values(g, lam)
    np.testing.assert_allclose(gv, np.minimum(fv, 0.5), rtol=1e-13)
    # capping can only shed variance
    assert (gramspec.covariance_from_density(g, 0)
            < gramspec.covariance_from_density(f, 0))


def test_truncate_density_rejects_caps_that_are_not_finite_and_positive():
    f = gramspec.fractional_density(0.3, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            gramspec.truncate_density(f, bad)


def test_tabulated_density_interpolates_and_mirrors():
    lams = np.linspace(0.0, math.pi, 9)
    vals = 0.2 + 0.1 * np.cos(lams)
    f = gramspec.tabulated_density(lams, vals)
    # exact at the table nodes, linear between them, even in lambda
    for lam, v in zip(lams, vals):
        assert _at(f, lam) == pytest.approx(v, rel=1e-14)
        assert _at(f, -lam) == pytest.approx(v, rel=1e-14)
    mid = 0.5 * (lams[2] + lams[3])
    assert _at(f, mid) == pytest.approx(
        0.5 * (vals[2] + vals[3]), rel=1e-14)


@pytest.mark.parametrize("lams", [[0.3, 1.0, 1.5, 2.0, 3.0],
                                  [0.3, 1.0, 1.5, 2.0, math.pi]])
def test_tabulated_covariance_past_the_end_knots(lams):
    # the table is held flat outside its knots, which makes kinks there
    vals = [1.0, 0.5, 0.8, 0.2, 0.6]
    f = gramspec.tabulated_density(lams, vals)
    knots = np.array([0.0, *lams, math.pi])
    v = np.array([vals[0], *vals, vals[-1]])
    a, b, va, vb = knots[:-1], knots[1:], v[:-1], v[1:]
    for max_lag in (7, 63, 199, 999):
        k = np.arange(1, max_lag + 1)[:, None]
        # exact 2 * integral of cos(k lam) f over [0, pi], segment by segment
        slope = np.divide(vb - va, b - a, out=np.zeros_like(a), where=b > a)
        seg = (vb * np.sin(k * b) - va * np.sin(k * a)) / k \
            + slope * (np.cos(k * b) - np.cos(k * a)) / k**2
        exact = 2.0 * np.concatenate(
            [[np.sum((va + vb) * (b - a)) / 2.0], seg.sum(axis=1)])
        got = gramspec.covariance_sequence(f, max_lag)
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-10)


def test_tabulated_density_validation():
    with pytest.raises(DomainError):
        gramspec.tabulated_density([0.0, 1.0], [1.0, -0.2])
    with pytest.raises(DomainError):
        gramspec.tabulated_density([0.5, 0.2], [1.0, 1.0])


def test_h_pushforward_matches_closed_form_ar1_law():
    s2 = 1.0
    for phi in (0.3, 0.5, 0.9):
        f = gramspec.ar1_density(phi, s2)
        lo = s2 / (1 + phi) ** 2
        hi = s2 / (1 - phi) ** 2
        xs = np.linspace(0.5 * lo, 1.2 * hi, 200)
        got = gramspec.h_pushforward(f, xs)
        oracle = ar1_pushforward_cdf(xs, phi, s2)
        assert float(np.max(np.abs(got - oracle))) < 1e-12
        assert got[0] == 0.0 and got[-1] == 1.0


def _toeplitz_esd(f, p):
    # numpy's eigensolver keeps these tests about H, not about ours
    return gramspec.StepCdf.from_esd(gramspec.Esd(
        np.linalg.eigvalsh(gramspec.toeplitz_matrix(f, p).values)))


@pytest.mark.parametrize("f", [
    gramspec.fractional_density(0.1),
    gramspec.fractional_density(0.3),
    gramspec.fractional_density(0.45),
    gramspec.ar1_density(0.5),
    gramspec.ma1_density(0.4, 2.0),
], ids=["frac0.1", "frac0.3", "frac0.45", "ar1", "ma1"])
def test_h_pushforward_is_the_toeplitz_spectral_law(f):
    # H is continuous here, so sup |F_p - H| sits at the eigenvalues; the
    # Szego limit puts it near 1/p
    for p in (200, 1000):
        esd = _toeplitz_esd(f, p)
        h = gramspec.h_pushforward(f, esd.xs)
        ko = max(float(np.max(np.abs(esd.right - h))),
                 float(np.max(np.abs(esd.left - h))))
        assert ko <= 2.0 / p


@pytest.mark.parametrize("f", [
    gramspec.truncate_density(gramspec.fractional_density(0.3), 0.5),
    gramspec.tabulated_density([0.0, 1.0, 1.5, 2.0, math.pi],
                               [0.4, 0.4, 1.0, 1.0, 0.3]),
    gramspec.tabulated_density([0.3, 1.0, 1.5, 2.0, 3.0],
                               [1.0, 0.5, 0.8, 0.2, 0.6]),
], ids=["truncated", "flat-table", "short-table"])
def test_h_pushforward_with_atoms_is_the_toeplitz_spectral_law(f):
    # flat stretches of f are atoms of H, which the ESD spreads over a
    # shrinking window: the Levy distance, not Kolmogorov, measures that
    top = float(np.max(spectral.probe_values(f)))
    levy = {}
    for p in (200, 1000):
        esd = _toeplitz_esd(f, p)
        grid = np.union1d(np.linspace(0.0, 1.01 * top, 20001), esd.xs)
        h = gramspec.h_pushforward(f, grid)
        assert h[-1] == 1.0
        levy[p] = gramspec.levy_distance(
            esd, gramspec.StepCdf.from_grid(grid, h))
    assert levy[1000] < levy[200] and levy[1000] <= 0.01


def test_h_pushforward_of_constant_density_is_one_step():
    s2 = 1.3
    xs = s2 * np.linspace(0.5, 1.5, 1000)  # steps past s2 without hitting it
    h = gramspec.h_pushforward(gramspec.constant_density(s2), xs)
    np.testing.assert_array_equal(h, (xs > s2).astype(float))


def test_h_pushforward_rejects_bad_grid():
    f = gramspec.ar1_density(0.5, 1.0)
    for grid in ([2.0, 1.0], [1.0, math.nan, 2.0], [math.nan]):
        with pytest.raises(DomainError):
            gramspec.h_pushforward(f, grid)


# ---------------------------------------------------------------------------
# declarative density specs


def test_density_from_spec_families():
    f = gramspec.density_from_spec({"family": "ar1", "phi": 0.5,
                                    "sigma2": 2.0})
    assert _at(f, 1.0) == pytest.approx(
        _at(gramspec.ar1_density(0.5, 2.0), 1.0))
    g = gramspec.density_from_spec({"family": "fractional", "d": 0.3})
    assert g.singular_points == (0.0,)
    h = gramspec.density_from_spec({"family": "constant"})
    assert _at(h, 0.3) == pytest.approx(1.0 / (2 * math.pi))


def test_density_from_spec_errors():
    with pytest.raises(DomainError):
        gramspec.density_from_spec({"family": "nope"})
    with pytest.raises(DomainError):
        gramspec.density_from_spec({})
    with pytest.raises(DomainError, match="ar1 density spec needs 'phi'"):
        gramspec.density_from_spec({"family": "ar1"})


@pytest.mark.parametrize("spec, message", [
    ({"family": "constant", "d": 0.3},
     "constant density spec has unknown keys ['d']"),
    ({"family": "ar1", "phi": "0.5", "theta": 2},
     "ar1 density spec has unknown keys ['theta']"),
    ({"family": "ar1", "phi": "0.5"}, 'expected a number, got "0.5"'),
    ({"family": "fractional", "d": True}, "expected a number, got true"),
    ({"family": "ma1", "theta": 0.5, "sigma2": [2]},
     "expected a number, got [2]"),
    ({"family": "tabulated", "path": "f.txt", "sigma2": 2.0},
     "tabulated density spec has unknown keys ['sigma2']"),
    ({"family": "tabulated"}, "tabulated density spec needs 'path'"),
    ({"family": "truncated-of", "d": 0.3},
     "truncated-of density spec needs 'base_family', 'cap'"),
    ({"family": "truncated-of", "base_family": "fractional", "d": 0.3,
      "cap": 2.0, "phi": 0.5},
     "fractional density spec has unknown keys ['phi']"),
    ({"family": "truncated-of", "base_family": "constant", "cap": "2"},
     'expected a number, got "2"'),
], ids=["constant-d", "ar1-theta", "ar1-string", "fractional-bool",
        "ma1-list", "tabulated-sigma2", "tabulated-path", "truncated-keys",
        "truncated-base-key", "truncated-cap"])
def test_density_from_spec_refuses_what_it_would_ignore_or_coerce(spec,
                                                                  message):
    # a key the family does not read is named, not dropped; a missing one
    # is named; a number is a number, not a string or a bool read as one
    with pytest.raises(DomainError) as exc:
        gramspec.density_from_spec(spec)
    assert str(exc.value) == message


@pytest.mark.parametrize("spec", [
    {"family": "constant", "sigma2": math.nan},
    {"family": "ar1", "phi": 0.5, "sigma2": math.nan},
    {"family": "ma1", "theta": math.nan},
    {"family": "ma1", "theta": math.inf},
    {"family": "fractional", "d": 0.3, "sigma2": math.inf},
], ids=["constant-sigma2", "ar1-sigma2", "ma1-theta-nan", "ma1-theta-inf",
        "fractional-sigma2"])
def test_density_parameters_that_are_not_finite_are_refused(spec):
    # the spec reader lets NaN and infinities through to the constructors,
    # which refuse them rather than build a density of NaN values
    with pytest.raises(DomainError):
        gramspec.density_from_spec(spec)
