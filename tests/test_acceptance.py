"""Acceptance gate: one test per shipped criterion.

Each test records a PASS/FAIL row (printed in the terminal summary) and then
asserts the criterion at its stated tolerance and runtime bound.  Tolerances
and sizes are the contract — do not tighten or loosen them here.
"""

import math

import numpy as np
import pytest

import gramspec
from gramspec import (
    SolverSettings,
    StepCdf,
    SymMatrix,
    ar1_density,
    constant_density,
    default_x_grid,
    filter_from_density,
    fractional_density,
    gaussian_law,
    generate_gaussian_rows,
    generate_linear_rows,
    generate_toeplitz_gaussian_rows,
    gram,
    gram_stieltjes_identity,
    invert_to_distribution,
    kolmogorov_distance,
    levy_distance,
    levy_gram_bound,
    rademacher_law,
    solve_limit_density,
    stieltjes_diff_bound,
    symmetric_eigenvalues,
    toeplitz_matrix,
    truncation_ladder,
)

from _oracles import ar1_pushforward_cdf, charpoly_coefficients, mp_transform


FAST = SolverSettings(tol=1e-10, quad_tol=1e-8)


def _z_cloud(rng, count):
    re = rng.uniform(-3.0, 5.0, count)
    im = rng.uniform(0.01, 2.0, count)
    return re + 1j * im


def _kolmogorov_vs_continuous(eigs: np.ndarray, cdf_at_eigs: np.ndarray):
    """sup |F_p - H| for an ESD against a continuous CDF, exact at the jumps."""
    p = eigs.size
    upper = np.arange(1, p + 1) / p
    lower = np.arange(0, p) / p
    return float(np.max(np.maximum(np.abs(upper - cdf_at_eigs),
                                   np.abs(lower - cdf_at_eigs))))


# ---------------------------------------------------------------------------


def test_criterion_01_constant_density_matches_quadratic_oracle(
        record_acceptance, stopwatch):
    f = constant_density(1.0)
    rng = np.random.default_rng(20260819)
    zs = _z_cloud(rng, 100)
    cs = [0.25, 0.5, 1.0, 2.0]
    worst = 0.0
    for i, z in enumerate(zs):
        c = cs[i % len(cs)]
        pt = solve_limit_density(f, c, z, FAST)
        worst = max(worst, abs(pt.s_under - mp_transform(z, c, 1.0)))
    elapsed = stopwatch.elapsed
    ok = worst <= 1e-8 and elapsed < 5.0
    record_acceptance(
        1, "constant density vs closed-form transform", ok,
        f"max|S-oracle|={worst:.2e} over 100 z, 4 aspect ratios; "
        f"{elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_02_short_memory_esd_convergence(
        record_acceptance, stopwatch):
    f = constant_density(1.0)
    n_rows, n_cols = 2000, 1000
    c = n_cols / n_rows
    limit = invert_to_distribution(f, c, default_x_grid(f, c, 600), FAST)
    limit_cdf = StepCdf.from_limit(limit)
    dists = []
    for seed in range(1, 6):
        dm = generate_gaussian_rows(f, n_rows, n_cols, seed)
        esd = symmetric_eigenvalues(gram(dm.values))
        dists.append(kolmogorov_distance(StepCdf.from_esd(esd), limit_cdf))
    med = float(np.median(dists))
    elapsed = stopwatch.elapsed
    ok = med <= 0.03 and elapsed < 120.0
    record_acceptance(
        2, "iid rows (2000,1000) match solved limit", ok,
        f"median Kolmogorov={med:.4f} over 5 seeds (<=0.03); {elapsed:.1f}s")
    assert med <= 0.03
    assert elapsed < 120.0


def test_criterion_03_long_memory_esd_convergence(
        record_acceptance, stopwatch):
    f = fractional_density(0.3)
    c = 0.5
    limit = invert_to_distribution(f, c, default_x_grid(f, c, 400), FAST)
    limit_cdf = StepCdf.from_limit(limit)
    medians = {}
    for n_rows in (400, 800, 1600):
        n_cols = n_rows // 2
        gaps = []
        for seed in range(1, 6):
            dm = generate_toeplitz_gaussian_rows(f, n_rows, n_cols, seed)
            esd = symmetric_eigenvalues(gram(dm.values))
            gaps.append(levy_distance(StepCdf.from_esd(esd), limit_cdf))
        medians[n_rows] = float(np.median(gaps))
    decreasing = medians[400] > medians[800] > medians[1600]
    final_ok = medians[1600] <= 0.08
    elapsed = stopwatch.elapsed
    ok = decreasing and final_ok and elapsed < 600.0
    record_acceptance(
        3, "long-memory rows converge to solved limit", ok,
        f"median Levy gaps {medians[400]:.4f} > {medians[800]:.4f} > "
        f"{medians[1600]:.4f} (final <=0.08); {elapsed:.1f}s")
    assert decreasing
    assert final_ok
    assert elapsed < 600.0


def test_criterion_04_innovation_law_universality(
        record_acceptance, stopwatch):
    filt = filter_from_density(fractional_density(0.3), tail_tol=5e-3)
    seeds = range(1, 11)
    gap = {}
    for n_rows in (200, 400, 800):
        n_cols = n_rows // 2
        pair_gaps = []
        for seed in seeds:
            esds = []
            for stream, law in enumerate((gaussian_law(), rademacher_law())):
                dm = generate_linear_rows(filt, law, n_rows, n_cols, seed,
                                          stream=stream)
                esds.append(StepCdf.from_esd(
                    symmetric_eigenvalues(gram(dm.values))))
            pair_gaps.append(levy_distance(esds[0], esds[1]))
        gap[n_rows] = float(np.median(pair_gaps))
    elapsed = stopwatch.elapsed
    ok = gap[800] <= 0.05 and gap[800] < gap[200] and elapsed < 600.0
    record_acceptance(
        4, "gaussian vs sign innovations agree in the limit", ok,
        f"median seed-paired Levy gap n=200:{gap[200]:.4f} n=400:"
        f"{gap[400]:.4f} n=800:{gap[800]:.4f} (<=0.05, shrinking); "
        f"{elapsed:.1f}s")
    assert gap[800] <= 0.05
    assert gap[800] < gap[200]
    assert elapsed < 600.0


def test_criterion_05_gram_symmetrization_identity(
        record_acceptance, stopwatch):
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        p = int(rng.integers(1, 21))
        x = rng.standard_normal((n, p))
        z = complex(rng.uniform(-2, 4), rng.uniform(0.05, 2.0))
        lhs, rhs = gram_stieltjes_identity(x, z)
        worst = max(worst, abs(lhs - rhs))
    elapsed = stopwatch.elapsed
    ok = worst <= 1e-10 and elapsed < 10.0
    record_acceptance(
        5, "two-route transform of the product matrix", ok,
        f"max|lhs-rhs|={worst:.2e} on 100 random (N,p,z), N,p<=20; "
        f"{elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_06_covariance_spectrum_pushforward(
        record_acceptance, stopwatch):
    f = ar1_density(0.5)
    stats = {}
    for p in (100, 1000):
        esd = symmetric_eigenvalues(toeplitz_matrix(f, p))
        h = ar1_pushforward_cdf(esd.eigs, 0.5, 1.0)
        stats[p] = _kolmogorov_vs_continuous(esd.eigs, h)
    elapsed = stopwatch.elapsed
    ok = stats[1000] <= 0.05 and stats[1000] < stats[100] and elapsed < 60.0
    record_acceptance(
        6, "covariance spectrum matches transformed-density law", ok,
        f"Kolmogorov p=100:{stats[100]:.4f} p=1000:{stats[1000]:.4f} "
        f"(<=0.05, decreasing); {elapsed:.1f}s")
    assert stats[1000] <= 0.05
    assert stats[1000] < stats[100]
    assert elapsed < 60.0


def test_criterion_07_truncation_ladder_is_cauchy(
        record_acceptance, stopwatch):
    ladder = truncation_ladder(fractional_density(0.3), 0.5,
                               (2.0, 4.0, 8.0, 16.0, 32.0), FAST,
                               n_points=360)
    gaps = list(ladder.gaps)
    weakly_decreasing = all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))
    final_ok = gaps[-1] <= 0.01
    elapsed = stopwatch.elapsed
    ok = weakly_decreasing and final_ok and elapsed < 300.0
    record_acceptance(
        7, "capped-density limits form a Cauchy ladder", ok,
        "consecutive Levy gaps " +
        " >= ".join(f"{g:.5f}" for g in gaps) +
        f" (final <=0.01); {elapsed:.1f}s")
    assert weakly_decreasing
    assert final_ok
    assert elapsed < 300.0


def test_criterion_08_trace_inequality_suites(record_acceptance, stopwatch):
    rng = np.random.default_rng(88)
    diff_viol = 0
    diff_cases = []
    for _ in range(1000):
        n = int(rng.integers(4, 33))
        base = rng.standard_normal((n, n))
        a = SymMatrix((base + base.T) / 2.0)
        tau = rng.uniform(0.5, 0.9)
        d = rng.uniform(0.5, 1.0, n)
        b = SymMatrix(a.values + (tau / math.sqrt(n)) * np.diag(d))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
        lhs, rhs = stieltjes_diff_bound(a, b, z)
        diff_cases.append((a, b, z, lhs))
        if lhs > rhs:
            diff_viol += 1
    levy_viol = 0
    levy_cases = []
    for _ in range(1000):
        n = int(rng.integers(2, 25))
        p = int(rng.integers(1, 17))
        a = rng.standard_normal((n, p))
        b = a + rng.uniform(0.0, 1.0) * rng.standard_normal((n, p))
        lhs, rhs = levy_gram_bound(a, b)
        levy_cases.append((a, b, lhs))
        if lhs > rhs:
            levy_viol += 1
    elapsed = stopwatch.elapsed
    # outside the timed part: the left-hand sides against the eigenvalue
    # routes, through numpy.linalg.eigvalsh
    route_gap = 0.0
    for a, b, z, lhs in diff_cases:
        sa, sb = (np.mean(1.0 / (np.linalg.eigvalsh(m.values) - z))
                  for m in (a, b))
        route_gap = max(route_gap, abs(abs(sa - sb) - lhs))
    for a, b, lhs in levy_cases:
        fa, fb = (StepCdf.from_esd(gramspec.Esd(np.linalg.eigvalsh(m @ m.T)))
                  for m in (a, b))
        route_gap = max(route_gap, abs(levy_distance(fa, fb) ** 2 - lhs))
    ok = (diff_viol == 0 and levy_viol == 0 and elapsed < 60.0
          and route_gap <= 1e-12)
    record_acceptance(
        8, "trace inequality suites hold", ok,
        f"violations: transform-difference {diff_viol}/1000, "
        f"levy-vs-trace {levy_viol}/1000; {elapsed:.1f}s; left-hand sides "
        f"within {route_gap:.1e} of the eigenvalue routes")
    assert diff_viol == 0
    assert levy_viol == 0
    assert elapsed < 60.0
    assert route_gap <= 1e-12


def test_criterion_09_herglotz_and_mass_invariants(
        record_acceptance, stopwatch):
    f = ar1_density(0.5)
    rng = np.random.default_rng(99)
    herglotz_ok = True
    for c in (0.25, 0.5, 1.0, 2.0):
        for z in _z_cloud(rng, 10):
            pt = solve_limit_density(f, c, z, FAST)
            if not (pt.s.imag > 0.0 and pt.s_under.imag > 0.0):
                herglotz_ok = False
    masses = {}
    atom_at_2 = None
    for c in (0.25, 0.5, 1.0, 2.0):
        lim = invert_to_distribution(f, c, default_x_grid(f, c, 400), FAST)
        masses[c] = lim.total_mass
        if c == 2.0:
            atom_at_2 = lim.atom0
    mass_ok = all(abs(m - 1.0) <= 2e-3 for m in masses.values())
    atom_ok = atom_at_2 == 0.5
    elapsed = stopwatch.elapsed
    ok = herglotz_ok and mass_ok and atom_ok
    record_acceptance(
        9, "positive imaginary part and unit mass", ok,
        "Im S>0 at 40 solves x 4 aspect ratios; total mass " +
        ", ".join(f"c={c}:{m:.5f}" for c, m in masses.items()) +
        f" (1 +/- 2e-3); atom at zero for c=2: {atom_at_2}")
    assert herglotz_ok
    assert mass_ok
    assert atom_ok


def test_criterion_10_eigensolver_validation(record_acceptance, stopwatch):
    rng = np.random.default_rng(1010)
    worst_rel = 0.0
    for n in (3, 8, 32, 128, 512):
        base = rng.standard_normal((n, n))
        a = SymMatrix((base + base.T) / 2.0)
        esd = symmetric_eigenvalues(a)
        norm = float(np.linalg.norm(a.values))
        worst_rel = max(
            worst_rel,
            abs(float(np.sum(esd.eigs)) - float(np.trace(a.values))) / norm)
    base = rng.standard_normal((5, 5))
    a5 = SymMatrix((base + base.T) / 2.0)
    eigs5 = symmetric_eigenvalues(a5).eigs
    roots = np.sort(np.roots(charpoly_coefficients(a5.values)).real)
    charpoly_err = float(np.max(np.abs(eigs5 - roots)))
    elapsed = stopwatch.elapsed
    ok = worst_rel <= 1e-9 and charpoly_err <= 1e-8
    record_acceptance(
        10, "eigensolver trace and characteristic-polynomial checks", ok,
        f"max trace error {worst_rel:.2e} of ||A|| up to n=512; 5x5 root "
        f"gap {charpoly_err:.2e}; {elapsed:.2f}s")
    assert worst_rel <= 1e-9
    assert charpoly_err <= 1e-8
