"""Symmetric embeddings, Gram matrices, the hand-rolled eigensolver."""

import math

import numpy as np
import pytest

import gramspec
from gramspec import _kernels
from gramspec.errors import DomainError, EigenNonConvergence

from _oracles import charpoly_coefficients, semicircle_cdf


# ---------------------------------------------------------------------------
# lower-triangle embedding and Gram forms


def test_symmetric_from_lower_hand_case():
    # n = 3: entries fill the lower triangle row-major, then scale 1/sqrt(3)
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    m = gramspec.symmetric_from_lower(x, 3)
    expect = np.array([[1.0, 2.0, 4.0],
                       [2.0, 3.0, 5.0],
                       [4.0, 5.0, 6.0]]) / math.sqrt(3.0)
    np.testing.assert_allclose(m.values, expect, rtol=1e-15)


def test_symmetric_from_lower_rejects_wrong_length():
    with pytest.raises(DomainError):
        gramspec.symmetric_from_lower(np.arange(5, dtype=float), 3)


def _wigner_spectrum(filt, law, n: int, seed: int, stream: int = 0):
    # independent stationary rows below the diagonal, through the Wigner map
    tri = gramspec.generate_stationary_lower_triangle(filt, law, n, seed,
                                                      stream=stream)
    return gramspec.symmetric_eigenvalues(
        gramspec.symmetric_from_lower(tri, n))


def test_iid_symmetric_ensemble_follows_the_semicircle():
    # iid rows (c0 = 1) make a Wigner matrix, whose ESD tends to the
    # semicircle of radius 2 sqrt(c0); at n = 400 the Kolmogorov distance
    # reads 0.0074-0.0095 over seeds 1-3, and 0.47 if the map scaled by 1/n
    filt = gramspec.filter_from_density(gramspec.constant_density())
    n = 400
    steps = np.arange(n + 1) / n
    for seed in (1, 2, 3):
        eigs = _wigner_spectrum(filt, gramspec.gaussian_law(), n, seed).eigs
        cdf = semicircle_cdf(eigs, 2.0)
        ks = max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1]))
        assert ks <= 0.02, seed


def test_symmetric_ensemble_cross_law_gap_shrinks_with_n():
    # Gaussian against Rademacher rows through the long-memory filter: the
    # median seed-paired Levy distance over seeds 1-3 falls from 0.015 at
    # n = 200 to 0.0075 at n = 400
    filt = gramspec.filter_from_density(gramspec.fractional_density(0.3),
                                        tail_tol=5e-3)
    medians = []
    for n in (200, 400):
        gaps = [gramspec.levy_distance(
                    gramspec.StepCdf.from_esd(_wigner_spectrum(
                        filt, gramspec.gaussian_law(), n, seed, stream=0)),
                    gramspec.StepCdf.from_esd(_wigner_spectrum(
                        filt, gramspec.rademacher_law(), n, seed, stream=1)))
                for seed in (1, 2, 3)]
        medians.append(float(np.median(gaps)))
    assert medians[1] < medians[0]


def test_gram_is_normalized_cross_product():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((11, 4))
    g = gramspec.gram(x)
    np.testing.assert_allclose(g.values, x.T @ x / 11.0, rtol=1e-14)
    np.testing.assert_allclose(gramspec.gram(x, 2.0).values, x.T @ x / 2.0,
                               rtol=1e-14)
    for bad in (np.ones(4), np.ones((2, 2, 2))):
        with pytest.raises(DomainError):
            gramspec.gram(bad)
    with pytest.raises(DomainError):
        gramspec.gram(x, 0.0)


def _triangle_passes(a):
    # the lower triangle mirrored, as SymMatrix builds a non-symmetric input
    low = np.tril(a)
    return low + low.T - np.diag(np.diag(a))


def test_gram_is_exactly_symmetric_and_keeps_the_triangle_pass_bytes():
    # the Gram product is exactly symmetric for C-ordered, Fortran-ordered
    # and column-strided operands, with a zero column, and passes through
    # SymMatrix with the bytes the triangle passes give.  A strided
    # operand gets the bytes of its contiguous copy, within roundoff of a
    # general product on the strided view, which is not exactly symmetric.
    rng = np.random.default_rng(3)
    base = rng.standard_normal((120, 90))
    base[:, 6] = 0.0
    for x in (base, np.asfortranarray(base), base[:, ::2]):
        g = gramspec.gram(x).values
        assert np.array_equal(g, g.T)
        assert not np.signbit(g[g == 0.0]).any()
        c = np.ascontiguousarray(x)
        assert g.tobytes() == _triangle_passes((c.T @ c) / 120).tobytes()
        if x.flags.c_contiguous or x.flags.f_contiguous:
            assert g.tobytes() == _triangle_passes((x.T @ x) / 120).tobytes()
        else:
            ref = _triangle_passes((x.T @ x) / 120)
            assert float(np.max(np.abs(g - ref))) <= 1e-14 * ref.max()


def _rank_deficient(n: int, p: int, r: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.standard_normal((n, r)) @ rng.standard_normal((r, p))


@pytest.mark.parametrize("x", [
    np.random.default_rng(8).standard_normal((40, 25)),
    np.random.default_rng(9).standard_normal((30, 30)),
    _rank_deficient(20, 12, 5),
    np.random.default_rng(10).standard_normal((25, 40)),
    np.random.default_rng(11).standard_normal((1, 9)),
    _rank_deficient(12, 30, 5),
], ids=["40x25", "30x30", "rank5-20x12", "25x40", "1x9", "rank5-12x30"])
@pytest.mark.parametrize("norm", [None, 1.0])
def test_gram_eigenvalues_come_from_the_smaller_gram(x, norm):
    nn, pp = x.shape
    norm = nn if norm is None else norm
    got = gramspec.gram_eigenvalues(x, norm).eigs
    assert got.size == pp
    if pp <= nn:
        # the order-p product itself; for norm = N, the route of gram
        prod = gramspec.gram(x) if norm == nn \
            else gramspec.SymMatrix((x.T @ x) / norm)
        ref = gramspec.symmetric_eigenvalues(prod).eigs
        assert got.tobytes() == ref.tobytes()
        return
    # the order-p product has p - N zero eigenvalues, here exact
    assert int(np.sum(got == 0.0)) == pp - nn
    assert not np.signbit(got[got == 0.0]).any()
    expect = np.linalg.eigvalsh(x.T @ x / norm)
    np.testing.assert_allclose(got, expect, rtol=0.0,
                               atol=1e-12 * float(expect[-1]))


def test_gram_eigenvalues_validate():
    with pytest.raises(DomainError):
        gramspec.gram_eigenvalues(np.ones(4), 1.0)
    with pytest.raises(DomainError):
        gramspec.gram_eigenvalues(np.ones((2, 3)), 0.0)


def test_symmatrix_of_a_symmetric_array_is_a_normalised_copy():
    a = np.array([[2.0, -0.0, 1.5], [0.0, -0.0, -3.0], [1.5, -3.0, 1e300]])
    m = gramspec.SymMatrix(a)
    assert m.values is not a and a.flags.writeable
    assert not m.values.flags.writeable
    assert m.values.tobytes() == _triangle_passes(a).tobytes()


def test_symmatrix_mirrors_the_lower_triangle_without_overflow():
    # a non-symmetric input gets the reference bytes, signed zeros
    # normalised, and a diagonal entry near the top of the double range
    # stays finite: the mirror adds only zeros to it, where 2a - a overflows
    rng = np.random.default_rng(5)
    a = rng.standard_normal((7, 7)) * np.logspace(-300, 300, 7)
    a[2, 1] = a[4, 4] = a[1, 5] = -0.0
    m = gramspec.SymMatrix(a)
    assert m.values.tobytes() == _triangle_passes(a).tobytes()
    huge = gramspec.SymMatrix(np.array([[1e308, 0.0], [1.0, 2.0]]))
    assert huge.values.tolist() == [[1e308, 1.0], [1.0, 2.0]]


def test_symmetrize_gram_squares_to_gram_spectrum():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((8, 5))
    sym = gramspec.symmetrize_gram(x)
    assert sym.values.shape == (13, 13)
    sq = np.sort(gramspec.symmetric_eigenvalues(sym).eigs ** 2)
    gram_eigs = np.sort(gramspec.symmetric_eigenvalues(gramspec.gram(x)).eigs)
    # squares of the 13 embedded eigenvalues: the 5 Gram eigenvalues twice
    # (in +/- pairs) plus |N - p| = 3 zeros
    np.testing.assert_allclose(sq[:3], 0.0, atol=1e-12)
    np.testing.assert_allclose(sq[3::2], gram_eigs, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(sq[4::2], gram_eigs, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# eigensolver versus an independent dense routine


def _wilkinson_plus(n: int) -> np.ndarray:
    half = n // 2
    return (np.diag(np.abs(np.arange(n) - half).astype(float))
            + np.eye(n, k=1) + np.eye(n, k=-1))


def _low_rank_gram(seed: int, n: int = 20, r: int = 4) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((n, r))
    return a @ a.T  # n - r exact zero eigenvalues


def _random_symmetric(seed: int, n: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((n, n))
    return (a + a.T) / 2.0


_STRUCTURED = {
    "ones-5": lambda: np.ones((5, 5)),
    "zeros-4": lambda: np.zeros((4, 4)),
    "eye-5": lambda: np.eye(5),
    "embedding-rectangular": lambda: gramspec.symmetrize_gram(
        np.random.default_rng(7).standard_normal((9, 4))).values,
    "embedding-square": lambda: gramspec.symmetrize_gram(
        np.random.default_rng(8).standard_normal((6, 6))).values,
    "wilkinson-21": lambda: _wilkinson_plus(21),
    "graded-diagonal": lambda: np.diag(10.0 ** -np.arange(16.0)),
    "scaled-1e150": lambda: 1e150 * _random_symmetric(9, 30),
    "scaled-1e-150": lambda: 1e-150 * _random_symmetric(9, 30),
    # squared off-diagonals would overflow / underflow without rescaling
    "scaled-1e200": lambda: 1e200 * _random_symmetric(9, 30),
    "scaled-1e-200": lambda: 1e-200 * _random_symmetric(9, 30),
    "low-rank-gram": lambda: _low_rank_gram(10),
    # above the QL order, the divide and conquer: many zero z entries
    "low-rank-gram-300x60": lambda: _low_rank_gram(11, 300, 60),
    # tridiagonal form: the identity but for one 2 x 2 block, so the
    # merges see equal poles with z entries below the deflation tolerance
    "identity-plus-rank-one-200": lambda: np.eye(200) + np.outer(
        *2 * [np.random.default_rng(12).standard_normal(200)]),
    "scaled-1e200-300": lambda: 1e200 * _random_symmetric(13, 300),
    "scaled-1e-200-300": lambda: 1e-200 * _random_symmetric(13, 300),
    # zero diagonal, eigenvalues in +/- pairs and 10 zeros
    "embedding-50x40": lambda: gramspec.symmetrize_gram(
        np.random.default_rng(14).standard_normal((50, 40))).values,
}


# random symmetric matrices by order, then structured cases by name
@pytest.mark.parametrize("case", [1, 2, 3, 5, 16, 33, 64, 65, 100, 128, 257,
                                  300, *_STRUCTURED])
def test_eigenvalues_match_lapack(case, monkeypatch):
    if isinstance(case, int):
        a = _random_symmetric(case, case)
    else:
        a = _STRUCTURED[case]()
    expect = np.linalg.eigvalsh(a)
    # above the leaf order, both the default route and the divide and
    # conquer forced by lowering the QL crossover
    crossovers = [_kernels._QL_MAX]
    if a.shape[0] > _kernels._LEAF:
        crossovers.append(_kernels._LEAF)
    for ql_max in crossovers:
        monkeypatch.setattr(_kernels, "_QL_MAX", ql_max)
        got = gramspec.symmetric_eigenvalues(gramspec.SymMatrix(a)).eigs
        # relative to the spectral radius; exact for the zero matrix
        np.testing.assert_allclose(got, expect, rtol=0.0,
                                   atol=1e-13 * float(np.max(np.abs(expect))))


def test_sweep_cap_raises_eigen_non_convergence(monkeypatch):
    monkeypatch.setattr(_kernels, "_SWEEPS_PER_ROW", 0)
    with pytest.raises(EigenNonConvergence, match="sweep cap") as info:
        gramspec.symmetric_eigenvalues(np.array([[2.0, 1.0], [1.0, 3.0]]))
    assert info.value.index == 0
    # a diagonal matrix deflates without a single sweep
    got = gramspec.symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0])).eigs
    np.testing.assert_array_equal(got, [1.0, 2.0, 3.0])


def test_divide_and_conquer_caps_raise_eigen_non_convergence(monkeypatch):
    # order 80, sent to the divide and conquer by lowering the QL
    # crossover: a leaf's QL sweeps share the cap of _SWEEPS_PER_ROW per
    # row, and each secular root has _SECULAR_MAXIT steps
    monkeypatch.setattr(_kernels, "_QL_MAX", _kernels._LEAF)
    a = _random_symmetric(15, 80)
    with monkeypatch.context() as m:
        m.setattr(_kernels, "_SWEEPS_PER_ROW", 0)
        with pytest.raises(EigenNonConvergence, match="sweep cap") as info:
            gramspec.symmetric_eigenvalues(a)
        assert info.value.index == 0
    monkeypatch.setattr(_kernels, "_SECULAR_MAXIT", 0)
    with pytest.raises(EigenNonConvergence, match="secular") as info:
        gramspec.symmetric_eigenvalues(a)
    assert 0 <= info.value.index < 80


def test_eigenvalues_degenerate_and_diagonal():
    d = np.diag([3.0, 3.0, 3.0, -1.0, -1.0, 7.0])
    got = np.sort(gramspec.symmetric_eigenvalues(gramspec.SymMatrix(d)).eigs)
    np.testing.assert_allclose(got, np.sort(np.diag(d)), atol=1e-12)
    rank1 = np.outer(np.ones(5), np.ones(5))
    got1 = np.sort(gramspec.symmetric_eigenvalues(
        gramspec.SymMatrix(rank1)).eigs)
    np.testing.assert_allclose(got1, [0, 0, 0, 0, 5.0], atol=1e-12)


def test_eigenvalues_charpoly_oracle_5x5():
    rng = np.random.default_rng(55)
    a = rng.standard_normal((5, 5))
    a = (a + a.T) / 2.0
    got = np.sort(gramspec.symmetric_eigenvalues(gramspec.SymMatrix(a)).eigs)
    roots = np.sort(np.roots(charpoly_coefficients(a)).real)
    np.testing.assert_allclose(got, roots, atol=1e-10)


def test_symmetric_eigenvalues_accepts_raw_arrays_and_validates():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    e = gramspec.symmetric_eigenvalues(a)
    np.testing.assert_allclose(np.sort(e.eigs), [1.0, 3.0], atol=1e-13)
    # the lower triangle is authoritative: the upper entry is ignored
    skew = gramspec.symmetric_eigenvalues(np.array([[0.0, 9.0], [0.5, 0.0]]))
    np.testing.assert_allclose(np.sort(skew.eigs), [-0.5, 0.5], atol=1e-13)
    # likewise at larger orders, the last one beyond a tridiagonalization
    # panel
    rng = np.random.default_rng(12)
    for n in (6, 40):
        low = np.tril(rng.standard_normal((n, n)))
        junk = np.triu(rng.uniform(5.0, 10.0, (n, n)), 1)
        expect = np.linalg.eigvalsh(low + np.tril(low, -1).T)
        got = gramspec.symmetric_eigenvalues(low + junk).eigs
        np.testing.assert_allclose(got, expect, rtol=0.0,
                                   atol=1e-13 * float(np.max(np.abs(expect))))
    with pytest.raises(DomainError):
        gramspec.symmetric_eigenvalues(np.ones((2, 3)))
    inf_below = np.eye(3)
    inf_below[2, 0] = np.inf
    for bad in (np.full((3, 3), np.nan), inf_below):
        with pytest.raises(DomainError, match="finite"):
            gramspec.symmetric_eigenvalues(bad)


# regression cases from the former Sturm bisection eigensolver, whose first
# midpoint (the middle of the Gershgorin interval) landed exactly on a
# diagonal entry in every case below
@pytest.mark.parametrize("a, expect", [
    # zero-diagonal embedding of X = [[1]]: [[0, 1], [1, 0]]
    (gramspec.symmetrize_gram(np.array([[1.0]])), [-1.0, 1.0]),
    # both eigenvalues sit on the Gershgorin bounds [0, 2]
    (np.ones((2, 2)), [0.0, 2.0]),
    # tridiag(-1, 2, -1) of order 6: eigenvalues 2 - 2 cos(k pi / 7)
    (2.0 * np.eye(6) - np.eye(6, k=1) - np.eye(6, k=-1),
     2.0 - 2.0 * np.cos(np.arange(1, 7) * math.pi / 7.0)),
], ids=["zero-diagonal-embedding", "gershgorin-bounds", "laplacian-6"])
def test_eigenvalues_when_bisection_midpoints_hit_the_diagonal(a, expect):
    got = np.sort(gramspec.symmetric_eigenvalues(a).eigs)
    np.testing.assert_allclose(got, expect, atol=1e-13)


# ---------------------------------------------------------------------------
# empirical spectral distribution and its Stieltjes transform


def test_esd_cdf_step_values():
    e = gramspec.Esd(np.array([1.0, 2.0, 2.0, 5.0]))
    assert e.n == 4
    xs = np.array([0.5, 1.0, 1.5, 2.0, 4.9, 5.0, 9.0])
    np.testing.assert_allclose(gramspec.StepCdf.from_esd(e).value(xs),
                               [0, 0.25, 0.25, 0.75, 0.75, 1.0, 1.0])


def test_stieltjes_empirical_is_resolvent_trace():
    rng = np.random.default_rng(4)
    eigs = np.sort(rng.uniform(0.0, 3.0, 12))
    e = gramspec.Esd(eigs)
    z = 0.7 + 0.2j
    got = gramspec.stieltjes_empirical(e, z)
    expect = complex(np.mean(1.0 / (eigs - z)))
    assert abs(got - expect) < 1e-14
    assert got.imag > 0
    for bad in (0.7 - 0.2j, complex(math.nan, 0.2), complex(0.7, math.nan),
                complex(math.inf, 0.2)):
        with pytest.raises(DomainError):
            gramspec.stieltjes_empirical(e, bad)


def test_gram_stieltjes_identity_refuses_z_that_is_not_finite():
    x = np.ones((4, 3))
    for bad in (complex(math.nan, 0.2), complex(0.7, math.nan),
                complex(0.7, math.inf)):
        with pytest.raises(DomainError):
            gramspec.gram_stieltjes_identity(x, bad)


def test_embedding_and_identity_refuse_data_that_is_not_2d():
    with pytest.raises(DomainError, match="2-d"):
        gramspec.symmetrize_gram(np.ones(3))
    with pytest.raises(DomainError, match="2-d"):
        gramspec.gram_stieltjes_identity(np.ones(3), 1.0 + 1.0j)


def test_gram_stieltjes_identity_agrees_on_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 15))
        p = int(rng.integers(2, 15))
        x = rng.standard_normal((n, p))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
        lhs, rhs = gramspec.gram_stieltjes_identity(x, z)
        assert abs(lhs - rhs) < 1e-12
