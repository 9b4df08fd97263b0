"""The numeric kernels: eigensolver steps and the limit-equation solve."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gramspec
from gramspec import _kernels
from gramspec.errors import EigenNonConvergence


def test_backend_reports_a_known_name():
    assert gramspec.backend_name() == "numpy"


def _linalg_uses(tree):
    # every np.linalg / numpy.linalg attribute and every import of it
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            yield node.lineno
        elif isinstance(node, ast.Import) and any(
                a.name.startswith("numpy.linalg") for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.startswith("numpy.linalg")
                or (node.module == "numpy"
                    and any(a.name == "linalg" for a in node.names))):
            yield node.lineno


def test_no_module_uses_numpy_linalg():
    # the package's spectra come from its own eigensolver and its rows from
    # FFTs; numpy.linalg (LAPACK) is only the tests' oracle
    assert sorted(_linalg_uses(ast.parse("import numpy as np\n"
                                       "w = np.linalg.eigh(a)\n"
                                       "from numpy import linalg\n"))) \
        == [2, 3]
    src = Path(gramspec.__file__).resolve().parent
    found = {path.name: lines for path in sorted(src.glob("*.py"))
             if (lines := sorted(_linalg_uses(ast.parse(path.read_text()))))}
    assert found == {}


def test_warm_up_is_idempotent():
    gramspec.warm_up()
    gramspec.warm_up()


def test_warm_up_runs_the_householder_step(monkeypatch):
    # tridiagonalize builds a reflector only from order 3 up
    orders = []
    real = _kernels.tridiagonalize

    def record(a):
        orders.append(len(a))
        return real(a)

    monkeypatch.setattr(_kernels, "tridiagonalize", record)
    gramspec.warm_up()
    assert orders and min(orders) >= 3


def test_fixed_point_status_codes():
    # 0 once the residual meets tol, 1 when the iteration budget runs out
    rng = np.random.default_rng(0)
    g = np.sort(rng.uniform(0.1, 5.0, 64))
    w = rng.uniform(0.005, 0.02, 64)  # pre-scaled kernel weights
    z = complex(1.2, 0.3)
    s0 = complex(0.0, 1.0)
    s, resid, iters, status = _kernels.fixed_point(z, g, w, s0, 1e-12, 10_000)
    assert status == 0 and resid <= 1e-12 and 0 < iters < 100
    assert abs(z + 1.0 / s - np.sum(w / (s + g))) <= 1e-12
    _, resid, iters, status = _kernels.fixed_point(z, g, w, s0, 1e-12, 1)
    assert status == 1 and iters == 1 and resid > 1e-12


def _random_symmetric(seed: int, n: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((n, n))
    return (a + a.T) / 2.0


def _block_diagonal(*blocks) -> np.ndarray:
    # no reflector of a later block reaches an earlier one, so the first
    # row of each block but the first is exactly zero left of the diagonal
    # when its turn comes, with the later block's updates still pending
    n = sum(b.shape[0] for b in blocks)
    a = np.zeros((n, n))
    lo = 0
    for b in blocks:
        a[lo:lo + b.shape[0], lo:lo + b.shape[0]] = b
        lo += b.shape[0]
    return a


def _trailing_rows_scaled(n: int, m: int, scale: float) -> np.ndarray:
    # D a D with D = diag(1, ..., 1, scale, ..., scale), the last m of n
    # rows and columns scaled
    dd = np.ones(n)
    dd[n - m:] = scale
    return _random_symmetric(8, n) * dd[:, None] * dd[None, :]


def _low_rank(n: int, r: int) -> np.ndarray:
    b = np.random.default_rng(4).standard_normal((n, r))
    return b @ b.T  # n - r exact zero eigenvalues


_TRIDIAGONALIZE_CASES = {
    "random-24": lambda: _random_symmetric(1, 24),
    # tridiag(-1, 2, -1): constant diagonal, eigenvalues 2 - 2 cos(k pi / 25)
    "laplacian-24": lambda: (2.0 * np.eye(24) - np.eye(24, k=1)
                             - np.eye(24, k=-1)),
    # orders around the panel width and over several panels
    **{f"random-{n}": (lambda n=n: _random_symmetric(n, n))
       for n in (31, 32, 33, 65, 100, 300)},
    # a zero row and column between two blocks
    "zero-row-in-panel": lambda: _block_diagonal(
        _random_symmetric(2, 50), np.zeros((1, 1)), _random_symmetric(3, 49)),
    "block-diagonal": lambda: _block_diagonal(
        _random_symmetric(4, 40), _random_symmetric(5, 25),
        _random_symmetric(6, 35)),
    "low-rank-100x20": lambda: _low_rank(100, 20),
    "scaled-1e200": lambda: 1e200 * _random_symmetric(5, 80),
    "scaled-1e-200": lambda: 1e-200 * _random_symmetric(5, 80),
    "scaled-1e300": lambda: 1e300 * _random_symmetric(9, 40),
    "scaled-1e-300": lambda: 1e-300 * _random_symmetric(9, 40),
    # the trailing block is denormal and h = v.v of the last rows falls in
    # the denormal range: without the h < 2^-1000 guard the rank-2 updates
    # are wrong by O(|a|) and the result is NaN
    "trailing-rows-1e-155": lambda: _trailing_rows_scaled(40, 20, 1e-155),
    # the same block at orders whose QL leaves see it: once unit-scaled it
    # is denormal, where eps (|d[m]| + |d[m+1]|) underflows to 0, and
    # without the _TINY deflation floor the sweeps hit their cap
    **{f"trailing-rows-{n}-1e-155": (
        lambda n=n: _trailing_rows_scaled(n, n // 2, 1e-155))
       for n in (260, 400)},
    **{f"random-{n}": (lambda n=n: _random_symmetric(n, n))
       for n in (1, 2, 3, 4)},
    # every row of the zero block is already reduced when its turn comes
    "zero-rows-small": lambda: _block_diagonal(
        _random_symmetric(10, 3), np.zeros((2, 2)), _random_symmetric(11, 4)),
    "diagonal-6": lambda: np.diag([3.0, -1.0, 0.0, 2.5, 0.0, -4.0]),
}


@pytest.mark.parametrize("case", list(_TRIDIAGONALIZE_CASES))
def test_tridiagonalize_keeps_the_spectrum(case):
    # the kernels, step by step, against numpy.linalg.eigvalsh
    m = _TRIDIAGONALIZE_CASES[case]()
    before = m.copy()
    expect = np.linalg.eigvalsh(m)
    atol = 1e-13 * float(np.max(np.abs(expect)))
    d, e = _kernels.tridiagonalize(m)
    np.testing.assert_array_equal(m, before)
    assert np.all(np.isfinite(d)) and np.all(np.isfinite(e))
    # the reduction is orthogonal, so the tridiagonal matrix keeps the
    # spectrum to rounding
    t = np.diag(d) + np.diag(e[1:], 1) + np.diag(e[1:], -1)
    np.testing.assert_allclose(np.linalg.eigvalsh(t), expect, rtol=0.0,
                               atol=atol)
    eigs = _kernels.tridiagonal_eigenvalues(d, e)
    np.testing.assert_allclose(eigs, expect, rtol=0.0, atol=atol)


@pytest.mark.parametrize("j", [-900, -7, 0, 7, 900])
def test_tridiagonalize_commutes_with_powers_of_two(j):
    # the working copy is scaled to max |a_ij| in [0.5, 1) by an exact power
    # of two, so 2^j a gives 2^j times the bytes of a
    a = _random_symmetric(12, 40)
    d0, e0 = _kernels.tridiagonalize(a)
    d, e = _kernels.tridiagonalize(2.0 ** j * a)
    assert d.tobytes() == (2.0 ** j * d0).tobytes()
    assert e.tobytes() == (2.0 ** j * e0).tobytes()
    expect = np.linalg.eigvalsh(2.0 ** j * a)
    np.testing.assert_allclose(_kernels.tridiagonal_eigenvalues(d, e), expect,
                               rtol=0.0,
                               atol=1e-13 * float(np.max(np.abs(expect))))


# ---------------------------------------------------------------------------
# tridiagonal eigenvalues above the leaf order: the merges of the divide
# and conquer


def _tridiagonal(d, off) -> tuple[np.ndarray, np.ndarray]:
    # (d, e) in the kernels' convention: e[i] couples rows i-1 and i
    return np.asarray(d, dtype=float), np.concatenate([[0.0], off])


def _glued_wilkinson(m: int, copies: int, glue: float):
    # W21+ has pairs of eigenvalues that agree to about 1e-14; glued
    # copies of Wm+ give clusters of nearly equal poles in every merge
    w = np.abs(np.arange(m) - (m - 1) / 2.0)
    off = np.tile(np.append(np.ones(m - 1), glue), copies)[:-1]
    return _tridiagonal(np.tile(w, copies), off)


def _split_at_top(n: int):
    # random, with an exact zero where the top merge tears the matrix
    rng = np.random.default_rng(17)
    off = rng.standard_normal(n - 1)
    off[n // 2 - 1] = 0.0
    return _tridiagonal(rng.standard_normal(n), off)


_DIVIDE_CASES = {
    "glued-wilkinson-20x21": lambda: _glued_wilkinson(21, 20, 1e-10),
    # wrong by 6e-8 if the eigenvector rows use z instead of z-hat
    "glued-wilkinson-10x24": lambda: _glued_wilkinson(24, 10, 1e-4),
    "laplacian-500": lambda: _tridiagonal(np.full(500, 2.0), -np.ones(499)),
    "zero-at-top-split-64": lambda: _split_at_top(64),
    "zero-at-top-split-301": lambda: _split_at_top(301),
    # every off-diagonal negative, some far below eps of the norm
    "graded-signs-100": lambda: _tridiagonal(
        np.linspace(-1.0, 1.0, 100), -(10.0 ** -np.arange(99.0) / 5.0)),
}


@pytest.mark.parametrize("case", list(_DIVIDE_CASES))
def test_divide_and_conquer_matches_eigvalsh(case):
    d, e = _DIVIDE_CASES[case]()
    t = np.diag(d) + np.diag(e[1:], 1) + np.diag(e[1:], -1)
    expect = np.linalg.eigvalsh(t)
    eigs = _kernels.tridiagonal_eigenvalues(d, e)
    np.testing.assert_allclose(eigs, expect, rtol=0.0,
                               atol=1e-13 * float(np.max(np.abs(expect))))


# ---------------------------------------------------------------------------
# resolvent trace against the eigenvalue route: (d, e, unit), z in units of
# the matrix entries


def _random_tridiagonal(seed: int, n: int):
    rng = np.random.default_rng(seed)
    return _tridiagonal(rng.standard_normal(n), rng.standard_normal(n - 1))


_RESOLVENT_CASES = {
    "order-1": lambda: (*_tridiagonal([0.7], []), 1.0),
    "order-1-zero": lambda: (*_tridiagonal([0.0], []), 1.0),
    "zero-diagonal-9": lambda: (
        *_tridiagonal(np.zeros(9),
                      np.random.default_rng(18).standard_normal(8)), 1.0),
    "zero-diagonal-32": lambda: (*_tridiagonal(np.zeros(32), np.ones(31)),
                                 1.0),
    "split-diagonal-24": lambda: (
        *_tridiagonal(np.random.default_rng(19).standard_normal(24),
                      np.zeros(23)), 1.0),
    "split-at-middle-24": lambda: (*_split_at_top(24), 1.0),
    "random-39": lambda: (*_random_tridiagonal(20, 39), 1.0),
    "scaled-1e150": lambda: (*(1e150 * v for v in _random_tridiagonal(21, 30)),
                             1e150),
    "scaled-1e-150": lambda: (*(1e-150 * v
                                for v in _random_tridiagonal(22, 30)),
                              1e-150),
}


@pytest.mark.parametrize("case", list(_RESOLVENT_CASES))
def test_resolvent_trace_matches_the_eigenvalue_route(case):
    d, e, unit = _RESOLVENT_CASES[case]()
    eigs = _kernels.tridiagonal_eigenvalues(d, e)
    for y in (1e-3, 0.1, 2.0):
        for sign in (1.0, -1.0):
            for x in (-1.3, 0.0, 0.2, 2.1):
                z = complex(x * unit, sign * y * unit)
                got = _kernels.resolvent_trace(d, e, z)
                expect = complex(np.sum(1.0 / (eigs - z)))
                assert abs(got - expect) <= 1e-12 * abs(expect), (z, got)
                assert got.imag * sign > 0.0


@pytest.mark.parametrize("k", [2, 40, 300])
def test_merge_with_all_poles_equal(k):
    # D = I with a dense z: the close-pole sweep deflates all poles but
    # one, which takes 1 + rho with eigenvector z; the rotations keep each
    # row's norm
    rng = np.random.default_rng(k)
    z = rng.standard_normal(k)
    z /= np.linalg.norm(z)
    rows = rng.standard_normal((2, k))
    lam, new_rows = _kernels._merge(np.ones(k), z, 0.7, rows.copy(), 0)
    np.testing.assert_allclose(lam, np.append(np.ones(k - 1), 1.7),
                               rtol=0.0, atol=1e-14)
    top = rows @ z
    sign = np.sign(new_rows[0, -1] * top[0])
    np.testing.assert_allclose(sign * new_rows[:, -1], top, atol=1e-13)
    np.testing.assert_allclose(np.sum(new_rows ** 2, axis=1),
                               np.sum(rows ** 2, axis=1), rtol=1e-13)


@pytest.fixture(scope="module")
def gram_1000_tridiagonal():
    # the tridiagonal form of X^T X / N for a 2000 x 1000 Gaussian X
    x = np.random.default_rng(1000).standard_normal((2000, 1000))
    return _kernels.tridiagonalize(x.T @ x / 2000.0)


def test_divide_and_conquer_at_order_1000(gram_1000_tridiagonal):
    d, e = gram_1000_tridiagonal
    t = np.diag(d) + np.diag(e[1:], 1) + np.diag(e[1:], -1)
    expect = np.linalg.eigvalsh(t)
    eigs = _kernels.tridiagonal_eigenvalues(d, e)
    np.testing.assert_allclose(eigs, expect, rtol=0.0,
                               atol=1e-13 * float(np.max(np.abs(expect))))


def test_divide_and_conquer_peak_allocation(gram_1000_tridiagonal):
    # the secular solves work on (order x _CHUNK) blocks, never on an
    # order x order matrix
    d, e = gram_1000_tridiagonal
    tracemalloc.start()
    try:
        _kernels.tridiagonal_eigenvalues(d, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_divide_and_conquer_keeps_ql_below_the_leaf_order(monkeypatch):
    # orders up to the leaf size _LEAF are one QL leaf and never merge;
    # the next order does
    def fail(*args, **kwargs):
        raise AssertionError("a merge ran")

    monkeypatch.setattr(_kernels, "_merge", fail)
    d, e = _split_at_top(_kernels._LEAF)
    eigs = _kernels.tridiagonal_eigenvalues(d, e)
    assert eigs.size == _kernels._LEAF
    d, e = _split_at_top(_kernels._LEAF + 1)
    with pytest.raises(AssertionError, match="a merge ran"):
        _kernels.tridiagonal_eigenvalues(d, e)


def test_tridiagonal_eigenvalues_raise_at_their_caps(monkeypatch):
    # the kernel raises EigenNonConvergence itself: a QL leaf at its sweep
    # cap, and above _LEAF a merge at an unconverged secular root
    d, e = _random_tridiagonal(23, 8)
    with monkeypatch.context() as m:
        m.setattr(_kernels, "_SWEEPS_PER_ROW", 0)
        with pytest.raises(EigenNonConvergence, match="sweep cap") as info:
            _kernels.tridiagonal_eigenvalues(d, e)
    assert info.value.index == 0
    d, e = _random_tridiagonal(24, _kernels._LEAF + 1)
    monkeypatch.setattr(_kernels, "_SECULAR_MAXIT", 0)
    with pytest.raises(EigenNonConvergence, match="secular") as info:
        _kernels.tridiagonal_eigenvalues(d, e)
    assert 0 <= info.value.index < d.size
