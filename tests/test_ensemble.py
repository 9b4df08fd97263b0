"""Innovation laws, per-row substreams, row generation, binary cache."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gramspec
from gramspec import ensemble
from gramspec.errors import DomainError, MemoryBudgetError

from _oracles import ar1_covariance


M = 200_000  # Monte-Carlo draws per law check
TOL = 5.0 / math.sqrt(M)


# ---------------------------------------------------------------------------
# innovation laws: standardized to mean 0, variance 1


LAWS = {
    "gaussian": gramspec.gaussian_law,
    "rademacher": gramspec.rademacher_law,
    "uniform": lambda: gramspec.InnovationLaw("uniform"),
    "student_t": lambda: gramspec.InnovationLaw("student_t", (8.0,)),
    "martingale_sign": lambda: gramspec.InnovationLaw("martingale_sign"),
}


@pytest.mark.parametrize("name", sorted(LAWS))
def test_law_mean_zero_variance_one(name):
    law = LAWS[name]()
    x = law.sample(np.random.default_rng(7), M)
    assert x.shape == (M,)
    assert abs(float(np.mean(x))) < TOL
    assert abs(float(np.var(x)) - 1.0) < 5.0 * TOL


def test_rademacher_values_are_signs():
    x = gramspec.rademacher_law().sample(np.random.default_rng(1), 5000)
    assert set(np.unique(x)) == {-1.0, 1.0}


def test_uniform_law_is_bounded():
    x = LAWS["uniform"]().sample(np.random.default_rng(1), 5000)
    assert float(np.max(np.abs(x))) <= math.sqrt(3.0) + 1e-12


def test_martingale_sign_is_uncorrelated_sign_sequence():
    x = LAWS["martingale_sign"]().sample(np.random.default_rng(3), M)
    assert set(np.unique(x)) == {-1.0, 1.0}
    # martingale differences: zero mean and no lag-1 correlation, though
    # the sequence is not independent
    assert abs(float(np.mean(x))) < TOL
    lag1 = float(np.mean(x[1:] * x[:-1]))
    assert abs(lag1) < TOL


def test_student_t_requires_finite_variance():
    with pytest.raises(DomainError):
        gramspec.InnovationLaw("student_t", (2.0,))
    with pytest.raises(DomainError):
        gramspec.InnovationLaw("student_t", (1.5,))


def test_law_from_spec():
    assert gramspec.law_from_spec({"law": "gaussian"}).tag == "gaussian"
    law = gramspec.law_from_spec({"law": "student_t", "nu": 6})
    assert law.tag == "student_t"
    with pytest.raises(DomainError):
        gramspec.law_from_spec({"law": "cauchy"})
    with pytest.raises(DomainError):
        gramspec.law_from_spec({"law": "student_t"})  # missing nu
    with pytest.raises(DomainError):
        gramspec.law_from_spec({})


@pytest.mark.parametrize("spec, message", [
    ({"law": "gaussian", "nu": 3},
     "gaussian innovation spec has unknown keys ['nu']"),
    ({"law": "student_t", "nu": 6, "df": 6},
     "student_t innovation spec has unknown keys ['df']"),
    ({"law": "student_t"}, "student_t innovation spec needs 'nu'"),
    ({"law": "student_t", "nu": "6"}, 'expected a number, got "6"'),
    ({"law": "student_t", "nu": True}, "expected a number, got true"),
    ({"law": "cauchy"}, "unknown innovation law 'cauchy'"),
], ids=["gaussian-nu", "student_t-df", "student_t-missing-nu",
        "student_t-string", "student_t-bool", "unknown-law"])
def test_law_from_spec_refuses_what_it_would_ignore_or_coerce(spec,
                                                              message):
    # a key the law does not take is named, not dropped, and nu is a
    # number, not a string or a bool read as one
    with pytest.raises(DomainError) as exc:
        gramspec.law_from_spec(spec)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# per-row substreams


def test_row_rng_reproducible_and_distinct():
    a = ensemble.row_rng(11, 3).standard_normal(8)
    b = ensemble.row_rng(11, 3).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    for other in (ensemble.row_rng(11, 4), ensemble.row_rng(12, 3),
                  ensemble.row_rng(11, 3, stream=1)):
        assert not np.array_equal(a, other.standard_normal(8))


def test_row_rng_validates_indices():
    with pytest.raises(DomainError):
        ensemble.row_rng(1, -1)
    with pytest.raises(DomainError):
        ensemble.row_rng(1, 0, stream=1 << 16)


# ---------------------------------------------------------------------------
# row generation


def test_generate_linear_rows_deterministic_and_shaped():
    filt = gramspec.LinearFilter(1, np.array([0.3, 1.0, 0.2]))
    law = gramspec.gaussian_law()
    a = gramspec.generate_linear_rows(filt, law, 20, 50, seed=5)
    b = gramspec.generate_linear_rows(filt, law, 20, 50, seed=5)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.values.shape == (20, 50)
    assert a.seed == 5
    c = gramspec.generate_linear_rows(filt, law, 20, 50, seed=6)
    assert not np.array_equal(a.values, c.values)


def test_generate_linear_rows_ma1_covariance_statistics():
    # MA(1) x_t = e_t + theta e_{t-1}: autocovariances (1+theta^2, theta, 0)
    theta = 0.6
    filt = gramspec.LinearFilter(0, np.array([1.0, theta]))
    dm = gramspec.generate_linear_rows(filt, gramspec.gaussian_law(),
                                       4000, 64, seed=2)
    x = dm.values
    c0 = float(np.mean(x * x))
    c1 = float(np.mean(x[:, 1:] * x[:, :-1]))
    c2 = float(np.mean(x[:, 2:] * x[:, :-2]))
    tol = 5.0 / math.sqrt(x.size)
    assert abs(c0 - (1 + theta**2)) < 3 * tol
    assert abs(c1 - theta) < 3 * tol
    assert abs(c2) < 3 * tol


def test_generate_linear_rows_row_extension_is_stable():
    # adding rows never changes earlier rows (per-row substreams)
    filt = gramspec.LinearFilter(0, np.array([1.0, 0.5]))
    law = gramspec.rademacher_law()
    small = gramspec.generate_linear_rows(filt, law, 4, 30, seed=9)
    big = gramspec.generate_linear_rows(filt, law, 8, 30, seed=9)
    np.testing.assert_array_equal(big.values[:4], small.values)


@pytest.mark.parametrize("flen, n_cols, law", [
    (37, 10, gramspec.rademacher_law()),  # filter longer than a row
    (1, 13, gramspec.gaussian_law()),     # one tap; m = 13 is prime
    (20, 78, gramspec.InnovationLaw("student_t", (6.0,))),  # m = 97 is prime
])
def test_generate_linear_rows_is_valid_convolution(flen, n_cols, law):
    # each row is the "valid" part of the full convolution of its own
    # innovations with the filter, so the FFT route must never wrap
    coeffs = np.random.default_rng(flen).standard_normal(flen)
    filt = gramspec.LinearFilter(flen // 2, coeffs)
    seed, stream, n_rows = 4, 3, 6
    dm = gramspec.generate_linear_rows(filt, law, n_rows, n_cols, seed,
                                       stream=stream)
    m = n_cols + flen - 1
    for i in range(n_rows):
        eps = law.sample(ensemble.row_rng(seed, i, stream), m)
        expect = np.convolve(eps, coeffs, "valid")
        tol = 1e-13 * np.sum(np.abs(coeffs)) * np.max(np.abs(eps))
        assert float(np.max(np.abs(dm.values[i] - expect))) <= tol


def test_generate_toeplitz_gaussian_rows_covariance():
    f = gramspec.ar1_density(0.5, 1.0)
    dm = gramspec.generate_toeplitz_gaussian_rows(f, 4000, 6, seed=3)
    emp = dm.values.T @ dm.values / 4000.0
    tol = 5.0 / math.sqrt(4000)
    for i in range(6):
        for j in range(6):
            assert abs(emp[i, j] - ar1_covariance(i - j, 0.5)) < tol


def test_generate_gaussian_rows_matches_filter_route_statistics():
    # same density through the explicit-filter route and the gaussian
    # route: initial autocovariances must agree statistically
    f = gramspec.ar1_density(0.4, 1.0)
    dm = gramspec.generate_gaussian_rows(f, 3000, 48, seed=4, tail_tol=1e-5)
    x = dm.values
    tol = 5.0 / math.sqrt(x.size)
    assert abs(float(np.mean(x * x)) - ar1_covariance(0, 0.4)) < 3 * tol
    assert abs(float(np.mean(x[:, 1:] * x[:, :-1]))
               - ar1_covariance(1, 0.4)) < 3 * tol


def test_generate_lower_triangle_rows_are_process_copies():
    filt = gramspec.LinearFilter(0, np.array([1.0, 0.5]))
    law = gramspec.gaussian_law()
    n = 12
    tri = gramspec.generate_stationary_lower_triangle(filt, law, n, seed=7)
    assert tri.shape == (n * (n + 1) // 2,)
    again = gramspec.generate_stationary_lower_triangle(filt, law, n, seed=7)
    np.testing.assert_array_equal(tri, again)


@pytest.mark.parametrize("n_rows", [1, 7, 13])
def test_generation_bytes_do_not_depend_on_the_core_count(monkeypatch,
                                                         n_rows):
    # row counts below the core count and ones that do not split evenly,
    # through FFT batches of 1, 3, 4 and 8 rows at nfft = 32, which give the
    # larger blocks several sub-chunks and a short last one
    filt = gramspec.LinearFilter(
        2, np.random.default_rng(n_rows).standard_normal(5))

    def run():
        rows = [gramspec.generate_linear_rows(filt, LAWS[name](), n_rows, 27,
                                              seed=3).values.tobytes()
                for name in sorted(LAWS)]
        tri = gramspec.generate_stationary_lower_triangle(
            filt, gramspec.InnovationLaw("student_t", (5.0,)), n_rows, seed=4)
        return rows, tri.tobytes()

    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave as often as they can
    try:
        for batch, thread_slots, batch_slots in ((1, 32, 32), (3, 96, 96),
                                                 (4, 128, 128),
                                                 (8, 256, 256)):
            monkeypatch.setattr(ensemble, "_THREAD_SLOTS", thread_slots)
            monkeypatch.setattr(ensemble, "_BATCH_SLOTS", batch_slots)
            assert ensemble._batch_rows(32) == batch
            for cores in (1, 2, 3, 5):
                monkeypatch.setattr(ensemble, "_core_count",
                                    lambda c=cores: c)
                results.append(run())
    finally:
        sys.setswitchinterval(interval)
    assert all(r == results[0] for r in results[1:])


def _key_row(rng):
    # the row index in the key of a row_rng-keyed generator
    return int(rng.bit_generator.state["state"]["key"][1]) & ((1 << 48) - 1)


def test_generation_worker_exception_reaches_the_caller(monkeypatch):
    class Boom(RuntimeError):
        pass

    real = ensemble.InnovationLaw.sample

    def sample(self, rng, size, out=None):
        row = _key_row(rng)
        if row == 9:  # in the last of three blocks, run by a worker thread
            raise Boom(f"row {row}")
        return real(self, rng, size, out)

    monkeypatch.setattr(ensemble, "_core_count", lambda: 3)
    monkeypatch.setattr(ensemble.InnovationLaw, "sample", sample)
    filt = gramspec.LinearFilter(0, np.array([1.0, 0.5]))
    with pytest.raises(Boom, match="row 9"):
        gramspec.generate_linear_rows(filt, gramspec.gaussian_law(), 10, 8,
                                      seed=1)


@pytest.mark.parametrize("name", sorted(LAWS))
def test_generation_draws_each_row_from_its_row_rng_stream(monkeypatch, name):
    # every row the threads draw, in blocks of several sub-chunks, equals
    # the draw of a fresh row_rng for that row, byte for byte
    law = LAWS[name]()
    seed, stream, n_rows, n_cols = 21, 5, 11, 9
    filt = gramspec.LinearFilter(1, np.array([0.5, 1.0, -0.25]))
    drawn = {}
    real = ensemble.InnovationLaw.sample

    def sample(self, rng, size, out=None):
        row = _key_row(rng)
        drawn[row] = real(self, rng, size, out).copy()
        return out

    monkeypatch.setattr(ensemble, "_core_count", lambda: 3)
    monkeypatch.setattr(ensemble, "_THREAD_SLOTS", 2 * 12)
    assert ensemble._batch_rows(12) == 2  # nfft = 12, blocks of 3 and 4 rows
    monkeypatch.setattr(ensemble.InnovationLaw, "sample", sample)
    gramspec.generate_linear_rows(filt, law, n_rows, n_cols, seed,
                                  stream=stream)
    monkeypatch.undo()
    assert sorted(drawn) == list(range(n_rows))
    m = n_cols + 2
    for row, eps in drawn.items():
        expect = law.sample(ensemble.row_rng(seed, row, stream), m)
        assert eps.tobytes() == expect.tobytes(), f"row {row}"


def test_rekeyed_generator_resets_counter_buffer_and_uint32_cache():
    # odd Rademacher lengths leave half a 64-bit word cached and Gaussian
    # draws leave buffered words: each re-keyed row must start clean, up
    # to the last row index and in a stream other than 0
    seed, stream = 2**64 + 7, 2**16 - 1
    at = ensemble._row_streams(seed, stream)
    plan = [("rademacher", 2**48 - 1, 7), ("gaussian", 5, 9),
            ("rademacher", 5, 3), ("rademacher", 6, 5),
            ("martingale_sign", 2**48 - 1, 11), ("student_t", 3, 7),
            ("uniform", 0, 5), ("gaussian", 2**48 - 1, 13)]
    for name, row, m in plan:
        law = LAWS[name]()
        got = law.sample(at(row), m)
        expect = law.sample(ensemble.row_rng(seed, row, stream), m)
        assert got.tobytes() == expect.tobytes(), (name, row)
    with pytest.raises(DomainError):
        at(2**48)


def _embedding_map(f, p):
    # the p x m matrix that maps m normals to one embedded row, column by
    # column, with the circulant's eigenvalues built here from the
    # covariance sequence
    m = 2 * ensemble._smooth_length(p - 1)
    c = gramspec.covariance_sequence(f, m // 2)
    lam = np.fft.rfft(np.concatenate((c, c[-2:0:-1]))).real
    root = np.sqrt(np.clip(lam, 0.0, None))
    amap = np.fft.irfft(root[:, None] * np.fft.rfft(np.eye(m), axis=0), m,
                        axis=0)[:p]
    return amap, lam


def test_toeplitz_rows_use_row_streams_and_a_cached_spectrum():
    # row i is irfft(sqrt(lambda) * rfft(e_i), m)[:p] for the first m
    # normals e_i of row_rng(seed, i, stream), m = 2 * 12 for p = 12; the
    # spectrum is computed once per (f, p) and cannot be written to, and
    # the map's A A^T is Gamma_p, so the rows are exactly N(0, Gamma_p)
    f = gramspec.ar1_density(0.6, 1.0)
    seed, stream, n_rows, p, m = 8, 2, 7, 12, 24
    dm = gramspec.generate_toeplitz_gaussian_rows(f, n_rows, p, seed,
                                                  stream=stream)
    root, low = ensemble._embedding(f, p)
    assert ensemble._embedding(f, p)[0] is root
    assert not root.flags.writeable
    assert root.shape == (m // 2 + 1,) and low > 0.0
    amap, lam = _embedding_map(f, p)
    np.testing.assert_allclose(root ** 2, lam, rtol=1e-14, atol=0.0)
    gam = ensemble.toeplitz_matrix(f, p).values
    assert float(np.max(np.abs(amap @ amap.T - gam))) <= 1e-14 * gam[0, 0]
    for i in range(n_rows):
        e = ensemble.row_rng(seed, i, stream).standard_normal(m)
        expect = np.fft.irfft(root * np.fft.rfft(e), m)[:p]
        assert dm.values[i].tobytes() == expect.tobytes(), i
        np.testing.assert_allclose(dm.values[i], amap @ e, rtol=0.0,
                                   atol=1e-13 * float(np.max(np.abs(expect))))


def test_embedded_rows_have_the_long_memory_covariance():
    # 4,000 rows at p = 400, d = 0.3: the lag-k average over rows and
    # positions is within 4 standard deviations of Gamma_p's c_k at every
    # lag below 50, the deviation computed from Gamma_p (Gaussian fourth
    # moments); about 2.4e-3 * c_0 here
    f = gramspec.fractional_density(0.3)
    n_rows, p = 4000, 400
    c = gramspec.covariance_sequence(f, p - 1)
    x = gramspec.generate_toeplitz_gaussian_rows(f, n_rows, p, seed=1).values
    for k in range(50):
        width = p - k
        h = np.arange(1 - width, width)
        var = np.sum((width - np.abs(h)) * (c[np.abs(h)] ** 2
                                            + c[np.abs(h + k)]
                                            * c[np.abs(h - k)]))
        sd = math.sqrt(var / n_rows) / width
        assert sd < 2.5e-3 * c[0]
        got = float(np.mean(x[:, k:] * x[:, :width]))
        assert abs(got - c[k]) <= 4.0 * sd, k


VANISHING_TABLE = ([0.0, 1.0, 1.5, math.pi], [1.0, 1.0, 0.0, 0.0])


def test_indefinite_embedding_raises_a_typed_error():
    # a density that vanishes on [1.5, pi] has an embedding with negative
    # eigenvalues far beyond rounding; toeplitz-gaussian rows refuse it,
    # naming the smallest, and the routing rule falls back to the filter
    f = gramspec.tabulated_density(*VANISHING_TABLE)
    with pytest.raises(DomainError, match=r"min eigenvalue -1\.1\d*e-03"):
        gramspec.generate_toeplitz_gaussian_rows(f, 10, 50, seed=1)
    route, nfft, filt = ensemble.row_route(f, 50, 1e-3)
    assert (route, nfft, filt.coeffs.size) == ("filter", 180, 129)


def test_gaussian_rows_take_the_shorter_route():
    # the embedding of order 2 * 400 is shorter than the d = 0.3 filter's
    # FFT (8640), while the iid filter's FFT at 1,000 columns (1152) is
    # shorter than the embedding (2000); other laws keep the filter
    frac = gramspec.fractional_density(0.3)
    assert ensemble.row_route(frac, 400, 5e-3) == ("circulant", 800, None)
    route, nfft, filt = ensemble.row_route(frac, 400, 5e-3,
                                           gramspec.rademacher_law())
    assert (route, nfft, filt.offset) == ("filter", 8640, 4096)
    const = gramspec.constant_density()
    route, nfft, filt = ensemble.row_route(const, 1000, 1e-6)
    assert (route, nfft, filt.offset) == ("filter", 1152, 64)
    dm = gramspec.generate_gaussian_rows(frac, 6, 40, seed=3, tail_tol=5e-3)
    ref = gramspec.generate_toeplitz_gaussian_rows(frac, 6, 40, seed=3)
    assert dm.values.tobytes() == ref.values.tobytes()


def test_route_builds_no_filter_longer_than_the_embedding(monkeypatch):
    # compare_longmem's rows (d = 0.3, 400 columns, tail 5e-3): past
    # K = 128 the filter's FFT (960 at K = 256) is longer than the
    # embedding of order 800, so no longer root block is computed
    from gramspec import spectral

    built = []
    cached = spectral._cosine_block

    def record(f, k_cap, kind):
        built.append((kind, k_cap))
        return cached(f, k_cap, kind)

    monkeypatch.setattr(spectral, "_cosine_block", record)
    frac = gramspec.fractional_density(0.3)
    assert ensemble.row_route(frac, 400, 5e-3) == ("circulant", 800, None)
    assert sorted(k for kind, k in built if kind == "root") == [64, 128]


def test_route_takes_a_short_filter_without_the_embedding(monkeypatch):
    # simulate_iid's rows: the 129-tap iid filter (FFT 1152) beats the
    # embedding of order 2000, which is never computed
    def refuse(f, p):
        raise AssertionError("embedding computed")

    monkeypatch.setattr(ensemble, "_embedding", refuse)
    route, nfft, filt = ensemble.row_route(gramspec.constant_density(),
                                           1000, 1e-6)
    assert (route, nfft, filt.coeffs.size) == ("filter", 1152, 129)


@pytest.mark.parametrize("f, tail_tol, expect", [
    (gramspec.fractional_density(0.3), 5e-3, "circulant"),
    (gramspec.ar1_density(0.5), 1e-6, "filter"),
], ids=["fractional", "ar1"])
def test_gaussian_rows_keep_the_bytes_of_their_route(f, tail_tol, expect):
    # the route decides as it did when it was handed the whole filter, so
    # the rows are those of the embedding or of the filter it names
    dm = gramspec.generate_gaussian_rows(f, 6, 400, seed=11,
                                         tail_tol=tail_tol)
    if expect == "circulant":
        ref = gramspec.generate_toeplitz_gaussian_rows(f, 6, 400, seed=11)
    else:
        filt = gramspec.filter_from_density(f, tail_tol)
        assert ensemble._smooth_length(400 + filt.coeffs.size - 1) <= 800
        ref = gramspec.generate_linear_rows(filt, gramspec.gaussian_law(), 6,
                                            400, seed=11)
    assert dm.values.tobytes() == ref.values.tobytes()


def test_route_takes_the_embedding_when_no_filter_certifies(monkeypatch):
    # with the half-length capped at 128, the d = 0.3 filter cannot reach
    # a 1e-6 tail, but the embedding is nonnegative: Gaussian rows take
    # it, where other laws, and a density whose embedding is indefinite,
    # still meet the filter's refusal
    from gramspec import spectral
    from gramspec.errors import TailToleranceUnreachable

    monkeypatch.setattr(spectral, "MAX_FILTER_HALF_LENGTH", 128)
    frac = gramspec.fractional_density(0.3)
    with pytest.raises(TailToleranceUnreachable, match="K=128"):
        gramspec.filter_from_density(frac, 1e-6)
    assert ensemble.row_route(frac, 400, 1e-6) == ("circulant", 800, None)
    dm = gramspec.generate_gaussian_rows(frac, 4, 400, seed=2, tail_tol=1e-6)
    ref = gramspec.generate_toeplitz_gaussian_rows(frac, 4, 400, seed=2)
    assert dm.values.tobytes() == ref.values.tobytes()
    with pytest.raises(TailToleranceUnreachable, match="K=128"):
        ensemble.row_route(frac, 400, 1e-6, gramspec.rademacher_law())
    table = gramspec.tabulated_density(*VANISHING_TABLE)
    with pytest.raises(TailToleranceUnreachable, match="K=128"):
        ensemble.row_route(table, 50, 1e-12)


def test_generation_threads_are_capped_at_sixteen(monkeypatch):
    # on a large host the per-thread buffers together stay within the
    # 2**22 slots per buffer of a one-thread chunk
    import concurrent.futures

    sizes = []
    real = concurrent.futures.ThreadPoolExecutor

    def pool(max_workers):
        sizes.append(max_workers)
        return real(max_workers)

    monkeypatch.setattr(ensemble, "_core_count", lambda: 64)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pool)
    filt = gramspec.LinearFilter(0, np.array([1.0, 0.5]))
    dm = gramspec.generate_linear_rows(filt, gramspec.gaussian_law(), 40, 8,
                                       seed=1)
    assert sizes == [16]
    monkeypatch.setattr(ensemble, "_core_count", lambda: 1)
    again = gramspec.generate_linear_rows(filt, gramspec.gaussian_law(), 40, 8,
                                          seed=1)
    np.testing.assert_array_equal(dm.values, again.values)


def test_import_loads_no_thread_pool():
    # generation imports its thread pool on first use; importing the package
    # and warming its kernels must not pay for concurrent.futures
    src = os.path.dirname(os.path.dirname(os.path.abspath(gramspec.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, gramspec; gramspec.warm_up(); "
            "print('concurrent.futures' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def _compare_filter():
    # the long-memory filter of the compare workload: K = 4096, nfft = 8640,
    # where a batch is 4 rows
    f = gramspec.density_from_spec({"family": "fractional", "d": 0.3})
    filt = gramspec.filter_from_density(f, tail_tol=5e-3)
    assert filt.coeffs.size == 8193
    assert ensemble._smooth_length(400 + 8192) == 8640
    assert ensemble._batch_rows(8640) == 4
    return filt


def test_generation_peak_allocation_is_bounded(monkeypatch):
    # beyond the output, each thread holds three buffers of 4 rows x 8640
    # slots (0.8 MiB), whatever the row count; a first generation is run
    # untraced so the thread pool and generator-state imports stay out
    filt = _compare_filter()
    law = gramspec.gaussian_law()
    per_thread = 3 * 4 * 8640 * 8
    for cores in (2, 16):
        monkeypatch.setattr(ensemble, "_core_count", lambda c=cores: c)
        gramspec.generate_linear_rows(filt, law, cores, 400, seed=1)
        tracemalloc.start()
        try:
            dm = gramspec.generate_linear_rows(filt, law, 800, 400, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= dm.values.nbytes + cores * per_thread + 2 ** 20, cores


def test_memory_budget_enforced():
    filt = gramspec.LinearFilter(0, np.array([1.0]))
    with pytest.raises(MemoryBudgetError):
        gramspec.generate_linear_rows(filt, gramspec.gaussian_law(),
                                      1000, 1000, seed=1, budget=1024)


def test_memory_budget_counts_the_output_and_batch_buffers():
    # 800x400 rows through the 8193-tap filter hold 320,000 output slots
    # plus 16 threads x 3 buffers x 4 rows x 8640 slots, far below the
    # 800 x (400 + 8193) slots of a whole filter's length per row
    filt = _compare_filter()
    law = gramspec.gaussian_law()
    need = 800 * 400 + 16 * 3 * 4 * 8640
    assert need < 800 * (400 + 8193)
    dm = gramspec.generate_linear_rows(filt, law, 800, 400, seed=1,
                                       budget=need)
    assert dm.values.shape == (800, 400)
    with pytest.raises(MemoryBudgetError, match=f"needs {need} float64"):
        gramspec.generate_linear_rows(filt, law, 800, 400, seed=1,
                                      budget=need - 1)


def test_memory_budget_counts_each_generator_at_its_peak():
    # Toeplitz rows hold the output, one row per thread's three buffers at
    # the embedding order m = 40 for p = 20, and the m/2 + 1 roots; the
    # lower triangle holds the n x n rows, their triangle, its n x n byte
    # mask and one row per thread's buffers (nfft = 15 for n = 12, 2 taps)
    f = gramspec.ar1_density(0.5, 1.0)
    need = 10 * 20 + 10 * 3 * 1 * 40 + 21
    gramspec.generate_toeplitz_gaussian_rows(f, 10, 20, seed=1, budget=need)
    with pytest.raises(MemoryBudgetError, match=f"needs {need} float64"):
        gramspec.generate_toeplitz_gaussian_rows(f, 10, 20, seed=1,
                                                 budget=need - 1)
    filt = gramspec.LinearFilter(0, np.array([1.0, 0.5]))
    law = gramspec.gaussian_law()
    need = 12 * 12 + 12 * 13 // 2 + 12 * 12 // 8 + 12 * 3 * 1 * 15
    gramspec.generate_stationary_lower_triangle(filt, law, 12, seed=1,
                                                budget=need)
    with pytest.raises(MemoryBudgetError, match=f"needs {need} float64"):
        gramspec.generate_stationary_lower_triangle(filt, law, 12, seed=1,
                                                    budget=need - 1)


# ---------------------------------------------------------------------------
# binary cache round-trip


def test_datamatrix_roundtrip(tmp_path):
    filt = gramspec.LinearFilter(0, np.array([1.0, 0.25]))
    dm = gramspec.generate_linear_rows(filt, LAWS["uniform"](), 9, 17,
                                       seed=42)
    path = tmp_path / "rows.bin"
    gramspec.write_datamatrix(dm, path)
    back = gramspec.read_datamatrix(path)
    np.testing.assert_array_equal(back.values, dm.values)
    assert back.seed == dm.seed
    assert back.n_rows == 9 and back.n_cols == 17


def test_datamatrix_payload_is_the_row_major_values(tmp_path):
    filt = gramspec.LinearFilter(0, np.array([1.0, -0.5]))
    dm = gramspec.generate_linear_rows(
        filt, gramspec.InnovationLaw("student_t", (5.0,)), 4, 6, seed=3)
    path = tmp_path / "rows.bin"
    gramspec.write_datamatrix(dm, path)
    blob = path.read_bytes()
    assert blob[64:] == dm.values.astype("<f8").tobytes()


def test_datamatrix_rejects_corrupt_files(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 10)
    with pytest.raises(DomainError):
        gramspec.read_datamatrix(path)
    filt = gramspec.LinearFilter(0, np.array([1.0]))
    dm = gramspec.generate_linear_rows(filt, gramspec.gaussian_law(),
                                       3, 5, seed=1)
    good = tmp_path / "good.bin"
    gramspec.write_datamatrix(dm, good)
    blob = good.read_bytes()
    (tmp_path / "trunc.bin").write_bytes(blob[:-8])
    with pytest.raises(DomainError):
        gramspec.read_datamatrix(tmp_path / "trunc.bin")
    (tmp_path / "magic.bin").write_bytes(b"XX" + blob[2:])
    with pytest.raises(DomainError):
        gramspec.read_datamatrix(tmp_path / "magic.bin")
    # a header claiming more rows than the file holds is rejected before
    # any allocation; so is one trailing value
    for rows in (2 ** 40, 2 ** 62):
        huge = blob[:8] + rows.to_bytes(8, "little") + blob[16:]
        (tmp_path / "huge.bin").write_bytes(huge)
        with pytest.raises(DomainError, match="header claims"):
            gramspec.read_datamatrix(tmp_path / "huge.bin")
    (tmp_path / "long.bin").write_bytes(blob + bytes(8))
    with pytest.raises(DomainError, match="header claims"):
        gramspec.read_datamatrix(tmp_path / "long.bin")
