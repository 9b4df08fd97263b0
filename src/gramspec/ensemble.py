"""Seeded generation of data matrices with independent stationary rows.

Each row gets its own counter-based Philox substream keyed by (seed,
stream, row index), so any row can be regenerated in isolation with
``row_rng`` and results do not depend on chunking or worker scheduling.
Rows are linear processes X_{i,t} = sum_k a_k eps_{i,t-k} driven by a
unit-variance innovation law, or exact Gaussian rows drawn by circulant
embedding of the covariance matrix Gamma_p (Davies & Harte 1987; Wood &
Chan 1994): Gamma_p is the leading block of the symmetric circulant of
even order m = 2 * (the 5-smooth length >= p - 1) whose first row is
c_0 .. c_{m/2} .. c_1, that circulant's eigenvalues lambda are one real
FFT of that row, and irfft(sqrt(lambda) * rfft(e), m)[:p] is exactly
N(0, Gamma_p) for m standard normals e.  An embedding with an eigenvalue
below -1e-8 max lambda is refused with DomainError; smaller negative ones
are clipped to 0.  ``row_route`` is the one rule that picks between the
two for Gaussian rows of a density, and builds the filter only when it is
used: the filter when it certifies at an FFT length no longer than the
embedding, else the embedding if it is nonnegative.

Generation does not build a generator per row: each generating thread
keeps one Philox generator and re-keys it for every row by setting its
state (the row's key, counter 0, empty buffers), which draws exactly the
stream ``row_rng`` gives that row.

Both kinds of row are one real FFT product per row, run on every core the
process may use, up to _MAX_THREADS (16): the rows are split into one
contiguous block per thread, and each thread walks its block in batches
of rows through three buffers (random draws, their spectrum, the product),
allocated once; draws go straight into the first.  A batch is a multiple
of 4 rows, as many as fit in about 2**14 float slots per buffer, because
numpy's FFT costs the same per row from 4 rows up and more below; when 4
rows would pass 2**18 slots, a batch is as many rows as fit in 2**18, at
least one.  At the long-memory filter's FFT length 8640 that is 4 rows,
0.8 MiB per thread; at the embedding order 800 of 400-column rows, 20
rows, 0.4 MiB.  Each row is drawn from its own substream and
transformed on its own, so the bytes equal those of a one-thread run with
any batch size, and no BLAS call touches them, so they do not depend on
the BLAS thread count either.

The ``budget`` of every generator counts float64 slots held at the peak:
the output plus the batch buffers of up to 16 threads (charged at the
cap, so whether a run fits does not depend on the host), and for
embedded rows the m/2 + 1 square roots of lambda.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, MemoryBudgetError
from .matrixops import SymMatrix
from .spectral import (DEFAULT_TAIL_TOL, LinearFilter, SpectralDensity,
                       _check_keys, _filter_walk, _real, covariance_sequence,
                       filter_from_density)

# Default generation budget, in float64 slots (1 GiB).
DEFAULT_BUDGET = 2 ** 27
# Rows per FFT batch come in groups of _ROW_GROUP, filling about
# _BATCH_SLOTS float64 slots in each of a thread's three buffers; a row too
# long for a group gets as many rows as fit in _THREAD_SLOTS, at least one.
_ROW_GROUP = 4
_BATCH_SLOTS = 2 ** 14
_THREAD_SLOTS = 2 ** 18
# Generation threads, whatever the core count.
_MAX_THREADS = 16

_MAGIC = b"GSPC"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQQ32s")

_KNOWN_LAWS = ("gaussian", "rademacher", "uniform", "student_t",
               "martingale_sign")


@dataclass(frozen=True)
class InnovationLaw:
    """Unit-variance innovation law for driving linear processes."""

    tag: str
    params: tuple = ()

    def __post_init__(self):
        if self.tag not in _KNOWN_LAWS:
            raise DomainError(f"unknown innovation law {self.tag!r}")
        if self.tag == "student_t":
            if len(self.params) != 1:
                raise DomainError("student_t law takes one parameter")
            nu = float(self.params[0])
            if not nu > 2.0:
                raise DomainError("student_t needs nu > 2 for a finite variance")

    def sample(self, rng: np.random.Generator, size: int,
               out: np.ndarray | None = None) -> np.ndarray:
        """Draw `size` innovations; into `out` (shape (size,)) if given."""
        if self.tag == "gaussian":
            return rng.standard_normal(size, out=out)
        if out is None:
            return self._draw(rng, size)
        out[...] = self._draw(rng, size)
        return out

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.tag == "rademacher":
            return 2.0 * rng.integers(0, 2, size=size).astype(float) - 1.0
        if self.tag == "uniform":
            half = math.sqrt(3.0)
            return rng.uniform(-half, half, size=size)
        if self.tag == "student_t":
            nu = float(self.params[0])
            return rng.standard_t(nu, size=size) * math.sqrt((nu - 2.0) / nu)
        # martingale_sign: eps_t = eta_t * s_{t-1} where eta is Rademacher,
        # s_t = +1 if sum_{u<=t} eta_u >= 0 else -1, s_{-1} = +1.  Each eps_t
        # is conditionally Rademacher given the past, so the law is a
        # martingale-difference sequence with unit conditional variance but
        # is not independent across t.
        eta = 2.0 * rng.integers(0, 2, size=size).astype(float) - 1.0
        signs = np.where(np.cumsum(eta) >= 0.0, 1.0, -1.0)
        lagged = np.empty(size)
        lagged[0] = 1.0
        lagged[1:] = signs[:-1]
        return eta * lagged

    def describe(self) -> str:
        if self.params:
            inner = ",".join(f"{float(v):.17g}" for v in self.params)
            return f"{self.tag}({inner})"
        return self.tag


def gaussian_law() -> InnovationLaw:
    return InnovationLaw("gaussian")


def rademacher_law() -> InnovationLaw:
    return InnovationLaw("rademacher")


def law_from_spec(spec: dict) -> InnovationLaw:
    """Build an innovation law from a config mapping: {"law": tag}, or
    {"law": "student_t", "nu": 6} for Student t.  A missing or unknown key,
    or a nu that is not a number (see spectral._real), is a DomainError."""
    if not isinstance(spec, dict) or "law" not in spec:
        raise DomainError("innovation spec needs a 'law' key")
    tag = spec["law"]
    names = ("nu",) if tag == "student_t" else ()
    _check_keys(spec, f"{tag} innovation", ("law", *names))
    return InnovationLaw(tag, tuple(_real(spec[k]) for k in names))


def _row_key(seed: int, row: int, stream: int) -> tuple[int, int]:
    # The Philox key of one row's substream: (seed mod 2^64, stream << 48 | row).
    if row < 0 or row >= 1 << 48:
        raise DomainError("row index out of range")
    if stream < 0 or stream >= 1 << 16:
        raise DomainError("stream tag out of range")
    return seed & 0xFFFFFFFFFFFFFFFF, (stream << 48) | row


def row_rng(seed: int, row: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for one row's substream.

    A Philox generator keyed by (seed mod 2^64, stream << 48 | row), with
    row < 2^48 and stream < 2^16, at counter 0.  Generation draws the same
    streams through one re-keyed generator per thread; this function is
    the reference for regenerating any single row.
    """
    key = np.array(_row_key(seed, row, stream), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _row_streams(seed: int, stream: int):
    # One generator for a thread: at(row) re-keys it to exactly the stream
    # row_rng(seed, row, stream) starts, resetting the counter, the buffered
    # words and the cached uint32 a bounded draw may leave behind.  Setting
    # the state takes about 1 us against 18 us for building a Philox, whose
    # constructor also draws an unused OS-entropy SeedSequence; the setter
    # reads plain lists and tuples faster than the arrays the getter gives.
    gen = row_rng(seed, 0, stream)
    fresh = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}

    def at(row: int) -> np.random.Generator:
        fresh["state"]["key"] = _row_key(seed, row, stream)
        gen.bit_generator.state = fresh
        return gen

    return at


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """N x p data matrix plus the provenance needed to regenerate it."""

    values: np.ndarray
    seed: int
    source: str

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise DomainError("DataMatrix values must be 2-d")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def _check_budget(need: int, held: str, budget: int) -> None:
    # need counts the float64 slots generation holds at its peak; held
    # names them for the message.
    if need > budget:
        raise MemoryBudgetError(
            f"generation needs {need} float64 slots ({held}) but the budget "
            f"is {budget}; raise the budget or shrink the run")


def _batch_rows(nfft: int) -> int:
    # Rows per FFT batch at transform length nfft: whole groups of
    # _ROW_GROUP rows in about _BATCH_SLOTS slots, or, when one group would
    # pass _THREAD_SLOTS, as many rows as fit in it.  4 rows at 8640, 12 at
    # 1152, 20 at 800; a buffer never holds more than _THREAD_SLOTS slots
    # unless one row does.
    if _ROW_GROUP * nfft <= _THREAD_SLOTS:
        return _ROW_GROUP * max(1, _BATCH_SLOTS // (_ROW_GROUP * nfft))
    return max(1, _THREAD_SLOTS // nfft)


def _fft_slots(n_rows: int, n_cols: int, nfft: int) -> int:
    # The output plus every thread's three batch buffers at FFT length
    # nfft, at the thread cap so the count does not depend on the host.
    threads = min(n_rows, _MAX_THREADS)
    rows = min(_batch_rows(nfft), -(-n_rows // threads))
    return n_rows * n_cols + threads * 3 * rows * nfft


def _linear_slots(n_rows: int, n_cols: int, flen: int) -> int:
    return _fft_slots(n_rows, n_cols, _smooth_length(n_cols + flen - 1))


def _smooth_length(m: int) -> int:
    # Smallest n >= m whose only prime factors are 2, 3 and 5.
    best = 1 << max(m - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            n = p35
            while n < m:
                n <<= 1
            best = min(best, n)
            p35 *= 3
        p5 *= 5
    return best


def _core_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def _fft_rows(kern: np.ndarray, nfft: int, law: InnovationLaw, n_draw: int,
              first: int, n_rows: int, n_cols: int, seed: int,
              stream: int) -> np.ndarray:
    # Row i is irfft(kern * rfft(e_i, nfft), nfft)[first:first + n_cols],
    # with e_i the first n_draw values of law on row i's substream.  Every
    # row has its own substream and its own 1-D transform, so the bytes do
    # not depend on how the rows are split.
    out = np.empty((n_rows, n_cols))

    def fill(lo, hi):
        rows = min(hi - lo, _batch_rows(nfft))
        eps = np.zeros((rows, nfft))  # columns n_draw.. stay zero
        spec = np.empty((rows, nfft // 2 + 1), dtype=complex)
        conv = np.empty((rows, nfft))
        at = _row_streams(seed, stream)
        for c0 in range(lo, hi, rows):
            k = min(rows, hi - c0)
            for j in range(k):
                law.sample(at(c0 + j), n_draw, out=eps[j, :n_draw])
            np.fft.rfft(eps[:k], axis=1, out=spec[:k])
            spec[:k] *= kern
            np.fft.irfft(spec[:k], nfft, axis=1, out=conv[:k])
            out[c0:c0 + k] = conv[:k, first:first + n_cols]

    # One contiguous block per core, at most _MAX_THREADS threads, each
    # holding 3 * rows * nfft buffer slots: at nfft = 8640, 4 rows, 0.8 MiB
    # per thread and 13 MiB at the cap, whatever the host.  Leaving the pool
    # waits for every block; the first failing block, in block order,
    # re-raises in the caller.
    from concurrent.futures import ThreadPoolExecutor
    parts = min(_core_count(), n_rows, _MAX_THREADS)
    bounds = [n_rows * j // parts for j in range(parts + 1)]
    with ThreadPoolExecutor(parts) as pool:
        list(pool.map(fill, bounds[:-1], bounds[1:]))
    return out


def _linear_values(filt: LinearFilter, law: InnovationLaw, n_rows: int,
                   n_cols: int, seed: int, stream: int) -> np.ndarray:
    # Row i is np.convolve(eps_i, coeffs, "valid"): outputs flen-1 .. m-1 of
    # the full convolution of m innovations.  A circular convolution of any
    # length >= m leaves those indices unwrapped, so the FFT length is the
    # shortest 5-smooth one >= m.
    flen = filt.coeffs.size
    m = n_cols + flen - 1
    nfft = _smooth_length(m)
    return _fft_rows(np.fft.rfft(filt.coeffs, nfft), nfft, law, m, flen - 1,
                     n_rows, n_cols, seed, stream)


def generate_linear_rows(filt: LinearFilter, law: InnovationLaw, n_rows: int,
                         n_cols: int, seed: int, *, stream: int = 0,
                         budget: int = DEFAULT_BUDGET) -> DataMatrix:
    """Rows are independent copies of the linear process defined by filt."""
    if n_rows < 1 or n_cols < 1:
        raise DomainError("matrix dimensions must be positive")
    _check_budget(_linear_slots(n_rows, n_cols, filt.coeffs.size),
                  f"{n_rows}x{n_cols} rows plus the FFT batch buffers of "
                  f"up to {_MAX_THREADS} threads", budget)
    vals = _linear_values(filt, law, n_rows, n_cols, seed, stream)
    src = (f"linear|off={filt.offset}|coef={_digest(filt.coeffs)}"
           f"|law={law.describe()}|N={n_rows}|p={n_cols}"
           f"|seed={seed}|stream={stream}")
    return DataMatrix(vals, seed, src)


def generate_gaussian_rows(f: SpectralDensity, n_rows: int, n_cols: int,
                           seed: int, *, tail_tol: float = DEFAULT_TAIL_TOL,
                           stream: int = 0,
                           budget: int = DEFAULT_BUDGET) -> DataMatrix:
    """Gaussian rows for the density f, routed by ``row_route``: from the
    circulant embedding (``generate_toeplitz_gaussian_rows``) unless a
    filter no longer than the embedding certifies or the embedding is
    indefinite, else from the filter."""
    filt = row_route(f, n_cols, tail_tol)[2]
    if filt is None:
        return generate_toeplitz_gaussian_rows(f, n_rows, n_cols, seed,
                                               stream=stream, budget=budget)
    return generate_linear_rows(filt, gaussian_law(), n_rows, n_cols, seed,
                                stream=stream, budget=budget)


def toeplitz_matrix(f: SpectralDensity, p: int) -> SymMatrix:
    """p x p covariance matrix with entries cov(k) on the |i-j| = k diagonals."""
    if p < 1:
        raise DomainError("order must be >= 1")
    c = covariance_sequence(f, p - 1)
    idx = np.arange(p)
    return SymMatrix(c[np.abs(np.subtract.outer(idx, idx))])


def _embedding_length(p: int) -> int:
    # The circulant order: even, and at least 2(p - 1), so that lags
    # 0 .. p - 1 sit unwrapped in its first row.
    return 2 * _smooth_length(p - 1)


@lru_cache(maxsize=4)
def _embedding(f: SpectralDensity, p: int) -> tuple[np.ndarray | None, float]:
    # (sqrt(lambda), min lambda) for the circulant embedding of Gamma_p,
    # the root read-only and shared by every generation from the same
    # (f, p); the root is None when min lambda < -1e-8 max lambda.
    m = _embedding_length(p)
    c = covariance_sequence(f, m // 2)
    lam = np.fft.rfft(np.concatenate((c, c[-2:0:-1]))).real
    low = float(lam.min())
    if low < -1e-8 * float(lam.max()):
        return None, low
    root = np.sqrt(np.clip(lam, 0.0, None))
    root.flags.writeable = False
    return root, low


def row_route(f: SpectralDensity, n_cols: int, tail_tol: float,
              law: InnovationLaw = InnovationLaw("gaussian")
              ) -> tuple[str, int, LinearFilter | None]:
    """How rows of the density f with n_cols columns are drawn, and the
    one place that decides whether their filter is built.

    Returns ("circulant", m, None), the circulant embedding of order m, or
    ("filter", nfft, filt), the filter_from_density(f, tail_tol) filter at
    FFT length nfft.  Other laws than the Gaussian always drive the
    filter.  Gaussian rows take the filter only if it certifies at a
    half-length K whose FFT length _smooth_length(n_cols + 2K) is at most
    m, which filter_from_density's own doubling of K is walked to find,
    stopping at the first K past m; when no such K certifies they take the
    embedding if it is nonnegative (computed and cached to decide), and
    otherwise the filter, however long.
    """
    m = _embedding_length(n_cols)
    if law.tag == "gaussian":
        def fits(k):  # the filter's FFT is no longer than the embedding
            return _smooth_length(n_cols + 2 * k) <= m

        if _filter_walk(f, tail_tol, fits)[0] is None \
                and _embedding(f, n_cols)[0] is not None:
            return "circulant", m, None
    # the rows take the filter; filter_from_density builds it, finding
    # the blocks a walk already computed in their cache
    filt = filter_from_density(f, tail_tol)
    return "filter", _smooth_length(n_cols + filt.coeffs.size - 1), filt


def generate_toeplitz_gaussian_rows(f: SpectralDensity, n_rows: int,
                                    n_cols: int, seed: int, *,
                                    stream: int = 0,
                                    budget: int = DEFAULT_BUDGET) -> DataMatrix:
    """Exact stationary Gaussian rows, N(0, Gamma_p), by circulant embedding.

    Row i is irfft(sqrt(lambda) * rfft(e_i), m)[:p], with e_i the first m
    standard normals of row_rng(seed, i, stream), m the even embedding
    order (twice the 5-smooth length >= p - 1) and lambda the eigenvalues
    of the circulant with first row c_0 .. c_{m/2} .. c_1.  Uses FFTs only.
    Raises DomainError when some lambda < -1e-8 max lambda; smaller
    negative ones are clipped to 0.
    """
    if n_rows < 1 or n_cols < 1:
        raise DomainError("matrix dimensions must be positive")
    m = _embedding_length(n_cols)
    _check_budget(_fft_slots(n_rows, n_cols, m) + m // 2 + 1,
                  f"{n_rows}x{n_cols} rows plus the FFT batch buffers of "
                  f"up to {_MAX_THREADS} threads and the {m // 2 + 1} "
                  f"embedding roots", budget)
    root, low = _embedding(f, n_cols)
    if root is None:
        raise DomainError(
            f"circulant embedding of order {m} of the {n_cols}x{n_cols} "
            f"covariance matrix is indefinite beyond tolerance "
            f"(min eigenvalue {low:.3e})")
    vals = _fft_rows(root, m, gaussian_law(), m, 0, n_rows, n_cols, seed,
                     stream)
    src = (f"toeplitz-gaussian|f={f.family}|params={_params_str(f)}"
           f"|N={n_rows}|p={n_cols}|seed={seed}|stream={stream}")
    return DataMatrix(vals, seed, src)


def generate_stationary_lower_triangle(filt: LinearFilter, law: InnovationLaw,
                                       n: int, seed: int, *, stream: int = 0,
                                       budget: int = DEFAULT_BUDGET
                                       ) -> np.ndarray:
    """Row-major lower-triangle entries, each row a fresh copy of the process.

    Row i contributes its first i+1 coordinates, so entries within a row are
    dependent (stationary) while distinct rows are independent.  Output has
    length n(n+1)/2, matching the layout of symmetric_from_lower.
    """
    if n < 1:
        raise DomainError("order must be >= 1")
    # a boolean mask (n*n bytes) picks the triangle in row-major order
    # without the two int64 index arrays of np.tril_indices
    _check_budget(_linear_slots(n, n, filt.coeffs.size) + n * n // 8
                  + n * (n + 1) // 2,
                  f"{n}x{n} rows, their lower triangle and its mask, and the "
                  f"FFT batch buffers of up to {_MAX_THREADS} threads", budget)
    vals = _linear_values(filt, law, n, n, seed, stream)
    return vals[np.tri(n, dtype=bool)]


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()[:16]


def _params_str(f: SpectralDensity) -> str:
    return ",".join(repr(v) for v in f.params)


def _source_hash(source: str) -> bytes:
    if source.startswith("sha256:"):
        return bytes.fromhex(source[len("sha256:"):])
    return hashlib.sha256(source.encode("utf-8")).digest()


def write_datamatrix(dm: DataMatrix, path) -> None:
    """Binary cache: 64-byte header then row-major little-endian float64."""
    header = _HEADER.pack(_MAGIC, _VERSION, dm.n_rows, dm.n_cols,
                          dm.seed & 0xFFFFFFFFFFFFFFFF, _source_hash(dm.source))
    with open(path, "wb") as fh:
        fh.write(header)
        # written from the array's own buffer, without a bytes copy
        fh.write(memoryview(np.ascontiguousarray(dm.values, dtype="<f8"))
                 .cast("B"))


def read_datamatrix(path) -> DataMatrix:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise DomainError(f"{path}: truncated header")
        magic, version, n_rows, n_cols, seed, digest = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise DomainError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise DomainError(f"{path}: unsupported version {version}")
        # the header's counts are checked against the file before any read
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
        if payload != 8 * n_rows * n_cols:
            raise DomainError(
                f"{path}: header claims {n_rows}x{n_cols} values but the "
                f"payload holds {payload} bytes")
        body = fh.read(payload)
    vals = np.frombuffer(body, dtype="<f8").reshape(n_rows, n_cols)
    return DataMatrix(vals.astype(float), seed, "sha256:" + digest.hex())

