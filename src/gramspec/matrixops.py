"""Symmetric-matrix construction, eigendecomposition, ESDs, and empirical
Stieltjes transforms.

The eigensolver is the package's own: Householder tridiagonalization,
then the eigenvalues of the tridiagonal matrix by divide and conquer with
implicit-shift QL at its leaves (_kernels), which raises
EigenNonConvergence itself at its iteration caps.  Gram spectra are
taken at the smaller of the two orders N and p (gram_eigenvalues).  Nothing
here calls a library eigensolver; library routines appear only as
independent oracles in the test suite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError

# Desk-scale cap on dense eigendecompositions.
MAX_ORDER = 4096


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense real symmetric matrix; the lower triangle is authoritative.

    The stored values are a read-only copy with the lower triangle
    mirrored into the upper one and every -0.0 turned into +0.0.  An
    input that is already exactly symmetric, such as a Gram product,
    passes through with only the sign of its zeros normalised.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError("SymMatrix needs a square 2-d array")
        if not np.all(np.isfinite(arr)):
            raise DomainError("SymMatrix entries must be finite")
        if np.array_equal(arr, arr.T):
            full = arr + 0.0  # a copy, with -0.0 + 0.0 = +0.0 as below
        else:
            full = np.tril(arr) + np.tril(arr, -1).T
        full.flags.writeable = False
        object.__setattr__(self, "values", full)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class Esd:
    """Sorted eigenvalue list with a step-CDF view."""

    eigs: np.ndarray

    def __post_init__(self):
        arr = np.sort(np.asarray(self.eigs, dtype=float))
        arr.flags.writeable = False
        object.__setattr__(self, "eigs", arr)

    @property
    def n(self) -> int:
        return self.eigs.size


def symmetric_from_lower(x, n: int) -> SymMatrix:
    """Wigner map: place x (row-major lower triangle, len n(n+1)/2) and scale by 1/sqrt(n)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != n * (n + 1) // 2:
        raise DomainError(f"need exactly n(n+1)/2 = {n * (n + 1) // 2} entries")
    a = np.zeros((n, n))
    a[np.tril_indices(n)] = x / math.sqrt(n)
    return SymMatrix(a)


def _data_matrix(x) -> np.ndarray:
    arr = np.asarray(getattr(x, "values", x), dtype=float)
    if arr.ndim != 2:
        raise DomainError("data matrix must be 2-d")
    return arr


def gram(x, norm: float | None = None) -> SymMatrix:
    """Sample covariance X^T X / norm of an N x p data matrix, norm = N by
    default.

    X^T X goes to BLAS syrk, which writes one triangle and mirrors it, so
    the product is exactly symmetric and SymMatrix takes it as it is.  syrk
    needs an operand stored in one piece: a C- or Fortran-ordered X is used
    as it is (X^T of a C-ordered matrix is Fortran-ordered), any other is
    made C-contiguous first.
    """
    arr = _data_matrix(x)
    if not arr.flags.f_contiguous:
        arr = np.ascontiguousarray(arr)
    norm = arr.shape[0] if norm is None else norm
    if not norm > 0:
        raise DomainError("norm must be positive")
    return SymMatrix((arr.T @ arr) / norm)


def gram_eigenvalues(x, norm: float) -> Esd:
    """Eigenvalues of the Gram product X^T X / norm of an N x p data matrix X.

    X^T X and X X^T share their nonzero eigenvalues, so the spectrum is
    taken at the smaller order: for p > N from gram(X^T, norm), with the
    p - N eigenvalues that the order-p product adds appended as exact
    zeros.  For p <= N and norm = N the result is
    symmetric_eigenvalues(gram(x)), byte for byte.
    """
    arr = _data_matrix(x)
    if arr.shape[1] <= arr.shape[0]:
        return symmetric_eigenvalues(gram(arr, norm))
    nn, pp = arr.shape
    eigs = symmetric_eigenvalues(gram(arr.T, norm)).eigs
    return Esd(np.concatenate((eigs, np.zeros(pp - nn))))


def symmetrize_gram(x) -> SymMatrix:
    """Embed X into the symmetric (N+p) x (N+p) matrix N^{-1/2} [[0, X^T], [X, 0]].

    Its spectrum is symmetric about 0; the squares of its nonzero
    eigenvalues are the nonzero eigenvalues of gram(X).
    """
    arr = _data_matrix(x)
    nn, pp = arr.shape
    scaled = arr / math.sqrt(nn)
    out = np.zeros((nn + pp, nn + pp))
    out[:pp, pp:] = scaled.T
    out[pp:, :pp] = scaled
    return SymMatrix(out)


def symmetric_eigenvalues(a) -> Esd:
    """All eigenvalues of a symmetric matrix, sorted ascending.

    A raw array is read as a SymMatrix: its lower triangle is
    authoritative and its entries must be finite.
    """
    if not isinstance(a, SymMatrix):
        a = SymMatrix(a)
    n = a.n
    if n < 1:
        raise DomainError("order must be >= 1")
    if n > MAX_ORDER:
        raise DomainError(f"order {n} exceeds the configured cap {MAX_ORDER}")
    d, e = _kernels.tridiagonalize(a.values)
    return Esd(_kernels.tridiagonal_eigenvalues(d, e))


def stieltjes_empirical(e: Esd, z: complex) -> complex:
    """(1/n) Tr (A - zI)^{-1} via the eigenvalue form; requires Im z > 0."""
    z = complex(z)
    if not (z.imag > 0 and cmath.isfinite(z)):
        raise DomainError("Stieltjes transform is evaluated at finite z "
                          "with Im z > 0 only")
    return complex(np.mean(1.0 / (e.eigs - z)))


def gram_stieltjes_identity(x, z: complex) -> tuple[complex, complex]:
    """Both sides of the Gram/symmetrized-matrix Stieltjes relation.

    lhs: Stieltjes transform of gram(X) at z, via gram_eigenvalues.
    rhs: z^{-1/2} (n / 2p) S(√z) + (N - p)/(2 p z) with n = N + p, where S is
    the Stieltjes transform of the symmetrized matrix and √z is the
    principal branch (Im √z > 0 on the upper half-plane).
    """
    z = complex(z)
    if not (z.imag > 0 and cmath.isfinite(z)):
        raise DomainError("identity needs a finite z with Im z > 0")
    arr = _data_matrix(x)
    nn, pp = arr.shape
    lhs = stieltjes_empirical(gram_eigenvalues(arr, nn), z)
    w = np.sqrt(complex(z))  # principal branch maps C+ into the first quadrant
    s_sym = stieltjes_empirical(symmetric_eigenvalues(symmetrize_gram(arr)), w)
    n_tot = nn + pp
    rhs = s_sym * n_tot / (2.0 * pp * w) + (nn - pp) / (2.0 * pp * z)
    return lhs, rhs
