"""Time the jit-compiled eigensolver loops against the pure-numpy fallbacks.

Both implementations of the tridiagonalization and tridiagonal-eigenvalue
kernels ship in gramspec._kernels; the package picks one at import time
(numba when available, unless GRAMSPEC_DISABLE_NUMBA is set).
This script times both on the same inputs and checks they agree.

Run:  python3 benchmarks/bench_kernels.py [--repeats 5]
"""

import argparse
import time

import numpy as np

from gramspec import _kernels as K


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def bench_eigensolver(repeats, n):
    rng = np.random.default_rng(2)
    base = rng.standard_normal((n, n))
    a = (base + base.T) / 2.0

    def run(tred, teig):
        d, e = tred(a.copy())
        eigs, status = teig(d, e, 30 * n)
        assert status == 0
        return np.sort(eigs)

    run(K.tridiagonalize_loops, K.tridiagonal_eigenvalues_loops)  # compile
    t_loops = best_of(
        lambda: run(K.tridiagonalize_loops, K.tridiagonal_eigenvalues_loops),
        repeats)
    t_numpy = best_of(
        lambda: run(K.tridiagonalize_numpy, K.tridiagonal_eigenvalues_numpy),
        repeats)
    gap = float(np.max(np.abs(
        run(K.tridiagonalize_loops, K.tridiagonal_eigenvalues_loops) -
        run(K.tridiagonalize_numpy, K.tridiagonal_eigenvalues_numpy))))
    return t_loops, t_numpy, gap


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=5,
                    help="timing repetitions; the best is reported")
    ap.add_argument("--sizes", type=int, nargs="+", default=[64, 256, 512],
                    help="matrix orders for the eigensolver benchmark")
    args = ap.parse_args()

    loops_label = ("jit loops (numba)" if K.HAVE_NUMBA
                   else "loops (numba unavailable: interpreted!)")
    print(f"active backend: {K.backend_name()}")
    print(f"comparing: {loops_label}  vs  vectorized numpy")
    print()
    hdr = f"{'workload':<34}{'loops':>10}{'numpy':>10}{'ratio':>8}  agreement"
    print(hdr)
    print("-" * len(hdr))

    for n in args.sizes:
        t_l, t_n, gap = bench_eigensolver(args.repeats, n)
        name = f"symmetric eigenvalues (n={n})"
        print(f"{name:<34}{t_l * 1e3:>8.1f}ms{t_n * 1e3:>8.1f}ms"
              f"{t_n / t_l:>7.1f}x  max|dl|={gap:.1e}")


if __name__ == "__main__":
    main()
