"""One benchmark operation in a fresh interpreter.

    python perfbench/child.py [--trace PATH] cli COMMAND ARGS...
    python perfbench/child.py [--trace PATH] suites SEED OUT.npz

`cli` runs gramspec's command line in this process, exactly as
`python -m gramspec COMMAND ARGS...` would.  `suites` runs the two
randomized inequality suites of workloads.suite_cases and saves their
left- and right-hand sides, the time the suite calls took, and the
eigenvalues of the sampled matrices (computed after the timed loop).

With --trace, the public entry points in SPANS are wrapped before the
operation starts.  Each wrapper records its call and, for a named layer,
its self time: its duration minus the time of the traced calls nested in
it.  Self times, call counts and the counts read off return values are
written as JSON to PATH when the operation ends; nothing goes into the
gramspec run directory, whose bytes must not depend on the clock.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

import workloads

# (module, attribute, layer).  Calls nested in a span are subtracted from
# its self time; a layer of None only counts calls, so the time stays with
# the enclosing span.
SPANS = [
    ("quadrature", "cosine_coefficients", "quadrature.cosine_coefficients"),
    ("spectral", "filter_from_density", "spectral.filter_from_density"),
    ("ensemble", "generate_linear_rows", "ensemble.generate"),
    ("ensemble", "generate_toeplitz_gaussian_rows", "ensemble.generate"),
    ("matrixops", "gram", "matrixops.gram"),
    ("matrixops", "symmetric_eigenvalues", "matrixops.symmetric_eigenvalues"),
    ("_kernels", "tridiagonalize", "kernels.tridiagonalize"),
    ("_kernels", "tridiagonal_eigenvalues", "kernels.tridiagonal_eigenvalues"),
    ("limit", "invert_to_distribution", "limit.invert_to_distribution"),
    ("limit", "solve_limit_density", None),
    ("_kernels", "fixed_point", "kernels.fixed_point"),
    ("metrics", "levy_distance", "metrics.levy_distance"),
    ("cli", "_write_csv", "cli.artifacts"),
    ("cli", "_write_manifest", "cli.artifacts"),
    ("_svg", "write_overlay", "cli.artifacts"),
    ("ensemble", "write_datamatrix", "cli.artifacts"),
]


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._child_time = []  # one slot per open span

    def observe(self, name: str, result) -> None:
        c = self.counts
        if name == "fixed_point":
            c["kernels.fixed_point_iterations"] += result[2]
            c["kernels.fixed_point_retries"] += int(result[3] != 0)
        elif name == "filter_from_density":
            c["spectral.filter_half_length"] = max(
                c["spectral.filter_half_length"], result.offset)
        elif name == "invert_to_distribution":
            c["limit.grid_points"] += result.x_grid.size
            c["limit.unstable_points"] += result.unstable_points
            c["limit.mass_error"] = max(c["limit.mass_error"],
                                        abs(result.total_mass - 1.0))

    def wrap(self, fn, attr: str, layer: str | None):
        key = layer or f"{fn.__module__.split('.')[-1]}.{attr}"

        def traced(*args, **kwargs):
            self.calls[key] += 1
            if layer is None:
                result = fn(*args, **kwargs)
            else:
                self._child_time.append(0.0)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = time.perf_counter() - t0
                    self.self_s[layer] += dur - self._child_time.pop()
                    if self._child_time:
                        self._child_time[-1] += dur
            self.observe(attr, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in SPANS under each name it is bound to
        in the gramspec modules, so calls through `from x import y` copies
        are traced too."""
        mods = [m for name, m in sys.modules.items()
                if name == "gramspec" or name.startswith("gramspec.")]
        for mod, attr, layer in SPANS:
            orig = getattr(sys.modules[f"gramspec.{mod}"], attr)
            new = self.wrap(orig, attr, layer)
            for m in mods:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, name, new)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"self_s": self.self_s, "calls": self.calls,
                       "counts": self.counts}, fh, indent=1, sort_keys=True)


def run_suites(seed: int, out_path: str, plain_eigs) -> None:
    from gramspec import SymMatrix, levy_gram_bound, stieltjes_diff_bound

    diff, levy = workloads.suite_cases(seed)
    t0 = time.perf_counter()
    dl, dr = zip(*(stieltjes_diff_bound(SymMatrix(a), SymMatrix(b), z)
                   for a, b, z in diff))
    ll, lr = zip(*(levy_gram_bound(a, b) for a, b in levy))
    elapsed = time.perf_counter() - t0
    eigs = {f"eigs_{k}": plain_eigs(m).eigs for k, m in
            enumerate(workloads.sampled_matrices(diff, levy))}
    np.savez(out_path, diff_lhs=dl, diff_rhs=dr, levy_lhs=ll, levy_rhs=lr,
             elapsed=elapsed, **eigs)


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    import gramspec.cli
    from gramspec.matrixops import symmetric_eigenvalues

    tracer = Tracer()
    if trace_path:
        tracer.install()
    if argv[0] == "cli":
        rc = gramspec.cli.main(argv[1:])
    elif argv[0] == "suites":
        run_suites(int(argv[1]), argv[2], symmetric_eigenvalues)
        rc = 0
    else:
        raise SystemExit(f"unknown operation {argv[0]!r}")
    if trace_path:
        tracer.dump(trace_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
