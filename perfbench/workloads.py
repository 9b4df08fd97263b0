"""Workload inputs and output checks.

Each workload turns the benchmark seed into the inputs of one operation,
and checks one operation's outputs against the closed forms and
`numpy.linalg` oracles in oracles.py.  Every check is also run on a
deliberately corrupted copy of the real output, which it must reject, so
no check can pass vacuously.  Nothing here imports gramspec.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import oracles

# Tolerances.  Eigenvalues are compared relative to the spectral radius.
EIG_RTOL = 1e-10
TRACE_RTOL = 1e-10
SIM_MP_KS = 0.03          # acceptance criterion 2's gate
COMPARE_LEVY = 0.08       # compare's own gate, written into its config
COMPARE_MASS = 0.02       # |total mass - 1| of the fractional d = 0.3 limit
LINE_ATOL = 1e-8          # z-line companion transform vs MP root
HARDEDGE_KS = 0.03        # limit CDF vs MP CDF at c = 1
HARDEDGE_MASS = 0.03      # |total mass - 1| at c = 1
HARDEDGE_DENSITY = 1e-3   # relative density error on [0.5, 3.5]
SUITE_ATOL = 1e-9         # recomputed suite left-hand sides


class CheckFailed(Exception):
    """An output disagrees with its oracle."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def derived_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, 17])
    return sorted(int(s) for s in rng.choice(1_000_000, count, replace=False))


# ---------------------------------------------------------------------------
# Reading CLI artifacts with the benchmark's own parsers.

def csv_columns(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: np.array([float(r[j]) for r in rows])
            for j, name in enumerate(header)}


def read_matrix(path) -> np.ndarray:
    """gramspec's binary matrix file: a 64-byte header whose bytes 8..24
    hold the row and column counts (little-endian uint64), then row-major
    little-endian float64 values."""
    with open(path, "rb") as fh:
        raw = fh.read()
    n_rows, n_cols = np.frombuffer(raw[8:24], dtype="<u8")
    vals = np.frombuffer(raw[64:], dtype="<f8")
    expect(vals.size == n_rows * n_cols, f"{path}: payload size")
    return vals.reshape(int(n_rows), int(n_cols))


def run_dir(output_root: str) -> str:
    dirs = [d for d in os.listdir(output_root) if not d.startswith(".")]
    expect(len(dirs) == 1, f"expected one run directory in {output_root}")
    return os.path.join(output_root, dirs[0])


def dir_bytes(path: str) -> dict[str, bytes]:
    out = {}
    for root, _, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


# ---------------------------------------------------------------------------
# CLI workloads: config from seed, checks on the run directory.

def compare_config(seed: int) -> dict:
    return {
        "name": "compare_longmem",
        "density": {"family": "fractional", "d": 0.3},
        "aspect": {"n": 800, "p": 400},
        "seeds": derived_seeds(seed, 3),
        "tail_tol": 5e-3,
        "grid": {"n_points": 400},
        "solver": {"tol": 1e-10, "quad_tol": 1e-8},
        "thresholds": {"levy": COMPARE_LEVY},
        "save_matrices": True,
        "workers": 1,
    }


def simulate_config(seed: int) -> dict:
    return {
        "name": "simulate_iid",
        "density": {"family": "constant"},
        "aspect": {"n": 2000, "p": 1000},
        "seeds": derived_seeds(seed, 3),
        "save_matrices": True,
        "workers": 1,
    }


def solve_config(seed: int) -> dict:
    rng = np.random.default_rng([seed, 29])
    return {
        "name": "solve_hardedge",
        "density": {"family": "constant"},
        "aspect": {"n": 400, "p": 400},
        "grid": {"n_points": 64},
        "z_line": {"re_min": round(float(rng.uniform(0.05, 0.3)), 6),
                   "re_max": round(float(rng.uniform(3.8, 4.4)), 6),
                   "count": 40, "im": 0.05},
        "workers": 1,
    }


def load_esds(rd: str, cfg: dict) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """seed -> (program eigenvalues, data matrix X)."""
    out = {}
    for s in cfg["seeds"]:
        eigs = csv_columns(os.path.join(rd, f"esd_seed{s}.csv"))["lambda"]
        x = read_matrix(os.path.join(rd, "matrices", f"seed{s}.bin"))
        out[s] = (eigs, x)
    return out


def check_esd(eigs: np.ndarray, x: np.ndarray) -> None:
    """Eigenvalues of X^T X / N: eigvalsh agreement and the trace identity."""
    n = x.shape[0]
    mismatch = oracles.eig_mismatch(eigs, x.T @ x / n)
    expect(mismatch <= EIG_RTOL, f"eigenvalues differ from eigvalsh by "
           f"{mismatch:.2e} of the spectral radius")
    fro = float(np.sum(x * x)) / n
    err = abs(float(np.sum(eigs)) - fro) / fro
    expect(err <= TRACE_RTOL,
           f"eigenvalue sum differs from |X|_F^2/N by {err:.2e}")


def check_mass(limit: dict[str, np.ndarray], bound: float) -> float:
    mass = float(limit["cdf"][-1])
    expect(abs(mass - 1.0) <= bound, f"total mass {mass}")
    return mass


def check_manifest(manifest: dict) -> None:
    expect(manifest["pass"] is True, "manifest pass is not true")
    expect(manifest["result"]["pooled_levy"] <= COMPARE_LEVY,
           "pooled Levy distance above the gate")


def check_compare(rd: str, cfg: dict) -> dict:
    with open(os.path.join(rd, "manifest.json")) as fh:
        check_manifest(json.load(fh))
    limit = csv_columns(os.path.join(rd, "limit.csv"))
    mass = check_mass(limit, COMPARE_MASS)
    for eigs, x in load_esds(rd, cfg).values():
        check_esd(eigs, x)
    return {"mass": mass}


def check_mp_esd(eigs: np.ndarray, c: float) -> float:
    ks = oracles.ks_to_cdf(eigs, lambda t: oracles.mp_cdf(t, c))
    expect(ks <= SIM_MP_KS, f"Kolmogorov distance {ks:.4f} to MP")
    return ks


def check_simulate(rd: str, cfg: dict) -> dict:
    c = cfg["aspect"]["p"] / cfg["aspect"]["n"]
    worst = 0.0
    for eigs, x in load_esds(rd, cfg).values():
        check_esd(eigs, x)
        worst = max(worst, check_mp_esd(eigs, c))
    return {"mp_ks": worst}


def check_line(line: dict[str, np.ndarray], c: float) -> float:
    worst = 0.0
    for re, im, sr, si in zip(line["re_z"], line["im_z"],
                              line["re_s_under"], line["im_s_under"]):
        ref = oracles.mp_companion(complex(re, im), c)
        worst = max(worst, abs(complex(sr, si) - ref))
    expect(worst <= LINE_ATOL, f"z-line transform off the MP root by "
           f"{worst:.2e}")
    return worst


def check_hardedge_limit(limit: dict[str, np.ndarray], c: float) -> dict:
    x, rho, cdf = limit["x"], limit["density"], limit["cdf"]
    ks = float(np.max(np.abs(cdf - oracles.mp_cdf(x, c))))
    expect(ks <= HARDEDGE_KS, f"limit CDF off the MP CDF by {ks:.4f}")
    mass = check_mass(limit, HARDEDGE_MASS)
    inner = (x >= 0.5) & (x <= 3.5)
    ref = oracles.mp_density(x[inner], c)
    rel = float(np.max(np.abs(rho[inner] - ref) / ref))
    expect(rel <= HARDEDGE_DENSITY, f"density off MP by {rel:.2e} relative")
    return {"mp_ks": ks, "mass": mass, "density_rel": rel}


def check_solve(rd: str, cfg: dict) -> dict:
    c = cfg["aspect"]["p"] / cfg["aspect"]["n"]
    line = csv_columns(os.path.join(rd, "stieltjes_line.csv"))
    worst = check_line(line, c)
    out = check_hardedge_limit(csv_columns(os.path.join(rd, "limit.csv")), c)
    out["line_err"] = worst
    return out


def _shift_one(eigs: np.ndarray) -> np.ndarray:
    bad = eigs.copy()
    bad[bad.size // 2] += 1e-6 * float(np.max(np.abs(eigs)))
    return bad


def _rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except CheckFailed:
        return True
    return False


def self_test_cli(name: str, rd: str, cfg: dict) -> None:
    """Corrupt real outputs and require each checker to reject them."""
    c = cfg["aspect"]["p"] / cfg["aspect"]["n"]
    if name in ("compare_longmem", "simulate_iid"):
        eigs, x = next(iter(load_esds(rd, cfg).values()))
        expect(_rejects(check_esd, _shift_one(eigs), x),
               "eigenvalue check accepted a shifted eigenvalue")
    if name == "compare_longmem":
        with open(os.path.join(rd, "manifest.json")) as fh:
            manifest = json.load(fh)
        manifest["pass"] = False
        expect(_rejects(check_manifest, manifest),
               "manifest check accepted a failed gate")
        limit = csv_columns(os.path.join(rd, "limit.csv"))
        limit["cdf"] = limit["cdf"] * (1.0 + 2 * COMPARE_MASS)
        expect(_rejects(check_mass, limit, COMPARE_MASS),
               "mass check accepted a CDF scaled past its bound")
    if name == "simulate_iid":
        eigs, _ = next(iter(load_esds(rd, cfg).values()))
        expect(_rejects(check_mp_esd, eigs * 1.1, c),
               "MP check accepted eigenvalues scaled by 1.1")
    if name == "solve_hardedge":
        line = csv_columns(os.path.join(rd, "stieltjes_line.csv"))
        line["im_s_under"] = line["im_s_under"] + 1e-7
        expect(_rejects(check_line, line, c),
               "z-line check accepted a perturbed transform")
        limit = csv_columns(os.path.join(rd, "limit.csv"))
        bumped = dict(limit, cdf=limit["cdf"] + 0.05 * (limit["x"] > 1.0))
        expect(_rejects(check_hardedge_limit, bumped, c),
               "CDF check accepted a perturbed CDF")
        bumped = dict(limit, density=limit["density"] * 1.05)
        expect(_rejects(check_hardedge_limit, bumped, c),
               "density check accepted a scaled density")


# ---------------------------------------------------------------------------
# trace_suites: the two randomized inequality suites of acceptance
# criterion 8, with the sizes stratified so that every seed does the same
# work: each diff case order n = 4..32 appears DIFF_REPEAT times and each
# (n, p) in 2..24 x 1..16 with n + p even once, in a seeded order, with
# seeded entries.

DIFF_REPEAT = 4
SAMPLE_EVERY = 16   # every 16th matrix of each suite gets an eigvalsh check


def suite_cases(seed: int):
    rng = np.random.default_rng([seed, 8])
    orders = np.repeat(np.arange(4, 33), DIFF_REPEAT)
    diff = []
    for n in rng.permutation(orders):
        n = int(n)
        base = rng.standard_normal((n, n))
        a = (base + base.T) / 2.0
        tau = rng.uniform(0.5, 0.9)
        d = rng.uniform(0.5, 1.0, n)
        b = a + (tau / math.sqrt(n)) * np.diag(d)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
        diff.append((a, b, z))
    shapes = [(n, p) for n in range(2, 25) for p in range(1, 17)
              if (n + p) % 2 == 0]
    levy = []
    for i in rng.permutation(len(shapes)):
        n, p = shapes[int(i)]
        a = rng.standard_normal((n, p))
        b = a + rng.uniform(0.0, 1.0) * rng.standard_normal((n, p))
        levy.append((a, b))
    return diff, levy


def sampled_matrices(diff, levy) -> list[np.ndarray]:
    """The matrices whose eigenvalues the suite operation also returns."""
    return ([a for a, _, _ in diff[::SAMPLE_EVERY]]
            + [a @ a.T for a, _ in levy[::SAMPLE_EVERY]])


def check_suites(out: dict[str, np.ndarray], diff, levy) -> dict:
    dl, dr = out["diff_lhs"], out["diff_rhs"]
    ll, lr = out["levy_lhs"], out["levy_rhs"]
    expect(dl.size == len(diff) and ll.size == len(levy), "case counts")
    expect(int(np.sum(dl > dr)) == 0, "transform-difference bound violated")
    expect(int(np.sum(ll > lr)) == 0, "Levy-vs-trace bound violated")
    for k, (a, b, z) in enumerate(diff):
        n = a.shape[0]
        sa = np.mean(1.0 / (np.linalg.eigvalsh(a) - z))
        sb = np.mean(1.0 / (np.linalg.eigvalsh(b) - z))
        expect(abs(abs(sa - sb) - dl[k]) <= SUITE_ATOL,
               f"diff case {k}: |S_A - S_B| differs from eigvalsh")
        rhs = math.sqrt(abs(np.trace(a - b))) / (z.imag ** 2 * math.sqrt(n))
        expect(abs(rhs - dr[k]) <= 1e-12 * rhs, f"diff case {k}: bound")
    for k, (a, b) in enumerate(levy):
        ea = np.linalg.eigvalsh(a @ a.T)
        eb = np.linalg.eigvalsh(b @ b.T)
        ks = oracles.ks_between_samples(ea, eb)
        expect(math.sqrt(ll[k]) <= ks + SUITE_ATOL,
               f"levy case {k}: Levy distance above Kolmogorov distance")
        rhs = math.sqrt(2.0) / a.shape[0] * math.sqrt(
            float(np.sum(a * a) + np.sum(b * b)) * float(np.sum((a - b) ** 2)))
        expect(abs(rhs - lr[k]) <= 1e-12 * rhs, f"levy case {k}: bound")
    mats = sampled_matrices(diff, levy)
    for k, m in enumerate(mats):
        mismatch = oracles.eig_mismatch(out[f"eigs_{k}"], m)
        expect(mismatch <= EIG_RTOL, f"sampled matrix {k}: eigenvalues "
               f"differ from eigvalsh by {mismatch:.2e}")
    return {"cases": len(diff) + len(levy), "eig_samples": len(mats)}


def self_test_suites(out: dict[str, np.ndarray], diff, levy) -> None:
    def with_(key, fn):
        bad = dict(out)
        bad[key] = fn(out[key].copy())
        return bad

    def bump(i, by):
        def go(arr):
            arr[i] += by
            return arr
        return go

    # a Levy distance just above the Kolmogorov distance but still within
    # the trace bound, so only the Levy <= Kolmogorov check can catch it
    for j, (a, b) in enumerate(levy):
        ks = oracles.ks_between_samples(np.linalg.eigvalsh(a @ a.T),
                                        np.linalg.eigvalsh(b @ b.T))
        if (ks + 1e-3) ** 2 < out["levy_rhs"][j]:
            break
    above_ks = (ks + 1e-3) ** 2 - out["levy_lhs"][j]
    k = int(np.argmax(out["diff_lhs"] / out["diff_rhs"]))
    corrupt = [
        with_("diff_lhs", bump(k, out["diff_rhs"][k])),
        with_("diff_lhs", bump(0, 1e-6)),
        with_("diff_rhs", bump(0, 1e-6 * out["diff_rhs"][0])),
        with_("levy_lhs", bump(j, above_ks)),
        with_("levy_rhs", bump(0, 1e-6 * out["levy_rhs"][0])),
        with_("eigs_0", _shift_one),
    ]
    for i, bad in enumerate(corrupt):
        expect(_rejects(check_suites, bad, diff, levy),
               f"suite check accepted corruption {i}")
