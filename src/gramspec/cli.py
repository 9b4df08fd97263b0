"""Command-line front end.

Six subcommands cover the package workflows:

* solve        -- limiting-transform line solves and/or full inversion
* simulate     -- seeded ensembles and their Gram eigenvalue lists
* compare      -- Monte-Carlo ESDs against the inverted limit, with a gate
* toeplitz     -- pure-covariance spectra against the transformed-density law
* universality -- several innovation laws against one limit and each other
* truncation   -- capped-density ladder for unbounded spectral densities

Runs are reproducible artifacts: every output lands in a staging directory
that is atomically renamed to <output-root>/<command>-<name>-<confighash>
on success, and contains a manifest listing the resolved config, its hash,
and a digest of every file.  Nothing in an artifact depends on wall time,
process ids, or worker scheduling, so identical configs produce
byte-identical runs.  Exit code 0 means every configured threshold passed,
1 means some gate failed, 2 means the run could not be carried out.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass

import numpy as np

from . import _arrays, _kernels, _svg
from .ensemble import (DataMatrix, InnovationLaw, gaussian_law,
                       generate_linear_rows, generate_toeplitz_gaussian_rows,
                       law_from_spec, read_datamatrix, row_route,
                       toeplitz_matrix, write_datamatrix, DEFAULT_BUDGET)
from .errors import ConfigError, GramspecError
from .limit import (DEFAULT_GRID_POINTS, LimitDistribution, SolverSettings,
                    check_caps, check_grid_points, check_x_grid,
                    default_x_grid, invert_to_distribution,
                    solve_limit_density, truncation_ladder)
from .matrixops import Esd, gram_eigenvalues, symmetric_eigenvalues
from .metrics import StepCdf, kolmogorov_distance, levy_distance
from .spectral import (DEFAULT_TAIL_TOL, SpectralDensity, _real,
                       check_tail_tol, density_from_spec, filter_from_density,
                       h_pushforward, probe_values)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Fully validated run recipe, one field per config key (see _KEYS),
    plus the canonical raw mapping it came from."""

    raw: dict
    name: str
    density: SpectralDensity | None
    aspect: tuple[int, int] | None
    seeds: tuple[int, ...]
    law: InnovationLaw
    laws: tuple[InnovationLaw, ...]
    tail_tol: float
    solver: SolverSettings
    grid: tuple[int, np.ndarray | None]
    z_line: dict | None
    thresholds: dict
    caps: tuple[float, ...]
    workers: int
    budget: int
    toeplitz: int | None
    save_matrices: bool
    load_matrices: str | None

    # aspect is (n, p) and grid (n_points, x)
    n_rows = property(lambda self: self.aspect[0])
    n_cols = property(lambda self: self.aspect[1])
    grid_points = property(lambda self: self.grid[0])
    x_grid = property(lambda self: self.grid[1])

    @property
    def aspect_ratio(self) -> float:
        """c = p / n, correctly rounded; read only by the commands that
        need "aspect" (see _BODIES)."""
        return self.n_cols / self.n_rows


def canonical_json(raw: dict) -> str:
    return json.dumps(raw, sort_keys=True, separators=(",", ":"))


def config_hash(raw: dict) -> str:
    return hashlib.sha256(canonical_json(raw).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Config readers.  Each reader in _KEYS takes a key's value and the
# config's directory and returns the field's value, or raises: ConfigError
# with whole messages, anything else for a "bad '<key>': ..." message.
# Numbers are read by _count (integers) and spectral._real (reals, shared
# with the density and law specs), which refuse what they would coerce.

def _count(value, floor: int | None = None, below: str = "") -> int:
    # A JSON integer: a bool, a float such as 800.7 or a string such as
    # "800" is refused, not truncated.  ValueError(below) under floor.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {json.dumps(value)}")
    if floor is not None and value < floor:
        raise ValueError(below)
    return value


def _flag(value, _base_dir) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {json.dumps(value)}")
    return value


def _section(noun: str, keys: set, read):
    # The reader of a mapping that may hold only keys, which read turns
    # into the field; unknown keys are named with noun.
    def section(sec, _base_dir):
        if not isinstance(sec, dict):
            raise ValueError("must be a mapping")
        extra = set(sec) - keys
        if extra:
            raise ValueError(f"unknown {noun} keys {sorted(extra)}")
        return read(sec)
    return section


def _name(name, _base_dir) -> str:
    if not isinstance(name, str) or not name or any(
            ch in name for ch in "/\\ \t\n"):
        raise ConfigError(
            ["'name' must be a nonempty string without slashes or spaces"])
    return name


def _aspect(a: dict) -> tuple[int, int]:
    n, p = _count(a["n"]), _count(a["p"])
    if n < 1 or p < 1:
        raise ValueError("n and p must be >= 1")
    return n, p


def _seeds(specs, _base_dir) -> tuple[int, ...]:
    seeds = tuple(_count(s) for s in specs)
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    if any(s < 0 for s in seeds):
        raise ValueError("seeds must be nonnegative")
    if any(s >= 2**64 for s in seeds):  # row keys take a seed mod 2**64
        raise ValueError("seeds must be below 2**64")
    return seeds


def _laws(specs, _base_dir) -> tuple[InnovationLaw, ...]:
    if not isinstance(specs, list) or len(specs) < 2:
        raise ValueError("'laws' needs a list of at least two entries")
    return tuple(law_from_spec(s if isinstance(s, dict) else {"law": s})
                 for s in specs)


def _solver(s: dict) -> SolverSettings:
    return SolverSettings(**{k: _real(v) for k, v in s.items()})


_MAX_POINTS = 10**6  # per default grid or z line; each point is one solve


def _points(value) -> int:
    if _count(value) > _MAX_POINTS:
        raise ValueError(f"at most {_MAX_POINTS} points, got {value}")
    return value


def _grid(g: dict) -> tuple[int, np.ndarray | None]:
    points = check_grid_points(_points(g.get("n_points",
                                             DEFAULT_GRID_POINTS)))
    return points, (check_x_grid(g["x"]) if "x" in g else None)


def _z_line(zl: dict) -> dict:
    out = {"re_min": _real(zl["re_min"]), "re_max": _real(zl["re_max"]),
           "count": _points(zl.get("count", 40)),
           "im": _real(zl.get("im", 0.05))}
    if not out["re_max"] > out["re_min"] or out["count"] < 2:
        raise ValueError("need re_max > re_min and count >= 2")
    if not out["im"] > 0:
        raise ValueError("im must be positive")
    return out


def _thresholds(th: dict) -> dict:
    out = {k: _real(v) for k, v in th.items()}
    if not all(v > 0 for v in out.values()):
        raise ValueError("thresholds must be positive")
    return out


def _load_matrices(path, base_dir) -> str | None:
    if path is not None and not isinstance(path, str):
        raise ConfigError(["'load_matrices' must be a directory path string"])
    if path is None or base_dir is None:
        return path
    return os.path.join(base_dir, path)  # an absolute path stays as it is


# Every config key: its reader and the value an unset key takes.  The
# order is the order in which errors are reported.
_KEYS = {
    "name": (_name, "run"),
    "density": (density_from_spec, None),
    "aspect": (_section("aspect", {"n", "p"}, _aspect), None),
    "seeds": (_seeds, ()),
    "law": (lambda spec, _: law_from_spec(spec), gaussian_law()),
    "laws": (_laws, ()),
    "tail_tol": (lambda tol, _: check_tail_tol(_real(tol)),
                 DEFAULT_TAIL_TOL),
    "solver": (_section("solver", {"tol", "quad_tol"}, _solver),
               SolverSettings()),
    "grid": (_section("grid", {"n_points", "x"}, _grid),
             (DEFAULT_GRID_POINTS, None)),
    "z_line": (_section("z_line", {"re_min", "re_max", "count", "im"},
                        _z_line), None),
    "thresholds": (_section("threshold", {"levy", "kolmogorov",
                                          "cross_levy", "gap_ratio"},
                            _thresholds), {}),
    "caps": (lambda caps, _: check_caps(_real(b) for b in caps), ()),
    "workers": (lambda n, _: _count(n, 1, "must be >= 1"), 1),
    "budget": (lambda n, _: _count(n, 1, "must be >= 1"), DEFAULT_BUDGET),
    "toeplitz": (_section("toeplitz", {"p"}, lambda t: _count(
        t["p"], 2, "toeplitz.p must be >= 2")), None),
    "save_matrices": (_flag, False),
    "load_matrices": (_load_matrices, None),
}


def parse_config(raw: dict, base_dir=None) -> ExperimentConfig:
    """Validate the whole mapping at once; every violation found is reported
    together in one ConfigError rather than stopping at the first."""
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    errors = [f"unknown config key {key!r}"
              for key in sorted(set(raw) - set(_KEYS))]
    values = {}
    for key, (read, unset) in _KEYS.items():
        try:
            values[key] = read(raw[key], base_dir) if key in raw else unset
        except ConfigError as exc:
            errors.extend(exc.messages)
        except (GramspecError, KeyError, TypeError, ValueError,
                OSError) as exc:  # OSError: a density file that cannot be read
            errors.append(f"bad {key!r}: {exc}")
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(raw=raw, **values)


# ---------------------------------------------------------------------------
# Artifact helpers.

def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v
                             for v in row])


def _limit_summary(limit: LimitDistribution) -> dict:
    return {"atom0": limit.atom0, "edges": list(limit.edges),
            "total_mass": limit.total_mass,
            "inversion_max_residual": limit.residual_max}


def _pmap(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _seed_matrix(cfg: ExperimentConfig, seed: int, stream: int = 0,
                 law: InnovationLaw | None = None,
                 filt=None) -> DataMatrix:
    # Rows through filt, or by circulant embedding when there is none.
    if cfg.load_matrices is not None:
        path = os.path.join(cfg.load_matrices, f"seed{seed}.bin")
        dm = read_datamatrix(path)
        if dm.n_rows != cfg.n_rows or dm.n_cols != cfg.n_cols:
            raise ConfigError(
                [f"cached matrix {path} has shape {dm.n_rows}x{dm.n_cols}, "
                 f"config wants {cfg.n_rows}x{cfg.n_cols}"])
        return dm
    if filt is None:
        return generate_toeplitz_gaussian_rows(
            cfg.density, cfg.n_rows, cfg.n_cols, seed, stream=stream,
            budget=cfg.budget)
    return generate_linear_rows(filt, law or cfg.law, cfg.n_rows, cfg.n_cols,
                                seed, stream=stream, budget=cfg.budget)


def _seed_esd(cfg: ExperimentConfig, seed: int, filt, save_dir=None,
              stream: int = 0, law: InnovationLaw | None = None) -> Esd:
    # One seed's eigenvalues of X^T X / N; its matrix is cached under save_dir.
    dm = _seed_matrix(cfg, seed, stream=stream, law=law, filt=filt)
    if save_dir is not None:
        write_datamatrix(dm, os.path.join(save_dir, f"seed{seed}.bin"))
    return gram_eigenvalues(dm.values, dm.n_rows)


def _row_source(cfg: ExperimentConfig):
    # The filter that drives compare's and simulate's rows (None for the
    # circulant embedding) and the manifest's record of that route, which
    # is None for loaded matrices.  The route builds the filter only when
    # the rows use it.
    if cfg.load_matrices:
        return None, None
    route, length, filt = row_route(cfg.density, cfg.n_cols, cfg.tail_tol,
                                    cfg.law)
    record = {"route": route, "fft_length": length}
    if filt is not None:
        record.update(filter_half_length=filt.offset,
                      filter_tail_bound=filt.tail_bound)
    return filt, record


def _limit(cfg: ExperimentConfig, stage: str) -> LimitDistribution:
    # The limit of the config's density and aspect on its grid (the
    # default one unless grid.x is set), written to limit.csv.
    c = cfg.aspect_ratio
    x = cfg.x_grid if cfg.x_grid is not None \
        else default_x_grid(cfg.density, c, cfg.grid_points)
    limit = invert_to_distribution(cfg.density, c, x, cfg.solver)
    _write_csv(os.path.join(stage, "limit.csv"), ["x", "density", "cdf"],
               zip(limit.x_grid.tolist(), limit.density.tolist(),
                   limit.cdf.tolist()))
    return limit


def _gate(cfg: ExperimentConfig, key: str, value):
    # The threshold thresholds[key] and whether value meets it; an unset
    # threshold, or a value of None (nothing to judge), passes.
    gate = cfg.thresholds.get(key)
    return gate, gate is None or value is None or value <= gate


def _h_window(f: SpectralDensity) -> np.ndarray:
    v = probe_values(f)
    top = float(_arrays.quantiles(v, 1.0 - 1e-4)) * 1.5 + 1e-12
    return np.linspace(0.0, top, 1200)


# ---------------------------------------------------------------------------
# Subcommand bodies.  Each returns (result_dict, passed), and runs after
# run_experiment has checked the config sections _BODIES lists for it.

def _cmd_solve(cfg: ExperimentConfig, stage: str):
    if cfg.z_line is None and "grid" not in cfg.raw:
        raise ConfigError(["command 'solve' needs 'z_line' and/or 'grid'"])
    c = cfg.aspect_ratio
    f = cfg.density
    common = math.gcd(cfg.n_cols, cfg.n_rows)
    result = {"aspect_ratio": [cfg.n_cols // common, cfg.n_rows // common]}
    if cfg.z_line is not None:
        zl = cfg.z_line
        res = np.linspace(zl["re_min"], zl["re_max"], zl["count"])
        rows = []
        init = None
        worst = 0.0
        for re in res:
            z = complex(re, zl["im"])
            pt = solve_limit_density(f, c, z, cfg.solver, initial=init)
            init = pt.s_under
            worst = max(worst, pt.residual)
            rows.append((float(re), zl["im"], pt.s_under.real, pt.s_under.imag,
                         pt.s.real, pt.s.imag, pt.residual, pt.iterations))
        _write_csv(os.path.join(stage, "stieltjes_line.csv"),
                   ["re_z", "im_z", "re_s_under", "im_s_under",
                    "re_s", "im_s", "residual", "iterations"], rows)
        result["line_points"] = len(rows)
        result["line_max_residual"] = worst
    if "grid" in cfg.raw:
        limit = _limit(cfg, stage)
        _svg.write_overlay(
            os.path.join(stage, "density.svg"),
            [{"xs": limit.x_grid, "ys": limit.density, "label": "limit density"}],
            title="Limiting spectral density", x_label="x", y_label="density")
        _svg.write_overlay(
            os.path.join(stage, "cdf.svg"),
            [{"xs": limit.x_grid, "ys": limit.cdf, "label": "limit CDF"}],
            title="Limiting spectral CDF", x_label="x", y_label="F(x)")
        result.update(_limit_summary(limit))
    return result, True


def _simulate_esds(cfg: ExperimentConfig, stage: str):
    filt, route = _row_source(cfg)
    save_dir = None
    if cfg.save_matrices:
        save_dir = os.path.join(stage, "matrices")
        os.makedirs(save_dir)

    def job(seed: int) -> Esd:
        return _seed_esd(cfg, seed, filt, save_dir)

    esds = _pmap(job, list(cfg.seeds), cfg.workers)
    for seed, esd in zip(cfg.seeds, esds):
        _write_csv(os.path.join(stage, f"esd_seed{seed}.csv"),
                   ["index", "lambda"],
                   list(enumerate(esd.eigs.tolist())))
    pooled = Esd(np.concatenate([e.eigs for e in esds]))
    _write_csv(os.path.join(stage, "esd_pooled.csv"), ["index", "lambda"],
               list(enumerate(pooled.eigs.tolist())))
    return esds, pooled, route


def _cmd_simulate(cfg: ExperimentConfig, stage: str):
    esds, pooled, route = _simulate_esds(cfg, stage)
    result = {
        "seeds": list(cfg.seeds),
        "eigs_per_seed": cfg.n_cols,
        "min_eig": float(pooled.eigs[0]),
        "max_eig": float(pooled.eigs[-1]),
    }
    if route is not None:
        result["rows"] = route
    return result, True


def _cmd_compare(cfg: ExperimentConfig, stage: str):
    limit = _limit(cfg, stage)
    limit_cdf = StepCdf.from_limit(limit)
    esds, pooled, route = _simulate_esds(cfg, stage)
    rows = []
    per_seed = []
    for seed, esd in zip(cfg.seeds, esds):
        fs = StepCdf.from_esd(esd)
        lv = levy_distance(fs, limit_cdf)
        ko = kolmogorov_distance(fs, limit_cdf)
        per_seed.append(lv)
        rows.append((str(seed), lv, ko))
    pooled_cdf = StepCdf.from_esd(pooled)
    pooled_levy = levy_distance(pooled_cdf, limit_cdf)
    rows.append(("pooled", pooled_levy,
                 kolmogorov_distance(pooled_cdf, limit_cdf)))
    _write_csv(os.path.join(stage, "distances.csv"),
               ["seed", "levy", "kolmogorov"], rows)
    _svg.write_overlay(
        os.path.join(stage, "overlay.svg"),
        [{"xs": limit.x_grid, "ys": limit.cdf, "label": "limit"},
         {"xs": pooled.eigs, "ys": np.arange(1, pooled.n + 1) / pooled.n,
          "label": "pooled ESD", "kind": "step"}],
        title="Empirical vs limiting CDF", x_label="x", y_label="F(x)")
    gate, passed = _gate(cfg, "levy", pooled_levy)
    result = {
        "pooled_levy": pooled_levy,
        "max_seed_levy": max(per_seed),
        "levy_threshold": gate,
        "pass": passed,
        **_limit_summary(limit),
    }
    if route is not None:
        result["rows"] = route
    return result, passed


def _cmd_toeplitz(cfg: ExperimentConfig, stage: str):
    p = cfg.toeplitz
    esd = symmetric_eigenvalues(toeplitz_matrix(cfg.density, p))
    grid = _h_window(cfg.density)
    hv = h_pushforward(cfg.density, grid)
    _write_csv(os.path.join(stage, "toeplitz_esd.csv"), ["index", "lambda"],
               list(enumerate(esd.eigs.tolist())))
    _write_csv(os.path.join(stage, "pushforward_cdf.csv"), ["x", "H"],
               zip(grid.tolist(), hv.tolist()))
    fs = StepCdf.from_esd(esd)
    # between eigenvalues the ESD is flat and H monotone, so sup |F_p - H|
    # sits at the eigenvalues: exact wherever H has no atom
    h_eigs = h_pushforward(cfg.density, fs.xs)
    ko = kolmogorov_distance(fs, StepCdf(fs.xs, h_eigs, h_eigs))
    # H through the window grid alone is off by up to a grid step, which
    # can exceed the Levy distance; through the eigenvalues too, it has
    # levy <= kolmogorov wherever H has no atom
    xs, first = np.unique(np.concatenate((grid, fs.xs)), return_index=True)
    hs = np.concatenate((hv, h_eigs))[first]
    lv = levy_distance(fs, StepCdf.from_grid(xs, hs))
    _svg.write_overlay(
        os.path.join(stage, "toeplitz_overlay.svg"),
        [{"xs": grid, "ys": hv, "label": "transformed-density law"},
         {"xs": esd.eigs, "ys": np.arange(1, p + 1) / p,
          "label": f"covariance spectrum (p={p})", "kind": "step"}],
        title="Covariance spectrum vs transformed-density law",
        x_label="x", y_label="F(x)")
    gate, passed = _gate(cfg, "kolmogorov", ko)
    result = {"order": p, "kolmogorov": ko, "levy": lv,
              "kolmogorov_threshold": gate, "pass": passed}
    return result, passed


def _cmd_universality(cfg: ExperimentConfig, stage: str):
    # every law drives the density's filter on fresh rows, so the matrix
    # cache has nothing to act on
    unread = []
    if cfg.load_matrices is not None:
        unread.append("'load_matrices' is not read")
    if cfg.save_matrices:
        unread.append("'save_matrices' is not read")
    if unread:
        raise ConfigError([f"command 'universality': {m}" for m in unread])
    limit = _limit(cfg, stage)
    limit_cdf = StepCdf.from_limit(limit)
    filt = filter_from_density(cfg.density, tail_tol=cfg.tail_tol)
    jobs = [(i, law, seed) for i, law in enumerate(cfg.laws)
            for seed in cfg.seeds]

    def job(args):
        idx, law, seed = args
        return _seed_esd(cfg, seed, filt, stream=idx, law=law)

    esds = _pmap(job, jobs, cfg.workers)
    pooled = {}
    for (i, _, _), esd in zip(jobs, esds):
        pooled.setdefault(i, []).append(esd.eigs)
    names = [lw.describe() for lw in cfg.laws]
    pooled_cdfs = {}
    rows = []
    worst_levy = 0.0
    for i, name in enumerate(names):
        agg = Esd(np.concatenate(pooled[i]))
        pooled_cdfs[i] = StepCdf.from_esd(agg)
        lv = levy_distance(pooled_cdfs[i], limit_cdf)
        worst_levy = max(worst_levy, lv)
        rows.append((name, lv))
    _write_csv(os.path.join(stage, "law_distances.csv"),
               ["law", "levy_to_limit"], rows)
    cross_rows = []
    worst_cross = 0.0
    for i in range(len(cfg.laws)):
        for j in range(i + 1, len(cfg.laws)):
            lv = levy_distance(pooled_cdfs[i], pooled_cdfs[j])
            worst_cross = max(worst_cross, lv)
            cross_rows.append((names[i], names[j], lv))
    _write_csv(os.path.join(stage, "cross_distances.csv"),
               ["law_a", "law_b", "levy"], cross_rows)
    curves = [{"xs": limit.x_grid, "ys": limit.cdf, "label": "limit"}]
    for i, name in enumerate(names):
        e = pooled_cdfs[i]
        curves.append({"xs": e.xs, "ys": e.right, "label": name,
                       "kind": "step"})
    _svg.write_overlay(os.path.join(stage, "universality.svg"), curves,
                       title="One limit, several innovation laws",
                       x_label="x", y_label="F(x)")
    gate_l, pass_l = _gate(cfg, "levy", worst_levy)
    gate_x, pass_x = _gate(cfg, "cross_levy", worst_cross)
    passed = pass_l and pass_x
    result = {
        "laws": names,
        "max_levy_to_limit": worst_levy,
        "max_cross_levy": worst_cross,
        "levy_threshold": gate_l,
        "cross_levy_threshold": gate_x,
        "pass": passed,
        **_limit_summary(limit),
    }
    return result, passed


def _cmd_truncation(cfg: ExperimentConfig, stage: str):
    ladder = truncation_ladder(cfg.density, cfg.aspect_ratio, cfg.caps,
                               cfg.solver, n_points=cfg.grid_points)
    rows = []
    for i, (cap, mass) in enumerate(zip(ladder.caps, ladder.masses)):
        gap = ladder.gaps[i] if i < len(ladder.gaps) else float("nan")
        rows.append((cap, mass, gap))
    _write_csv(os.path.join(stage, "ladder.csv"),
               ["cap", "spectral_mass", "levy_gap_to_next"], rows)
    curves = []
    for cap, lim in zip(ladder.caps, ladder.limits):
        curves.append({"xs": lim.x_grid, "ys": lim.cdf,
                       "label": f"cap {cap:g}"})
    _svg.write_overlay(os.path.join(stage, "ladder.svg"), curves,
                       title="Truncation ladder CDFs", x_label="x",
                       y_label="F(x)")
    ratios = [ladder.gaps[i + 1] / ladder.gaps[i]
              for i in range(len(ladder.gaps) - 1) if ladder.gaps[i] > 0]
    gate, passed = _gate(cfg, "gap_ratio", max(ratios, default=None))
    result = {
        "caps": list(ladder.caps),
        "masses": list(ladder.masses),
        "gaps": list(ladder.gaps),
        "gap_ratios": ratios,
        "gap_ratio_threshold": gate,
        "pass": passed,
    }
    return result, passed


# Each command's body and the config sections it needs set.
_BODIES = {
    "solve": (_cmd_solve, ("density", "aspect")),
    "simulate": (_cmd_simulate, ("density", "aspect", "seeds")),
    "compare": (_cmd_compare, ("density", "aspect", "seeds")),
    "toeplitz": (_cmd_toeplitz, ("density", "toeplitz")),
    "universality": (_cmd_universality,
                     ("density", "aspect", "seeds", "laws")),
    "truncation": (_cmd_truncation, ("density", "aspect", "caps")),
}


# ---------------------------------------------------------------------------
# Manifest and atomic run-directory commit.

def _hash_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _plain(obj):
    """Reduce numpy scalars/arrays to built-in types for JSON output."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _write_manifest(stage: str, command: str, cfg: ExperimentConfig,
                    result: dict, passed: bool) -> None:
    # result arrives reduced to built-in types by run_experiment's _plain
    artifacts = {}
    for root, _, files in os.walk(stage):
        for fname in files:
            full = os.path.join(root, fname)
            rel = os.path.relpath(full, stage)
            artifacts[rel] = _hash_file(full)
    manifest = {
        "command": command,
        "name": cfg.name,
        "config": cfg.raw,
        "config_hash": config_hash(cfg.raw),
        "kernel_backend": _kernels.backend_name(),
        "artifacts": dict(sorted(artifacts.items())),
        "result": result,
        "pass": bool(passed),
    }
    with open(os.path.join(stage, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(command: str, cfg: ExperimentConfig, output_root: str,
                   force: bool = False) -> tuple[str, dict, bool]:
    """Execute one subcommand into an atomically committed run directory."""
    body, needs = _BODIES[command]
    missing = [key for key in needs if not getattr(cfg, key)]
    if missing:
        raise ConfigError([f"command '{command}' needs config section "
                           f"'{key}'" for key in missing])
    final_name = f"{command}-{cfg.name}-{config_hash(cfg.raw)[:8]}"
    final_dir = os.path.join(output_root, final_name)
    stage = os.path.join(output_root, f".staging-{final_name}-{os.getpid()}")
    if os.path.exists(final_dir) and not force:
        raise ConfigError(
            [f"run directory {final_dir} already exists (use --force to "
             f"replace it)"])
    os.makedirs(output_root, exist_ok=True)
    if os.path.exists(stage):
        shutil.rmtree(stage)
    os.makedirs(stage)
    try:
        result, passed = body(cfg, stage)
        result = _plain(result)
        _write_manifest(stage, command, cfg, result, passed)
        if os.path.exists(final_dir):
            shutil.rmtree(final_dir)
        os.replace(stage, final_dir)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    return final_dir, result, passed


# ---------------------------------------------------------------------------
# Argument handling.

def _apply_override(raw: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError([f"--set needs key=value, got {spec!r}"])
    key, _, text = spec.partition("=")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramspec",
        description="Limiting spectra of Gram matrices of stationary rows")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _BODIES:
        sp = sub.add_parser(name, help=f"run the {name} workflow")
        sp.add_argument("--config", required=True,
                        help="path to a JSON config file")
        sp.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="overrides",
                        help="override a config entry (dotted path, JSON value)")
        sp.add_argument("--output-root", default=None,
                        help="runs directory (default $GRAMSPEC_OUTPUT_ROOT "
                             "or ./runs)")
        sp.add_argument("--force", action="store_true",
                        help="replace an existing run directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {args.config}: {exc}",
              file=sys.stderr)
        return 2
    try:
        for spec in args.overrides:
            _apply_override(raw, spec)
        cfg = parse_config(raw, base_dir=os.path.dirname(
            os.path.abspath(args.config)))
        output_root = args.output_root or \
            os.environ.get("GRAMSPEC_OUTPUT_ROOT") or "runs"
        final_dir, result, passed = run_experiment(
            args.command, cfg, output_root, force=args.force)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    except GramspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = "PASS" if passed else "FAIL"
    print(f"RESULT {args.command} {cfg.name}: {status}")
    for key in sorted(result):
        val = result[key]
        if isinstance(val, float):
            val = f"{val:.6g}"
        print(f"  {key} = {val}")
    print(f"artifacts: {final_dir}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
