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
import os
import shutil
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels, _svg
from .ensemble import (DataMatrix, InnovationLaw, gaussian_law,
                       generate_linear_rows, generate_toeplitz_gaussian_rows,
                       law_from_spec, read_datamatrix, toeplitz_matrix,
                       write_datamatrix, DEFAULT_BUDGET)
from .errors import ConfigError, GramspecError
from .limit import (LimitDistribution, SolverSettings, default_x_grid,
                    invert_to_distribution, solve_limit_density,
                    truncation_ladder)
from .matrixops import Esd, gram, symmetric_eigenvalues
from .metrics import StepCdf, kolmogorov_distance, levy_distance
from .spectral import (SpectralDensity, density_from_spec,
                       filter_from_density, h_pushforward, probe_values)

_COMMANDS = ("solve", "simulate", "compare", "toeplitz", "universality",
             "truncation")

_ALLOWED_KEYS = {
    "name", "density", "aspect", "seeds", "law", "laws", "tail_tol",
    "ensemble", "solver", "grid", "z_line", "thresholds",
    "caps", "workers", "budget", "toeplitz", "save_matrices",
    "load_matrices",
}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Fully validated run recipe plus the canonical raw mapping it came from."""

    raw: dict
    name: str
    density: SpectralDensity | None
    n_rows: int | None
    n_cols: int | None
    seeds: tuple[int, ...]
    law: InnovationLaw
    laws: tuple[InnovationLaw, ...]
    law_names: tuple[str, ...]
    tail_tol: float
    ensemble_kind: str
    solver: SolverSettings
    grid_points: int
    x_grid: np.ndarray | None
    z_line: dict | None
    thresholds: dict
    caps: tuple[float, ...]
    workers: int
    budget: int
    toeplitz_order: int | None
    save_matrices: bool
    load_matrices: str | None

    @property
    def aspect_ratio(self) -> Fraction:
        if self.n_rows is None or self.n_cols is None:
            raise ConfigError(["this command needs an 'aspect' section"])
        return Fraction(self.n_cols, self.n_rows)


def canonical_json(raw: dict) -> str:
    return json.dumps(raw, sort_keys=True, separators=(",", ":"))


def config_hash(raw: dict) -> str:
    return hashlib.sha256(canonical_json(raw).encode("utf-8")).hexdigest()


def parse_config(raw: dict, base_dir=None) -> ExperimentConfig:
    """Validate the whole mapping at once; every violation found is reported
    together in one ConfigError rather than stopping at the first."""
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    for key in sorted(set(raw) - _ALLOWED_KEYS):
        errors.append(f"unknown config key {key!r}")

    def grab(fn, msg):
        try:
            return fn()
        except (GramspecError, KeyError, TypeError, ValueError) as exc:
            errors.append(f"{msg}: {exc}")
            return None

    name = raw.get("name", "run")
    if not isinstance(name, str) or not name or any(
            ch in name for ch in "/\\ \t\n"):
        errors.append("'name' must be a nonempty string without slashes or spaces")
        name = "run"

    density = None
    if "density" in raw:
        density = grab(lambda: density_from_spec(raw["density"], base_dir),
                       "bad 'density'")

    n_rows = n_cols = None
    if "aspect" in raw:
        def _aspect():
            a = raw["aspect"]
            n, p = int(a["n"]), int(a["p"])
            if n < 1 or p < 1:
                raise ValueError("n and p must be >= 1")
            return n, p
        got = grab(_aspect, "bad 'aspect'")
        if got:
            n_rows, n_cols = got

    def _seeds():
        out = tuple(int(s) for s in raw.get("seeds", ()))
        if len(set(out)) != len(out):
            raise ValueError("seeds must be distinct")
        if any(s < 0 for s in out):
            raise ValueError("seeds must be nonnegative")
        return out
    seeds = grab(_seeds, "bad 'seeds'") or ()

    law = grab(lambda: law_from_spec(raw["law"]), "bad 'law'") \
        if "law" in raw else gaussian_law()
    law = law or gaussian_law()

    laws: tuple[InnovationLaw, ...] = ()
    law_names: tuple[str, ...] = ()
    if "laws" in raw:
        def _laws():
            specs = raw["laws"]
            if not isinstance(specs, list) or len(specs) < 2:
                raise ValueError("'laws' needs a list of at least two entries")
            built = tuple(law_from_spec(s) if isinstance(s, dict)
                          else law_from_spec({"law": s}) for s in specs)
            return built, tuple(lw.describe() for lw in built)
        got = grab(_laws, "bad 'laws'")
        if got:
            laws, law_names = got

    tail_tol = grab(lambda: float(raw.get("tail_tol", 1e-6)), "bad 'tail_tol'")
    if tail_tol is not None and tail_tol <= 0:
        errors.append("'tail_tol' must be positive")
        tail_tol = 1e-6
    tail_tol = tail_tol or 1e-6

    ensemble_kind = raw.get("ensemble", "filter")
    if ensemble_kind not in ("filter", "toeplitz-gaussian"):
        errors.append("'ensemble' must be 'filter' or 'toeplitz-gaussian'")
        ensemble_kind = "filter"

    def _solver():
        s = raw.get("solver", {})
        extra = set(s) - {"tol", "max_iter", "quad_tol"}
        if extra:
            raise ValueError(f"unknown solver keys {sorted(extra)}")
        return SolverSettings(tol=float(s.get("tol", 1e-12)),
                              max_iter=int(s.get("max_iter", 10_000)),
                              quad_tol=float(s.get("quad_tol", 1e-10)))
    solver = grab(_solver, "bad 'solver'") or SolverSettings()

    grid_points = 480
    x_grid = None
    if "grid" in raw:
        def _grid():
            g = raw["grid"]
            extra = set(g) - {"n_points", "x"}
            if extra:
                raise ValueError(f"unknown grid keys {sorted(extra)}")
            pts = int(g.get("n_points", 480))
            if pts < 16:
                raise ValueError("n_points must be >= 16")
            xg = None
            if "x" in g:
                xg = np.asarray([float(v) for v in g["x"]])
                if xg.size < 2 or np.any(np.diff(xg) <= 0) or xg[0] <= 0:
                    raise ValueError("grid.x must be positive and increasing")
            return pts, xg
        got = grab(_grid, "bad 'grid'")
        if got:
            grid_points, x_grid = got

    z_line = None
    if "z_line" in raw:
        def _zline():
            zl = raw["z_line"]
            extra = set(zl) - {"re_min", "re_max", "count", "im"}
            if extra:
                raise ValueError(f"unknown z_line keys {sorted(extra)}")
            out = {"re_min": float(zl["re_min"]),
                   "re_max": float(zl["re_max"]),
                   "count": int(zl.get("count", 40)),
                   "im": float(zl.get("im", 0.05))}
            if out["re_max"] <= out["re_min"] or out["count"] < 2:
                raise ValueError("need re_max > re_min and count >= 2")
            if out["im"] <= 0:
                raise ValueError("im must be positive")
            return out
        z_line = grab(_zline, "bad 'z_line'")

    def _thresholds():
        th = raw.get("thresholds", {})
        extra = set(th) - {"levy", "kolmogorov", "cross_levy", "gap_ratio"}
        if extra:
            raise ValueError(f"unknown threshold keys {sorted(extra)}")
        out = {k: float(v) for k, v in th.items()}
        if any(v <= 0 for v in out.values()):
            raise ValueError("thresholds must be positive")
        return out
    thresholds = grab(_thresholds, "bad 'thresholds'") or {}

    def _caps():
        cp = tuple(float(b) for b in raw.get("caps", ()))
        if cp and (any(b <= 0 for b in cp) or
                   any(b2 <= b1 for b1, b2 in zip(cp, cp[1:]))):
            raise ValueError("caps must be positive and strictly increasing")
        return cp
    caps = grab(_caps, "bad 'caps'") or ()

    workers = grab(lambda: int(raw.get("workers", 1)), "bad 'workers'")
    if workers is not None and workers < 1:
        errors.append("'workers' must be >= 1")

    budget = grab(lambda: int(raw.get("budget", DEFAULT_BUDGET)),
                  "bad 'budget'")
    if budget is not None and budget < 1:
        errors.append("'budget' must be >= 1")

    toeplitz_order = None
    if "toeplitz" in raw:
        def _toe():
            t = raw["toeplitz"]
            extra = set(t) - {"p"}
            if extra:
                raise ValueError(f"unknown toeplitz keys {sorted(extra)}")
            p = int(t["p"])
            if p < 2:
                raise ValueError("toeplitz.p must be >= 2")
            return p
        toeplitz_order = grab(_toe, "bad 'toeplitz'")

    save_matrices = bool(raw.get("save_matrices", False))
    load_matrices = raw.get("load_matrices")
    if load_matrices is not None and not isinstance(load_matrices, str):
        errors.append("'load_matrices' must be a directory path string")
        load_matrices = None
    if load_matrices is not None and base_dir is not None and \
            not os.path.isabs(load_matrices):
        load_matrices = os.path.join(base_dir, load_matrices)

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        raw=raw, name=name, density=density, n_rows=n_rows, n_cols=n_cols,
        seeds=seeds, law=law, laws=laws, law_names=law_names,
        tail_tol=tail_tol, ensemble_kind=ensemble_kind, solver=solver,
        grid_points=grid_points, x_grid=x_grid,
        z_line=z_line, thresholds=thresholds, caps=caps, workers=workers,
        budget=budget, toeplitz_order=toeplitz_order,
        save_matrices=save_matrices, load_matrices=load_matrices)


def _require(cfg: ExperimentConfig, command: str, *fields) -> None:
    missing = []
    for fld in fields:
        if fld == "density" and cfg.density is None:
            missing.append("'density'")
        elif fld == "aspect" and (cfg.n_rows is None or cfg.n_cols is None):
            missing.append("'aspect'")
        elif fld == "seeds" and not cfg.seeds:
            missing.append("'seeds'")
        elif fld == "laws" and not cfg.laws:
            missing.append("'laws'")
        elif fld == "caps" and not cfg.caps:
            missing.append("'caps'")
        elif fld == "toeplitz" and cfg.toeplitz_order is None:
            missing.append("'toeplitz'")
    if missing:
        raise ConfigError(
            [f"command '{command}' needs config section {m}" for m in missing])


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


def _limit_csv(stage: str, limit: LimitDistribution) -> None:
    _write_csv(os.path.join(stage, "limit.csv"),
               ["x", "density", "cdf"],
               zip(limit.x_grid.tolist(), limit.density.tolist(),
                   limit.cdf.tolist()))


def _pmap(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _seed_matrix(cfg: ExperimentConfig, seed: int, stream: int = 0,
                 law: InnovationLaw | None = None,
                 filt=None) -> DataMatrix:
    if cfg.load_matrices is not None:
        path = os.path.join(cfg.load_matrices, f"seed{seed}.bin")
        dm = read_datamatrix(path)
        if dm.n_rows != cfg.n_rows or dm.n_cols != cfg.n_cols:
            raise ConfigError(
                [f"cached matrix {path} has shape {dm.n_rows}x{dm.n_cols}, "
                 f"config wants {cfg.n_rows}x{cfg.n_cols}"])
        return dm
    if cfg.ensemble_kind == "toeplitz-gaussian":
        return generate_toeplitz_gaussian_rows(
            cfg.density, cfg.n_rows, cfg.n_cols, seed, stream=stream,
            budget=cfg.budget)
    return generate_linear_rows(filt, law or cfg.law, cfg.n_rows, cfg.n_cols,
                                seed, stream=stream, budget=cfg.budget)


def _ensemble_filter(cfg: ExperimentConfig):
    if cfg.ensemble_kind == "toeplitz-gaussian" or cfg.load_matrices:
        return None
    return filter_from_density(cfg.density, tail_tol=cfg.tail_tol)


def _grid_for(cfg: ExperimentConfig, f: SpectralDensity, c: float):
    return cfg.x_grid if cfg.x_grid is not None \
        else default_x_grid(f, c, cfg.grid_points)


def _h_window(f: SpectralDensity) -> np.ndarray:
    v = probe_values(f)
    top = float(np.quantile(v, 1.0 - 1e-4)) * 1.5 + 1e-12
    return np.linspace(0.0, top, 1200)


# ---------------------------------------------------------------------------
# Subcommand bodies.  Each returns (result_dict, passed).

def _cmd_solve(cfg: ExperimentConfig, stage: str):
    _require(cfg, "solve", "density", "aspect")
    if cfg.z_line is None and "grid" not in cfg.raw:
        raise ConfigError(["command 'solve' needs 'z_line' and/or 'grid'"])
    c = float(cfg.aspect_ratio)
    f = cfg.density
    result = {"aspect_ratio": [cfg.aspect_ratio.numerator,
                               cfg.aspect_ratio.denominator]}
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
        limit = invert_to_distribution(f, c, _grid_for(cfg, f, c), cfg.solver)
        _limit_csv(stage, limit)
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


def _simulate_esds(cfg: ExperimentConfig, stage: str, want_save: bool):
    filt = _ensemble_filter(cfg)

    def job(seed: int) -> Esd:
        dm = _seed_matrix(cfg, seed, filt=filt)
        if want_save:
            write_datamatrix(dm, os.path.join(stage, "matrices",
                                              f"seed{seed}.bin"))
        return symmetric_eigenvalues(gram(dm.values))

    if want_save:
        os.makedirs(os.path.join(stage, "matrices"), exist_ok=True)
    esds = _pmap(job, list(cfg.seeds), cfg.workers)
    for seed, esd in zip(cfg.seeds, esds):
        _write_csv(os.path.join(stage, f"esd_seed{seed}.csv"),
                   ["index", "lambda"],
                   list(enumerate(esd.eigs.tolist())))
    pooled = Esd(np.concatenate([e.eigs for e in esds]))
    _write_csv(os.path.join(stage, "esd_pooled.csv"), ["index", "lambda"],
               list(enumerate(pooled.eigs.tolist())))
    return esds, pooled


def _cmd_simulate(cfg: ExperimentConfig, stage: str):
    _require(cfg, "simulate", "density", "aspect", "seeds")
    esds, pooled = _simulate_esds(cfg, stage, cfg.save_matrices)
    result = {
        "seeds": list(cfg.seeds),
        "eigs_per_seed": cfg.n_cols,
        "min_eig": float(pooled.eigs[0]),
        "max_eig": float(pooled.eigs[-1]),
    }
    return result, True


def _cmd_compare(cfg: ExperimentConfig, stage: str):
    _require(cfg, "compare", "density", "aspect", "seeds")
    c = float(cfg.aspect_ratio)
    limit = invert_to_distribution(
        cfg.density, c, _grid_for(cfg, cfg.density, c), cfg.solver)
    _limit_csv(stage, limit)
    limit_cdf = StepCdf.from_limit(limit)
    esds, pooled = _simulate_esds(cfg, stage, cfg.save_matrices)
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
    gate = cfg.thresholds.get("levy")
    passed = True if gate is None else pooled_levy <= gate
    result = {
        "pooled_levy": pooled_levy,
        "max_seed_levy": max(per_seed),
        "levy_threshold": gate,
        "pass": passed,
        **_limit_summary(limit),
    }
    return result, passed


def _cmd_toeplitz(cfg: ExperimentConfig, stage: str):
    _require(cfg, "toeplitz", "density", "toeplitz")
    p = cfg.toeplitz_order
    esd = symmetric_eigenvalues(toeplitz_matrix(cfg.density, p))
    grid = _h_window(cfg.density)
    hv = np.maximum.accumulate(h_pushforward(cfg.density, grid))
    _write_csv(os.path.join(stage, "toeplitz_esd.csv"), ["index", "lambda"],
               list(enumerate(esd.eigs.tolist())))
    _write_csv(os.path.join(stage, "pushforward_cdf.csv"), ["x", "H"],
               zip(grid.tolist(), hv.tolist()))
    fs = StepCdf.from_esd(esd)
    fh = StepCdf.from_grid(grid, np.minimum(hv, 1.0))
    ko = kolmogorov_distance(fs, fh)
    lv = levy_distance(fs, fh)
    _svg.write_overlay(
        os.path.join(stage, "toeplitz_overlay.svg"),
        [{"xs": grid, "ys": hv, "label": "transformed-density law"},
         {"xs": esd.eigs, "ys": np.arange(1, p + 1) / p,
          "label": f"covariance spectrum (p={p})", "kind": "step"}],
        title="Covariance spectrum vs transformed-density law",
        x_label="x", y_label="F(x)")
    gate = cfg.thresholds.get("kolmogorov")
    passed = True if gate is None else ko <= gate
    result = {"order": p, "kolmogorov": ko, "levy": lv,
              "kolmogorov_threshold": gate, "pass": passed}
    return result, passed


def _cmd_universality(cfg: ExperimentConfig, stage: str):
    _require(cfg, "universality", "density", "aspect", "seeds", "laws")
    c = float(cfg.aspect_ratio)
    limit = invert_to_distribution(
        cfg.density, c, _grid_for(cfg, cfg.density, c), cfg.solver)
    _limit_csv(stage, limit)
    limit_cdf = StepCdf.from_limit(limit)
    filt = filter_from_density(cfg.density, tail_tol=cfg.tail_tol)

    def job(args):
        idx, law, seed = args
        dm = generate_linear_rows(filt, law, cfg.n_rows, cfg.n_cols, seed,
                                  stream=idx, budget=cfg.budget)
        return symmetric_eigenvalues(gram(dm.values))

    jobs = [(i, law, seed) for i, law in enumerate(cfg.laws)
            for seed in cfg.seeds]
    esds = _pmap(job, jobs, cfg.workers)
    pooled = {}
    for (i, _, _), esd in zip(jobs, esds):
        pooled.setdefault(i, []).append(esd.eigs)
    pooled_cdfs = {}
    rows = []
    worst_levy = 0.0
    for i, name in enumerate(cfg.law_names):
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
            cross_rows.append((cfg.law_names[i], cfg.law_names[j], lv))
    _write_csv(os.path.join(stage, "cross_distances.csv"),
               ["law_a", "law_b", "levy"], cross_rows)
    curves = [{"xs": limit.x_grid, "ys": limit.cdf, "label": "limit"}]
    for i, name in enumerate(cfg.law_names):
        e = pooled_cdfs[i]
        curves.append({"xs": e.xs, "ys": e.right, "label": name,
                       "kind": "step"})
    _svg.write_overlay(os.path.join(stage, "universality.svg"), curves,
                       title="One limit, several innovation laws",
                       x_label="x", y_label="F(x)")
    gate_l = cfg.thresholds.get("levy")
    gate_x = cfg.thresholds.get("cross_levy")
    passed = ((gate_l is None or worst_levy <= gate_l)
              and (gate_x is None or worst_cross <= gate_x))
    result = {
        "laws": list(cfg.law_names),
        "max_levy_to_limit": worst_levy,
        "max_cross_levy": worst_cross,
        "levy_threshold": gate_l,
        "cross_levy_threshold": gate_x,
        "pass": passed,
        **_limit_summary(limit),
    }
    return result, passed


def _cmd_truncation(cfg: ExperimentConfig, stage: str):
    _require(cfg, "truncation", "density", "aspect", "caps")
    c = float(cfg.aspect_ratio)
    ladder = truncation_ladder(cfg.density, c, cfg.caps, cfg.solver,
                               n_points=cfg.grid_points)
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
    gate = cfg.thresholds.get("gap_ratio")
    passed = True if gate is None or not ratios else max(ratios) <= gate
    result = {
        "caps": list(ladder.caps),
        "masses": list(ladder.masses),
        "gaps": list(ladder.gaps),
        "gap_ratios": ratios,
        "gap_ratio_threshold": gate,
        "pass": passed,
    }
    return result, passed


_BODIES = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "toeplitz": _cmd_toeplitz,
    "universality": _cmd_universality,
    "truncation": _cmd_truncation,
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
        "result": _plain(result),
        "pass": bool(passed),
    }
    with open(os.path.join(stage, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(command: str, cfg: ExperimentConfig, output_root: str,
                   force: bool = False) -> tuple[str, dict, bool]:
    """Execute one subcommand into an atomically committed run directory."""
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
        result, passed = _BODIES[command](cfg, stage)
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
    for name in _COMMANDS:
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
