"""Command-line driver: config parsing, run artifacts, determinism."""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gramspec
from gramspec import cli, constant_density, truncation_ladder
from gramspec.errors import ConfigError, DomainError

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SOLVE_CFG = {
    "name": "t-solve",
    "density": {"family": "constant", "sigma2": 1.0},
    "aspect": {"n": 200, "p": 100},
    "z_line": {"re_min": 0.2, "re_max": 3.0, "count": 8, "im": 0.05},
    "grid": {"n_points": 48},
    "solver": {"tol": 1e-10, "quad_tol": 1e-8},
}

SIM_CFG = {
    "name": "t-sim",
    "density": {"family": "ar1", "phi": 0.5},
    "aspect": {"n": 120, "p": 60},
    "seeds": [1, 2],
    "tail_tol": 0.01,
    "grid": {"n_points": 64},
    "solver": {"tol": 1e-9, "quad_tol": 1e-7},
}


TOEPLITZ_CFG = {
    "name": "t-toeplitz",
    "density": {"family": "fractional", "d": 0.3},
    "toeplitz": {"p": 300},
}


def _child_env(**extra):
    # the environment of a child interpreter that imports this checkout
    src = os.path.dirname(os.path.dirname(os.path.abspath(gramspec.__file__)))
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def _run(tmp_path, monkeypatch, sub, cfg, *extra):
    monkeypatch.setenv("GRAMSPEC_OUTPUT_ROOT", str(tmp_path / "runs"))
    path = _write(tmp_path, cfg)
    return cli.main([sub, "--config", str(path), *extra])


def _only_run_dir(tmp_path):
    runs = sorted((tmp_path / "runs").iterdir())
    assert len(runs) == 1
    return runs[0]


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_collects_all_errors(tmp_path):
    bad = {
        "name": "x",
        "density": {"family": "nonsense"},
        "aspect": {"n": -5, "p": 100},
        "seeds": "not-a-list",
    }
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(bad)
    msg = str(exc.value)
    assert "nonsense" in msg
    assert "n" in msg and "seeds" in msg


@pytest.mark.parametrize("key", ["workers", "budget"])
@pytest.mark.parametrize("value", [0, -2])
def test_parse_config_rejects_nonpositive_workers_and_budget(key, value):
    # 0 must not fall back to the default
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(dict(SIM_CFG, **{key: value}))
    assert exc.value.messages == [f"bad '{key}': must be >= 1"]
    cfg = cli.parse_config(dict(SIM_CFG, **{key: 3}))
    assert getattr(cfg, key) == 3


@pytest.mark.parametrize("key, value", [
    ("aspect", {"n": 800.7, "p": 400}),
    ("aspect", {"n": 800, "p": True}),
    ("aspect", {"n": "800", "p": 400}),
    ("seeds", [1.9]),
    ("seeds", ["3"]),
    ("grid", {"n_points": 64.9}),
    ("z_line", dict(SOLVE_CFG["z_line"], count=5.5)),
    ("toeplitz", {"p": 10.5}),
    ("workers", 1.5),
    ("save_matrices", "no"),
], ids=["aspect.n-float", "aspect.p-bool", "aspect.n-string", "seeds-float",
        "seeds-string", "grid.n_points", "z_line.count", "toeplitz.p",
        "workers", "save_matrices"])
def test_parse_config_refuses_counts_and_flags_it_would_coerce(key, value):
    # a count is a JSON integer and a flag true or false: 800.7, true and
    # "800" are not read as 800, 1 and 800, nor "no" as true
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(dict(SOLVE_CFG, **{key: value}))
    (msg,) = exc.value.messages
    assert msg.startswith(f"bad '{key}': ")


@pytest.mark.parametrize("key, value, shown", [
    ("tail_tol", True, "true"),
    ("caps", ["1", 2], '"1"'),
    ("caps", "12", '"1"'),
    ("thresholds", {"levy": "0.08"}, '"0.08"'),
    ("z_line", dict(SOLVE_CFG["z_line"], re_max=True), "true"),
    ("z_line", dict(SOLVE_CFG["z_line"], im="0.05"), '"0.05"'),
    ("solver", {"tol": "1e-10"}, '"1e-10"'),
], ids=["tail_tol-bool", "caps-string-entry", "caps-string", "thresholds",
        "z_line.re_max", "z_line.im", "solver.tol"])
def test_parse_config_refuses_reals_it_would_coerce(key, value, shown):
    # a real is a JSON number: true is not read as 1.0, nor "0.08" as 0.08
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(dict(SOLVE_CFG, **{key: value}))
    assert exc.value.messages == [
        f"bad '{key}': expected a number, got {shown}"]


def test_missing_sections_are_named_before_any_work(tmp_path, monkeypatch,
                                                    capsys):
    # each command names every section it needs that the config lacks
    cfg = {"name": "bare", "density": {"family": "constant"}}
    assert _run(tmp_path, monkeypatch, "universality", cfg) == 2
    assert capsys.readouterr().err == "".join(
        f"config error: command 'universality' needs config section "
        f"'{key}'\n" for key in ("aspect", "seeds", "laws"))
    assert not (tmp_path / "runs").exists()


def test_a_fractional_count_from_the_command_line_exits_two(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    assert _run(tmp_path, monkeypatch, "simulate", SIM_CFG,
                "--set", "aspect.n=800.5") == 2
    assert capsys.readouterr().err == \
        "config error: bad 'aspect': expected an integer, got 800.5\n"
    assert not (tmp_path / "runs").exists()


def test_parse_config_rejects_the_removed_eps_ladder():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(dict(SOLVE_CFG, eps_ladder=[0.05, 0.02]))
    assert exc.value.messages == ["unknown config key 'eps_ladder'"]


def test_solver_max_iter_is_an_unknown_key_and_exits_two(tmp_path,
                                                        monkeypatch):
    cfg = dict(SOLVE_CFG, solver={"tol": 1e-10, "max_iter": 100})
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(cfg)
    assert exc.value.messages == [
        "bad 'solver': unknown solver keys ['max_iter']"]
    assert _run(tmp_path, monkeypatch, "solve", cfg) == 2


@pytest.mark.parametrize("section, noun", [
    ("aspect", "aspect"), ("solver", "solver"), ("grid", "grid"),
    ("z_line", "z_line"), ("thresholds", "threshold"),
    ("toeplitz", "toeplitz")])
def test_every_section_names_its_unknown_keys(section, noun):
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(dict(SOLVE_CFG, **{section: {"bogus": 1}}))
    assert exc.value.messages == [
        f"bad '{section}': unknown {noun} keys ['bogus']"]
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(dict(SOLVE_CFG, **{section: ["bogus"]}))
    assert exc.value.messages == [f"bad '{section}': must be a mapping"]


def test_unset_keys_parse_to_the_library_defaults():
    # tail_tol, the grid size and the solver tolerances each have one home
    # in the library; a config that sets none of them gets those values
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    cfg = cli.parse_config({"density": {"family": "constant"}})
    assert cfg.tail_tol == default(gramspec.filter_from_density, "tail_tol")
    assert cfg.tail_tol == default(gramspec.generate_gaussian_rows,
                                   "tail_tol")
    assert cfg.grid_points == default(gramspec.default_x_grid, "n_points")
    assert cfg.solver == gramspec.SolverSettings()


@pytest.mark.parametrize("seed", [1, 77, 4242])
def test_parse_config_accepts_the_benchmark_configs(seed, monkeypatch):
    # perfbench runs these configs; a key the parser stopped accepting
    # would make every benchmark operation exit 2
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    for make in (workloads.compare_config, workloads.simulate_config,
                 workloads.solve_config):
        cli.parse_config(make(seed))


def test_parse_config_rejects_one_cap_with_the_ladders_message():
    # the truncation ladder's own check runs at parse time
    with pytest.raises(DomainError) as lib:
        truncation_ladder(constant_density(), 0.5, [5.0])
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(dict(SOLVE_CFG, caps=[5.0]))
    assert exc.value.messages == [f"bad 'caps': {lib.value}"]
    assert "at least two" in str(lib.value)


@pytest.mark.parametrize("key, value", [
    ("tail_tol", math.nan),
    ("caps", [1.0, math.nan]),
    ("thresholds", {"levy": math.nan}),
    ("z_line", dict(SOLVE_CFG["z_line"], im=math.nan)),
    ("grid", {"x": [1.0, math.nan, 3.0]}),
])
def test_parse_config_rejects_nan(key, value):
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(dict(SOLVE_CFG, **{key: value}))
    (msg,) = exc.value.messages
    assert msg.startswith(f"bad '{key}': ")


def test_parse_config_rejects_an_infinite_cap():
    # truncate_density refuses an infinite cap, so the ladder's parse-time
    # check does too, rather than the run failing after it starts
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(dict(SOLVE_CFG, caps=[1.0, math.inf]))
    assert exc.value.messages == [
        "bad 'caps': caps must be finite, positive and strictly increasing"]


def test_nan_tail_tol_from_the_command_line_exits_two(tmp_path, monkeypatch,
                                                      capsys):
    # refused when the config is read, before any filter is built
    assert _run(tmp_path, monkeypatch, "simulate", SIM_CFG,
                "--set", "tail_tol=NaN") == 2
    assert capsys.readouterr().err == \
        "config error: bad 'tail_tol': tail_tol must be positive\n"
    assert not (tmp_path / "runs").exists()


def test_readme_documents_every_config_key():
    # the README's command-line section names each key the parser reads
    readme = (PERFBENCH.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert [key for key in cli._KEYS if f"`{key}`" not in section] == []


def test_config_hash_is_canonical():
    a = {"name": "x", "aspect": {"n": 10, "p": 5}}
    b = {"aspect": {"p": 5, "n": 10}, "name": "x"}
    assert cli.config_hash(a) == cli.config_hash(b)
    assert cli.config_hash(a) != cli.config_hash(
        {"name": "x", "aspect": {"n": 11, "p": 5}})


def test_canonical_json_stable_bytes():
    blob = cli.canonical_json({"b": 1.5, "a": [1, 2]})
    assert blob == cli.canonical_json({"a": [1, 2], "b": 1.5})
    json.loads(blob)


# ---------------------------------------------------------------------------
# full runs through main()


def test_solve_run_produces_manifest_and_artifacts(tmp_path, monkeypatch):
    rc = _run(tmp_path, monkeypatch, "solve", SOLVE_CFG)
    assert rc == 0
    run_dir = _only_run_dir(tmp_path)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["name"] == "t-solve"
    _assert_inversion_reported(manifest["result"], 0.5)
    assert manifest["command"] == "solve"
    assert manifest["pass"] is True
    assert "config_hash" in manifest and "result" in manifest
    # no wall-clock contamination in any artifact
    for key in manifest:
        assert "time" not in key.lower() and "date" not in key.lower()
    files = {p.name for p in run_dir.iterdir()}
    assert "manifest.json" in files
    assert any(p.endswith(".csv") for p in files)


def test_runs_are_byte_deterministic(tmp_path, monkeypatch):
    for tag in ("one", "two"):
        monkeypatch.setenv("GRAMSPEC_OUTPUT_ROOT", str(tmp_path / tag))
        for sub, cfg in (("simulate", SIM_CFG), ("toeplitz", TOEPLITZ_CFG)):
            path = _write(tmp_path, cfg, f"{tag}-{sub}.json")
            assert cli.main([sub, "--config", str(path)]) == 0
    d1 = sorted((tmp_path / "one").rglob("*"))
    d2 = sorted((tmp_path / "two").rglob("*"))
    rel1 = [p.relative_to(tmp_path / "one") for p in d1 if p.is_file()]
    rel2 = [p.relative_to(tmp_path / "two") for p in d2 if p.is_file()]
    assert rel1 == rel2
    for r in rel1:
        assert (tmp_path / "one" / r).read_bytes() == \
            (tmp_path / "two" / r).read_bytes(), r


@pytest.mark.parametrize("density", [{"family": "fractional", "d": 0.3},
                                     {"family": "ar1", "phi": 0.6}])
def test_toeplitz_run_reports_the_exact_kolmogorov_distance(
        tmp_path, monkeypatch, density):
    # the Szego limit puts the ESD about 1/p from H in sup norm
    cfg = dict(TOEPLITZ_CFG, density=density)
    assert _run(tmp_path, monkeypatch, "toeplitz", cfg) == 0
    result = json.loads(
        (_only_run_dir(tmp_path) / "manifest.json").read_text())["result"]
    assert 0.0 < result["kolmogorov"] <= 2.0 / 300
    # H is continuous, so the exact Levy distance is at most this
    assert 0.0 < result["levy"] <= result["kolmogorov"]


def test_set_overrides_config_values(tmp_path, monkeypatch):
    rc = _run(tmp_path, monkeypatch, "solve", SOLVE_CFG,
              "--set", "z_line.count=5", "--set", "name=overridden")
    assert rc == 0
    run_dir = _only_run_dir(tmp_path)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["name"] == "overridden"
    assert manifest["config"]["z_line"]["count"] == 5


def test_existing_run_dir_requires_force(tmp_path, monkeypatch):
    assert _run(tmp_path, monkeypatch, "solve", SOLVE_CFG) == 0
    path = tmp_path / "cfg.json"
    rc2 = cli.main(["solve", "--config", str(path)])
    assert rc2 == 2  # refuses to clobber without --force
    rc3 = cli.main(["solve", "--config", str(path), "--force"])
    assert rc3 == 0


def test_gate_failure_exits_one(tmp_path, monkeypatch):
    cfg = {
        "name": "t-gate",
        "density": {"family": "constant", "sigma2": 1.0},
        "aspect": {"n": 120, "p": 60},
        "seeds": [1, 2],
        "grid": {"n_points": 64},
        "solver": {"tol": 1e-9, "quad_tol": 1e-7},
        "thresholds": {"levy": 1e-9},  # unattainable gate
    }
    rc = _run(tmp_path, monkeypatch, "compare", cfg)
    assert rc == 1
    run_dir = _only_run_dir(tmp_path)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["pass"] is False
    assert manifest["result"]["pooled_levy"] > 1e-9
    _assert_inversion_reported(manifest["result"], 0.5)


def test_compare_above_aspect_one_has_an_exact_atom_at_zero(tmp_path,
                                                           monkeypatch):
    # at c = 2 half of each spectrum is the atom at 0: taken at order N,
    # its p - N zeros are exact, and the ESD stays within the Kolmogorov
    # fluctuation of the limit
    cfg = {
        "name": "t-tall",
        "density": {"family": "constant", "sigma2": 1.0},
        "aspect": {"n": 200, "p": 400},
        "seeds": [1, 2],
        "grid": {"n_points": 64},
        "solver": {"tol": 1e-9, "quad_tol": 1e-7},
    }
    assert _run(tmp_path, monkeypatch, "compare", cfg) == 0
    run_dir = _only_run_dir(tmp_path)
    for seed in (1, 2):
        rows = (run_dir / f"esd_seed{seed}.csv").read_text().splitlines()[1:]
        eigs = [float(r.split(",")[1]) for r in rows]
        assert len(eigs) == 400
        assert eigs[:200] == [0.0] * 200 and min(eigs[200:]) > 0.0
    distances = (run_dir / "distances.csv").read_text().splitlines()[1:]
    for row in distances:
        _, levy, kolmogorov = row.split(",")
        assert float(kolmogorov) <= 0.02 and float(levy) <= 0.02


UNIV_CFG = {
    "name": "t-univ",
    "density": {"family": "constant", "sigma2": 1.0},
    "aspect": {"n": 80, "p": 40},
    "seeds": [1],
    "laws": ["gaussian", "rademacher"],
    "grid": {"n_points": 64},
    "solver": {"tol": 1e-9, "quad_tol": 1e-7},
}


def test_universality_manifest_reports_inversion(tmp_path, monkeypatch):
    assert _run(tmp_path, monkeypatch, "universality", UNIV_CFG) == 0
    manifest = json.loads(
        (_only_run_dir(tmp_path) / "manifest.json").read_text())
    _assert_inversion_reported(manifest["result"], 0.5)


@pytest.mark.parametrize("extra, message", [
    ({"load_matrices": "cache"}, "'load_matrices' is not read"),
    ({"save_matrices": True}, "'save_matrices' is not read"),
])
def test_universality_rejects_row_sources_it_does_not_read(
        tmp_path, monkeypatch, capsys, extra, message):
    # every law drives the filter on fresh rows; a key that would load
    # or cache the matrices is refused before any work
    assert _run(tmp_path, monkeypatch, "universality",
                dict(UNIV_CFG, **extra)) == 2
    assert capsys.readouterr().err == \
        f"config error: command 'universality': {message}\n"
    assert list((tmp_path / "runs").iterdir()) == []


def test_workers_write_the_same_files_as_one_worker(tmp_path, monkeypatch):
    # three seeds on three pool workers give the bytes of a serial run;
    # only the manifest, which records the config, differs
    dirs = []
    for workers in (1, 3):
        root = tmp_path / f"workers{workers}"
        monkeypatch.setenv("GRAMSPEC_OUTPUT_ROOT", str(root))
        cfg = dict(SIM_CFG, seeds=[1, 2, 3], save_matrices=True,
                   workers=workers)
        path = _write(tmp_path, cfg, f"workers{workers}.json")
        assert cli.main(["simulate", "--config", str(path)]) == 0
        (run_dir,) = root.iterdir()
        dirs.append(run_dir)
    files = [sorted(p.relative_to(d) for p in d.rglob("*") if p.is_file())
             for d in dirs]
    assert files[0] == files[1]
    assert len(list((dirs[0] / "matrices").iterdir())) == 3
    for rel in files[0]:
        if rel.name != "manifest.json":
            assert (dirs[0] / rel).read_bytes() == \
                (dirs[1] / rel).read_bytes(), rel
    one, three = (json.loads((d / "manifest.json").read_text())
                  for d in dirs)
    assert one["artifacts"] == three["artifacts"]


def _assert_inversion_reported(result, c):
    # every command that inverts the limit reports the inversion's numbers
    lo, hi = (1 - c**0.5) ** 2, (1 + c**0.5) ** 2
    assert result["atom0"] == 0.0
    assert abs(result["total_mass"] - 1.0) < 5e-3
    assert 0.0 < result["inversion_max_residual"] <= 1e-9
    assert any(abs(e - lo) < 0.1 for e in result["edges"])
    assert any(abs(e - hi) < 0.1 for e in result["edges"])


def test_config_errors_exit_two(tmp_path, monkeypatch):
    cfg = dict(SOLVE_CFG, density={"family": "bogus"})
    assert _run(tmp_path, monkeypatch, "solve", cfg) == 2
    missing = tmp_path / "absent.json"
    assert cli.main(["solve", "--config", str(missing)]) == 2
    notjson = tmp_path / "bad.json"
    notjson.write_text("{not json")
    assert cli.main(["solve", "--config", str(notjson)]) == 2


@pytest.mark.parametrize("path", ["nofile.txt", "tables"],
                         ids=["missing", "directory"])
def test_an_unreadable_tabulated_path_exits_two_naming_it(
        tmp_path, monkeypatch, capsys, path):
    (tmp_path / "tables").mkdir()
    cfg = dict(SOLVE_CFG, density={"family": "tabulated", "path": path})
    assert _run(tmp_path, monkeypatch, "solve", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad 'density': ")
    assert str(tmp_path / path) in err
    assert not (tmp_path / "runs").exists()


def test_parse_config_refuses_seeds_from_two_to_the_64():
    # rows are keyed by the seed mod 2**64, so seed 2**64 would draw seed
    # 0's numbers under another name
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(dict(SIM_CFG, seeds=[0, 2**64]))
    assert exc.value.messages == ["bad 'seeds': seeds must be below 2**64"]
    assert cli.parse_config(dict(SIM_CFG, seeds=[0, 2**64 - 1])).seeds == \
        (0, 2**64 - 1)


@pytest.mark.parametrize("key, value", [
    ("grid", {"n_points": 10**11}),
    ("z_line", dict(SOLVE_CFG["z_line"], count=10**11))])
def test_point_counts_past_the_bound_exit_two_before_any_work(
        tmp_path, monkeypatch, capsys, key, value):
    # 10**11 points would ask numpy for hundreds of GiB
    assert _run(tmp_path, monkeypatch, "solve",
                dict(SOLVE_CFG, **{key: value})) == 2
    assert capsys.readouterr().err == (
        f"config error: bad '{key}': at most 1000000 points, "
        f"got 100000000000\n")
    assert not (tmp_path / "runs").exists()
    assert cli.parse_config(dict(SOLVE_CFG, grid={"n_points": 10**6}))


def test_save_and_load_matrices_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("GRAMSPEC_OUTPUT_ROOT", str(tmp_path / "runs"))
    cfg = dict(SIM_CFG, save_matrices=True)
    path = _write(tmp_path, cfg, "save.json")
    assert cli.main(["simulate", "--config", str(path)]) == 0
    first = _only_run_dir(tmp_path)
    saved = sorted((first / "matrices").glob("seed*.bin"))
    assert [p.name for p in saved] == ["seed1.bin", "seed2.bin"]
    result_one = json.loads((first / "manifest.json").read_text())["result"]

    cfg2 = dict(SIM_CFG, name="t-sim-replay",
                load_matrices=str(first / "matrices"))
    path2 = _write(tmp_path, cfg2, "load.json")
    assert cli.main(["simulate", "--config", str(path2)]) == 0
    runs = sorted((tmp_path / "runs").iterdir())
    assert len(runs) == 2
    second = [r for r in runs if r != first][0]
    result_two = json.loads((second / "manifest.json").read_text())["result"]
    assert result_one["min_eig"] == result_two["min_eig"]
    assert result_one["max_eig"] == result_two["max_eig"]
    for seed in (1, 2):
        assert (first / f"esd_seed{seed}.csv").read_bytes() == \
            (second / f"esd_seed{seed}.csv").read_bytes()


_ROUTED_SIM_CFG = {
    "name": "t-routed",
    "density": {"family": "fractional", "d": 0.3},
    "tail_tol": 0.01,
    "aspect": {"n": 120, "p": 60},
    "seeds": [1, 2],
    "save_matrices": True,
}

_THREADS_SCRIPT = """
import hashlib, sys
import gramspec
from gramspec import cli
assert cli.main(["simulate", "--config", sys.argv[1],
                 "--output-root", sys.argv[2]]) == 0
dm = gramspec.generate_toeplitz_gaussian_rows(
    gramspec.fractional_density(0.3), 600, 300, seed=4)
print(hashlib.sha256(dm.values.tobytes()).hexdigest())
"""


def test_rows_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Gaussian rows are FFT products only: a routed simulate saves the same
    # matrices, and toeplitz-gaussian rows have the same bytes, under one
    # and two BLAS threads (600 x 300 rows through a p x p product, as
    # they once were, differed)
    cfg = _write(tmp_path, _ROUTED_SIM_CFG)
    digests, matrices = [], []
    for threads in ("1", "2"):
        root = tmp_path / f"threads{threads}"
        done = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT, str(cfg), str(root)],
            env=_child_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, check=True)
        digests.append(done.stdout.splitlines()[-1])
        (run_dir,) = root.iterdir()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["result"]["rows"] == {"route": "circulant",
                                              "fft_length": 120}
        matrices.append({p.name: p.read_bytes()
                         for p in (run_dir / "matrices").glob("seed*.bin")})
    assert digests[0] == digests[1]
    assert sorted(matrices[0]) == ["seed1.bin", "seed2.bin"]
    assert matrices[0] == matrices[1]


_VANISHING_TABLE = "0.0 1.0\n1.0 1.0\n1.5 0.0\n3.141592653589793 0.0\n"


@pytest.mark.parametrize("density, route, length", [
    ({"family": "fractional", "d": 0.3}, "circulant", 100),
    # this table's embedding is indefinite, so its rows keep the filter
    ({"family": "tabulated", "path": "table.txt"}, "filter", 180),
], ids=["fractional", "vanishing-table"])
def test_compare_records_the_row_route(tmp_path, monkeypatch, density,
                                       route, length):
    # Gaussian rows take the circulant embedding of order 100 at p = 50
    # when it is nonnegative; the filter route records its K and tail
    (tmp_path / "table.txt").write_text(_VANISHING_TABLE)
    cfg = dict(SIM_CFG, name="t-route", density=density,
               aspect={"n": 100, "p": 50})
    assert _run(tmp_path, monkeypatch, "compare", cfg) == 0
    rows = json.loads((_only_run_dir(tmp_path) / "manifest.json")
                      .read_text())["result"]["rows"]
    expect = {"route": route, "fft_length": length}
    if route == "filter":
        f = cli.parse_config(cfg, base_dir=str(tmp_path)).density
        filt = gramspec.filter_from_density(f, tail_tol=cfg["tail_tol"])
        expect.update(filter_half_length=filt.offset,
                      filter_tail_bound=filt.tail_bound)
    assert rows == expect


_MASKED_SCRIPT = """
import sys
from gramspec import cli
for sub, path in zip(("compare", "solve"), sys.argv[1:3]):
    assert cli.main([sub, "--config", path, "--output-root", sys.argv[3]]) == 0
print(sorted(m for m in sys.modules
             if m in ("numpy.ma", "fractions") or m.startswith("numpy.ma.")))
"""


def test_compare_and_solve_never_import_numpy_ma(tmp_path):
    # numpy's quantile and unique import numpy.ma (about 12 ms) on first
    # use; a compare on a singular density (its quadrature splits cells at
    # the singularity) and a solve with a default grid must not pay it,
    # nor the 2.4 ms of fractions for an aspect ratio that p / n rounds
    # exactly as Fraction(p, n) does
    compare = _write(tmp_path, dict(SIM_CFG, name="t-ma",
                                    density={"family": "fractional",
                                             "d": 0.3}), "compare.json")
    solve = _write(tmp_path, SOLVE_CFG, "solve.json")
    done = subprocess.run(
        [sys.executable, "-c", _MASKED_SCRIPT, str(compare), str(solve),
         str(tmp_path / "runs")],
        env=_child_env(), capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_benchmark_traced_mode_wraps_a_solve(tmp_path):
    # perfbench/child.py --trace wraps the entry points its SPANS name and
    # reads fields off their results; a library change that drops one
    # breaks only the benchmark's traced runs, so run one here
    cfg = _write(tmp_path, SOLVE_CFG)
    trace = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--trace", str(trace),
         "cli", "solve", "--config", str(cfg),
         "--output-root", str(tmp_path / "runs")],
        env=_child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    traced = json.loads(trace.read_text())
    assert traced["counts"]["kernels.fixed_point_iterations"] > 0
    assert "limit.invert_to_distribution" in traced["self_s"]
