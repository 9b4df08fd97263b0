"""Command-line driver: config parsing, run artifacts, determinism."""

import json
import os

import pytest

from gramspec import cli
from gramspec.errors import ConfigError


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
        cli.parse_config(bad, "simulate")
    msg = str(exc.value)
    assert "nonsense" in msg
    assert "n" in msg and "seeds" in msg


@pytest.mark.parametrize("key", ["workers", "budget"])
@pytest.mark.parametrize("value", [0, -2])
def test_parse_config_rejects_nonpositive_workers_and_budget(key, value):
    # 0 must not fall back to the default
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(dict(SIM_CFG, **{key: value}), "simulate")
    assert exc.value.messages == [f"'{key}' must be >= 1"]
    cfg = cli.parse_config(dict(SIM_CFG, **{key: 3}), "simulate")
    assert getattr(cfg, key) == 3


def test_parse_config_rejects_the_removed_eps_ladder():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(dict(SOLVE_CFG, eps_ladder=[0.05, 0.02]), "solve")
    assert exc.value.messages == ["unknown config key 'eps_ladder'"]


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
        path = _write(tmp_path, SIM_CFG, f"{tag}.json")
        assert cli.main(["simulate", "--config", str(path)]) == 0
    d1 = sorted((tmp_path / "one").rglob("*"))
    d2 = sorted((tmp_path / "two").rglob("*"))
    rel1 = [p.relative_to(tmp_path / "one") for p in d1 if p.is_file()]
    rel2 = [p.relative_to(tmp_path / "two") for p in d2 if p.is_file()]
    assert rel1 == rel2
    for r in rel1:
        assert (tmp_path / "one" / r).read_bytes() == \
            (tmp_path / "two" / r).read_bytes(), r


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


def test_universality_manifest_reports_inversion(tmp_path, monkeypatch):
    cfg = {
        "name": "t-univ",
        "density": {"family": "constant", "sigma2": 1.0},
        "aspect": {"n": 80, "p": 40},
        "seeds": [1],
        "laws": ["gaussian", "rademacher"],
        "grid": {"n_points": 64},
        "solver": {"tol": 1e-9, "quad_tol": 1e-7},
    }
    assert _run(tmp_path, monkeypatch, "universality", cfg) == 0
    manifest = json.loads(
        (_only_run_dir(tmp_path) / "manifest.json").read_text())
    _assert_inversion_reported(manifest["result"], 0.5)


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
