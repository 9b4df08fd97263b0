"""Benchmark gramspec end to end, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gramspec checkout; the package is imported from
./src.  Every operation is a fresh child interpreter and they run one at a
time: the CLI workloads start `python -m gramspec COMMAND`, trace_suites
starts perfbench/child.py.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 times operations until their summed wall time reaches
--seconds (at least one), and reports
  wall_s        median wall time of one operation, checks excluded;
  setup_s       median time of SETUP_STARTS fresh interpreters that
                `import gramspec` and call `gramspec.warm_up()`;
  peak_rss_mib  largest peak resident memory of an operation's process.
--trace 1 runs one untraced and one traced operation, and reports the
per-layer self times and counts of the traced one (see child.py) plus the
tracing overhead, traced minus untraced wall time.

Each workload's outputs are checked against oracles.py (see workloads.py);
the first operation's output is checked in full, together with corrupted
copies that the checks must reject, and every later operation must write
the same bytes.  README.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import workloads as wl

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".perfbench")
SETUP_STARTS = 9
RUN_LIMIT_S = 170.0

CLI_WORKLOADS = {
    "compare_longmem": ("compare", wl.compare_config, wl.check_compare),
    "simulate_iid": ("simulate", wl.simulate_config, wl.check_simulate),
    "solve_hardedge": ("solve", wl.solve_config, wl.check_solve),
}
WORKLOADS = (*CLI_WORKLOADS, "trace_suites")


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for "end_to_end" or "per_layer", as listed in
    BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class Run:
    """Child processes, scratch files and check results of one run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.env.pop("GRAMSPEC_OUTPUT_ROOT", None)
        ncpu = str(len(os.sched_getaffinity(0)))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = ncpu
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.reference = None   # digest of the first good output
        self.extras: dict = {}  # figures the first check computed

    def spawn(self, argv: list[str], log: str) -> tuple[int, float, float]:
        """Run one child to its end; returns (exit code, wall s, peak MiB).
        A child still running at the run's deadline is killed."""
        limit = self.deadline - time.monotonic()
        if limit <= 0:
            return -1, 0.0, 0.0
        with open(os.path.join(self.work, log), "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def setup_seconds(self) -> float:
        argv = [sys.executable, "-c",
                "import gramspec; gramspec.warm_up(); "
                "print('backend', gramspec.backend_name())"]
        times = []
        for i in range(SETUP_STARTS + 1):  # the first start fills .pyc files
            rc, wall, _ = self.spawn(argv, "setup.log")
            if rc != 0:
                raise SystemExit("fresh `import gramspec` failed; see "
                                 + os.path.join(self.work, "setup.log"))
            if i:
                times.append(wall)
        with open(os.path.join(self.work, "setup.log")) as fh:
            print(fh.read().strip())
        return statistics.median(times)

    def operation(self, i: int, trace_path: str | None = None):
        """Run operation i; returns (wall s, peak MiB), or None on failure."""
        self.attempted += 1
        tracing = ["--trace", trace_path] if trace_path else []
        child = [sys.executable, os.path.join(HERE, "child.py"), *tracing]
        if self.workload == "trace_suites":
            out = os.path.join(self.work, f"op{i}.npz")
            argv = [*child, "suites", str(self.seed), out]
        else:
            command, make_config, _ = CLI_WORKLOADS[self.workload]
            out = os.path.join(self.work, f"op{i}")
            cfg_path = os.path.join(self.work, "config.json")
            if not os.path.exists(cfg_path):
                with open(cfg_path, "w") as fh:
                    json.dump(make_config(self.seed), fh, indent=1)
            prog = child + ["cli"] if trace_path else [
                sys.executable, "-m", "gramspec"]
            argv = [*prog, command, "--config", cfg_path,
                    "--output-root", out]
        rc, wall, rss = self.spawn(argv, f"op{i}.log")
        if rc != 0:
            self.failed += 1
            with open(os.path.join(self.work, f"op{i}.log"), "rb") as fh:
                tail = fh.read()[-2000:].decode(errors="replace")
            print(f"op {i}: exit code {rc}\n{tail}")
            return None
        if self.workload == "trace_suites":
            with np.load(out) as data:
                wall = float(data["elapsed"])
        self.check(i, out)
        print(f"op {i}: {wall:.4f} s, peak {rss:.1f} MiB")
        return wall, rss

    def check(self, i: int, out: str) -> None:
        """Full check of the first output, byte identity for later ones."""
        try:
            digest = self.digest(out)
            if self.reference is None:
                self.extras = self.full_check(out)
                self.reference = digest
                print("checks passed:", ", ".join(
                    f"{k} {v:.4g}" for k, v in self.extras.items()))
            else:
                wl.expect(digest == self.reference,
                          f"op {i} output differs from op 0's")
        except (wl.CheckFailed, OSError, KeyError, ValueError) as exc:
            self.errors.append(f"op {i}: {exc}")
            print(f"op {i}: CHECK FAILED: {exc}")

    def digest(self, out: str) -> str:
        h = hashlib.sha256()
        if self.workload == "trace_suites":
            with np.load(out) as data:
                for key in sorted(data.files):
                    if key != "elapsed":
                        h.update(key.encode() + data[key].tobytes())
            return h.hexdigest()
        rd = wl.run_dir(out)
        for rel, blob in sorted(wl.dir_bytes(rd).items()):
            h.update(rel.encode() + hashlib.sha256(blob).digest())
        return h.hexdigest()

    def full_check(self, out: str) -> dict:
        if self.workload == "trace_suites":
            with np.load(out) as data:
                res = {k: data[k] for k in data.files}
            diff, levy = wl.suite_cases(self.seed)
            extras = wl.check_suites(res, diff, levy)
            wl.self_test_suites(res, diff, levy)
            return extras
        _, make_config, checker = CLI_WORKLOADS[self.workload]
        cfg = make_config(self.seed)
        rd = wl.run_dir(out)
        extras = checker(rd, cfg)
        wl.self_test_cli(self.workload, rd, cfg)
        extras["artifact_bytes"] = sum(
            len(b) for b in wl.dir_bytes(rd).values())
        return extras


def timed_run(run: Run, seconds: float) -> dict:
    setup = run.setup_seconds()
    walls, rss = [], []
    spent = 0.0
    while not walls or spent < seconds:
        got = run.operation(len(walls) + run.failed)
        if got is None:
            break
        walls.append(got[0])
        rss.append(got[1])
        spent += got[0]
    metrics = {"setup_s": setup}
    if walls:
        metrics.update(wall_s=statistics.median(walls),
                       peak_rss_mib=max(rss))
    return metrics


def traced_run(run: Run) -> dict:
    untraced = run.operation(0)
    trace_path = os.path.join(run.work, "trace.json")
    traced = run.operation(1, trace_path)
    if untraced is None or traced is None:
        return {}
    with open(trace_path) as fh:
        tr = json.load(fh)
    m = {name: 0.0 for name in metric_units("per_layer")}
    for layer, secs in tr["self_s"].items():
        m[f"{layer}_s"] = secs
    for layer, calls in tr["calls"].items():
        if f"{layer}_calls" in m:
            m[f"{layer}_calls"] = calls
    m.update(tr["counts"])
    m["cli.artifact_bytes"] = run.extras.get("artifact_bytes", 0)
    if run.workload == "solve_hardedge":
        m["limit.mp_ks"] = run.extras["mp_ks"]
    m["trace.overhead_s"] = traced[0] - untraced[0]
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gramspec", "__init__.py")):
        print("error: run from the root of a gramspec checkout "
              "(no src/gramspec here)", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    try:
        if args.trace:
            units, values = metric_units("per_layer"), traced_run(run)
        else:
            units = metric_units("end_to_end")
            values = timed_run(run, args.seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:  # another run still uses it
            pass
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    for err in run.errors:
        print(f"CHECK FAILED: {err}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
