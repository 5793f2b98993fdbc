"""Benchmark of the dfrcbeam experiment CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds `src/dfrcbeam`; the package is
used from that source tree (PYTHONPATH), nothing is installed.  Each run:

1. times fresh interpreters that import `dfrcbeam.cli`, load the workload's
   config and validate it: one before each invocation, at least `SETUP_REPS`
   in all (`setup_s` is their median);
2. runs the workload's CLI invocation as a subprocess, one at a time, until
   `--seconds` have passed and at least `MIN_REPS` invocations ran.
   Invocation k passes `--seed N + k * trials`, so every invocation draws
   fresh trials and a run averages over several batches.  Wall, CPU (user+sys
   of the child and its pool workers) and peak RSS come from `os.wait4` on
   that child; end-to-end metrics are medians over the invocations;
3. checks every invocation's output (see checks.py) and counts failures; a
   rate sweep also runs once, untimed, at the seed of the stored reference;
4. with `--trace 1`, repeats invocation 0 in a traced process (see spans.py)
   and reports per-layer metrics instead of end-to-end ones.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics; the line before it holds the numeric environment.  Work files go
to `.bench_build/perfbench/` in the checkout and are removed afterwards, except
the last trace, kept as `.bench_build/perfbench/trace-<workload>.json`.

`--workload all` runs every workload in turn with the same settings.

The CSVs in `reference/` are the CLI's own output for seed 12345 at the commit
that introduced the benchmark, from `rate-sweep` with the config that
`Workload.config()` writes; the check compares whichever one matches an
invocation's seed and trial count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
REFERENCE_DIR = BENCH_DIR / "reference"
REFERENCE_SEED = 12345

SETUP_REPS = 9
MIN_REPS = 3
# no new invocation starts after this, so a run ends well inside 180 s
MAX_MEASURE_S = 100.0

# reference dimensions of the paper's experiments
DIMENSIONS = {
    "n_tx": 120, "n_rx": 6, "n_streams": 6, "n_rf": 24, "n_paths": 10,
    "target_angles_deg": [-30.0, 0.0, 30.0], "tolerance": 1e-4,
    "max_iterations": 100, "snr_db_values": [0.0],
    "eta_values": [round(0.4 + 0.05 * i, 10) for i in range(13)],
}

SETUP_PROBE = """\
import json, sys, time
started = time.perf_counter()
import dfrcbeam.cli as cli
cli.load_config(sys.argv[1]).validate()
elapsed = time.perf_counter() - started
print(json.dumps({"setup_s": elapsed, "module": cli.__file__}))
"""

ENV_PROBE = """\
import json, platform, numpy
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version")}))
"""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    trials: int
    # iterations_mean averages the designs of the first `counted` invocations,
    # so it is exact for a seed however many invocations fit in a run
    counted: int
    workers: int = 1
    eta: float | None = None
    grid_deg: tuple[float, float, float] | None = None

    def config(self, seed: int) -> dict:
        doc = {**DIMENSIONS, "num_trials": self.trials, "base_seed": seed}
        if self.grid_deg is not None:
            doc["beampattern_grid_deg"] = list(self.grid_deg)
        return doc

    @property
    def designs(self) -> int:
        if self.command == "rate-sweep":
            return self.trials * len(DIMENSIONS["eta_values"])
        return self.trials

    def cli_args(self, config_path, out, seed: int, workers: int | None = None) -> list[str]:
        args = [self.command, "--config", str(config_path), "--out", str(out),
                "--seed", str(seed), "--workers", str(workers or self.workers)]
        if self.eta is not None:
            args += ["--eta", repr(self.eta), "--average-trials"]
        return args


WORKLOADS = {
    # the paper's rate-vs-eta experiment, serial; block solves dominate
    "sweep_ref": Workload("sweep_ref", "rate-sweep", trials=20, counted=6),
    # the same sweep through the CLI process pool, default BLAS threading; left
    # out of BENCHMARK.json because BLAS oversubscription makes it unsteady
    "sweep_workers": Workload("sweep_workers", "rate-sweep", trials=20, counted=6, workers=2),
    # one fine beampattern; pattern evaluation and CSV writing dominate
    "pattern_fine": Workload("pattern_fine", "beampattern", trials=20, counted=10, eta=0.4,
                             grid_deg=(-90.0, 90.0, 0.005)),
}

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("designs_per_s", "1/s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("iterations_mean", "count"), ("converged_frac", "ratio"),
    ("ok_frac", "ratio"),
)

PER_LAYER = (
    ("cli.design_trial.calls", "count"), ("cli.design_trial.p50_ms", "ms"),
    ("cli.design_trial.p90_ms", "ms"),
    ("cli.write_csv.self_s", "s"), ("cli.write_csv.bytes", "bytes"),
    ("channel.generate_channel.calls", "count"), ("channel.generate_channel.self_s", "s"),
    ("channel.optimal_digital_beamformers.calls", "count"),
    ("channel.optimal_digital_beamformers.self_s", "s"),
    ("ula.radar_beamformer.calls", "count"), ("ula.radar_beamformer.self_s", "s"),
    ("ula.beampattern.self_s", "s"), ("ula.covariance_of.self_s", "s"),
    ("hybrid.materialize_product.calls", "count"), ("hybrid.materialize_product.self_s", "s"),
    ("hybrid.AnalogBeamformer.to_matrix.calls", "count"),
    ("hybrid.AnalogBeamformer.to_matrix.self_s", "s"),
    ("altmin.alternating_minimization.calls", "count"),
    ("altmin.alternating_minimization.self_s", "s"),
    ("altmin.iterations", "count"), ("altmin.converged_ratio", "ratio"),
    ("altmin.solve_unitary.calls", "count"), ("altmin.solve_unitary.self_s", "s"),
    ("altmin.solve_analog.calls", "count"), ("altmin.solve_analog.self_s", "s"),
    ("altmin.solve_baseband.calls", "count"), ("altmin.solve_baseband.self_s", "s"),
    ("altmin.solve_sphere_least_squares.calls", "count"),
    ("altmin.solve_sphere_least_squares.self_s", "s"),
    ("altmin.objective.calls", "count"), ("altmin.objective.self_s", "s"),
    ("metrics.achievable_rate.calls", "count"), ("metrics.achievable_rate.self_s", "s"),
    ("metrics.fitting_errors.self_s", "s"),
    ("trace.overhead_s", "s"), ("trace.coverage", "ratio"), ("trace.absent", "count"),
)


ITERATIONS_COLUMN = checks.RATE_COLUMNS.index("mean_iterations")


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, broken interpreter)."""


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def invoke(argv: list[str], env: dict, log_path: Path) -> Invocation:
    """Run one child to completion; resources come from wait4 on that child alone."""
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      peak_rss_mb=usage.ru_maxrss / 1024.0, returncode=proc.returncode)


def probe(code: str, args: list[str], env: dict) -> dict:
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=False)
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"probe failed ({done.returncode}): {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.splitlines()[-1])


def measure_setup(config_path: Path, env: dict) -> float:
    result = probe(SETUP_PROBE, [str(config_path)], env)
    if not Path(result["module"]).resolve().is_relative_to(SRC):
        raise BenchError(f"dfrcbeam was imported from {result['module']}, not {SRC}")
    return result["setup_s"]


def environment(env: dict) -> dict:
    info = probe(ENV_PROBE, [], env)
    threads = {name: os.environ.get(name, "unset")
               for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "dfrcbeam").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {**info, "threads": threads, "cpu_count": os.cpu_count(),
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(dump: dict, traced_wall: float, untraced_wall: float,
                  csv_bytes: int) -> dict[str, float]:
    records = spans.load(dump)
    own = spans.self_times(records)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span in records:
        calls[span["name"]] = calls.get(span["name"], 0) + 1
        self_s[span["name"]] = self_s.get(span["name"], 0.0) + own[span["id"]]
    designs_ms = [1e3 * (s["end"] - s["start"]) for s in records if s["name"] == spans.DESIGN_SPAN]
    solves = [s for s in records if s["name"] == spans.SOLVER_SPAN]
    special = {
        "cli.design_trial.p50_ms": percentile(designs_ms, 0.5),
        "cli.design_trial.p90_ms": percentile(designs_ms, 0.9),
        "cli.write_csv.bytes": csv_bytes,
        "altmin.iterations": sum(s.get("iterations") or 0 for s in solves),
        "altmin.converged_ratio": (sum(bool(s.get("converged")) for s in solves) / len(solves)
                                   if solves else 0.0),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": sum(own.values()) / traced_wall,
        "trace.absent": len(dump["absent"]),
    }
    out = {}
    for name, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        else:
            out[name] = self_s.get(name[: -len(".self_s")], 0.0)
    return out


class Run:
    """One benchmark run of one workload: invocations, checks and failures."""

    def __init__(self, workload: Workload, seed: int, work: Path, env: dict):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = env
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(workload.config(seed)), encoding="ascii")
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict[int, bytes] = {}

    def rep_seed(self, rep: int) -> int:
        """CLI seed of invocation `rep`: consecutive invocations draw disjoint trials."""
        return (self.seed + rep * self.workload.trials) % 2**32

    def check(self, label: str, inv: Invocation, out: Path, seed: int):
        """Check one invocation's output; returns (rows, sidecar), or None after
        counting the failure."""
        self.attempted += 1
        try:
            if inv.returncode != 0:
                log = (self.work / f"{out.stem}.log").read_text(errors="replace").strip()
                raise checks.CheckError(f"exit {inv.returncode}: {log[-300:]}")
            meta = checks.read_sidecar(out, self.workload.designs)
            if self.workload.command == "rate-sweep":
                rows = checks.read_table(out, checks.RATE_COLUMNS)
                reference = REFERENCE_DIR / f"rate_sweep_seed{seed}_trials{self.workload.trials}.csv"
                if reference.is_file():
                    checks.compare_to_reference(
                        rows, checks.read_table(reference, checks.RATE_COLUMNS))
            else:
                rows = checks.read_table(out, checks.PATTERN_COLUMNS)
                checks.check_peaks(rows, DIMENSIONS["target_angles_deg"])
            # README: same config and seed give byte-identical CSVs, whatever
            # the worker count and however often the command is repeated
            data = out.read_bytes()
            if self.outputs.setdefault(seed, data) != data:
                raise checks.CheckError(f"CSV differs from an earlier run with seed {seed}")
        except checks.CheckError as exc:
            self.failures.append(f"{label}: {exc}")
            return None
        return rows, meta

    def cli(self, label: str, seed: int, workers: int | None = None):
        out = self.work / f"{label}.csv"
        argv = [sys.executable, "-m", "dfrcbeam.cli",
                *self.workload.cli_args(self.config_path, out, seed, workers)]
        return invoke(argv, self.env, self.work / f"{label}.log"), out

    def traced(self, label: str, seed: int, only: list[str] | None = None):
        out = self.work / f"{label}.csv"
        spans_path = self.work / f"{label}.spans.json"
        argv = [sys.executable, str(BENCH_DIR / "spans.py"), "--spans", str(spans_path)]
        for name in only or []:
            argv += ["--only", name]
        argv += ["--", *self.workload.cli_args(self.config_path, out, seed)]
        inv = invoke(argv, self.env, self.work / f"{label}.log")
        doc = json.loads(spans_path.read_text()) if spans_path.is_file() else None
        return inv, out, doc, spans_path


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 min_reps: int = MIN_REPS) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, environment block)."""
    if not (SRC / "dfrcbeam" / "cli.py").is_file():
        raise BenchError(f"no dfrcbeam source tree at {SRC}")
    env = child_env()
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT, prefix=f"{workload.name}-") as tmp:
        run = Run(workload, seed, Path(tmp), env)
        env_block = environment(env)
        setup: list[float] = []

        timed: list[Invocation] = []
        iterations: list[float] = []   # mean per design, one entry per counted invocation
        converged = total = 0

        def count_iterations(rep: int, rows=None) -> None:
            rep_seed = run.rep_seed(rep)
            if workload.command == "rate-sweep":
                if rows is None:
                    inv, out = run.cli(f"count{rep}", rep_seed)
                    checked = run.check(f"iteration count {rep}", inv, out, rep_seed)
                    rows = checked[0] if checked else None
                if rows is not None:
                    iterations.append(statistics.fmean(row[ITERATIONS_COLUMN] for row in rows))
                return
            # the beampattern CSV and sidecar carry no iteration counts: a twin
            # run with only the solver wrapped counts them, and its CSV must
            # match the timed one byte for byte
            twin, out, doc, _ = run.traced(f"count{rep}", rep_seed, [spans.SOLVER_SPAN])
            solves = [s for s in spans.load(doc) if s["name"] == spans.SOLVER_SPAN] if doc else []
            if run.check(f"iteration count {rep}", twin, out, rep_seed) and solves:
                iterations.append(statistics.fmean(s["iterations"] for s in solves))

        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            if timed and (elapsed >= MAX_MEASURE_S or
                          (elapsed >= seconds and len(timed) >= min_reps)):
                break
            rep = len(timed)
            rep_seed = run.rep_seed(rep)
            # set-up samples are spread over the run like the invocations, so
            # both see the same mix of machine load
            setup.append(measure_setup(run.config_path, env))
            inv, out = run.cli(f"rep{rep}", rep_seed)
            timed.append(inv)
            checked = run.check(f"invocation {rep} (seed {rep_seed})", inv, out, rep_seed)
            if checked:
                rows, meta = checked
                converged += meta["converged_runs"]
                total += meta["total_runs"]
                if rep < workload.counted:
                    count_iterations(rep, rows if workload.command == "rate-sweep" else None)
        for rep in range(len(timed), workload.counted):
            count_iterations(rep)

        while len(setup) < SETUP_REPS:
            setup.append(measure_setup(run.config_path, env))
        reference = REFERENCE_DIR / f"rate_sweep_seed{REFERENCE_SEED}_trials{workload.trials}.csv"
        used = {run.rep_seed(rep) for rep in range(len(timed))}
        if reference.is_file() and REFERENCE_SEED not in used:
            # the stored reference is for one seed; run it untimed so every
            # run compares the program's numbers against it
            inv, out = run.cli("reference", REFERENCE_SEED)
            run.check("reference-seed run", inv, out, REFERENCE_SEED)
        if workload.workers > 1:
            inv, out = run.cli("serial", run.rep_seed(0), workers=1)
            run.check("serial run", inv, out, run.rep_seed(0))
        layers = None
        if trace:
            inv, out, doc, spans_path = run.traced("traced", run.rep_seed(0))
            run.check("traced invocation", inv, out, run.rep_seed(0))
            doc = doc or {"fields": spans.FIELDS, "spans": [], "absent": []}
            size = out.stat().st_size if out.is_file() else 0
            # overhead against the untraced invocation with the same inputs
            layers = layer_metrics(doc, inv.wall_s, timed[0].wall_s, size)
            if spans_path.is_file():
                shutil.copyfile(spans_path, WORK_ROOT / f"trace-{workload.name}.json")
            env_block["trace_absent"] = doc["absent"]

    wall = statistics.median(inv.wall_s for inv in timed)
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "designs_per_s": workload.designs / wall,
        "cpu_s": statistics.median(inv.cpu_s for inv in timed),
        "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in timed),
        "iterations_mean": statistics.fmean(iterations) if iterations else 0.0,
        "converged_frac": converged / total if total else 0.0,
        "ok_frac": (run.attempted - len(run.failures)) / run.attempted,
    }
    units = dict(END_TO_END + PER_LAYER)
    values = layers if trace else e2e
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    env_block.update(workload=workload.name, seed=seed, invocations=len(timed),
                     wall_s_samples=[inv.wall_s for inv in timed], setup_s_samples=setup,
                     failures=run.failures)
    return result, env_block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the dfrcbeam CLI.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED,
                        help="workload seed, passed to the CLI modulo 2**32")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed % 2**32
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result, env_block = run_workload(WORKLOADS[name], seed, args.seconds,
                                             bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print(f"# {name} seed={seed} invocations={env_block['invocations']} "
              f"setup_runs={len(env_block['setup_s_samples'])} (metrics are medians)")
        for metric, entry in result["metrics"].items():
            print(f"{metric:45s} {entry['value']:.6g} {entry['unit']}")
        for failure in env_block["failures"]:
            print(f"FAILED {failure}")
        print(json.dumps({"environment": env_block}))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
