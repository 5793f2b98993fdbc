"""Experiment harness: seeded Monte Carlo sweeps emitting CSV tables.

Three subcommands cover the standard experiment set: `rate-sweep` (mean
achievable rate and fitting errors over a grid of weighting factors and SNRs),
`beampattern` (radiated power over an angle grid for one weighting factor),
and `convergence` (the objective trace of a single run).

Every trial draws its channel from seed base_seed + trial and its solver start
from seed base_seed + trial + 2**32, so results depend only on the config and
never on worker count or scheduling.  CSV artifacts are byte-reproducible;
wall-clock timing lives in a JSON sidecar next to each table.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A threaded BLAS spins a pool thread on another core after numpy's import and
# after each large product, and the channel SVD's bytes depend on its thread
# count at large n_tx.  So when this module is the one that loads numpy and the
# environment sets no thread count, the BLAS runs on one thread; --workers is
# the way to use more cores.  A count the user set is left alone.
BLAS_THREADS_PINNED = "numpy" not in sys.modules and not any(
    os.environ.get(name) for name in BLAS_THREAD_VARIABLES)
if BLAS_THREADS_PINNED:
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))

import numpy as np

from . import altmin, channel, metrics, ula

# trial t draws its channel from base_seed + t and its solver start from
# base_seed + t + ALTMIN_SEED_OFFSET; the two seed ranges are disjoint exactly
# when num_trials <= ALTMIN_SEED_OFFSET, which validate() enforces
ALTMIN_SEED_OFFSET = 2**32

# trials whose rate-sweep designs are solved as one stack.  On the reference
# 20-trial sweep (2 vCPUs, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread),
# stacks of 5, 10 and 20 trials took 114, 107 and 103 ms in process, and the
# CLI peaked at 40.7, 43.7 and 44.3 MB: larger stacks save little time, and
# the loop's temporaries grow with the stack
TRIALS_PER_STACK = 5


class ConfigError(ValueError):
    """Invalid experiment configuration or config file."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment, mirroring the JSON config schema.

    `total_power` defaults to the receive antenna count when omitted.
    `tolerance` is the relative stopping tolerance handed to the solver; the
    harness default is looser than the solver's own so runs at the default
    dimensions stop within tens of iterations.
    """

    n_tx: int = 120
    n_rx: int = 6
    n_streams: int = 6
    n_rf: int = 24
    n_paths: int = 10
    target_angles_deg: tuple[float, ...] = (-30.0, 0.0, 30.0)
    total_power: float | None = None
    eta_values: tuple[float, ...] = tuple(round(0.4 + 0.05 * i, 10) for i in range(13))
    snr_db_values: tuple[float, ...] = (0.0,)
    num_trials: int = 100
    base_seed: int = 12345
    tolerance: float = 1e-4
    max_iterations: int = 100
    beampattern_grid_deg: tuple[float, float, float] = (-90.0, 90.0, 0.5)

    def __post_init__(self) -> None:
        object.__setattr__(self, "target_angles_deg", tuple(float(a) for a in self.target_angles_deg))
        object.__setattr__(self, "eta_values", tuple(float(e) for e in self.eta_values))
        object.__setattr__(self, "snr_db_values", tuple(float(s) for s in self.snr_db_values))
        object.__setattr__(self, "beampattern_grid_deg", tuple(float(g) for g in self.beampattern_grid_deg))
        if self.total_power is None:
            object.__setattr__(self, "total_power", float(self.n_rx))
        else:
            object.__setattr__(self, "total_power", float(self.total_power))

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(v) for v in values if isinstance(v, float)):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        counts = {
            "n_tx": self.n_tx, "n_rx": self.n_rx, "n_streams": self.n_streams,
            "n_rf": self.n_rf, "n_paths": self.n_paths,
            "num_trials": self.num_trials, "max_iterations": self.max_iterations,
        }
        for name, value in counts.items():
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.num_trials > ALTMIN_SEED_OFFSET:
            raise ConfigError(f"num_trials must be at most 2**32, so that channel and "
                              f"solver seeds stay disjoint, got {self.num_trials}")
        if len(self.target_angles_deg) == 0:
            raise ConfigError("target_angles_deg must not be empty")
        if any(not -90.0 <= a <= 90.0 for a in self.target_angles_deg):
            raise ConfigError("target_angles_deg entries must lie in [-90, 90]")
        if self.n_tx % self.n_rf != 0:
            raise ConfigError(f"n_tx ({self.n_tx}) must be divisible by n_rf ({self.n_rf})")
        if self.n_tx % len(self.target_angles_deg) != 0:
            raise ConfigError(
                f"n_tx ({self.n_tx}) must be divisible by the number of targets "
                f"({len(self.target_angles_deg)})"
            )
        if self.n_streams > min(self.n_tx, self.n_rx):
            raise ConfigError("n_streams must not exceed min(n_tx, n_rx)")
        if self.n_streams < len(self.target_angles_deg):
            raise ConfigError("n_streams must be at least the number of targets")
        if not self.total_power > 0:
            raise ConfigError("total_power must be positive")
        # the analog step forms 1/|c| for each antenna's correlation c, which
        # overflows below |c| = 1/DBL_MAX; correlations scale like
        # total_power / n_tx, and this bound still holds one 10^5 below that
        min_power = 1e5 * self.n_tx / sys.float_info.max
        if self.total_power < min_power:
            raise ConfigError(f"total_power must be at least {min_power:.3g} at "
                              f"n_tx={self.n_tx}, got {self.total_power!r}")
        if len(self.eta_values) == 0 or any(not 0.0 <= e <= 1.0 for e in self.eta_values):
            raise ConfigError("eta_values must be a nonempty list of values in [0, 1]")
        if len(self.snr_db_values) == 0:
            raise ConfigError("snr_db_values must not be empty")
        for snr_db in self.snr_db_values:
            try:
                10.0 ** (snr_db / 10.0)  # the linear SNR metrics.achievable_rate forms
            except OverflowError:
                raise ConfigError(f"snr_db_values entry {snr_db!r} is too large: its "
                                  f"linear SNR overflows a float") from None
        if not isinstance(self.base_seed, int) or not 0 <= self.base_seed < 2**32:
            raise ConfigError("base_seed must fit in an unsigned 32-bit integer")
        if not self.tolerance > 0:
            raise ConfigError("tolerance must be positive")
        if len(self.beampattern_grid_deg) != 3:
            raise ConfigError("beampattern_grid_deg must be [start, stop, step]")
        try:
            ula.angle_grid_size(*self.beampattern_grid_deg)
        except ValueError as exc:
            raise ConfigError(f"beampattern_grid_deg invalid: {exc}") from exc

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        for key, value in doc.items():
            if isinstance(value, tuple):
                doc[key] = list(value)
        return doc


def _is_number(value) -> bool:
    """A JSON number: an int or float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _to_float(name: str, value) -> float:
    try:
        return float(value)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ConfigError(f"{name} is out of range") from exc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """The config of a parsed JSON document.  Each field takes the kind of its
    default: a list of numbers, an integer or a number; only `total_power`
    may be null."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    defaults = ExperimentConfig()
    unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(defaults)})
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    kwargs = {}
    for name, value in doc.items():
        default = getattr(defaults, name)
        if value is None and name == "total_power":
            kwargs[name] = None  # the default: n_rx
        elif isinstance(default, tuple):
            if not isinstance(value, list) or not all(_is_number(x) for x in value):
                raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
            kwargs[name] = tuple(_to_float(name, x) for x in value)
        elif isinstance(default, int):
            if not _is_number(value) or (isinstance(value, float) and not value.is_integer()):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            kwargs[name] = int(value)
        elif not _is_number(value):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        else:
            kwargs[name] = _to_float(name, value)
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


@dataclass(frozen=True)
class TrialDesign:
    """Everything produced for one (weighting factor, trial) pair."""

    channel: channel.ChannelRealization
    f_com: np.ndarray
    w_com: np.ndarray
    f_rad: np.ndarray
    report: altmin.AltMinReport


@dataclass(frozen=True)
class TrialDraw:
    """What the designs of one trial share: its channel, both targets and the
    solved stack that holds its designs."""

    channel: channel.ChannelRealization
    f_com: np.ndarray
    w_com: np.ndarray
    f_rad: np.ndarray
    stack: altmin.DesignStack


def radar_target(config: ExperimentConfig) -> np.ndarray:
    """The radar-only beamformer of the configured targets; the same for every trial."""
    scene = ula.TargetScene(
        tuple(math.radians(a) for a in config.target_angles_deg), config.n_tx
    )
    return ula.radar_beamformer(scene, config.total_power)


def draw_trial(config: ExperimentConfig, trial: int):
    """The trial's channel and SVD precoder pair: (channel, f_com, w_com)."""
    params = channel.ChannelParams(
        num_tx=config.n_tx, num_rx=config.n_rx, num_paths=config.n_paths,
        rng_seed=config.base_seed + trial,
    )
    try:
        realization = channel.generate_channel(params)
    except MemoryError as exc:
        raise ConfigError(f"n_paths ({config.n_paths}) and n_tx ({config.n_tx}) make a "
                          f"channel larger than this machine can hold") from exc
    f_com, w_com = channel.optimal_digital_beamformers(
        realization.matrix, config.n_streams, config.total_power
    )
    return realization, f_com, w_com


def _altmin_config(config: ExperimentConfig, eta: float, trial: int) -> altmin.AltMinConfig:
    return altmin.AltMinConfig(
        eta=eta, total_power=config.total_power, tolerance=config.tolerance,
        max_iterations=config.max_iterations,
        rng_seed=config.base_seed + trial + ALTMIN_SEED_OFFSET,
    )


def design_trial(config: ExperimentConfig, eta: float, trial: int,
                 draw: TrialDraw | None = None) -> TrialDesign:
    """Run the alternating design for one eta of a trial.

    `draw` passes what the trial's designs share, and its stack must hold
    `eta`; without it the trial is drawn and solved for `eta` alone.  A design
    is the same bit for bit either way.
    """
    if draw is None:
        [[design]] = _chunk_designs(config, [trial], radar_target(config), (eta,))
        return design
    report = altmin.alternating_minimization(
        draw.f_com, draw.f_rad, config.n_rf, _altmin_config(config, eta, trial), draw.stack
    )
    return TrialDesign(channel=draw.channel, f_com=draw.f_com, w_com=draw.w_com,
                       f_rad=draw.f_rad, report=report)


def _chunk_designs(config: ExperimentConfig, trials, f_rad: np.ndarray,
                   etas) -> list[list[TrialDesign]]:
    """The designs of each of `trials` at `etas`, in order, from one draw per
    trial and one stacked solve for the chunk."""
    failing = None  # the trial being drawn or designed
    try:
        drawn = []
        for failing in trials:
            drawn.append(draw_trial(config, failing))
        failing = None
        stack = altmin.DesignStack(f_rad, config.n_rf, [
            (f_com, [_altmin_config(config, eta, trial) for eta in etas])
            for trial, (_, f_com, _) in zip(trials, drawn)])
        designs = []
        for failing, (realization, f_com, w_com) in zip(trials, drawn):
            draw = TrialDraw(realization, f_com, w_com, f_rad, stack)
            designs.append([design_trial(config, eta, failing, draw) for eta in etas])
        return designs
    except (altmin.SolverError, np.linalg.LinAlgError) as exc:
        # a failure of the stacked solve names its problem, which is its
        # trial's place in the chunk, if it knows one
        problem = getattr(exc, "problem", None)
        if failing is None and (problem is not None or len(trials) == 1):
            failing = trials[problem or 0]
        label = f"trials {trials[0]}-{trials[-1]}" if failing is None else f"trial {failing}"
        raise altmin.SolverError(f"{label} failed: {exc}") from exc


def _pool_size(workers: int, tasks: int) -> int:
    # the pool forks all its workers on the first submit, so never ask for idle ones
    return min(workers, tasks, os.cpu_count() or 1)


def _map_trials(worker, tasks, workers: int) -> list:
    workers = _pool_size(workers, len(tasks))
    if workers <= 1:
        return [worker(task) for task in tasks]
    # imported here: only a pool needs it, and it costs every run time and memory
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # map preserves task order, so reductions cannot depend on scheduling
        return list(pool.map(worker, tasks))


def _trial_chunks(num_trials: int, workers: int) -> list[range]:
    """Contiguous chunks of at most TRIALS_PER_STACK trials, and at least as
    many as the pool has workers, with sizes that differ by at most one."""
    count = max(-(-num_trials // TRIALS_PER_STACK), _pool_size(workers, num_trials))
    size, extra = divmod(num_trials, count)  # the first `extra` chunks take one more
    return [range(i * size + min(i, extra), (i + 1) * size + min(i + 1, extra))
            for i in range(count)]


def _rate_chunk(task) -> tuple[np.ndarray, np.ndarray]:
    """A chunk's rates (trial, eta, snr), in trial order, and its designs' comm
    error, radar error, iteration count and convergence flag (trial, eta, 4)."""
    config, trials, f_rad = task
    rates, results = [], []
    for designs in _chunk_designs(config, trials, f_rad, config.eta_values):
        reports = [design.report for design in designs]
        h, w_com = designs[0].channel.matrix, designs[0].w_com
        products = np.stack([r.product for r in reports])
        # (snr, eta) from one stacked call per snr, stored as (eta, snr)
        rates.append(np.stack([metrics.achievable_rate(h, products, w_com, snr)
                               for snr in config.snr_db_values], axis=1))
        results.append([(r.comm_error, r.radar_error, r.iterations_used, r.converged)
                        for r in reports])
    rates = np.array(rates)
    # a linear SNR near the float limit can overflow inside the rate
    overflowed = ~np.isfinite(rates).all(axis=(0, 1))
    if overflowed.any():
        snr = config.snr_db_values[int(np.argmax(overflowed))]
        raise ConfigError(f"snr_db_values entry {snr!r} is too large: its "
                          f"rates are not finite")
    return rates, np.array(results, dtype=float)


RATE_COLUMNS = ("eta", "snr_db", "mean_rate", "std_rate",
                "mean_comm_err", "mean_radar_err", "mean_iterations")


def run_rate_sweep(config: ExperimentConfig, workers: int = 1):
    """Monte Carlo rate sweep over (eta, snr) pairs.

    Returns (columns, rows, info): rows are sorted by (eta, snr_db) and carry
    the across-trial mean and sample standard deviation of the rate plus mean
    fitting errors and iteration counts.
    """
    f_rad = radar_target(config)
    tasks = [(config, chunk, f_rad) for chunk in _trial_chunks(config.num_trials, workers)]
    chunk_rates, chunk_results = zip(*_map_trials(_rate_chunk, tasks, workers))
    rates = np.concatenate(chunk_rates)  # (trial, eta, snr)
    comm, radar, iters, converged = np.concatenate(chunk_results).transpose(2, 0, 1)
    n = config.num_trials

    rows = []
    eta_order = sorted(range(len(config.eta_values)), key=lambda i: config.eta_values[i])
    snr_order = sorted(range(len(config.snr_db_values)), key=lambda i: config.snr_db_values[i])
    for i in eta_order:
        for j in snr_order:
            sample = rates[:, i, j]
            std = float(sample.std(ddof=1)) if n > 1 else 0.0
            rows.append((
                config.eta_values[i],
                config.snr_db_values[j],
                float(sample.mean()),
                std,
                float(comm[:, i].mean()),
                float(radar[:, i].mean()),
                float(iters[:, i].mean()),
            ))
    info = {"converged_runs": int(converged.sum()), "total_runs": n * len(config.eta_values)}
    return RATE_COLUMNS, rows, info


def _beampattern_trial(task) -> dict:
    """A trial's N x S hybrid product; the run forms the covariance of all of them."""
    config, eta, trial, f_rad = task
    [[design]] = _chunk_designs(config, [trial], f_rad, (eta,))
    return {"product": design.report.product, "converged": design.report.converged}


BEAMPATTERN_COLUMNS = ("angle_deg", "gain")


def run_beampattern(config: ExperimentConfig, eta: float,
                    average_trials: bool = False, workers: int = 1):
    """Beampattern of the designed transmit covariance on the configured grid.

    By default a single seeded run (trial 0); with `average_trials` the
    covariance is averaged over all `num_trials` trials before evaluating the
    pattern.  Returns (columns, rows, header, info).
    """
    try:
        grid = ula.angle_grid_deg(*config.beampattern_grid_deg)
    except MemoryError as exc:
        size = ula.angle_grid_size(*config.beampattern_grid_deg)
        raise ConfigError(f"beampattern_grid_deg has {size} points, more than this "
                          f"machine can hold") from exc
    trials = range(config.num_trials) if average_trials else range(1)
    f_rad = radar_target(config)
    tasks = [(config, eta, trial, f_rad) for trial in trials]
    results = _map_trials(_beampattern_trial, tasks, workers)
    # sum_t F_t F_t^H is one product of the N x (T S) matrix [F_0 ... F_{T-1}],
    # so a run makes one covariance product, however many trials it averages
    products = np.concatenate([r["product"] for r in results], axis=1)
    covariance = ula.covariance_of(products)
    covariance /= len(results)
    gains = ula.beampattern(covariance, ula.UlaConfig(config.n_tx), np.deg2rad(grid))
    rows = list(zip(grid.tolist(), gains.tolist()))
    header = {
        "command": "beampattern",
        "eta": format(eta, ".17g"),
        "base_seed": config.base_seed,
        "averaged_trials": len(results),
        "grid_deg": ":".join(format(g, ".17g") for g in config.beampattern_grid_deg),
    }
    info = {"converged_runs": int(sum(r["converged"] for r in results)),
            "total_runs": len(results)}
    return BEAMPATTERN_COLUMNS, rows, header, info


CONVERGENCE_COLUMNS = ("iteration", "objective")


def run_convergence(config: ExperimentConfig, eta: float):
    """Objective trace of a single seeded run (trial 0)."""
    [[design]] = _chunk_designs(config, [0], radar_target(config), (eta,))
    rows = [(k, value) for k, value in enumerate(design.report.objective_trace)]
    info = {"converged_runs": int(design.report.converged), "total_runs": 1,
            "iterations_used": design.report.iterations_used}
    return CONVERGENCE_COLUMNS, rows, info


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path, columns, rows, header_meta: dict | None = None) -> None:
    """Write a CSV table with optional `# key=value` comment lines on top."""
    lines = []
    if header_meta:
        lines.extend(f"# {key}={value}" for key, value in header_meta.items())
    lines.append(",".join(columns))
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii", newline="")


def _numeric_environment() -> dict:
    """What decides the CSV's last digits: numpy, its BLAS, the BLAS thread
    settings and the core count.  BLAS name and version are None where numpy
    cannot report them as data (before numpy 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
    }


def _cpu_time() -> float:
    """User plus system CPU seconds of this process, all its threads (BLAS's
    too), and its reaped children (a finished run's pool workers)."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def write_metadata(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="ascii", newline="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfrcbeam",
        description="Monte Carlo experiments for joint radar-communication "
                    "hybrid beamforming",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser, with_eta: bool) -> None:
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--out", required=True, help="output CSV path")
        sp.add_argument("--seed", type=int, default=None, help="override base_seed")
        sp.add_argument("--workers", type=int, default=1,
                        help="parallel trial workers (does not affect output)")
        if with_eta:
            sp.add_argument("--eta", type=float, required=True,
                            help="weighting factor in [0, 1]")

    add_common(sub.add_parser("rate-sweep", help="rate and error statistics over "
                              "the configured eta and SNR grids"), with_eta=False)
    beam = sub.add_parser("beampattern", help="transmit beampattern for one eta")
    add_common(beam, with_eta=True)
    beam.add_argument("--average-trials", action="store_true",
                      help="average the covariance over all trials instead of "
                           "using the first")
    add_common(sub.add_parser("convergence", help="objective trace of one run"),
               with_eta=True)
    return parser


def main(argv=None) -> int:
    """Run one command; `argv` defaults to the process's own arguments.

    A run that parses the process's own arguments owns the process, so it
    first moves the heap that importing numpy built into the collector's
    permanent generation (`gc.freeze`): neither the collections during the run
    nor the one at exit walk it again, and pool workers fork with it frozen.
    A caller that passes `argv` keeps its collector as it was.
    """
    if argv is None:
        gc.freeze()
    args = build_parser().parse_args(argv)
    started, cpu_started = time.monotonic(), _cpu_time()
    try:
        config = load_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            if not 0 <= args.seed < 2**32:
                raise ConfigError("--seed must fit in an unsigned 32-bit integer")
            config = dataclasses.replace(config, base_seed=args.seed)
        config.validate()
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        eta = getattr(args, "eta", None)
        if eta is not None and not 0.0 <= eta <= 1.0:
            raise ConfigError("--eta must lie in [0, 1]")

        header = None
        if args.command == "rate-sweep":
            trials = config.num_trials
            columns, rows, info = run_rate_sweep(config, workers=args.workers)
        elif args.command == "beampattern":
            trials = config.num_trials if args.average_trials else 1
            columns, rows, header, info = run_beampattern(
                config, eta, average_trials=args.average_trials, workers=args.workers
            )
        else:
            trials = 1
            columns, rows, info = run_convergence(config, eta)

        write_csv(args.out, columns, rows, header)
        meta = {
            "command": args.command,
            "config": config.to_dict(),
            "eta": eta,
            "workers": _pool_size(args.workers, trials),
            "altmin_seed_offset": ALTMIN_SEED_OFFSET,
            "wall_time_s": time.monotonic() - started,
            "cpu_time_s": _cpu_time() - cpu_started,
            "numeric_environment": _numeric_environment(),
            "blas_threads_pinned": BLAS_THREADS_PINNED,
            **info,
        }
        write_metadata(f"{args.out}.meta.json", meta)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (altmin.SolverError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
