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
from numbers import Rational, Real
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

from . import altmin, channel, hybrid, metrics, ula

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

    A config is checked when it is made, and `ConfigError` names the first
    field at fault.  Each field takes the kind of its default: a count is a
    positive integer and `base_seed` an integer in [0, 2**32), numpy's
    included but not a bool; the others are finite real numbers, or lists or
    tuples of them.  They are stored as plain `int`, `float` and tuples of
    `float`, so `to_dict()` is JSON as it stands.  `total_power` of None means
    the receive antenna count.  Then `validate()` checks the ranges and the
    rules across fields.
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
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "total_power" and value is None:
                value = self.n_rx  # a field before it, so already checked
            object.__setattr__(self, f.name, _checked_field(f.name, value, f.default))
        self.validate()

    def validate(self) -> None:
        """Check the rules across fields and the ranges of the numbers."""
        if self.num_trials > ALTMIN_SEED_OFFSET:
            raise ConfigError(f"num_trials must be at most 2**32, so that channel and "
                              f"solver seeds stay disjoint, got {self.num_trials}")
        if len(self.target_angles_deg) == 0:
            raise ConfigError("target_angles_deg must not be empty")
        if not all(ula.is_real_in(a, -90, 90, "[]") for a in self.target_angles_deg):
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
        if not ula.is_real_in(self.total_power, 0, math.inf, "()"):
            raise ConfigError("total_power must be positive")
        # the analog step forms 1/|c| for each antenna's correlation c, which
        # overflows below |c| = 1/DBL_MAX; correlations scale like
        # total_power / n_tx, and this bound still holds one 10^5 below that
        min_power = 1e5 * self.n_tx / sys.float_info.max
        if self.total_power < min_power:
            raise ConfigError(f"total_power must be at least {min_power:.3g} at "
                              f"n_tx={self.n_tx}, got {self.total_power!r}")
        # the solver's largest intermediates are sums of squares: the block
        # sums' squared norms, up to block * total_power with the phases
        # aligned, and the random start's fitting errors, up to 4 * total_power;
        # this bound keeps both a factor 2 below DBL_MAX
        max_power = sys.float_info.max / (2 * max(hybrid.chain_block(self.n_tx, self.n_rf), 4))
        if self.total_power > max_power:
            raise ConfigError(f"total_power must be at most {max_power:.3g} at n_tx={self.n_tx} "
                              f"and n_rf={self.n_rf}, got {self.total_power!r}")
        if not self.eta_values or not all(ula.is_real_in(e, 0, 1, "[]") for e in self.eta_values):
            raise ConfigError("eta_values must be a nonempty list of values in [0, 1]")
        if len(self.snr_db_values) == 0:
            raise ConfigError("snr_db_values must not be empty")
        for snr_db in self.snr_db_values:
            try:
                10.0 ** (snr_db / 10.0)  # the linear SNR metrics.achievable_rate forms
            except OverflowError:
                raise ConfigError(f"snr_db_values entry {snr_db!r} is too large: its "
                                  f"linear SNR overflows a float") from None
        if not ula.is_real_in(self.tolerance, 0, math.inf, "()"):
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


def _checked_field(name: str, value, default):
    """`value` of field `name`, checked by the kind of its `default` and
    converted to a plain int, float or tuple of floats."""
    if isinstance(default, int):
        if name == "base_seed":
            if not ula.is_integer_in(value, 0, 2**32):
                raise ConfigError(f"base_seed must be an integer in [0, 2**32), got {value!r}")
        elif not ula.is_integer_in(value, 1):
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        return int(value)
    is_list = isinstance(default, tuple)
    entries = value if is_list else (value,)
    if (is_list and not isinstance(value, (list, tuple))) or not all(
            isinstance(x, Real) and not isinstance(x, bool) for x in entries):
        kind = "a list of numbers" if is_list else "a number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    # a rational real (an int or a fraction) fails only by lying past the float range
    if bad := [x for x in entries if not ula.is_real_in(x, -math.inf, math.inf, "()")]:
        raise ConfigError(f"{name} is out of range" if any(isinstance(x, Rational) for x in bad)
                          else f"{name} must be finite, got {value!r}")
    return tuple(float(x) for x in entries) if is_list else float(value)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """The config of a parsed JSON document.  Its keys must be config fields,
    and a count or seed may be written as an integral float (120.0, 1e15);
    `ExperimentConfig` checks the rest, so `null` is taken only for
    `total_power`."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(doc) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    kwargs = dict(doc)
    for name, value in doc.items():
        if isinstance(defaults[name], int) and isinstance(value, float) and value.is_integer():
            kwargs[name] = int(value)
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(data.decode("utf-8"))
    # ValueError covers bad UTF-8, bad JSON and an integer longer than Python
    # converts (4300 digits); RecursionError, JSON nested too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


@dataclass(frozen=True, eq=False)
class TrialDesign:
    """Everything produced for one (weighting factor, trial) pair."""

    channel: channel.ChannelRealization
    f_com: np.ndarray
    w_com: np.ndarray
    f_rad: np.ndarray
    report: altmin.AltMinReport


@dataclass(frozen=True, eq=False)
class TrialDraw:
    """What the designs of one trial share: its channel, both targets and the
    stacked solve's designs of the trial."""

    channel: channel.ChannelRealization
    f_com: np.ndarray
    w_com: np.ndarray
    f_rad: np.ndarray
    stack: altmin.StackDesigns


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
    trial and one stacked solve for the chunk.

    When a chunk fails, its (trial, eta) designs are made again one at a time,
    in trial order and then in the order of `etas`, and the first that fails
    alone raises its own error.  A design alone is bit for bit its design in
    the chunk, so the error names the lowest failing trial, its first failing
    eta and its own message, however the trials were chunked; `convergence
    --seed <base_seed + trial> --eta <eta>` replays it.
    """
    try:
        drawn = [draw_trial(config, trial) for trial in trials]
        stacks = altmin.alternating_minimization_stack([
            (f_com, [_altmin_config(config, eta, trial) for eta in etas])
            for trial, (_, f_com, _) in zip(trials, drawn)], f_rad, config.n_rf)
        designs = []
        for trial, (realization, f_com, w_com), stack in zip(trials, drawn, stacks):
            draw = TrialDraw(realization, f_com, w_com, f_rad, stack)
            designs.append([design_trial(config, eta, trial, draw) for eta in etas])
        return designs
    except (altmin.SolverError, np.linalg.LinAlgError) as exc:
        if len(trials) == 1 and len(etas) == 1:
            raise altmin.SolverError(f"trial {trials[0]} at eta={etas[0]} failed: {exc}") from exc
        for trial in trials:
            for eta in etas:
                _chunk_designs(config, [trial], f_rad, (eta,))
        raise altmin.SolverError(f"trials {trials[0]}-{trials[-1]} failed: {exc}") from exc


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
        # (snr, eta) from one stacked call per snr, stored as (eta, snr); an
        # overflow is reported below, as a config error
        with np.errstate(over="ignore", invalid="ignore"):
            rates.append(np.stack([metrics.achievable_rate(h, products, w_com, snr)
                                   for snr in config.snr_db_values], axis=1))
        results.append([(r.comm_error, r.radar_error, r.iterations_used, r.converged)
                        for r in reports])
    rates = np.array(rates)
    # the rate scales with the linear SNR times the transmit power, and a large
    # enough product of the two overflows inside it
    overflowed = ~np.isfinite(rates).all(axis=(0, 1))
    if overflowed.any():
        snr = config.snr_db_values[int(np.argmax(overflowed))]
        raise ConfigError(f"snr_db_values entry {snr!r} and total_power "
                          f"{config.total_power!r} give rates that are not finite; "
                          f"lower either")
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
    with np.errstate(over="ignore", invalid="ignore"):
        gains = ula.beampattern(covariance, ula.UlaConfig(config.n_tx), np.deg2rad(grid))
    # the pattern sums up to n_tx terms of the covariance's size, so a power
    # near the float limit can overflow it
    if not np.isfinite(gains).all():
        raise ConfigError(f"total_power {config.total_power!r} gives a beampattern that is "
                          f"not finite at n_tx={config.n_tx}; lower it")
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


def _write(writer, path, *args) -> None:
    """`writer(path, *args)`, with an `OSError` reported as a `ConfigError`
    that names the path."""
    try:
        writer(path, *args)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


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
        out = Path(args.out)
        if out.is_dir() or not out.parent.is_dir():
            raise ConfigError(f"--out {args.out} must name a file in an existing directory")
        config = load_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            if not 0 <= args.seed < 2**32:
                raise ConfigError("--seed must fit in an unsigned 32-bit integer")
            config = dataclasses.replace(config, base_seed=args.seed)
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        eta = getattr(args, "eta", None)
        if eta is not None and not ula.is_real_in(eta, 0, 1, "[]"):
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

        _write(write_csv, args.out, columns, rows, header)
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
        try:
            _write(write_metadata, f"{args.out}.meta.json", meta)
        except ConfigError:
            out.unlink(missing_ok=True)  # a CSV without its sidecar is not a result
            raise
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (altmin.SolverError, np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
