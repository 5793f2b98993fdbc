"""End-to-end acceptance checks for the design pipeline.

Each test prints one `[acceptance] <name>: PASS|FAIL` line so a plain
`pytest -v` run doubles as an acceptance report.  Instance counts and
tolerances here are contractual; loosening them is not a fix.
"""

import json
import math
import subprocess
import sys

import numpy as np

from dfrcbeam import altmin, channel, metrics, ula
from dfrcbeam.cli import ExperimentConfig, design_trial
from dfrcbeam.hybrid import (
    AnalogBeamformer,
    BasebandBeamformer,
    materialize_product,
    normalize_power,
)
from oracles import solve_sphere_least_squares

REFERENCE = ExperimentConfig()  # 120 tx, 6 rx, 6 streams, 24 chains, 10 paths


def crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(0.5)


def report(capsys, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line, flush=True)


def test_convergence_at_reference_config(capsys):
    """Every seeded run at the reference configuration converges within the
    iteration cap, with a non-increasing objective trace."""
    failures = []
    for eta in (0.4, 0.6, 0.8):
        for trial in range(20):
            run = design_trial(REFERENCE, eta, trial).report
            if not run.converged or run.iterations_used > 100:
                failures.append(f"eta={eta} trial={trial}: no convergence "
                                f"in {run.iterations_used} iterations")
            trace = run.objective_trace
            slack = 1e-9 * (1.0 + trace[0])
            rises = [k for k in range(1, len(trace)) if trace[k] > trace[k - 1] + slack]
            if rises:
                failures.append(f"eta={eta} trial={trial}: objective rose at "
                                f"iterations {rises[:3]}")
    ok = not failures
    report(capsys, "convergence-at-reference-config", ok,
           "60/60 runs converged, all traces non-increasing" if ok else failures[0])
    assert ok, failures


def test_rate_trend_across_weighting(capsys):
    """Mean achievable rate over 100 trials does not decrease as the
    communication weight grows, and the pure-communication end is best."""
    etas = tuple(round(0.4 + 0.1 * i, 10) for i in range(7))
    num_trials = 100
    rates = np.empty((num_trials, len(etas)))
    for j, eta in enumerate(etas):
        for trial in range(num_trials):
            design = design_trial(REFERENCE, eta, trial)
            rates[trial, j] = metrics.achievable_rate(
                design.channel.matrix, design.report.hybrid.materialize(),
                design.w_com, snr_db=0.0,
            )
    means = rates.mean(axis=0)
    diffs = np.diff(rates, axis=1)  # paired: same channel seeds at every eta
    mean_diffs = diffs.mean(axis=0)
    se_diffs = diffs.std(axis=0, ddof=1) / math.sqrt(num_trials)
    trend_ok = bool(np.all(mean_diffs >= -se_diffs))
    peak_ok = bool(means[-1] == means.max())
    ok = trend_ok and peak_ok
    report(capsys, "rate-trend-across-weighting", ok,
           "mean rate " + " -> ".join(f"{m:.2f}" for m in means))
    assert trend_ok, (mean_diffs, se_diffs)
    assert peak_ok, means


def test_beam_steering_accuracy(capsys):
    """At radar-leaning weights, the designed beampattern puts a local maximum
    within 2 degrees of every target for at least 90% of seeded runs."""
    grid = ula.angle_grid_deg(-90.0, 90.0, 0.5)
    array = ula.UlaConfig(REFERENCE.n_tx)
    targets = list(REFERENCE.target_angles_deg)
    hits = {}
    for eta in (0.4, 0.6):
        good = 0
        for trial in range(20):
            design = design_trial(REFERENCE, eta, trial)
            cov = ula.covariance_of(design.report.hybrid.materialize())
            gains = ula.beampattern(cov, array, np.deg2rad(grid))
            devs = metrics.peak_deviation(np.column_stack([grid, gains]), targets)
            if max(devs) <= 2.0:
                good += 1
        hits[eta] = good
    ok = all(count >= 18 for count in hits.values())
    report(capsys, "beam-steering-accuracy", ok,
           ", ".join(f"eta={eta}: {count}/20 runs within 2 deg"
                     for eta, count in hits.items()))
    assert ok, hits


def test_unitary_subproblem_oracle(capsys):
    """The closed-form semi-unitary factor is never beaten by random sampling."""
    rng = np.random.default_rng(41001)
    n_rows, n_tar, n_s = 12, 3, 6
    worst = -math.inf
    for _ in range(1000):
        f_rad = crandn(rng, (n_rows, n_tar))
        product = crandn(rng, (n_rows, n_s))
        closed = altmin.solve_unitary(f_rad, product).matrix
        closed_obj = float(np.sum(np.abs(product - f_rad @ closed) ** 2))
        basis, _ = np.linalg.qr(crandn(rng, (10**4, n_s, n_tar)))
        samples = basis.conj().transpose(0, 2, 1)  # rows orthonormal
        resid = product[None] - np.einsum("nt,kts->kns", f_rad, samples)
        best = float((resid.real**2 + resid.imag**2).sum(axis=(1, 2)).min())
        worst = max(worst, closed_obj - best)
    ok = worst <= 1e-9
    report(capsys, "unitary-subproblem-oracle", ok,
           f"1000 instances x 10^4 samples, worst margin {worst:.3e}")
    assert ok, worst


def test_phase_subproblem_oracle(capsys):
    """The closed-form per-antenna phase matches a dense grid search.

    The grid cost is evaluated entrywise as |e^{j phi} b_k - m_k|^2 so it
    shares no algebra with the closed-form derivation.
    """
    rng = np.random.default_rng(41002)
    n_rows, n_s = 1000, 6
    baseband = crandn(rng, (n_rows, n_s))
    f_com = crandn(rng, (n_rows, n_s))
    f_rad_u = crandn(rng, (n_rows, n_s))
    etas = (0.0, 0.3, 0.5, 0.9, 1.0)
    mixed = [eta * f_com + (1.0 - eta) * f_rad_u for eta in etas]

    closed_costs = np.empty((len(etas), n_rows))
    for i, eta in enumerate(etas):
        # one RF chain per antenna, so each row is an independent instance
        phases = altmin.solve_analog(baseband, f_com, f_rad_u, eta).phases
        d = np.exp(1j * phases)[:, None] * baseband - mixed[i]
        closed_costs[i] = (d.real**2 + d.imag**2).sum(axis=1)

    phasor = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 10**5, endpoint=False))
    grid_mins = np.empty((len(etas), n_rows))
    chunk = 8
    for lo in range(0, n_rows, chunk):
        rotated = phasor[None, :, None] * baseband[lo:lo + chunk, None, :]
        for i in range(len(etas)):
            d = rotated - mixed[i][lo:lo + chunk, None, :]
            grid_mins[i, lo:lo + chunk] = (d.real**2 + d.imag**2).sum(axis=2).min(axis=1)

    worst = float((closed_costs - grid_mins).max())
    ok = worst <= 1e-6
    report(capsys, "phase-subproblem-oracle", ok,
           f"1000 rows x 5 weights x 10^5-point grid, worst margin {worst:.3e}")
    assert ok, worst


def test_sphere_least_squares_oracle(capsys):
    """The sphere-constrained solve satisfies its optimality certificate and
    beats random feasible points on every instance."""
    rng = np.random.default_rng(41003)
    n_rf, n_s = 8, 4
    failures = []
    for k in range(500):
        s = crandn(rng, (n_rf, n_rf))
        q = s @ s.conj().T
        g = crandn(rng, (n_rf, n_s))
        c = float(rng.uniform(0.5, 4.0))
        x, lam = solve_sphere_least_squares(q, g, c)

        residual = np.linalg.norm((q + lam * np.eye(n_rf)) @ x - g)
        if residual > 1e-7 * np.linalg.norm(g):
            failures.append(f"instance {k}: stationarity residual {residual:.2e}")
        sq_norm = float(np.sum(np.abs(x) ** 2))
        if abs(sq_norm - c) > 1e-8 * c:
            failures.append(f"instance {k}: norm off by {sq_norm - c:.2e}")
        evals = np.linalg.eigvalsh(q)
        if evals[0] + lam < -1e-9 * evals[-1]:
            failures.append(f"instance {k}: multiplier {lam:.2e} below -min eig")

        points = crandn(rng, (10**4, n_rf, n_s))
        points *= (math.sqrt(c) / np.linalg.norm(points, axis=(1, 2)))[:, None, None]
        qp = np.einsum("ij,kjs->kis", q, points)
        values = (np.einsum("kis,kis->k", points.conj(), qp).real
                  - 2.0 * np.einsum("kis,is->k", points.conj(), g).real)
        best = float(values.min())
        mine = float(np.vdot(x, q @ x).real - 2.0 * np.vdot(x, g).real)
        if mine > best + 1e-9 * (1.0 + abs(best)):
            failures.append(f"instance {k}: beaten by a random point by {mine - best:.2e}")
    ok = not failures
    report(capsys, "sphere-least-squares-oracle", ok,
           "500 instances certified" if ok else failures[0])
    assert ok, failures[:5]


def test_model_invariants(capsys):
    """Structural identities of the models: hybrid transmit power, beampattern
    invariance under stream rotation, and mean channel energy."""
    rng = np.random.default_rng(41004)
    failures = []

    worst_power = 0.0
    for _ in range(1000):
        n_rf = int(rng.integers(1, 9))
        block = int(rng.integers(1, 9))
        n_s = int(rng.integers(1, n_rf + 1))
        n_t = n_rf * block
        total_power = float(rng.uniform(0.1, 10.0))
        analog = AnalogBeamformer(n_t, n_rf, rng.uniform(0.0, 2.0 * math.pi, n_t))
        bb = normalize_power(BasebandBeamformer(crandn(rng, (n_rf, n_s))),
                             n_t, n_rf, total_power)
        power = float(np.sum(np.abs(materialize_product(analog, bb.matrix)) ** 2))
        worst_power = max(worst_power, abs(power - total_power) / total_power)
    if worst_power > 1e-9:
        failures.append(f"power identity off by {worst_power:.2e} relative")

    grid = ula.angle_grid_deg(-90.0, 90.0, 1.0)
    array = ula.UlaConfig(16)
    worst_gap = 0.0
    for _ in range(20):
        f = crandn(rng, (16, 4))
        rotation, _ = np.linalg.qr(crandn(rng, (4, 4)))
        before = ula.beampattern(ula.covariance_of(f), array, np.deg2rad(grid))
        after = ula.beampattern(ula.covariance_of(f @ rotation), array, np.deg2rad(grid))
        worst_gap = max(worst_gap, float(np.max(np.abs(before - after))))
    if worst_gap > 1e-9:
        failures.append(f"beampattern moved by {worst_gap:.2e} under stream rotation")

    energy = 0.0
    draws = 10**4
    for seed in range(draws):
        h = channel.generate_channel(channel.ChannelParams(16, 4, 10, rng_seed=seed)).matrix
        energy += float(np.vdot(h, h).real)
    mean_energy = energy / draws
    if not 0.95 * 64.0 <= mean_energy <= 1.05 * 64.0:
        failures.append(f"mean channel energy {mean_energy:.3f} outside 64 +/- 5%")

    ok = not failures
    report(capsys, "model-invariants", ok,
           f"power margin {worst_power:.1e}, pattern margin {worst_gap:.1e}, "
           f"mean energy {mean_energy:.2f}" if ok else failures[0])
    assert ok, failures


def test_cli_determinism(capsys, tmp_path):
    """Identical config and seed give byte-identical CSV output, regardless of
    worker count, for every subcommand."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "n_tx": 12, "n_rx": 2, "n_streams": 2, "n_rf": 4, "n_paths": 4,
        "target_angles_deg": [10.0], "eta_values": [0.5, 1.0],
        "snr_db_values": [0.0], "num_trials": 3, "base_seed": 11,
        "tolerance": 1e-4, "max_iterations": 100,
        "beampattern_grid_deg": [-90.0, 90.0, 0.5],
    }))

    def run(name, *extra):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "dfrcbeam.cli", *extra,
             "--config", str(config_path), "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    checks = {
        "rate-sweep repeat": (
            run("r1.csv", "rate-sweep", "--workers", "1"),
            run("r2.csv", "rate-sweep", "--workers", "1"),
        ),
        "rate-sweep workers": (
            run("r3.csv", "rate-sweep", "--workers", "2"),
            run("r1b.csv", "rate-sweep", "--workers", "1"),
        ),
        "beampattern workers": (
            run("b1.csv", "beampattern", "--eta", "0.5", "--average-trials",
                "--workers", "1"),
            run("b2.csv", "beampattern", "--eta", "0.5", "--average-trials",
                "--workers", "2"),
        ),
        "convergence repeat": (
            run("c1.csv", "convergence", "--eta", "0.5"),
            run("c2.csv", "convergence", "--eta", "0.5"),
        ),
    }
    mismatched = [name for name, (a, b) in checks.items() if a != b]
    ok = not mismatched
    report(capsys, "cli-determinism", ok,
           "all subcommands byte-identical" if ok else f"mismatch: {mismatched}")
    assert ok, mismatched
