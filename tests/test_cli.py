import concurrent.futures
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dfrcbeam import altmin, metrics, ula
from dfrcbeam.cli import (
    ALTMIN_SEED_OFFSET,
    ConfigError,
    ExperimentConfig,
    _chunk_designs,
    config_from_dict,
    design_trial,
    draw_trial,
    load_config,
    main,
    radar_target,
    run_beampattern,
    run_convergence,
    run_rate_sweep,
    write_csv,
)

TOY = dict(
    n_tx=12, n_rx=2, n_streams=2, n_rf=4, n_paths=4,
    target_angles_deg=[20.0],
    eta_values=[0.3, 0.8],
    snr_db_values=[0.0, 10.0],
    num_trials=5,
    base_seed=7,
    tolerance=1e-4,
    max_iterations=100,
    beampattern_grid_deg=[-90.0, 90.0, 0.5],
)


def toy_config(**overrides):
    doc = dict(TOY)
    doc.update(overrides)
    return config_from_dict(doc)


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "dfrcbeam.cli", *args],
        capture_output=True, text=True, timeout=300,
    )


def test_default_config_values():
    config = ExperimentConfig()
    assert config.n_tx == 120 and config.n_rf == 24
    assert config.total_power == 6.0  # defaults to n_rx
    assert len(config.eta_values) == 13
    assert config.eta_values[0] == 0.4 and config.eta_values[-1] == 1.0
    np.testing.assert_allclose(np.diff(config.eta_values), 0.05, atol=1e-12)
    config.validate()


def test_validate_reports_field_names():
    with pytest.raises(ConfigError, match="n_tx"):
        toy_config(n_tx=10).validate()  # not divisible by n_rf=4
    with pytest.raises(ConfigError, match="eta_values"):
        toy_config(eta_values=[0.5, 1.2]).validate()
    with pytest.raises(ConfigError, match="n_streams"):
        toy_config(n_streams=3).validate()  # exceeds n_rx=2
    with pytest.raises(ConfigError, match="num_trials"):
        toy_config(num_trials=0).validate()
    with pytest.raises(ConfigError, match="base_seed"):
        toy_config(base_seed=2**32).validate()
    with pytest.raises(ConfigError, match="beampattern_grid_deg"):
        toy_config(beampattern_grid_deg=[0.0, 1.0, 0.3]).validate()
    with pytest.raises(ConfigError, match="target_angles_deg"):
        toy_config(target_angles_deg=[95.0]).validate()


COUNTS = ("n_tx", "n_rx", "n_streams", "n_rf", "n_paths", "num_trials", "max_iterations")


@pytest.mark.parametrize("name", COUNTS)
def test_validate_rejects_a_bool_count(name):
    with pytest.raises(ConfigError, match=f"^{name} must be a positive integer, got True$"):
        replace(toy_config(), **{name: True}).validate()


def test_validate_takes_numpy_integer_counts():
    config = toy_config(num_trials=2)
    numpy_config = replace(config, **{name: np.int64(getattr(config, name)) for name in COUNTS})
    numpy_config.validate()
    assert run_rate_sweep(numpy_config)[1] == run_rate_sweep(config)[1]


def test_config_round_trip():
    config = toy_config()
    assert config_from_dict(config.to_dict()) == config
    default = ExperimentConfig()
    assert config_from_dict(default.to_dict()) == default


def test_config_from_dict_rejects_bad_documents():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"n_antennas": 8})
    with pytest.raises(ConfigError, match="n_tx"):
        config_from_dict({"n_tx": 12.5})
    with pytest.raises(ConfigError, match="eta_values"):
        config_from_dict({"eta_values": "all"})
    with pytest.raises(ConfigError, match="tolerance"):
        config_from_dict({"tolerance": None})  # only total_power may be null
    with pytest.raises(ConfigError):
        config_from_dict(["not", "a", "dict"])
    # only JSON numbers, and arrays of them, are accepted: no strings or bools
    bad_values = {"eta_values": ["01", [True, 0.5], [0.5, "1"]], "tolerance": [True, "1e-4"],
                  "total_power": [True], "n_tx": ["120", True],
                  "beampattern_grid_deg": [[-90.0, 90.0, True]],
                  "snr_db_values": [[10**400]]}  # beyond the float range
    for name, values in bad_values.items():
        for value in values:
            with pytest.raises(ConfigError, match=name):
                config_from_dict({name: value})
    assert config_from_dict({"total_power": None, "n_rx": 4, "n_streams": 4}).total_power == 4.0
    assert config_from_dict({"tolerance": 1, "n_tx": 120.0}) == ExperimentConfig(
        tolerance=1.0, n_tx=120)


def test_cli_rejects_a_null_tolerance(tmp_path, capsys):
    config_path = write_toy_config(tmp_path, tolerance=None)
    out = tmp_path / "x.csv"
    assert main(["convergence", "--eta", "0.5", "--config", str(config_path),
                 "--out", str(out)]) == 2
    assert "tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


def test_design_trial_seeds_are_trial_specific():
    config = toy_config()
    first = design_trial(config, eta=0.5, trial=0)
    second = design_trial(config, eta=0.5, trial=1)
    repeat = design_trial(config, eta=0.5, trial=0)
    assert not np.array_equal(first.channel.matrix, second.channel.matrix)
    assert np.array_equal(first.channel.matrix, repeat.channel.matrix)
    assert first.report.objective_trace == repeat.report.objective_trace
    assert ALTMIN_SEED_OFFSET == 2**32


def test_rate_sweep_schema_and_values():
    config = toy_config()
    columns, rows, info = run_rate_sweep(config)
    assert columns == ("eta", "snr_db", "mean_rate", "std_rate",
                       "mean_comm_err", "mean_radar_err", "mean_iterations")
    assert len(rows) == len(config.eta_values) * len(config.snr_db_values)
    keys = [(row[0], row[1]) for row in rows]
    assert keys == sorted(keys)
    for row in rows:
        assert row[2] >= 0.0            # mean_rate
        assert row[3] >= 0.0            # std_rate
        assert row[6] <= config.max_iterations
    assert info["total_runs"] == config.num_trials * len(config.eta_values)
    assert 0 <= info["converged_runs"] <= info["total_runs"]


def test_rate_sweep_single_trial_std_is_zero():
    columns, rows, _ = run_rate_sweep(toy_config(num_trials=1))
    assert all(row[3] == 0.0 for row in rows)
    _, again, _ = run_rate_sweep(toy_config(num_trials=1))
    assert rows == again


def test_rate_sweep_eta_one_is_best_on_average():
    config = toy_config(eta_values=[0.2, 0.6, 1.0], snr_db_values=[0.0], num_trials=8)
    _, rows, _ = run_rate_sweep(config)
    rates = {row[0]: row[2] for row in rows}
    assert rates[1.0] == max(rates.values())


def test_rate_sweep_worker_counts_agree():
    config = toy_config(num_trials=4)
    assert run_rate_sweep(config, workers=1) == run_rate_sweep(config, workers=3)


def test_rate_sweep_wraps_trial_failures():
    config = toy_config(num_trials=2)
    bad = config_from_dict({**config.to_dict(), "snr_db_values": [0.0]})

    import dfrcbeam.cli as cli_module
    original = cli_module.design_trial

    def boom(cfg, eta, trial, draw=None):
        if trial == 1:
            raise np.linalg.LinAlgError("synthetic failure")
        return original(cfg, eta, trial, draw)

    cli_module.design_trial = boom
    try:
        with pytest.raises(altmin.SolverError, match="trial 1"):
            run_rate_sweep(bad)
    finally:
        cli_module.design_trial = original


def test_rate_sweep_wraps_draw_failures(monkeypatch):
    import dfrcbeam.cli as cli_module
    original = cli_module.draw_trial

    def boom(cfg, trial):
        if trial == 1:
            raise np.linalg.LinAlgError("synthetic failure")
        return original(cfg, trial)

    monkeypatch.setattr(cli_module, "draw_trial", boom)
    with pytest.raises(altmin.SolverError, match="trial 1"):
        run_rate_sweep(toy_config(num_trials=2))


def test_rate_sweep_draws_each_trial_once_for_all_etas(monkeypatch):
    from dfrcbeam import channel, ula
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(channel, "generate_channel")
    counted(channel, "optimal_digital_beamformers")
    counted(ula, "radar_beamformer")
    run_rate_sweep(toy_config(num_trials=3, eta_values=[0.2, 0.5, 0.8, 1.0]))
    assert calls == {"generate_channel": 3, "optimal_digital_beamformers": 3,
                     "radar_beamformer": 1}


def two_equal_records(name):
    """Two separately built instances, equal in every value, of the record
    `name`: each holds arrays, directly or through another record."""
    import dfrcbeam.cli as cli_module
    config = toy_config()
    f_rad = radar_target(config)

    def build():
        realization, f_com, w_com = draw_trial(config, 0)
        [stack] = altmin.alternating_minimization_stack(
            [(f_com, [cli_module._altmin_config(config, 0.3, 0)])], f_rad, config.n_rf)
        draw = cli_module.TrialDraw(realization, f_com, w_com, f_rad, stack)
        design = design_trial(config, 0.3, 0, draw)
        report = design.report
        return {"TrialDesign": design, "TrialDraw": draw, "StackDesigns": stack,
                "ChannelRealization": realization, "AltMinReport": report,
                "HybridBeamformer": report.hybrid, "AnalogBeamformer": report.hybrid.analog,
                "BasebandBeamformer": report.hybrid.baseband,
                "AuxiliaryUnitary": altmin.AuxiliaryUnitary(report.unitary)}[name]

    return build(), build()


@pytest.mark.parametrize("name", [
    "AltMinReport", "AnalogBeamformer", "AuxiliaryUnitary", "BasebandBeamformer",
    "ChannelRealization", "HybridBeamformer", "StackDesigns", "TrialDesign", "TrialDraw"])
def test_records_that_hold_arrays_compare_by_identity(name):
    first, second = two_equal_records(name)
    assert type(first).__name__ == name
    assert first != second and not first == second
    assert first == first and first in [first]
    assert {first: 1, second: 2}[first] == 1


def test_design_trial_on_a_given_draw_matches_its_own_draw():
    config = toy_config()
    [[shared]] = _chunk_designs(config, [2], radar_target(config), (0.3,))
    own = design_trial(config, 0.3, 2)
    assert shared.report.objective_trace == own.report.objective_trace
    np.testing.assert_array_equal(shared.channel.matrix, own.channel.matrix)


def assert_same_report(actual, expected):
    assert np.array_equal(actual.phases, expected.phases)
    assert np.array_equal(actual.baseband, expected.baseband)
    assert np.array_equal(actual.unitary, expected.unitary)
    assert actual.objective_trace == expected.objective_trace
    assert actual.iterations_used == expected.iterations_used
    assert actual.converged == expected.converged


def test_rate_sweep_designs_equal_design_trial_bit_for_bit():
    config = toy_config(eta_values=[0.0, 0.3, 0.55, 0.8, 1.0], num_trials=3,
                        snr_db_values=[0.0])
    f_rad = radar_target(config)
    iterations = []
    for trial in range(config.num_trials):
        [designs] = _chunk_designs(config, [trial], f_rad, config.eta_values)
        reports = [design.report for design in designs]
        assert len({r.iterations_used for r in reports}) > 1
        for eta, report in zip(config.eta_values, reports):
            assert_same_report(report, design_trial(config, eta, trial).report)
        iterations.append([r.iterations_used for r in reports])
    _, rows, _ = run_rate_sweep(config)
    assert [row[6] for row in rows] == list(np.mean(iterations, axis=0))


def test_rate_sweep_scores_each_design_once_in_the_exit_check(monkeypatch):
    from dfrcbeam import hybrid
    # the number of designs each call scores: the leading stack size of its
    # first argument, a phase vector (or an analog stage) or a product
    designs = {"fitting_errors": [], "materialize_product": []}

    def counted(module, name, matrix_axes):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            shape = np.shape(getattr(args[0], "phases", args[0]))
            designs[name].append(int(np.prod(shape[:-matrix_axes])))
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(metrics, "fitting_errors", 2)
    counted(hybrid, "materialize_product", 1)
    counted(altmin, "materialize_product", 1)
    run_rate_sweep(toy_config(num_trials=3, eta_values=[0.2, 0.5, 0.8, 1.0]))
    # one design at each trial's start, then each trial's 4 designs in one
    # pass at its exit: 15 designs in all, each scored once
    for sizes in designs.values():
        assert sorted(sizes) == [1, 1, 1, 4, 4, 4]
    monkeypatch.undo()

    config = toy_config(num_trials=2, eta_values=[0.0, 0.5, 1.0])
    f_rad = radar_target(config)
    for trial in range(config.num_trials):
        [designs] = _chunk_designs(config, [trial], f_rad, config.eta_values)
        for eta, design in zip(config.eta_values, designs):
            report = design.report
            product = report.hybrid.materialize()
            comm, radar, _ = metrics.fitting_errors(product, design.f_com,
                                                    design.f_rad @ report.unitary, eta)
            assert np.array_equal(report.product, product)
            assert report.comm_error == comm and report.radar_error == radar


@pytest.mark.parametrize("relative, fails", [(1e-12, True), (1e-14, False)])
def test_the_exit_check_bounds_the_disagreement_by_the_objective_offset(monkeypatch,
                                                                        relative, fails):
    config = toy_config(num_trials=3, eta_values=[0.2, 0.5, 0.8])
    _, spoiled, _ = draw_trial(config, 1)
    original = metrics.fitting_errors

    def disagreeing(products, f_com, f_rad_u, eta):
        comm, radar, weighted = original(products, f_com, f_rad_u, eta)
        if np.ndim(products) == 3 and np.array_equal(f_com, spoiled):
            # the objective offset P + eta ||f_com||^2 + (1 - eta) ||f_rad||^2
            offsets = (config.total_power + eta * np.sum(np.abs(f_com) ** 2)
                       + (1.0 - eta) * np.sum(np.abs(f_rad_u) ** 2, axis=(1, 2)))
            weighted = np.where(eta == 0.5, weighted + relative * offsets, weighted)
        return comm, radar, weighted

    monkeypatch.setattr(metrics, "fitting_errors", disagreeing)
    if fails:
        with pytest.raises(altmin.SolverError, match=r"^trial 1 at eta=0\.5 failed: block-sum "
                                                     r"objective \S+ disagrees with the exact \S+$"):
            run_rate_sweep(config)
    else:
        run_rate_sweep(config)


@pytest.mark.parametrize("command, eta", [
    (["rate-sweep"], 0.3),  # the first of the toy eta_values
    (["beampattern", "--eta", "0.5", "--average-trials"], 0.5),
    (["convergence", "--eta", "0.5"], 0.5),
], ids=["rate-sweep", "beampattern", "convergence"])
def test_every_command_names_a_failed_trial(tmp_path, monkeypatch, capsys, command, eta):
    import dfrcbeam.cli as cli_module
    original = cli_module.draw_trial

    def boom(cfg, trial):
        if trial == 0:
            raise np.linalg.LinAlgError("synthetic failure")
        return original(cfg, trial)

    monkeypatch.setattr(cli_module, "draw_trial", boom)
    out = tmp_path / "x.csv"
    config_path = write_toy_config(tmp_path, num_trials=2)
    assert main([*command, "--config", str(config_path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"solver error: trial 0 at eta={eta} failed: "
                                       f"synthetic failure\n")
    assert not out.exists()


def test_rate_sweep_solves_each_chunk_as_one_stack(monkeypatch):
    stacks = []
    original = altmin.alternating_minimization_stack

    def recorded(problems, f_rad, num_rf_chains):
        stacks.append([[c.eta for c in configs] for _, configs in problems])
        return original(problems, f_rad, num_rf_chains)

    monkeypatch.setattr(altmin, "alternating_minimization_stack", recorded)
    etas = [0.2, 0.5, 0.8, 1.0]
    run_rate_sweep(toy_config(num_trials=3, eta_values=etas))
    assert stacks == [[etas] * 3]
    stacks.clear()
    # at most TRIALS_PER_STACK trials per stack, in chunks of even size
    run_rate_sweep(toy_config(num_trials=7, eta_values=etas))
    assert stacks == [[etas] * 4, [etas] * 3]


def test_rate_sweep_names_trial_and_eta_of_a_non_finite_member(monkeypatch):
    import dfrcbeam.cli as cli_module
    original = cli_module.draw_trial

    def overflowing(cfg, trial):
        realization, f_com, w_com = original(cfg, trial)
        if trial == 1:
            # finite, but its squared distances overflow at every eta
            f_com = np.full_like(f_com, 1e308)
        return realization, f_com, w_com

    monkeypatch.setattr(cli_module, "draw_trial", overflowing)
    with np.errstate(all="ignore"), pytest.raises(altmin.SolverError) as caught:
        run_rate_sweep(toy_config(num_trials=2, eta_values=[0.8, 0.0]))
    # the first failing eta in the order of eta_values, not the smallest
    assert str(caught.value) == "trial 1 at eta=0.8 failed: non-finite objective"


def test_a_failing_member_names_its_trial_within_the_chunk(monkeypatch):
    import dfrcbeam.cli as cli_module
    original = cli_module.draw_trial

    def overflowing(cfg, trial):
        realization, f_com, w_com = original(cfg, trial)
        if trial == 1:
            f_com = np.full_like(f_com, 1e308)
        return realization, f_com, w_com

    monkeypatch.setattr(cli_module, "draw_trial", overflowing)
    with np.errstate(all="ignore"), pytest.raises(altmin.SolverError) as caught:
        run_rate_sweep(toy_config(num_trials=3, eta_values=[0.0, 0.8]))
    # the start objective of trial 1 overflows at both etas; the first is named
    assert str(caught.value) == "trial 1 at eta=0.0 failed: non-finite objective"


def test_a_stack_failure_names_the_first_trial_that_fails_alone(monkeypatch):
    def failing(problems, f_rad, num_rf_chains):
        raise np.linalg.LinAlgError("synthetic failure")

    monkeypatch.setattr(altmin, "alternating_minimization_stack", failing)
    with pytest.raises(altmin.SolverError) as caught:
        run_rate_sweep(toy_config(num_trials=3, eta_values=[0.0, 0.8]))
    assert str(caught.value) == "trial 0 at eta=0.0 failed: synthetic failure"
    config = toy_config()
    with pytest.raises(altmin.SolverError) as caught:
        _chunk_designs(config, [4], radar_target(config), (0.5,))
    assert str(caught.value) == "trial 4 at eta=0.5 failed: synthetic failure"


def test_a_stack_failure_of_no_single_trial_names_the_chunk(monkeypatch):
    original = altmin.alternating_minimization_stack

    def failing(problems, f_rad, num_rf_chains):
        if len(problems) > 1:
            raise np.linalg.LinAlgError("synthetic failure")
        return original(problems, f_rad, num_rf_chains)

    monkeypatch.setattr(altmin, "alternating_minimization_stack", failing)
    with pytest.raises(altmin.SolverError) as caught:
        run_rate_sweep(toy_config(num_trials=3, eta_values=[0.0, 0.8]))
    assert str(caught.value) == "trials 0-2 failed: synthetic failure"


def test_a_lapack_failure_names_its_trial_within_the_chunk(monkeypatch):
    original = np.linalg.eigh
    calls, spoiled = [], []

    def failing(a, *args, **kwargs):
        # the unitary step's batched eigh of the Grams: from the second call of
        # the chunk's stack on, the Gram of trial 1 at eta 0.8 fails, whatever
        # stack it is in
        calls.append(len(a))
        if len(calls) == 2:
            spoiled.append(a[3].copy())
        if spoiled and any(np.array_equal(m, spoiled[0]) for m in a):
            raise np.linalg.LinAlgError("SVD did not converge")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(altmin.SolverError) as caught:
        run_rate_sweep(toy_config(num_trials=3, eta_values=[0.0, 0.8]))
    assert str(caught.value) == "trial 1 at eta=0.8 failed: SVD did not converge"
    assert calls[:2] == [6, 6]


def test_a_sweep_names_its_lowest_failing_trial_however_it_is_chunked(tmp_path, monkeypatch,
                                                                        capsys):
    # trial 2 fails only the exit check, after the loop, and only at its second
    # eta; trial 3 fails at its start at every eta, so a stack that holds both
    # raises trial 3's error first.  Both key on the channel seed, not on the
    # trial index, so a replay of trial 2 at its seed fails as in the sweep
    import dfrcbeam.cli as cli_module
    config = toy_config(n_rx=3, n_streams=3, target_angles_deg=[-30.0, 0.0, 30.0],
                        eta_values=[0.2, 0.5, 0.8], num_trials=10)
    spoiled = draw_trial(config, 2)[1]
    original_draw, original_errors = cli_module.draw_trial, metrics.fitting_errors

    def overflowing(cfg, trial):
        realization, f_com, w_com = original_draw(cfg, trial)
        if cfg.base_seed + trial == config.base_seed + 3:
            f_com = np.full_like(f_com, 1e308)
        return realization, f_com, w_com

    def disagreeing(products, f_com, f_rad_u, eta):
        comm, radar, exact = original_errors(products, f_com, f_rad_u, eta)
        # only the exit pass scores a stack of products
        if np.ndim(products) == 3 and np.array_equal(f_com, spoiled):
            exact = exact + np.equal(eta, 0.5)
        return comm, radar, exact

    monkeypatch.setattr(cli_module, "draw_trial", overflowing)
    monkeypatch.setattr(metrics, "fitting_errors", disagreeing)
    # the pool maps in process, in chunk order, as a process pool's map reports
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 8)
    messages = set()
    for trials_per_stack in (1, 5):
        monkeypatch.setattr(cli_module, "TRIALS_PER_STACK", trials_per_stack)
        for workers in (1, 4):
            with np.errstate(all="ignore"), pytest.raises(altmin.SolverError) as caught:
                run_rate_sweep(config, workers)
            messages.add(str(caught.value))
    [message] = messages
    prefix = "trial 2 at eta=0.5 failed: "
    assert message.startswith(prefix + "block-sum objective ")
    assert RecordingPool.sizes == [4, 4]

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    out = tmp_path / "x.csv"
    with np.errstate(all="ignore"):
        assert main(["rate-sweep", "--config", str(config_path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"solver error: {message}\n"
    # the replay the message gives: the design's channel seed and its eta
    assert main(["convergence", "--config", str(config_path), "--seed",
                 str(config.base_seed + 2), "--eta", "0.5", "--out", str(out)]) == 3
    error = message[len(prefix):]
    assert capsys.readouterr().err == f"solver error: trial 0 at eta=0.5 failed: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("failing", [0, 1])
def test_a_failing_design_names_its_trial_within_the_chunk(monkeypatch, failing):
    import dfrcbeam.cli as cli_module
    original = cli_module.design_trial

    def boom(cfg, eta, trial, draw=None):
        if trial == failing and eta == 0.8:
            raise np.linalg.LinAlgError("synthetic failure")
        return original(cfg, eta, trial, draw)

    monkeypatch.setattr(cli_module, "design_trial", boom)
    config = toy_config(eta_values=[0.0, 0.8])
    with pytest.raises(altmin.SolverError) as caught:
        _chunk_designs(config, [0, 1, 2], radar_target(config), config.eta_values)
    assert str(caught.value) == f"trial {failing} at eta=0.8 failed: synthetic failure"


def test_convergence_at_the_trial_seed_replays_the_chunk_design():
    # the replay the README gives for the design of trial t inside a sweep
    config = toy_config(eta_values=[0.0, 0.4, 0.9])
    chunk = _chunk_designs(config, [0, 1, 2], radar_target(config), config.eta_values)
    for trial, designs in enumerate(chunk):
        replay = replace(config, base_seed=config.base_seed + trial)
        for eta, design in zip(config.eta_values, designs):
            _, rows, info = run_convergence(replay, eta)
            assert [value for _, value in rows] == design.report.objective_trace
            assert info["iterations_used"] == design.report.iterations_used


def test_chunk_designs_equal_design_trial_bit_for_bit():
    import dfrcbeam.cli as cli_module
    config = toy_config(eta_values=[0.0, 0.4, 0.9], num_trials=3)
    chunk = cli_module._chunk_designs(config, [0, 1, 2], radar_target(config),
                                      config.eta_values)
    # one stack holds all three trials
    assert len({id(design.report) for designs in chunk for design in designs}) == 9
    for trial, designs in enumerate(chunk):
        for eta, design in zip(config.eta_values, designs):
            alone = design_trial(config, eta, trial)
            assert_same_report(design.report, alone.report)
            assert np.array_equal(design.report.product, alone.report.product)
            assert np.array_equal(design.f_com, alone.f_com)


def test_rate_sweep_forms_phases_once_per_design(monkeypatch):
    calls = []
    original = altmin.canonical_phases

    def counted(phases):
        calls.append(np.shape(phases))
        return original(phases)

    monkeypatch.setattr(altmin, "canonical_phases", counted)
    config = toy_config(num_trials=3, eta_values=[0.2, 0.5, 0.8, 1.0])
    run_rate_sweep(config)
    # one (designs, n_tx) call per trial: 12 designs, each phased once
    assert calls == [(4, config.n_tx)] * 3


@pytest.mark.parametrize("trials_per_stack", [1, 3, 5])
def test_rate_sweep_bytes_do_not_depend_on_chunking(tmp_path, monkeypatch, trials_per_stack):
    import dfrcbeam.cli as cli_module
    config_path = write_toy_config(tmp_path, num_trials=7)
    expected = tmp_path / "expected.csv"
    assert main(["rate-sweep", "--config", str(config_path), "--out", str(expected)]) == 0
    monkeypatch.setattr(cli_module, "TRIALS_PER_STACK", trials_per_stack)
    for workers in (1, 2, 3):
        out = tmp_path / f"workers_{workers}.csv"
        assert main(["rate-sweep", "--config", str(config_path), "--workers", str(workers),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes()


def test_importing_the_cli_loads_no_process_pool():
    code = ("import sys, dfrcbeam.cli; "
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_a_run_on_the_process_arguments_freezes_the_import_heap(tmp_path):
    config_path = write_toy_config(tmp_path, num_trials=1)
    code = ("import gc, sys\n"
            "from dfrcbeam import cli\n"
            "frozen = []\n"
            "write_csv = cli.write_csv\n"
            "def recording(*args):\n"
            "    frozen.append(gc.get_freeze_count())\n"
            "    write_csv(*args)\n"
            "cli.write_csv = recording\n"
            "print(cli.main(), frozen)\n")
    done = subprocess.run([sys.executable, "-c", code, "convergence", "--eta", "0.5",
                           "--config", str(config_path), "--out", str(tmp_path / "trace.csv")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    status, frozen = done.stdout.split(" ", 1)
    assert status == "0"
    assert json.loads(frozen)[0] > 0


def test_a_run_on_given_arguments_leaves_the_collector_alone(tmp_path, monkeypatch):
    import gc

    import dfrcbeam.cli as cli_module
    collector = []
    write_csv = cli_module.write_csv

    def recording(*args):
        collector.append((gc.isenabled(), gc.get_freeze_count()))
        write_csv(*args)

    monkeypatch.setattr(cli_module, "write_csv", recording)
    before = (gc.isenabled(), gc.get_freeze_count())
    config_path = write_toy_config(tmp_path, num_trials=1)
    assert main(["convergence", "--eta", "0.5", "--config", str(config_path),
                 "--out", str(tmp_path / "trace.csv")]) == 0
    assert collector == [before]
    assert (gc.isenabled(), gc.get_freeze_count()) == before


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("workers, tasks, cpus, expected", [
    (8, 1, 4, []),      # one task: serial, no pool
    (8, 3, 4, [3]),     # never more workers than tasks
    (8, 6, 4, [4]),     # never more workers than cores
    (2, 6, 4, [2]),     # the request itself when it is the smallest
    (8, 6, None, []),   # unknown core count: serial
])
def test_map_trials_bounds_the_pool(monkeypatch, workers, tasks, cpus, expected):
    import dfrcbeam.cli as cli_module
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: cpus)
    results = cli_module._map_trials(lambda x: x * x, list(range(tasks)), workers)
    assert results == [x * x for x in range(tasks)]
    assert RecordingPool.sizes == expected


@pytest.mark.parametrize("args, expected", [
    (["beampattern", "--eta", "0.4"], 1),       # one task: in-process
    (["rate-sweep"], 4),                         # 5 trials on 4 cores
    (["convergence", "--eta", "0.4"], 1),        # never uses the pool
])
def test_sidecar_records_the_workers_used(tmp_path, monkeypatch, args, expected):
    import dfrcbeam.cli as cli_module
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 4)
    out = tmp_path / "x.csv"
    config_path = write_toy_config(tmp_path)
    assert main([*args, "--workers", "8", "--config", str(config_path), "--out", str(out)]) == 0
    assert json.loads((tmp_path / "x.csv.meta.json").read_text())["workers"] == expected
    assert RecordingPool.sizes == ([expected] if expected > 1 else [])


def test_trial_chunks_are_the_array_split_of_the_trials(monkeypatch):
    import dfrcbeam.cli as cli_module
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 8)
    for num_trials in range(1, 1001):
        for workers in range(1, 9):
            count = max(-(-num_trials // cli_module.TRIALS_PER_STACK), min(workers, num_trials))
            expected = [chunk.tolist() for chunk in np.array_split(np.arange(num_trials), count)]
            chunks = cli_module._trial_chunks(num_trials, workers)
            assert [list(chunk) for chunk in chunks] == expected


def test_a_failing_chunk_cancels_the_queued_ones(tmp_path, monkeypatch):
    # the pool's map cancels the chunks no worker has taken once a result
    # raises; only those already handed to a worker still run
    import dfrcbeam.cli as cli_module
    original = cli_module.draw_trial
    drawn = tmp_path / "drawn"
    drawn.mkdir()

    def marked(cfg, trial):
        # the forked workers share the file system, so each trial leaves a marker
        (drawn / str(trial)).touch()
        if trial == 0:
            raise np.linalg.LinAlgError("synthetic failure")
        return original(cfg, trial)

    monkeypatch.setattr(cli_module, "draw_trial", marked)
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 2)
    config_path = write_toy_config(tmp_path, num_trials=100)
    out = tmp_path / "x.csv"
    assert main(["rate-sweep", "--workers", "2", "--config", str(config_path),
                 "--out", str(out)]) == 3
    chunks_run = {int(name) // cli_module.TRIALS_PER_STACK for name in os.listdir(drawn)}
    assert 0 in chunks_run and len(chunks_run) < 100 // cli_module.TRIALS_PER_STACK


def test_beampattern_row_count_matches_grid():
    columns, rows, header, info = run_beampattern(toy_config(), eta=0.5)
    assert columns == ("angle_deg", "gain")
    assert len(rows) == 361
    assert rows[0][0] == -90.0 and rows[-1][0] == 90.0
    assert all(gain >= -1e-9 for _, gain in rows)
    assert header["averaged_trials"] == 1
    assert info["total_runs"] == 1


def test_beampattern_radar_only_hits_target():
    config = toy_config()
    _, rows, _, _ = run_beampattern(config, eta=0.0)
    deviations = metrics.peak_deviation(rows, list(config.target_angles_deg))
    assert max(deviations) <= 0.5 + 1e-9


def test_beampattern_average_mode_changes_output():
    config = toy_config(num_trials=3)
    _, single, _, info_single = run_beampattern(config, eta=0.5)
    _, averaged, _, info_avg = run_beampattern(config, eta=0.5, average_trials=True)
    assert info_single["total_runs"] == 1
    assert info_avg["total_runs"] == 3
    assert single != averaged
    _, averaged_parallel, _, _ = run_beampattern(config, eta=0.5, average_trials=True,
                                                 workers=2)
    assert averaged == averaged_parallel


def record_calls(monkeypatch, module, name):
    """Wraps module.name so each call's first argument is recorded; returns the list."""
    seen = []
    original = getattr(module, name)

    def recording(first, *args, **kwargs):
        seen.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return seen


def test_averaged_beampattern_makes_one_covariance_product(monkeypatch):
    config = toy_config(num_trials=3)
    products = record_calls(monkeypatch, ula, "covariance_of")
    run_beampattern(config, eta=0.5, average_trials=True)
    assert [p.shape for p in products] == [(config.n_tx, 3 * config.n_streams)]


def test_beampattern_pool_results_carry_no_covariance(monkeypatch):
    import dfrcbeam.cli as cli_module
    config = toy_config(num_trials=3)
    original = cli_module._map_trials
    results = []

    def recording(worker, tasks, workers):
        mapped = original(worker, tasks, workers)
        results.extend(mapped)
        return mapped

    monkeypatch.setattr(cli_module, "_map_trials", recording)
    run_beampattern(config, eta=0.5, average_trials=True, workers=2)
    assert len(results) == 3
    for result in results:
        arrays = [v for v in result.values() if isinstance(v, np.ndarray)]
        assert [a.shape for a in arrays] == [(config.n_tx, config.n_streams)]


def test_averaged_covariance_is_the_mean_of_the_trial_covariances(monkeypatch):
    config = toy_config(num_trials=4)
    covariances = record_calls(monkeypatch, ula, "beampattern")
    run_beampattern(config, eta=0.5, average_trials=True)
    monkeypatch.undo()
    designs = _chunk_designs(config, list(range(4)), radar_target(config), (0.5,))
    expected = np.mean([ula.covariance_of(d.report.product) for [d] in designs], axis=0)
    [averaged] = covariances
    assert np.array_equal(averaged, averaged.conj().T)
    assert np.linalg.norm(averaged - expected) <= 1e-13 * np.linalg.norm(expected)


def test_one_trial_beampattern_is_the_pattern_of_its_design_bit_for_bit():
    config = toy_config()
    _, rows, _, _ = run_beampattern(config, eta=0.5)
    [[design]] = _chunk_designs(config, [0], radar_target(config), (0.5,))
    grid = ula.angle_grid_deg(*config.beampattern_grid_deg)
    gains = ula.beampattern(ula.covariance_of(design.report.product),
                            ula.UlaConfig(config.n_tx), np.deg2rad(grid))
    assert [gain for _, gain in rows] == gains.tolist()


def test_convergence_trace_properties():
    config = toy_config()
    columns, rows, info = run_convergence(config, eta=0.5)
    assert columns == ("iteration", "objective")
    iterations = [row[0] for row in rows]
    objectives = [row[1] for row in rows]
    assert iterations == list(range(len(rows)))
    slack = 1e-9 * (1.0 + objectives[0])
    assert all(b <= a + slack for a, b in zip(objectives, objectives[1:]))
    assert info["iterations_used"] == len(rows) - 1


def test_convergence_huge_tolerance_records_one_iteration():
    _, rows, info = run_convergence(toy_config(tolerance=1e6), eta=0.5)
    assert len(rows) == 2
    assert info["iterations_used"] == 1
    assert info["converged_runs"] == 1


def test_convergence_reference_scale_runs_converge():
    config = ExperimentConfig()
    for seed in (1, 2, 3):
        _, rows, info = run_convergence(
            config_from_dict({**config.to_dict(), "base_seed": seed}), eta=0.4)
        assert info["converged_runs"] == 1
        assert info["iterations_used"] <= config.max_iterations


def test_write_csv_formats_17_digits(tmp_path):
    out = tmp_path / "table.csv"
    write_csv(out, ("a", "b"), [(1, 1.0 / 3.0)], {"note": "x"})
    text = out.read_text()
    assert text == "# note=x\na,b\n1,0.33333333333333331\n"


def test_main_reports_solver_failure_as_exit_3(tmp_path, monkeypatch):
    import dfrcbeam.cli as cli_module

    def explode(config, workers=1):
        raise altmin.SolverError("synthetic instability")

    monkeypatch.setattr(cli_module, "run_rate_sweep", explode)
    out = tmp_path / "rates.csv"
    code = main(["rate-sweep", "--out", str(out)])
    assert code == 3
    assert not out.exists()


def write_toy_config(tmp_path, **overrides):
    doc = dict(TOY)
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_end_to_end_rate_sweep(tmp_path):
    config_path = write_toy_config(tmp_path)
    out = tmp_path / "rates.csv"
    result = run_cli(["rate-sweep", "--config", str(config_path), "--out", str(out)])
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "eta,snr_db,mean_rate,std_rate,mean_comm_err,mean_radar_err,mean_iterations"
    assert len(lines) == 1 + 4  # 2 etas x 2 snrs
    meta = json.loads((tmp_path / "rates.csv.meta.json").read_text())
    assert meta["command"] == "rate-sweep"
    assert meta["config"]["n_tx"] == 12
    assert meta["total_runs"] == 10
    assert meta["wall_time_s"] >= 0.0


def test_sidecar_records_the_numeric_environment(tmp_path):
    config_path = write_toy_config(tmp_path)
    out = tmp_path / "trace.csv"
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "1"
    result = subprocess.run(
        [sys.executable, "-m", "dfrcbeam.cli", "convergence", "--config", str(config_path),
         "--eta", "0.5", "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, result.stderr
    numeric = json.loads((tmp_path / "trace.csv.meta.json").read_text())["numeric_environment"]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26
        blas = {"name": None, "version": None}
    assert numeric == {
        "numpy": np.__version__,
        "blas_name": blas["name"],
        "blas_version": blas["version"],
        "thread_env": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
                       "MKL_NUM_THREADS": None},
        "cpu_count": os.cpu_count(),
    }


def test_cli_seed_override_changes_bytes(tmp_path):
    config_path = write_toy_config(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_cli(["convergence", "--config", str(config_path), "--eta", "0.5",
                    "--out", str(out_a)]).returncode == 0
    assert run_cli(["convergence", "--config", str(config_path), "--eta", "0.5",
                    "--seed", "99", "--out", str(out_b)]).returncode == 0
    assert out_a.read_bytes() != out_b.read_bytes()
    meta = json.loads((tmp_path / "b.csv.meta.json").read_text())
    assert meta["config"]["base_seed"] == 99


def test_cli_rejects_invalid_inputs(tmp_path):
    config_path = write_toy_config(tmp_path, n_tx=10)  # breaks divisibility
    out = tmp_path / "x.csv"
    result = run_cli(["rate-sweep", "--config", str(config_path), "--out", str(out)])
    assert result.returncode == 2
    assert "n_tx" in result.stderr

    result = run_cli(["rate-sweep", "--config", str(tmp_path / "nope.json"),
                      "--out", str(out)])
    assert result.returncode == 2

    config_path = write_toy_config(tmp_path)
    result = run_cli(["beampattern", "--config", str(config_path), "--eta", "1.5",
                      "--out", str(out)])
    assert result.returncode == 2

    result = run_cli(["rate-sweep", "--config", str(config_path), "--workers", "0",
                      "--out", str(out)])
    assert result.returncode == 2
    assert not out.exists()


@pytest.mark.parametrize("text", [
    b'{"n_tx": 12, "note\xff": 1}',
    b"[" * 100_000 + b"]" * 100_000,
    b'{"num_trials": 1' + b"0" * 5000 + b"}",
], ids=["not-utf8", "nested-too-deep", "integer-too-long"])
def test_cli_rejects_a_config_file_that_is_not_json(tmp_path, capsys, text):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(text)
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(config_path)
    out = tmp_path / "x.csv"
    assert main(["rate-sweep", "--config", str(config_path), "--out", str(out)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["missing/x.csv", "folder"])
def test_cli_rejects_an_output_path_it_cannot_write_before_any_work(tmp_path, capsys,
                                                                    monkeypatch, out):
    import dfrcbeam.cli as cli_module

    def unreachable(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli_module, "run_rate_sweep", unreachable)
    (tmp_path / "folder").mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main(["rate-sweep", "--out", str(tmp_path / out)]) == 2
    assert str(tmp_path / out) in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("writer", ["write_csv", "write_metadata"])
def test_cli_reports_a_failed_write_as_exit_2(tmp_path, capsys, monkeypatch, writer):
    import dfrcbeam.cli as cli_module

    def refuse(path, *args):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli_module, writer, refuse)
    config_path = write_toy_config(tmp_path)
    out = tmp_path / "trace.csv"
    assert main(["convergence", "--eta", "0.5", "--config", str(config_path),
                 "--out", str(out)]) == 2
    failed = out if writer == "write_csv" else tmp_path / "trace.csv.meta.json"
    assert f"cannot write {failed}: " in capsys.readouterr().err
    # neither half of a result stays behind: the exit code disowns the CSV too
    assert not out.exists()
    assert not (tmp_path / "trace.csv.meta.json").exists()


@pytest.mark.parametrize("command", [["rate-sweep"], ["beampattern", "--eta", "0.5"],
                                     ["convergence", "--eta", "0.5"]])
def test_a_sidecar_path_that_is_a_directory_leaves_no_csv(tmp_path, capsys, command):
    config_path = write_toy_config(tmp_path)
    out = tmp_path / "blocked.csv"
    (tmp_path / "blocked.csv.meta.json").mkdir()
    assert main([*command, "--config", str(config_path), "--out", str(out)]) == 2
    assert f"cannot write {out}.meta.json: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, field, value", [
    (["rate-sweep"], "snr_db_values", [math.nan]),
    (["convergence", "--eta", "0.5"], "tolerance", math.inf),
    (["rate-sweep"], "total_power", math.inf),
    (["beampattern", "--eta", "0.5"], "beampattern_grid_deg", [-90.0, 90.0, math.inf]),
])
def test_cli_rejects_non_finite_config_values(tmp_path, capsys, command, field, value):
    config_path = write_toy_config(tmp_path, **{field: value})
    out = tmp_path / "x.csv"
    assert main([*command, "--config", str(config_path), "--out", str(out)]) == 2
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("snr_db", [1e308, 3090.0])
def test_cli_rejects_an_snr_whose_linear_value_overflows(tmp_path, capsys, snr_db):
    config_path = write_toy_config(tmp_path, snr_db_values=[0.0, snr_db])
    out = tmp_path / "x.csv"
    assert main(["rate-sweep", "--config", str(config_path), "--out", str(out)]) == 2
    assert "snr_db_values" in capsys.readouterr().err
    assert not out.exists()


def test_cli_accepts_an_snr_of_plus_or_minus_3000_db(tmp_path):
    config_path = write_toy_config(tmp_path, num_trials=2, snr_db_values=[-3000.0, 3000.0])
    out = tmp_path / "x.csv"
    assert main(["rate-sweep", "--config", str(config_path), "--out", str(out)]) == 0
    rates = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
    assert len(rates) == 4 and all(math.isfinite(r) for r in rates)


@pytest.mark.parametrize("command", [
    ["rate-sweep"],
    ["beampattern", "--eta", "0.5", "--average-trials"],
    ["convergence", "--eta", "0.5"],
], ids=["rate-sweep", "beampattern", "convergence"])
def test_sidecar_records_cpu_time(tmp_path, command):
    config_path = write_toy_config(tmp_path, num_trials=2)
    out = tmp_path / "x.csv"
    assert main([*command, "--config", str(config_path), "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
    assert isinstance(meta["cpu_time_s"], float) and meta["cpu_time_s"] >= 0.0


@pytest.mark.parametrize("command", [["rate-sweep"], ["convergence", "--eta", "0.5"]],
                         ids=["rate-sweep", "convergence"])
def test_commands_without_a_pattern_ignore_its_grid_size(tmp_path, command):
    # 1.8e11 points: validation counts them instead of forming the grid
    config_path = write_toy_config(tmp_path, num_trials=1,
                                   beampattern_grid_deg=[-90.0, 90.0, 1e-9])
    out = tmp_path / "x.csv"
    assert main([*command, "--config", str(config_path), "--out", str(out)]) == 0
    assert out.exists()


def test_beampattern_rejects_a_grid_it_cannot_hold(tmp_path, capsys):
    config_path = write_toy_config(tmp_path, beampattern_grid_deg=[-90.0, 90.0, 1e-9])
    out = tmp_path / "x.csv"
    assert main(["beampattern", "--eta", "0.5", "--config", str(config_path),
                 "--out", str(out)]) == 2
    assert "180000000001 points" in capsys.readouterr().err
    assert not out.exists()


def test_cli_beampattern_header_and_determinism(tmp_path):
    config_path = write_toy_config(tmp_path)
    out_a = tmp_path / "bp_a.csv"
    out_b = tmp_path / "bp_b.csv"
    for out in (out_a, out_b):
        result = run_cli(["beampattern", "--config", str(config_path), "--eta", "0.3",
                          "--out", str(out)])
        assert result.returncode == 0, result.stderr
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0].startswith("# command=beampattern")
    assert any(line.startswith("# eta=") for line in lines[:5])
    assert lines[5] == "angle_deg,gain"
    assert len(lines) == 5 + 1 + 361


def run_cli_with_blas_threads(args, threads):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    return subprocess.run([sys.executable, "-m", "dfrcbeam.cli", *args],
                          capture_output=True, text=True, timeout=300, env=env)


@pytest.mark.parametrize("command", [
    ["rate-sweep"],
    ["beampattern", "--eta", "0.4", "--average-trials"],
], ids=["rate-sweep", "beampattern"])
def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path, command):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"num_trials": 2}))  # reference dimensions
    outputs = {}
    for threads in (1, 2, None):
        out = tmp_path / f"threads_{threads}.csv"
        result = run_cli_with_blas_threads(
            [*command, "--config", str(config_path), "--seed", "1", "--out", str(out)], threads)
        assert result.returncode == 0, result.stderr
        outputs[threads] = out.read_bytes()
    assert outputs[1] == outputs[2] == outputs[None]


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def thread_env(**settings):
    """This process's environment with the BLAS thread variables replaced by `settings`."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(settings)
    return env


def run_python(code, env):
    """Run `code` in a fresh interpreter; returns its thread variables before
    and after, and whether numpy got loaded."""
    probe = ("import json, os, sys\n"
             f"names = {THREAD_VARIABLES!r}\n"
             "before = [os.environ.get(n) for n in names]\n"
             f"{code}\n"
             "print(json.dumps([before, [os.environ.get(n) for n in names],"
             " 'numpy' in sys.modules]))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("settings", [{}, {"OMP_NUM_THREADS": ""}], ids=["unset", "empty"])
def test_the_cli_runs_blas_on_one_thread_unless_told_otherwise(settings):
    # an empty value sets no count: OpenBLAS would use its default
    _, after, _ = run_python("import dfrcbeam.cli", thread_env(**settings))
    assert after == ["1", "1", "1"]


@pytest.mark.parametrize("name", THREAD_VARIABLES)
def test_the_cli_leaves_a_thread_count_the_user_set(name):
    before, after, _ = run_python("import dfrcbeam.cli", thread_env(**{name: "3"}))
    assert after == before == [("3" if n == name else None) for n in THREAD_VARIABLES]


@pytest.mark.parametrize("code", [
    "import numpy, dfrcbeam.cli",
    "import dfrcbeam",
    "from dfrcbeam import AltMinConfig",
    "import dfrcbeam.altmin",
])
def test_library_imports_leave_the_environment_alone(code):
    before, after, _ = run_python(code, thread_env())
    assert after == before == [None, None, None]


def test_importing_the_package_loads_no_numpy():
    _, _, numpy_loaded = run_python("import dfrcbeam", thread_env())
    assert not numpy_loaded
    _, _, numpy_loaded = run_python("import dfrcbeam; dfrcbeam.AltMinConfig", thread_env())
    assert numpy_loaded


def test_the_package_exports_its_names_lazily():
    import dfrcbeam
    for name in dfrcbeam.__all__:
        assert getattr(dfrcbeam, name) is getattr(getattr(dfrcbeam, dfrcbeam._MODULE_OF[name]), name)
    assert set(dfrcbeam.__all__) <= set(dir(dfrcbeam))
    with pytest.raises(AttributeError):
        dfrcbeam.no_such_name


@pytest.mark.parametrize("settings, pinned, recorded", [
    ({}, True, "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, False, "2"),
], ids=["unset", "set"])
def test_sidecar_records_whether_the_blas_threads_were_pinned(tmp_path, settings, pinned,
                                                               recorded):
    config_path = write_toy_config(tmp_path, num_trials=2)
    out = tmp_path / "x.csv"
    result = subprocess.run(
        [sys.executable, "-m", "dfrcbeam.cli", "rate-sweep", "--config", str(config_path),
         "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=thread_env(**settings),
    )
    assert result.returncode == 0, result.stderr
    meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
    assert meta["blas_threads_pinned"] is pinned
    assert meta["numeric_environment"]["thread_env"]["OPENBLAS_NUM_THREADS"] == recorded


def test_large_array_bytes_with_no_thread_setting_are_the_single_thread_bytes(tmp_path):
    # the thin channel SVD at n_tx 2400 changes with the BLAS thread count
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"n_tx": 2400, "num_trials": 2, "eta_values": [0.6]}))
    outputs = {}
    for label, settings in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / f"{label}.csv"
        result = subprocess.run(
            [sys.executable, "-m", "dfrcbeam.cli", "rate-sweep", "--config", str(config_path),
             "--seed", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=300, env=thread_env(**settings),
        )
        assert result.returncode == 0, result.stderr
        outputs[label] = out.read_bytes()
    assert outputs["unset"] == outputs["one"]


@pytest.mark.parametrize("snr_db", [3080.0, 3082.0])
def test_cli_rejects_an_snr_whose_rates_overflow(tmp_path, capsys, snr_db):
    # the linear SNR fits a float, but the rate formula overflows
    config_path = write_toy_config(tmp_path, num_trials=2, snr_db_values=[0.0, snr_db])
    out = tmp_path / "x.csv"
    assert main(["rate-sweep", "--config", str(config_path), "--out", str(out)]) == 2
    assert f"snr_db_values entry {snr_db!r}" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "x.csv.meta.json").exists()


def test_cli_names_the_total_power_whose_rates_overflow(tmp_path, capsys):
    # 30 dB is an ordinary SNR: the rates overflow because of the power
    config_path = write_toy_config(tmp_path, num_trials=2, total_power=1e306,
                                   snr_db_values=[-10.0, 30.0])
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["rate-sweep", "--config", str(config_path), "--out", str(out)]) == 2
    assert "snr_db_values entry 30.0 and total_power 1e+306" in capsys.readouterr().err
    assert not seen
    assert not out.exists()
    assert not (tmp_path / "x.csv.meta.json").exists()
