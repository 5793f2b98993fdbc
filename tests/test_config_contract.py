"""Every config document either runs to a finite CSV or is refused.

The command line's contract on its input: a run exits 0 with a sidecar and
only finite CSV cells, 2 for a config fault with no CSV written, or 3 for a
solver fault.  The fixed cases are inputs that once escaped it; the property
test draws documents with extreme values in every field.  No case allocates
to find out: a count too large to hold is refused before anything is formed,
or the allocation is patched to fail.  Beneath the command line,
`ExperimentConfig` refuses a field of the wrong kind when it is made, naming
the field, and stores plain Python numbers.
"""

import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfrcbeam import channel, ula
from dfrcbeam.cli import (ALTMIN_SEED_OFFSET, ConfigError, ExperimentConfig, config_from_dict,
                          main)

# the CI smoke-test dimensions
TINY = {"n_tx": 12, "n_rf": 4, "n_streams": 2, "n_rx": 2, "n_paths": 3,
        "target_angles_deg": [0.0], "num_trials": 2,
        "beampattern_grid_deg": [-90.0, 90.0, 1.0]}

RATE_SWEEP = ["rate-sweep"]
BEAMPATTERN = ["beampattern", "--eta", "0.5", "--average-trials"]


def run(directory: Path, doc: dict, command, *extra):
    """Exit code and CSV path of one command on `doc`."""
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(doc))
    out = directory / "out.csv"
    for stale in (out, directory / "out.csv.meta.json"):
        stale.unlink(missing_ok=True)
    return main([*command, *extra, "--config", str(config_path), "--out", str(out)]), out


def assert_contract(code: int, out: Path) -> None:
    assert code in (0, 2, 3)
    if code == 0:
        assert Path(f"{out}.meta.json").exists()
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        cells = [float(cell) for line in lines[1:] for cell in line.split(",")]
        assert cells and all(math.isfinite(cell) for cell in cells)
    elif code == 2:
        assert not out.exists()


FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]
COUNTS = ("n_tx", "n_rx", "n_streams", "n_rf", "n_paths", "num_trials", "max_iterations")


@pytest.mark.parametrize("name", FIELDS)
def test_a_field_of_the_wrong_kind_is_refused_when_the_config_is_made(name):
    default = getattr(ExperimentConfig(), name)
    is_list = isinstance(default, tuple)
    bad = ["12", True, math.nan, 1.0 if is_list else [default]]
    if name != "total_power":  # None there means n_rx
        bad.append(None)
    for value in bad + ([["12"], [True], [math.nan]] if is_list else []):
        with pytest.raises(ConfigError, match=f"^{name} "):
            ExperimentConfig(**{name: value})


def test_base_seed_is_an_unsigned_32_bit_integer():
    for seed in (True, -1, 2**32, 7.0):
        with pytest.raises(ConfigError, match="^base_seed "):
            ExperimentConfig(base_seed=seed)


def test_numpy_integers_are_stored_as_int():
    plain = ExperimentConfig(base_seed=2**32 - 1)
    numpy = ExperimentConfig(**{name: np.int64(getattr(plain, name)) for name in COUNTS},
                             base_seed=np.uint32(2**32 - 1))
    assert numpy == plain
    assert all(type(getattr(numpy, name)) is int for name in (*COUNTS, "base_seed"))
    # the solver seed of the last trial, base_seed + trial + 2**32, stays exact
    assert numpy.base_seed + numpy.num_trials - 1 + ALTMIN_SEED_OFFSET == 2**33 + 98
    assert json.loads(json.dumps(numpy.to_dict())) == plain.to_dict()


@pytest.mark.parametrize("step", [1e-16, 1e-20, 1e-300, 5e-324])
def test_a_grid_no_array_can_hold_exits_2(tmp_path, capsys, step):
    code, out = run(tmp_path, {**TINY, "beampattern_grid_deg": [-90.0, 90.0, step]},
                    BEAMPATTERN)
    assert code == 2
    assert "beampattern_grid_deg" in capsys.readouterr().err
    assert not out.exists()


def test_a_fine_grid_still_validates():
    config_from_dict({**TINY, "beampattern_grid_deg": [-90.0, 90.0, 0.005]}).validate()
    assert ula.angle_grid_size(-90.0, 90.0, 0.005) == 36001


def test_num_trials_keeps_channel_and_solver_seeds_disjoint():
    config_from_dict({**TINY, "num_trials": ALTMIN_SEED_OFFSET}).validate()
    with pytest.raises(ConfigError, match="num_trials"):
        config_from_dict({**TINY, "num_trials": ALTMIN_SEED_OFFSET + 1}).validate()


def test_a_trial_count_is_refused_before_it_allocates(tmp_path, capsys):
    code, out = run(tmp_path, {**TINY, "num_trials": 1e15}, RATE_SWEEP)
    assert code == 2
    assert "num_trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_channel_too_large_to_draw_is_a_config_fault(tmp_path, capsys, monkeypatch, workers):
    import dfrcbeam.cli as cli_module

    def too_large(params):
        raise MemoryError
    monkeypatch.setattr(channel, "generate_channel", too_large)
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 2)
    code, out = run(tmp_path, {**TINY, "num_trials": 10}, RATE_SWEEP,
                    "--workers", workers)
    assert code == 2
    err = capsys.readouterr().err
    assert "n_paths" in err and "n_tx" in err
    assert not out.exists()


@pytest.mark.parametrize("dims", [
    TINY,
    {"num_trials": 2, "eta_values": [0.4, 0.7, 1.0]},  # the reference n_tx of 120
], ids=["n_tx=12", "n_tx=120"])
def test_a_tiny_total_power_is_never_a_solver_fault(tmp_path, dims):
    for power in (1e-300, 1e-303, 1e-305, 1e-306, 1e-307, 1e-308, 1e-310):
        code, out = run(tmp_path, {**dims, "total_power": power}, RATE_SWEEP)
        assert code in (0, 2), power
        assert_contract(code, out)
    assert run(tmp_path, {**dims, "total_power": 1e-300}, RATE_SWEEP)[0] == 0


@pytest.mark.parametrize("doc, eta", [
    ({**TINY, "total_power": 1e300}, "0"),
    ({**TINY, "total_power": 1e100}, "0"),
    ({**TINY, "total_power": 1e100, "n_rf": 12, "n_streams": 1, "tolerance": 1e-300}, "1"),
], ids=["1e300", "1e100", "1e100-one-antenna-per-chain"])
def test_a_huge_total_power_is_not_a_solver_fault(tmp_path, doc, eta):
    # designs that fit almost perfectly: the objective is a difference of terms
    # of the power's size, which the exit check must allow for
    code, out = run(tmp_path, doc, ["convergence", "--eta", eta])
    assert code == 0
    assert_contract(code, out)


# layouts of one chain, of one antenna per chain and of a few in between, and
# the commands; every config stays at 2 trials and 3 eta values at most
POWER_LAYOUTS = {
    "12/4": TINY, "12/1": {**TINY, "n_rf": 1}, "12/12": {**TINY, "n_rf": 12},
    "120/24": {"num_trials": 2, "eta_values": [0.4, 0.7, 1.0]},
    "120/2": {"num_trials": 2, "n_rf": 2, "eta_values": [0.4, 0.7, 1.0]},
}
POWER_COMMANDS = {"rate-sweep": RATE_SWEEP, "beampattern": BEAMPATTERN,
                  "convergence": ["convergence", "--eta", "0.6"]}


@pytest.mark.parametrize("command", POWER_COMMANDS)
@pytest.mark.parametrize("layout", POWER_LAYOUTS)
def test_no_total_power_is_a_solver_fault(tmp_path, layout, command):
    doc = POWER_LAYOUTS[layout]
    config = ExperimentConfig(**doc)
    # validate()'s ceiling: DBL_MAX / (2 max(n_tx / n_rf, 4))
    ceiling = sys.float_info.max / (2 * max(config.n_tx // config.n_rf, 4))
    code, out = run(tmp_path, {**doc, "total_power": ceiling}, POWER_COMMANDS[command])
    assert code in (0, 2)
    assert_contract(code, out)
    above = math.nextafter(ceiling, math.inf)
    code, out = run(tmp_path, {**doc, "total_power": above}, POWER_COMMANDS[command])
    assert code == 2
    assert not out.exists()


EXTREMES = [0.0, -0.0, 1.0, -1.0, 90.0, -90.0, 30.0, 1e300, -1e300, 1e-300, -1e-300,
            sys.float_info.min, 5e-324, -5e-324]


def lists(elements, max_size=3):
    return st.lists(elements, min_size=0, max_size=max_size)


# sizes stay small (n_tx <= 48, at most 3 trials); a grid either has at most a
# few hundred points or more than an array can hold, so nothing large is formed
DOCUMENTS = st.fixed_dictionaries({}, optional={
    "n_tx": st.sampled_from([1, 3, 12, 24, 48]),
    "n_rx": st.sampled_from([1, 2, 4]),
    "n_streams": st.sampled_from([1, 2, 3]),
    "n_rf": st.sampled_from([1, 2, 4, 12]),
    "n_paths": st.sampled_from([1, 3]),
    "target_angles_deg": lists(st.sampled_from([-90.0, 90.0, 0.0, 30.0, 5e-324, 1e300])),
    "total_power": st.none() | st.sampled_from(EXTREMES),
    "eta_values": lists(st.sampled_from([0.0, 1.0, 0.5, 5e-324, 1e-300, -1e-300, 1e300])),
    "snr_db_values": lists(st.sampled_from(EXTREMES + [3000.0, -3000.0, 3080.0]), 2),
    "num_trials": st.sampled_from([1, 2, 3]),
    "base_seed": st.sampled_from([0, 7, 2**32 - 1]),
    "tolerance": st.sampled_from([1e-300, 5e-324, 1e-4, 1.0, 1e300]),
    "max_iterations": st.sampled_from([1, 3, 20]),
    "beampattern_grid_deg": st.tuples(
        st.sampled_from([-90.0, 90.0, 0.0, 5e-324, -1e300, 1e300]),
        st.sampled_from([-90.0, 90.0, 0.0, 5e-324, -1e300, 1e300]),
        st.sampled_from([1.0, 45.0, 180.0, 1e300, 1e-20, 1e-300, 5e-324, 0.0, -1.0]),
    ).map(list),
})


COMMAND_LINES = [RATE_SWEEP,
                 *(["beampattern", "--eta", eta, "--average-trials"] for eta in ("0", "1")),
                 *(["convergence", "--eta", eta] for eta in ("0", "0.5", "1"))]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=DOCUMENTS, command=st.sampled_from(COMMAND_LINES))
def test_every_config_runs_to_a_finite_csv_or_is_refused(doc, command):
    with tempfile.TemporaryDirectory() as directory:
        assert_contract(*run(Path(directory), {**TINY, **doc}, command))
