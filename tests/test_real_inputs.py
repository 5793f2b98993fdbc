"""Every real the package takes is checked by one rule, `ula.is_real_in`.

For a float, each place that checks a real accepts exactly what its own
hand-written rule accepted before it called `is_real_in`: the property test
draws floats with NaN, the infinities, both zeros and subnormals among them,
and compares the place's verdict, whether it raises `ValueError`, with that
rule.
"""

import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfrcbeam import ula
from dfrcbeam.altmin import AltMinConfig
from dfrcbeam.channel import optimal_digital_beamformers
from dfrcbeam.cli import ExperimentConfig, main
from dfrcbeam.hybrid import BasebandBeamformer, normalize_power

CHANNEL = np.random.default_rng(5).standard_normal((2, 8)) + 0j
BASEBAND = BasebandBeamformer(np.ones((2, 2), dtype=complex))
TINY_CONFIG = ('{"n_tx": 12, "n_rf": 4, "n_streams": 2, "n_rx": 2, "n_paths": 3, '
               '"target_angles_deg": [0.0], "num_trials": 1, "max_iterations": 1}')
MIN_POWER = 1e5 * ExperimentConfig().n_tx / sys.float_info.max  # validate()'s floor
MAX_POWER = sys.float_info.max / 10  # validate()'s ceiling: 120 antennas on 24 chains


def run_convergence(eta: float) -> None:
    """`dfrcbeam convergence --eta <eta>` on a one-iteration toy config; its
    exit code 2 raised as `ValueError`."""
    with tempfile.TemporaryDirectory() as directory:
        config = Path(directory) / "config.json"
        config.write_text(TINY_CONFIG)
        code = main(["convergence", f"--eta={eta!r}", "--config", str(config),
                     "--out", str(Path(directory) / "trace.csv")])
    if code == 2:
        raise ValueError(f"exit code {code}")
    assert code == 0


# each place that checks a real: (what calls it with x, the rule it used before)
SITES = {
    "UlaConfig.spacing_over_wavelength": (
        lambda x: ula.UlaConfig(4, x), lambda x: 0 < x < math.inf),
    "TargetScene.angles": (
        lambda x: ula.TargetScene((x,), 4), lambda x: -math.pi / 2 <= x <= math.pi / 2),
    "radar_beamformer": (
        lambda x: ula.radar_beamformer(ula.TargetScene((0.0,), 4), x),
        lambda x: 0 <= x < math.inf),
    "normalize_power": (
        lambda x: normalize_power(BASEBAND, 4, 2, x), lambda x: 0 < x < math.inf),
    "optimal_digital_beamformers": (
        lambda x: optimal_digital_beamformers(CHANNEL, 2, x), lambda x: 0 < x < math.inf),
    "AltMinConfig.eta": (
        lambda x: AltMinConfig(eta=x, total_power=1.0),
        lambda x: math.isfinite(x) and 0.0 <= x <= 1.0),
    "AltMinConfig.total_power": (
        lambda x: AltMinConfig(eta=0.5, total_power=x),
        lambda x: math.isfinite(x) and x > 0),
    "AltMinConfig.tolerance": (
        lambda x: AltMinConfig(eta=0.5, total_power=1.0, tolerance=x),
        lambda x: math.isfinite(x) and x > 0),
    # ExperimentConfig's fields: finite (_checked_field), then validate()'s ranges
    "ExperimentConfig.target_angles_deg": (
        lambda x: ExperimentConfig(target_angles_deg=(x,)),
        lambda x: math.isfinite(x) and -90.0 <= x <= 90.0),
    "ExperimentConfig.total_power": (
        lambda x: ExperimentConfig(total_power=x),
        lambda x: math.isfinite(x) and x > 0 and MIN_POWER <= x <= MAX_POWER),
    "ExperimentConfig.eta_values": (
        lambda x: ExperimentConfig(eta_values=(x,)),
        lambda x: math.isfinite(x) and 0.0 <= x <= 1.0),
    "ExperimentConfig.tolerance": (
        lambda x: ExperimentConfig(tolerance=x), lambda x: math.isfinite(x) and x > 0),
    "cli --eta": (run_convergence, lambda x: 0.0 <= x <= 1.0),
}

EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0,
         math.pi / 2, -math.pi / 2, 90.0, -90.0, MIN_POWER, sys.float_info.max]


def accepts(site, x: float) -> bool:
    try:
        site(x)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", SITES)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(x=st.one_of(st.floats(), st.floats(-100.0, 100.0), st.sampled_from(EDGES)))
def test_each_real_is_checked_as_before_for_every_float(name, x):
    site, rule = SITES[name]
    with np.errstate(all="ignore"):  # a power near the float maximum overflows
        assert accepts(site, x) == rule(x)


@pytest.mark.parametrize("value, low, high, ends, expected", [
    (0.0, 0, 1, "[]", True), (0.0, 0, 1, "(]", False), (1.0, 0, 1, "[)", False),
    (0.5, 0, 1, "()", True), (1, 0, math.inf, "()", True), (np.float32(0.25), 0, 1, "()", True),
    (True, 0, 1, "[]", False), (np.bool_(True), 0, 1, "[]", False), ("0.5", 0, 1, "[]", False),
    (None, 0, 1, "[]", False), (1 + 0j, 0, 2, "[]", False), (10**400, 0, math.inf, "()", False),
    (-(10**400), -math.inf, 0, "()", False), (math.nan, -math.inf, math.inf, "()", False),
    (sys.float_info.max, 0, math.inf, "()", True),
])
def test_is_real_in(value, low, high, ends, expected):
    assert ula.is_real_in(value, low, high, ends) is expected
