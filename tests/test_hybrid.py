import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfrcbeam.altmin import AltMinConfig, alternating_minimization_stack, solve_analog
from dfrcbeam.hybrid import (
    AnalogBeamformer,
    BasebandBeamformer,
    HybridBeamformer,
    baseband_power,
    chain_block,
    materialize_product,
    normalize_power,
)
from dfrcbeam.ula import TWO_PI
from oracles import dense_analog


def random_hybrid(rng, num_antennas, num_rf, num_streams):
    analog = AnalogBeamformer(num_antennas, num_rf, rng.uniform(0.0, TWO_PI, num_antennas))
    matrix = rng.standard_normal((num_rf, num_streams)) + 1j * rng.standard_normal((num_rf, num_streams))
    return HybridBeamformer(analog, BasebandBeamformer(matrix))


def test_analog_validation():
    with pytest.raises(ValueError):
        AnalogBeamformer(10, 4, np.zeros(10))
    with pytest.raises(ValueError):
        AnalogBeamformer(8, 4, np.zeros(7))
    with pytest.raises(ValueError):
        AnalogBeamformer(8, 4, np.full(8, np.nan))


@pytest.mark.parametrize("field", ["num_antennas", "num_rf_chains"])
@pytest.mark.parametrize("value", [0, -4, 8.5, 4.0, True, "4", None])
def test_analog_counts_must_be_positive_integers(field, value):
    counts = dict(num_antennas=8, num_rf_chains=4)
    with pytest.raises(ValueError, match="counts must be integers"):
        AnalogBeamformer(**{**counts, field: value}, phases=np.zeros(8))
    assert AnalogBeamformer(np.int64(8), np.int32(4), np.zeros(8)).num_rf_chains == 4


def test_phase_canonicalization():
    phases = np.array([0.0, TWO_PI, -0.25, 7.0, -1e-18])
    analog = AnalogBeamformer(5, 5, phases)
    assert np.all(analog.phases >= 0.0)
    assert np.all(analog.phases < TWO_PI)
    assert analog.phases[0] == 0.0
    assert analog.phases[1] == 0.0
    np.testing.assert_allclose(analog.phases[2], TWO_PI - 0.25, rtol=1e-15)
    np.testing.assert_allclose(analog.phases[3], 7.0 - TWO_PI, rtol=1e-12)
    assert analog.phases[4] == 0.0


def test_analog_matrix_structure():
    rng = np.random.default_rng(31)
    analog = AnalogBeamformer(12, 4, rng.uniform(0, TWO_PI, 12))
    matrix = dense_analog(analog)
    assert matrix.shape == (12, 4)
    for i in range(12):
        for j in range(4):
            if j == i // 3:
                assert abs(abs(matrix[i, j]) - 1.0) <= 1e-12
            else:
                assert matrix[i, j] == 0


def test_materialize_subarray_indicators():
    analog = AnalogBeamformer(8, 2, np.zeros(8))
    hybrid = HybridBeamformer(analog, BasebandBeamformer(np.eye(2, dtype=complex)))
    product = hybrid.materialize()
    expected = np.zeros((8, 2), dtype=complex)
    expected[:4, 0] = 1.0
    expected[4:, 1] = 1.0
    np.testing.assert_array_equal(product, expected)


def test_materialize_fully_digital_limit():
    rng = np.random.default_rng(32)
    phases = rng.uniform(0, TWO_PI, 4)
    analog = AnalogBeamformer(4, 4, phases)
    baseband = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    product = materialize_product(analog, baseband)
    np.testing.assert_allclose(product, np.diag(np.exp(1j * phases)) @ baseband,
                               rtol=0, atol=1e-15)


def test_materialize_matches_dense_product():
    rng = np.random.default_rng(33)
    for _ in range(20):
        hybrid = random_hybrid(rng, 12, 4, 3)
        dense = dense_analog(hybrid.analog) @ hybrid.baseband.matrix
        np.testing.assert_allclose(hybrid.materialize(), dense, rtol=0, atol=1e-13)


def test_materialize_linear_in_baseband():
    rng = np.random.default_rng(34)
    analog = AnalogBeamformer(12, 6, rng.uniform(0, TWO_PI, 12))
    x = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    y = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    alpha, beta = 1.7 - 0.3j, -2.2 + 0.9j
    combined = materialize_product(analog, alpha * x + beta * y)
    separate = alpha * materialize_product(analog, x) + beta * materialize_product(analog, y)
    assert np.max(np.abs(combined - separate)) <= 1e-10


def test_hybrid_requires_matching_chain_counts():
    analog = AnalogBeamformer(8, 4, np.zeros(8))
    with pytest.raises(ValueError):
        HybridBeamformer(analog, BasebandBeamformer(np.ones((3, 2), dtype=complex)))


def test_power_identity_random_instances():
    rng = np.random.default_rng(35)
    for _ in range(1000):
        num_rf = int(rng.choice([2, 3, 4, 6]))
        block = int(rng.integers(1, 6))
        num_antennas = num_rf * block
        streams = int(rng.integers(1, 5))
        total_power = float(rng.uniform(0.5, 10.0))
        hybrid = HybridBeamformer(
            AnalogBeamformer(num_antennas, num_rf, rng.uniform(0, TWO_PI, num_antennas)),
            normalize_power(
                BasebandBeamformer(rng.standard_normal((num_rf, streams))
                                   + 1j * rng.standard_normal((num_rf, streams))),
                num_antennas, num_rf, total_power,
            ),
        )
        product_power = np.sum(np.abs(hybrid.materialize()) ** 2)
        baseband_power = np.sum(np.abs(hybrid.baseband.matrix) ** 2)
        assert abs(product_power - block * baseband_power) <= 1e-9 * total_power
        assert abs(product_power - total_power) <= 1e-9 * total_power


def test_normalize_power_contracts():
    rng = np.random.default_rng(36)
    matrix = rng.standard_normal((24, 6)) + 1j * rng.standard_normal((24, 6))
    bb = BasebandBeamformer(matrix)

    normalized = normalize_power(bb, 120, 24, 6.0)
    target = 24 * 6.0 / 120
    assert target == 1.2
    assert abs(np.sum(np.abs(normalized.matrix) ** 2) - target) <= 1e-12 * target

    # fixed point: renormalizing changes nothing
    again = normalize_power(normalized, 120, 24, 6.0)
    np.testing.assert_allclose(again.matrix, normalized.matrix, rtol=1e-12)

    # scale invariance: a scaled copy normalizes to the same matrix
    scaled = normalize_power(BasebandBeamformer(7.0 * matrix), 120, 24, 6.0)
    np.testing.assert_allclose(scaled.matrix, normalized.matrix, rtol=1e-12)


def test_normalize_power_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        normalize_power(BasebandBeamformer(np.zeros((4, 2), dtype=complex)), 8, 4, 1.0)
    bb = BasebandBeamformer(np.ones((4, 2), dtype=complex))
    with pytest.raises(ValueError):
        normalize_power(bb, 10, 4, 1.0)
    with pytest.raises(ValueError):
        normalize_power(bb, 8, 4, 0.0)


@pytest.mark.parametrize("num_antennas, num_rf_chains, total_power", [
    (4, 2, float("inf")), (True, True, 1.0), (4, True, 1.0), (4.0, 2, 1.0), (4, 2.0, 1.0),
    (4, 2, True), (4, 2, "1.5"), pytest.param(4, 2, 10**400, id="4-2-10**400"),
])
def test_normalize_power_rejects_bad_counts_and_powers(num_antennas, num_rf_chains,
                                                       total_power):
    bb = BasebandBeamformer(np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        normalize_power(bb, num_antennas, num_rf_chains, total_power)


TARGETS = np.ones((12, 2), dtype=complex)

# each place that checks the partially connected layout of 12 antennas, given a
# chain count; the product and the one-member solve read theirs from the rows
# of the baseband, so only a row count reaches them
COUNT_SITES = {
    "chain_block": lambda r: chain_block(12, r),
    "baseband_power": lambda r: baseband_power(12, r, 1.0),
    "AnalogBeamformer": lambda r: AnalogBeamformer(12, r, np.zeros(12)),
    "normalize_power": lambda r: normalize_power(
        BasebandBeamformer(np.ones((max(int(r), 1), 2))), 12, r, 1.0),
    "alternating_minimization_stack": lambda r: alternating_minimization_stack(
        [(TARGETS, [AltMinConfig(eta=0.5, total_power=1.0)])], TARGETS[:, :1], r),
}
ROW_SITES = {
    "materialize_product": lambda rows: materialize_product(np.zeros(12), np.ones((rows, 2))),
    "solve_analog": lambda rows: solve_analog(np.ones((rows, 2)), TARGETS, TARGETS, 0.5),
}


@pytest.mark.parametrize("site, num_rf_chains", [
    *(pytest.param(site, r, id=f"{name}-{r!r}")
      for name, site in COUNT_SITES.items() for r in (5, 0, True, 4.0)),
    *(pytest.param(site, r, id=f"{name}-{r!r}-rows")
      for name, site in ROW_SITES.items() for r in (5, 0)),
])
def test_every_layout_site_refuses_a_bad_split(site, num_rf_chains):
    with pytest.raises(ValueError):
        site(num_rf_chains)


def test_normalize_power_near_the_float_maximum():
    total_power = 1.7e308  # num_rf_chains * total_power overflows
    normalized = normalize_power(BasebandBeamformer(np.ones((2, 2))), 4, 2, total_power)
    assert np.isfinite(normalized.matrix).all()
    product = materialize_product(AnalogBeamformer(4, 2, np.zeros(4)), normalized.matrix)
    assert abs(np.sum(np.abs(product) ** 2) - total_power) <= 1e-12 * total_power


def test_normalize_power_refuses_a_baseband_of_another_chain_count():
    with pytest.raises(ValueError, match="rows"):
        normalize_power(BasebandBeamformer(np.ones((4, 2))), 8, 2, 1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(num_rf=st.integers(1, 64), block=st.integers(1, 64),
       total_power=st.floats(0, sys.float_info.max, exclude_min=True)
       | st.floats(1e306, sys.float_info.max))
def test_baseband_power_is_the_quotient_wherever_that_is_finite(num_rf, block, total_power):
    power = baseband_power(num_rf * block, num_rf, total_power)
    quotient = num_rf * total_power / (num_rf * block)
    assert power == (quotient if math.isfinite(quotient) else total_power / block)
