import math

import numpy as np
import pytest

from dfrcbeam.channel import (
    ChannelParams,
    generate_channel,
    optimal_digital_beamformers,
)
from dfrcbeam.ula import UlaConfig, steering_vector


def reassemble_by_loop(realization, num_tx, num_rx):
    # independent reconstruction: plain per-path outer products
    num_paths = len(realization.gains)
    h = np.zeros((num_rx, num_tx), dtype=complex)
    for gain, aoa, aod in zip(realization.gains, realization.aoas, realization.aods):
        rx = steering_vector(UlaConfig(num_rx), aoa)
        tx = steering_vector(UlaConfig(num_tx), aod)
        h += gain * np.outer(rx, tx.conj())
    return math.sqrt(num_tx * num_rx / num_paths) * h


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(num_tx=0, num_rx=2, num_paths=3, rng_seed=1)
    with pytest.raises(ValueError):
        ChannelParams(num_tx=2, num_rx=2, num_paths=0, rng_seed=1)
    with pytest.raises(ValueError):
        ChannelParams(num_tx=2, num_rx=2, num_paths=3, rng_seed=-1)


@pytest.mark.parametrize("field, value", [
    *((field, value) for field in ("num_tx", "num_rx", "num_paths")
      for value in (0, -1, 12.5, 2.0, True, "2", None)),
    *(("rng_seed", value) for value in (-1, 2**64, 1.5, True, "0", None)),
])
def test_channel_params_sizes_and_seed_must_be_integers(field, value):
    fields = dict(num_tx=4, num_rx=2, num_paths=3, rng_seed=0)
    with pytest.raises(ValueError, match=field):
        ChannelParams(**{**fields, field: value})
    numpy_fields = {name: np.uint64(v) for name, v in fields.items()}
    assert generate_channel(ChannelParams(**numpy_fields)).matrix.shape == (2, 4)


def test_single_path_channel_is_rank_one():
    realization = generate_channel(ChannelParams(8, 4, 1, rng_seed=5))
    singular = np.linalg.svd(realization.matrix, compute_uv=False)
    assert singular[1] <= 1e-9 * singular[0]


def test_same_seed_is_bit_identical():
    params = ChannelParams(16, 4, 10, rng_seed=99)
    first = generate_channel(params)
    second = generate_channel(params)
    assert np.array_equal(first.gains, second.gains)
    assert np.array_equal(first.aoas, second.aoas)
    assert np.array_equal(first.aods, second.aods)
    assert np.array_equal(first.matrix, second.matrix)
    third = generate_channel(ChannelParams(16, 4, 10, rng_seed=100))
    assert not np.array_equal(first.matrix, third.matrix)


def test_matrix_matches_loop_reconstruction():
    for seed in range(1000):
        realization = generate_channel(ChannelParams(6, 3, 4, rng_seed=seed))
        expected = reassemble_by_loop(realization, 6, 3)
        err = np.linalg.norm(realization.matrix - expected)
        assert err <= 1e-12 * np.linalg.norm(expected)


def test_angle_ranges_and_gain_moments():
    realization = generate_channel(ChannelParams(2, 2, 100_000, rng_seed=3))
    assert np.all(np.abs(realization.aoas) <= math.pi)
    assert np.all(np.abs(realization.aods) <= math.pi)
    assert abs(realization.gains.real.var() - 0.5) <= 0.025
    assert abs(realization.gains.imag.var() - 0.5) <= 0.025


def test_mean_channel_energy():
    total = 0.0
    for seed in range(10_000):
        matrix = generate_channel(ChannelParams(16, 4, 10, rng_seed=seed)).matrix
        total += np.sum(np.abs(matrix) ** 2)
    mean_energy = total / 10_000
    assert abs(mean_energy - 64.0) <= 0.05 * 64.0


def test_svd_beamformers_on_known_diagonal():
    h = np.diag([3.0, 2.0, 1.0, 0.5]).astype(complex)
    f, w = optimal_digital_beamformers(h, num_streams=2, total_power=2.0)
    # right singular vectors of a sorted diagonal are standard basis vectors
    for i in range(2):
        expected = np.zeros(4)
        expected[i] = 1.0
        np.testing.assert_allclose(np.abs(f[:, i]), expected, atol=1e-12)
        np.testing.assert_allclose(np.abs(w[:, i]), expected, atol=1e-12)
    assert abs(np.sum(np.abs(f) ** 2) - 2.0) <= 1e-10


def test_svd_beamformers_rank_one():
    rng = np.random.default_rng(8)
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    v /= np.linalg.norm(v)
    h = 2.7 * np.outer(u, v.conj())
    f, w = optimal_digital_beamformers(h, num_streams=1, total_power=1.0)
    # compare up to the unit-modulus ambiguity through projectors
    np.testing.assert_allclose(np.outer(f[:, 0], f[:, 0].conj()),
                               np.outer(v, v.conj()), atol=1e-10)
    np.testing.assert_allclose(np.outer(w[:, 0], w[:, 0].conj()),
                               np.outer(u, u.conj()), atol=1e-10)


def test_svd_beamformers_contracts_on_random_channels():
    rng = np.random.default_rng(9)
    for _ in range(50):
        h = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        f, w = optimal_digital_beamformers(h, num_streams=3, total_power=5.0)
        assert abs(np.sum(np.abs(f) ** 2) - 5.0) <= 1e-10
        np.testing.assert_allclose(w.conj().T @ w, np.eye(3), atol=1e-10)
        gram = h.conj().T @ h
        sigma_sq = np.sort(np.linalg.svd(h, compute_uv=False))[::-1] ** 2
        for i in range(3):
            direction = f[:, i] / np.linalg.norm(f[:, i])
            residual = gram @ direction - sigma_sq[i] * direction
            assert np.linalg.norm(residual) <= 1e-8 * sigma_sq[0]


def test_svd_beamformers_deterministic_phase():
    rng = np.random.default_rng(10)
    h = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    f1, w1 = optimal_digital_beamformers(h, 2, 2.0)
    f2, w2 = optimal_digital_beamformers(h.copy(), 2, 2.0)
    assert np.array_equal(f1, f2) and np.array_equal(w1, w2)
    for i in range(2):
        pivot = f1[np.argmax(np.abs(f1[:, i])), i]
        assert abs(pivot.imag) <= 1e-12 and pivot.real > 0


def test_svd_beamformers_rejects_too_many_streams():
    h = np.zeros((2, 8), dtype=complex)
    h[0, 0] = 1.0
    with pytest.raises(ValueError):
        optimal_digital_beamformers(h, num_streams=3, total_power=1.0)


@pytest.mark.parametrize("num_streams, total_power", [
    (True, 1.0), (1.5, 1.0), (2.0, 1.0), ("2", 1.0), (2, math.inf),
    (2, True), (2, "1.5"), pytest.param(2, 10**400, id="2-10**400"),
])
def test_svd_beamformers_rejects_bad_counts_and_powers(num_streams, total_power):
    h = np.random.default_rng(5).standard_normal((2, 8)) + 0j
    with pytest.raises(ValueError):
        optimal_digital_beamformers(h, num_streams, total_power)
