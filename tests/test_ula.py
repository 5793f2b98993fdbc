import cmath
import math

import numpy as np
import pytest

from dfrcbeam.ula import (
    TargetScene,
    UlaConfig,
    angle_grid_deg,
    beampattern,
    covariance_of,
    radar_beamformer,
    steering_matrix,
    steering_vector,
)


def scalar_steering_entry(n, num_antennas, spacing, theta):
    # independent per-entry evaluation used as the oracle throughout this file
    return cmath.exp(1j * 2.0 * math.pi * spacing * n * math.sin(theta)) / math.sqrt(num_antennas)


def test_ula_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        UlaConfig(num_antennas=0)
    with pytest.raises(ValueError):
        UlaConfig(num_antennas=4, spacing_over_wavelength=0.0)
    with pytest.raises(ValueError):
        UlaConfig(num_antennas=4, spacing_over_wavelength=float("nan"))
    assert UlaConfig(num_antennas=4).spacing_over_wavelength == 0.5


def test_target_scene_validation():
    scene = TargetScene(angles=(-0.5, 0.0, 0.5), num_antennas=12)
    assert scene.num_targets == 3
    with pytest.raises(ValueError):
        TargetScene(angles=(), num_antennas=12)
    with pytest.raises(ValueError):
        TargetScene(angles=(2.0,), num_antennas=12)
    with pytest.raises(ValueError):
        TargetScene(angles=(0.0, 0.1), num_antennas=9)


def test_steering_vector_broadside_is_uniform():
    vec = steering_vector(UlaConfig(4), 0.0)
    np.testing.assert_allclose(vec, np.full(4, 0.5), rtol=0, atol=1e-15)


def test_steering_vector_endfire_two_elements():
    vec = steering_vector(UlaConfig(2), math.pi / 2)
    expected = np.array([1.0, -1.0]) / math.sqrt(2.0)
    np.testing.assert_allclose(vec, expected, rtol=0, atol=1e-15)


def test_steering_vector_eight_elements_quarter_turn():
    # at theta = pi/6 the per-element phase step is exactly pi/2
    vec = steering_vector(UlaConfig(8), math.pi / 6)
    expected = np.array([scalar_steering_entry(n, 8, 0.5, math.pi / 6) for n in range(8)])
    np.testing.assert_allclose(vec, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.angle(vec[1]), math.pi / 2, atol=1e-12)
    np.testing.assert_allclose(np.abs(vec), np.full(8, 1 / math.sqrt(8)), atol=1e-15)


def test_steering_vector_matches_scalar_oracle_random():
    rng = np.random.default_rng(101)
    for _ in range(20):
        num = int(rng.integers(1, 40))
        spacing = float(rng.uniform(0.1, 1.0))
        theta = float(rng.uniform(-math.pi, math.pi))
        vec = steering_vector(UlaConfig(num, spacing), theta)
        expected = [scalar_steering_entry(n, num, spacing, theta) for n in range(num)]
        np.testing.assert_allclose(vec, expected, rtol=0, atol=1e-12)


def test_steering_vector_unit_norm_across_sizes():
    rng = np.random.default_rng(7)
    thetas = rng.uniform(-math.pi, math.pi, 1000)
    for num in range(1, 257):
        mat = steering_matrix(UlaConfig(num), thetas)
        norms = np.linalg.norm(mat, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_radar_beamformer_two_equal_targets():
    scene = TargetScene(angles=(0.0, 0.0), num_antennas=4)
    f_rad = radar_beamformer(scene, total_power=1.0)
    # broadside steering entries are all 1/sqrt(4); raw norm is already 1
    expected = np.zeros((4, 2), dtype=complex)
    expected[:2, 0] = 0.5
    expected[2:, 1] = 0.5
    np.testing.assert_allclose(f_rad, expected, rtol=0, atol=1e-15)
    assert abs(np.sum(np.abs(f_rad) ** 2) - 1.0) <= 1e-12


def test_radar_beamformer_norm_forcing():
    rng = np.random.default_rng(11)
    for _ in range(20):
        angles = tuple(rng.uniform(-math.pi / 2, math.pi / 2, 3))
        power = float(rng.uniform(0.1, 20.0))
        f_rad = radar_beamformer(TargetScene(angles, 12), power)
        assert abs(np.sum(np.abs(f_rad) ** 2) - power) <= 1e-12 * power


def test_radar_beamformer_zero_power_allowed():
    f_rad = radar_beamformer(TargetScene((0.2,), 4), 0.0)
    assert np.all(f_rad == 0)
    with pytest.raises(ValueError):
        radar_beamformer(TargetScene((0.2,), 4), -1.0)


def test_radar_beamformer_block_structure():
    rng = np.random.default_rng(12)
    angles = tuple(rng.uniform(-math.pi / 2, math.pi / 2, 3))
    f_rad = radar_beamformer(TargetScene(angles, 12), 5.0)
    moduli = np.abs(f_rad[f_rad != 0])
    assert f_rad.shape == (12, 3)
    assert np.count_nonzero(f_rad) == 12
    assert np.max(moduli) - np.min(moduli) <= 1e-12
    for i in range(12):
        for j in range(3):
            if i // 4 != j:
                assert f_rad[i, j] == 0


def test_radar_covariance_rank_equals_target_count():
    rng = np.random.default_rng(13)
    angles = tuple(rng.uniform(-math.pi / 2, math.pi / 2, 3))
    f_rad = radar_beamformer(TargetScene(angles, 12), 5.0)
    singular = np.linalg.svd(covariance_of(f_rad), compute_uv=False)
    assert np.sum(singular > 1e-9 * singular[0]) == 3


def local_maxima_deg(grid_deg, gains):
    peaks = []
    for i in range(1, len(gains) - 1):
        if gains[i] >= gains[i - 1] and gains[i] >= gains[i + 1]:
            peaks.append(grid_deg[i])
    return np.asarray(peaks)


def test_radar_beampattern_peaks_on_targets():
    targets_deg = (-30.0, 0.0, 30.0)
    scene = TargetScene(tuple(math.radians(a) for a in targets_deg), 12)
    cov = covariance_of(radar_beamformer(scene, 1.0))
    grid_deg = angle_grid_deg(-90.0, 90.0, 0.1)
    gains = beampattern(cov, UlaConfig(12), np.deg2rad(grid_deg))
    peaks = local_maxima_deg(grid_deg, gains)
    for target in targets_deg:
        assert np.min(np.abs(peaks - target)) <= 0.1 + 1e-9


def test_beampattern_identity_covariance_is_flat():
    gains = beampattern(np.eye(6), UlaConfig(6), np.linspace(-1.5, 1.5, 41))
    np.testing.assert_allclose(gains, np.ones(41), rtol=0, atol=1e-12)


def test_beampattern_steering_projector():
    cfg = UlaConfig(16)
    phi = 0.31
    vec = steering_vector(cfg, phi)
    cov = 3.5 * np.outer(vec, vec.conj())
    gains = beampattern(cov, cfg, [phi])
    np.testing.assert_allclose(gains, [3.5], rtol=1e-12)


def test_beampattern_rejects_bad_covariance():
    cfg = UlaConfig(4)
    with pytest.raises(ValueError):
        beampattern(np.eye(3), cfg, [0.0])
    skew = np.eye(4, dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError):
        beampattern(skew, cfg, [0.0])


def test_beampattern_outputs_real_nonnegative():
    rng = np.random.default_rng(21)
    f = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    gains = beampattern(covariance_of(f), UlaConfig(8), rng.uniform(-1.5, 1.5, 50))
    assert gains.dtype == np.float64
    assert np.min(gains) >= -1e-9


def test_beampattern_invariant_under_semi_unitary():
    rng = np.random.default_rng(22)
    cfg = UlaConfig(16)
    grid = np.deg2rad(angle_grid_deg(-90.0, 90.0, 1.0))
    f = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    raw = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    basis, _ = np.linalg.qr(raw)            # (5, 3), orthonormal columns
    semi_unitary = basis.conj().T           # rows orthonormal: U U^H = I_3
    before = beampattern(covariance_of(f), cfg, grid)
    after = beampattern(covariance_of(f @ semi_unitary), cfg, grid)
    assert np.max(np.abs(before - after)) <= 1e-9


def entrywise_beampattern(cov, spacing, thetas):
    # independent oracle: the double sum conj(a_n) R_nm a_m over scalar entries
    num = cov.shape[0]
    gains = []
    for theta in thetas:
        steer = [scalar_steering_entry(n, num, spacing, theta) for n in range(num)]
        total = 0j
        for n in range(num):
            for m in range(num):
                total += steer[n].conjugate() * cov[n, m] * steer[m]
        gains.append(total.real)
    return np.array(gains)


@pytest.mark.parametrize("num", [1, 2, 7, 16, 120])
@pytest.mark.parametrize("spacing", [0.5, 0.3])
def test_beampattern_matches_entrywise_oracle(num, spacing):
    rng = np.random.default_rng(1000 * num + int(10 * spacing))
    f = rng.standard_normal((num, 3)) + 1j * rng.standard_normal((num, 3))
    cov = covariance_of(f)
    thetas = np.concatenate([[-math.pi / 2, 0.0, math.pi / 2], rng.uniform(-1.5, 1.5, 7)])
    gains = beampattern(cov, UlaConfig(num, spacing), thetas)
    expected = entrywise_beampattern(cov, spacing, thetas)
    assert np.max(np.abs(gains - expected)) <= 1e-12 * np.trace(cov).real


@pytest.mark.parametrize("thetas", [0.3, np.full((2, 3), 0.3), [0.3, -0.2, 1.0]],
                         ids=["0-d", "2-d", "list"])
def test_beampattern_returns_one_real_gain_per_angle(thetas):
    rng = np.random.default_rng(25)
    f = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    gains = beampattern(covariance_of(f), UlaConfig(5), thetas)
    assert gains.dtype == np.float64
    assert gains.shape == (np.size(thetas),)


def test_covariance_of_trivial_inputs():
    assert np.all(covariance_of(np.zeros((4, 2))) == 0)
    np.testing.assert_allclose(covariance_of(np.eye(5)), np.eye(5), rtol=0, atol=0)


def test_covariance_matches_entrywise_oracle():
    rng = np.random.default_rng(23)
    f = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    expected = np.zeros((6, 6), dtype=complex)
    for i in range(6):
        for j in range(6):
            for k in range(3):
                expected[i, j] += f[i, k] * f[j, k].conjugate()
    np.testing.assert_allclose(covariance_of(f), expected, rtol=0, atol=1e-12)


def test_covariance_hermitian_psd():
    rng = np.random.default_rng(24)
    for _ in range(10):
        f = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        cov = covariance_of(f)
        assert np.array_equal(cov, cov.conj().T)
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() >= -1e-9 * np.trace(cov).real


def test_angle_grid_deg():
    grid = angle_grid_deg(-90.0, 90.0, 0.5)
    assert len(grid) == 361
    assert grid[0] == -90.0 and grid[-1] == 90.0
    np.testing.assert_allclose(np.diff(grid), 0.5, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        angle_grid_deg(0.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        angle_grid_deg(0.0, 1.0, 0.3)
