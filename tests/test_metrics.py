import math

import numpy as np
import pytest

from dfrcbeam.altmin import AltMinConfig, alternating_minimization, objective
from dfrcbeam.channel import ChannelParams, generate_channel, optimal_digital_beamformers
from dfrcbeam.hybrid import AnalogBeamformer, materialize_product
from dfrcbeam.metrics import achievable_rate, fitting_errors, peak_deviation
from dfrcbeam.ula import (
    TargetScene,
    UlaConfig,
    angle_grid_deg,
    beampattern,
    covariance_of,
    radar_beamformer,
    steering_vector,
)


def crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(0.5)


def test_rate_zero_channel_is_exactly_zero():
    h = np.zeros((2, 4), dtype=complex)
    f = np.ones((4, 2), dtype=complex)
    w = np.eye(2, dtype=complex)
    assert achievable_rate(h, f, w, 10.0) == 0.0


def test_rate_scalar_shannon_formula():
    power = 2.5
    for snr_db in (-10.0, 0.0, 7.0, 20.0):
        gamma = 10.0 ** (snr_db / 10.0)
        rate = achievable_rate(np.array([[1.0 + 0j]]), np.array([[math.sqrt(power) + 0j]]),
                               np.array([[1.0 + 0j]]), snr_db)
        assert abs(rate - math.log2(1.0 + gamma * power)) <= 1e-12


def test_rate_matches_two_by_two_cofactor_oracle():
    h = np.diag([2.0, 0.7]).astype(complex)
    f = np.eye(2, dtype=complex)
    w = np.eye(2, dtype=complex)
    snr_db = 10.0
    gamma = 10.0
    # independent 2x2 evaluation: W is identity, so the determinant argument
    # is I + (gamma/2) H F F^H H^H, expanded by the cofactor formula
    m = np.eye(2) + (gamma / 2.0) * (h @ f) @ (h @ f).conj().T
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    expected = math.log2(det.real)
    assert abs(achievable_rate(h, f, w, snr_db) - expected) <= 1e-12


def test_rate_invariant_to_combiner_scaling_and_monotone_in_snr():
    rng = np.random.default_rng(71)
    for _ in range(10):
        h = crandn(rng, (4, 8))
        f = crandn(rng, (8, 3))
        w = crandn(rng, (4, 3))
        sweep = [achievable_rate(h, f, w, snr) for snr in np.linspace(-20.0, 20.0, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(sweep, sweep[1:]))
        scaled = achievable_rate(h, f, w @ np.diag([2.0, 0.5, 3.0]), 5.0)
        assert abs(scaled - achievable_rate(h, f, w, 5.0)) <= 1e-9


def test_rate_with_svd_beamformers_matches_diagonal_identity():
    rng = np.random.default_rng(72)
    streams, power, snr_db = 4, 4.0, 3.0
    gamma = 10.0 ** (snr_db / 10.0)
    for seed in range(10):
        h = generate_channel(ChannelParams(16, 4, 8, rng_seed=seed)).matrix
        f, w = optimal_digital_beamformers(h, streams, power)
        sigma = np.linalg.svd(h, compute_uv=False)[:streams]
        expected = sum(math.log2(1.0 + (gamma / streams) * (power / streams) * s**2)
                       for s in sigma)
        assert abs(achievable_rate(h, f, w, snr_db) - expected) <= 1e-8


@pytest.mark.parametrize("n_rx, n_tx, streams", [(2, 12, 2), (6, 120, 6), (16, 64, 12)])
def test_stacked_rate_equals_its_two_dimensional_calls(n_rx, n_tx, streams):
    rng = np.random.default_rng(50 + streams)
    h = crandn(rng, (n_rx, n_tx))
    w = crandn(rng, (n_rx, streams))
    stack = crandn(rng, (4, 3, n_tx, streams))
    for snr_db in (-10.0, 0.0, 20.0):
        rates = achievable_rate(h, stack, w, snr_db)
        assert rates.shape == (4, 3)
        expected = [[achievable_rate(h, f, w, snr_db) for f in row] for row in stack]
        assert np.array_equal(rates, np.array(expected))


def test_rate_rejects_rank_deficient_combiner():
    h = np.eye(3, dtype=complex)
    f = np.eye(3, dtype=complex)[:, :2]
    w = np.zeros((3, 2), dtype=complex)
    w[:, 1] = [1.0, 0.0, 0.0]  # first column zero: rank deficient
    with pytest.raises(np.linalg.LinAlgError):
        achievable_rate(h, f, w, 0.0)


def test_rate_validates_shapes():
    with pytest.raises(ValueError):
        achievable_rate(np.zeros((2, 4)), np.zeros((3, 2)), np.eye(2), 0.0)
    with pytest.raises(ValueError):
        achievable_rate(np.zeros((2, 4)), np.zeros((4, 2)), np.eye(3), 0.0)


def test_fitting_errors_trivial_identities():
    rng = np.random.default_rng(73)
    f_com = crandn(rng, (6, 2))
    f_rad_u = crandn(rng, (6, 2))
    comm, radar, weighted = fitting_errors(f_com, f_com, f_rad_u, eta=0.7)
    assert comm == 0.0
    assert weighted == pytest.approx(0.3 * radar, rel=1e-12)

    # equal distances to both targets: the eta=1/2 mix equals either error
    base = crandn(rng, (6, 2))
    offset = crandn(rng, (6, 2))
    comm, radar, weighted = fitting_errors(base, base + offset, base - offset, eta=0.5)
    assert comm == pytest.approx(radar, rel=1e-12)
    assert weighted == pytest.approx(comm, rel=1e-12)


def test_fitting_errors_affine_in_eta():
    rng = np.random.default_rng(74)
    hybrid = crandn(rng, (5, 3))
    f_com = crandn(rng, (5, 3))
    f_rad_u = crandn(rng, (5, 3))
    at0 = fitting_errors(hybrid, f_com, f_rad_u, 0.0)[2]
    at1 = fitting_errors(hybrid, f_com, f_rad_u, 1.0)[2]
    for eta in (0.25, 0.5, 0.95):
        weighted = fitting_errors(hybrid, f_com, f_rad_u, eta)[2]
        assert weighted == eta * at1 + (1.0 - eta) * at0


def test_fitting_errors_agree_with_solver_objective():
    rng = np.random.default_rng(75)
    for _ in range(10):
        analog = AnalogBeamformer(12, 4, rng.uniform(0, 2 * math.pi, 12))
        baseband = crandn(rng, (4, 3))
        basis, _ = np.linalg.qr(crandn(rng, (3, 2)))
        unitary = basis.conj().T  # 2x3 semi-unitary
        f_com = crandn(rng, (12, 3))
        f_rad = crandn(rng, (12, 2))
        eta = float(rng.uniform(0, 1))
        product = materialize_product(analog, baseband)
        weighted = fitting_errors(product, f_com, f_rad @ unitary, eta)[2]
        reference = objective(analog, baseband, unitary, f_com, f_rad, eta)
        assert abs(weighted - reference) <= 1e-12 * (1.0 + reference)


def test_fitting_errors_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        fitting_errors(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 3)), 0.5)


def pattern_on_grid(cov, num_antennas, step_deg=0.1):
    grid = angle_grid_deg(-90.0, 90.0, step_deg)
    gains = beampattern(cov, UlaConfig(num_antennas), np.deg2rad(grid))
    return list(zip(grid.tolist(), gains.tolist()))


def test_peak_deviation_exact_peaks():
    pattern = [(-2.0, 0.0), (-1.0, 1.0), (0.0, 0.2), (1.0, 2.0), (2.0, 0.1)]
    assert peak_deviation(pattern, [-1.0, 1.0]) == [0.0, 0.0]


def test_peak_deviation_single_steering_target():
    phi_deg = 17.3
    vec = steering_vector(UlaConfig(16), math.radians(phi_deg))
    pattern = pattern_on_grid(np.outer(vec, vec.conj()), 16)
    deviation = peak_deviation(pattern, [phi_deg])
    assert deviation[0] <= 0.1 + 1e-9


def test_peak_deviation_radar_beamformer_targets():
    targets = (-30.0, 0.0, 30.0)
    scene = TargetScene(tuple(math.radians(a) for a in targets), 12)
    cov = covariance_of(radar_beamformer(scene, 1.0))
    deviations = peak_deviation(pattern_on_grid(cov, 12), targets)
    assert max(deviations) <= 0.1 + 1e-9


def test_peak_deviation_flat_pattern_uses_leftmost_interior():
    angles = np.arange(-90.0, 90.5, 0.5)
    pattern = [(a, 1.0) for a in angles]
    # every interior point ties, so the plateau collapses to the first one
    deviations = peak_deviation(pattern, [0.0, -89.5])
    assert deviations == [89.5, 0.0]


def test_peak_deviation_monotone_pattern_has_no_peak():
    pattern = [(float(a), float(a)) for a in range(10)]
    assert peak_deviation(pattern, [4.0]) == [math.inf]


def test_peak_deviation_plateau_counts_once():
    pattern = [(0.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 0.0),
               (5.0, 2.0), (6.0, 0.0)]
    assert peak_deviation(pattern, [3.0]) == [2.0]  # plateau keeps angle 1.0, next peak at 5.0


def test_peak_deviation_validates_inputs():
    with pytest.raises(ValueError):
        peak_deviation([(0.0, 1.0), (0.0, 2.0), (1.0, 0.5)], [0.5])  # repeated angle
    with pytest.raises(ValueError):
        peak_deviation([(0.0, 1.0), (1.0, 2.0), (2.0, 0.5)], [5.0])  # target off grid
    with pytest.raises(ValueError):
        peak_deviation([(0.0, 1.0), (1.0, 2.0)], [0.5])  # too short


def test_rate_improves_with_eta_on_one_realization():
    # one seeded toy design at two weighting factors: leaning towards the
    # communication target should not reduce the achievable rate much; this is
    # a smoke-level sanity check, the statistical claim lives in acceptance
    rng_seed = 5
    h = generate_channel(ChannelParams(12, 2, 6, rng_seed=rng_seed)).matrix
    f_com, w_com = optimal_digital_beamformers(h, 2, 2.0)
    f_rad = radar_beamformer(TargetScene((math.radians(20.0),), 12), 2.0)
    rates = []
    for eta in (0.2, 1.0):
        config = AltMinConfig(eta=eta, total_power=2.0, tolerance=1e-6,
                              max_iterations=200, rng_seed=9)
        report = alternating_minimization(f_com, f_rad, 4, config)
        rates.append(achievable_rate(h, report.hybrid.materialize(), w_com, 0.0))
    assert rates[1] >= rates[0]
