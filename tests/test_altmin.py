import math
from dataclasses import replace

import numpy as np
import pytest

from dfrcbeam.altmin import (
    AltMinConfig,
    AuxiliaryUnitary,
    DesignStack,
    SolverError,
    alternating_minimization,
    alternating_minimization_stack,
    objective,
    random_start,
    solve_analog,
    solve_baseband,
    solve_sphere_least_squares,
    solve_unitary,
)
from dfrcbeam.hybrid import AnalogBeamformer, BasebandBeamformer, materialize_product
from dfrcbeam.ula import TWO_PI, TargetScene, radar_beamformer


def crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(0.5)


def random_semi_unitaries(rng, count, rows, cols):
    # orthonormalize Gaussian (cols x rows) blocks; transpose gives U U^H = I_rows
    raw = crandn(rng, (count, cols, rows))
    basis, _ = np.linalg.qr(raw)
    return basis.conj().transpose(0, 2, 1)


def entrywise_objective(product, unitary, f_com, f_rad, eta):
    # independent oracle: plain double loop over matrix entries
    radar_target = f_rad @ unitary
    comm = 0.0
    radar = 0.0
    for i in range(product.shape[0]):
        for k in range(product.shape[1]):
            comm += abs(product[i, k] - f_com[i, k]) ** 2
            radar += abs(product[i, k] - radar_target[i, k]) ** 2
    return eta * comm + (1.0 - eta) * radar


def toy_problem(seed, num_antennas=12, num_rf=4, num_streams=3, num_targets=3, power=3.0):
    rng = np.random.default_rng(seed)
    f_com = crandn(rng, (num_antennas, num_streams))
    f_com *= math.sqrt(power / np.sum(np.abs(f_com) ** 2))
    angles = tuple(rng.uniform(-math.pi / 2, math.pi / 2, num_targets))
    f_rad = radar_beamformer(TargetScene(angles, num_antennas), power)
    return f_com, f_rad


def test_altmin_config_validation():
    with pytest.raises(ValueError):
        AltMinConfig(eta=1.5, total_power=1.0)
    with pytest.raises(ValueError):
        AltMinConfig(eta=0.5, total_power=0.0)
    with pytest.raises(ValueError):
        AltMinConfig(eta=0.5, total_power=1.0, tolerance=0.0)
    with pytest.raises(ValueError):
        AltMinConfig(eta=0.5, total_power=1.0, max_iterations=0)
    with pytest.raises(ValueError, match="finite"):
        AltMinConfig(eta=0.5, total_power=math.inf)
    with pytest.raises(ValueError, match="finite"):
        AltMinConfig(eta=0.5, total_power=1.0, tolerance=math.inf)


def test_auxiliary_unitary_validation():
    basis, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 2)))
    AuxiliaryUnitary(basis.conj().T)
    with pytest.raises(ValueError):
        AuxiliaryUnitary(np.ones((2, 5)))
    with pytest.raises(ValueError):
        AuxiliaryUnitary(np.eye(5)[:, :2])  # more rows than columns


def test_objective_zero_at_each_target():
    rng = np.random.default_rng(41)
    analog = AnalogBeamformer(8, 4, rng.uniform(0, TWO_PI, 8))
    baseband = crandn(rng, (4, 2))
    product = materialize_product(analog, baseband)
    unitary = random_semi_unitaries(rng, 1, 2, 2)[0]
    f_rad = crandn(rng, (8, 2))
    assert objective(analog, baseband, unitary, product, f_rad, 1.0) == 0.0
    # reachable radar side: make f_rad @ unitary equal the product exactly
    f_rad_aligned = product @ unitary.conj().T
    residual = objective(analog, baseband, unitary, crandn(rng, (8, 2)), f_rad_aligned, 0.0)
    assert residual <= 1e-12


def test_objective_matches_entrywise_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        analog = AnalogBeamformer(12, 4, rng.uniform(0, TWO_PI, 12))
        baseband = crandn(rng, (4, 3))
        unitary = random_semi_unitaries(rng, 1, 2, 3)[0]
        f_com = crandn(rng, (12, 3))
        f_rad = crandn(rng, (12, 2))
        eta = float(rng.uniform(0, 1))
        value = objective(analog, baseband, unitary, f_com, f_rad, eta)
        expected = entrywise_objective(materialize_product(analog, baseband),
                                       unitary, f_com, f_rad, eta)
        assert abs(value - expected) <= 1e-12 * (1.0 + expected)


def test_objective_rejects_mismatched_shapes():
    rng = np.random.default_rng(43)
    analog = AnalogBeamformer(8, 4, np.zeros(8))
    baseband = crandn(rng, (4, 2))
    unitary = random_semi_unitaries(rng, 1, 2, 2)[0]
    with pytest.raises(ValueError):
        objective(analog, baseband, unitary, crandn(rng, (6, 2)), crandn(rng, (8, 2)), 0.5)
    with pytest.raises(ValueError):
        objective(analog, baseband, unitary, crandn(rng, (8, 2)), crandn(rng, (8, 3)), 0.5)


def test_solve_unitary_self_alignment():
    rng = np.random.default_rng(44)
    f_rad = crandn(rng, (8, 3))
    result = solve_unitary(f_rad, f_rad).matrix
    np.testing.assert_allclose(result, np.eye(3), atol=1e-10)


def test_solve_unitary_scalar_case():
    f_rad = np.array([[2.0 - 1.0j]])
    product = np.array([[0.5 + 3.0j]])
    z = f_rad.conj().T @ product
    result = solve_unitary(f_rad, product).matrix
    np.testing.assert_allclose(result, z / abs(z[0, 0]), atol=1e-12)


def test_solve_unitary_semi_unitary_and_zero_input():
    rng = np.random.default_rng(45)
    f_rad = crandn(rng, (8, 3))
    for product in (crandn(rng, (8, 5)), np.zeros((8, 5), dtype=complex)):
        u = solve_unitary(f_rad, product).matrix
        assert np.linalg.norm(u @ u.conj().T - np.eye(3)) <= 1e-9


def test_solve_unitary_beats_random_samples():
    rng = np.random.default_rng(46)
    for _ in range(20):
        f_rad = crandn(rng, (10, 3))
        product = crandn(rng, (10, 6))
        closed = solve_unitary(f_rad, product).matrix
        best = objective_of_unitary(f_rad, product, closed)
        samples = random_semi_unitaries(rng, 500, 3, 6)
        sampled = np.array([objective_of_unitary(f_rad, product, u) for u in samples])
        assert best <= sampled.min() + 1e-9


def objective_of_unitary(f_rad, product, unitary):
    diff = f_rad @ unitary - product
    return float(np.vdot(diff, diff).real)


def test_solve_analog_single_rotation():
    baseband = np.array([[1.0 + 0.0j, 0.0j]])
    f_com = np.array([[np.exp(1j * math.pi / 3), 0.0j]])
    f_rad_u = np.zeros((1, 2), dtype=complex)
    analog = solve_analog(baseband, f_com, f_rad_u, eta=1.0)
    np.testing.assert_allclose(analog.phases[0], math.pi / 3, rtol=1e-12)


def test_solve_analog_ignores_comm_target_at_eta_zero():
    rng = np.random.default_rng(47)
    baseband = crandn(rng, (4, 3))
    f_rad_u = crandn(rng, (12, 3))
    first = solve_analog(baseband, crandn(rng, (12, 3)), f_rad_u, eta=0.0)
    second = solve_analog(baseband, crandn(rng, (12, 3)), f_rad_u, eta=0.0)
    np.testing.assert_array_equal(first.phases, second.phases)


def test_solve_analog_beats_phase_grid():
    # exhaustive scan over the phase circle, evaluated entrywise so it shares
    # no algebra with the closed form; also pins the conjugation convention
    rng = np.random.default_rng(48)
    grid = np.linspace(0.0, TWO_PI, 100_000, endpoint=False)
    rotations = np.exp(1j * grid)
    for _ in range(200):
        row = crandn(rng, (1, 4))
        target_com = crandn(rng, (1, 4))
        target_rad = crandn(rng, (1, 4))
        comm_curve = np.sum(np.abs(rotations[:, None] * row - target_com) ** 2, axis=1)
        radar_curve = np.sum(np.abs(rotations[:, None] * row - target_rad) ** 2, axis=1)
        for eta in (0.3, 0.5, 0.9):
            analog = solve_analog(row, target_com, target_rad, eta)
            rotated = np.exp(1j * analog.phases[0]) * row
            value = (eta * np.sum(np.abs(rotated - target_com) ** 2)
                     + (1 - eta) * np.sum(np.abs(rotated - target_rad) ** 2))
            grid_min = (eta * comm_curve + (1 - eta) * radar_curve).min()
            assert value <= grid_min + 1e-6


def test_solve_analog_keeps_previous_phase_when_degenerate():
    baseband = np.zeros((2, 2), dtype=complex)
    baseband[0, 0] = 1.0
    targets = np.zeros((4, 2), dtype=complex)
    targets[0, 0] = 1.0j
    previous = AnalogBeamformer(4, 2, np.array([0.3, 0.4, 0.5, 0.6]))
    analog = solve_analog(baseband, targets, targets, eta=0.5, previous=previous)
    # antennas 2 and 3 ride a zero baseband row: any phase is optimal
    np.testing.assert_allclose(analog.phases[2:], [0.5, 0.6], rtol=1e-15)
    np.testing.assert_allclose(analog.phases[0], math.pi / 2, rtol=1e-12)
    without_previous = solve_analog(baseband, targets, targets, eta=0.5)
    np.testing.assert_array_equal(without_previous.phases[2:], [0.0, 0.0])


def test_solve_analog_validates_shapes():
    rng = np.random.default_rng(49)
    with pytest.raises(ValueError):
        solve_analog(crandn(rng, (5, 2)), crandn(rng, (12, 2)), crandn(rng, (12, 2)), 0.5)
    with pytest.raises(ValueError):
        solve_analog(crandn(rng, (4, 2)), crandn(rng, (12, 2)), crandn(rng, (12, 3)), 0.5)


def test_sphere_ls_isotropic_gram():
    rng = np.random.default_rng(50)
    g = crandn(rng, (5, 3))
    x, lam = solve_sphere_least_squares(np.eye(5), g, 2.0)
    np.testing.assert_allclose(x, math.sqrt(2.0) * g / np.linalg.norm(g), atol=1e-9)
    assert lam > -1.0


def test_sphere_ls_recovers_constructed_optimum():
    rng = np.random.default_rng(51)
    for _ in range(20):
        seed_matrix = crandn(rng, (6, 6))
        q = seed_matrix @ seed_matrix.conj().T + 0.3 * np.eye(6)
        target = crandn(rng, (6, 2))
        target *= math.sqrt(1.7 / np.sum(np.abs(target) ** 2))
        x, lam = solve_sphere_least_squares(q, q @ target, 1.7)
        assert np.linalg.norm(x - target) <= 1e-7
        assert abs(lam) <= 1e-6


def test_sphere_ls_hard_case():
    rng = np.random.default_rng(52)
    eigenvalues = np.array([0.5, 1.0, 2.0, 3.0])
    basis, _ = np.linalg.qr(crandn(rng, (4, 4)))
    q = (basis * eigenvalues) @ basis.conj().T
    rotated = np.zeros((4, 2), dtype=complex)
    rotated[1:] = 0.01 * crandn(rng, (3, 2))
    g = basis @ rotated  # no component on the bottom eigenvector
    c = 10.0
    x, lam = solve_sphere_least_squares(q, g, c)
    np.testing.assert_allclose(lam, -0.5, atol=1e-9)
    assert abs(np.sum(np.abs(x) ** 2) - c) <= 1e-8 * c
    residual = (q + lam * np.eye(4)) @ x - g
    assert np.linalg.norm(residual) <= 1e-7 * np.linalg.norm(g)


def test_sphere_ls_kkt_certificate_random():
    rng = np.random.default_rng(53)
    for _ in range(100):
        seed_matrix = crandn(rng, (8, 8))
        q = seed_matrix @ seed_matrix.conj().T
        g = crandn(rng, (8, 4))
        c = float(rng.uniform(0.5, 4.0))
        x, lam = solve_sphere_least_squares(q, g, c)
        assert np.linalg.norm((q + lam * np.eye(8)) @ x - g) <= 1e-7 * np.linalg.norm(g)
        assert abs(np.sum(np.abs(x) ** 2) - c) <= 1e-8 * c
        spectrum = np.linalg.eigvalsh(q)
        assert spectrum[0] + lam >= -1e-9 * spectrum[-1]


def test_sphere_ls_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_sphere_least_squares(np.eye(3), np.ones((3, 1)), 0.0)
    with pytest.raises(SolverError):
        solve_sphere_least_squares(np.eye(3) * np.nan, np.ones((3, 1)), 1.0)


def test_solve_baseband_meets_power_constraint():
    rng = np.random.default_rng(54)
    analog = AnalogBeamformer(12, 4, rng.uniform(0, TWO_PI, 12))
    f_com = crandn(rng, (12, 3))
    f_rad_u = crandn(rng, (12, 3))
    result = solve_baseband(analog, f_com, f_rad_u, 0.6, total_power=5.0)
    target = 4 * 5.0 / 12
    assert abs(np.sum(np.abs(result.matrix) ** 2) - target) <= 1e-10 * target


def baseband_objective(analog, baseband, mixed):
    diff = materialize_product(analog, baseband) - mixed
    return float(np.vdot(diff, diff).real)


@pytest.mark.parametrize("num_rf, block", [(1, 6), (4, 3), (6, 2), (24, 5)])
def test_solve_baseband_matches_sphere_oracle(num_rf, block):
    rng = np.random.default_rng(56 + num_rf)
    num_antennas = num_rf * block
    for _ in range(20):
        analog = AnalogBeamformer(num_antennas, num_rf, rng.uniform(0, TWO_PI, num_antennas))
        f_com = crandn(rng, (num_antennas, 3))
        f_rad_u = crandn(rng, (num_antennas, 3))
        eta = float(rng.uniform(0, 1))
        power = float(rng.uniform(0.5, 8.0))
        c = num_rf * power / num_antennas
        mixed = eta * f_com + (1 - eta) * f_rad_u
        f_rf = analog.to_matrix()
        oracle, _ = solve_sphere_least_squares(f_rf.conj().T @ f_rf, f_rf.conj().T @ mixed, c)
        closed = solve_baseband(analog, f_com, f_rad_u, eta, power).matrix
        for x in (closed, oracle):
            assert abs(np.sum(np.abs(x) ** 2) - c) <= 1e-12 * c
        expected = baseband_objective(analog, oracle, mixed)
        assert abs(baseband_objective(analog, closed, mixed) - expected) <= 1e-12 * (1 + expected)
        np.testing.assert_allclose(closed, oracle, atol=1e-12)


def test_solve_baseband_zero_target_picks_first_entry():
    # every point of the sphere is optimal; the oracle's choice follows
    # eigenvector rounding, so only power and optimality are compared with it
    analog = AnalogBeamformer(12, 4, np.random.default_rng(57).uniform(0, TWO_PI, 12))
    zeros = np.zeros((12, 3), dtype=complex)
    c = 4 * 5.0 / 12
    closed = solve_baseband(analog, zeros, zeros, 0.6, total_power=5.0).matrix
    expected = np.zeros((4, 3), dtype=complex)
    expected[0, 0] = math.sqrt(c)
    np.testing.assert_array_equal(closed, expected)
    f_rf = analog.to_matrix()
    oracle, _ = solve_sphere_least_squares(f_rf.conj().T @ f_rf, np.zeros((4, 3)), c)
    assert abs(np.sum(np.abs(oracle) ** 2) - c) <= 1e-12 * c
    assert abs(baseband_objective(analog, closed, zeros)
               - baseband_objective(analog, oracle, zeros)) <= 1e-12


def test_alternating_minimization_skips_dense_analog_and_sphere_solver(monkeypatch):
    import dfrcbeam.altmin as altmin_module

    def forbidden(*args, **kwargs):
        raise AssertionError("dense path reached")

    monkeypatch.setattr(AnalogBeamformer, "to_matrix", forbidden)
    monkeypatch.setattr(altmin_module, "solve_sphere_least_squares", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    f_com, f_rad = toy_problem(59)
    config = AltMinConfig(eta=0.5, total_power=3.0, max_iterations=5, rng_seed=2)
    assert alternating_minimization(f_com, f_rad, 4, config).iterations_used >= 1


def test_alternating_minimization_materializes_only_at_start_and_exit(monkeypatch):
    import dfrcbeam.altmin as altmin_module
    designs = []  # the number of designs each call materializes
    original = altmin_module.materialize_product

    def counted(analog, baseband):
        designs.append(int(np.prod(np.shape(getattr(analog, "phases", analog))[:-1])))
        return original(analog, baseband)

    monkeypatch.setattr(altmin_module, "materialize_product", counted)
    f_com, f_rad = toy_problem(61)
    config = AltMinConfig(eta=0.6, total_power=3.0, max_iterations=50, rng_seed=4)
    report = alternating_minimization(f_com, f_rad, 4, config)
    assert report.iterations_used > 1
    assert designs == [1, 1]  # the start and the exit check
    designs.clear()
    configs = [AltMinConfig(eta=eta, total_power=3.0, max_iterations=50, rng_seed=4)
               for eta in (0.0, 0.3, 0.6, 0.9, 1.0)]
    reports = alternating_minimization_stack([(f_com, configs)], f_rad, 4)[0]
    assert len({r.iterations_used for r in reports}) > 1
    # the start, then every design once, in one pass after the last has left
    assert designs == [1, len(configs)]


@pytest.mark.parametrize("eta", [0.0, 0.6, 1.0])
def test_objective_trace_ends_at_the_final_objective(eta):
    f_com, f_rad = toy_problem(62)
    config = AltMinConfig(eta=eta, total_power=3.0, max_iterations=50, rng_seed=5)
    report = alternating_minimization(f_com, f_rad, 4, config)
    final = objective(report.hybrid.analog, report.hybrid.baseband, report.unitary,
                      f_com, f_rad, eta)
    assert report.objective_trace[-1] == final


def test_each_block_solve_never_increases_objective():
    rng = np.random.default_rng(55)
    for trial in range(20):
        f_com, f_rad = toy_problem(900 + trial)
        analog, baseband, unitary = random_start(12, 4, 3, 3, 3.0, rng)
        eta = float(rng.uniform(0, 1))
        start = objective(analog, baseband, unitary, f_com, f_rad, eta)

        new_unitary = solve_unitary(f_rad, materialize_product(analog, baseband.matrix))
        assert objective(analog, baseband, new_unitary, f_com, f_rad, eta) <= start + 1e-9 * (1 + start)

        f_rad_u = f_rad @ unitary.matrix
        new_analog = solve_analog(baseband, f_com, f_rad_u, eta, previous=analog)
        assert objective(new_analog, baseband, unitary, f_com, f_rad, eta) <= start + 1e-9 * (1 + start)

        new_baseband = solve_baseband(analog, f_com, f_rad_u, eta, 3.0)
        assert objective(analog, new_baseband, unitary, f_com, f_rad, eta) <= start + 1e-9 * (1 + start)


def test_alternating_minimization_monotone_and_reported():
    f_com, f_rad = toy_problem(60)
    config = AltMinConfig(eta=0.5, total_power=3.0, tolerance=1e-6,
                          max_iterations=200, rng_seed=4)
    report = alternating_minimization(f_com, f_rad, 4, config)
    trace = np.asarray(report.objective_trace)
    slack = 1e-9 * (1.0 + trace[0])
    assert np.all(np.diff(trace) <= slack)
    assert report.iterations_used == len(trace) - 1
    assert report.converged
    # final baseband sits on its power sphere
    baseband_power = np.sum(np.abs(report.hybrid.baseband.matrix) ** 2)
    assert abs(baseband_power - 4 * 3.0 / 12) <= 1e-10
    unitary = report.unitary.matrix
    assert np.linalg.norm(unitary @ unitary.conj().T - np.eye(3)) <= 1e-9


def test_alternating_minimization_deterministic():
    f_com, f_rad = toy_problem(61)
    config = AltMinConfig(eta=0.4, total_power=3.0, rng_seed=17)
    first = alternating_minimization(f_com, f_rad, 4, config)
    second = alternating_minimization(f_com, f_rad, 4, config)
    assert first.objective_trace == second.objective_trace
    assert np.array_equal(first.hybrid.analog.phases, second.hybrid.analog.phases)
    assert np.array_equal(first.hybrid.baseband.matrix, second.hybrid.baseband.matrix)


def test_fully_digital_comm_only_reaches_zero():
    rng = np.random.default_rng(62)
    f_com = crandn(rng, (4, 2))
    f_com *= math.sqrt(2.0 / np.sum(np.abs(f_com) ** 2))
    f_rad = radar_beamformer(TargetScene((0.3, -0.4), 4), 2.0)
    config = AltMinConfig(eta=1.0, total_power=2.0, tolerance=1e-10,
                          max_iterations=100, rng_seed=3)
    report = alternating_minimization(f_com, f_rad, 4, config)
    assert report.objective_trace[-1] <= 1e-8


def test_radar_only_reachable_toy_reaches_zero():
    # blocks of the radar beamformer align with whole RF chains here, so a
    # zero-objective hybrid factorization exists; restarts dodge local minima
    rng = np.random.default_rng(63)
    f_com = crandn(rng, (8, 2))
    f_rad = radar_beamformer(TargetScene((-0.45, 0.7), 8), 3.0)
    best = math.inf
    for restart in range(10):
        config = AltMinConfig(eta=0.0, total_power=3.0, tolerance=1e-9,
                              max_iterations=300, rng_seed=200 + restart)
        report = alternating_minimization(f_com, f_rad, 4, config)
        best = min(best, report.objective_trace[-1])
    assert best <= 1e-4


def test_huge_tolerance_stops_after_one_iteration():
    f_com, f_rad = toy_problem(64)
    config = AltMinConfig(eta=0.5, total_power=3.0, tolerance=1e6,
                          max_iterations=50, rng_seed=1)
    report = alternating_minimization(f_com, f_rad, 4, config)
    assert report.iterations_used == 1
    assert len(report.objective_trace) == 2
    assert report.converged


def test_max_iterations_reported_as_not_converged():
    f_com, f_rad = toy_problem(65)
    config = AltMinConfig(eta=0.5, total_power=3.0, tolerance=1e-16,
                          max_iterations=3, rng_seed=1)
    report = alternating_minimization(f_com, f_rad, 4, config)
    assert report.iterations_used == 3
    assert not report.converged


def test_alternating_minimization_validates_structure():
    rng = np.random.default_rng(66)
    config = AltMinConfig(eta=0.5, total_power=1.0)
    f_com = crandn(rng, (12, 3))
    with pytest.raises(ValueError):
        alternating_minimization(f_com, crandn(rng, (12, 5)), 4, config)  # 12 % 5 != 0
    with pytest.raises(ValueError):
        alternating_minimization(f_com, crandn(rng, (12, 3)), 5, config)  # 12 % 5 != 0
    with pytest.raises(ValueError):
        alternating_minimization(crandn(rng, (12, 2)), crandn(rng, (12, 3)), 4, config)


def test_paper_scale_run_converges():
    rng = np.random.default_rng(67)
    h = crandn(rng, (6, 120))
    basis = np.linalg.svd(h, full_matrices=False)[2].conj().T
    f_com = basis[:, :6] * math.sqrt(6.0 / 6)
    angles = tuple(math.radians(a) for a in (-30.0, 0.0, 30.0))
    f_rad = radar_beamformer(TargetScene(angles, 120), 6.0)
    config = AltMinConfig(eta=0.5, total_power=6.0, tolerance=1e-4,
                          max_iterations=100, rng_seed=5)
    report = alternating_minimization(f_com, f_rad, 24, config)
    assert report.converged
    assert report.iterations_used <= 100


def assert_same_report(actual, expected):
    assert np.array_equal(actual.hybrid.analog.phases, expected.hybrid.analog.phases)
    assert np.array_equal(actual.hybrid.baseband.matrix, expected.hybrid.baseband.matrix)
    assert np.array_equal(actual.unitary.matrix, expected.unitary.matrix)
    assert actual.objective_trace == expected.objective_trace
    assert actual.iterations_used == expected.iterations_used
    assert actual.converged == expected.converged


def test_batch_members_report_as_their_one_member_runs():
    f_com, f_rad = toy_problem(70)
    configs = [AltMinConfig(eta=eta, total_power=3.0, tolerance=1e-6, max_iterations=20,
                            rng_seed=8) for eta in (0.0, 0.3, 0.6, 0.9, 1.0)]
    reports = alternating_minimization_stack([(f_com, configs)], f_rad, 4)[0]
    # members leave at 2, 18 and 20 iterations; two run out of iterations and
    # the last converges on its final allowed one
    assert [(r.iterations_used, r.converged) for r in reports] == [
        (2, True), (20, False), (20, False), (18, True), (20, True)]
    for config, report in zip(configs, reports):
        assert_same_report(report, alternating_minimization(f_com, f_rad, 4, config))


def test_batch_does_not_size_its_trace_by_max_iterations():
    f_com, f_rad = toy_problem(70)

    def run(max_iterations):
        configs = [AltMinConfig(eta=eta, total_power=3.0, tolerance=1e-3,
                                max_iterations=max_iterations, rng_seed=8)
                   for eta in (0.0, 0.6, 1.0)]
        return alternating_minimization_stack([(f_com, configs)], f_rad, 4)[0]

    bounded = run(100)
    assert all(r.converged and r.iterations_used < 100 for r in bounded)
    for report, expected in zip(run(10**12), bounded):
        assert_same_report(report, expected)


def test_stack_members_report_as_their_one_member_runs():
    f_com, f_rad = toy_problem(70)
    other, _ = toy_problem(76)
    etas = (0.0, 0.6, 1.0)
    problems = [(f_com, [AltMinConfig(eta=eta, total_power=3.0, tolerance=1e-6,
                                      max_iterations=30, rng_seed=8) for eta in etas]),
                (other, [AltMinConfig(eta=eta, total_power=3.0, tolerance=1e-6,
                                      max_iterations=30, rng_seed=9) for eta in etas[:2]])]
    reports = alternating_minimization_stack(problems, f_rad, 4)
    assert [len(r) for r in reports] == [3, 2]
    for (target, configs), problem_reports in zip(problems, reports):
        for config, report in zip(configs, problem_reports):
            assert_same_report(report, alternating_minimization(target, f_rad, 4, config))


def test_stack_names_the_problem_of_a_non_finite_member():
    f_com, f_rad = toy_problem(72)
    huge = np.full_like(f_com, 1e308)
    problems = [(target, [AltMinConfig(eta=eta, total_power=3.0, rng_seed=seed)
                          for eta in (0.0, 0.8)])
                for seed, target in enumerate((f_com, huge, f_com))]
    with np.errstate(all="ignore"), pytest.raises(SolverError, match=r"eta=0\.8$") as caught:
        alternating_minimization_stack(problems, f_rad, 4)
    assert caught.value.problem == 1


def test_stack_names_the_problem_of_a_member_that_fails_in_the_loop(monkeypatch):
    import dfrcbeam.altmin as altmin_module
    f_com, f_rad = toy_problem(74)
    other, _ = toy_problem(77)
    problems = [(target, [AltMinConfig(eta=eta, total_power=3.0, rng_seed=seed)
                          for eta in (0.3, 0.6)])
                for seed, target in enumerate((f_com, other))]
    original = altmin_module._chain_objective
    calls = []

    def spoiled(*args):
        result = original(*args)
        calls.append(1)
        if len(calls) == 2:
            result = result.copy()
            result[3] = math.nan  # the second member of problem 1
        return result

    monkeypatch.setattr(altmin_module, "_chain_objective", spoiled)
    with pytest.raises(SolverError, match=r"non-finite objective at eta=0\.6$") as caught:
        alternating_minimization_stack(problems, f_rad, 4)
    assert caught.value.problem == 1
    assert len(calls) == 2


def test_stack_names_the_problem_of_a_member_whose_svd_fails(monkeypatch):
    f_com, f_rad = toy_problem(74)
    other, _ = toy_problem(77)
    problems = [(target, [AltMinConfig(eta=eta, total_power=3.0, rng_seed=seed)
                          for eta in (0.3, 0.6)])
                for seed, target in enumerate((f_com, other))]
    original = np.linalg.svd
    calls, spoiled = [], []

    def failing(a, *args, **kwargs):
        calls.append(len(a))
        if len(calls) == 2:
            spoiled.append(a[3].copy())  # the second member of problem 1
        if spoiled and any(np.array_equal(m, spoiled[0]) for m in a):
            raise np.linalg.LinAlgError("SVD did not converge")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(SolverError, match=r"^SVD did not converge at eta=0\.6$") as caught:
        alternating_minimization_stack(problems, f_rad, 4)
    assert caught.value.problem == 1
    # the stacked call, then one call per member to find the failing one
    assert calls == [4, 4, 1, 1, 1, 1]


def test_stack_rejects_problems_that_differ_beyond_eta_and_seed():
    f_com, f_rad = toy_problem(71)
    base = AltMinConfig(eta=0.5, total_power=3.0, rng_seed=1)
    alternating_minimization_stack(
        [(f_com, [base]), (f_com, [replace(base, rng_seed=2, eta=0.1)])], f_rad, 4)
    with pytest.raises(ValueError, match="only in eta"):
        alternating_minimization_stack(
            [(f_com, [base]), (f_com, [replace(base, tolerance=1e-3)])], f_rad, 4)
    with pytest.raises(ValueError):
        alternating_minimization_stack([(f_com, [base]), (f_com[:6], [base])], f_rad, 4)


def test_batch_rejects_configs_that_differ_beyond_eta():
    f_com, f_rad = toy_problem(71)
    base = AltMinConfig(eta=0.5, total_power=3.0, rng_seed=1)
    with pytest.raises(ValueError, match="only in eta"):
        alternating_minimization_stack([(f_com, [base, AltMinConfig(
            eta=0.7, total_power=3.0, rng_seed=2)])], f_rad, 4)
    with pytest.raises(ValueError):
        alternating_minimization_stack([(f_com, [])], f_rad, 4)[0]


def test_batch_names_the_eta_of_a_non_finite_member():
    f_com, f_rad = toy_problem(72)
    # finite, but eta * f_com overflows the baseband target unless eta = 0
    huge = np.full_like(f_com, 1e308)
    configs = [AltMinConfig(eta=eta, total_power=3.0, rng_seed=1) for eta in (0.0, 0.8)]
    with np.errstate(all="ignore"), pytest.raises(SolverError, match=r"eta=0\.8"):
        alternating_minimization_stack([(huge, configs)], f_rad, 4)[0]


def counting_calls(monkeypatch, module, name, spoil_at=None):
    """Count the calls of `module.name`; the `spoil_at`-th returns a copy of
    its per-member result with member 1 set to NaN."""
    original = getattr(module, name)
    calls = []

    def counted(*args):
        result = original(*args)
        calls.append(1)
        if len(calls) == spoil_at:
            result = result.copy()
            result[1] = math.nan
        return result

    monkeypatch.setattr(module, name, counted)
    return calls


def test_batch_rejects_a_non_finite_objective_at_the_start(monkeypatch):
    import dfrcbeam.metrics as metrics_module
    f_com, f_rad = toy_problem(72)
    # at eta = 0 the solve is finite, but the weighted error forms 0 * inf
    f_com[0, 0] = 1e308
    config = AltMinConfig(eta=0.0, total_power=3.0, max_iterations=30)
    calls = counting_calls(monkeypatch, metrics_module, "fitting_errors")
    with np.errstate(all="ignore"), pytest.raises(SolverError,
                                                  match=r"non-finite objective at eta=0\.0"):
        alternating_minimization_stack([(f_com, [config])], f_rad, 4)[0]
    assert len(calls) == 1  # before the first iteration


def test_batch_rejects_a_non_finite_objective_at_a_later_iteration(monkeypatch):
    import dfrcbeam.altmin as altmin_module
    import dfrcbeam.metrics as metrics_module
    f_com, f_rad = toy_problem(74)
    configs = [AltMinConfig(eta=eta, total_power=3.0, rng_seed=2) for eta in (0.3, 0.6, 0.9)]
    exact = counting_calls(monkeypatch, metrics_module, "fitting_errors")
    in_loop = counting_calls(monkeypatch, altmin_module, "_chain_objective",
                             spoil_at=2)  # after iteration 2
    with pytest.raises(SolverError, match=r"non-finite objective at eta=0\.6$"):
        alternating_minimization_stack([(f_com, configs)], f_rad, 4)[0]
    assert len(in_loop) == 2
    assert len(exact) == 1  # the start only: no member has left


def test_chain_objective_matches_the_exact_one_at_exit(monkeypatch):
    import dfrcbeam.altmin as altmin_module
    f_com, f_rad = toy_problem(75)
    configs = [AltMinConfig(eta=eta, total_power=3.0, rng_seed=6) for eta in (0.2, 0.7)]
    original = altmin_module._chain_objective
    for relative, fails in ((1e-10, True), (1e-14, False)):
        monkeypatch.setattr(altmin_module, "_chain_objective",
                            lambda *args: original(*args) * (1.0 + relative))
        if fails:
            with pytest.raises(SolverError, match="block-sum objective .* disagrees"):
                alternating_minimization_stack([(f_com, configs)], f_rad, 4)[0]
        else:
            alternating_minimization_stack([(f_com, configs)], f_rad, 4)[0]


def test_design_stack_solves_once_for_all_its_designs(monkeypatch):
    import dfrcbeam.altmin as altmin_module
    calls = []
    original = altmin_module.alternating_minimization_stack

    def counted(*args):
        calls.append(1)
        return original(*args)

    f_com, f_rad = toy_problem(73)
    configs = [AltMinConfig(eta=eta, total_power=3.0, rng_seed=3) for eta in (0.2, 0.6, 1.0)]
    alone = [alternating_minimization(f_com, f_rad, 4, config) for config in configs]
    monkeypatch.setattr(altmin_module, "alternating_minimization_stack", counted)
    stack = DesignStack(f_rad, 4, [(f_com, configs)])
    assert len(calls) == 1  # solved when built
    for config, expected in zip(reversed(configs), reversed(alone)):
        assert_same_report(alternating_minimization(f_com, f_rad, 4, config, stack), expected)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="different problem"):
        alternating_minimization(f_com.copy(), f_rad, 4, configs[0], stack)
