"""Alternating minimization of the joint beamformer design objective.

The design goal is a hybrid product F = F_RF F_BB that is simultaneously close
to a communication precoder and to a radar beamformer:

    eta * ||F - f_com||_F^2 + (1 - eta) * ||F - f_rad @ U||_F^2

subject to the phase-only block structure of F_RF, the transmit power carried
by F, and U semi-unitary.  U exists because the radar beampattern depends on
the beamformer only through its covariance, which is invariant under
right-multiplication by a semi-unitary matrix; optimizing U lets the radar
target rotate freely inside that equivalence class.

Each of the three blocks admits an exact solve with the others fixed
(`solve_unitary`, `solve_analog`, `solve_baseband`), so cycling through them
in `alternating_minimization` produces a non-increasing objective sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .hybrid import (
    AnalogBeamformer,
    BasebandBeamformer,
    HybridBeamformer,
    materialize_product,
    normalize_power,
)
from .ula import TWO_PI


class SolverError(RuntimeError):
    """A numerical subproblem could not be solved to its contract."""


@dataclass(frozen=True)
class AltMinConfig:
    """Knobs of the alternating solve.

    `tolerance` is relative: iteration stops once the objective improves by
    less than tolerance * (1 + initial objective).  `rng_seed` fixes the
    random starting point.
    """

    eta: float
    total_power: float
    tolerance: float = 1e-5
    max_iterations: int = 100
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.eta, self.total_power, self.tolerance)):
            raise ValueError("eta, total_power and tolerance must be finite")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if not self.total_power > 0:
            raise ValueError("total_power must be positive")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 <= int(self.rng_seed) < 2**64:
            raise ValueError("rng_seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class AuxiliaryUnitary:
    """Semi-unitary auxiliary variable with orthonormal rows."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] > m.shape[1]:
            raise ValueError("matrix must be 2-D with no more rows than columns")
        gram = m @ m.conj().T
        if np.linalg.norm(gram - np.eye(m.shape[0])) > 1e-9:
            raise ValueError("rows are not orthonormal")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class AltMinReport:
    """Outcome of one alternating run.

    `objective_trace[0]` is the objective at the random start; entry k is the
    value after iteration k.  `converged` is False when the run stopped only
    because `max_iterations` was reached.
    """

    hybrid: HybridBeamformer
    unitary: AuxiliaryUnitary
    objective_trace: list[float] = field(repr=False)
    iterations_used: int
    converged: bool


def _as_matrix(x) -> np.ndarray:
    return np.asarray(getattr(x, "matrix", x))


def objective(analog: AnalogBeamformer, baseband, unitary, f_com, f_rad, eta: float) -> float:
    """Weighted sum of squared Frobenius distances from the hybrid product to both targets."""
    product = materialize_product(analog, _as_matrix(baseband))
    return metrics.fitting_errors(product, f_com, np.asarray(f_rad) @ _as_matrix(unitary), eta)[2]


def solve_unitary(f_rad, product) -> AuxiliaryUnitary:
    """Semi-unitary U minimizing ||f_rad @ U - product||_F.

    With the singular value decomposition u s vh of f_rad^H product, the
    minimizer is u @ vh.  A zero product matrix is fine: every semi-unitary is
    then optimal and the SVD basis picks one deterministically.
    """
    f_rad = np.asarray(f_rad)
    product = np.asarray(product)
    if f_rad.shape[0] != product.shape[0]:
        raise ValueError("f_rad and product must have the same number of rows")
    if f_rad.shape[1] > product.shape[1]:
        raise ValueError("need at least as many streams as radar targets")
    u, _, vh = np.linalg.svd(f_rad.conj().T @ product, full_matrices=False)
    return AuxiliaryUnitary(u @ vh)


def solve_analog(baseband, f_com, f_rad_u, eta: float,
                 previous: AnalogBeamformer | None = None) -> AnalogBeamformer:
    """Per-antenna optimal phases with the baseband and auxiliary blocks fixed.

    The objective separates over antennas: antenna i contributes
    ||e^{j phi} b_i - t_i||^2 terms, where b_i is the baseband row of its
    chain and t_i mixes the two target rows with weights eta and 1 - eta.
    The minimizing phase is the argument of <t_i, b_i>.  When that inner
    product is zero every phase is optimal, so the previous phase (or zero)
    is kept to preserve determinism and descent.
    """
    baseband = _as_matrix(baseband)
    f_com = np.asarray(f_com)
    f_rad_u = np.asarray(f_rad_u)
    if f_com.shape != f_rad_u.shape:
        raise ValueError("f_com and the rotated radar target must have equal shapes")
    num_antennas = f_com.shape[0]
    num_rf = baseband.shape[0]
    if baseband.shape[1] != f_com.shape[1]:
        raise ValueError("baseband and targets disagree on the stream count")
    if num_antennas % num_rf != 0:
        raise ValueError(f"{num_antennas} antennas not divisible by {num_rf} RF chains")
    block = num_antennas // num_rf
    rows = np.repeat(baseband, block, axis=0)
    mixed = eta * f_com + (1.0 - eta) * f_rad_u
    corr = np.einsum("ik,ik->i", mixed, rows.conj())
    phases = np.angle(corr)
    degenerate = corr == 0
    if np.any(degenerate):
        fallback = previous.phases if previous is not None else np.zeros(num_antennas)
        phases = np.where(degenerate, fallback, phases)
    return AnalogBeamformer(num_antennas, num_rf, phases)


def solve_sphere_least_squares(q: np.ndarray, g: np.ndarray, target_sq_norm: float):
    """Global minimizer of tr(X^H Q X) - 2 Re tr(X^H G) over ||X||_F^2 = c.

    Q must be Hermitian PSD (it arises as a Gram matrix).  Diagonalizing
    Q = V diag(evals) V^H turns the stationarity condition (Q + lam I) X = G
    into a scalar secular equation: the squared norm
    n(lam) = sum_i ||(V^H G)_i||^2 / (evals_i + lam)^2 is strictly decreasing
    on (-evals_min, inf), so the multiplier with n(lam) = c is found by
    bisection.  When G has no component on the bottom eigenspace and
    n(-evals_min) < c (the hard case), the solution is completed with a bottom
    eigenvector so the sphere is still reached.

    Returns (x, lam).  Q + lam I is positive semidefinite, which certifies the
    global optimum.  The alternating loop does not need this general solver,
    because its Gram matrix is a multiple of the identity (see
    `solve_baseband`); the tests keep it as the reference for that closed form.
    """
    q = np.asarray(q, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or g.shape[0] != q.shape[0]:
        raise ValueError("q must be square and g must have matching rows")
    if not target_sq_norm > 0:
        raise ValueError("target_sq_norm must be positive")
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(g))):
        raise SolverError("non-finite entries in the sphere least-squares data")
    q = (q + q.conj().T) / 2
    evals, vecs = np.linalg.eigh(q)
    g_rot = vecs.conj().T @ g
    row_power = np.sum(np.abs(g_rot) ** 2, axis=1)
    c = float(target_sq_norm)

    def sq_norm_at(lam: float) -> float:
        return float(np.sum(row_power / (evals + lam) ** 2))

    eig_min = float(evals[0])
    delta = 1e-12 * (1.0 + float(np.abs(evals).max(initial=0.0)))
    lo = -eig_min + delta

    if sq_norm_at(lo) < c:
        # hard case: G is orthogonal to the bottom eigenspace and the sphere
        # is unreachable through the secular equation alone
        lam = -eig_min
        denom = evals + lam
        x_rot = np.zeros_like(g_rot)
        keep = denom > delta
        x_rot[keep] = g_rot[keep] / denom[keep, None]
        deficit = c - float(np.sum(np.abs(x_rot) ** 2))
        if deficit > 0:
            x_rot[0, 0] += math.sqrt(deficit)
    else:
        # n(lam) <= ||G||^2 / (eig_min + lam)^2, so this bound brackets the root
        hi = max(lo, -eig_min + float(np.linalg.norm(g)) / math.sqrt(c))
        grow = 0
        while sq_norm_at(hi) > c:
            hi = lo + 2.0 * max(hi - lo, 1.0)
            grow += 1
            if grow > 200:
                raise SolverError("failed to bracket the power multiplier")
        lam = 0.5 * (lo + hi)
        for _ in range(200):
            lam = 0.5 * (lo + hi)
            value = sq_norm_at(lam)
            if abs(value - c) <= 1e-10 * c:
                break
            if value > c:
                lo = lam
            else:
                hi = lam
            if hi - lo <= 1e-16 * max(1.0, abs(lo), abs(hi)):
                lam = 0.5 * (lo + hi)
                break
        x_rot = g_rot / (evals + lam)[:, None]

    current = float(np.sum(np.abs(x_rot) ** 2))
    if current == 0.0:
        raise SolverError("sphere least-squares produced a zero iterate")
    x_rot *= math.sqrt(c / current)
    return vecs @ x_rot, float(lam)


def solve_baseband(analog: AnalogBeamformer, f_com, f_rad_u, eta: float,
                   total_power: float) -> BasebandBeamformer:
    """Optimal baseband stage on its power sphere with the other blocks fixed.

    Expanding the objective in F_BB gives a least-squares problem with Gram
    matrix F_RF^H F_RF and target G = F_RF^H M, where M mixes both targets,
    constrained to the sphere ||F_BB||_F^2 = num_rf_chains * total_power /
    num_antennas.  The analog blocks have disjoint supports and unit-modulus
    entries, so the Gram matrix is block_size * I and the optimum is G scaled
    onto the sphere.  Row r of G sums e^{-j phi_i} m_i over the antennas of
    chain r.  When G is zero every point of the sphere is optimal, and the
    first entry is picked.
    """
    mixed = eta * np.asarray(f_com) + (1.0 - eta) * np.asarray(f_rad_u)
    if mixed.shape[0] != analog.num_antennas:
        raise ValueError(f"targets have {mixed.shape[0]} rows, expected {analog.num_antennas}")
    rotated = np.exp(-1j * analog.phases)[:, None] * mixed
    g = rotated.reshape(analog.num_rf_chains, analog.block_size, -1).sum(axis=1)
    if not np.all(np.isfinite(g)):
        raise SolverError("non-finite entries in the baseband target")
    if not np.any(g):
        g[0, 0] = 1.0
    return normalize_power(BasebandBeamformer(g), analog.num_antennas,
                           analog.num_rf_chains, total_power)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(0.5)


def random_start(num_antennas: int, num_rf_chains: int, num_streams: int,
                 num_targets: int, total_power: float, rng: np.random.Generator):
    """Random feasible starting point: phases, power-normalized baseband, semi-unitary."""
    analog = AnalogBeamformer(num_antennas, num_rf_chains,
                              rng.uniform(0.0, TWO_PI, num_antennas))
    baseband = normalize_power(
        BasebandBeamformer(_complex_normal(rng, (num_rf_chains, num_streams))),
        num_antennas, num_rf_chains, total_power,
    )
    basis, _ = np.linalg.qr(_complex_normal(rng, (num_targets, num_streams)).conj().T)
    unitary = AuxiliaryUnitary(basis.conj().T)
    return analog, baseband, unitary


def alternating_minimization(f_com, f_rad, num_rf_chains: int,
                             config: AltMinConfig) -> AltMinReport:
    """Design the hybrid beamformer by cycling exact block solves.

    Starts from a seeded random feasible point, then repeats
    auxiliary -> analog -> baseband until the objective improvement falls
    below config.tolerance * (1 + initial objective) or `max_iterations` is
    exhausted.  Every block update is a global solve of its subproblem, so the
    recorded objective trace never increases.
    """
    f_com = np.asarray(f_com, dtype=complex)
    f_rad = np.asarray(f_rad, dtype=complex)
    if f_com.ndim != 2 or f_rad.ndim != 2 or f_com.shape[0] != f_rad.shape[0]:
        raise ValueError("f_com and f_rad must be 2-D with the same number of rows")
    num_antennas, num_streams = f_com.shape
    num_targets = f_rad.shape[1]
    if num_rf_chains < 1 or num_antennas % num_rf_chains != 0:
        raise ValueError(f"{num_antennas} antennas not divisible by "
                         f"{num_rf_chains} RF chains")
    if num_antennas % num_targets != 0:
        raise ValueError(f"{num_antennas} antennas not divisible by "
                         f"{num_targets} targets")
    if num_streams < num_targets:
        raise ValueError("need at least as many streams as radar targets")

    rng = np.random.default_rng(config.rng_seed)
    analog, baseband, unitary = random_start(
        num_antennas, num_rf_chains, num_streams, num_targets, config.total_power, rng
    )
    # the product of one iteration is the input of the next one's unitary solve
    product = materialize_product(analog, baseband.matrix)
    trace = [metrics.fitting_errors(product, f_com, f_rad @ unitary.matrix, config.eta)[2]]
    threshold = config.tolerance * (1.0 + trace[0])
    iterations = 0
    converged = False
    for step in range(1, config.max_iterations + 1):
        unitary = solve_unitary(f_rad, product)
        f_rad_u = f_rad @ unitary.matrix
        analog = solve_analog(baseband, f_com, f_rad_u, config.eta, previous=analog)
        baseband = solve_baseband(analog, f_com, f_rad_u, config.eta, config.total_power)
        product = materialize_product(analog, baseband.matrix)
        trace.append(metrics.fitting_errors(product, f_com, f_rad_u, config.eta)[2])
        iterations = step
        if abs(trace[-1] - trace[-2]) < threshold:
            converged = True
            break
    return AltMinReport(
        hybrid=HybridBeamformer(analog, baseband),
        unitary=unitary,
        objective_trace=trace,
        iterations_used=iterations,
        converged=converged,
    )
