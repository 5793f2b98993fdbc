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

Every block solve is a per-antenna or per-chain array operation, so each is
implemented once on a stack of members; `alternating_minimization_stack` is
the one loop.  It cycles the members of several problems that share f_rad,
each at several `eta`; the single design and the public 2-D solves are its
special cases, and a `DesignStack` keeps its reports for lookup one design at
a time.  The loop state is the unit phasor e^{-j phi} of each antenna; phases
are formed once, as a member leaves.

The loop never forms the N x S hybrid product or a mixed target.  The analog
stage has unit-modulus entries on disjoint blocks, so F_RF^H F_RF is a
multiple of the identity and everything the blocks need is a per-chain block
sum: row r of G_com (G_rad) sums e^{-j phi_i} f_com,i (f_rad,i) over the
antennas of chain r.  With c the baseband power:

* the unitary step takes the SVD of f_rad^H F = G_rad^H F_BB (T x S);
* the baseband step is sqrt(c) G / ||G||_F with G = eta G_com + (1-eta) G_rad U;
* the objective after it is P + eta ||f_com||^2 + (1-eta) ||f_rad||^2
  - 2 sqrt(c) ||G||_F, because the power ||F||^2 = P is exact and U has
  orthonormal rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from . import metrics
from .hybrid import (
    AnalogBeamformer,
    BasebandBeamformer,
    HybridBeamformer,
    canonical_phases,
    materialize_product,
    normalize_power,
)
from .ula import TWO_PI


class SolverError(RuntimeError):
    """A numerical subproblem could not be solved to its contract.

    `problem` is the index of the failing problem of a stacked solve, or None
    where the error belongs to no single problem.
    """

    def __init__(self, message: str, problem: int | None = None) -> None:
        super().__init__(message)
        self.problem = problem


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
        _check_orthonormal_rows(m)
        object.__setattr__(self, "matrix", m)


def _check_orthonormal_rows(matrices: np.ndarray) -> None:
    """Raise unless every matrix of a stack (last two axes) has orthonormal rows."""
    gram = matrices @ matrices.conj().swapaxes(-1, -2)
    defect = (gram - np.eye(matrices.shape[-2])).view(np.float64)
    # Frobenius norm of the defect at most 1e-9; written so that NaN fails too
    if not np.square(defect).sum(axis=(-2, -1)).max() <= 1e-18:
        raise ValueError("rows are not orthonormal")


@dataclass(frozen=True)
class AltMinReport:
    """Outcome of one alternating run.

    `objective_trace[0]` is the objective at the random start; entry k is the
    value after iteration k.  `converged` is False when the run stopped only
    because `max_iterations` was reached.  `product` is the materialized
    N x S beamformer, and `comm_error` and `radar_error` are its squared
    distances to f_com and to f_rad U, all as the exit check computed them.
    """

    hybrid: HybridBeamformer
    unitary: AuxiliaryUnitary
    objective_trace: list[float] = field(repr=False)
    iterations_used: int
    converged: bool
    product: np.ndarray = field(repr=False)
    comm_error: float
    radar_error: float


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
    then optimal and the SVD basis picks one deterministically.  This is the
    loop's step with one antenna per chain and unit phasors, where the block
    sums are the rows of f_rad and the baseband is the product itself.
    """
    f_rad = np.asarray(f_rad)
    product = np.asarray(product)
    if f_rad.shape[0] != product.shape[0]:
        raise ValueError("f_rad and product must have the same number of rows")
    if f_rad.shape[1] > product.shape[1]:
        raise ValueError("need at least as many streams as radar targets")
    return AuxiliaryUnitary(_unitary_step(f_rad[None], product[None])[0])


def _unitary_step(g_rad: np.ndarray, basebands: np.ndarray) -> np.ndarray:
    """`solve_unitary` for a stack: radar block sums (B, R, T) and basebands
    (B, R, S), whose product G_rad^H F_BB is f_rad^H F; returns the (B, T, S)
    minimizers."""
    u, _, vh = np.linalg.svd(g_rad.conj().swapaxes(-1, -2) @ basebands, full_matrices=False)
    return u @ vh


def _chain_targets(f_com: np.ndarray, f_rad: np.ndarray, num_rf: int) -> np.ndarray:
    """[f_com | f_rad] cut into the antenna blocks of the chains: (R, N / R, S + T)."""
    both = np.concatenate([f_com, f_rad], axis=1)
    return both.reshape(num_rf, -1, both.shape[1])


def _problem_rows(targets: np.ndarray, counts) -> list:
    """(chain targets, member rows) of each problem that has members, for a
    stack of chain targets (P, R, N / R, S + T) whose problem p holds the
    next `counts[p]` members."""
    stops = accumulate(counts)
    return [(targets[p], slice(stop - count, stop))
            for p, (count, stop) in enumerate(zip(counts, stops)) if count]


def _block_sums(phasors: np.ndarray, targets: np.ndarray, rows=None) -> np.ndarray:
    """Per-chain sums of phasors (B, N) times the target rows of `_chain_targets`;
    returns (B, R, S + T), whose first S columns are G_com and the rest G_rad.

    `targets` is one problem's `_chain_targets` (R, N / R, S + T), shared by
    every member, unless `rows` lists the problems of a stack as
    `_problem_rows` does; each problem takes one stacked matmul.
    """
    num_rf, block, width = targets.shape[-3:]
    stacked = phasors.reshape(-1, num_rf, 1, block)
    out = np.empty((len(stacked), num_rf, 1, width), dtype=complex)
    for problem_targets, members in rows or [(targets, slice(None))]:
        np.matmul(stacked[members], problem_targets, out=out[members])
    return out.reshape(-1, num_rf, width)


def solve_analog(baseband, f_com, f_rad_u, eta: float,
                 previous: AnalogBeamformer | None = None) -> AnalogBeamformer:
    """Per-antenna optimal phases with the baseband and auxiliary blocks fixed.

    The objective separates over antennas: antenna i contributes
    ||e^{j phi} b_i - t_i||^2 terms, where b_i is the baseband row of its
    chain and t_i mixes the two target rows with weights eta and 1 - eta.
    The minimizing phase is the argument of <t_i, b_i>.  When that inner
    product is zero every phase is optimal, so the previous phase (or zero)
    is kept to preserve determinism and descent.  The rotated radar target
    f_rad_u plays the loop's f_rad with an identity auxiliary.
    """
    baseband = _as_matrix(baseband)
    f_com = np.asarray(f_com)
    f_rad_u = np.asarray(f_rad_u)
    if f_com.shape != f_rad_u.shape:
        raise ValueError("f_com and the rotated radar target must have equal shapes")
    num_antennas, num_streams = f_com.shape
    num_rf = baseband.shape[0]
    if baseband.shape[1] != num_streams:
        raise ValueError("baseband and targets disagree on the stream count")
    if num_antennas % num_rf != 0:
        raise ValueError(f"{num_antennas} antennas not divisible by {num_rf} RF chains")
    fallback = (np.exp(-1j * previous.phases) if previous is not None
                else np.ones(num_antennas, dtype=complex))
    identity = np.eye(num_streams, dtype=complex)[None]
    phasors = _analog_step(_chain_targets(f_com, f_rad_u, num_rf), baseband[None], identity,
                           np.array([eta], dtype=float), fallback[None])
    return AnalogBeamformer(num_antennas, num_rf, canonical_phases(-np.angle(phasors[0])))


def _analog_step(targets: np.ndarray, basebands: np.ndarray, unitaries: np.ndarray,
                 eta: np.ndarray, previous: np.ndarray, rows=None) -> np.ndarray:
    """`solve_analog` for a stack: chain targets and `rows` as for `_block_sums`, basebands
    (B, R, S), unitaries (B, T, S), weights (B,) and the phasors (B, N) kept
    where the correlation is zero; returns the optimal phasors e^{-j phi},
    conj(c) / |c| for each antenna's correlation c.

    <t_i, b_c> = eta <f_com,i, b_c> + (1 - eta) <f_rad,i, b_c U^H>, so each
    antenna correlates its target row with one (S + T)-vector of its chain.
    """
    weight = eta[:, None, None]
    conj = basebands.conj()
    num_rf, block, width = targets.shape[-3:]
    num_streams = conj.shape[-1]
    chain_vectors = np.empty((len(eta), num_rf, width, 1), dtype=complex)
    np.multiply(weight, conj, out=chain_vectors[:, :, :num_streams, 0])
    np.multiply(1.0 - weight, conj @ unitaries.swapaxes(-1, -2),
                out=chain_vectors[:, :, num_streams:, 0])
    corr = np.empty((len(eta), num_rf, block, 1), dtype=complex)
    for problem_targets, members in rows or [(targets, slice(None))]:
        np.matmul(problem_targets, chain_vectors[members], out=corr[members])
    corr = corr.reshape(len(eta), -1)
    magnitude = np.abs(corr)
    phasors = np.conjugate(corr, out=corr)
    if magnitude.all():
        return np.divide(phasors, magnitude, out=phasors)
    degenerate = magnitude == 0
    magnitude[degenerate] = 1.0
    return np.where(degenerate, previous, np.divide(phasors, magnitude, out=phasors))


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
    first entry is picked.  The rotated radar target f_rad_u plays the loop's
    f_rad with an identity auxiliary.
    """
    f_com = np.asarray(f_com)
    f_rad_u = np.asarray(f_rad_u)
    if f_com.shape != f_rad_u.shape:
        raise ValueError("f_com and the rotated radar target must have equal shapes")
    if f_com.shape[0] != analog.num_antennas:
        raise ValueError(f"targets have {f_com.shape[0]} rows, expected {analog.num_antennas}")
    targets = _chain_targets(f_com, f_rad_u, analog.num_rf_chains)
    sums = _block_sums(np.exp(-1j * analog.phases)[None], targets)
    identity = np.eye(f_com.shape[1], dtype=complex)[None]
    basebands, _ = _baseband_step(sums, identity, np.array([eta], dtype=float),
                                  analog.num_antennas, total_power)
    return BasebandBeamformer(basebands[0])


def _baseband_step(sums: np.ndarray, unitaries: np.ndarray, eta: np.ndarray,
                   num_antennas: int, total_power: float, problems=None):
    """`solve_baseband` for a stack: block sums (B, R, S + T) of the new phases,
    unitaries (B, T, S) and weights (B,); returns the (B, R, S) basebands and
    ||G||_F per member, taken before the zero-target fallback.  `eta` and the
    members' problem indices `problems` (default: all 0) name the failing
    member in errors."""
    num_streams = unitaries.shape[-1]
    weight = eta[:, None, None]
    g = weight * sums[..., :num_streams] + (1.0 - weight) * (sums[..., num_streams:] @ unitaries)
    if not np.isfinite(g).all():
        raise _member_error("non-finite entries in the baseband target",
                            ~np.isfinite(g).all(axis=(1, 2)), eta, problems)
    norm_sq = np.square(g.view(np.float64)).sum(axis=(1, 2))
    g_norms = np.sqrt(norm_sq)
    nonzero = norm_sq > 0
    if not nonzero.all():
        g[~nonzero, 0, 0] = 1.0
        norm_sq[~nonzero] = 1.0
    # onto the power sphere, as `scale_to_power` does, by the norms just taken
    target = g.shape[1] * total_power / num_antennas
    return g * np.sqrt(target / norm_sq)[:, None, None], g_norms


def _objective_offsets(targets: np.ndarray, num_streams: int, eta: np.ndarray,
                       total_power: float) -> np.ndarray:
    """P + eta ||f_com||^2 + (1 - eta) ||f_rad||^2 per member: the part of the
    objective that no block changes (chain targets as from `_chain_targets`)."""
    parts = np.square(targets.view(np.float64)).reshape(-1, targets.shape[-1], 2)
    return (total_power + eta * parts[:, :num_streams].sum()
            + (1.0 - eta) * parts[:, num_streams:].sum())


def _chain_objective(offsets: np.ndarray, g_norms: np.ndarray,
                     baseband_power: float) -> np.ndarray:
    """The objective right after a baseband step: offsets - 2 sqrt(c) ||G||_F.

    The weighted distance expands to ||F||^2 + eta ||f_com||^2
    + (1 - eta) ||f_rad U||^2 - 2 Re<F, M> with M = eta f_com + (1 - eta) f_rad U.
    Here ||F||^2 = P exactly, ||f_rad U|| = ||f_rad|| because U has orthonormal
    rows, and Re<F, M> = Re<F_BB, G> = sqrt(c) ||G||_F for F_BB = sqrt(c) G / ||G||_F.
    """
    return offsets - 2.0 * math.sqrt(baseband_power) * g_norms


def _member_error(message: str, failing: np.ndarray, eta: np.ndarray,
                  problems=None) -> SolverError:
    """`SolverError` naming the etas of the failing members of the first
    problem that has any; `problems` gives each member's problem (default: all 0)."""
    problems = np.zeros(len(eta), dtype=int) if problems is None else problems
    problem = int(problems[failing][0])
    etas = ", ".join(f"eta={e}" for e in eta[failing & (problems == problem)])
    return SolverError(f"{message} at {etas}", problem)


def _check_finite_objective(values: np.ndarray, eta: np.ndarray, problems=None) -> None:
    """Raise `SolverError` naming the members whose objective is not finite
    (see `_member_error`).

    Such a member could never meet its tolerance, so it would otherwise run to
    `max_iterations` and report a NaN or infinite trace.
    """
    finite = np.isfinite(values)
    if not finite.all():
        raise _member_error("non-finite objective", ~finite, eta, problems)


def _unitary_failure(exc: np.linalg.LinAlgError, g_rad: np.ndarray, basebands: np.ndarray,
                     eta: np.ndarray, problems: np.ndarray) -> SolverError:
    """`SolverError` naming the members whose unitary step fails on its own
    (see `_member_error`): the stacked SVD raises for the whole stack."""
    failing = np.zeros(len(eta), dtype=bool)
    for i in range(len(eta)):
        try:
            _unitary_step(g_rad[i:i + 1], basebands[i:i + 1])
        except np.linalg.LinAlgError:
            failing[i] = True
    if not failing.any():
        return SolverError(str(exc))
    return _member_error(str(exc), failing, eta, problems)


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


def alternating_minimization(f_com, f_rad, num_rf_chains: int, config: AltMinConfig,
                             stack: DesignStack | None = None) -> AltMinReport:
    """Design the hybrid beamformer by cycling exact block solves.

    Starts from a seeded random feasible point, then repeats
    auxiliary -> analog -> baseband until the objective improvement falls
    below config.tolerance * (1 + initial objective) or `max_iterations` is
    exhausted.  Every block update is a global solve of its subproblem, so the
    recorded objective trace never increases.  This is the one-member case of
    `alternating_minimization_stack`.

    `stack` passes a `DesignStack` that holds this design among others; the
    design is then looked up in its stacked solve, which is bit for bit the
    same as solving it alone.
    """
    if stack is None:
        return alternating_minimization_stack([(f_com, [config])], f_rad, num_rf_chains)[0][0]
    if f_rad is not stack.f_rad or num_rf_chains != stack.num_rf_chains:
        raise ValueError("the stack holds a different problem")
    return stack.report(f_com, config)


class DesignStack:
    """Designs of several problems that share f_rad, solved as one stack when built.

    `problems` holds one (f_com, configs) pair per problem, as for
    `alternating_minimization_stack`; `report` looks up one design.
    """

    def __init__(self, f_rad, num_rf_chains: int, problems) -> None:
        self.f_rad = f_rad
        self.num_rf_chains = num_rf_chains
        self.problems = [(f_com, list(configs)) for f_com, configs in problems]
        self.reports = alternating_minimization_stack(self.problems, f_rad, num_rf_chains)

    def report(self, f_com, config: AltMinConfig) -> AltMinReport:
        """The design of `config` for the problem whose target is `f_com` (the
        same object the stack was built with)."""
        index = next((i for i, (own, _) in enumerate(self.problems) if own is f_com), None)
        if index is None:
            raise ValueError("the stack holds a different problem")
        return self.reports[index][self.problems[index][1].index(config)]


def alternating_minimization_stack(problems, f_rad,
                                   num_rf_chains: int) -> list[list[AltMinReport]]:
    """`alternating_minimization` for several problems, each at several configs.

    `problems` holds (f_com, configs) pairs.  The problems share f_rad, the
    sizes and every config field but `eta` and `rng_seed`; the configs of one
    problem differ only in `eta`.  Each problem starts its members from its
    own seeded point, and each iteration runs the three block solves once
    over the stack of members still running, on per-chain block sums only
    (see the module docstring).  A member leaves the stack at the iteration
    where its own stopping rule fires, so its report equals, bit for bit, the
    one a stack holding it alone returns.  Once the last member of a problem
    has left, the problem's designs are materialized and scored in one pass
    (`_exit_reports`): each last trace entry is recomputed from the
    materialized design, which the report keeps with its fitting errors, and
    `SolverError` is raised if it differs from the block-sum value by more
    than 1e-13 times the member's objective offset.  A `SolverError` of a
    member, a `LinAlgError` of its SVD among them, names its eta and carries
    its problem's index.  Returns one list of reports per problem, each in
    the order of its configs.
    """
    problems = [(np.asarray(f_com, dtype=complex), list(configs)) for f_com, configs in problems]
    if not problems or not all(configs for _, configs in problems):
        raise ValueError("need at least one config")
    first = problems[0][1][0]
    for _, configs in problems:
        own = replace(first, rng_seed=configs[0].rng_seed)
        if any(replace(c, eta=first.eta) != own for c in configs):
            raise ValueError("configs must differ only in eta (and rng_seed between problems)")
    f_rad = np.asarray(f_rad, dtype=complex)
    shape = problems[0][0].shape
    if (any(f_com.shape != shape for f_com, _ in problems) or len(shape) != 2
            or f_rad.ndim != 2 or shape[0] != f_rad.shape[0]):
        raise ValueError("f_com and f_rad must be 2-D with the same number of rows")
    num_antennas, num_streams = shape
    num_targets = f_rad.shape[1]
    if num_rf_chains < 1 or num_antennas % num_rf_chains != 0:
        raise ValueError(f"{num_antennas} antennas not divisible by "
                         f"{num_rf_chains} RF chains")
    if num_antennas % num_targets != 0:
        raise ValueError(f"{num_antennas} antennas not divisible by "
                         f"{num_targets} targets")
    if num_streams < num_targets:
        raise ValueError("need at least as many streams as radar targets")

    # members are grouped by problem, and stay so as some leave
    counts = [len(configs) for _, configs in problems]
    stops = list(accumulate(counts))
    targets = np.stack([_chain_targets(f_com, f_rad, num_rf_chains) for f_com, _ in problems])
    starts, eta, offsets, values = [], [], [], []
    for (f_com, configs), problem_targets in zip(problems, targets):
        rng = np.random.default_rng(configs[0].rng_seed)
        analog, baseband, unitary = random_start(
            num_antennas, num_rf_chains, num_streams, num_targets, first.total_power, rng)
        weights = np.array([c.eta for c in configs], dtype=float)
        starts.append((np.exp(-1j * analog.phases), baseband.matrix))
        eta.append(weights)
        offsets.append(_objective_offsets(problem_targets, num_streams, weights,
                                          first.total_power))
        values.append(objective(analog, baseband, unitary, f_com, f_rad, weights))
    problem_of = np.repeat(np.arange(len(problems)), counts)
    eta, offsets, values = (np.concatenate(a) for a in (eta, offsets, values))
    _check_finite_objective(values, eta, problem_of)
    phasors, basebands = (np.repeat(np.stack(a), counts, axis=0) for a in zip(*starts))
    baseband_power = num_rf_chains * first.total_power / num_antennas
    # the radar block sums of one iteration's phasors feed the next unitary step
    rows = _problem_rows(targets, counts)
    g_rad = _block_sums(phasors, targets, rows)[..., num_streams:]
    traces = [[value] for value in values.tolist()]  # indexed like the flat list of configs
    thresholds = first.tolerance * (1.0 + values)
    members = np.arange(len(eta))  # index into the flat list of configs of each stack entry
    # a member that leaves parks copies of its final state at its index in the
    # flat list of configs (never views, which would keep each iteration's
    # arrays alive); its problem is scored once its last member has left
    config_eta, config_offsets, unfinished = eta, offsets, np.array(counts)
    parked_phasors, parked_basebands = np.empty_like(phasors), np.empty_like(basebands)
    parked_unitaries = np.empty((len(eta), num_targets, num_streams), dtype=complex)
    parked_converged = np.empty(len(eta), dtype=bool)
    reports: list[list[AltMinReport] | None] = [None] * len(problems)
    for step in range(1, first.max_iterations + 1):
        try:
            unitaries = _unitary_step(g_rad, basebands)
        except np.linalg.LinAlgError as exc:
            raise _unitary_failure(exc, g_rad, basebands, eta, problem_of) from exc
        _check_orthonormal_rows(unitaries)
        phasors = _analog_step(targets, basebands, unitaries, eta, phasors, rows)
        sums = _block_sums(phasors, targets, rows)
        basebands, g_norms = _baseband_step(sums, unitaries, eta, num_antennas,
                                            first.total_power, problem_of)
        g_rad = sums[..., num_streams:]
        previous = values
        values = _chain_objective(offsets, g_norms, baseband_power)
        _check_finite_objective(values, eta, problem_of)
        for member, value in zip(members.tolist(), values.tolist()):
            traces[member].append(value)
        converged = np.abs(values - previous) < thresholds
        leaving = converged if step < first.max_iterations else np.ones(len(members), bool)
        if not leaving.any():
            continue
        left = members[leaving]
        parked_phasors[left] = phasors[leaving]
        parked_basebands[left] = basebands[leaving]
        parked_unitaries[left] = unitaries[leaving]
        parked_converged[left] = converged[leaving]
        finishing = np.bincount(problem_of[leaving], minlength=len(problems))
        unfinished -= finishing
        for problem in np.flatnonzero((finishing > 0) & (unfinished == 0)).tolist():
            own = slice(stops[problem] - counts[problem], stops[problem])
            reports[problem] = _exit_reports(
                problems[problem][0], f_rad, num_rf_chains, config_eta[own],
                config_offsets[own], parked_phasors[own], parked_basebands[own],
                parked_unitaries[own], parked_converged[own], traces[own], problem)
        stay = ~leaving
        if not stay.any():
            break
        members, problem_of, eta, thresholds, offsets, values, phasors, basebands, g_rad = (
            a[stay] for a in (members, problem_of, eta, thresholds, offsets, values, phasors,
                              basebands, g_rad)
        )
        rows = _problem_rows(targets, np.bincount(problem_of, minlength=len(problems)).tolist())
    return reports


def _exit_reports(f_com: np.ndarray, f_rad: np.ndarray, num_rf_chains: int, eta: np.ndarray,
                  offsets: np.ndarray, phasors: np.ndarray, basebands: np.ndarray,
                  unitaries: np.ndarray, converged: np.ndarray, traces: list,
                  problem: int) -> list[AltMinReport]:
    """The reports of one problem whose members have all left the loop, from
    their final phasors (E, N), basebands (E, R, S), unitaries (E, T, S) and
    traces: the designs are phased, materialized and scored in one pass.

    Each member's last trace entry, its block-sum objective, is replaced by
    the objective of its materialized product.  `SolverError` is raised for
    the first member where the two differ by more than 1e-13 * offset, with
    `offsets` the part of its objective that no block changes
    (`_objective_offsets`): both values are that offset minus a term of at
    most its size, so rounding scales with it, and not with the objective.
    """
    phases = canonical_phases(-np.angle(phasors))
    products = materialize_product(phases, basebands)
    comm, radar, exact = metrics.fitting_errors(products, f_com, f_rad @ unitaries, eta)
    chain_values = np.array([trace[-1] for trace in traces])
    disagree = ~(np.abs(exact - chain_values) <= 1e-13 * offsets)
    if disagree.any():
        i = int(np.argmax(disagree))
        raise SolverError(f"block-sum objective {traces[i][-1]!r} disagrees with the exact "
                          f"{float(exact[i])!r} at eta={float(eta[i])}", problem)
    num_antennas = phasors.shape[1]
    reports = []
    for i, (trace, value) in enumerate(zip(traces, exact.tolist())):
        trace[-1] = value
        reports.append(AltMinReport(
            hybrid=HybridBeamformer(AnalogBeamformer(num_antennas, num_rf_chains, phases[i]),
                                    BasebandBeamformer(basebands[i])),
            unitary=AuxiliaryUnitary(unitaries[i]), objective_trace=trace,
            iterations_used=len(trace) - 1, converged=bool(converged[i]),
            product=products[i], comm_error=float(comm[i]), radar_error=float(radar[i]),
        ))
    return reports
