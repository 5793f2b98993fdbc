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
special cases.  The loop state is the unit phasor e^{-j phi} of each antenna.
A member that leaves parks its final state, and after the loop each problem's
designs are phased, materialized and scored in one pass into one
`StackDesigns` of arrays; `alternating_minimization` reads the `AltMinReport`
of one design from its row.

The loop never forms the N x S hybrid product or a mixed target.  The analog
stage has unit-modulus entries on disjoint blocks, so F_RF^H F_RF is a
multiple of the identity and everything the blocks need is a per-chain block
sum: row r of G_com (G_rad) sums e^{-j phi_i} f_com,i (f_rad,i) over the
antennas of chain r.  With c the baseband power:

* the unitary step takes the polar factor of f_rad^H F = G_rad^H F_BB
  (T x S) from the eigendecomposition of its T x T Gram, or from its SVD where
  that Gram is ill-conditioned (see `_unitary_step`);
* the baseband step is sqrt(c) G / ||G||_F with G = eta G_com + (1-eta) G_rad U;
* the objective after it is P + eta ||f_com||^2 + (1-eta) ||f_rad||^2
  - 2 sqrt(c) ||G||_F, because the power ||F||^2 = P is exact and U has
  orthonormal rows.

Both weights enter through one (S + T) x S mixing matrix [eta I ; (1-eta) U]
per member: G is [G_com | G_rad] times it, and the analog step correlates
each antenna with conj(F_BB) times its transpose.
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
    baseband_power,
    canonical_phases,
    chain_block,
    materialize_product,
    normalize_power,
)
from .ula import TWO_PI, is_integer_in, is_real_in


class SolverError(RuntimeError):
    """A numerical subproblem could not be solved to its contract.

    The error of a stacked solve names no member: each config of it gives bit
    for bit its stacked design when solved alone, so solving the configs one
    at a time finds the one that fails.
    """


@dataclass(frozen=True)
class AltMinConfig:
    """Knobs of the alternating solve.

    `eta`, in [0, 1], weights the communication error against the radar
    error, and `total_power`, in (0, inf), is the power of the designed
    beamformer.  `tolerance`, in (0, inf), is relative: iteration stops once
    the objective improves by less than tolerance * (1 + initial objective),
    or after `max_iterations` (at least 1).  `rng_seed`, in [0, 2**64), fixes
    the random starting point.  The reals must be finite real numbers and the
    counts integers, neither a bool; anything else raises `ValueError`.
    """

    eta: float
    total_power: float
    tolerance: float = 1e-5
    max_iterations: int = 100
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name, low, high, ends in (("eta", 0, 1, "[]"), ("total_power", 0, math.inf, "()"),
                                      ("tolerance", 0, math.inf, "()")):
            if not is_real_in(getattr(self, name), low, high, ends):
                raise ValueError(f"{name} must be a finite real number in "
                                 f"{ends[0]}{low}, {high}{ends[1]}")
        if not is_integer_in(self.max_iterations, 1):
            raise ValueError("max_iterations must be an integer >= 1")
        if not is_integer_in(self.rng_seed, 0, 2**64):
            raise ValueError("rng_seed must be an integer in [0, 2**64)")


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class AltMinReport:
    """Outcome of one alternating run.

    The design is held as arrays: the canonical analog `phases` (N,), the
    `baseband` (R, S) and the auxiliary `unitary` (T, S), whose rows are
    orthonormal.  `objective_trace[0]` is the objective at the random start;
    entry k is the value after iteration k.  `converged` is False when the
    run stopped only because `max_iterations` was reached.  `product` is the
    materialized N x S beamformer, and `comm_error` and `radar_error` are its
    squared distances to f_com and to f_rad U, all as the exit check computed
    them.
    """

    phases: np.ndarray = field(repr=False)
    baseband: np.ndarray = field(repr=False)
    unitary: np.ndarray = field(repr=False)
    objective_trace: list[float] = field(repr=False)
    iterations_used: int
    converged: bool
    product: np.ndarray = field(repr=False)
    comm_error: float
    radar_error: float

    @property
    def hybrid(self) -> HybridBeamformer:
        """The design's two stages, checked as `HybridBeamformer` checks them."""
        analog = AnalogBeamformer(len(self.phases), len(self.baseband), self.phases)
        return HybridBeamformer(analog, BasebandBeamformer(self.baseband))


@dataclass(frozen=True, eq=False)
class StackDesigns:
    """The designs of one problem of a stacked solve, one row per config.

    `configs` are the problem's configs in its order; row e of each array is
    the design of `configs[e]`: canonical `phases` (E, N), `basebands`
    (E, R, S), `unitaries` (E, T, S), materialized `products` (E, N, S), and
    `comm_error`, `radar_error` and `converged` (E,), as in `AltMinReport`.
    `traces[e]` is that design's objective trace, as long as the iterations
    it ran, with the exact exit value last.
    """

    configs: tuple[AltMinConfig, ...]
    phases: np.ndarray = field(repr=False)
    basebands: np.ndarray = field(repr=False)
    unitaries: np.ndarray = field(repr=False)
    products: np.ndarray = field(repr=False)
    comm_error: np.ndarray = field(repr=False)
    radar_error: np.ndarray = field(repr=False)
    converged: np.ndarray = field(repr=False)
    traces: list[list[float]] = field(repr=False)


def _as_matrix(x) -> np.ndarray:
    return np.asarray(getattr(x, "matrix", x))


def objective(analog: AnalogBeamformer, baseband, unitary, f_com, f_rad, eta: float) -> float:
    """Weighted sum of squared Frobenius distances from the hybrid product to both targets."""
    product = materialize_product(analog, _as_matrix(baseband))
    return metrics.fitting_errors(product, f_com, np.asarray(f_rad) @ _as_matrix(unitary), eta)[2]


def solve_unitary(f_rad, product) -> AuxiliaryUnitary:
    """Semi-unitary U minimizing ||f_rad @ U - product||_F.

    The minimizer is the polar factor of A = f_rad^H product: u @ vh for its
    singular value decomposition u s vh, which equals (A A^H)^{-1/2} A when A
    has full row rank.  It is computed as `_unitary_step` does, from the Gram
    A A^H where that is well-conditioned and from the SVD otherwise.  A zero
    product matrix is fine: every semi-unitary is then optimal and the SVD
    basis picks one deterministically.  This is the loop's step with one
    antenna per chain and unit phasors, where the block sums are the rows of
    f_rad and the baseband is the product itself.
    """
    f_rad = np.asarray(f_rad)
    product = np.asarray(product)
    if f_rad.shape[0] != product.shape[0]:
        raise ValueError("f_rad and product must have the same number of rows")
    if f_rad.shape[1] > product.shape[1]:
        raise ValueError("need at least as many streams as radar targets")
    return AuxiliaryUnitary(_unitary_step(f_rad[None], product[None])[0])


# A member's polar factor comes from its Gram's eigendecomposition only where
# the Gram's eigenvalues satisfy w_min > ratio * w_max + floor: cond(A) < 10,
# where the factor is within about 1e-14 of the SVD's, and w_min above the
# smallest normal float over the machine epsilon, so that rounding a subnormal
# entry of the Gram stays below eps relative to w_min.
_POLAR_GRAM_RATIO = 1e-2
_POLAR_GRAM_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


def _unitary_step(g_rad: np.ndarray, basebands: np.ndarray) -> np.ndarray:
    """`solve_unitary` for a stack: radar block sums (B, R, T) and basebands
    (B, R, S), whose product A = G_rad^H F_BB is f_rad^H F; returns the
    (B, T, S) minimizers, the polar factors of the A.

    The factor is (A A^H)^{-1/2} A = V diag(w)^{-1/2} V^H A, from one batched
    `eigh` of the (B, T, T) Grams A A^H = V diag(w) V^H.  A member whose Gram
    is ill-conditioned, tiny or not finite (see `_POLAR_GRAM_RATIO`), a zero or
    rank-deficient A among them, takes u @ vh of the SVD of its A instead, all
    such members in one batched call.  Each choice reads only the member's own
    Gram, so a member's factor does not depend on the stack it is in.
    """
    a = g_rad.conj().swapaxes(-1, -2) @ basebands
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a @ a.conj().swapaxes(-1, -2)
    try:
        w, v = np.linalg.eigh(gram)
    except np.linalg.LinAlgError:
        # a Gram with NaN entries (A or its square overflowing) fails the whole
        # batched call; zeroed, its member takes the SVD
        finite = np.isfinite(gram).all(axis=(1, 2))
        if finite.all():
            raise
        gram[~finite] = 0.0
        w, v = np.linalg.eigh(gram)
    polar = w[:, 0] > _POLAR_GRAM_RATIO * w[:, -1] + _POLAR_GRAM_FLOOR
    any_fallback = not polar.all()
    if any_fallback:
        w[~polar] = 1.0  # zero, negative or NaN; their factors are replaced below
    unitaries = (v / np.sqrt(w)[:, None, :]) @ (v.conj().swapaxes(-1, -2) @ a)
    if any_fallback:
        u, _, vh = np.linalg.svd(a[~polar], full_matrices=False)
        unitaries[~polar] = u @ vh
    return unitaries


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
    f_rad_u plays the loop's f_rad with an identity auxiliary.  The targets,
    the layout of the baseband's rows and `eta` are checked as
    `_one_member_setup` checks them.
    """
    baseband = _as_matrix(baseband)
    num_rf = baseband.shape[0]
    targets, mix = _one_member_setup(f_com, f_rad_u, eta, num_rf)
    num_antennas = num_rf * targets.shape[1]
    if baseband.shape[1] != mix.shape[-1]:
        raise ValueError("baseband and targets disagree on the stream count")
    fallback = (np.exp(-1j * previous.phases) if previous is not None
                else np.ones(num_antennas, dtype=complex))
    phasors = _analog_step(targets, baseband[None], mix, fallback[None])
    return AnalogBeamformer(num_antennas, num_rf, canonical_phases(-np.angle(phasors[0])))


def _one_member_setup(f_com, f_rad_u, eta, num_rf) -> tuple[np.ndarray, np.ndarray]:
    """The chain targets of f_com and f_rad_u over `num_rf` chains and the
    mixing matrix (1, 2 S, S) of `eta` with an identity auxiliary: what a
    one-member solve hands the loop's step.

    Raises `ValueError` unless the targets have equal shapes, their rows split
    over the chains as `chain_block` requires, and `eta` is a finite real
    number in [0, 1].
    """
    f_com, f_rad_u = np.asarray(f_com), np.asarray(f_rad_u)
    if f_com.ndim != 2 or f_com.shape != f_rad_u.shape:
        raise ValueError("f_com and the rotated radar target must have equal shapes")
    chain_block(f_com.shape[0], num_rf)
    if not is_real_in(eta, 0, 1, "[]"):
        raise ValueError("eta must be a finite real number in [0, 1]")
    mix = _mixing(np.eye(f_com.shape[1], dtype=complex)[None], np.array([eta], dtype=float))
    return _chain_targets(f_com, f_rad_u, num_rf), mix


def _mixing(unitaries: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The (B, S + T, S) mixing matrices [eta I ; (1 - eta) U] of unitaries
    (B, T, S) and weights (B,): block sums [G_com | G_rad] times one are
    eta G_com + (1 - eta) G_rad U."""
    num_targets, num_streams = unitaries.shape[-2:]
    mix = np.zeros((len(eta), num_streams + num_targets, num_streams), dtype=complex)
    # the diagonal of the top S x S block, in each member's flat entries
    mix.reshape(len(eta), -1)[:, :num_streams ** 2:num_streams + 1] = eta[:, None]
    np.multiply((1.0 - eta)[:, None, None], unitaries, out=mix[:, num_streams:])
    return mix


def _analog_step(targets: np.ndarray, basebands: np.ndarray, mix: np.ndarray,
                 previous: np.ndarray, rows=None) -> np.ndarray:
    """`solve_analog` for a stack: chain targets and `rows` as for `_block_sums`, basebands
    (B, R, S), the mixing matrices `_mixing(unitaries, eta)` and the phasors
    (B, N) kept where the correlation is zero; returns the optimal phasors
    e^{-j phi}, conj(c) / |c| for each antenna's correlation c.

    <t_i, b_c> = eta <f_com,i, b_c> + (1 - eta) <f_rad,i, b_c U^H>, so each
    antenna correlates its target row with one (S + T)-vector of its chain,
    [eta conj(b_c) | (1 - eta) conj(b_c) U^T] = conj(b_c) mix^T.
    """
    num_rf, block, _ = targets.shape[-3:]
    chain_vectors = (basebands.conj() @ mix.swapaxes(-1, -2))[..., None]
    corr = np.empty((len(basebands), num_rf, block, 1), dtype=complex)
    for problem_targets, members in rows or [(targets, slice(None))]:
        np.matmul(problem_targets, chain_vectors[members], out=corr[members])
    corr = corr.reshape(len(basebands), -1)
    magnitude = np.abs(corr)
    phasors = np.conjugate(corr, out=corr)
    if magnitude.all():
        return np.divide(phasors, magnitude, out=phasors)
    degenerate = magnitude == 0
    magnitude[degenerate] = 1.0
    return np.where(degenerate, previous, np.divide(phasors, magnitude, out=phasors))


def solve_baseband(analog: AnalogBeamformer, f_com, f_rad_u, eta: float,
                   total_power: float) -> BasebandBeamformer:
    """Optimal baseband stage on its power sphere with the other blocks fixed.

    Expanding the objective in F_BB gives a least-squares problem with Gram
    matrix F_RF^H F_RF and target G = F_RF^H M, where M mixes both targets,
    constrained to the sphere ||F_BB||_F^2 = c of `baseband_power`.  The
    analog blocks have disjoint supports and unit-modulus entries, so the Gram
    matrix is (num_antennas / num_rf_chains) I and the optimum is G scaled
    onto the sphere.  Row r of G sums e^{-j phi_i} m_i over the antennas of
    chain r.  When G is zero every point of the sphere is optimal, and the
    first entry is picked.  The rotated radar target f_rad_u plays the loop's
    f_rad with an identity auxiliary.  The targets and `eta` are checked as
    `_one_member_setup` checks them, and `total_power` as `baseband_power`
    does.
    """
    if len(f_com) != analog.num_antennas:
        raise ValueError(f"targets have {len(f_com)} rows, expected {analog.num_antennas}")
    targets, mix = _one_member_setup(f_com, f_rad_u, eta, analog.num_rf_chains)
    sums = _block_sums(np.exp(-1j * analog.phases)[None], targets)
    basebands, _ = _baseband_step(sums, mix, analog.num_antennas, total_power)
    return BasebandBeamformer(basebands[0])


def _baseband_step(sums: np.ndarray, mix: np.ndarray, num_antennas: int,
                   total_power: float):
    """`solve_baseband` for a stack: block sums (B, R, S + T) of the new phases
    and the mixing matrices `_mixing(unitaries, eta)`; returns the (B, R, S)
    basebands and ||G||_F per member, taken before the zero-target fallback."""
    g = sums @ mix
    if not np.isfinite(g).all():
        raise SolverError("non-finite entries in the baseband target")
    norm_sq = np.square(g.view(np.float64)).sum(axis=(1, 2))
    g_norms = np.sqrt(norm_sq)
    nonzero = norm_sq > 0
    if not nonzero.all():
        g[~nonzero, 0, 0] = 1.0
        norm_sq[~nonzero] = 1.0
    # onto the power sphere, as `scale_to_power` does, by the norms just taken
    target = baseband_power(num_antennas, g.shape[1], total_power)
    return g * np.sqrt(target / norm_sq)[:, None, None], g_norms


def _objective_offsets(targets: np.ndarray, num_streams: int, eta: np.ndarray,
                       total_power: float) -> np.ndarray:
    """P + eta ||f_com||^2 + (1 - eta) ||f_rad||^2 per member: the part of the
    objective that no block changes (chain targets as from `_chain_targets`)."""
    parts = np.square(targets.view(np.float64)).reshape(-1, targets.shape[-1], 2)
    return (total_power + eta * parts[:, :num_streams].sum()
            + (1.0 - eta) * parts[:, num_streams:].sum())


def _chain_objective(offsets: np.ndarray, g_norms: np.ndarray,
                     power: float) -> np.ndarray:
    """The objective right after a baseband step: offsets - 2 sqrt(c) ||G||_F.

    The weighted distance expands to ||F||^2 + eta ||f_com||^2
    + (1 - eta) ||f_rad U||^2 - 2 Re<F, M> with M = eta f_com + (1 - eta) f_rad U.
    Here ||F||^2 = P exactly, ||f_rad U|| = ||f_rad|| because U has orthonormal
    rows, and Re<F, M> = Re<F_BB, G> = sqrt(c) ||G||_F for F_BB = sqrt(c) G / ||G||_F.
    """
    return offsets - 2.0 * math.sqrt(power) * g_norms


def _check_finite_objective(values: np.ndarray) -> None:
    """Raise `SolverError` if a member's objective is not finite.

    Such a member could never meet its tolerance, so it would otherwise run to
    `max_iterations` and report a NaN or infinite trace.
    """
    if not np.isfinite(values).all():
        raise SolverError("non-finite objective")


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
                             stack: StackDesigns | None = None) -> AltMinReport:
    """Design the hybrid beamformer by cycling exact block solves.

    Starts from a seeded random feasible point, then repeats
    auxiliary -> analog -> baseband until the objective improvement falls
    below config.tolerance * (1 + initial objective) or `max_iterations` is
    exhausted.  Every block update is a global solve of its subproblem, so the
    recorded objective trace never increases.  This is the one-member case of
    `alternating_minimization_stack`.

    `stack` passes the `StackDesigns` of a stacked solve that holds this
    problem at `config`; the report is then read from its row of `config`,
    which is bit for bit the design of solving it alone, and the other
    arguments are not read.
    """
    if stack is None:
        [stack] = alternating_minimization_stack([(f_com, [config])], f_rad, num_rf_chains)
    if config not in stack.configs:
        raise ValueError(f"the stack holds no design of {config}")
    row = stack.configs.index(config)
    trace = stack.traces[row]
    return AltMinReport(stack.phases[row], stack.basebands[row], stack.unitaries[row], trace,
                        len(trace) - 1, bool(stack.converged[row]), stack.products[row],
                        float(stack.comm_error[row]), float(stack.radar_error[row]))


def alternating_minimization_stack(problems, f_rad,
                                   num_rf_chains: int) -> list[StackDesigns]:
    """`alternating_minimization` for several problems, each at several configs.

    `problems` holds (f_com, configs) pairs.  The problems share f_rad, the
    sizes and every config field but `eta` and `rng_seed`; the configs of one
    problem differ only in `eta`.  Each problem starts its members from its
    own seeded point, and each iteration runs the three block solves once
    over the stack of members still running, on per-chain block sums only
    (see the module docstring).  A member leaves the stack at the iteration
    where its own stopping rule fires, so its report equals, bit for bit, the
    one a stack holding it alone returns.  A leaving member only parks its
    final state; after the loop, each problem's designs are materialized and
    scored in one pass (`_exit_designs`), in problem order: each last trace
    entry is recomputed from the materialized design, which the result keeps
    with its fitting errors, and `SolverError` is raised if it differs from
    the block-sum value by more than 1e-13 times the member's objective
    offset.  So a member that fails inside the loop (a non-finite objective
    or an SVD failure) raises its error even where a member that left earlier
    would fail that exit check.  Errors name no member (a `LinAlgError` of the
    unitary step is raised as a `SolverError`): each config alone gives bit for
    bit its stacked design, so solving the configs alone finds the one that fails.
    Returns one `StackDesigns` per problem, its rows in the order of its configs.
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
    chain_block(num_antennas, num_rf_chains)
    if num_streams < num_targets:
        raise ValueError("need at least as many streams as radar targets")

    # members are grouped by problem, and stay so as some leave
    counts = [len(configs) for _, configs in problems]
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
    _check_finite_objective(values)
    phasors, basebands = (np.repeat(np.stack(a), counts, axis=0) for a in zip(*starts))
    power = baseband_power(num_antennas, num_rf_chains, first.total_power)
    # the radar block sums of one iteration's phasors feed the next unitary step
    rows = _problem_rows(targets, counts)
    g_rad = _block_sums(phasors, targets, rows)[..., num_streams:]
    traces = [[value] for value in values.tolist()]  # indexed like the flat list of configs
    thresholds = first.tolerance * (1.0 + values)
    members = np.arange(len(eta))  # index into the flat list of configs of each stack entry
    # a member that leaves parks copies of its final state at its index in the
    # flat list of configs (never views, which would keep each iteration's
    # arrays alive); every problem is scored from them after the loop
    config_eta, config_offsets = eta, offsets
    parked_phasors, parked_basebands = np.empty_like(phasors), np.empty_like(basebands)
    parked_unitaries = np.empty((len(eta), num_targets, num_streams), dtype=complex)
    parked_converged = np.empty(len(eta), dtype=bool)
    for step in range(1, first.max_iterations + 1):
        try:
            unitaries = _unitary_step(g_rad, basebands)
        except np.linalg.LinAlgError as exc:
            raise SolverError(str(exc)) from exc
        _check_orthonormal_rows(unitaries)
        mix = _mixing(unitaries, eta)
        phasors = _analog_step(targets, basebands, mix, phasors, rows)
        sums = _block_sums(phasors, targets, rows)
        basebands, g_norms = _baseband_step(sums, mix, num_antennas, first.total_power)
        g_rad = sums[..., num_streams:]
        previous = values
        values = _chain_objective(offsets, g_norms, power)
        _check_finite_objective(values)
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
        stay = ~leaving
        if not stay.any():
            break
        members, problem_of, eta, thresholds, offsets, values, phasors, basebands, g_rad = (
            a[stay] for a in (members, problem_of, eta, thresholds, offsets, values, phasors,
                              basebands, g_rad)
        )
        rows = _problem_rows(targets, np.bincount(problem_of, minlength=len(problems)).tolist())
    return [_exit_designs(configs, f_com, f_rad, config_eta[own], config_offsets[own],
                          parked_phasors[own], parked_basebands[own], parked_unitaries[own],
                          parked_converged[own], traces[own])
            for (f_com, configs), (_, own) in zip(problems, _problem_rows(targets, counts))]


def _exit_designs(configs: list, f_com: np.ndarray, f_rad: np.ndarray, eta: np.ndarray,
                  offsets: np.ndarray, phasors: np.ndarray, basebands: np.ndarray,
                  unitaries: np.ndarray, converged: np.ndarray, traces: list) -> StackDesigns:
    """The designs of one problem, once the loop has ended, from its members'
    final phasors (E, N), basebands (E, R, S), unitaries (E, T, S) and
    traces: the designs are phased, materialized and scored in one pass.

    Each member's last trace entry, its block-sum objective, is replaced by
    the objective of its materialized product.  `SolverError` is raised for
    the first member where the two differ by more than 1e-13 * offset, with
    `offsets` the part of its objective that no block changes
    (`_objective_offsets`): both values are that offset minus a term of at
    most its size, so rounding scales with it, and not with the objective.
    It is raised only after the whole loop has run, so an error of any
    member inside the loop comes first; neither names its member (see
    `SolverError`).
    """
    phases = canonical_phases(-np.angle(phasors))
    products = materialize_product(phases, basebands)
    comm, radar, exact = metrics.fitting_errors(products, f_com, f_rad @ unitaries, eta)
    chain_values = np.array([trace[-1] for trace in traces])
    disagree = ~(np.abs(exact - chain_values) <= 1e-13 * offsets)
    if disagree.any():
        i = int(np.argmax(disagree))
        raise SolverError(f"block-sum objective {traces[i][-1]!r} disagrees with the exact "
                          f"{float(exact[i])!r}")
    for trace, value in zip(traces, exact.tolist()):
        trace[-1] = value
    return StackDesigns(tuple(configs), phases, basebands, unitaries, products, comm, radar,
                        converged, traces)
