"""Uniform linear array geometry: steering vectors, radar beamformers, beampatterns."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

TWO_PI = 2.0 * math.pi


def is_integer_in(value, low: int, high: float = math.inf) -> bool:
    """Whether `value` is an integer, and not a bool, in [low, high): the check
    of every count (low 1) and seed (in [0, 2**64)) of the package."""
    return isinstance(value, Integral) and not isinstance(value, bool) and low <= value < high


@dataclass(frozen=True)
class UlaConfig:
    """Uniform linear array of `num_antennas` elements.

    `spacing_over_wavelength` is the element spacing divided by the carrier
    wavelength; the default 0.5 is the usual half-wavelength layout.
    """

    num_antennas: int
    spacing_over_wavelength: float = 0.5

    def __post_init__(self) -> None:
        if not is_integer_in(self.num_antennas, 1):
            raise ValueError(f"num_antennas must be an integer >= 1, got {self.num_antennas!r}")
        if not 0 < self.spacing_over_wavelength < math.inf:
            raise ValueError("spacing_over_wavelength must be positive and finite")


@dataclass(frozen=True)
class TargetScene:
    """Radar target directions (radians) for an array of `num_antennas` elements.

    The antenna count must split evenly across the targets because the radar
    beamformer dedicates one contiguous sub-array of equal size to each one.
    """

    angles: tuple[float, ...]
    num_antennas: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        if len(self.angles) == 0:
            raise ValueError("at least one target angle is required")
        half_pi = math.pi / 2
        if any(not -half_pi <= a <= half_pi for a in self.angles):
            raise ValueError("target angles must lie in [-pi/2, pi/2]")
        if not is_integer_in(self.num_antennas, 1) or self.num_antennas % len(self.angles) != 0:
            raise ValueError(
                f"num_antennas={self.num_antennas!r} is not a positive integer multiple of "
                f"the number of targets ({len(self.angles)})"
            )

    @property
    def num_targets(self) -> int:
        return len(self.angles)


def steering_matrix(cfg: UlaConfig, thetas) -> np.ndarray:
    """Unit-norm array responses for each angle in `thetas`, stacked as columns.

    Entry (n, k) is exp(j 2 pi (d/lambda) n sin(theta_k)) / sqrt(N).
    """
    thetas = np.asarray(thetas, dtype=float)
    n = np.arange(cfg.num_antennas)
    phase = TWO_PI * cfg.spacing_over_wavelength * np.outer(n, np.sin(thetas))
    return np.exp(1j * phase) / math.sqrt(cfg.num_antennas)


def steering_vector(cfg: UlaConfig, theta: float) -> np.ndarray:
    """Unit-norm array response of the ULA in direction `theta` (radians)."""
    return steering_matrix(cfg, [theta])[:, 0]


def radar_beamformer(scene: TargetScene, total_power: float) -> np.ndarray:
    """Sub-arrayed radar-only beamformer pointing one sub-array per target.

    Column i is nonzero only on the i-th contiguous block of
    num_antennas / num_targets rows, where it copies that slice of the
    full-array steering vector towards target i.  The columns therefore have
    disjoint supports and the matrix is block diagonal.  It is rescaled so the
    squared Frobenius norm equals `total_power`.
    """
    if not 0 <= total_power < math.inf:
        raise ValueError("total_power must be nonnegative and finite")
    n_t = scene.num_antennas
    block = n_t // scene.num_targets
    cfg = UlaConfig(n_t)
    out = np.zeros((n_t, scene.num_targets), dtype=complex)
    for i, angle in enumerate(scene.angles):
        rows = slice(i * block, (i + 1) * block)
        out[rows, i] = steering_vector(cfg, angle)[rows]
    out *= math.sqrt(total_power / np.sum(np.abs(out) ** 2))
    return out


def beampattern(covariance: np.ndarray, cfg: UlaConfig, thetas) -> np.ndarray:
    """Power a(theta)^H R a(theta) radiated towards each angle in `thetas`.

    `covariance` must be Hermitian within a 1e-9 relative Frobenius tolerance.
    On a uniform linear array the quadratic form depends on R only through
    its diagonal sums c_k = sum_n R[n, n+k], so with z = exp(j 2 pi d sin theta)
    it is the trigonometric polynomial (Re c_0 + 2 Re sum_{k>=1} c_k z^k) / N,
    evaluated by Horner's rule in z (stable because |z| = 1).  That costs
    O(N^2 + N K) for K angles instead of building the N x K steering matrix.
    The result is real by construction.
    """
    r = np.asarray(covariance)
    n = cfg.num_antennas
    if r.shape != (n, n):
        raise ValueError(f"covariance must be {n}x{n}, got {r.shape}")
    # Frobenius norms as elementwise sums: np.linalg.norm of a complex matrix
    # runs BLAS dots on its strided real and imaginary views, which threaded
    # OpenBLAS takes about 16 ms for at 120 x 120 on two cores
    scale = np.sqrt(np.sum(np.abs(r) ** 2))
    if np.sqrt(np.sum(np.abs(r - r.conj().T) ** 2)) > 1e-9 * max(scale, np.finfo(float).tiny):
        raise ValueError("covariance matrix is not Hermitian")
    thetas = np.asarray(thetas, dtype=float).ravel()
    z = np.exp(1j * TWO_PI * cfg.spacing_over_wavelength * np.sin(thetas))
    acc = np.zeros_like(z)
    for k in range(n - 1, 0, -1):
        acc += np.trace(r, offset=k)
        acc *= z
    return (np.trace(r).real + 2.0 * acc.real) / n


def covariance_of(f: np.ndarray) -> np.ndarray:
    """Covariance F F^H of unit-power streams sent through beamformer F.

    The product is re-symmetrized so conjugate symmetry holds exactly.
    """
    f = np.asarray(f)
    m = f @ f.conj().T
    return (m + m.conj().T) / 2


def angle_grid_size(start_deg: float, stop_deg: float, step_deg: float) -> int:
    """Number of points of `angle_grid_deg(start_deg, stop_deg, step_deg)`,
    checked without forming the grid."""
    if not step_deg > 0:
        raise ValueError("step_deg must be positive")
    steps = (stop_deg - start_deg) / step_deg
    # numpy caps an array's bytes at intp's maximum, 8 bytes per float64 point
    if not abs(steps) < np.iinfo(np.intp).max // 8:
        raise ValueError(f"[{start_deg!r}, {stop_deg!r}] in steps of {step_deg!r} has "
                         f"more points than an array can hold")
    count = int(round(steps))
    if count < 0 or abs(start_deg + count * step_deg - stop_deg) > 1e-9:
        raise ValueError("step_deg must evenly divide the [start_deg, stop_deg] span")
    return count + 1


def angle_grid_deg(start_deg: float, stop_deg: float, step_deg: float) -> np.ndarray:
    """Inclusive degree grid from `start_deg` to `stop_deg` in `step_deg` steps."""
    return start_deg + step_deg * np.arange(angle_grid_size(start_deg, stop_deg, step_deg))
