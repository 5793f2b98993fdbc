"""Partially-connected hybrid beamformer model.

The analog stage connects each antenna to exactly one RF chain through a
phase shifter, so it is stored as one phase per antenna rather than as a
matrix; the block-diagonal unit-modulus structure then holds by construction
and cannot be violated by any numerical step.  The baseband stage is a dense
complex matrix over RF chains and streams.  `chain_block` is the one check of
that layout, and `baseband_power` the one formula for the power sphere it
puts the baseband on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ula import TWO_PI, is_integer_in, is_real_in


def chain_block(num_antennas, num_rf_chains) -> int:
    """Antennas per RF chain, num_antennas // num_rf_chains: the one check of
    the partially connected layout.

    Each chain drives its own block of that many antennas, so both counts must
    be integers >= 1, neither a bool, and the chains must split the antennas
    evenly; anything else raises `ValueError`.
    """
    if not (is_integer_in(num_antennas, 1) and is_integer_in(num_rf_chains, 1)
            and num_antennas % num_rf_chains == 0):
        raise ValueError(f"antenna and RF chain counts must be integers >= 1 and divide evenly, "
                         f"got num_antennas={num_antennas!r} and num_rf_chains={num_rf_chains!r} "
                         f"(not such integers, or not divisible)")
    return num_antennas // num_rf_chains


def baseband_power(num_antennas, num_rf_chains, total_power) -> float:
    """The baseband power c = num_rf_chains * total_power / num_antennas.

    The analog entries have unit modulus on disjoint blocks of
    `chain_block(num_antennas, num_rf_chains)` antennas, so F_RF^H F_RF is that
    block times the identity and the constraint ||F_RF F_BB||_F^2 = total_power
    is ||F_BB||_F^2 = c.  `total_power` must be a finite real number in
    (0, inf), else `ValueError`; c is computed in float64 from
    float(total_power).  Where the product num_rf_chains * total_power
    overflows, c is total_power / block, the same number rounded once.
    """
    block = chain_block(num_antennas, num_rf_chains)
    if not is_real_in(total_power, 0, math.inf, "()"):
        raise ValueError("total_power must be a finite real number in (0, inf)")
    power = num_rf_chains * float(total_power) / num_antennas
    return power if math.isfinite(power) else float(total_power) / block


def canonical_phases(phases: np.ndarray) -> np.ndarray:
    """Phases (any shape) wrapped into [0, 2pi)."""
    out = np.asarray(phases, dtype=float) % TWO_PI
    # fmod of a tiny negative can round up to the modulus itself
    out[out >= TWO_PI] = 0.0
    return out


@dataclass(frozen=True, eq=False)
class AnalogBeamformer:
    """Phase-shifter network mapping `num_rf_chains` chains onto `num_antennas` antennas.

    Antenna i is wired to chain i // chain_block(num_antennas, num_rf_chains),
    which checks the layout; `phases` holds the shifter setting per antenna,
    canonicalized to [0, 2pi).
    """

    num_antennas: int
    num_rf_chains: int
    phases: np.ndarray

    def __post_init__(self) -> None:
        chain_block(self.num_antennas, self.num_rf_chains)
        phases = canonical_phases(self.phases)
        if phases.shape != (self.num_antennas,):
            raise ValueError(f"phases must have shape ({self.num_antennas},)")
        if not np.all(np.isfinite(phases)):
            raise ValueError("phases must be finite")
        object.__setattr__(self, "phases", phases)


@dataclass(frozen=True, eq=False)
class BasebandBeamformer:
    """Dense digital precoder over (num_rf_chains x num_streams)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError("baseband matrix must be 2-D and nonempty")
        object.__setattr__(self, "matrix", m)

    @property
    def num_rf_chains(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_streams(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class HybridBeamformer:
    """Analog and baseband stages whose product is the transmit beamformer."""

    analog: AnalogBeamformer
    baseband: BasebandBeamformer

    def __post_init__(self) -> None:
        if self.baseband.num_rf_chains != self.analog.num_rf_chains:
            raise ValueError(
                f"baseband has {self.baseband.num_rf_chains} RF chains, "
                f"analog stage has {self.analog.num_rf_chains}"
            )

    def materialize(self) -> np.ndarray:
        return materialize_product(self.analog, self.baseband.matrix)


def materialize_product(analog, baseband) -> np.ndarray:
    """Dense product of the two stages without forming the analog matrix.

    Row i of the result is exp(j phases[i]) times the baseband row of the
    chain feeding antenna i.  `analog` may also be a stack of phase vectors,
    shape (..., num_antennas), with `baseband` a stack of matching length,
    shape (..., num_rf_chains, num_streams); the result is then the stack of
    products.
    """
    phases = np.asarray(getattr(analog, "phases", analog))
    baseband = np.asarray(baseband)
    num_rf = getattr(analog, "num_rf_chains", baseband.shape[-2])
    block = chain_block(phases.shape[-1], num_rf)
    if baseband.shape[-2] != num_rf:
        raise ValueError(f"baseband has {baseband.shape[-2]} rows, expected {num_rf}")
    rows = np.repeat(baseband, block, axis=-2)
    return np.exp(1j * phases)[..., None] * rows


def normalize_power(
    bb: BasebandBeamformer, num_antennas: int, num_rf_chains: int, total_power: float
) -> BasebandBeamformer:
    """Rescale the baseband stage so the hybrid product carries `total_power`.

    The baseband must have `num_rf_chains` rows, and the counts and power are
    checked as `baseband_power` checks them; each raises `ValueError`.  See
    `scale_to_power`, which does the rescaling.
    """
    if bb.num_rf_chains != num_rf_chains:
        raise ValueError(f"baseband has {bb.num_rf_chains} rows, expected {num_rf_chains!r}")
    return BasebandBeamformer(scale_to_power(bb.matrix, num_antennas, num_rf_chains, total_power))


def scale_to_power(matrices: np.ndarray, num_antennas: int, num_rf_chains: int,
                   total_power: float) -> np.ndarray:
    """Rescale each baseband matrix of a stack (last two axes) onto its power sphere.

    Each analog row has unit modulus and each baseband row is repeated
    num_antennas / num_rf_chains times in the product, so the power constraint
    is ||baseband||_F^2 = `baseband_power(num_antennas, num_rf_chains, total_power)`.
    """
    norm_sq = (np.abs(matrices) ** 2).sum(axis=(-2, -1))
    if (norm_sq == 0.0).any():
        raise ValueError("cannot power-normalize a zero baseband matrix")
    target = baseband_power(num_antennas, num_rf_chains, total_power)
    return matrices * np.sqrt(target / norm_sq)[..., None, None]

