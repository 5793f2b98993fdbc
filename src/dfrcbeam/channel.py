"""Random multipath mmWave channel draws and fully digital reference beamformers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ula import UlaConfig, steering_matrix


@dataclass(frozen=True)
class ChannelParams:
    """Dimensions and seed for one multipath channel draw.

    num_tx transmit antennas, num_rx receive antennas, num_paths scattering
    paths.  `rng_seed` fully determines the realization.
    """

    num_tx: int
    num_rx: int
    num_paths: int
    rng_seed: int

    def __post_init__(self) -> None:
        if self.num_tx < 1 or self.num_rx < 1 or self.num_paths < 1:
            raise ValueError("num_tx, num_rx and num_paths must all be >= 1")
        if not 0 <= int(self.rng_seed) < 2**64:
            raise ValueError("rng_seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class ChannelRealization:
    """One channel draw: per-path gains and angles plus the assembled matrix."""

    gains: np.ndarray
    aoas: np.ndarray
    aods: np.ndarray
    matrix: np.ndarray


def assemble_channel_matrix(gains, aoas, aods, num_tx: int, num_rx: int) -> np.ndarray:
    """Sum of scaled per-path outer products between receive and transmit responses.

    H = sqrt(num_tx * num_rx / L) * sum_l gains[l] * a_rx(aoas[l]) a_tx(aods[l])^H
    with unit-norm steering vectors on both sides, so E||H||_F^2 = num_tx * num_rx
    for unit-variance gains.
    """
    gains = np.asarray(gains)
    a_rx = steering_matrix(UlaConfig(num_rx), aoas)
    a_tx = steering_matrix(UlaConfig(num_tx), aods)
    scale = math.sqrt(num_tx * num_rx / len(gains))
    return scale * (a_rx * gains) @ a_tx.conj().T


def generate_channel(params: ChannelParams) -> ChannelRealization:
    """Draw one channel realization with CN(0,1) gains and uniform angles.

    Path gains are circularly symmetric complex Gaussian with unit variance;
    arrival and departure angles are i.i.d. uniform on [-pi, pi].  The draw
    order is fixed (gain reals, gain imaginaries, arrivals, departures) so a
    given seed always yields the same realization.
    """
    rng = np.random.default_rng(params.rng_seed)
    num = params.num_paths
    gains = (rng.standard_normal(num) + 1j * rng.standard_normal(num)) * math.sqrt(0.5)
    aoas = rng.uniform(-math.pi, math.pi, num)
    aods = rng.uniform(-math.pi, math.pi, num)
    matrix = assemble_channel_matrix(gains, aoas, aods, params.num_tx, params.num_rx)
    return ChannelRealization(gains=gains, aoas=aoas, aods=aods, matrix=matrix)


def optimal_digital_beamformers(h: np.ndarray, num_streams: int, total_power: float):
    """Unconstrained SVD precoder and combiner for `num_streams` streams.

    Returns (f, w): f holds the right singular vectors of `h` for the largest
    `num_streams` singular values, scaled uniformly so ||f||_F^2 equals
    `total_power`; w holds the matching unit-norm left singular vectors.

    Singular vectors are only defined up to a unit-modulus factor, so each
    pair is rotated to make the largest-magnitude entry of the right vector
    real positive; that keeps outputs reproducible across platforms.
    """
    h = np.asarray(h)
    if h.ndim != 2:
        raise ValueError("channel matrix must be 2-D")
    n_rx, n_tx = h.shape
    if not 1 <= num_streams <= min(n_tx, n_rx):
        raise ValueError(
            f"num_streams must be in [1, min(n_tx, n_rx)] = [1, {min(n_tx, n_rx)}], "
            f"got {num_streams}"
        )
    if not total_power > 0:
        raise ValueError("total_power must be positive")
    u, _, vh = np.linalg.svd(h, full_matrices=False)
    v = vh.conj().T[:, :num_streams].copy()
    w = u[:, :num_streams].copy()
    for i in range(num_streams):
        pivot = v[np.argmax(np.abs(v[:, i])), i]
        if pivot != 0:
            rot = pivot.conjugate() / abs(pivot)
            v[:, i] *= rot
            w[:, i] *= rot
    f = v * math.sqrt(total_power / num_streams)
    return f, w
