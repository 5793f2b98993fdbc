"""Communication rate, fitting error, and beam-pointing quality figures."""

from __future__ import annotations

import math

import numpy as np

from .ula import is_real_in


def achievable_rate(h, f, w, snr_db: float):
    """Spectral efficiency of equal-power Gaussian streams through `f` and combiner `w`.

    Computes log2 det(I + (snr / num_streams) (W^H W)^-1 W^H H F F^H H^H W)
    with snr = 10^(snr_db / 10).  The inverse is applied through a Cholesky
    whitening of W^H W, and the determinant argument is symmetrized before the
    eigenvalue solve so roundoff cannot produce a negative log argument.  An
    `snr_db` that is not a finite real number, or whose snr overflows a float,
    raises `ValueError`.  A precoder whose signal matrix overflows a float (a
    power near the float maximum) gets an infinite rate.

    `f` may also be a stack of precoders (..., num_tx, num_streams) for the
    one channel and combiner; W^H W, its Cholesky factor and W^H H are then
    formed once, and the result is an array over the stack whose entries
    equal the 2-D results of their members.
    """
    h = np.asarray(h)
    f = np.asarray(f)
    w = np.asarray(w)
    n_rx, n_tx = h.shape
    if f.ndim < 2:
        raise ValueError(f"precoder must be at least 2-D, got shape {f.shape}")
    num_streams = f.shape[-1]
    if f.shape[-2] != n_tx:
        raise ValueError(f"precoder rows ({f.shape[-2]}) must match transmit antennas ({n_tx})")
    if w.shape != (n_rx, num_streams):
        raise ValueError(f"combiner must be {(n_rx, num_streams)}, got {w.shape}")
    if not is_real_in(snr_db, -math.inf, math.inf, "()"):
        raise ValueError(f"snr_db must be a finite real number, got {snr_db!r}")
    try:  # as a Python float, since a numpy scalar overflows to inf without raising
        snr = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db {snr_db!r} is too large: "
                         f"its linear SNR overflows a float") from None
    gram = w.conj().T @ w
    gram = (gram + gram.conj().T) / 2
    # fails with LinAlgError when the combiner is rank deficient
    chol = np.linalg.cholesky(gram)
    whitened = np.linalg.solve(chol, (w.conj().T @ h) @ f)
    signal = whitened @ whitened.conj().swapaxes(-1, -2)
    signal = (signal + signal.conj().swapaxes(-1, -2)) / 2
    overflowed = ~np.isfinite(signal).all(axis=(-2, -1))
    signal[overflowed] = 0.0  # its inf or NaN entries would stop eigvalsh for the whole stack
    eigs = np.clip(np.linalg.eigvalsh(signal), 0.0, None)
    rates = np.sum(np.log2(1.0 + (snr / num_streams) * eigs), axis=-1)
    rates = np.where(overflowed, math.inf, rates)
    return float(rates) if rates.ndim == 0 else rates


def fitting_errors(f_hybrid, f_com, f_rad_u, eta):
    """Squared Frobenius distances to both targets and their eta-weighted sum.

    Returns (comm_err, radar_err, weighted).  The arguments may also be stacks
    of matrices over leading axes that broadcast together, with `eta` an
    array over the stack; the three results are then arrays over the stack,
    each entry equal to the 2-D result of its member.
    """
    f_hybrid = np.asarray(f_hybrid)
    f_com = np.asarray(f_com)
    f_rad_u = np.asarray(f_rad_u)
    if f_hybrid.ndim < 2 or not f_hybrid.shape[-2:] == f_com.shape[-2:] == f_rad_u.shape[-2:]:
        raise ValueError(
            f"shape mismatch: hybrid {f_hybrid.shape}, communication target "
            f"{f_com.shape}, radar target {f_rad_u.shape}"
        )
    comm_err = _squared_norms(f_hybrid - f_com)
    radar_err = _squared_norms(f_hybrid - f_rad_u)
    if comm_err.ndim == 0:
        comm_err, radar_err = float(comm_err), float(radar_err)
    return comm_err, radar_err, eta * comm_err + (1.0 - eta) * radar_err


def _squared_norms(d: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a stack (last two axes)."""
    parts = np.asarray(d, dtype=complex).view(np.float64)  # real and imaginary parts
    return np.square(parts).sum(axis=(-2, -1))


def peak_deviation(pattern, targets) -> list[float]:
    """Distance from each target angle to the nearest local maximum of a pattern.

    `pattern` is a sequence of (angle, gain) pairs on a strictly increasing
    angle grid that covers every target.  A local maximum is an interior grid
    point not exceeded by either neighbour; a plateau of tied points counts
    once, at its leftmost point.  If the pattern has no local maximum at all,
    every target gets math.inf.
    """
    arr = np.asarray(pattern, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise ValueError("pattern must be at least 3 (angle, gain) pairs")
    angles = arr[:, 0]
    gains = arr[:, 1]
    if np.any(np.diff(angles) <= 0):
        raise ValueError("pattern angles must be strictly increasing")
    wanted = np.asarray(targets, dtype=float)
    if wanted.size == 0:
        return []
    if wanted.min() < angles[0] or wanted.max() > angles[-1]:
        raise ValueError("pattern grid must cover all target angles")
    is_peak = (gains[1:-1] >= gains[:-2]) & (gains[1:-1] >= gains[2:])
    candidates = np.flatnonzero(is_peak) + 1
    if candidates.size == 0:
        return [math.inf] * wanted.size
    # adjacent candidates share a plateau; keep the leftmost of each run
    keep = candidates[np.r_[True, np.diff(candidates) > 1]]
    peaks = angles[keep]
    return [float(np.min(np.abs(peaks - t))) for t in wanted]
