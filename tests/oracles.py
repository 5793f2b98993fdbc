"""Reference solutions the tests compare the package's closed forms against.

The package never runs these.  Its baseband step is a closed form because
the partially connected analog stage has F_RF^H F_RF = (N / N_RF) I, and it
never forms the dense F_RF.  The general sphere-constrained least-squares
solver and the dense analog matrix below check both facts independently.
"""

import math

import numpy as np

from dfrcbeam.altmin import SolverError


def dense_analog(analog) -> np.ndarray:
    """Dense (num_antennas x num_rf_chains) F_RF of an `AnalogBeamformer`: antenna
    i is wired to chain i // (num_antennas // num_rf_chains) through a unit-modulus
    entry, and every other entry of its row is zero."""
    chain = np.arange(analog.num_antennas) // (analog.num_antennas // analog.num_rf_chains)
    matrix = np.zeros((analog.num_antennas, analog.num_rf_chains), dtype=complex)
    matrix[np.arange(analog.num_antennas), chain] = np.exp(1j * analog.phases)
    return matrix


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
    global optimum.
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
