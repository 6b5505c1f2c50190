"""Pilot-phase synthesis, LOS subtraction, and least-squares estimation.

The receive matrix at BS l stacks all cells' pilot transmissions through
their channels plus noise. The BS reconstructs each user's LOS contribution
from estimated positions, subtracts it, and correlates the residual with
its own cell's pilots. The 1/pilot_len scale makes a co-pilot channel enter
the estimate with coefficient exactly one.

Pilot matrices are passed in as `lambdas`, one (N, pilot_len) matrix per
cell as `pilots.pilot_matrix` builds them once per plan; the reconstructed
LOS matrices are passed in as `los`, one (M, N) matrix per cell at the BS,
as `estimated_los_channel` builds them once per drop.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .channel import ChannelSet, steering_vector
from .model import Drop, NetworkConfig


def estimated_los_channel(drop: Drop, cfg: NetworkConfig, cell: int,
                          bs: int) -> np.ndarray:
    """BS-side LOS channel matrix (M, N) of `cell`'s users at BS `bs`, from
    estimated locations; all-zero columns for NLOS links."""
    alpha, k = drop.alpha_est[cell, :, bs], drop.k_est[cell, :, bs]
    w = np.sqrt(alpha * k / (1.0 + k))
    steer = steering_vector(cfg.M, drop.aoa_est[cell, :, bs], cfg.antenna_spacing)
    return np.ascontiguousarray(steer.T) * w


def synthesize_rx(cs: ChannelSet, lambdas: Sequence[np.ndarray],
                  noise: np.ndarray) -> np.ndarray:
    """Received pilot matrices, one (M, pilot_len) block per BS.

    Y_l = sum_i G_il @ Lambda_i + Z_l, where `noise` is the caller-drawn
    (L, M, pilot_len) block Z, already scaled (per-entry variance 1/rho under
    the unit-pilot-power convention; zeros for a noiseless synthesis). The
    caller draws it so that one draw can serve several plans.
    """
    n_cells, m = cs.g.shape[0], cs.g.shape[2]
    pilot_len = lambdas[0].shape[1]
    if noise.shape != (n_cells, m, pilot_len):
        raise ValueError(f"noise block must have shape {(n_cells, m, pilot_len)}, "
                         f"got {noise.shape}")
    y = np.empty((n_cells, m, pilot_len), dtype=complex)
    for l in range(n_cells):
        acc = np.zeros((m, pilot_len), dtype=complex)
        for i in range(n_cells):
            acc += cs.g[i, l] @ lambdas[i]
        acc += noise[l]
        y[l] = acc
    return y


def estimated_los_rx(los: Sequence[np.ndarray],
                     lambdas: Sequence[np.ndarray]) -> np.ndarray:
    """The pilot-phase receive matrix a BS attributes to LOS propagation,
    sum_i los[i] @ lambdas[i], where los[i] is cell i's
    `estimated_los_channel` at that BS."""
    out = np.zeros((los[0].shape[0], lambdas[0].shape[1]), dtype=complex)
    for los_i, lam_i in zip(los, lambdas, strict=True):
        out += los_i @ lam_i
    return out


def subtract_los(y: np.ndarray, los: Sequence[np.ndarray],
                 lambdas: Sequence[np.ndarray]) -> np.ndarray:
    """Remove the reconstructed LOS contribution from one BS's receive matrix.

    `los` holds every cell's `estimated_los_channel` at that BS. With perfect
    location estimates the residual is exactly the scatter-only synthesis
    plus noise; location errors leave the gap between the true and the
    reconstructed LOS receive matrices behind.
    """
    return y - estimated_los_rx(los, lambdas)


def ls_estimate(y_clean: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Least-squares scatter-channel estimate (1/pilot_len) * Y~ @ Lambda^H.

    Column k collects, with unit coefficient, every channel whose pilot
    collides with row k of `lam`, plus filtered noise. With a cell's pilot
    matrix that is one column per user; with the whole pilot book it is one
    column per pilot, and a user's column is the one of its pilot.
    """
    pilot_len = lam.shape[1]
    if y_clean.shape[1] != pilot_len:
        raise ValueError("receive matrix and pilot matrix disagree on pilot length")
    return y_clean @ lam.conj().T / pilot_len
