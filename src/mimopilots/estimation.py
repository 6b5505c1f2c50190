"""Pilot-phase synthesis, LOS subtraction, and least-squares estimation.

Users are indexed cell-major, cell * N + user. Channels at every BS are one
(L, M, L*N) array [BS, antenna, user] and a plan's pilots one (L*N,
pilot_len) matrix Lambda, as `pilots.pilot_matrix` builds it, so the
receive matrices of all BSs are one product, Y = G @ Lambda + Z. The BS
reconstructs each user's LOS channel from estimated positions
(`estimated_los_channel`, same layout), subtracts its pilot-phase
contribution, Y - los @ Lambda, and correlates the residual with the
pilots. The 1/pilot_len scale makes a co-pilot channel enter the estimate
with coefficient exactly one.
"""

from __future__ import annotations

import numpy as np

from .channel import los_channels
from .model import Drop, NetworkConfig


def estimated_los_channel(drop: Drop, cfg: NetworkConfig) -> np.ndarray:
    """BS-side LOS channels of every user at every BS, (L, M, L*N), from
    estimated locations; all-zero columns for NLOS links."""
    return los_channels(drop.est, cfg.M)


def synthesize_rx(g: np.ndarray, lam: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Received pilot matrices of every BS, shape (..., L, M, pilot_len).

    Y_l = G_l @ Lambda + Z_l = sum_i G_il @ Lambda_i + Z_l for the
    (..., L, M, L*N) channels `g` of one realization or a stack of them.
    `noise` is the caller-drawn block Z of the receive matrices' shape,
    already scaled (per-entry variance 1/rho under the unit-pilot-power
    convention; zeros for a noiseless synthesis). The caller draws it so
    that one draw can serve several plans.
    """
    shape = (*g.shape[:-1], lam.shape[1])
    if noise.shape != shape:
        raise ValueError(f"noise block must have shape {shape}, got {noise.shape}")
    return g @ lam + noise


def ls_estimate(y_clean: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Least-squares scatter-channel estimate (1/pilot_len) * Y~ @ Lambda^H.

    Column k collects, with unit coefficient, every channel whose pilot
    collides with row k of `lam`, plus filtered noise. With a plan's pilot
    matrix that is one column per user; with the whole pilot book it is one
    column per pilot, and a user's column is the one of its pilot. A stack
    of receive matrices, one per BS and trial, gives a stack of estimates.
    """
    pilot_len = lam.shape[1]
    if y_clean.shape[-1] != pilot_len:
        raise ValueError("receive matrix and pilot matrix disagree on pilot length")
    return y_clean @ lam.conj().T / pilot_len
