"""Pilot-phase synthesis, LOS subtraction, and least-squares estimation.

The receive matrix at BS l stacks all cells' pilot transmissions through
their channels plus noise. The BS reconstructs each user's LOS contribution
from estimated positions, subtracts it, and correlates the residual with
its own cell's pilots. The 1/pilot_len scale makes a co-pilot channel enter
the estimate with coefficient exactly one.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelSet, steering_vector
from .model import NetworkConfig, UserRecord, group_users
from .pilots import AllocationPlan, pilot_matrix


def _los_channel(users: list[UserRecord], cfg: NetworkConfig, cell: int, bs: int,
                 estimated: bool) -> np.ndarray:
    """Stack the (true or BS-side) LOS components of one cell seen at `bs`."""
    groups = group_users(users, cfg)
    out = np.zeros((cfg.M, cfg.N), dtype=complex)
    for j, u in enumerate(groups[cell]):
        if estimated:
            alpha, k, theta = u.alpha_est[bs], u.k_est[bs], u.aoa_est[bs]
        else:
            alpha, k, theta = u.alpha[bs], u.k[bs], u.aoa[bs]
        w = np.sqrt(alpha * k / (1.0 + k))
        if w > 0:
            out[:, j] = w * steering_vector(cfg.M, float(theta), cfg.antenna_spacing)
    return out


def estimated_los_channel(users: list[UserRecord], cfg: NetworkConfig,
                          cell: int, bs: int) -> np.ndarray:
    """BS-side LOS channel matrix of `cell`'s users, from estimated locations."""
    return _los_channel(users, cfg, cell, bs, estimated=True)


def true_los_channel(users: list[UserRecord], cfg: NetworkConfig,
                     cell: int, bs: int) -> np.ndarray:
    """Actual LOS channel matrix (simulator-side ground truth)."""
    return _los_channel(users, cfg, cell, bs, estimated=False)


def synthesize_rx(cs: ChannelSet, plan: AllocationPlan, book: np.ndarray,
                  noise: np.ndarray) -> np.ndarray:
    """Received pilot matrices, one (M, pilot_len) block per BS.

    Y_l = sum_i G_il @ Lambda_i + Z_l, where `noise` is the caller-drawn
    (L, M, pilot_len) block Z, already scaled (per-entry variance 1/rho under
    the unit-pilot-power convention; zeros for a noiseless synthesis). The
    caller draws it so that one draw can serve several plans.
    """
    n_cells, m = cs.g.shape[0], cs.g.shape[2]
    pilot_len = book.shape[1]
    if noise.shape != (n_cells, m, pilot_len):
        raise ValueError(f"noise block must have shape {(n_cells, m, pilot_len)}, "
                         f"got {noise.shape}")
    lambdas = [pilot_matrix(plan, i, book) for i in range(n_cells)]
    y = np.empty((n_cells, m, pilot_len), dtype=complex)
    for l in range(n_cells):
        acc = np.zeros((m, pilot_len), dtype=complex)
        for i in range(n_cells):
            acc += cs.g[i, l] @ lambdas[i]
        acc += noise[l]
        y[l] = acc
    return y


def estimated_los_rx(users: list[UserRecord], cfg: NetworkConfig,
                     plan: AllocationPlan, book: np.ndarray, bs: int) -> np.ndarray:
    """The pilot-phase receive matrix the BS attributes to LOS propagation."""
    out = np.zeros((cfg.M, book.shape[1]), dtype=complex)
    for i in range(cfg.L):
        out += estimated_los_channel(users, cfg, i, bs) @ pilot_matrix(plan, i, book)
    return out


def subtract_los(y: np.ndarray, users: list[UserRecord], cfg: NetworkConfig,
                 plan: AllocationPlan, book: np.ndarray, bs: int) -> np.ndarray:
    """Remove the reconstructed LOS contribution from one BS's receive matrix.

    With perfect location estimates the residual is exactly the scatter-only
    synthesis plus noise; location errors leave a mismatch term behind (see
    `los_mismatch`).
    """
    return y - estimated_los_rx(users, cfg, plan, book, bs)


def los_mismatch(users: list[UserRecord], cfg: NetworkConfig,
                 plan: AllocationPlan, book: np.ndarray, bs: int) -> np.ndarray:
    """Per source cell, the LOS receive matrix the subtraction fails to remove.

    Entry [i] is (true LOS of cell i - reconstructed LOS of cell i) @ Lambda_i;
    all-zero when estimated positions match the truth.
    """
    out = np.empty((cfg.L, cfg.M, book.shape[1]), dtype=complex)
    for i in range(cfg.L):
        gap = (true_los_channel(users, cfg, i, bs)
               - estimated_los_channel(users, cfg, i, bs))
        out[i] = gap @ pilot_matrix(plan, i, book)
    return out


def ls_estimate(y_clean: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Least-squares scatter-channel estimate (1/pilot_len) * Y~ @ Lambda^H.

    Column k collects, with unit coefficient, every channel whose pilot
    collides with user k's pilot, plus filtered noise.
    """
    pilot_len = lam.shape[1]
    if y_clean.shape[1] != pilot_len:
        raise ValueError("receive matrix and pilot matrix disagree on pilot length")
    return y_clean @ lam.conj().T / pilot_len
