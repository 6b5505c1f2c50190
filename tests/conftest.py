"""Shared helpers for building small synthetic scenarios."""

from __future__ import annotations

import numpy as np

from mimopilots.channel import crandn, steering_vector
from mimopilots.model import Drop, NetworkConfig, bs_positions


def make_drop(cfg: NetworkConfig, *cells, los=None) -> Drop:
    """A drop from one list of placements per cell, each placement a
    (d, theta) or (d, theta, d_est, theta_est) tuple around the serving BS.

    Estimated locations default to the true ones; `los` may be a bool or an
    (L, N, L) array (default: every link LOS).
    """
    bs = bs_positions(cfg)
    pos = np.empty((cfg.L, cfg.N, 2))
    pos_est = np.empty((cfg.L, cfg.N, 2))
    for cell, placements in enumerate(cells):
        for j, (d, theta, *est) in enumerate(placements):
            d_est, theta_est = est or (d, theta)
            pos[cell, j] = bs[cell] + d * np.array([np.cos(theta), np.sin(theta)])
            pos_est[cell, j] = bs[cell] + d_est * np.array([np.cos(theta_est),
                                                            np.sin(theta_est)])
    if los is None:
        los = True
    return Drop.from_positions(cfg, pos, pos_est,
                               np.broadcast_to(los, (cfg.L, cfg.N, cfg.L)))


def set_all_nlos(drop: Drop) -> None:
    """Turn every link of a drop NLOS (K = 0, true and estimated)."""
    drop.los[:] = False
    drop.k[:] = 0.0
    drop.k_est[:] = 0.0


def is_balanced(cell_assignment: np.ndarray, n_pilots: int) -> bool:
    """True when every pilot is used floor(N/n) or ceil(N/n) times."""
    counts = np.bincount(np.asarray(cell_assignment, dtype=int), minlength=n_pilots)
    n = len(cell_assignment)
    return bool(counts.min() >= n // n_pilots and counts.max() <= -(-n // n_pilots))


def draw_channel(drop: Drop, cell: int, j: int, bs: int, m: int,
                 rng: np.random.Generator, spacing: float = 0.5) -> np.ndarray:
    """Oracle: one realization of user (cell, j)'s channel to BS `bs`.

    Weights are folded into the two components (w_los = sqrt(alpha*K/(1+K)),
    w_nlos = sqrt(alpha/(1+K))) with the same expressions the matrix
    assembly uses, so shared-stream draws agree bit for bit.
    """
    alpha, k = float(drop.alpha[cell, j, bs]), float(drop.k[cell, j, bs])
    h_los = steering_vector(m, float(drop.aoa[cell, j, bs]), spacing)
    h_nlos = crandn(rng, (m,))
    return (h_los * np.sqrt(alpha * k / (1.0 + k))
            + h_nlos * np.sqrt(alpha / (1.0 + k)))


def noise_block(cfg: NetworkConfig, noise_var: float = 0.0,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """Pilot-phase noise for `synthesize_rx`: per-entry variance `noise_var`,
    all zeros (and no draw) when it is 0."""
    shape = (cfg.L, cfg.M, cfg.pilot_len)
    if noise_var == 0.0:
        return np.zeros(shape, dtype=complex)
    return np.sqrt(noise_var) * crandn(rng, shape)
