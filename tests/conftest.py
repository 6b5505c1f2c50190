"""Shared helpers for building small synthetic scenarios."""

from __future__ import annotations

import numpy as np

from mimopilots.channel import crandn
from mimopilots.model import NetworkConfig, UserRecord, _finalize_user, bs_positions


def make_user(cfg: NetworkConfig, cell: int, index: int, d: float, theta: float,
              d_est: float | None = None, theta_est: float | None = None,
              los=None) -> UserRecord:
    """Place a user at polar (d, theta) around its serving BS.

    Estimated location defaults to the true one; `los` may be a bool or a
    per-BS array.
    """
    bs = bs_positions(cfg)
    pos = bs[cell] + d * np.array([np.cos(theta), np.sin(theta)])
    if d_est is None and theta_est is None:
        pos_est = pos.copy()
    else:
        d_est = d if d_est is None else d_est
        theta_est = theta if theta_est is None else theta_est
        pos_est = bs[cell] + d_est * np.array([np.cos(theta_est), np.sin(theta_est)])
    if los is None:
        los = np.ones(cfg.L, dtype=bool)
    elif np.isscalar(los):
        los = np.full(cfg.L, bool(los))
    return _finalize_user(cell, index, pos, pos_est, los, cfg)


def make_cell_users(cfg: NetworkConfig, placements, cell: int = 0) -> list[UserRecord]:
    """Users from a list of (d, theta) or (d, theta, d_est, theta_est) tuples."""
    users = []
    for index, spec in enumerate(placements):
        users.append(make_user(cfg, cell, index, *spec))
    return users


def noise_block(cfg: NetworkConfig, noise_var: float = 0.0,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """Pilot-phase noise for `synthesize_rx`: per-entry variance `noise_var`,
    all zeros (and no draw) when it is 0."""
    shape = (cfg.L, cfg.M, cfg.pilot_len)
    if noise_var == 0.0:
        return np.zeros(shape, dtype=complex)
    return np.sqrt(noise_var) * crandn(rng, shape)
