"""Shared helpers for building small synthetic scenarios."""

from __future__ import annotations

import math

import numpy as np

from mimopilots.channel import ChannelSampler, crandn, steering_vector
from mimopilots.detection import CopilotGroups
from mimopilots.estimation import estimated_los_channel, ls_estimate, synthesize_rx
from mimopilots.model import (TWO_PI, Drop, NetworkConfig, bs_positions,
                              error_half_width, los_probability)
from mimopilots.pilots import build_pilot_book, pilot_matrix


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


def sample_position_error(var: float, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Planar position offsets with E[||offset||^2] == var.

    Always consumes two uniforms per offset (scaled by zero when var == 0)
    so RNG streams stay aligned across error-variance sweeps.
    """
    a = error_half_width(var)
    size = (2,) if n is None else (n, 2)
    return a * rng.uniform(-1.0, 1.0, size=size)


def sample_users_per_user(cfg: NetworkConfig, rng: np.random.Generator) -> Drop:
    """Oracle for `model.sample_users`: the same drop, one user at a time.

    Per user, in cell then user order: serving distance, serving angle, two
    position-error uniforms, then (in "linear_prob" mode) one LOS uniform
    per BS, each taken with its own `Generator` call.
    """
    bs = bs_positions(cfg)
    pos = np.empty((cfg.L, cfg.N, 2))
    pos_est = np.empty((cfg.L, cfg.N, 2))
    los = np.ones((cfg.L, cfg.N, cfg.L), dtype=bool)
    for cell in range(cfg.L):
        for j in range(cfg.N):
            d = rng.uniform(cfg.min_dist, cfg.cell_radius)
            theta = rng.uniform(0.0, TWO_PI)
            pos[cell, j] = bs[cell] + d * np.array([math.cos(theta), math.sin(theta)])
            pos_est[cell, j] = pos[cell, j] + sample_position_error(cfg.loc_err_var, rng)
            if cfg.los_model != "always":
                dist = np.hypot(*(pos[cell, j][None, :] - bs).T)
                los[cell, j] = rng.random(cfg.L) < los_probability(dist, cfg)
    return Drop.from_positions(cfg, pos, pos_est, los)


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


def estimate_sinr_per_trial(cfg: NetworkConfig, drop: Drop, plans, trials: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Oracle: the SINR Monte Carlo one trial, plan and BS at a time.

    Same draws in the same stream order as `detection.estimate_sinr`, with
    every sum accumulated per trial, so the chunked engine must agree with
    it up to summation order.
    """
    L, N, M = cfg.L, cfg.N, cfg.M
    book = build_pilot_book(cfg.pilot_len)
    sampler = ChannelSampler(drop, cfg)
    noise_var = 1.0 / cfg.rho
    los = estimated_los_channel(drop, cfg)
    lams = [pilot_matrix(plan, book) for plan in plans]
    groups = [[CopilotGroups(los[l][:, l * N:(l + 1) * N], plan.cells[l], cfg.pilot_len)
               for l in range(L)] for plan in plans]
    sum_sig = np.zeros((len(plans), L, N), dtype=complex)
    sum_pow = np.zeros((len(plans), L, N))
    sum_wsq = np.zeros((len(plans), L, N))
    diag = np.arange(N)
    for _ in range(trials):
        g = sampler.draw(rng).g
        noise = np.sqrt(noise_var) * crandn(rng, (L, M, cfg.pilot_len))
        for p, lam in enumerate(lams):
            est = ls_estimate(synthesize_rx(g, lam, noise) - los @ lam, book)
            for l in range(L):
                prod, wsq = groups[p][l].products(est[l], g[l])
                sum_pow[p, l] += np.sum(np.abs(prod) ** 2, axis=1)
                sum_sig[p, l] += prod[diag, l * N + diag]
                sum_wsq[p, l] += wsq
    mean_sig_sq = np.abs(sum_sig / trials) ** 2
    denom = sum_pow / trials - mean_sig_sq + noise_var * sum_wsq / trials
    return mean_sig_sq / np.maximum(denom, 1e-12)
