"""Shared helpers for building small synthetic scenarios."""

from __future__ import annotations

import math

import numpy as np

from mimopilots.channel import ChannelSampler, crandn, steering_vector
from mimopilots.detection import CopilotGroups
from mimopilots.allocators import partition_tiers
from mimopilots.estimation import estimated_los_channel, ls_estimate, synthesize_rx
from mimopilots.los_metric import los_interference_from_params
from mimopilots.model import (TWO_PI, Drop, NetworkConfig, bs_positions,
                              error_half_width, los_probability)
from mimopilots.pilots import build_pilot_book, pilot_matrix


def make_drop(cfg: NetworkConfig, *cells, los=None) -> Drop:
    """A drop from one list of placements per cell, each placement a
    (d, theta) or (d, theta, d_est, theta_est) tuple around the serving BS.

    Estimated locations default to the true ones; `los` may be a bool or an
    (L, L*N) [BS, cell*N + user] array (default: every link LOS).
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
                               np.broadcast_to(los, (cfg.L, cfg.L * cfg.N)))


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
    los = np.ones((cfg.L, cfg.L * cfg.N), dtype=bool)
    for cell in range(cfg.L):
        for j in range(cfg.N):
            d = rng.uniform(cfg.min_dist, cfg.cell_radius)
            theta = rng.uniform(0.0, TWO_PI)
            pos[cell, j] = bs[cell] + d * np.array([math.cos(theta), math.sin(theta)])
            pos_est[cell, j] = pos[cell, j] + sample_position_error(cfg.loc_err_var, rng)
            if cfg.los_model != "always":
                dist = np.hypot(*(pos[cell, j][None, :] - bs).T)
                los[:, cell * cfg.N + j] = rng.random(cfg.L) < los_probability(dist, cfg)
    return Drop.from_positions(cfg, pos, pos_est, los)


def is_balanced(cell_assignment: np.ndarray, n_pilots: int) -> bool:
    """True when every pilot is used floor(N/n) or ceil(N/n) times."""
    counts = np.bincount(np.asarray(cell_assignment, dtype=int), minlength=n_pilots)
    n = len(cell_assignment)
    return bool(counts.min() >= n // n_pilots and counts.max() <= -(-n // n_pilots))


def channel_column(drop: Drop, cell: int, j: int, bs: int,
                   h_nlos: np.ndarray) -> np.ndarray:
    """Oracle: user (cell, j)'s channel to BS `bs` for the scatter draw `h_nlos`.

    Weights are folded into the two components (w_los = sqrt(alpha*K/(1+K)),
    w_nlos = sqrt(alpha/(1+K))) with the same expressions the matrix
    assembly uses, so the columns agree bit for bit.
    """
    user = cell * (drop.true.alpha.shape[1] // drop.true.alpha.shape[0]) + j
    alpha, k = float(drop.true.alpha[bs, user]), float(drop.true.k[bs, user])
    h_los = steering_vector(h_nlos.size, float(drop.true.aoa[bs, user]))
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
    groups = [[CopilotGroups(los[l], l, plan.cells[l], cfg.pilot_len) for l in range(L)]
              for plan in plans]
    sum_sig = np.zeros((len(plans), L, N), dtype=complex)
    sum_pow = np.zeros((len(plans), L, N))
    sum_wsq = np.zeros((len(plans), L, N))
    noise_rng = rng.spawn(1)[0]
    for _ in range(trials):
        g = sampler.draw(rng, 1).g[0]
        noise = np.sqrt(noise_var) * crandn(noise_rng, (L, M, cfg.pilot_len))
        for p, lam in enumerate(lams):
            est = ls_estimate(synthesize_rx(g, lam, noise) - los @ lam, book)
            for l in range(L):
                sig, pow_, wsq = groups[p][l].moments(est[l][None], g[l][None])
                sum_sig[p, l] += sig
                sum_pow[p, l] += pow_
                sum_wsq[p, l] += wsq
    mean_sig_sq = np.abs(sum_sig / trials) ** 2
    denom = sum_pow / trials - mean_sig_sq + noise_var * sum_wsq / trials
    return mean_sig_sq / np.maximum(denom, 1e-12)


def los_interference_at(drop: Drop, bs: int, m: int) -> np.ndarray:
    """Oracle: the (L*N, L*N) [interferer, reference] scores of every user
    pair at one BS `bs`, whatever the reference's serving BS."""
    alpha, k, theta = (x[bs].reshape(-1, 1)
                       for x in (drop.est.alpha, drop.est.k, drop.est.aoa))
    return los_interference_from_params(alpha, k, theta, alpha.T, k.T, theta.T, m)


def loc_aware_per_pilot_mean(cfg: NetworkConfig, drop: Drop) -> np.ndarray:
    """Oracle for `allocators.allocate_loc_aware`: the (L, N) plan with each
    later-tier mean taken per pilot over a list of its holders, from the
    per-BS scores of the users' own cell."""
    n_pilots, N = cfg.pilot_len, cfg.N
    plan = np.full((cfg.L, N), -1, dtype=int)
    holders: list[list[int]] = [[] for _ in range(n_pilots)]   # flat user indices
    for cell in range(cfg.L):
        tiers = partition_tiers(drop, cell, n_pilots)
        scores = los_interference_at(drop, cell, cfg.M).T   # [reference, interferer]
        for slot, j in enumerate(tiers[0]):
            plan[cell, j] = slot
            holders[slot].append(cell * N + j)
        for tier in tiers[1:]:
            means = np.array([scores[np.ix_(cell * N + tier, h)].mean(axis=1)
                              for h in holders])          # (n_pilots, tier)
            free = np.ones(n_pilots, dtype=bool)
            for col, j in enumerate(tier):
                open_pilots = np.flatnonzero(free)
                pilot = int(open_pilots[np.argmin(means[open_pilots, col])])
                plan[cell, j] = pilot
                free[pilot] = False
                holders[pilot].append(cell * N + j)
    return plan


def proxy_weights_per_cell(cfg: NetworkConfig, drop: Drop) -> np.ndarray:
    """Oracle for `allocators.proxy_weights`: the weights filled one block of
    reference columns per cell, from the per-BS scores of that cell."""
    N = cfg.N
    weights = np.empty((cfg.L * N, cfg.L * N))
    for cell in range(cfg.L):
        refs = slice(cell * N, (cell + 1) * N)
        gain = drop.est.alpha[cell]
        weights[:, refs] = (gain[:, None] / gain[None, refs]
                            + los_interference_at(drop, cell, cfg.M)[:, refs])
    np.fill_diagonal(weights, 0.0)
    return weights
