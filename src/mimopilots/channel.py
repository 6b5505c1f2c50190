"""Steering vectors and per-realization Rician channel draws.

Each uplink channel is sqrt(alpha) * (sqrt(K/(1+K)) * steering(theta)
+ sqrt(1/(1+K)) * h_scatter) with h_scatter i.i.d. unit-variance complex
Gaussian. The deterministic LOS part uses the *true* geometry of a `Drop`;
BS-side estimates of it live in `estimation`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Drop, NetworkConfig


def crandn(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Circularly-symmetric complex normals, unit variance per entry.

    Real/imaginary parts are interleaved per entry, so drawing an (N, M)
    block consumes the stream exactly like N consecutive (M,) draws.
    """
    z = rng.standard_normal((*shape, 2))
    z *= 1.0 / np.sqrt(2.0)
    return z.view(complex)[..., 0]


def steering_vector(m: int, theta, spacing: float = 0.5) -> np.ndarray:
    """Uniform-linear-array response: entry i = exp(-1j*i*2*pi*spacing*sin(theta)).

    Every entry has unit modulus, entry 0 is 1, and the squared norm is m.
    An array of angles gives one response per angle along a new last axis.
    """
    if m < 1:
        raise ValueError("need at least one antenna")
    phase = -2.0 * np.pi * spacing * np.sin(theta)
    return np.exp(1j * np.multiply.outer(phase, np.arange(m)))


@dataclass
class ChannelSet:
    """Channels for one realization; index [i, l] = cell-i users at BS l.

    g = (hbar * w_los + htilde * w_nlos) column-scaled, where w_los and
    w_nlos carry the Rician weights and sqrt(alpha). The pieces are kept so
    tests and the estimator can reconstruct either component exactly.
    """

    g: np.ndarray       # (L, L, M, N) complex
    hbar: np.ndarray    # (L, L, M, N) steering columns at true angles
    htilde: np.ndarray  # (L, L, M, N) scatter draws
    alpha: np.ndarray   # (L, L, N) true large-scale gains
    k: np.ndarray       # (L, L, N) true K-factors

    def nlos_effective(self, i: int, l: int) -> np.ndarray:
        """Scatter component scaled as it enters the received pilots."""
        w = np.sqrt(self.alpha[i, l] / (1.0 + self.k[i, l]))
        return self.htilde[i, l] * w[None, :]


class ChannelSampler:
    """Precomputes the location-dependent pieces, then draws realizations.

    The scatter blocks are drawn cell pair by cell pair in (i, l) order and,
    within a pair, user by user, one (M,) vector per user, from a shared
    stream.
    """

    def __init__(self, drop: Drop, cfg: NetworkConfig):
        self.cfg = cfg
        # [cell, user, BS] -> [cell, BS, user], laid out C-contiguous
        self.alpha = np.ascontiguousarray(drop.alpha.transpose(0, 2, 1))
        self.k = np.ascontiguousarray(drop.k.transpose(0, 2, 1))
        self.hbar = np.ascontiguousarray(np.swapaxes(steering_vector(
            cfg.M, drop.aoa.transpose(0, 2, 1), cfg.antenna_spacing), -1, -2))
        self.w_los = np.sqrt(self.alpha * self.k / (1.0 + self.k))
        self.w_nlos = np.sqrt(self.alpha / (1.0 + self.k))

    def draw(self, rng: np.random.Generator) -> ChannelSet:
        L, N, M = self.cfg.L, self.cfg.N, self.cfg.M
        htilde = crandn(rng, (L, L, N, M)).swapaxes(-1, -2)
        g = self.hbar * self.w_los[:, :, None, :] + htilde * self.w_nlos[:, :, None, :]
        return ChannelSet(g=g, hbar=self.hbar, htilde=htilde,
                          alpha=self.alpha, k=self.k)


def assemble_channels(drop: Drop, cfg: NetworkConfig,
                      rng: np.random.Generator) -> ChannelSet:
    """Draw one full set of channel matrices for the scenario."""
    return ChannelSampler(drop, cfg).draw(rng)
