"""Steering vectors and per-realization Rician channel draws.

Each uplink channel is sqrt(alpha) * (sqrt(K/(1+K)) * steering(theta)
+ sqrt(1/(1+K)) * h_scatter) with h_scatter i.i.d. unit-variance complex
Gaussian. The channels follow a `Drop`'s `true` links; BS-side estimates of
the LOS part, from its `est` links, live in `estimation`.

Users are indexed cell-major, cell * N + user, as in `los_metric` and the
allocators: a drop's (L, L*N) [BS, user] arrays broadcast straight onto a
realization, one (L, M, L*N) array [BS, antenna, user], and a stack of
realizations is one (T, L, M, L*N) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Drop, Links, NetworkConfig


def crandn(rng: np.random.Generator, shape: tuple[int, ...],
           out: np.ndarray | None = None) -> np.ndarray:
    """Circularly-symmetric complex normals, unit variance per entry.

    Real/imaginary parts are interleaved per entry, so drawing an (N, M)
    block consumes the stream exactly like N consecutive (M,) draws. With
    `out`, a C-contiguous float array of shape (*shape, 2), the draw fills
    it in place, consuming the stream as a fresh draw does, and the result
    is a complex view of it.
    """
    z = rng.standard_normal((*shape, 2), out=out)
    z *= 1.0 / np.sqrt(2.0)
    return z.view(complex)[..., 0]


def steering_vector(m: int, theta) -> np.ndarray:
    """Half-wavelength ULA response: entry i = exp(-1j*i*pi*sin(theta)).

    The one array model: `los_metric.mutual_aoa` is the gap of two users'
    phases pi*sin(theta). Every entry has unit modulus, entry 0 is 1, and
    the squared norm is m. A scalar angle gives an (m,) vector; angles of
    shape (..., n) give (..., m, n), one response per column, the [antenna,
    user] layout of a channel matrix. With b = isqrt(m - 1) + 1, entry
    i0 + b*i1 is exp(1j*phase*i0) * exp(1j*phase*b*i1): 2*sqrt(m)
    exponentials per angle instead of m, multiplied with the angles innermost.
    """
    if m < 1:
        raise ValueError("need at least one antenna")
    phase = -np.pi * np.sin(theta)
    cols = np.atleast_1d(phase)[..., None, :]                   # (..., 1, n)
    b = math.isqrt(m - 1) + 1
    low = np.exp(1j * (np.arange(b)[:, None] * cols))           # (..., b, n)
    high = np.exp(1j * (np.arange(0, m, b)[:, None] * cols))    # (..., ceil(m/b), n)
    steer = (high[..., :, None, :] * low[..., None, :, :]).reshape(
        *cols.shape[:-2], -1, cols.shape[-1])[..., :m, :]
    return steer if np.ndim(phase) else steer[:, 0]


def los_channels(links: Links, m: int) -> np.ndarray:
    """LOS channels sqrt(alpha*K/(1+K)) * steering(aoa) of every user at
    every BS of m antennas, a C-contiguous (L, m, L*N) array, from one view
    of a drop's links; all-zero columns where K = 0."""
    return (steering_vector(m, links.aoa)
            * np.sqrt(links.alpha * links.k / (1.0 + links.k))[:, None, :])


@dataclass
class ChannelSet:
    """Stacked realizations; g[t, l][:, i*N + j] is user j of cell i at BS l in trial t.

    g = los + htilde * w_nlos per column, with `los` the sampler's true LOS
    channels, htilde the unit-variance scatter draw in the same layout and
    w_nlos = sqrt(alpha / (1 + K)).
    """

    g: np.ndarray       # (T, L, M, L*N) complex [trial, BS, antenna, cell*N + user]
    htilde: np.ndarray  # (T, L, M, L*N) scatter draw, same layout


class ChannelSampler:
    """Precomputes the location-dependent pieces, then draws realizations.

    The scatter block is drawn in [trial, BS, antenna, user] order, so a
    draw of T realizations consumes the stream exactly like T draws of one.
    """

    def __init__(self, drop: Drop, cfg: NetworkConfig):
        self.cfg = cfg
        self.los = los_channels(drop.true, cfg.M)
        self.w_nlos = np.sqrt(drop.true.alpha / (1.0 + drop.true.k))[:, None, :]

    def draw(self, rng: np.random.Generator, trials: int,
             out: np.ndarray | None = None) -> ChannelSet:
        """`trials` independent realizations, stacked on a leading axis.

        With `out`, a complex array of shape (trials, L, M, L*N), the
        channels are formed in it in place and `g` of the result is `out`;
        the scatter block is drawn fresh either way. The values and the
        stream consumed are those of a fresh draw.
        """
        L, N, M = self.cfg.L, self.cfg.N, self.cfg.M
        htilde = crandn(rng, (trials, L, M, L * N))
        g = np.multiply(htilde, self.w_nlos, out=out)
        g += self.los
        return ChannelSet(g=g, htilde=htilde)
