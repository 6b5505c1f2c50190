"""Zero-forcing detection, Monte-Carlo SINR estimation, and spectral efficiency.

The detector at each BS combines with the zero-forcing combiner of its
channel estimate (reconstructed LOS plus least-squares scatter estimate),
solved on the Gram matrix by Cholesky when that is certified accurate and
by the pseudo-inverse otherwise. SINRs are conditional on user locations:
expectations over small-scale fading are sample means over fresh channel
realizations, with the combiner rebuilt from estimates every realization and
the true channels used as ground truth.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .channel import ChannelSampler, crandn
from .estimation import (estimated_los_channel, estimated_los_rx, ls_estimate,
                         synthesize_rx)
from .model import ConfigError, Drop, NetworkConfig
from .pilots import AllocationPlan, build_pilot_book, pilot_matrix

# floor for the SINR denominator when the sample variance underflows
_DENOM_FLOOR = 1e-12

# relative singular-value cutoff for the rank-revealing pseudo-inverse
_ZF_RCOND = 1e-8

# The Gram-Cholesky combiner is used only when ||R||_F * ||R^-1||_F, an upper
# bound on cond2(Ghat), stays below this. The pseudo-inverse then drops no
# singular value, and the squared condition number of the Gram solve still
# leaves about 1e-8 relative accuracy.
_ZF_COND_BOUND = 1e4


def zf_combiner(ghat: np.ndarray) -> np.ndarray:
    """Zero-forcing combiner W = Ghat @ pinv(Ghat^H Ghat).

    Fast path: Cholesky-factor the Gram matrix Ghat^H Ghat = R R^H and
    return Ghat @ R^-H @ R^-1, used only when the bound
    ||R||_F * ||R^-1||_F on cond2(Ghat) certifies it. Otherwise (Cholesky
    failure, rank-deficient or ill-conditioned estimates) the SVD
    pseudo-inverse with singular values below 1e-8 * sigma_max treated as
    zero, so duplicated estimate columns (intra-cell pilot reuse) resolve to
    the minimum-norm combiner instead of blowing up. For a single column
    this is g / (g^H g); for full-rank estimates W^H @ Ghat == I.
    """
    ghat = np.asarray(ghat)
    if ghat.ndim != 2:
        raise ValueError("channel estimate must be a 2-D matrix")
    if not np.any(ghat):
        raise ValueError("degenerate estimate: all-zero channel matrix")
    try:
        chol = np.linalg.cholesky(ghat.conj().T @ ghat)
        chol_inv = np.linalg.inv(chol)
    except np.linalg.LinAlgError:
        pass                    # Gram matrix not positive definite
    else:
        if np.linalg.norm(chol) * np.linalg.norm(chol_inv) < _ZF_COND_BOUND:
            return ghat @ (chol_inv.conj().T @ chol_inv)
    return np.linalg.pinv(ghat, rcond=_ZF_RCOND).conj().T


def spectral_efficiency(sinr, pilot_len: int, coherence_len: int):
    """SE = (1 - pilot_len/coherence_len) * log2(1 + sinr), in bits/s/Hz."""
    if pilot_len >= coherence_len:
        raise ConfigError("pilot_len must be smaller than coherence_len")
    sinr = np.asarray(sinr, dtype=float)
    if np.any(sinr < 0):
        raise ValueError("SINR must be non-negative")
    out = (1.0 - pilot_len / coherence_len) * np.log2(1.0 + sinr)
    return out if out.ndim else float(out)


def estimate_sinr(cfg: NetworkConfig, drop: Drop,
                  plans: Sequence[AllocationPlan], trials: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Per-user SINR of each plan, shape (P, L, N), for fixed locations.

    Each trial draws fresh channels and one pilot-phase noise block, and
    every plan reuses them (common random numbers): per plan it synthesizes
    the pilot phase, subtracts the reconstructed LOS, forms LS estimates,
    and rebuilds the ZF combiner. A plan's result is therefore the same
    whichever other plans share the call. Sample means over trials estimate
    the useful-signal mean, all interference second moments, and the
    combiner norm; the denominator is floored at 1e-12.
    """
    if trials < 2:
        raise ConfigError(f"need at least 2 trials, got {trials}")
    L, N, M = cfg.L, cfg.N, cfg.M
    P = len(plans)
    book = build_pilot_book(cfg.pilot_len)
    lambdas = [[pilot_matrix(plan, i, book) for i in range(L)] for plan in plans]
    sampler = ChannelSampler(drop, cfg)
    noise_var = 1.0 / cfg.rho

    # location-only pieces, constant across trials
    ghat_los = [estimated_los_channel(drop, cfg, cell=l, bs=l) for l in range(L)]
    ybar = [[estimated_los_rx(drop, cfg, lam, bs=l) for l in range(L)]
            for lam in lambdas]

    sum_sig = np.zeros((P, L, N), dtype=complex)  # w^H g of the own user
    sum_pow = np.zeros((P, L, N, L * N))          # |w^H g|^2, all users
    sum_wsq = np.zeros((P, L, N))                 # ||w||^2
    for _ in range(trials):
        cs = sampler.draw(rng)
        # one block consumes the stream like L per-BS (M, pilot_len) draws
        noise = np.sqrt(noise_var) * crandn(rng, (L, M, cfg.pilot_len))
        g_all = [np.concatenate([cs.g[i, l] for i in range(L)], axis=1)
                 for l in range(L)]                # (M, L*N) per BS
        for p in range(P):
            y = synthesize_rx(cs, lambdas[p], noise)
            for l in range(L):
                gtilde_hat = ls_estimate(y[l] - ybar[p][l], lambdas[p][l])
                w = zf_combiner(ghat_los[l] + gtilde_hat)
                prod = w.conj().T @ g_all[l]       # (N, L*N)
                sum_pow[p, l] += np.abs(prod) ** 2
                sum_sig[p, l] += prod[np.arange(N), l * N + np.arange(N)]
                sum_wsq[p, l] += np.sum(np.abs(w) ** 2, axis=0)

    mean_sig_sq = np.abs(sum_sig / trials) ** 2
    denom = (sum_pow.sum(axis=3) / trials - mean_sig_sq
             + noise_var * sum_wsq / trials)
    return mean_sig_sq / np.maximum(denom, _DENOM_FLOOR)
