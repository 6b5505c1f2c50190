"""Zero-forcing detection, Monte-Carlo SINR estimation, and spectral efficiency.

The detector at each BS combines with the zero-forcing combiner of its
channel estimate (reconstructed LOS plus least-squares scatter estimate).
Users of a cell who share a pilot and whose links the BS takes for NLOS get
identical estimate columns; the combiner is solved on the distinct columns
only and expanded in closed form to the minimum-norm combiner of the full
estimate. Each solve returns X = pinv(Ghat^H Ghat), from the Gram inverse
when a condition bound certifies it and the pseudo-inverse otherwise, and
W = Ghat @ X is never built: the SINR sums need only W^H G = X Ghat^H G
and ||w_n||^2 = X_nn. SINRs are conditional
on user locations: expectations over small-scale fading are sample means
over fresh channel realizations, with the combiner rebuilt from estimates
every realization and the true channels used as ground truth.

Users are indexed cell-major, cell * N + user: channels and reconstructed
LOS channels are (L, M, L*N) arrays [BS, antenna, user] and a plan's
pilots one (L*N, pilot_len) matrix. Trials run in chunks: a chunk's
channel and noise draws are stacked on a leading trial axis, so a plan's
pilot phase, LOS subtraction, LS estimate, copilot reduction, Gram-domain
combiner products and SINR sums over every trial and BS of the chunk are
one array expression each. The ZF solve is the one step left per trial and
BS. The chunk holds as many trials as fit a fixed byte budget for the
channel stack, so its size depends only on (L, M, N), never on the number
of plans or trials, and the working set stays small at any trial count.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .channel import ChannelSampler, crandn
from .estimation import estimated_los_channel, ls_estimate, synthesize_rx
from .model import ConfigError, Drop, NetworkConfig
from .pilots import AllocationPlan, build_pilot_book, pilot_matrix

# Trials run in chunks whose (T_c, L, M, L*N) complex channel stack stays
# within this many bytes (at least one trial per chunk), so the per-chunk
# working set stays in cache at any trial count.
_CHUNK_BYTES = 512 * 1024

# floor for the SINR denominator when the sample variance underflows
_DENOM_FLOOR = 1e-12

# relative singular-value cutoff for the rank-revealing pseudo-inverse
_ZF_RCOND = 1e-8

# The Gram-inverse combiner is used only when ||A||_F * ||A^-1||_F for the
# Gram matrix A = Ghat^H Ghat, an upper bound on cond2(Ghat)^2, stays below
# this squared. The pseudo-inverse then drops no singular value, and the
# squared condition number of the Gram solve still leaves about 1e-8
# relative accuracy.
_ZF_COND_BOUND = 1e4


def gram_condition(gram: np.ndarray, gram_inv: np.ndarray) -> float:
    """||A||_F * ||X||_F for a Gram matrix A and its computed inverse X.

    For the exact inverse this bounds cond2(A) from above. A computed X can
    only score below a bound B if it really inverts A: the LU residual
    ||X A - I|| is of order eps * ||X|| * ||A||, so a numerically singular
    A, whose computed inverse is garbage of norm about 1 / (eps * ||A||),
    scores about 1 / eps.
    """
    return float(np.sqrt(np.vdot(gram, gram).real * np.vdot(gram_inv, gram_inv).real))


def zf_combiner(ghat: np.ndarray) -> np.ndarray:
    """X = pinv(Ghat^H Ghat) of one 2-D (M, U) estimate, the (U, U) core of
    the zero-forcing combiner W = Ghat @ X on either path.

    Fast path: inv(Ghat^H Ghat), used only when `gram_condition` certifies
    cond2(Ghat) < 1e4. Otherwise (a singular Gram matrix, rank-deficient or
    ill-conditioned estimates) P @ P^H for the SVD pseudo-inverse P of Ghat
    with singular values below 1e-8 * sigma_max treated as zero, so
    duplicated columns resolve to the minimum-norm combiner. The benchmark's
    tracer counts this function by name, once per solve (plan, trial, BS).
    """
    if ghat.ndim != 2:
        raise ValueError("channel estimate must be a 2-D matrix")
    gram = ghat.conj().T @ ghat
    try:
        gram_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        pass                    # Gram matrix exactly singular
    else:
        if gram_condition(gram, gram_inv) < _ZF_COND_BOUND ** 2:
            return gram_inv
    if not ghat.any():          # an all-zero Gram matrix is singular
        raise ValueError("degenerate estimate: all-zero channel matrix")
    p = np.linalg.pinv(ghat, rcond=_ZF_RCOND)
    return p @ p.conj().T


class CopilotGroups:
    """One cell's estimate at its own BS, reduced to its distinct columns.

    The estimate is Ghat = ghat_los + est[:, pilots], with `ghat_los` the
    cell's reconstructed LOS channel at its BS, `pilots` the cell's pilot
    indices and `est` the LS estimate with one column per pilot. Users who
    share a pilot and whose LOS column is exactly zero (an NLOS link) get
    identical columns and form one group; every other user is a group of
    one. `inv` maps each user to its group and is None when every group has
    one user, and then the full estimate is solved as it is.
    """

    def __init__(self, ghat_los: np.ndarray, pilots: np.ndarray, pilot_len: int):
        self.ghat_los, self.pilots, self.inv = ghat_los, pilots, None
        nlos = ~ghat_los.any(axis=0)
        if np.count_nonzero(nlos) < 2:
            return
        key = np.where(nlos, pilots, pilot_len + np.arange(pilots.size))
        _, keep, inv, size = np.unique(key, return_index=True,
                                       return_inverse=True, return_counts=True)
        if keep.size == pilots.size:
            return
        root = np.sqrt(size)
        self.inv = inv
        self.los_u = ghat_los[:, keep] * root             # (M, U)
        self.pick = np.zeros((pilot_len, keep.size), dtype=complex)
        self.pick[pilots[keep], np.arange(keep.size)] = root
        self.scale = 1.0 / root[inv]                      # (N,)

    def products(self, est: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(W^H g (..., N, L*N), ||w||^2 (..., N)) of the ZF combiner W of
        Ghat = ghat_los + est[..., pilots], for one estimate or a stack.

        Each matrix gets its own `zf_combiner` call, X, and W^H g =
        X @ (Ghat^H g), ||w_n||^2 = X_nn. With groups, Ghat = Gu @ E for the
        distinct columns Gu and the 0/1 group-to-user map E with E E^T = D,
        the group sizes. F = D^-1/2 E has orthonormal rows, so pinv(Ghat)^H
        = W_u F for the combiner W_u of Gu D^1/2, whatever the rank of Gu: a
        user gets its group's row of W_u^H g over the root of the group size
        and its ||w||^2 over the size, from one solve on U <= N columns.
        """
        if self.inv is None:
            ghat = self.ghat_los + est[..., self.pilots]
        else:
            ghat = self.los_u + est @ self.pick
        x = np.array([zf_combiner(m) for m in ghat.reshape(-1, *ghat.shape[-2:])])
        x = x.reshape(ghat.shape[:-2] + x.shape[-2:])
        prod = x @ (ghat.conj().swapaxes(-1, -2) @ g)
        wsq = np.diagonal(x, axis1=-2, axis2=-1).real
        if self.inv is None:
            return prod, wsq
        return prod[..., self.inv, :] * self.scale[:, None], wsq[..., self.inv] * self.scale ** 2


def spectral_efficiency(sinr, pilot_len: int, coherence_len: int):
    """SE = (1 - pilot_len/coherence_len) * log2(1 + sinr), in bits/s/Hz."""
    sinr = np.asarray(sinr, dtype=float)
    if not np.all(np.isfinite(sinr) & (sinr >= 0)):
        raise ValueError("SINR must be finite and non-negative")
    out = (1.0 - pilot_len / coherence_len) * np.log2(1.0 + sinr)
    return out if out.ndim else float(out)


def estimate_sinr(cfg: NetworkConfig, drop: Drop,
                  plans: Sequence[AllocationPlan], trials: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Per-user SINR of each plan, shape (P, L, N), for fixed locations.

    Each trial draws fresh channels and one pilot-phase noise block, and
    every plan reuses them (common random numbers): per plan it synthesizes
    the pilot phase, subtracts the reconstructed LOS, forms one LS estimate
    per pilot, and solves ZF on the distinct estimate columns, one
    `zf_combiner` call per trial and BS, everything else one array
    expression per chunk of trials (`_CHUNK_BYTES`). The chunk size depends
    only on (L, M, N), and the draws are taken trial by trial in stream
    order, so a plan's result is the same whichever other plans share the
    call. Sample means over trials estimate the useful-signal mean, all
    interference second moments and the combiner norm; the denominator is
    floored at 1e-12. A non-finite SINR raises FloatingPointError.
    """
    if trials < 2:
        raise ConfigError(f"need at least 2 trials, got {trials}")
    L, N, M, K = cfg.L, cfg.N, cfg.M, cfg.pilot_len
    P = len(plans)
    book = build_pilot_book(K)
    sampler = ChannelSampler(drop, cfg)
    noise_var = 1.0 / cfg.rho

    # location-only pieces, constant across trials: the reconstructed LOS
    # channels (L, M, L*N), each plan's pilots (L*N, pilot_len) and their
    # LOS receive matrices (L, M, pilot_len)
    los = estimated_los_channel(drop, cfg)
    lams = [pilot_matrix(plan, book) for plan in plans]
    ybar = [los @ lam for lam in lams]
    groups = [[CopilotGroups(los[l][:, l * N:(l + 1) * N], plan.cells[l], K)
               for l in range(L)] for plan in plans]

    chunk = max(1, min(trials, _CHUNK_BYTES // (16 * L * M * L * N)))
    g_stack = np.empty((chunk, L, M, L * N), dtype=complex)
    z_stack = np.empty((chunk, L, M, K), dtype=complex)
    prod_stack = np.empty((chunk, L, N, L * N), dtype=complex)   # w^H g
    wsq_stack = np.empty((chunk, L, N))                          # ||w||^2

    sum_sig = np.zeros((P, L, N), dtype=complex)  # w^H g of the own user
    sum_pow = np.zeros((P, L, N))                 # |w^H g|^2 summed over users
    sum_wsq = np.zeros((P, L, N))                 # ||w||^2
    for start in range(0, trials, chunk):
        t = min(chunk, trials - start)
        g, z, prod, wsq = g_stack[:t], z_stack[:t], prod_stack[:t], wsq_stack[:t]
        for i in range(t):
            g[i] = sampler.draw(rng).g
            # one block consumes the stream like L per-BS (M, pilot_len) draws
            z[i] = crandn(rng, (L, M, K))
        z *= np.sqrt(noise_var)
        for p in range(P):
            # one column per pilot at every trial and BS
            est = ls_estimate(synthesize_rx(g, lams[p], z) - ybar[p], book)
            for l in range(L):
                prod[:, l], wsq[:, l] = groups[p][l].products(est[:, l], g[:, l])
            # the own user's entries, (l, n, l, n) of the (t, L, N, L, N) view
            sum_sig[p] += np.einsum("tlnln->ln", prod.reshape(t, L, N, L, N))
            # squared moduli summed over the float views' re/im pairs
            v = prod.view(float)
            sum_pow[p] += np.einsum("tlnk,tlnk->ln", v, v)
            sum_wsq[p] += wsq.sum(axis=0)

    mean_sig_sq = np.abs(sum_sig / trials) ** 2
    denom = sum_pow / trials - mean_sig_sq + noise_var * sum_wsq / trials
    sinr = mean_sig_sq / np.maximum(denom, _DENOM_FLOOR)
    if not np.all(np.isfinite(sinr)):
        bad = sorted({plans[p].allocator or str(p)
                      for p in np.nonzero(~np.isfinite(sinr))[0]})
        raise FloatingPointError(f"non-finite SINR for plans {bad}")
    return sinr
