"""Zero-forcing detection, Monte-Carlo SINR estimation, and spectral efficiency.

The detector at each BS combines with the zero-forcing combiner of its
channel estimate (reconstructed LOS plus least-squares scatter estimate).
Users of a cell who share a pilot and whose links the BS takes for NLOS get
identical estimate columns; each cell is solved on its distinct columns,
which maps in closed form to the minimum-norm combiner of the full estimate.
Each solve returns X = pinv(Ghat^H Ghat), from the Gram inverse when a
condition bound certifies it and the pseudo-inverse otherwise. W = Ghat @ X
is never built: the SINR needs only each user's trial sums of its own w^H g,
sum |w^H g|^2 and ||w||^2, from W^H G = X Ghat^H G and ||w_n||^2 = X_nn.
SINRs are conditional on user locations: expectations over small-scale
fading are sample means over fresh channel realizations, with the combiner
rebuilt from estimates every realization and the true channels used as
ground truth.

Users are indexed cell-major, cell * N + user: channels and reconstructed
LOS channels are (L, M, L*N) arrays [BS, antenna, user] and a plan's
pilots one (L*N, pilot_len) matrix. Trials run in chunks: a chunk's
channels and noise are each one draw with a leading trial axis, so a plan's
pilot phase, LOS subtraction and LS estimate over every trial and BS of the
chunk are one array expression each, and its moments one per BS: one
conjugate copy of the chunk's estimates at a BS gives both batched products,
the Gram matrices Ghat^H Ghat of all its trials and Ghat^H G. The ZF solve,
handed its trial's Gram matrix, is the one step left per trial and BS. The
chunk holds as many trials as fit a fixed byte budget for the channel
stack, so its size depends only on (L, M, N), never on the number of plans
or trials, and the working set stays small at any trial count.
"""

from __future__ import annotations

import math
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

    The squared norms of a Gram matrix far from unit scale (a very low or
    high SNR) can overflow or underflow a float; both factors are then
    taken on A / tr(A) and X * tr(A), which leaves the product unchanged.
    A score that still overflows is inf and certifies nothing.
    """
    a = float(np.vdot(gram, gram).real)
    x = float(np.vdot(gram_inv, gram_inv).real)
    if not (0.0 < a < math.inf and 0.0 < x < math.inf):
        # tr(A) > 0 bounds every |A_ij| <= sqrt(A_ii A_jj) for A != 0
        t = float(np.trace(gram).real)
        with np.errstate(over="ignore"):
            scaled, scaled_inv = gram / t, gram_inv * t
        a = float(np.vdot(scaled, scaled).real)
        x = float(np.vdot(scaled_inv, scaled_inv).real)
    return math.sqrt(a * x)


def zf_combiner(ghat: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """X = pinv(Ghat^H Ghat) of one 2-D (M, U) estimate, given its (U, U)
    Gram matrix `gram` = Ghat^H Ghat; the core of the zero-forcing combiner
    W = Ghat @ X on either path.

    Fast path: inv(gram), used only when `gram_condition` certifies
    cond2(Ghat) < 1e4. Otherwise (a singular Gram matrix, rank-deficient or
    ill-conditioned estimates) P @ P^H for the SVD pseudo-inverse P of Ghat
    with singular values below 1e-8 * sigma_max treated as zero, so
    duplicated columns resolve to the minimum-norm combiner. The Gram matrix
    is the caller's, so a stack of them can come from one batched product.
    The benchmark's tracer counts this function by name, once per solve
    (plan, trial, BS), and probes the rank of `ghat`.
    """
    if ghat.ndim != 2:
        raise ValueError("channel estimate must be a 2-D matrix")
    if gram.shape != (ghat.shape[1],) * 2:
        raise ValueError(f"Gram matrix of shape {gram.shape} does not match "
                         f"an estimate with {ghat.shape[1]} columns")
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

    The estimate is Ghat = los[:, own] + est[:, pilots], with `los` the
    reconstructed LOS channels (M, L*N) at the cell's BS, `own` the cell's
    flat user columns, `pilots` its users' pilot indices and `est` the LS
    estimate with one column per pilot. Users who share a pilot and whose
    LOS column is exactly zero (an NLOS link) get identical columns and form
    one group; every other user is a group of one. `inv` maps each user to
    its group, `root` is the root of each group's size, and the U <= N
    distinct columns are kept scaled by it: `los_u` and `pilots_u`.
    """

    def __init__(self, los: np.ndarray, cell: int, pilots: np.ndarray, pilot_len: int):
        users = np.arange(pilots.size)
        self.own = cell * pilots.size + users
        own_los = los[:, self.own]
        # NLOS users (zero LOS column) on one pilot share a key, others have
        # their own; groups run in key order, each kept at its first user
        key = np.where(own_los.any(axis=0), pilot_len + users, pilots)
        counts = np.bincount(key)
        occupied = counts > 0
        self.inv = (np.cumsum(occupied) - 1)[key]
        self.size = counts[occupied]
        first = np.full(counts.size, pilots.size)
        np.minimum.at(first, key, users)
        keep = first[occupied]
        self.root = np.sqrt(self.size)
        self.los_u = own_los[:, keep] * self.root         # (M, U)
        self.pilots_u = pilots[keep]

    def moments(self, est: np.ndarray, g: np.ndarray):
        """Trial sums of each user's SINR moments (w^H g_own, sum |w^H g|^2,
        ||w||^2), each of shape (N,), for the ZF combiner W of Ghat over a
        (t, M, pilot_len) estimate stack and (t, M, L*N) channels.

        The chunk's Gram matrices Ghat_u^H Ghat_u are one batched product, and
        one `zf_combiner` call per trial, handed its Gram matrix, gives X on
        the U distinct columns Ghat_u = Gu D^1/2; then B = X @ (Ghat_u^H g),
        another batched product, and ||w_u||^2 = X_uu. Ghat = Gu @ E for the
        0/1 group-to-user map E with E E^T = D, the group sizes, and
        F = D^-1/2 E has orthonormal rows, so pinv(Ghat)^H = W_u F whatever
        the rank of Gu: user n of group u has w_n^H g =
        B_u / sqrt(D_u) and ||w_n||^2 = X_uu / D_u. Squared moduli and X_uu
        are summed per group, and only these (U,) sums and the own-user
        entries of B are expanded to the N users.
        """
        ghat = self.los_u + est[..., self.pilots_u] * self.root
        gh = ghat.conj().swapaxes(-1, -2)                  # (t, U, M)
        x = np.array([zf_combiner(m, a) for m, a in zip(ghat, gh @ ghat)])
        prod = x @ (gh @ g)                                # (t, U, L*N)
        v = prod.view(float)                               # squared moduli from re/im pairs
        pow_u, wsq_u = np.einsum("tuk,tuk->u", v, v), np.einsum("tuu->u", x).real
        inv, size = self.inv, self.size[self.inv]
        return (prod[:, inv, self.own].sum(axis=0) / self.root[inv],
                pow_u[inv] / size, wsq_u[inv] / size)


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
    per pilot, and at each BS adds the `CopilotGroups.moments` of its cell,
    one `zf_combiner` call per trial and BS on the distinct estimate
    columns and their Gram matrix, everything else (the Gram matrices
    included) one array expression per chunk of trials
    (`_CHUNK_BYTES`). Channels come from `rng` and noise from a stream
    spawned from it, each one block per chunk that consumes its stream trial
    by trial, so neither the chunk size nor the other plans of the call
    change a plan's result. Sample means over trials estimate the
    useful-signal mean, all interference second moments and the combiner
    norm; the denominator is floored at 1e-12. A non-finite SINR raises
    FloatingPointError.
    """
    if trials < 2:
        raise ConfigError(f"need at least 2 trials, got {trials}")
    L, N, M, K = cfg.L, cfg.N, cfg.M, cfg.pilot_len
    book = build_pilot_book(K)
    sampler = ChannelSampler(drop, cfg)
    noise_var = 1.0 / cfg.rho

    # location-only pieces, constant across trials: the reconstructed LOS
    # channels (L, M, L*N), each plan's pilots (L*N, pilot_len) and their
    # LOS receive matrices (L, M, pilot_len)
    los = estimated_los_channel(drop, cfg)
    lams = [pilot_matrix(plan, book) for plan in plans]
    ybar = [los @ lam for lam in lams]
    groups = [[CopilotGroups(los[l], l, plan.cells[l], K) for l in range(L)] for plan in plans]

    chunk = max(1, min(trials, _CHUNK_BYTES // (16 * L * M * L * N)))
    noise_rng = rng.spawn(1)[0]
    # trial sums of the moments: own-user w^H g, |w^H g|^2 over all users, ||w||^2
    sums = np.zeros((3, len(plans), L, N), dtype=complex)
    for start in range(0, trials, chunk):
        t = min(chunk, trials - start)
        g = sampler.draw(rng, t).g
        z = crandn(noise_rng, (t, L, M, K))
        z *= np.sqrt(noise_var)
        for p in range(len(plans)):
            # one column per pilot at every trial and BS
            est = ls_estimate(synthesize_rx(g, lams[p], z) - ybar[p], book)
            for l in range(L):
                sums[:, p, l] += groups[p][l].moments(est[:, l], g[:, l])

    sum_sig, sum_pow, sum_wsq = sums[0], sums[1].real, sums[2].real
    mean_sig_sq = np.abs(sum_sig / trials) ** 2
    denom = sum_pow / trials - mean_sig_sq + noise_var * sum_wsq / trials
    sinr = mean_sig_sq / np.maximum(denom, _DENOM_FLOOR)
    if not np.all(np.isfinite(sinr)):
        bad = sorted({plans[p].allocator or str(p)
                      for p in np.nonzero(~np.isfinite(sinr))[0]})
        raise FloatingPointError(f"non-finite SINR for plans {bad}")
    return sinr
