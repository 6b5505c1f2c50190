"""Invariant checks, shared by the `check` subcommand and the acceptance suite.

The brute-force oracles (term-by-term kernel sums, explicit and direct
steering vectors, scatter-only syntheses) are written once here. Each
invariant is a function that returns one measured deviation, the `np.max` of
what it collects, so a NaN anywhere makes the deviation NaN. The shared
invariants take their generator or config and size; `mimopilots check` and
the acceptance criteria call them, each with its own seed, size and tolerance.
`INVARIANTS` lists the `check` suite as (name, deviation, bound) rows, and
`run_all` is the one place a deviation meets its bound: `dev < bound`, which
a NaN fails.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelSampler, crandn, steering_vector
from .detection import CopilotGroups, gram_inverses, spectral_efficiency, zf_combiner
from .estimation import estimated_los_channel, ls_estimate, synthesize_rx
from .los_metric import dirichlet_kernel_sq, los_interference
from .model import Drop, NetworkConfig, sample_users
from .pilots import AllocationPlan, build_pilot_book, pilot_matrix


def distinct_plan(cfg: NetworkConfig) -> AllocationPlan:
    """The plan giving user j pilot j mod pilot_len in every cell."""
    return AllocationPlan(np.tile(np.arange(cfg.N) % cfg.pilot_len, (cfg.L, 1)), "distinct")


def brute_kernel_sq(m: int, theta: float) -> float:
    """|sum_{i=0}^{m-1} exp(-1j*i*theta)|^2, summed term by term."""
    return float(abs(np.exp(-1j * theta * np.arange(m)).sum()) ** 2)


def los_vector(alpha: float, k: float, theta: float, m: int) -> np.ndarray:
    """An explicit LOS channel sqrt(alpha*K/(1+K)) * steering(theta)."""
    return np.sqrt(alpha * k / (1 + k)) * steering_vector(m, theta)


def explicit_pair_score(alpha_a, k_a, theta_a, alpha_b, k_b, theta_b, m: int) -> float:
    """Pair score of interferer a at reference b from explicit vectors: the
    LOS channels' |<g_b, g_a>|^2 / |g_b|^4, or with an NLOS link the bare
    steering overlap |<v_b, v_a>|^2 / m^2."""
    if k_a > 0 and k_b > 0:
        g_a, g_b = los_vector(alpha_a, k_a, theta_a, m), los_vector(alpha_b, k_b, theta_b, m)
        return abs(np.vdot(g_b, g_a)) ** 2 / abs(np.vdot(g_b, g_b)) ** 2
    v_a, v_b = steering_vector(m, theta_a), steering_vector(m, theta_b)
    return abs(np.vdot(v_b, v_a)) ** 2 / m ** 2


def steering_vs_direct(ms, rng: np.random.Generator, angles: int = 16) -> float:
    """Largest |steering_vector - its direct form, one exponential per entry|
    over every m in `ms`, each at `angles` random angles in [0, 2pi)."""
    devs = []
    for m in ms:
        theta = rng.uniform(0.0, 2 * np.pi, angles)
        direct = np.exp(1j * np.multiply.outer(np.arange(m), -np.pi * np.sin(theta)))
        devs.append(np.max(np.abs(steering_vector(m, theta) - direct)))
    return float(np.max(devs))


def kernel_vs_brute_force(rng: np.random.Generator, draws: int) -> float:
    """Worst relative deviation of `dirichlet_kernel_sq` from the brute-force
    sum over `draws` random m in 1..64 and theta in [-2pi, 2pi)."""
    devs = []
    for _ in range(draws):
        m = int(rng.integers(1, 65))
        theta = rng.uniform(-2 * np.pi, 2 * np.pi)
        brute = brute_kernel_sq(m, theta)
        devs.append(abs(dirichlet_kernel_sq(m, theta) - brute) / max(brute, 1e-30))
    return float(np.max(devs))


def kernel_zero_set_dev() -> float:
    """Largest kernel value over m^2 at theta = +-2*b*pi/m, 0 < b < m <= 16."""
    return float(np.max([dirichlet_kernel_sq(m, sign * 2 * b * np.pi / m) / (m * m)
                         for m in range(2, 17) for b in range(1, m) for sign in (1, -1)]))


def pair_scores_vs_explicit(drop: Drop, m: int) -> float:
    """Worst relative deviation of a drop's pair scores from
    `explicit_pair_score` on the same estimated parameters, each pair at its
    reference user's serving BS."""
    scores = los_interference(drop, m)
    est = (drop.est.alpha, drop.est.k, drop.est.aoa)      # [BS, user]
    n_users = scores.shape[0] // drop.est.alpha.shape[0]
    ref = np.empty(scores.shape)
    for a, b in np.ndindex(scores.shape):
        bs = b // n_users
        ref[a, b] = explicit_pair_score(*(x[bs, a] for x in est), *(x[bs, b] for x in est), m)
    return float(np.max(np.abs(scores - ref) / np.maximum(ref, 1e-30)))


def _noiseless_pilot_phase(cfg: NetworkConfig, rng: np.random.Generator, lam: np.ndarray):
    """A drop and one channel draw, in that stream order: (g - los, Y - los_est @ lam)."""
    drop = sample_users(cfg, rng)
    sampler = ChannelSampler(drop, cfg)
    g = sampler.draw(rng, 1).g[0]
    y = synthesize_rx(g, lam, np.zeros((cfg.L, cfg.M, cfg.pilot_len), dtype=complex))
    return g - sampler.los, y - estimated_los_channel(drop, cfg) @ lam


def los_subtraction_dev(cfg: NetworkConfig, rng: np.random.Generator, drops: int) -> float:
    """Largest |LOS-free residual - scatter @ Lambda| of the distinct plan
    over `drops` noiseless drops: zero when the LOS reconstruction is exact."""
    lam = pilot_matrix(distinct_plan(cfg), build_pilot_book(cfg.pilot_len))
    devs = []
    for _ in range(drops):
        scatter, resid = _noiseless_pilot_phase(cfg, rng, lam)
        devs.append(np.max(np.abs(resid - scatter @ lam)))
    return float(np.max(devs))


def ls_exactness_dev(cfg: NetworkConfig, rng: np.random.Generator) -> float:
    """Largest |LS estimate - scatter channel| of cell 0 at BS 0 in one
    noiseless drop of the distinct plan: zero for one cell, orthogonal pilots."""
    plan, book = distinct_plan(cfg), build_pilot_book(cfg.pilot_len)
    scatter, resid = _noiseless_pilot_phase(cfg, rng, pilot_matrix(plan, book))
    est = ls_estimate(resid, book)
    return float(np.max(np.abs(est[0][:, plan.cells[0]] - scatter[0][:, :cfg.N])))


def zf_solve(ghat: np.ndarray) -> np.ndarray:
    """X = pinv(Ghat^H Ghat) of one 2-D estimate through the path that
    `CopilotGroups.moments` takes: `zf_combiner` on its Gram matrix and the
    candidate inverse that `gram_inverses` gives a one-matrix stack."""
    gram = ghat.conj().T @ ghat
    _, (candidate,) = gram_inverses(gram[None])
    return zf_combiner(ghat, gram, candidate)


def pinv_moments(ghat: np.ndarray, g: np.ndarray, own: np.ndarray):
    """(w_n^H g_own[n], sum |w_n^H g|^2, ||w_n||^2), the moments that
    `CopilotGroups.moments` sums, of the explicit pseudo-inverse ZF combiner
    W of one 2-D estimate `ghat`, user n at flat channel column own[n]."""
    wh = np.linalg.pinv(ghat, rcond=1e-8)                 # W^H
    prod = wh @ g
    return (prod[np.arange(own.size), own], np.sum(np.abs(prod) ** 2, axis=1),
            np.sum(np.abs(wh) ** 2, axis=1))


def grouped_zf_dev(cfg: NetworkConfig, seed: int) -> float:
    """Worst relative deviation, over the cells of one noisy drop of the
    distinct plan, of the `CopilotGroups.moments` that `estimate_sinr` sums
    (solved on the distinct columns and expanded) from the `pinv_moments` of
    the full estimate; inf when no column merges, as then every group has
    one user."""
    rng = np.random.default_rng(seed)
    drop = sample_users(cfg, rng)
    plan, book = distinct_plan(cfg), build_pilot_book(cfg.pilot_len)
    lam = pilot_matrix(plan, book)
    noise = np.sqrt(1.0 / cfg.rho) * crandn(rng, (cfg.L, cfg.M, cfg.pilot_len))
    los = estimated_los_channel(drop, cfg)
    g = ChannelSampler(drop, cfg).draw(rng, 1).g[0]
    est = ls_estimate(synthesize_rx(g, lam, noise) - los @ lam, book)
    devs, merged = [], False
    for l in range(cfg.L):
        groups = CopilotGroups(los[l], l, plan.cells[l], cfg.pilot_len)
        merged |= groups.pilots_u.size < cfg.N
        ghat = los[l][:, groups.own] + est[l][:, plan.cells[l]]
        for got, ref in zip(groups.moments(est[l][None], g[l][None]),
                            pinv_moments(ghat, g[l], groups.own)):
            devs.append(np.linalg.norm(got - ref) / np.linalg.norm(ref))
    return float(np.max(devs)) if merged else np.inf


def _steering_vector_dev() -> float:
    """Unit modulus, unit first entry and squared norm m of 1000 random steering vectors."""
    rng = np.random.default_rng(7)
    devs = []
    for _ in range(1000):
        m = int(rng.integers(1, 128))
        v = steering_vector(m, rng.uniform(-np.pi, np.pi))
        devs += [np.max(np.abs(np.abs(v) - 1.0)), abs(v[0] - 1.0),
                 abs(np.vdot(v, v).real - m) / m]
    return float(np.max(devs))


def _pilot_book_dev() -> float:
    devs = []
    for n in (1, 2, 12, 16, 64):
        book = build_pilot_book(n)
        devs.append(np.max(np.abs(book @ book.conj().T - n * np.eye(n))))
    return float(np.max(devs))


def _drop_pair_scores_dev() -> float:
    # whole drops, NLOS links and location errors included
    devs = []
    for m, seed in ((1, 13), (8, 14), (33, 15), (64, 16)):
        cfg = NetworkConfig(L=2, N=6, M=m, pilot_len=6, k_model="distance",
                            los_model="linear_prob", loc_err_var=9.0)
        devs.append(pair_scores_vs_explicit(sample_users(cfg, np.random.default_rng(seed)), m))
    return float(np.max(devs))


def _los_subtraction_dev() -> float:
    cfg = NetworkConfig(L=2, N=6, M=16, pilot_len=6, loc_err_var=0.0)
    return los_subtraction_dev(cfg, np.random.default_rng(3), drops=1)


def _ls_exactness_dev() -> float:
    cfg = NetworkConfig(L=1, N=8, M=32, pilot_len=8)
    return ls_exactness_dev(cfg, np.random.default_rng(5))


def _zf_identity_dev() -> float:
    rng = np.random.default_rng(17)
    g = rng.standard_normal((24, 6)) + 1j * rng.standard_normal((24, 6))
    w = g @ zf_solve(g)
    return float(np.max(np.abs(w.conj().T @ g - np.eye(6))))


def _zf_min_norm_dev() -> float:
    # duplicated estimate columns (intra-cell pilot reuse) take the
    # pseudo-inverse path and split the gain evenly between the two users
    rng = np.random.default_rng(19)
    col = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    g = np.column_stack([col, col, rng.standard_normal(16)])
    expect = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    w = g @ zf_solve(g)
    return float(np.max(np.abs(w.conj().T @ g - expect)))


def _channel_power_dev() -> float:
    """Worst relative deviation of the mean |g|^2 over 2000 draws from alpha * M."""
    cfg = NetworkConfig(L=1, N=2, M=16, pilot_len=2, k_db=3.0)
    rng = np.random.default_rng(23)
    drop = sample_users(cfg, rng)
    power = np.mean(np.abs(ChannelSampler(drop, cfg).draw(rng, 2000).g[:, 0]) ** 2, axis=(0, 1))
    return float(np.max(np.abs(power / drop.true.alpha[0] - 1.0)))


def _se_prefactor_dev() -> float:
    return (abs(spectral_efficiency(1.0, 12, 196) - (1 - 12 / 196))
            + abs(spectral_efficiency(0.0, 12, 196)))


def _collision_dev() -> float:
    """|Lambda Lambda^H| against pilot_len on co-pilot pairs and 0 elsewhere."""
    cfg = NetworkConfig(L=1, N=36, M=4, pilot_len=12)
    plan = distinct_plan(cfg)
    lam = pilot_matrix(plan, build_pilot_book(cfg.pilot_len))
    same = plan.cells[0][:, None] == plan.cells[0][None, :]
    return float(np.max(np.abs(np.abs(lam @ lam.conj().T) - cfg.pilot_len * same)))


# (name, deviation, bound): the `check` suite, each entry at its own seed and size
INVARIANTS = (
    ("steering vector unit modulus / norm", _steering_vector_dev, 1e-12),
    ("steering vector vs direct exponential",
     lambda: steering_vs_direct(range(1, 513), np.random.default_rng(41)), 1e-12),
    ("pilot book orthogonality", _pilot_book_dev, 1e-10),
    ("closed-form array overlap vs brute force",
     lambda: kernel_vs_brute_force(np.random.default_rng(11), 500), 1e-9),
    ("closed-form array overlap zero set", kernel_zero_set_dev, 1e-18),
    ("drop pair scores vs explicit steering vectors", _drop_pair_scores_dev, 1e-9),
    ("LOS subtraction exact at zero location error", _los_subtraction_dev, 1e-9),
    ("LS estimate exact for orthogonal pilots", _ls_exactness_dev, 1e-9),
    ("ZF combiner nulls estimated interference", _zf_identity_dev, 1e-8),
    ("ZF min-norm split on duplicated columns", _zf_min_norm_dev, 1e-8),
    # co-pilot NLOS users share an estimate column
    ("grouped ZF on distinct columns = full pinv",
     lambda: grouped_zf_dev(NetworkConfig(L=2, N=12, M=64, pilot_len=4, k_model="distance",
                                          los_model="linear_prob", loc_err_var=9.0), 37),
     1e-12),
    ("channel second moment = alpha * M", _channel_power_dev, 0.05),
    ("spectral-efficiency prefactor", _se_prefactor_dev, 1e-12),
    ("pilot correlation collision structure", _collision_dev, 1e-9),
)


def run_all() -> int:
    """Run and print every invariant; returns the number of failures."""
    failures = 0
    for name, deviation, bound in INVARIANTS:
        dev = deviation()
        ok = dev < bound
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: deviation {dev:.2e}, bound {bound:.0e}")
    return failures
