"""Invariant checks, shared by the `check` subcommand and the acceptance suite.

The brute-force oracles (term-by-term kernel sums, explicit steering
vectors, scatter-only syntheses) are written once here. Each shared
invariant is a function of its generator or config and its size that
returns the measured deviation; `mimopilots check` and the acceptance
criteria call it, each with its own seed, size and tolerance. Each
`check_*` returns (name, ok, detail).
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelSampler, crandn, steering_vector
from .detection import CopilotGroups, spectral_efficiency, zf_combiner
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


def kernel_vs_brute_force(rng: np.random.Generator, draws: int) -> float:
    """Worst relative deviation of `dirichlet_kernel_sq` from the brute-force
    sum over `draws` random m in 1..64 and theta in [-2pi, 2pi)."""
    worst = 0.0
    for _ in range(draws):
        m = int(rng.integers(1, 65))
        theta = rng.uniform(-2 * np.pi, 2 * np.pi)
        brute = brute_kernel_sq(m, theta)
        worst = max(worst, abs(dirichlet_kernel_sq(m, theta) - brute) / max(brute, 1e-30))
    return worst


def kernel_zero_set_dev() -> float:
    """Largest kernel value over m^2 at theta = +-2*b*pi/m, 0 < b < m <= 16."""
    return max(dirichlet_kernel_sq(m, sign * 2 * b * np.pi / m) / (m * m)
               for m in range(2, 17) for b in range(1, m) for sign in (1, -1))


def pair_scores_vs_explicit(drop: Drop, m: int) -> float:
    """Worst relative deviation of a drop's pair scores at every BS from
    `explicit_pair_score` on the same estimated parameters."""
    worst = 0.0
    for bs in range(drop.alpha.shape[2]):
        scores = los_interference(drop, bs, m)
        alpha, k, theta = (x[:, :, bs].ravel()
                           for x in (drop.alpha_est, drop.k_est, drop.aoa_est))
        for a, b in np.ndindex(scores.shape):
            ref = explicit_pair_score(alpha[a], k[a], theta[a], alpha[b], k[b], theta[b], m)
            worst = max(worst, abs(scores[a, b] - ref) / max(ref, 1e-30))
    return worst


def _noiseless_pilot_phase(cfg: NetworkConfig, rng: np.random.Generator, lam: np.ndarray):
    """A drop and one channel draw, in that stream order: (channels, Y - los @ lam)."""
    drop = sample_users(cfg, rng)
    cs = ChannelSampler(drop, cfg).draw(rng)
    y = synthesize_rx(cs.g, lam, np.zeros((cfg.L, cfg.M, cfg.pilot_len), dtype=complex))
    return cs, y - estimated_los_channel(drop, cfg) @ lam


def los_subtraction_dev(cfg: NetworkConfig, rng: np.random.Generator, drops: int) -> float:
    """Largest |LOS-free residual - scatter @ Lambda| of the distinct plan
    over `drops` noiseless drops: zero when the LOS reconstruction is exact."""
    lam = pilot_matrix(distinct_plan(cfg), build_pilot_book(cfg.pilot_len))
    worst = 0.0
    for _ in range(drops):
        cs, resid = _noiseless_pilot_phase(cfg, rng, lam)
        worst = max(worst, float(np.max(np.abs(resid - cs.nlos_effective() @ lam))))
    return worst


def ls_exactness_dev(cfg: NetworkConfig, rng: np.random.Generator) -> float:
    """Largest |LS estimate - scatter channel| of cell 0 at BS 0 in one
    noiseless drop of the distinct plan: zero for one cell, orthogonal pilots."""
    plan, book = distinct_plan(cfg), build_pilot_book(cfg.pilot_len)
    cs, resid = _noiseless_pilot_phase(cfg, rng, pilot_matrix(plan, book))
    est = ls_estimate(resid, book)
    return float(np.max(np.abs(est[0][:, plan.cells[0]] - cs.nlos_effective()[0][:, :cfg.N])))


def check_steering_vector() -> tuple[str, bool, str]:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 128))
        theta = rng.uniform(-np.pi, np.pi)
        v = steering_vector(m, theta)
        worst = max(worst,
                    float(np.max(np.abs(np.abs(v) - 1.0))),
                    abs(v[0] - 1.0),
                    abs(np.vdot(v, v).real - m) / m)
    return "steering vector unit modulus / norm", worst < 1e-12, f"worst dev {worst:.2e}"


def check_pilot_book() -> tuple[str, bool, str]:
    worst = 0.0
    for n in (1, 2, 12, 16, 64):
        book = build_pilot_book(n)
        gram = book @ book.conj().T - n * np.eye(n)
        worst = max(worst, float(np.max(np.abs(gram))))
    return "pilot book orthogonality", worst < 1e-10, f"worst gram dev {worst:.2e}"


def check_dirichlet_kernel() -> tuple[str, bool, str]:
    worst = kernel_vs_brute_force(np.random.default_rng(11), 500)
    ok = worst < 1e-9 and kernel_zero_set_dev() < 1e-18
    return "closed-form array overlap vs brute force", ok, f"worst rel dev {worst:.2e}"


def check_los_interference_oracle() -> tuple[str, bool, str]:
    # whole drops, NLOS links and location errors included
    worst = 0.0
    for m, seed in ((1, 13), (8, 14), (33, 15), (64, 16)):
        cfg = NetworkConfig(L=2, N=6, M=m, pilot_len=6, k_model="distance",
                            los_model="linear_prob", loc_err_var=9.0, seed=seed)
        drop = sample_users(cfg, np.random.default_rng(seed))
        worst = max(worst, pair_scores_vs_explicit(drop, m))
    return "drop pair scores vs explicit steering vectors", worst < 1e-9, \
        f"worst rel dev {worst:.2e}"


def check_los_subtraction() -> tuple[str, bool, str]:
    cfg = NetworkConfig(L=2, N=6, M=16, pilot_len=6, loc_err_var=0.0, seed=3)
    worst = los_subtraction_dev(cfg, np.random.default_rng(cfg.seed), drops=1)
    return "LOS subtraction exact at zero location error", worst < 1e-9, f"max dev {worst:.2e}"


def check_ls_exactness() -> tuple[str, bool, str]:
    cfg = NetworkConfig(L=1, N=8, M=32, pilot_len=8, seed=5)
    dev = ls_exactness_dev(cfg, np.random.default_rng(cfg.seed))
    return "LS estimate exact for orthogonal pilots", dev < 1e-9, f"max dev {dev:.2e}"


def check_zf_identity() -> tuple[str, bool, str]:
    rng = np.random.default_rng(17)
    g = rng.standard_normal((24, 6)) + 1j * rng.standard_normal((24, 6))
    w = zf_combiner(g)
    dev = float(np.max(np.abs(w.conj().T @ g - np.eye(6))))
    return "ZF combiner nulls estimated interference", dev < 1e-8, f"max dev {dev:.2e}"


def check_zf_min_norm() -> tuple[str, bool, str]:
    # duplicated estimate columns (intra-cell pilot reuse) take the
    # pseudo-inverse path and split the gain evenly between the two users
    rng = np.random.default_rng(19)
    col = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    g = np.column_stack([col, col, rng.standard_normal(16)])
    w = zf_combiner(g)
    expect = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    dev = float(np.max(np.abs(w.conj().T @ g - expect)))
    return "ZF min-norm split on duplicated columns", dev < 1e-8, f"max dev {dev:.2e}"


def check_grouped_zf() -> tuple[str, bool, str]:
    # co-pilot NLOS users share an estimate column; the combiner solved on
    # the distinct columns and expanded, as estimate_sinr builds it, must be
    # the pseudo-inverse combiner of the full estimate
    cfg = NetworkConfig(L=2, N=12, M=64, pilot_len=4, k_model="distance",
                        los_model="linear_prob", loc_err_var=9.0, seed=37)
    rng = np.random.default_rng(cfg.seed)
    drop = sample_users(cfg, rng)
    plan, book = distinct_plan(cfg), build_pilot_book(cfg.pilot_len)
    lam = pilot_matrix(plan, book)
    noise = np.sqrt(1.0 / cfg.rho) * crandn(rng, (cfg.L, cfg.M, cfg.pilot_len))
    los = estimated_los_channel(drop, cfg)
    est = ls_estimate(synthesize_rx(ChannelSampler(drop, cfg).draw(rng).g, lam, noise)
                      - los @ lam, book)
    worst, merged = 0.0, 0
    for l in range(cfg.L):
        own = los[l][:, l * cfg.N:(l + 1) * cfg.N]
        groups = CopilotGroups(own, plan.cells[l], cfg.pilot_len)
        if groups.inv is not None:
            merged += cfg.N - groups.los_u.shape[1]
        w = groups.combiner(est[l])
        ref = np.linalg.pinv(own + est[l][:, plan.cells[l]]).conj().T
        worst = max(worst, float(np.linalg.norm(w - ref) / np.linalg.norm(ref)))
    ok = merged > 0 and worst < 1e-12
    return "grouped ZF on distinct columns = full pinv", ok, \
        f"{merged} columns merged, worst rel dev {worst:.2e}"


def check_channel_power() -> tuple[str, bool, str]:
    cfg = NetworkConfig(L=1, N=2, M=16, pilot_len=2, k_db=3.0, seed=23)
    rng = np.random.default_rng(cfg.seed)
    drop = sample_users(cfg, rng)
    sampler = ChannelSampler(drop, cfg)
    acc = np.zeros(cfg.N)
    trials = 2000
    for _ in range(trials):
        cs = sampler.draw(rng)
        acc += np.sum(np.abs(cs.g[0]) ** 2, axis=0)
    rel = np.abs(acc / trials / cfg.M / drop.alpha[0, :, 0] - 1.0)
    worst = float(rel.max())
    return "channel second moment = alpha * M", worst < 0.05, f"worst rel dev {worst:.2e}"


def check_detection_identity() -> tuple[str, bool, str]:
    # the four received-signal terms must reassemble w^H y exactly
    rng = np.random.default_rng(29)
    cfg = NetworkConfig(L=2, N=4, M=12, pilot_len=4, seed=29)
    drop = sample_users(cfg, rng)
    cs = ChannelSampler(drop, cfg).draw(rng)
    l, N = 0, cfg.N
    g = cs.g[l]                                  # (M, L*N), user i*N + j
    w = zf_combiner(estimated_los_channel(drop, cfg)[l][:, l * N:(l + 1) * N])
    x = (rng.standard_normal((cfg.L, cfg.N)) + 1j * rng.standard_normal((cfg.L, cfg.N)))
    noise = (rng.standard_normal(cfg.M) + 1j * rng.standard_normal(cfg.M))
    y = g @ x.ravel() + noise / np.sqrt(cfg.rho)
    worst = 0.0
    for k in range(cfg.N):
        wk = w[:, k]
        mean_gain = np.vdot(wk, g[:, l * N + k])  # stands in for the fading mean
        t1 = mean_gain * x[l, k]
        t2 = (np.vdot(wk, g[:, l * N + k]) - mean_gain) * x[l, k]
        t3 = sum(np.vdot(wk, g[:, i * N + j]) * x[i, j]
                 for i in range(cfg.L) for j in range(cfg.N) if (i, j) != (l, k))
        t4 = np.vdot(wk, noise) / np.sqrt(cfg.rho)
        worst = max(worst, abs(np.vdot(wk, y) - (t1 + t2 + t3 + t4)))
    return "received-signal decomposition is exact", worst < 1e-9, f"max dev {worst:.2e}"


def check_se_formula() -> tuple[str, bool, str]:
    se = spectral_efficiency(1.0, 12, 196)
    ok = abs(se - (1 - 12 / 196)) < 1e-12 and spectral_efficiency(0.0, 12, 196) == 0.0
    return "spectral-efficiency prefactor", ok, f"SE(1)={se:.6f}"


def check_correlation_structure() -> tuple[str, bool, str]:
    cfg = NetworkConfig(L=1, N=36, M=4, pilot_len=12, seed=31)
    lam = pilot_matrix(distinct_plan(cfg), build_pilot_book(cfg.pilot_len))
    r = lam @ lam.conj().T
    hits = np.isclose(np.abs(r), cfg.pilot_len, atol=1e-9).sum(axis=1)
    zeros = np.isclose(np.abs(r), 0.0, atol=1e-9).sum(axis=1)
    ok = bool(np.all(hits == 3) and np.all(zeros == cfg.N - 3))
    return "pilot correlation collision structure", ok, \
        f"hits per row {sorted(set(hits.tolist()))}"


ALL_CHECKS = (
    check_steering_vector,
    check_pilot_book,
    check_dirichlet_kernel,
    check_los_interference_oracle,
    check_los_subtraction,
    check_ls_exactness,
    check_zf_identity,
    check_zf_min_norm,
    check_grouped_zf,
    check_channel_power,
    check_detection_identity,
    check_se_formula,
    check_correlation_structure,
)


def run_all() -> int:
    """Run and print every check; returns the number of failures."""
    failures = 0
    for fn in ALL_CHECKS:
        name, ok, detail = fn()
        if not ok:
            failures += 1
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return failures
