"""LOS-interference metric tests, checked against explicit array constructions."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import los_interference_at, make_drop
from mimopilots import harness, los_metric
from mimopilots.channel import steering_vector
from mimopilots.checks import (brute_kernel_sq, explicit_pair_score, kernel_zero_set_dev,
                               los_vector, pair_scores_vs_explicit)
from mimopilots.estimation import estimated_los_channel
from mimopilots.los_metric import (dirichlet_kernel_sq, los_interference,
                                   los_interference_from_params, mutual_aoa, pair_scores)
from mimopilots.model import NetworkConfig, sample_users


def gain_ratio(alpha_a, k_a, alpha_b, k_b):
    return (alpha_a * k_a * (1.0 + k_b)) / (alpha_b * k_b * (1.0 + k_a))


def overlap(m, theta_a, theta_b):
    return dirichlet_kernel_sq(m, mutual_aoa(theta_a, theta_b)) / (m * m)


class TestMutualAoa:
    def test_equal_angles(self):
        assert mutual_aoa(0.8, 0.8) == 0.0

    def test_sine_overlap_at_pi_complement(self):
        theta = 0.37
        assert mutual_aoa(theta, np.pi - theta) == pytest.approx(0.0, abs=1e-12)

    def test_boundary_aliases_to_alignment(self):
        # sines +1 and -1 give the 2*pi endpoint, which is total overlap
        mut = mutual_aoa(np.pi / 2, -np.pi / 2)
        assert mut == pytest.approx(2 * np.pi)
        m = 6
        assert dirichlet_kernel_sq(m, mut) == pytest.approx(m * m, rel=1e-9)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            mut = mutual_aoa(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
            assert -2 * np.pi <= mut <= 2 * np.pi


class TestDirichletKernel:
    def test_alignment_value(self):
        assert dirichlet_kernel_sq(5, 0.0) == 25.0

    def test_first_zero(self):
        m = 8
        assert dirichlet_kernel_sq(m, 2 * np.pi / m) < 1e-18 * m * m

    def test_known_zero_cross_checked(self):
        assert dirichlet_kernel_sq(4, np.pi) < 1e-25
        assert brute_kernel_sq(4, np.pi) < 1e-25

    def test_zero_set(self):
        assert kernel_zero_set_dev() < 1e-18

    @given(st.integers(min_value=1, max_value=64),
           st.floats(min_value=-2 * np.pi, max_value=2 * np.pi))
    @settings(max_examples=300)
    def test_matches_brute_force(self, m, theta):
        closed = dirichlet_kernel_sq(m, theta)
        brute = brute_kernel_sq(m, theta)
        assert closed == pytest.approx(brute, rel=1e-9, abs=1e-18)

    def test_taylor_guard_region(self):
        for m in (2, 17, 64):
            for t in (1e-12, 1e-9, 1e-7, -1e-7, 2 * np.pi - 1e-8):
                assert dirichlet_kernel_sq(m, t) == pytest.approx(
                    brute_kernel_sq(m, t), rel=1e-9)

    def test_array_input_matches_scalar_calls(self):
        thetas = np.random.default_rng(4).uniform(-2 * np.pi, 2 * np.pi, size=(3, 50))
        thetas[0, :5] = [0.0, 1e-9, 2 * np.pi, -np.pi, np.pi]
        for m in (1, 7, 64):
            out = dirichlet_kernel_sq(m, thetas)
            assert out.shape == thetas.shape
            assert all(out[idx] == dirichlet_kernel_sq(m, float(thetas[idx]))
                       for idx in np.ndindex(thetas.shape))

    def test_even_in_angle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = int(rng.integers(1, 64))
            t = rng.uniform(-2 * np.pi, 2 * np.pi)
            assert dirichlet_kernel_sq(m, t) == pytest.approx(
                dirichlet_kernel_sq(m, -t), rel=1e-12)


class TestLosInterference:
    def test_self_pair_is_exactly_one(self):
        assert los_interference_from_params(1.7, 3.0, 0.9, 1.7, 3.0, 0.9, m=16) == 1.0

    def test_zero_at_kernel_zero_with_equal_params(self):
        m = 8
        # sines differing by 2/m put the mutual angle on the first kernel zero
        theta_a = np.arcsin(0.25 + 2.0 / m)
        theta_b = np.arcsin(0.25)
        assert los_interference_from_params(0.5, 2.0, theta_a, 0.5, 2.0, theta_b,
                                            m=m) < 1e-15

    def test_hand_worked_example(self):
        # ratio (0.1*1*2)/(0.4*1*2) = 0.25; overlap sin^2(pi/2)/sin^2(pi/4)/4 = 0.5
        theta_b = 0.0
        theta_a = np.arcsin(0.5)  # mutual = pi/2
        assert gain_ratio(0.1, 1.0, 0.4, 1.0) == pytest.approx(0.25, rel=1e-12)
        assert overlap(2, theta_a, theta_b) == pytest.approx(0.5, rel=1e-12)
        score = los_interference_from_params(0.1, 1.0, theta_a, 0.4, 1.0, theta_b, m=2)
        assert score == pytest.approx(0.125, rel=1e-12)

    def test_matches_explicit_vector_ratio(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            m = int(rng.integers(1, 65))
            aa, ab = rng.uniform(0.05, 5.0, size=2)
            ka, kb = rng.uniform(0.1, 20.0, size=2)
            ta, tb = rng.uniform(0, 2 * np.pi, size=2)
            score = los_interference_from_params(aa, ka, ta, ab, kb, tb, m)
            ref = explicit_pair_score(aa, ka, ta, ab, kb, tb, m)
            assert score == pytest.approx(ref, rel=1e-9, abs=1e-25)

    def test_broadcast_matches_scalar_calls(self):
        rng = np.random.default_rng(5)
        alpha, k, theta = (rng.uniform(lo, hi, size=(6, 1)) for lo, hi in
                           ((0.05, 5.0), (0.0, 20.0), (0.0, 2 * np.pi)))
        k[2] = 0.0
        scores = los_interference_from_params(alpha, k, theta, alpha.T, k.T, theta.T, 16)
        assert scores.shape == (6, 6)
        for a, b in np.ndindex(6, 6):
            assert scores[a, b] == los_interference_from_params(
                alpha[a, 0], k[a, 0], theta[a, 0], alpha[b, 0], k[b, 0], theta[b, 0], 16)

    def test_reference_norm_identity(self):
        # |g|^2 = m * alpha * K / (1 + K) for the constructed LOS vector
        for m in (1, 7, 32):
            g = los_vector(0.7, 4.0, 1.1, m)
            assert np.vdot(g, g).real == pytest.approx(
                m * 0.7 * 4.0 / 5.0, rel=1e-12)

    def test_k_zero_falls_back_to_overlap(self):
        expect = overlap(4, 1.0, 0.2)
        assert los_interference_from_params(0.3, 0.0, 1.0, 0.8, 2.0, 0.2, m=4) == expect
        assert los_interference_from_params(0.3, 2.0, 1.0, 0.8, 0.0, 0.2, m=4) == expect

    def test_zero_reference_gain_rejected(self):
        with pytest.raises(ValueError):
            los_interference_from_params(0.3, 1.0, 1.0, 0.0, 2.0, 0.2, m=4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("arg", range(6),
                             ids=["alpha_a", "k_a", "theta_a", "alpha_b", "k_b", "theta_b"])
    def test_non_finite_parameter_rejected(self, arg, bad):
        params = [1.0, 1.0, 0.1, 1.0, 1.0, 0.2]
        params[arg] = bad
        with pytest.raises(ValueError):
            los_interference_from_params(*params, m=4)
        # one bad entry inside an array is enough
        params = [np.full(3, p) for p in (1.0, 1.0, 0.1, 1.0, 1.0, 0.2)]
        params[arg][1] = bad
        with pytest.raises(ValueError):
            los_interference_from_params(*params, m=4)

    def test_overlap_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(1, 64))
            a = rng.uniform(0.1, 2.0)
            ta, tb = rng.uniform(0, 2 * np.pi, size=2)
            # equal gains and K: the score is the overlap alone
            r1 = los_interference_from_params(a, 1.0, ta, a, 1.0, tb, m)
            r2 = los_interference_from_params(a, 1.0, tb, a, 1.0, ta, m)
            assert r1 == overlap(m, ta, tb)
            assert r1 == pytest.approx(r2, rel=1e-12)

    def test_decay_envelope(self):
        # off the alignment set, overlap <= 1/(m^2 sin^2(theta/2)) -> 0
        for mut in (0.5, 1.0, 2.5):
            theta_a = np.arcsin(mut / np.pi)
            for m in (4, 16, 64, 256):
                score = los_interference_from_params(1.0, 1.0, theta_a, 1.0, 1.0, 0.0, m)
                bound = 1.0 / (m ** 2 * np.sin(mutual_aoa(theta_a, 0.0) / 2) ** 2)
                assert score <= bound * (1 + 1e-12)
            assert score < 1e-3

    def test_record_based_wrapper_uses_estimates(self):
        cfg = NetworkConfig(L=1, N=2, M=8, pilot_len=2)
        drop = make_drop(cfg, [(200.0, 0.4, 150.0, 0.5), (300.0, 1.4, 320.0, 1.3)])
        scores = los_interference(drop, m=cfg.M)
        a, k, t = drop.est.alpha[0], drop.est.k[0], drop.est.aoa[0]
        for i, j in np.ndindex(2, 2):
            assert scores[i, j] == los_interference_from_params(
                a[i], k[i], t[i], a[j], k[j], t[j], cfg.M)

    def test_drop_matrix_vs_explicit_vectors(self):
        # two cells, every pair at the reference's serving BS: LOS pairs by
        # the normalized overlap of the weighted LOS vectors, NLOS pairs by
        # the bare steering overlap, and the equal-angle pair (users 0, 2) by
        # the gain ratio
        cfg = NetworkConfig(L=2, N=3, M=12, pilot_len=3)
        los = np.ones((2, 6), dtype=bool)
        los[:, 1] = False          # one user NLOS everywhere
        los[0, 5] = False          # one cross link NLOS
        drop = make_drop(cfg, [(150.0, 0.6, 160.0, 0.7), (220.0, 2.0), (330.0, 0.7)],
                         [(180.0, 3.5), (260.0, 1.2, 250.0, 1.25), (390.0, 5.0)],
                         los=los)
        assert pair_scores_vs_explicit(drop, cfg.M) < 1e-9
        scores = los_interference(drop, cfg.M)
        assert scores.shape == (6, 6)
        assert np.all(np.diag(scores) == 1.0)
        assert drop.est.aoa[0, 0] == drop.est.aoa[0, 2]
        assert scores[0, 2] == gain_ratio(drop.est.alpha[0, 0], drop.est.k[0, 0],
                                          drop.est.alpha[0, 2], drop.est.k[0, 2])
        # reference 4 is user 1 of cell 1, so the pair is seen at BS 1
        assert scores[1, 4] == overlap(cfg.M, drop.est.aoa[1, 1], drop.est.aoa[1, 4])
        # the NLOS cross link is read only when its user is an interferer at BS 0
        assert scores[5, 0] == overlap(cfg.M, drop.est.aoa[0, 5], drop.est.aoa[0, 0])

    @pytest.mark.parametrize("kw", [
        dict(L=2, N=12, M=64, pilot_len=4, k_model="distance",
             los_model="linear_prob", loc_err_var=9.0),
        dict(L=3, N=7, M=17, pilot_len=3, k_model="distance",
             los_model="linear_prob", loc_err_var=4.0),
        {},
    ], ids=["desk", "three_cells", "table"])
    def test_scores_are_overlaps_of_the_channels_array(self, kw):
        # the closed form must describe the array the channels are built on:
        # at the reference's serving BS, a LOS pair scores the overlap
        # |g_b^H g_a|^2 / |g_b|^4 of the BS-side LOS channels, any other pair
        # the overlap |v_b^H v_a|^2 / M^2 of the bare steering vectors
        cfg = NetworkConfig(**kw)
        serving = np.repeat(np.arange(cfg.L), cfg.N)    # BS of each reference b
        users = np.arange(cfg.L * cfg.N)
        for seed in range(5):
            drop = sample_users(cfg, np.random.default_rng(seed))
            g = estimated_los_channel(drop, cfg)
            v = steering_vector(cfg.M, drop.est.aoa)
            # [BS, b, a] Gram matrices, read at each reference's serving BS as [a, b]
            g_gram = (np.abs(g.conj().transpose(0, 2, 1) @ g) ** 2)[serving, users].T
            v_gram = (np.abs(v.conj().transpose(0, 2, 1) @ v) ** 2)[serving, users].T
            g_norm_sq = np.sum(np.abs(g) ** 2, axis=1)[serving, users]
            both_los = (drop.est.k[serving, users] > 0) & (drop.est.k[serving].T > 0)
            los_ref = np.divide(g_gram, g_norm_sq ** 2, out=np.zeros(g_gram.shape),
                                where=both_los)
            ref = np.where(both_los, los_ref, v_gram / cfg.M ** 2)
            scores = los_interference(drop, cfg.M)
            assert np.max(np.abs(scores - ref) / np.maximum(ref, 1e-30)) < 1e-9

    def test_columns_match_per_bs_oracle_at_serving_bs(self):
        cfg = NetworkConfig(L=3, N=8, M=32, pilot_len=4, k_model="distance",
                            los_model="linear_prob", loc_err_var=25.0)
        drop = sample_users(cfg, np.random.default_rng(9))
        # NLOS links and location error are both present
        assert np.any(drop.est.k == 0) and not np.array_equal(drop.est.aoa, drop.true.aoa)
        scores = los_interference(drop, cfg.M)
        serving = np.repeat(np.arange(cfg.L), cfg.N)
        for b in range(cfg.L * cfg.N):
            assert np.array_equal(scores[:, b],
                                  los_interference_at(drop, serving[b], cfg.M)[:, b])


class TestPairScores:
    """One `los_interference` call per drop and antenna count."""

    @staticmethod
    def count_calls(monkeypatch) -> list:
        calls = []
        score = los_metric.los_interference

        def counted(drop, m):
            calls.append(m)
            return score(drop, m)

        monkeypatch.setattr(los_metric, "los_interference", counted)
        return calls

    def test_one_scoring_per_drop(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        cfg = NetworkConfig()
        harness._drop_plans(cfg, ("loc_aware", "greedy"), 5, 0)
        assert calls == [cfg.M]

    def test_each_antenna_count_scored_once(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        cfg = NetworkConfig(L=2, N=6, M=16, pilot_len=3)
        drop = sample_users(cfg, np.random.default_rng(41))
        small, large = pair_scores(drop, 8), pair_scores(drop, 16)
        assert not np.array_equal(small, large)
        assert pair_scores(drop, 8) is small and pair_scores(drop, 16) is large
        assert calls == [8, 16]
        assert np.array_equal(large, los_interference(drop, 16))
        with pytest.raises(ValueError):
            large[0, 0] = 0.0       # shared by every allocator of the drop

    def test_drops_never_share_a_memo(self):
        cfg = NetworkConfig(L=2, N=6, M=16, pilot_len=3)
        first, second = (sample_users(cfg, np.random.default_rng(42)) for _ in range(2))
        copy = replace(first)
        pair_scores(first, cfg.M)
        assert cfg.M in first.score_memo
        assert not second.score_memo and not copy.score_memo
        assert np.array_equal(pair_scores(second, cfg.M), pair_scores(first, cfg.M))
        assert pair_scores(second, cfg.M) is not pair_scores(first, cfg.M)


class TestAsymptoticLimit:
    """Large-array behavior of the drop score matrix."""

    @staticmethod
    def pair(theta_b):
        cfg = NetworkConfig(L=1, N=2, M=8, pilot_len=2)
        drop = make_drop(cfg, [(150.0, 0.9), (350.0, theta_b)])
        ratio = gain_ratio(drop.est.alpha[0, 0], drop.est.k[0, 0],
                           drop.est.alpha[0, 1], drop.est.k[0, 1])
        return drop, ratio

    def test_equal_angles_keep_gain_ratio(self):
        drop, ratio = self.pair(0.9)
        for m in (8, 64, 512, 4096):
            assert los_interference(drop, m)[0, 1] == ratio

    def test_distinct_angles_vanish(self):
        drop, ratio = self.pair(1.0)
        scores = [los_interference(drop, m)[0, 1] for m in (64, 512, 4096)]
        # envelope ratio / (m^2 sin^2(mutual/2)) ~ 7e-6 * ratio at m = 4096
        assert scores[-1] < 1e-5 * ratio

    def test_self_pair(self):
        drop, _ = self.pair(1.0)
        for m in (8, 4096):
            assert np.all(np.diag(los_interference(drop, m)) == 1.0)
