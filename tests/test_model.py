"""Scenario configuration, sampling, and propagation-model tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mimopilots.model import (ConfigError, NetworkConfig, apply_localization_error,
                              bs_positions, error_half_width, group_users, k_factor,
                              los_probability, pathloss, sample_los_state,
                              sample_position_error, sample_users)


def small_cfg(**kw):
    base = dict(L=2, N=4, M=8, pilot_len=2, seed=0)
    base.update(kw)
    return NetworkConfig(**base)


class TestNetworkConfig:
    def test_defaults_are_valid(self):
        cfg = NetworkConfig()
        assert cfg.L == 2 and cfg.N == 36 and cfg.M == 100
        assert cfg.rho == pytest.approx(10.0)

    @pytest.mark.parametrize("bad", [
        dict(L=0), dict(N=0), dict(M=0),
        dict(pilot_len=0), dict(pilot_len=200, coherence_len=100),
        dict(min_dist=400.0), dict(min_dist=0.0),
        dict(pathloss_sign=2), dict(k_model="bogus"), dict(los_model="bogus"),
        dict(antenna_spacing=0.0), dict(loc_err_var=-1.0), dict(seed=-1),
        dict(pilot_len=100, coherence_len=100),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ConfigError):
            NetworkConfig(**bad)

    def test_json_round_trip(self):
        cfg = NetworkConfig(L=3, N=5, M=16, pilot_len=4, snr_db=7.5, k_db=3.0,
                            loc_err_var=2.0, seed=11)
        again = NetworkConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_db_suffix_keys(self):
        data = json.loads(NetworkConfig().to_json())
        assert "snr_db" in data and "k_db" in data
        assert "rho" not in data

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            NetworkConfig.from_json('{"snr": 10}')


class TestPathloss:
    def test_unity_at_cell_radius_for_either_sign(self):
        for sign in (-1, 1):
            cfg = small_cfg(pathloss_sign=sign)
            assert pathloss(cfg.cell_radius, cfg) == pytest.approx(1.0)

    def test_table_formula_literal(self):
        # d=100, radius=400, increasing form: (1/4)**3.76
        cfg = small_cfg(pathloss_sign=1)
        assert pathloss(100.0, cfg) == pytest.approx(0.25 ** 3.76, rel=1e-12)

    def test_default_sign_decays(self):
        cfg = small_cfg()
        assert pathloss(100.0, cfg) == pytest.approx(0.25 ** -3.76, rel=1e-12)
        assert pathloss(100.0, cfg) > pathloss(400.0, cfg)

    @given(st.floats(min_value=1.0, max_value=1200.0),
           st.floats(min_value=1.0, max_value=1200.0))
    def test_monotonicity(self, d1, d2):
        cfg = small_cfg()
        lo, hi = sorted((d1, d2))
        assert pathloss(lo, cfg) >= pathloss(hi, cfg)
        cfg_inc = small_cfg(pathloss_sign=1)
        assert pathloss(lo, cfg_inc) <= pathloss(hi, cfg_inc)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            pathloss(0.0, small_cfg())
        with pytest.raises(ValueError):
            pathloss(-5.0, small_cfg())


class TestKFactor:
    def test_fixed_zero_db_is_unity(self):
        cfg = small_cfg(k_model="fixed", k_db=0.0)
        assert k_factor(123.0, cfg) == pytest.approx(1.0)

    def test_distance_model_at_100m(self):
        cfg = small_cfg(k_model="distance")
        # 13 - 0.03*100 = 10 dB
        assert k_factor(100.0, cfg) == pytest.approx(10.0, rel=1e-12)

    def test_distance_model_root(self):
        cfg = small_cfg(k_model="distance")
        # 13 - 0.03*433.33 ~ 1e-4 dB, essentially unity
        assert k_factor(433.33, cfg) == pytest.approx(1.0, abs=1e-3)

    def test_distance_model_decreasing(self):
        cfg = small_cfg(k_model="distance")
        d = np.linspace(1.0, 1000.0, 50)
        k = k_factor(d, cfg)
        assert np.all(np.diff(k) < 0)


class TestLosState:
    def test_boundaries(self):
        cfg = small_cfg(los_model="linear_prob")
        assert los_probability(0.0, cfg) == pytest.approx(1.0)
        assert los_probability(cfg.cell_radius, cfg) == pytest.approx(0.0)
        assert los_probability(10 * cfg.cell_radius, cfg) == 0.0

    def test_always_mode_consumes_no_randomness(self):
        cfg = small_cfg(los_model="always")
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert sample_los_state(399.0, cfg, rng) is True
        assert rng.bit_generator.state == before

    def test_empirical_frequency(self):
        # d=100, radius=400 -> p = 0.75; binomial std at 1e5 draws ~ 0.0014
        cfg = small_cfg(los_model="linear_prob")
        rng = np.random.default_rng(123)
        hits = sum(sample_los_state(100.0, cfg, rng) for _ in range(100_000))
        assert hits / 100_000 == pytest.approx(0.75, abs=0.01)


class TestLocalizationError:
    def test_half_width_formula(self):
        # Var(U[-a,a]) = a^2/3 per axis; planar MSE 2a^2/3 = 15 -> a = sqrt(22.5)
        assert error_half_width(15.0) == pytest.approx(math.sqrt(22.5))
        assert error_half_width(0.0) == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(ConfigError):
            error_half_width(-1.0)

    def test_offset_mse_matches_variance(self):
        offs = sample_position_error(3.0, np.random.default_rng(7), n=1_000_000)
        mse = float(np.mean(np.sum(offs ** 2, axis=1)))
        assert mse == pytest.approx(3.0, abs=0.05)

    def test_zero_variance_is_identity(self):
        cfg = small_cfg()
        rng = np.random.default_rng(3)
        users = sample_users(cfg, rng)
        perturbed = apply_localization_error(users[0], cfg, rng, var=0.0)
        assert np.array_equal(perturbed.pos_est, users[0].pos)
        assert perturbed.d_est == users[0].d
        assert perturbed.theta_est == users[0].theta

    def test_estimates_rederived_from_estimated_distance(self):
        cfg = small_cfg()
        rng = np.random.default_rng(4)
        users = sample_users(cfg, rng)
        u = apply_localization_error(users[0], cfg, rng, var=25.0)
        assert np.allclose(u.alpha_est, pathloss(u.dist_est, cfg))
        assert np.allclose(u.k_est, np.where(u.los, k_factor(u.dist_est, cfg), 0.0))

    def test_distance_clamped_to_one_meter(self):
        # a user almost on top of the BS, perturbed hard, never estimates < 1 m
        from conftest import make_user
        cfg = NetworkConfig(L=1, N=1, M=4, pilot_len=1, min_dist=1.0,
                            cell_radius=400.0)
        base = make_user(cfg, cell=0, index=0, d=1.5, theta=0.3)
        rng = np.random.default_rng(5)
        dists = [apply_localization_error(base, cfg, rng, var=50.0).dist_est[0]
                 for _ in range(500)]
        assert min(dists) == 1.0  # the clamp engaged at least once
        assert all(d >= 1.0 for d in dists)


class TestSampleUsers:
    def test_counts_and_shapes(self):
        cfg = NetworkConfig(L=2, N=36, M=4, pilot_len=12, seed=1)
        users = sample_users(cfg, np.random.default_rng(1))
        assert len(users) == 72
        assert all(u.alpha.shape == (2,) for u in users)
        assert all(cfg.min_dist <= u.d <= cfg.cell_radius for u in users)
        assert all(0.0 <= u.theta < 2 * np.pi for u in users)

    def test_degenerate_distance_interval(self):
        eps = 1e-6
        cfg = small_cfg(min_dist=400.0 - eps, cell_radius=400.0)
        users = sample_users(cfg, np.random.default_rng(2))
        assert all(400.0 - eps <= u.d <= 400.0 for u in users)

    def test_deterministic_given_seed(self):
        cfg = small_cfg(loc_err_var=4.0, los_model="linear_prob",
                        k_model="distance")
        a = sample_users(cfg, np.random.default_rng(42))
        b = sample_users(cfg, np.random.default_rng(42))
        for ua, ub in zip(a, b):
            assert np.array_equal(ua.pos, ub.pos)
            assert np.array_equal(ua.pos_est, ub.pos_est)
            assert np.array_equal(ua.los, ub.los)

    def test_geometry_consistency(self):
        cfg = small_cfg(loc_err_var=9.0)
        users = sample_users(cfg, np.random.default_rng(8))
        bs = bs_positions(cfg)
        for u in users:
            for l in range(cfg.L):
                rel = u.pos - bs[l]
                assert u.dist[l] == pytest.approx(np.hypot(*rel), rel=1e-9)
                assert math.sin(u.aoa[l]) == pytest.approx(
                    rel[1] / u.dist[l], abs=1e-9)

    def test_nlos_forces_zero_k(self):
        cfg = small_cfg(los_model="linear_prob", k_model="distance", N=16)
        users = sample_users(cfg, np.random.default_rng(9))
        saw_nlos = False
        for u in users:
            for l in range(cfg.L):
                if not u.los[l]:
                    saw_nlos = True
                    assert u.k[l] == 0.0 and u.k_est[l] == 0.0
                else:
                    assert u.k[l] > 0.0
        assert saw_nlos

    def test_group_users_validates_coverage(self):
        cfg = small_cfg()
        users = sample_users(cfg, np.random.default_rng(10))
        groups = group_users(users, cfg)
        assert groups[1][2].cell == 1 and groups[1][2].index == 2
        with pytest.raises(ValueError):
            group_users(users[:-1], cfg)
        with pytest.raises(ValueError):
            group_users(users + [users[0]], cfg)
