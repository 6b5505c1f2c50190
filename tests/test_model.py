"""Scenario configuration, sampling, and propagation-model tests."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import all_nlos, sample_position_error, sample_users_per_user
from mimopilots.allocators import ALLOCATORS
from mimopilots.channel import ChannelSampler
from mimopilots.estimation import estimated_los_channel
from mimopilots.los_metric import los_interference, pair_scores
from mimopilots.model import (ConfigError, Drop, Links, NetworkConfig, bs_positions,
                              error_half_width, k_factor, los_probability, pathloss,
                              sample_users)

FIELDS = ("dist", "aoa", "alpha", "k")      # the arrays of one `Links` view


def link_arrays(drop: Drop) -> dict[str, np.ndarray]:
    """Every array of both views of `drop`, by name ("true.dist", ...)."""
    return {f"{view}.{name}": getattr(getattr(drop, view), name)
            for view in ("true", "est") for name in FIELDS}


def small_cfg(**kw):
    base = dict(L=2, N=4, M=8, pilot_len=2)
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
        dict(pathloss_exp=float("nan")), dict(pathloss_exp=float("inf")),
        dict(k_db=float("nan")), dict(k_db=float("-inf")),
        dict(loc_err_var=float("nan")), dict(loc_err_var=float("inf")),
        dict(antenna_spacing=float("nan")), dict(snr_db=float("nan")),
        dict(N=4.0), dict(M="8"), dict(L=True), dict(k_db="10"),
        dict(L=2, N=12, pathloss_exp=600.0),
        dict(k_model="distance", k_slope_db_per_m=-10.0),
        dict(snr_db=4000.0), dict(k_db=4000.0),
        dict(L=1, N=1, M=1, pilot_len=1, snr_db=-3083.0),
        dict(L=1, N=1, M=8, pilot_len=1, snr_db=-3075.0),
    ])
    def test_invalid_configs_rejected(self, bad):
        # pathloss_sign, seed and antenna_spacing are unknown keys: a negative
        # pathloss_exp gives the increasing law, the run seed is
        # ExperimentSpec.seed, and the array is a half-wavelength ULA
        with pytest.raises(ConfigError):
            NetworkConfig.from_dict(bad)

    def test_interference_sum_overflow_rejected(self):
        # every gain and K-factor is finite, but alpha*K*(1+K) at 100 m over
        # its value at 1500 m overflows, and so would the allocators' sums
        with pytest.raises(ConfigError, match="overflows the allocators' interference sums"):
            NetworkConfig(L=2, k_model="distance", k_intercept_db=100.0,
                          k_slope_db_per_m=-1.0, cell_radius=500.0, min_dist=100.0)

    def test_json_round_trip(self):
        cfg = NetworkConfig(L=3, N=5, M=16, pilot_len=4, snr_db=7.5, k_db=3.0,
                            loc_err_var=2.0)
        again = NetworkConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_db_suffix_keys(self):
        data = NetworkConfig().to_dict()
        assert "snr_db" in data and "k_db" in data
        assert "rho" not in data

    def test_unknown_key_rejected(self):
        for key, value in (("snr", 10), ("seed", 5), ("pathloss_sign", 1)):
            with pytest.raises(ConfigError, match=rf"unknown config keys: \['{key}'\]"):
                NetworkConfig.from_dict({key: value})


class TestPathloss:
    def test_unity_at_cell_radius_for_either_sign(self):
        for v in (3.76, -3.76):
            cfg = small_cfg(pathloss_exp=v)
            assert pathloss(cfg.cell_radius, cfg) == pytest.approx(1.0)

    def test_table_formula_literal(self):
        # d=100, radius=400, the paper's increasing form (d/R)**3.76 from a
        # negative exponent: (1/4)**3.76, bit for bit over a range of distances
        cfg = small_cfg(pathloss_exp=-3.76)
        assert pathloss(100.0, cfg) == pytest.approx(0.25 ** 3.76, rel=1e-12)
        d = np.linspace(1.0, 1200.0, 50)
        assert np.array_equal(pathloss(d, cfg), (d / cfg.cell_radius) ** 3.76)

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
        cfg_inc = small_cfg(pathloss_exp=-3.76)
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

    def test_negative_distance_rejected(self):
        for k_model in ("fixed", "distance"):
            with pytest.raises(ValueError, match="non-negative distance"):
                k_factor(-1.0, small_cfg(k_model=k_model))


class TestLosState:
    def test_boundaries(self):
        cfg = small_cfg(los_model="linear_prob")
        assert los_probability(0.0, cfg) == pytest.approx(1.0)
        assert los_probability(cfg.cell_radius, cfg) == pytest.approx(0.0)
        assert los_probability(10 * cfg.cell_radius, cfg) == 0.0

    def test_always_mode_is_certain(self):
        cfg = small_cfg(los_model="always")
        assert los_probability(10 * cfg.cell_radius, cfg) == 1.0
        d = np.array([0.0, cfg.cell_radius, 10 * cfg.cell_radius])
        assert np.array_equal(los_probability(d, cfg), np.ones(3))

    def test_always_mode_consumes_no_randomness(self):
        # four uniforms per user (distance, angle, two offsets), no LOS draws
        cfg = small_cfg(los_model="always")
        rng = np.random.default_rng(0)
        drop = sample_users(cfg, rng)
        ref = np.random.default_rng(0)
        ref.random(4 * cfg.L * cfg.N)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert (drop.true.k > 0).all()

    def test_empirical_frequency(self):
        # serving links are LOS with probability 1 - d/radius, d ~ U[100, 400]:
        # 0.375 overall (binomial std ~ 0.0024 at 4e4 users), 0.7125 near 115 m
        cfg = NetworkConfig(L=1, N=40_000, M=1, pilot_len=1, los_model="linear_prob")
        drop = sample_users(cfg, np.random.default_rng(123))
        los, d = drop.true.k[0] > 0, drop.true.dist[0]
        assert los.mean() == pytest.approx(0.375, abs=0.01)
        assert los[d < 130.0].mean() == pytest.approx(0.7125, abs=0.03)


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
        drop = sample_users(small_cfg(loc_err_var=0.0), np.random.default_rng(3))
        assert np.array_equal(drop.est.dist, drop.true.dist)
        assert np.array_equal(drop.est.aoa, drop.true.aoa)
        assert np.array_equal(drop.est.alpha, drop.true.alpha)

    def test_estimates_rederived_from_estimated_distance(self):
        cfg = small_cfg(loc_err_var=25.0, los_model="linear_prob", k_model="distance")
        drop = sample_users(cfg, np.random.default_rng(4))
        assert not np.allclose(drop.est.dist, drop.true.dist)
        assert np.allclose(drop.est.alpha, pathloss(drop.est.dist, cfg))
        assert np.allclose(drop.est.k,
                           np.where(drop.true.k > 0, k_factor(drop.est.dist, cfg), 0.0))

    def test_truth_does_not_depend_on_loc_err_var(self):
        # on the fig3c config one seed gives one truth at every error
        # variance; only the estimates move
        cfg = NetworkConfig(k_model="distance", los_model="linear_prob")
        drops = [sample_users(dataclasses.replace(cfg, loc_err_var=var),
                              np.random.default_rng(13)) for var in (0.0, 3.0, 15.0)]
        for a, b in ((drops[0], drops[1]), (drops[0], drops[2]), (drops[1], drops[2])):
            for name in FIELDS:
                assert np.array_equal(getattr(a.true, name), getattr(b.true, name)), name
                assert not np.array_equal(getattr(a.est, name), getattr(b.est, name)), name

    def test_distance_clamped_to_one_meter(self):
        # users almost on top of the BS, perturbed hard, never estimate < 1 m
        cfg = NetworkConfig(L=1, N=500, M=4, pilot_len=1, min_dist=1.0,
                            cell_radius=400.0)
        pos = np.tile([1.5, 0.0], (1, cfg.N, 1))
        offsets = sample_position_error(50.0, np.random.default_rng(5), n=cfg.N)
        drop = Drop.from_positions(cfg, pos, pos + offsets[None],
                                   np.ones((1, cfg.N), dtype=bool))
        dists = drop.est.dist[0]
        assert dists.min() == 1.0  # the clamp engaged at least once
        assert np.all(dists >= 1.0)


class TestSampleUsers:
    def test_counts_and_shapes(self):
        cfg = NetworkConfig(L=2, N=36, M=4, pilot_len=12)
        drop = sample_users(cfg, np.random.default_rng(1))
        for name, x in link_arrays(drop).items():
            assert x.shape == (2, 72), name
        d = Drop.serving(drop.true.dist)
        assert np.all((cfg.min_dist <= d) & (d <= cfg.cell_radius))
        assert np.all((0.0 <= drop.true.aoa) & (drop.true.aoa < 2 * np.pi))

    def test_degenerate_distance_interval(self):
        eps = 1e-6
        cfg = small_cfg(min_dist=400.0 - eps, cell_radius=400.0)
        d = Drop.serving(sample_users(cfg, np.random.default_rng(2)).true.dist)
        assert np.all((400.0 - eps <= d) & (d <= 400.0))

    def test_deterministic_given_seed(self):
        cfg = small_cfg(loc_err_var=4.0, los_model="linear_prob",
                        k_model="distance")
        a = sample_users(cfg, np.random.default_rng(42))
        b = sample_users(cfg, np.random.default_rng(42))
        for name, x in link_arrays(a).items():
            assert np.array_equal(x, link_arrays(b)[name]), name

    def test_per_user_draw_order(self):
        # per user, cell-major: distance, angle, two offsets, one LOS uniform per BS
        cfg = small_cfg(loc_err_var=4.0, los_model="linear_prob")
        drop = sample_users(cfg, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        for cell in range(cfg.L):
            for j in range(cfg.N):
                d = rng.uniform(cfg.min_dist, cfg.cell_radius)
                theta = rng.uniform(0.0, 2 * np.pi)
                rng.uniform(-1.0, 1.0, size=2)
                u = cell * cfg.N + j
                los = rng.random(cfg.L) < los_probability(drop.true.dist[:, u], cfg)
                assert drop.true.dist[cell, u] == pytest.approx(d, rel=1e-12)
                assert drop.true.aoa[cell, u] == pytest.approx(theta, abs=1e-9)
                assert np.array_equal(drop.true.k[:, u] > 0, los)

    @pytest.mark.parametrize("cfg", [
        NetworkConfig(),
        NetworkConfig(L=2, N=12, M=64, pilot_len=4, k_model="distance",
                      los_model="linear_prob", loc_err_var=9.0),
        NetworkConfig(L=3, N=8, M=16, pilot_len=4, k_model="distance",
                      los_model="linear_prob", loc_err_var=4.0),
    ], ids=["table", "desk", "three-cell-linear-prob"])
    def test_block_draw_matches_per_user_draws(self, cfg):
        # one block of uniforms gives the drop of the per-user Generator
        # calls bit for bit, and leaves the stream at the same place
        for seed in range(200):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            drop, ref = sample_users(cfg, fast), sample_users_per_user(cfg, slow)
            for name, x in link_arrays(drop).items():
                assert np.array_equal(x, link_arrays(ref)[name]), name
            assert np.array_equal(fast.random(4), slow.random(4))

    def test_geometry_consistency(self):
        cfg = small_cfg(loc_err_var=9.0)
        drop = sample_users(cfg, np.random.default_rng(8))
        bs = bs_positions(cfg)
        for cell in range(cfg.L):
            for j in range(cfg.N):
                u = cell * cfg.N + j
                d, theta = drop.true.dist[cell, u], drop.true.aoa[cell, u]
                pos = bs[cell] + d * np.array([np.cos(theta), np.sin(theta)])
                for l in range(cfg.L):
                    rel = pos - bs[l]
                    assert drop.true.dist[l, u] == pytest.approx(np.hypot(*rel), rel=1e-9)
                    assert math.sin(drop.true.aoa[l, u]) == pytest.approx(
                        rel[1] / drop.true.dist[l, u], abs=1e-9)

    def test_nlos_forces_zero_k(self):
        cfg = small_cfg(los_model="linear_prob", k_model="distance", N=16)
        drop = sample_users(cfg, np.random.default_rng(9))
        los = drop.true.k > 0
        assert not los.all()
        assert np.array_equal(drop.est.k > 0, los)


class TestDropLayout:
    """Every per-link array of a drop is (L, L*N), [BS, cell*N + user]."""

    def test_sample_users_indexes_bs_then_flat_user(self):
        cfg = NetworkConfig(L=3, N=4, M=8, pilot_len=2, k_model="distance",
                            los_model="linear_prob", loc_err_var=4.0)
        drop = sample_users(cfg, np.random.default_rng(10))
        for name, x in link_arrays(drop).items():
            assert x.shape == (cfg.L, cfg.L * cfg.N) and x.flags.c_contiguous, name
        # true and estimated positions from the per-user draws, then every
        # user's distance and angle to every BS, one link at a time
        rng, bs = np.random.default_rng(10), bs_positions(cfg)
        for cell in range(cfg.L):
            for j in range(cfg.N):
                d = rng.uniform(cfg.min_dist, cfg.cell_radius)
                theta = rng.uniform(0.0, 2 * np.pi)
                pos = bs[cell] + d * np.array([math.cos(theta), math.sin(theta)])
                pos_est = pos + sample_position_error(cfg.loc_err_var, rng)
                rng.random(cfg.L)
                for l in range(cfg.L):
                    for p, dist, aoa in ((pos, drop.true.dist, drop.true.aoa),
                                         (pos_est, drop.est.dist, drop.est.aoa)):
                        dx, dy = p - bs[l]
                        assert dist[l, cell * cfg.N + j] == pytest.approx(
                            math.hypot(dx, dy), rel=1e-9)
                        assert aoa[l, cell * cfg.N + j] == pytest.approx(
                            math.atan2(dy, dx) % (2 * math.pi), abs=1e-9)

    def test_serving_is_each_cells_own_bs_block(self):
        cfg = NetworkConfig(L=3, N=4, M=8, pilot_len=2, los_model="linear_prob")
        drop = sample_users(cfg, np.random.default_rng(11))
        for name, x in link_arrays(drop).items():
            own = Drop.serving(x)
            assert own.shape == (cfg.L, cfg.N), name
            for cell in range(cfg.L):
                assert np.array_equal(own[cell], x[cell, cell * cfg.N:(cell + 1) * cfg.N])

    @pytest.mark.parametrize("L, N, shape", [(2, 1, (2, 1, 2)), (3, 3, (3, 3, 3)),
                                             (2, 3, (6, 2))],
                             ids=["cell_user_bs_n1", "cell_user_bs_square", "transposed"])
    def test_from_positions_rejects_other_los_shapes(self, L, N, shape):
        # (2, 1, 2) flags would broadcast against (2, 2) links without the guard
        cfg = small_cfg(L=L, N=N)
        pos = bs_positions(cfg)[:, None, :] + np.full((L, N, 2), 150.0)
        assert Drop.from_positions(cfg, pos, pos, np.ones((L, L * N), dtype=bool)).true.k.shape \
            == (L, L * N)
        with pytest.raises(ValueError, match="LOS flags must have shape"):
            Drop.from_positions(cfg, pos, pos, np.ones(shape, dtype=bool))


class TestReadOnlyDrop:
    """A drop cannot change once built, so its kept pair scores cannot go
    stale, and arrays that disagree in shape never make a drop."""

    @staticmethod
    def _drop(how: str) -> Drop:
        cfg = NetworkConfig(L=2, N=3, M=4, pilot_len=3, los_model="linear_prob")
        drop = sample_users(cfg, np.random.default_rng(5))
        if how == "from_positions":
            pos = bs_positions(cfg)[:, None, :] + np.full((cfg.L, cfg.N, 2), 150.0)
            return Drop.from_positions(cfg, pos, pos, drop.true.k > 0)
        if how == "replace":
            return all_nlos(drop)
        return drop

    @staticmethod
    def _with_k(drop: Drop, view: str, k) -> Drop:
        """`drop` with the K-factors of one view replaced by `k`."""
        links = dataclasses.replace(getattr(drop, view), k=k)
        return dataclasses.replace(drop, **{view: links})

    @pytest.mark.parametrize("how", ["sample_users", "from_positions", "replace"])
    def test_no_array_can_be_written(self, how):
        for name, x in link_arrays(self._drop(how)).items():
            assert not x.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                x[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                x.T[...] = 1.0          # a view of a drop array is read-only too

    def test_a_view_is_copied_so_its_base_cannot_change_the_drop(self):
        drop = self._drop("sample_users")
        base = np.array(drop.est.k)
        view = self._with_k(drop, "est", base[:, :])
        scores = pair_scores(view, 4).copy()
        base[:] = 0.0
        assert np.array_equal(view.est.k, drop.est.k)
        assert np.array_equal(pair_scores(view, 4), scores)

    def test_a_view_taken_before_construction_cannot_change_the_drop(self):
        drop = self._drop("sample_users")
        owner = np.array(drop.est.k)
        view = owner[:]                     # taken before the drop exists
        kept = self._with_k(drop, "est", owner)
        scores = pair_scores(kept, 4).copy()
        view[:] = 0.0
        assert np.array_equal(kept.est.k, drop.est.k)
        assert np.array_equal(pair_scores(kept, 4), scores)

    def test_every_array_is_stored_c_contiguous(self):
        drop = self._drop("sample_users")
        kept = self._with_k(drop, "est", np.asfortranarray(drop.est.k))
        for name, x in link_arrays(kept).items():
            assert x.flags.c_contiguous, name
        assert np.array_equal(kept.est.k, drop.est.k)

    def test_compares_and_hashes_by_identity(self):
        drop = self._drop("sample_users")
        for record in (drop, drop.true):
            twin = dataclasses.replace(record)      # equal arrays, another record
            assert record == record and (record == twin) is False and record != twin
            assert len({record, twin, record}) == 2

    def test_no_field_can_be_assigned(self):
        drop = self._drop("sample_users")
        for record, names in ((drop, ("true", "est", "score_memo")),
                              (drop.true, FIELDS), (drop.est, FIELDS)):
            for name in names:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, None)

    @pytest.mark.parametrize("k_shape", [(2, 5), (6, 2), (2, 3, 2), (12,)],
                             ids=["other_n", "transposed", "cell_user_bs", "flat"])
    def test_replace_rejects_a_wrong_shaped_array(self, k_shape):
        drop = self._drop("sample_users")
        with pytest.raises(ValueError, match=r"share one \(L, L\*N\) shape"):
            dataclasses.replace(drop.est, k=np.zeros(k_shape))

    @pytest.mark.parametrize("shape", [(2, 5), (3, 2), (0, 0)],
                             ids=["not_a_multiple", "fewer_users_than_bs", "empty"])
    def test_construction_rejects_a_shape_that_is_not_l_by_ln(self, shape):
        with pytest.raises(ValueError, match=r"share one \(L, L\*N\) shape"):
            Links(*(np.ones(shape) for _ in FIELDS))

    def test_views_must_mark_the_same_links_los(self):
        drop = self._drop("sample_users")
        with pytest.raises(ValueError, match="same links LOS"):
            self._with_k(drop, "true", np.zeros_like(drop.true.k))
        other = sample_users(NetworkConfig(L=2, N=4, M=4, pilot_len=3),
                             np.random.default_rng(5))
        with pytest.raises(ValueError, match="same links LOS"):
            Drop(true=drop.true, est=other.est)          # (2, 6) beside (2, 8)

    @pytest.mark.parametrize("which, bad", [
        ("pos", np.full((1, 1, 2), 150.0)),      # used to give (2, 1) dist beside (2, 6) k
        ("pos_est", np.full((2, 3, 3), 150.0)),
        ("pos", np.full((2, 3, 2), np.nan)),
        ("pos_est", np.full((2, 3, 2), np.inf)),
    ], ids=["too_few_users", "three_coordinates", "nan", "inf"])
    def test_from_positions_rejects_bad_positions(self, which, bad):
        cfg = NetworkConfig(L=2, N=3, M=4, pilot_len=3)
        args = {"pos": np.full((2, 3, 2), 150.0), "pos_est": np.full((2, 3, 2), 150.0)}
        args[which] = bad
        with pytest.raises(ValueError, match=r"positions must be a finite \(L, N, 2\)"):
            Drop.from_positions(cfg, args["pos"], args["pos_est"],
                                np.ones((cfg.L, cfg.L * cfg.N), dtype=bool))


class TestEachConsumerReadsOneView:
    """A drop with B's true links and A's estimated ones is allocated and
    reconstructed as A and drawn as B."""

    CFG = NetworkConfig(L=2, N=6, M=16, pilot_len=3, loc_err_var=9.0)   # every link LOS

    def _drops(self) -> tuple[Drop, Drop, Drop]:
        a, b = (sample_users(self.CFG, np.random.default_rng(seed)) for seed in (1, 2))
        return a, b, Drop(true=b.true, est=a.est)

    @pytest.mark.parametrize("name", sorted(ALLOCATORS))
    def test_allocators_read_the_estimates(self, name):
        a, _, mixed = self._drops()
        plan, ref = (ALLOCATORS[name](self.CFG, drop, np.random.default_rng(3))
                     for drop in (mixed, a))
        assert np.array_equal(plan.cells, ref.cells)

    def test_bs_side_los_reads_the_estimates(self):
        a, b, mixed = self._drops()
        m = self.CFG.M
        assert np.array_equal(los_interference(mixed, m), los_interference(a, m))
        assert not np.array_equal(los_interference(b, m), los_interference(a, m))
        assert np.array_equal(estimated_los_channel(mixed, self.CFG),
                              estimated_los_channel(a, self.CFG))

    def test_channels_follow_the_truth(self):
        a, b, mixed = self._drops()
        g, ref, other = (ChannelSampler(drop, self.CFG).draw(np.random.default_rng(4), 3).g
                         for drop in (mixed, b, a))
        assert np.array_equal(g, ref)
        assert not np.array_equal(g, other)
