"""Steering-vector and Rician channel-draw tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import channel_column, make_drop
from mimopilots.channel import ChannelSampler, crandn, los_channels, steering_vector
from mimopilots.checks import all_nlos, steering_vs_direct
from mimopilots.model import NetworkConfig, sample_users


def cfg_for(**kw):
    base = dict(L=2, N=3, M=8, pilot_len=3)
    base.update(kw)
    return NetworkConfig(**base)


class TestSteeringVector:
    def test_single_antenna(self):
        assert np.array_equal(steering_vector(1, 1.234), np.array([1.0 + 0j]))

    def test_broadside_is_all_ones(self):
        assert np.allclose(steering_vector(16, 0.0), np.ones(16))

    def test_endfire_alternates(self):
        # half-wavelength spacing, angle pi/2: entries exp(-1j*m*pi)
        v = steering_vector(4, np.pi / 2)
        assert np.allclose(v, [1, -1, 1, -1], atol=1e-12)

    @given(st.integers(min_value=1, max_value=128),
           st.floats(min_value=-10.0, max_value=10.0))
    def test_unit_modulus_and_norm(self, m, theta):
        v = steering_vector(m, theta)
        assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12
        assert v[0] == 1.0
        assert np.vdot(v, v).real == pytest.approx(m, rel=1e-12)

    def test_rejects_empty_array(self):
        with pytest.raises(ValueError):
            steering_vector(0, 0.0)

    def test_matches_direct_exponential_up_to_4096_antennas(self):
        # one exponential per entry carries rounding that grows with the index
        rng = np.random.default_rng(43)
        for m in (*range(1, 65), 99, 100, 101, 255, 256, 257, 1000, 1023, 1024, 1025,
                  2047, 2048, 2049, 4095, 4096):
            assert steering_vs_direct([m], rng) < m * 1e-15

    def test_angle_array_gives_one_response_per_angle(self):
        # angles (..., n) give (..., m, n), one response per column
        thetas = np.array([[0.3, 1.1, 2.7], [2.0, 4.5, 5.9]])
        v = steering_vector(8, thetas)
        assert v.shape == (2, 8, 3)
        for i, j in np.ndindex(thetas.shape):
            assert np.array_equal(v[i, :, j], steering_vector(8, float(thetas[i, j])))


class TestDrawChannel:
    """One user's channel as `ChannelSampler.draw` produces it."""

    @staticmethod
    def single_user(cfg, los=True):
        return make_drop(cfg, [(200.0, 0.7)], los=los)

    def test_pure_los_limit(self):
        cfg = cfg_for(L=1, N=1, pilot_len=1, k_db=120.0)  # K = 1e12
        drop = self.single_user(cfg)
        g = ChannelSampler(drop, cfg).draw(np.random.default_rng(0), 1).g[0, 0][:, 0]
        ref = np.sqrt(drop.true.alpha[0, 0]) * steering_vector(cfg.M, drop.true.aoa[0, 0])
        assert np.linalg.norm(g - ref) / np.linalg.norm(g) < 1e-5

    def test_rayleigh_power(self):
        cfg = cfg_for(L=1, N=1, pilot_len=1, k_db=0.0)
        drop = self.single_user(cfg, los=False)  # K forced 0
        assert drop.true.k[0, 0] == 0.0
        g = ChannelSampler(drop, cfg).draw(np.random.default_rng(1), 10_000).g[:, 0, :, 0]
        power = np.sum(np.abs(g) ** 2) / 10_000 / cfg.M
        assert power == pytest.approx(drop.true.alpha[0, 0], rel=0.02)

    def test_rician_power_normalization(self):
        cfg = cfg_for(L=1, N=1, pilot_len=1, k_db=7.0)
        drop = self.single_user(cfg)
        g = ChannelSampler(drop, cfg).draw(np.random.default_rng(2), 10_000).g[:, 0, :, 0]
        power = np.sum(np.abs(g) ** 2) / 10_000 / cfg.M
        assert power == pytest.approx(drop.true.alpha[0, 0], rel=0.02)


@pytest.mark.parametrize("m", [1, 7, 64, 100])
def test_los_channels_equal_per_column_steering(m):
    # the antenna axis sits between BS and user with no transpose copy, and
    # each column is bit-equal to its user's own steering vector, zero on
    # the K = 0 links
    cfg = NetworkConfig(L=2, N=6, M=m, pilot_len=3, k_model="distance",
                        los_model="linear_prob")
    drop = sample_users(cfg, np.random.default_rng(31))
    assert np.any(drop.true.k == 0) and np.any(drop.true.k > 0)
    los = los_channels(drop.true, m)
    assert los.shape == (cfg.L, m, cfg.L * cfg.N) and los.flags.c_contiguous
    for l, u in np.ndindex(drop.true.k.shape):
        a, k = drop.true.alpha[l, u], drop.true.k[l, u]
        ref = np.sqrt(a * k / (1.0 + k)) * steering_vector(m, drop.true.aoa[l, u])
        assert np.array_equal(los[l, :, u], ref)


class TestAssembleChannels:
    def test_shapes_at_table_scale(self):
        cfg = NetworkConfig(L=2, N=36, M=100, pilot_len=12)
        drop = sample_users(cfg, np.random.default_rng(3))
        cs = ChannelSampler(drop, cfg).draw(np.random.default_rng(4), 3)
        assert cs.g.shape == cs.htilde.shape == (3, 2, 100, 72)

    def test_all_rayleigh_reduces_to_scatter(self):
        cfg = cfg_for(los_model="linear_prob", cell_radius=400.0)
        drop = sample_users(cfg, np.random.default_rng(5))
        drop = all_nlos(drop)
        sampler = ChannelSampler(drop, cfg)
        cs = sampler.draw(np.random.default_rng(6), 2)
        assert not sampler.los.any()
        for i in range(cfg.L):
            users = slice(i * cfg.N, (i + 1) * cfg.N)
            for l in range(cfg.L):
                expect = cs.htilde[:, l, :, users] * np.sqrt(drop.true.alpha[l, users])
                assert np.allclose(cs.g[:, l, :, users], expect)

    def test_matches_per_user_draws_exactly(self):
        # the scatter is one crandn block in [trial, BS, antenna, user]
        # order, and each column is its user's LOS plus its weighted scatter
        cfg = cfg_for(k_db=5.0)
        drop = sample_users(cfg, np.random.default_rng(7))
        cs = ChannelSampler(drop, cfg).draw(np.random.default_rng(99), 2)
        shape = (2, cfg.L, cfg.M, cfg.L * cfg.N)
        assert np.array_equal(cs.htilde, crandn(np.random.default_rng(99), shape))
        for t in range(2):
            for i in range(cfg.L):
                for l in range(cfg.L):
                    for j in range(cfg.N):
                        u = i * cfg.N + j
                        g = channel_column(drop, i, j, l, cs.htilde[t, l][:, u])
                        assert np.array_equal(cs.g[t, l][:, u], g)

    def test_block_draw_equals_consecutive_single_draws(self):
        cfg = cfg_for(los_model="linear_prob", k_model="distance", cell_radius=400.0)
        drop = sample_users(cfg, np.random.default_rng(12))
        sampler, rng = ChannelSampler(drop, cfg), np.random.default_rng(13)
        single = np.stack([sampler.draw(rng, 1).g[0] for _ in range(3)])
        assert np.array_equal(sampler.draw(np.random.default_rng(13), 3).g, single)

    def test_second_moment_per_user(self):
        cfg = cfg_for(L=1, N=2, M=8, k_db=10.0)
        drop = sample_users(cfg, np.random.default_rng(8))
        g = ChannelSampler(drop, cfg).draw(np.random.default_rng(9), 10_000).g[:, 0]
        ratio = np.sum(np.abs(g) ** 2, axis=(0, 1)) / 10_000 / cfg.M / drop.true.alpha[0]
        assert np.all(np.abs(ratio - 1.0) < 0.03)

    @pytest.mark.parametrize("shape", [(1,), (36, 100), (2, 2, 12, 64)])
    def test_crandn_matches_pair_formula(self, shape):
        # scaling in place and viewing the pairs as complex is bit-equal to
        # building re + 1j*im and dividing, signs of zero included
        z = np.random.default_rng(11).standard_normal((*shape, 2))
        ref = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
        got = crandn(np.random.default_rng(11), shape)
        assert got.shape == shape
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(ref.view(float)))

    @pytest.mark.parametrize("t", [3, 2], ids=["full", "short"])
    def test_crandn_into_a_buffer_equals_a_fresh_draw(self, t):
        # a draw into a buffer of 3 blocks gives the fresh draw's values and
        # leaves the generator where a fresh draw does; a short last chunk
        # fills only buf[:t]
        shape = (4, 5)
        buf = np.full((3, *shape, 2), np.nan)
        rng, fresh_rng = np.random.default_rng(14), np.random.default_rng(14)
        got = crandn(rng, (t, *shape), out=buf[:t])
        assert np.array_equal(got, crandn(fresh_rng, (t, *shape)))
        assert np.shares_memory(got, buf)
        assert np.isnan(buf[t:]).all()
        assert rng.bit_generator.state == fresh_rng.bit_generator.state

    @pytest.mark.parametrize("t", [3, 2], ids=["full", "short"])
    def test_draw_into_a_buffer_equals_a_fresh_draw(self, t):
        # both arrays of the set are the fresh draw's, the channels a view of
        # the buffer and the scatter block apart from it, the generator ends
        # in the same state, and a short last chunk fills only the first t
        # trials of the buffer
        cfg = cfg_for(los_model="linear_prob", k_model="distance", cell_radius=400.0)
        drop = sample_users(cfg, np.random.default_rng(15))
        sampler = ChannelSampler(drop, cfg)
        g = np.full((3, cfg.L, cfg.M, cfg.L * cfg.N), np.nan, dtype=complex)
        rng, fresh_rng = np.random.default_rng(16), np.random.default_rng(16)
        got = sampler.draw(rng, t, out=g[:t])
        fresh = sampler.draw(fresh_rng, t)
        assert np.array_equal(got.g, fresh.g)
        assert np.array_equal(got.htilde, fresh.htilde)
        assert got.g.shape == got.htilde.shape == g[:t].shape
        assert np.shares_memory(got.g, g) and not np.shares_memory(got.htilde, g)
        assert np.isnan(g[t:]).all()
        assert rng.bit_generator.state == fresh_rng.bit_generator.state

    def test_crandn_unit_variance(self):
        z = crandn(np.random.default_rng(10), (200_000,))
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.01)
