"""Pilot-phase synthesis, LOS subtraction, and LS estimation tests."""

import numpy as np
import pytest

from conftest import all_nlos, make_drop, noise_block, sample_position_error
from mimopilots.channel import ChannelSampler, steering_vector
from mimopilots.checks import distinct_plan
from mimopilots.estimation import estimated_los_channel, ls_estimate, synthesize_rx
from mimopilots.model import Drop, NetworkConfig, bs_positions, sample_users
from mimopilots.pilots import AllocationPlan, build_pilot_book, pilot_matrix


def distinct_pilots(cfg):
    """Pilot matrix of `distinct_plan`: user j sends pilot j mod pilot_len."""
    return pilot_matrix(distinct_plan(cfg), build_pilot_book(cfg.pilot_len))


def los_residual(y, drop, cfg, lam):
    """The LOS-free residual at every BS, as `estimate_sinr` forms it."""
    return y - estimated_los_channel(drop, cfg) @ lam


def los_mismatch(drop, cfg, lam, bs):
    """Per source cell i: (true LOS of cell i - reconstructed LOS) @ Lambda_i."""
    gap = ChannelSampler(drop, cfg).los[bs] - estimated_los_channel(drop, cfg)[bs]
    cells = [slice(i * cfg.N, (i + 1) * cfg.N) for i in range(cfg.L)]
    return np.array([gap[:, c] @ lam[c] for c in cells])


class TestSynthesizeRx:
    def test_single_user_rank_one(self):
        cfg = NetworkConfig(L=1, N=1, M=8, pilot_len=4)
        drop = sample_users(cfg, np.random.default_rng(0))
        g = ChannelSampler(drop, cfg).draw(np.random.default_rng(1), 1).g[0]
        book = build_pilot_book(cfg.pilot_len)
        plan = AllocationPlan(np.array([[2]]), "t")
        y = synthesize_rx(g, pilot_matrix(plan, book), noise_block(cfg))
        expect = np.outer(g[0][:, 0], book[2])
        assert np.allclose(y[0], expect, atol=1e-12)

    def test_noise_only_calibration(self):
        cfg = NetworkConfig(L=1, N=2, M=64, pilot_len=16)
        drop = sample_users(cfg, np.random.default_rng(3))
        g = ChannelSampler(drop, cfg).draw(np.random.default_rng(4), 1).g[0]
        g[:] = 0.0
        noise_var = 0.37
        rng = np.random.default_rng(5)
        samples = [synthesize_rx(g, distinct_pilots(cfg),
                                 noise_block(cfg, noise_var, rng))[0]
                   for _ in range(30)]
        power = np.mean([np.mean(np.abs(s) ** 2) for s in samples])
        assert power == pytest.approx(noise_var, rel=0.03)

    def test_two_cell_synthesis_is_linear(self):
        # full receive matrix = per-cell noiseless parts + the shared noise draw
        cfg = NetworkConfig(L=2, N=3, M=8, pilot_len=3)
        drop = sample_users(cfg, np.random.default_rng(6))
        g = ChannelSampler(drop, cfg).draw(np.random.default_rng(7), 1).g[0]
        lams = distinct_pilots(cfg)
        noise_var = 0.1

        g0, g1 = g.copy(), g.copy()
        g0[:, :, cfg.N:] = 0.0      # cell 1's users
        g1[:, :, :cfg.N] = 0.0      # cell 0's users

        z = noise_block(cfg, noise_var, np.random.default_rng(8))
        full = synthesize_rx(g, lams, z)
        part0 = synthesize_rx(g0, lams, noise_block(cfg))
        part1 = synthesize_rx(g1, lams, noise_block(cfg))
        noise = synthesize_rx(np.zeros_like(g), lams, z)
        assert np.allclose(full, part0 + part1 + noise, atol=1e-10)

    def test_trial_stack_matches_per_trial_calls(self):
        # a leading trial axis synthesizes every realization of the stack
        cfg = NetworkConfig(L=2, N=3, M=8, pilot_len=3)
        drop = sample_users(cfg, np.random.default_rng(6))
        sampler, rng = ChannelSampler(drop, cfg), np.random.default_rng(7)
        g = sampler.draw(rng, 3).g
        z = np.stack([noise_block(cfg, 0.1, rng) for _ in range(3)])
        lams = distinct_pilots(cfg)
        y = synthesize_rx(g, lams, z)
        assert y.shape == (3, cfg.L, cfg.M, cfg.pilot_len)
        for t in range(3):
            assert np.allclose(y[t], synthesize_rx(g[t], lams, z[t]), rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="noise block"):
            synthesize_rx(g, lams, z[0])

    def test_misshaped_noise_rejected(self):
        cfg = NetworkConfig(L=1, N=1, M=2, pilot_len=2)
        drop = sample_users(cfg, np.random.default_rng(0))
        g = ChannelSampler(drop, cfg).draw(np.random.default_rng(0), 1).g[0]
        with pytest.raises(ValueError, match="noise block"):
            synthesize_rx(g, pilot_matrix(AllocationPlan(np.array([[0]]), "t"),
                                           build_pilot_book(2)), np.zeros((1, 2, 1)))

    def test_three_cells_sum_every_cells_pilots(self):
        # Y_l = sum_i G_il Lambda_i + Z_l written out per cell pair, with the
        # cell * N offset running past two cells
        cfg = NetworkConfig(L=3, N=4, M=8, pilot_len=3)
        drop = sample_users(cfg, np.random.default_rng(30))
        rng = np.random.default_rng(31)
        g = ChannelSampler(drop, cfg).draw(rng, 1).g[0]
        plan = AllocationPlan(rng.integers(0, cfg.pilot_len, (cfg.L, cfg.N)), "t")
        book = build_pilot_book(cfg.pilot_len)
        z = noise_block(cfg, 0.2, rng)
        y = synthesize_rx(g, pilot_matrix(plan, book), z)
        for l in range(cfg.L):
            expect = z[l].copy()
            for i in range(cfg.L):
                g_il = np.column_stack([
                    g[l][:, i * cfg.N + j] for j in range(cfg.N)])
                expect += g_il @ book[plan.cells[i]]
            assert np.allclose(y[l], expect, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(expect)))


class TestSubtractLos:
    def test_perfect_locations_leave_scatter_only(self):
        cfg = NetworkConfig(L=2, N=4, M=16, pilot_len=4, loc_err_var=0.0)
        drop = sample_users(cfg, np.random.default_rng(2))
        sampler = ChannelSampler(drop, cfg)
        g = sampler.draw(np.random.default_rng(3), 1).g[0]
        lams = distinct_pilots(cfg)
        y = synthesize_rx(g, lams, noise_block(cfg))
        resid = los_residual(y, drop, cfg, lams)
        for l in range(cfg.L):
            assert np.max(np.abs(resid[l] - (g - sampler.los)[l] @ lams)) < 1e-9

    def test_rayleigh_users_make_subtraction_a_noop(self):
        cfg = NetworkConfig(L=1, N=3, M=8, pilot_len=3)
        drop = sample_users(cfg, np.random.default_rng(5))
        drop = all_nlos(drop)
        g = ChannelSampler(drop, cfg).draw(np.random.default_rng(6), 1).g[0]
        lams = distinct_pilots(cfg)
        y = synthesize_rx(g, lams, noise_block(cfg, 0.3, np.random.default_rng(7)))
        resid = los_residual(y, drop, cfg, lams)
        assert np.array_equal(resid, y - 0.0)

    def test_location_errors_leave_exactly_the_mismatch(self):
        cfg = NetworkConfig(L=2, N=4, M=16, pilot_len=4, loc_err_var=9.0)
        drop = sample_users(cfg, np.random.default_rng(8))
        sampler = ChannelSampler(drop, cfg)
        g = sampler.draw(np.random.default_rng(9), 1).g[0]
        lams = distinct_pilots(cfg)
        y = synthesize_rx(g, lams, noise_block(cfg))
        resid = los_residual(y, drop, cfg, lams)
        for l in range(cfg.L):
            gap = resid[l] - (g - sampler.los)[l] @ lams
            xi = los_mismatch(drop, cfg, lams, l)
            assert np.linalg.norm(gap) > 1e-3
            assert np.allclose(gap, xi.sum(axis=0), atol=1e-9)

    def test_mismatch_shrinks_with_error_variance(self):
        cfg = NetworkConfig(L=2, N=4, M=16, pilot_len=4)
        lams = distinct_pilots(cfg)
        base = sample_users(cfg, np.random.default_rng(11))
        d, theta = Drop.serving(base.true.dist), Drop.serving(base.true.aoa)
        pos = bs_positions(cfg)[:, None, :] + np.stack(
            [d * np.cos(theta), d * np.sin(theta)], axis=-1)
        norms = []
        for var in (1.0, 0.1, 0.01):
            # same offset draws, scaled by the half-width of each variance
            offsets = sample_position_error(var, np.random.default_rng(12), n=cfg.L * cfg.N)
            drop = Drop.from_positions(cfg, pos, pos + offsets.reshape(pos.shape),
                                       base.true.k > 0)
            norms.append(np.linalg.norm(los_mismatch(drop, cfg, lams, 0)))
        assert norms[0] > norms[1] > norms[2]
        # first order, the mismatch scales with the offset ~ sqrt(var)
        assert norms[2] < 0.15 * norms[0]


class TestLsEstimate:
    def test_mismatched_pilot_length_rejected(self):
        with pytest.raises(ValueError, match="disagree on pilot length"):
            ls_estimate(np.zeros((2, 8, 3), dtype=complex), build_pilot_book(4))

    def test_exact_for_orthogonal_pilots(self):
        cfg = NetworkConfig(L=1, N=8, M=32, pilot_len=8)
        drop = sample_users(cfg, np.random.default_rng(13))
        sampler = ChannelSampler(drop, cfg)
        g = sampler.draw(np.random.default_rng(14), 1).g[0]
        lams = distinct_pilots(cfg)
        y = synthesize_rx(g, lams, noise_block(cfg))
        ghat = ls_estimate(los_residual(y, drop, cfg, lams), lams)[0]
        assert np.max(np.abs(ghat - (g - sampler.los)[0])) < 1e-9

    def test_intra_cell_copilots_share_columns(self):
        cfg = NetworkConfig(L=1, N=4, M=8, pilot_len=2)
        drop = sample_users(cfg, np.random.default_rng(16))
        g = ChannelSampler(drop, cfg).draw(np.random.default_rng(17), 1).g[0]
        lams = pilot_matrix(AllocationPlan(np.array([[0, 0, 1, 1]]), "t"),
                            build_pilot_book(cfg.pilot_len))
        y = synthesize_rx(g, lams, noise_block(cfg, 0.05, np.random.default_rng(18)))
        ghat = ls_estimate(los_residual(y, drop, cfg, lams), lams)[0]
        assert np.allclose(ghat[:, 0], ghat[:, 1])
        assert np.allclose(ghat[:, 2], ghat[:, 3])

    def test_cross_cell_contamination_sums_effective_channels(self):
        cfg = NetworkConfig(L=2, N=3, M=8, pilot_len=3)
        drop = sample_users(cfg, np.random.default_rng(19))
        sampler = ChannelSampler(drop, cfg)
        g = sampler.draw(np.random.default_rng(20), 1).g[0]
        lams = distinct_pilots(cfg)  # same plan in both cells
        y = synthesize_rx(g, lams, noise_block(cfg))
        ghat = ls_estimate(los_residual(y, drop, cfg, lams), lams)[0][:, :cfg.N]
        nlos = (g - sampler.los)[0]
        expect = nlos[:, :cfg.N] + nlos[:, cfg.N:]
        assert np.allclose(ghat, expect, atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(22)
        lam = build_pilot_book(4)[rng.integers(0, 4, 6)]
        y1 = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        y2 = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        a, b = 2.0 - 1j, 0.3 + 0.7j
        assert np.allclose(ls_estimate(a * y1 + b * y2, lam),
                           a * ls_estimate(y1, lam) + b * ls_estimate(y2, lam))

    def test_contamination_only_from_copilot_users(self):
        # zeroing channels of non-co-pilot users leaves a column unchanged
        # (up to pilot-book orthogonality round-off), noise seed fixed
        cfg = NetworkConfig(L=2, N=4, M=8, pilot_len=2)
        drop = sample_users(cfg, np.random.default_rng(23))
        g = ChannelSampler(drop, cfg).draw(np.random.default_rng(24), 1).g[0]
        plan = AllocationPlan(np.array([[0, 0, 1, 1], [0, 1, 1, 0]]), "t")
        lams = pilot_matrix(plan, build_pilot_book(cfg.pilot_len))
        z = noise_block(cfg, 0.02, np.random.default_rng(25))
        y = synthesize_rx(g, lams, z)

        watched = 0  # user (0, 0), pilot 0
        pilot = plan.cells[0][watched]
        g_zeroed = g.copy()
        for i in range(cfg.L):
            for j in range(cfg.N):
                if plan.cells[i][j] != pilot:
                    g_zeroed[:, :, i * cfg.N + j] = 0.0
        y_zeroed = synthesize_rx(g_zeroed, lams, z)
        col_full = ls_estimate(los_residual(y, drop, cfg, lams), lams)[0][:, watched]
        col_zeroed = ls_estimate(los_residual(y_zeroed, drop, cfg, lams),
                                 lams)[0][:, watched]
        assert np.allclose(col_full, col_zeroed, atol=1e-9)

    def test_stacked_estimate_matches_per_bs_calls(self):
        cfg = NetworkConfig(L=3, N=4, M=8, pilot_len=3)
        drop = sample_users(cfg, np.random.default_rng(27))
        rng = np.random.default_rng(28)
        book = build_pilot_book(cfg.pilot_len)
        y = synthesize_rx(ChannelSampler(drop, cfg).draw(rng, 1).g[0], distinct_pilots(cfg),
                          noise_block(cfg, 0.1, rng))
        stacked = ls_estimate(y, book)
        assert stacked.shape == (cfg.L, cfg.M, cfg.pilot_len)
        for l in range(cfg.L):
            assert np.array_equal(stacked[l], ls_estimate(y[l], book))


class TestLosChannelBuilders:
    def test_estimated_uses_estimates_true_uses_truth(self):
        cfg = NetworkConfig(L=1, N=1, M=8, pilot_len=1)
        drop = make_drop(cfg, [(200.0, 0.3, 120.0, 0.8)])
        est = estimated_los_channel(drop, cfg)[0][:, 0]
        tru = ChannelSampler(drop, cfg).los[0][:, 0]
        a_e, k_e = drop.est.alpha[0, 0], drop.est.k[0, 0]
        a, k = drop.true.alpha[0, 0], drop.true.k[0, 0]
        assert np.allclose(est, np.sqrt(a_e * k_e / (1 + k_e))
                           * steering_vector(cfg.M, drop.est.aoa[0, 0]))
        assert np.allclose(tru, np.sqrt(a * k / (1 + k))
                           * steering_vector(cfg.M, drop.true.aoa[0, 0]))
        assert not np.allclose(est, tru)

    def test_estimated_rx_stacks_all_cells(self):
        # BS 1's LOS receive matrix is formed from every cell's columns
        cfg = NetworkConfig(L=2, N=2, M=4, pilot_len=2)
        drop = sample_users(cfg, np.random.default_rng(26))
        lams = distinct_pilots(cfg)
        los = estimated_los_channel(drop, cfg)
        cells = [slice(i * cfg.N, (i + 1) * cfg.N) for i in range(cfg.L)]
        per_cell = [steering_vector(cfg.M, drop.est.aoa[1, users])
                    * np.sqrt(drop.est.alpha[1, users] * drop.est.k[1, users]
                              / (1.0 + drop.est.k[1, users]))
                    for users in cells]
        assert np.array_equal(los[1], np.concatenate(per_cell, axis=1))
        assert np.array_equal((los @ lams)[1], np.concatenate(per_cell, axis=1) @ lams)

    def test_flat_columns_match_explicit_steering(self):
        # column i*N + j at BS l is user (i, j)'s reconstructed LOS channel,
        # and exactly zero on an NLOS link
        cfg = NetworkConfig(L=3, N=5, M=16, pilot_len=5, k_model="distance",
                            los_model="linear_prob", loc_err_var=9.0)
        drop = sample_users(cfg, np.random.default_rng(29))
        nlos = drop.true.k == 0
        assert 0 < np.count_nonzero(nlos) < nlos.size
        los = estimated_los_channel(drop, cfg)
        assert los.shape == (cfg.L, cfg.M, cfg.L * cfg.N)
        for l in range(cfg.L):
            for i in range(cfg.L):
                for j in range(cfg.N):
                    u = i * cfg.N + j
                    col = los[l][:, u]
                    if nlos[l, u]:
                        assert not col.any()
                        continue
                    a, k = drop.est.alpha[l, u], drop.est.k[l, u]
                    ref = (np.sqrt(a * k / (1 + k))
                           * steering_vector(cfg.M, drop.est.aoa[l, u]))
                    assert np.max(np.abs(col - ref)) <= 1e-12 * np.max(np.abs(ref))
