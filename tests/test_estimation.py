"""Pilot-phase synthesis, LOS subtraction, and LS estimation tests."""

import numpy as np
import pytest

from conftest import make_user, noise_block
from mimopilots.channel import assemble_channels, steering_vector
from mimopilots.estimation import (estimated_los_channel, estimated_los_rx,
                                   los_mismatch, ls_estimate, subtract_los,
                                   synthesize_rx, true_los_channel)
from mimopilots.model import NetworkConfig, apply_localization_error, sample_users
from mimopilots.pilots import AllocationPlan, build_pilot_book, pilot_matrix


def distinct_plan(cfg):
    return AllocationPlan(np.tile(np.arange(cfg.N) % cfg.pilot_len, (cfg.L, 1)), "t")


def nlos_synthesis(cs, plan, book, bs, n_cells):
    return sum(cs.nlos_effective(i, bs) @ pilot_matrix(plan, i, book)
               for i in range(n_cells))


class TestSynthesizeRx:
    def test_single_user_rank_one(self):
        cfg = NetworkConfig(L=1, N=1, M=8, pilot_len=4, seed=0)
        users = sample_users(cfg, np.random.default_rng(0))
        cs = assemble_channels(users, cfg, np.random.default_rng(1))
        book = build_pilot_book(cfg.pilot_len)
        plan = AllocationPlan(np.array([[2]]), "t")
        y = synthesize_rx(cs, plan, book, noise_block(cfg))
        expect = np.outer(cs.g[0, 0][:, 0], book[2])
        assert np.allclose(y[0], expect, atol=1e-12)

    def test_noise_only_calibration(self):
        cfg = NetworkConfig(L=1, N=2, M=64, pilot_len=16, seed=0)
        users = sample_users(cfg, np.random.default_rng(3))
        cs = assemble_channels(users, cfg, np.random.default_rng(4))
        cs.g[:] = 0.0
        noise_var = 0.37
        rng = np.random.default_rng(5)
        samples = [synthesize_rx(cs, distinct_plan(cfg), build_pilot_book(16),
                                 noise_block(cfg, noise_var, rng))[0]
                   for _ in range(30)]
        power = np.mean([np.mean(np.abs(s) ** 2) for s in samples])
        assert power == pytest.approx(noise_var, rel=0.03)

    def test_two_cell_synthesis_is_linear(self):
        # full receive matrix = per-cell noiseless parts + the shared noise draw
        import copy
        cfg = NetworkConfig(L=2, N=3, M=8, pilot_len=3, seed=0)
        users = sample_users(cfg, np.random.default_rng(6))
        cs = assemble_channels(users, cfg, np.random.default_rng(7))
        book = build_pilot_book(cfg.pilot_len)
        plan = distinct_plan(cfg)
        noise_var = 0.1

        cs0, cs1, silent = (copy.deepcopy(cs) for _ in range(3))
        cs0.g[1] = 0.0
        cs1.g[0] = 0.0
        silent.g[:] = 0.0

        z = noise_block(cfg, noise_var, np.random.default_rng(8))
        full = synthesize_rx(cs, plan, book, z)
        part0 = synthesize_rx(cs0, plan, book, noise_block(cfg))
        part1 = synthesize_rx(cs1, plan, book, noise_block(cfg))
        noise = synthesize_rx(silent, plan, book, z)
        assert np.allclose(full, part0 + part1 + noise, atol=1e-10)

    def test_misshaped_noise_rejected(self):
        cfg = NetworkConfig(L=1, N=1, M=2, pilot_len=2, seed=0)
        users = sample_users(cfg, np.random.default_rng(0))
        cs = assemble_channels(users, cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="noise block"):
            synthesize_rx(cs, AllocationPlan(np.array([[0]]), "t"),
                          build_pilot_book(2), np.zeros((1, 2, 1)))


class TestSubtractLos:
    def test_perfect_locations_leave_scatter_only(self):
        cfg = NetworkConfig(L=2, N=4, M=16, pilot_len=4, loc_err_var=0.0, seed=2)
        users = sample_users(cfg, np.random.default_rng(2))
        cs = assemble_channels(users, cfg, np.random.default_rng(3))
        book = build_pilot_book(cfg.pilot_len)
        plan = distinct_plan(cfg)
        y = synthesize_rx(cs, plan, book, noise_block(cfg))
        for l in range(cfg.L):
            resid = subtract_los(y[l], users, cfg, plan, book, l)
            assert np.max(np.abs(resid - nlos_synthesis(cs, plan, book, l, cfg.L))) < 1e-9

    def test_rayleigh_users_make_subtraction_a_noop(self):
        cfg = NetworkConfig(L=1, N=3, M=8, pilot_len=3, seed=3)
        users = sample_users(cfg, np.random.default_rng(5))
        for u in users:
            u.los[:] = False
            u.k[:] = 0.0
            u.k_est[:] = 0.0
        cs = assemble_channels(users, cfg, np.random.default_rng(6))
        book = build_pilot_book(cfg.pilot_len)
        plan = distinct_plan(cfg)
        y = synthesize_rx(cs, plan, book, noise_block(cfg, 0.3, np.random.default_rng(7)))
        resid = subtract_los(y[0], users, cfg, plan, book, 0)
        assert np.array_equal(resid, y[0] - 0.0)

    def test_location_errors_leave_exactly_the_mismatch(self):
        cfg = NetworkConfig(L=2, N=4, M=16, pilot_len=4, loc_err_var=9.0, seed=4)
        users = sample_users(cfg, np.random.default_rng(8))
        cs = assemble_channels(users, cfg, np.random.default_rng(9))
        book = build_pilot_book(cfg.pilot_len)
        plan = distinct_plan(cfg)
        y = synthesize_rx(cs, plan, book, noise_block(cfg))
        for l in range(cfg.L):
            resid = subtract_los(y[l], users, cfg, plan, book, l)
            gap = resid - nlos_synthesis(cs, plan, book, l, cfg.L)
            xi = los_mismatch(users, cfg, plan, book, l)
            assert np.linalg.norm(gap) > 1e-3
            assert np.allclose(gap, xi.sum(axis=0), atol=1e-9)

    def test_mismatch_shrinks_with_error_variance(self):
        cfg = NetworkConfig(L=2, N=4, M=16, pilot_len=4, seed=5)
        book = build_pilot_book(cfg.pilot_len)
        plan = distinct_plan(cfg)
        base = sample_users(cfg, np.random.default_rng(11))
        norms = []
        for var in (1.0, 0.1, 0.01):
            # same offset draws, scaled by the half-width of each variance
            rng = np.random.default_rng(12)
            users = [apply_localization_error(u, cfg, rng, var=var) for u in base]
            xi = los_mismatch(users, cfg, plan, book, 0)
            norms.append(np.linalg.norm(xi))
        assert norms[0] > norms[1] > norms[2]
        # first order, the mismatch scales with the offset ~ sqrt(var)
        assert norms[2] < 0.15 * norms[0]


class TestLsEstimate:
    def test_exact_for_orthogonal_pilots(self):
        cfg = NetworkConfig(L=1, N=8, M=32, pilot_len=8, seed=6)
        users = sample_users(cfg, np.random.default_rng(13))
        cs = assemble_channels(users, cfg, np.random.default_rng(14))
        book = build_pilot_book(cfg.pilot_len)
        plan = distinct_plan(cfg)
        y = synthesize_rx(cs, plan, book, noise_block(cfg))
        resid = subtract_los(y[0], users, cfg, plan, book, 0)
        ghat = ls_estimate(resid, pilot_matrix(plan, 0, book))
        assert np.max(np.abs(ghat - cs.nlos_effective(0, 0))) < 1e-9

    def test_intra_cell_copilots_share_columns(self):
        cfg = NetworkConfig(L=1, N=4, M=8, pilot_len=2, seed=7)
        users = sample_users(cfg, np.random.default_rng(16))
        cs = assemble_channels(users, cfg, np.random.default_rng(17))
        book = build_pilot_book(cfg.pilot_len)
        plan = AllocationPlan(np.array([[0, 0, 1, 1]]), "t")
        y = synthesize_rx(cs, plan, book, noise_block(cfg, 0.05, np.random.default_rng(18)))
        resid = subtract_los(y[0], users, cfg, plan, book, 0)
        ghat = ls_estimate(resid, pilot_matrix(plan, 0, book))
        assert np.allclose(ghat[:, 0], ghat[:, 1])
        assert np.allclose(ghat[:, 2], ghat[:, 3])

    def test_cross_cell_contamination_sums_effective_channels(self):
        cfg = NetworkConfig(L=2, N=3, M=8, pilot_len=3, seed=8)
        users = sample_users(cfg, np.random.default_rng(19))
        cs = assemble_channels(users, cfg, np.random.default_rng(20))
        book = build_pilot_book(cfg.pilot_len)
        plan = distinct_plan(cfg)  # same plan in both cells
        y = synthesize_rx(cs, plan, book, noise_block(cfg))
        resid = subtract_los(y[0], users, cfg, plan, book, 0)
        ghat = ls_estimate(resid, pilot_matrix(plan, 0, book))
        expect = cs.nlos_effective(0, 0) + cs.nlos_effective(1, 0)
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
        import copy
        cfg = NetworkConfig(L=2, N=4, M=8, pilot_len=2, seed=9)
        users = sample_users(cfg, np.random.default_rng(23))
        cs = assemble_channels(users, cfg, np.random.default_rng(24))
        book = build_pilot_book(cfg.pilot_len)
        plan = AllocationPlan(np.array([[0, 0, 1, 1], [0, 1, 1, 0]]), "t")
        z = noise_block(cfg, 0.02, np.random.default_rng(25))
        y = synthesize_rx(cs, plan, book, z)

        watched = 0  # user (0, 0), pilot 0
        pilot = plan.cells[0][watched]
        cs_zeroed = copy.deepcopy(cs)
        for i in range(cfg.L):
            for j in range(cfg.N):
                if plan.cells[i][j] != pilot:
                    cs_zeroed.g[i, :, :, j] = 0.0
        y_zeroed = synthesize_rx(cs_zeroed, plan, book, z)
        col_full = ls_estimate(subtract_los(y[0], users, cfg, plan, book, 0),
                               pilot_matrix(plan, 0, book))[:, watched]
        col_zeroed = ls_estimate(subtract_los(y_zeroed[0], users, cfg, plan, book, 0),
                                 pilot_matrix(plan, 0, book))[:, watched]
        assert np.allclose(col_full, col_zeroed, atol=1e-9)


class TestLosChannelBuilders:
    def test_estimated_uses_estimates_true_uses_truth(self):
        cfg = NetworkConfig(L=1, N=1, M=8, pilot_len=1, seed=10)
        u = make_user(cfg, 0, 0, d=200.0, theta=0.3, d_est=120.0, theta_est=0.8)
        est = estimated_los_channel([u], cfg, 0, 0)[:, 0]
        tru = true_los_channel([u], cfg, 0, 0)[:, 0]
        w_est = np.sqrt(u.alpha_est[0] * u.k_est[0] / (1 + u.k_est[0]))
        w_tru = np.sqrt(u.alpha[0] * u.k[0] / (1 + u.k[0]))
        assert np.allclose(est, w_est * steering_vector(cfg.M, u.aoa_est[0]))
        assert np.allclose(tru, w_tru * steering_vector(cfg.M, u.aoa[0]))

    def test_estimated_rx_stacks_all_cells(self):
        cfg = NetworkConfig(L=2, N=2, M=4, pilot_len=2, seed=11)
        users = sample_users(cfg, np.random.default_rng(26))
        book = build_pilot_book(cfg.pilot_len)
        plan = distinct_plan(cfg)
        ybar = estimated_los_rx(users, cfg, plan, book, bs=1)
        expect = sum(estimated_los_channel(users, cfg, i, 1)
                     @ pilot_matrix(plan, i, book) for i in range(2))
        assert np.array_equal(ybar, expect)
