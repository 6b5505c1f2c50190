"""ZF combining, SINR Monte Carlo, and spectral-efficiency tests."""

import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import estimate_sinr_per_trial, make_drop, noise_block
from mimopilots import detection
from mimopilots.allocators import allocate_loc_aware
from mimopilots.channel import ChannelSampler
from mimopilots.checks import distinct_plan, pinv_moments, zf_solve
from mimopilots.detection import (CopilotGroups, estimate_sinr, gram_condition,
                                  gram_inverses, spectral_efficiency, zf_combiner)
from mimopilots.estimation import estimated_los_channel, ls_estimate, synthesize_rx
from mimopilots.model import ConfigError, NetworkConfig, sample_users
from mimopilots.pilots import AllocationPlan, build_pilot_book, pilot_matrix


def crand(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def trial_bytes(cfg):
    """Bytes of one trial's (L, M, L*N) complex channel stack."""
    return 16 * cfg.L * cfg.M * cfg.L * cfg.N


def pinv_combiner(g):
    return np.linalg.pinv(g, rcond=1e-8).conj().T


def pinv_gram_inverse(g):
    """pinv(G^H G) as the fallback forms it, from the pseudo-inverse P of G."""
    p = np.linalg.pinv(g, rcond=1e-8)
    return p @ p.conj().T


def assert_moments_close(got, ref, rtol):
    assert len(got) == len(ref) == 3
    for a, b in zip(got, ref):
        assert a.shape == b.shape
        assert np.linalg.norm(a - b) <= rtol * np.linalg.norm(b)


def loc_aware_and_cyclic(cfg, drop):
    """The loc_aware plan and the plan that deals pilots out cyclically."""
    return [allocate_loc_aware(cfg, drop),
            AllocationPlan(np.arange(cfg.L * cfg.N).reshape(cfg.L, cfg.N)
                           % cfg.pilot_len, "t")]


# (config, drop seed): co-pilot NLOS users with merged estimate columns, and
# three cells
CHUNK_CASES = [
    pytest.param(NetworkConfig(L=2, N=6, M=16, pilot_len=2, k_model="distance",
                               los_model="linear_prob", loc_err_var=9.0), 31,
                 id="merged-columns"),
    pytest.param(NetworkConfig(L=3, N=4, M=8, pilot_len=3, k_db=5.0, loc_err_var=4.0),
                 32, id="three-cell"),
]


class TestZfCombiner:
    def test_single_column_matches_normalized_form(self):
        rng = np.random.default_rng(0)
        g = crand(rng, (16, 1))
        w = g @ zf_solve(g)
        expect = g / np.vdot(g, g).real
        assert np.allclose(w, expect, atol=1e-12)

    def test_orthogonal_columns(self):
        # columns of norm c: W = G / c^2 and W^H G = I
        q, _ = np.linalg.qr(crand(np.random.default_rng(1), (12, 4)))
        g = 3.0 * q
        w = g @ zf_solve(g)
        assert np.allclose(w, g / 9.0, atol=1e-10)
        assert np.allclose(w.conj().T @ g, np.eye(4), atol=1e-10)

    def test_duplicated_column_min_norm_split(self):
        rng = np.random.default_rng(2)
        col = crand(rng, (8,))
        g = np.column_stack([col, col])
        w = g @ zf_solve(g)
        block = w.conj().T @ g
        assert np.allclose(block, [[0.5, 0.5], [0.5, 0.5]], atol=1e-10)
        # cross-check against an SVD-built pseudo-inverse
        u, s, vh = np.linalg.svd(g, full_matrices=False)
        keep = s > 1e-8 * s[0]
        pinv = (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T
        assert np.allclose(w, pinv.conj().T, atol=1e-10)

    def test_full_rank_identity(self):
        g = crand(np.random.default_rng(3), (24, 6))
        w = g @ zf_solve(g)
        assert np.max(np.abs(w.conj().T @ g - np.eye(6))) < 1e-8

    def test_all_zero_estimate_rejected(self):
        with pytest.raises(ValueError, match="degenerate estimate"):
            zf_solve(np.zeros((8, 2), dtype=complex))

    @pytest.mark.parametrize("shape", [(3,), (1, 3, 3), (3, 4), (4, 3), (2, 2), (4, 4)],
                             ids=["1-d", "3-d", "wide", "tall", "smaller", "larger"])
    def test_gram_of_the_wrong_shape_rejected(self, shape):
        # a Gram matrix or a candidate inverse that is not (U, U)
        g = crand(np.random.default_rng(9), (8, 3))
        wrong = np.ones(shape, dtype=complex)
        with pytest.raises(ValueError, match="Gram matrix of shape"):
            zf_combiner(g, wrong, None)
        with pytest.raises(ValueError, match="Gram matrix of shape"):
            zf_combiner(g, g.conj().T @ g, wrong)

    @pytest.mark.parametrize("shape", [(8, 1), (24, 6), (64, 12), (100, 36)])
    def test_full_rank_matches_pinv(self, shape):
        # well-conditioned inputs take the Gram-Cholesky path
        rng = np.random.default_rng(shape[1])
        for _ in range(5):
            g = crand(rng, shape)
            ref = pinv_combiner(g)
            w = g @ zf_solve(g)
            assert np.linalg.norm(w - ref) <= 1e-9 * np.linalg.norm(ref)

    @pytest.mark.parametrize("ratio", [1e-6, 1e-10])
    def test_ill_conditioned_takes_pinv(self, ratio):
        # cond 1e6 is full rank but above the certificate; 1e-10 is below
        # the pseudo-inverse cutoff, so one singular value is dropped
        rng = np.random.default_rng(5)
        u, _ = np.linalg.qr(crand(rng, (40, 6)))
        v, _ = np.linalg.qr(crand(rng, (6, 6)))
        g = (u * np.logspace(0, np.log10(ratio), 6)) @ v.conj().T
        assert np.array_equal(zf_solve(g), pinv_gram_inverse(g))

    def test_duplicated_columns_take_pinv(self):
        rng = np.random.default_rng(6)
        g = crand(rng, (64, 12))
        g[:, 7] = g[:, 2]
        g[:, 9] = g[:, 2]
        assert np.array_equal(zf_solve(g), pinv_gram_inverse(g))

    @pytest.mark.parametrize("cond", [1e1, 1e2, 1e3, 5e3])
    def test_gram_condition_is_the_frobenius_condition_of_the_gram(self, cond):
        # the certificate equals ||A||_F ||A^-1||_F of A = Ghat^H Ghat, which
        # lies between cond2(Ghat)^2 and the Cholesky bound (||R||_F ||R^-1||_F)^2
        rng = np.random.default_rng(int(cond))
        u, _ = np.linalg.qr(crand(rng, (40, 6)))
        v, _ = np.linalg.qr(crand(rng, (6, 6)))
        s = np.logspace(0, -np.log10(cond), 6)
        g = (u * s) @ v.conj().T
        gram = g.conj().T @ g
        value = gram_condition(gram, np.linalg.inv(gram))
        exact = np.sqrt(np.sum(s ** 4) * np.sum(s ** -4.0))
        assert value == pytest.approx(exact, rel=1e-6)
        chol = np.linalg.cholesky(gram)
        assert cond ** 2 * (1 - 1e-6) <= value
        assert value <= (np.linalg.norm(chol) * np.linalg.norm(np.linalg.inv(chol))) ** 2

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
    def test_gram_condition_is_scale_invariant(self, scale):
        # a Gram matrix far from unit scale overflows or underflows the
        # squared norms; the certificate must still read the same
        rng = np.random.default_rng(9)
        g = crand(rng, (16, 4))
        gram = g.conj().T @ g
        gram_inv = np.linalg.inv(gram)
        value = gram_condition(gram * scale, gram_inv / scale)
        assert value == pytest.approx(gram_condition(gram, gram_inv), rel=1e-12)

    def test_rank_deficient_inputs_never_take_the_gram_inverse(self):
        # copies and multiples of columns make the Gram matrix singular; its
        # computed inverse scores about 1/eps and every such input takes pinv
        rng = np.random.default_rng(8)
        for _ in range(300):
            m = int(rng.integers(4, 65))
            n = int(rng.integers(2, min(m, 16) + 1))
            g = crand(rng, (m, n))
            src, dst = rng.choice(n, size=2, replace=False)
            g[:, dst] = g[:, src] * (1.0 if rng.random() < 0.5 else rng.standard_normal())
            assert np.array_equal(zf_solve(g), pinv_gram_inverse(g))


class TestCopilotGroups:
    @staticmethod
    def desk_cell(seed):
        """A desk-scale drop, the plan j -> j mod pilot_len, the LOS channels
        and cell 0's groups at BS 0. los[0][:, :N] is cell 0 at BS 0."""
        cfg = NetworkConfig(L=2, N=12, M=64, pilot_len=4, k_model="distance",
                            los_model="linear_prob", loc_err_var=9.0)
        drop = sample_users(cfg, np.random.default_rng(seed))
        plan = distinct_plan(cfg)
        los = estimated_los_channel(drop, cfg)
        return cfg, drop, plan, los, CopilotGroups(los[0], 0, plan.cells[0], cfg.pilot_len)

    def test_grouped_combiner_matches_full_pinv(self):
        cfg, drop, plan, los, groups = self.desk_cell(41)
        own = los[0][:, :cfg.N]
        nlos = ~own.any(axis=0)
        assert np.max(np.bincount(plan.cells[0][nlos])) >= 2   # co-pilot NLOS users
        assert groups.pilots_u.size < cfg.N
        rng = np.random.default_rng(42)
        book = build_pilot_book(cfg.pilot_len)
        lam = pilot_matrix(plan, book)
        g = ChannelSampler(drop, cfg).draw(rng, 1).g[0]
        for noise_var in (0.0, 1.0 / cfg.rho):
            y = synthesize_rx(g, lam, noise_block(cfg, noise_var, rng))
            est = ls_estimate(y - los @ lam, book)
            ghat = own + est[0][:, plan.cells[0]]
            assert_moments_close(groups.moments(est[0][None], g[0][None]),
                                 pinv_moments(ghat, g[0], groups.own), 1e-12)
            # W^H Ghat, the moments with the estimate itself as the channels
            got = groups.moments(est[0][None], ghat[None])
            ref = pinv_moments(ghat, ghat, groups.own)
            for a, b in zip(got[:2], ref[:2]):
                assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("grouped", [True, False])
    def test_stack_of_estimates_matches_one_call_per_estimate(self, monkeypatch, grouped):
        # a (T, L, M, pilot_len) estimate stack sliced at one BS solves each
        # trial on exactly the estimate and Gram matrix of its own
        # single-trial call, grouped or not, and sums the single-trial moments
        cfg, drop, plan, los, groups = self.desk_cell(41)
        if not grouped:
            groups = CopilotGroups(los[0] + 1.0, 0, plan.cells[0], cfg.pilot_len)
        assert (groups.pilots_u.size < cfg.N) == grouped
        rng = np.random.default_rng(44)
        est = crand(rng, (3, cfg.L, cfg.M, cfg.pilot_len))
        g = crand(rng, (3, cfg.L, cfg.M, cfg.L * cfg.N))
        inputs = []

        def recording(ghat, gram, gram_inv):
            inputs.append((ghat.copy(), gram.copy(),
                           None if gram_inv is None else gram_inv.copy()))
            return zf_combiner(ghat, gram, gram_inv)

        monkeypatch.setattr(detection, "zf_combiner", recording)
        stacked = groups.moments(est[:, 0], g[:, 0])
        assert [m.shape for m in stacked] == [(cfg.N,)] * 3
        singles = [groups.moments(est[t:t + 1, 0], g[t:t + 1, 0]) for t in range(3)]
        assert len(inputs) == 6
        for t in range(3):
            for stacked_input, single_input in zip(inputs[t], inputs[3 + t]):
                if single_input is None:
                    assert stacked_input is None
                else:
                    assert np.array_equal(stacked_input, single_input)
        assert_moments_close(stacked, [sum(m) for m in zip(*singles)], 1e-12)

    def test_uncaught_duplicate_columns_still_give_the_full_pinv(self):
        # a LOS user whose column equals a co-pilot NLOS group's column stays
        # a group of its own, so the distinct columns are rank deficient;
        # the root-scaled expansion still gives the moments of the full
        # pseudo-inverse combiner
        cfg, drop, plan, los, _ = self.desk_cell(41)
        own = los[0][:, :cfg.N]
        pilots, nlos = plan.cells[0], ~own.any(axis=0)
        p = np.flatnonzero(np.bincount(pilots[nlos], minlength=cfg.pilot_len) >= 2)[0]
        b = np.flatnonzero(~nlos & (pilots != p))[0]
        # integer entries keep (est_p - est_q) + est_q == est_p exact
        parts = np.random.default_rng(43).integers(-8, 9, (cfg.M, cfg.pilot_len, 2))
        est = parts @ np.array([1.0, 1.0j])
        own[:, b] = est[:, p] - est[:, pilots[b]]
        groups = CopilotGroups(own, 0, pilots, cfg.pilot_len)
        assert np.sum(groups.inv == groups.inv[b]) == 1
        ghat = own + est[:, pilots]
        assert np.array_equal(ghat[:, b], est[:, p])
        g = crand(np.random.default_rng(47), (cfg.M, cfg.L * cfg.N))
        assert_moments_close(groups.moments(est[None], g[None]),
                             pinv_moments(ghat, g, groups.own), 1e-12)

    def test_exactly_singular_member_alone_takes_pinv(self, monkeypatch):
        # in trial 0 of a 2-trial chunk, a LOS user's reconstructed LOS
        # column cancels its LS estimate exactly; the zero estimate column
        # zeroes a row and a column of the Gram matrix, so LU meets an exact
        # zero pivot in any operation order and the chunk's batched inverse
        # raises. Trial 1 is regular and keeps its candidate. (The root-scaled
        # duplicate of the test above, like two equal columns, need not give
        # LU an exact zero pivot; such inputs take pinv through the
        # certificate.)
        cfg, drop, plan, los, _ = self.desk_cell(41)
        own, pilots = los[0][:, :cfg.N], plan.cells[0]
        b = np.flatnonzero(own.any(axis=0))[0]
        rng = np.random.default_rng(48)
        est = crand(rng, (cfg.M, cfg.pilot_len))
        own[:, b] = -est[:, pilots[b]]
        groups = CopilotGroups(own, 0, pilots, cfg.pilot_len)
        ests = np.stack([est, crand(rng, est.shape)])
        g = crand(rng, (2, cfg.M, cfg.L * cfg.N))
        ghat_u = groups.los_u + ests[..., groups.pilots_u] * groups.root
        assert not ghat_u[0][:, groups.inv[b]].any()
        grams = ghat_u.conj().swapaxes(-1, -2) @ ghat_u
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(grams)
        candidates = []

        def recording(ghat, gram, gram_inv):
            candidates.append(None if gram_inv is None else gram_inv.copy())
            return zf_combiner(ghat, gram, gram_inv)

        monkeypatch.setattr(detection, "zf_combiner", recording)
        stacked = groups.moments(ests, g)
        assert candidates[0] is None
        assert np.array_equal(candidates[1], np.linalg.inv(grams[1]))
        singles = [groups.moments(ests[t:t + 1], g[t:t + 1]) for t in range(2)]
        assert_moments_close(stacked, [sum(m) for m in zip(*singles)], 1e-12)
        ghat = own + est[:, pilots]
        assert_moments_close(singles[0], pinv_moments(ghat, g[0], groups.own), 1e-12)

    @pytest.mark.parametrize("t, m, u", [(10, 64, 12), (10, 64, 7), (2, 100, 36)],
                             ids=["desk", "desk-merged", "table"])
    def test_stacked_candidates_are_the_per_matrix_inverses(self, t, m, u):
        # a chunk's Gram stack at desk (T_c = 10, U <= 12) and Table
        # (T_c = 2, U = 36) sizes: one batched inverse gives every matrix,
        # bit for bit, the inverse of its own 2-D call
        rng = np.random.default_rng(u)
        ghat = crand(rng, (t, m, u))
        grams = ghat.conj().swapaxes(-1, -2) @ ghat
        x, candidates = gram_inverses(grams)
        assert x.shape == grams.shape and len(candidates) == t
        for gram, slot, candidate in zip(grams, x, candidates):
            assert np.array_equal(slot, np.linalg.inv(gram))
            assert candidate is not None and np.shares_memory(candidate, slot)

    def test_per_pilot_estimate_indexed_by_plan_is_the_per_user_estimate(self):
        cfg, drop, plan, los, _ = self.desk_cell(44)
        book = build_pilot_book(cfg.pilot_len)
        lam = pilot_matrix(plan, book)
        rng = np.random.default_rng(45)
        y = synthesize_rx(ChannelSampler(drop, cfg).draw(rng, 1).g[0], lam,
                          noise_block(cfg, 1.0 / cfg.rho, rng))
        for l in range(cfg.L):
            per_user = ls_estimate(y[l], lam[l * cfg.N:(l + 1) * cfg.N])
            per_pilot = ls_estimate(y[l], book)[:, plan.cells[l]]
            dev = np.max(np.abs(per_pilot - per_user))
            assert dev <= 1e-14 * np.max(np.abs(per_user))

    def test_table_plan_takes_the_ungrouped_path(self):
        # every link is LOS at Table scale, so no two estimate columns coincide
        cfg = NetworkConfig()
        drop = sample_users(cfg, np.random.default_rng(46))
        plan = allocate_loc_aware(cfg, drop)
        los = estimated_los_channel(drop, cfg)
        for l in range(cfg.L):
            groups = CopilotGroups(los[l], l, plan.cells[l], cfg.pilot_len)
            assert groups.pilots_u.size == cfg.N

    def test_nlos_users_on_distinct_pilots_stay_ungrouped(self):
        cfg, drop, plan, los, _ = self.desk_cell(41)
        own = los[0][:, :cfg.N]
        own[:, :4] = 0.0                     # NLOS users on pilots 0..3
        own[:, 4:] += 1.0
        groups = CopilotGroups(own, 0, plan.cells[0], cfg.pilot_len)
        assert groups.pilots_u.size == cfg.N


class TestSpectralEfficiency:
    def test_zero_sinr(self):
        assert spectral_efficiency(0.0, 12, 196) == 0.0

    def test_table_prefactor(self):
        assert spectral_efficiency(1.0, 12, 196) == pytest.approx(0.93878, abs=1e-5)

    def test_half_prefactor(self):
        assert spectral_efficiency(1.0, 98, 196) == pytest.approx(0.5)

    def test_negative_sinr_rejected(self):
        with pytest.raises(ValueError):
            spectral_efficiency(-0.5, 12, 196)

    @pytest.mark.parametrize("sinr", [np.nan, np.inf, [1.0, np.nan, 2.0], [0.5, np.inf]],
                             ids=["nan", "inf", "mixed-nan", "mixed-inf"])
    def test_non_finite_sinr_rejected(self, sinr):
        with pytest.raises(ValueError, match="finite"):
            spectral_efficiency(sinr, 12, 196)


class TestEstimateSinr:
    def test_requires_two_trials(self):
        cfg = NetworkConfig(L=1, N=1, M=2, pilot_len=1)
        drop = sample_users(cfg, np.random.default_rng(7))
        plan = AllocationPlan(np.array([[0]]), "t")
        with pytest.raises(ConfigError):
            estimate_sinr(cfg, drop, [plan], 1, np.random.default_rng(8))

    def test_pure_los_beamforming_gain(self):
        # no interferers: sinr approaches rho * alpha * M
        cfg = NetworkConfig(L=1, N=1, M=32, pilot_len=32, k_db=120.0)
        drop = sample_users(cfg, np.random.default_rng(9))
        plan = AllocationPlan(np.array([[0]]), "t")
        sinr = estimate_sinr(cfg, drop, [plan], 500, np.random.default_rng(10))[0]
        expect = cfg.rho * drop.true.alpha[0, 0] * cfg.M
        assert sinr[0, 0] == pytest.approx(expect, rel=0.10)

    def test_identical_copilot_users_saturate_near_unity(self):
        # same location, same pilot: the other user is full-power interference
        cfg = NetworkConfig(L=1, N=2, M=16, pilot_len=2, k_db=10.0)
        drop = make_drop(cfg, [(250.0, 1.1), (250.0, 1.1)])
        plan = AllocationPlan(np.array([[0, 0]]), "t")
        sinr = estimate_sinr(cfg, drop, [plan], 300, np.random.default_rng(12))[0]
        assert np.all(sinr[0] < 1.1)

    def test_denominator_clamp_engages_at_extreme_snr(self):
        # pure LOS, essentially no noise: the variance estimate underflows
        # and the floored denominator caps the SINR at sig^2 / 1e-12
        cfg = NetworkConfig(L=1, N=1, M=4, pilot_len=4, k_db=120.0,
                            snr_db=310.0)
        drop = sample_users(cfg, np.random.default_rng(23))
        plan = AllocationPlan(np.array([[0]]), "t")
        sinr = estimate_sinr(cfg, drop, [plan], 5, np.random.default_rng(24))[0]
        assert np.isfinite(sinr).all()
        assert sinr[0, 0] == pytest.approx(1e12, rel=1e-3)

    def test_monotone_in_snr(self):
        cfg = NetworkConfig(L=1, N=2, M=8, pilot_len=2, k_db=5.0)
        drop = sample_users(cfg, np.random.default_rng(16))
        plan = AllocationPlan(np.array([[0, 1]]), "t")
        sinrs = [estimate_sinr(NetworkConfig(L=1, N=2, M=8, pilot_len=2, k_db=5.0,
                                             snr_db=snr),
                               drop, [plan], 50, np.random.default_rng(17))[0]
                 for snr in (0.0, 10.0, 20.0)]
        assert np.all(sinrs[1] >= sinrs[0])
        assert np.all(sinrs[2] >= sinrs[1])

    def test_plans_share_draws_without_changing_results(self, monkeypatch):
        # every plan of a call sees the same channel and noise draws, and a
        # plan's SINR does not depend on which other plans share the call,
        # also when the trials span several chunks
        cfg = NetworkConfig(L=2, N=4, M=8, pilot_len=2, k_db=5.0)
        drop = sample_users(cfg, np.random.default_rng(25))
        plans = [AllocationPlan(cells, "t") for cells in (
            [[0, 1, 0, 1], [1, 0, 1, 0]],
            [[0, 0, 1, 1], [0, 1, 1, 0]],
            [[1, 1, 1, 0], [0, 0, 0, 1]])]
        for chunk in (None, 3):
            if chunk is not None:
                monkeypatch.setattr(detection, "_CHUNK_BYTES", chunk * trial_bytes(cfg))
            together = estimate_sinr(cfg, drop, plans, 7, np.random.default_rng(26))
            assert together.shape == (3, cfg.L, cfg.N)
            for k, plan in enumerate(plans):
                alone = estimate_sinr(cfg, drop, [plan], 7, np.random.default_rng(26))
                assert np.array_equal(together[k], alone[0])
            assert not np.array_equal(together[0], together[1])

    @pytest.mark.parametrize("cfg, seed", CHUNK_CASES)
    @pytest.mark.parametrize("chunk", [1, 3, 100])
    def test_chunk_size_cannot_change_results(self, monkeypatch, cfg, seed, chunk):
        # 7 trials in chunks of 1, of 3 (a partial last chunk) and in one
        # chunk agree with the per-trial loop up to summation order
        drop = sample_users(cfg, np.random.default_rng(seed))
        plans = loc_aware_and_cyclic(cfg, drop)
        if cfg.los_model == "linear_prob":
            los = estimated_los_channel(drop, cfg)
            assert any(CopilotGroups(los[l], l, plan.cells[l], cfg.pilot_len).pilots_u.size
                       < cfg.N for plan in plans for l in range(cfg.L))
        monkeypatch.setattr(detection, "_CHUNK_BYTES", chunk * trial_bytes(cfg))
        ref = estimate_sinr_per_trial(cfg, drop, plans, 7, np.random.default_rng(33))
        got = estimate_sinr(cfg, drop, plans, 7, np.random.default_rng(33))
        assert np.max(np.abs(got - ref) / ref) < 1e-12

    @pytest.mark.parametrize("cfg, seed", [
        (NetworkConfig(), 41),
        (NetworkConfig(L=2, N=12, M=64, pilot_len=4, k_model="distance",
                       los_model="linear_prob", loc_err_var=9.0), 42),
    ], ids=["table", "desk"])
    def test_chunk_budget_bounds_peak_memory(self, cfg, seed):
        # 100 trials stacked at once would take 23 MB of channels at Table
        # scale; the chunked engine's working set stays a few hundred kB
        drop = sample_users(cfg, np.random.default_rng(seed))
        plans = loc_aware_and_cyclic(cfg, drop)
        tracemalloc.start()
        try:
            estimate_sinr(cfg, drop, plans, 100, np.random.default_rng(43))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20

    def test_non_finite_sinr_raises(self, monkeypatch):
        cfg = NetworkConfig(L=1, N=2, M=8, pilot_len=2)
        drop = sample_users(cfg, np.random.default_rng(27))
        plan = AllocationPlan(np.array([[0, 1]]), "nan-plan")
        monkeypatch.setattr(detection, "zf_combiner",
                            lambda ghat, gram, gram_inv: np.full(gram.shape, np.nan,
                                                                 dtype=complex))
        with pytest.raises(FloatingPointError, match="nan-plan"):
            estimate_sinr(cfg, drop, [plan], 3, np.random.default_rng(28))

    def test_zf_nulls_estimated_interference_inside_chain(self):
        # the combiner built inside the chain nulls co-scheduled estimates
        cfg = NetworkConfig(L=1, N=4, M=16, pilot_len=4)
        drop = sample_users(cfg, np.random.default_rng(18))
        plan = AllocationPlan(np.arange(4)[None, :], "t")
        book = build_pilot_book(cfg.pilot_len)
        lam = pilot_matrix(plan, book)
        g = ChannelSampler(drop, cfg).draw(np.random.default_rng(19), 1).g[0]
        y = synthesize_rx(g, lam, noise_block(cfg, 1.0 / cfg.rho, np.random.default_rng(20)))
        los = estimated_los_channel(drop, cfg)
        ghat = los[0] + ls_estimate(y - los @ lam, book)[0][:, plan.cells[0]]
        w = ghat @ zf_solve(ghat)
        assert np.max(np.abs(w.conj().T @ ghat - np.eye(4))) < 1e-8

    def test_one_zf_solve_per_plan_trial_and_bs(self, monkeypatch):
        # the benchmark's tracer counts `zf_combiner` by name and probes the
        # rank of its first argument: one 2-D estimate per plan, trial and
        # BS, also with merged columns and trials in chunks of 3, each with
        # the Gram matrix of that estimate and, unless that matrix is exactly
        # singular, a candidate bit-identical to its own 2-D inverse
        cfg = NetworkConfig(L=2, N=12, M=64, pilot_len=4, k_model="distance",
                            los_model="linear_prob", loc_err_var=9.0)
        drop = sample_users(cfg, np.random.default_rng(41))
        plans = [distinct_plan(cfg), allocate_loc_aware(cfg, drop)]
        los = estimated_los_channel(drop, cfg)
        assert any(CopilotGroups(los[l], l, plan.cells[l], cfg.pilot_len).pilots_u.size
                   < cfg.N for plan in plans for l in range(cfg.L))
        monkeypatch.setattr(detection, "_CHUNK_BYTES", 3 * trial_bytes(cfg))
        ndims = []

        def counting(ghat, gram, gram_inv):
            ndims.append(ghat.ndim)
            assert np.allclose(gram, ghat.conj().T @ ghat, rtol=1e-13, atol=0)
            if gram_inv is None:
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.inv(gram)
            else:
                assert np.array_equal(gram_inv, np.linalg.inv(gram))
            return zf_combiner(ghat, gram, gram_inv)

        monkeypatch.setattr(detection, "zf_combiner", counting)
        estimate_sinr(cfg, drop, plans, 7, np.random.default_rng(42))
        assert ndims == [2] * (2 * 7 * cfg.L)


class DrawLog:
    """Records every `ChannelSampler.draw`: the thread it runs on, how many
    channel stacks of earlier draws are still alive when it starts, and how
    many draws are running; the draw numbered `fail_at` (from 1) raises
    `error` instead."""

    def __init__(self, monkeypatch, fail_at=None):
        self.threads, self.alive_before, self.running = [], [], 0
        self.error = RuntimeError("draw failed")
        self._stacks = []
        original = ChannelSampler.draw

        def draw(sampler, rng, trials):
            self.threads.append(threading.get_ident())
            self.alive_before.append(sum(ref() is not None for ref in self._stacks))
            self.running += 1
            try:
                if len(self.threads) == fail_at:
                    raise self.error
                out = original(sampler, rng, trials)
            finally:
                self.running -= 1
            self._stacks.append(weakref.ref(out.g))
            return out

        monkeypatch.setattr(ChannelSampler, "draw", draw)


class TestDrawAhead:
    """`estimate_sinr(prefetch=True)`: one helper thread draws the next chunk
    while the caller scores the current one."""

    @staticmethod
    def setup(cfg, seed, monkeypatch, chunk):
        monkeypatch.setattr(detection, "_CHUNK_BYTES", chunk * trial_bytes(cfg))
        drop = sample_users(cfg, np.random.default_rng(seed))
        return drop, loc_aware_and_cyclic(cfg, drop)

    @pytest.mark.parametrize("cfg, seed", [
        *CHUNK_CASES, pytest.param(NetworkConfig(), 41, id="table")])
    @pytest.mark.parametrize("chunk", [1, 3])
    def test_draw_ahead_cannot_change_results(self, monkeypatch, cfg, seed, chunk):
        # 7 trials in chunks of 1 and of 3 (a partial last chunk): chunk 0 is
        # drawn by the caller and every later chunk by one other thread, the
        # SINR is bit-identical to drawing inline, and no draw starts while
        # more than one earlier chunk's channels are alive
        drop, plans = self.setup(cfg, seed, monkeypatch, chunk)
        runs = {}
        for prefetch in (False, True):
            log = DrawLog(monkeypatch)
            runs[prefetch] = estimate_sinr(cfg, drop, plans, 7, np.random.default_rng(33),
                                           prefetch=prefetch)
            assert len(log.threads) == -(-7 // chunk)
            assert log.threads[0] == threading.get_ident()
            assert len(set(log.threads[1:])) == 1
            assert (log.threads[1] != log.threads[0]) == prefetch
            assert max(log.alive_before) <= 1
        assert np.array_equal(runs[True], runs[False])

    def test_identity_holds_under_fast_thread_switching(self, monkeypatch):
        # the caller and the helper hand the generators over at each future;
        # switching threads every microsecond must not reorder a draw
        cfg, seed = CHUNK_CASES[1].values
        drop, plans = self.setup(cfg, seed, monkeypatch, 1)
        inline = estimate_sinr(cfg, drop, plans, 40, np.random.default_rng(34))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ahead = [estimate_sinr(cfg, drop, plans, 40, np.random.default_rng(34),
                                   prefetch=True) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        for sinr in ahead:
            assert np.array_equal(sinr, inline)

    def test_single_chunk_starts_no_thread(self, monkeypatch):
        cfg, seed = CHUNK_CASES[0].values
        drop, plans = self.setup(cfg, seed, monkeypatch, 3)

        def no_pool(*args, **kwargs):
            raise AssertionError("a helper thread was started")

        monkeypatch.setattr(detection, "ThreadPoolExecutor", no_pool)
        log = DrawLog(monkeypatch)
        estimate_sinr(cfg, drop, plans, 2, np.random.default_rng(33), prefetch=True)
        assert log.threads == [threading.get_ident()]

    @pytest.mark.parametrize("prefetch", [True, False])
    def test_scoring_error_surfaces_and_leaves_no_draw_running(self, monkeypatch,
                                                               prefetch):
        # the combiner raises on the second chunk while the helper draws the
        # third; the call raises that error only after the draw has finished
        cfg = NetworkConfig()
        drop, plans = self.setup(cfg, 41, monkeypatch, 1)
        fresh = estimate_sinr(cfg, drop, plans, 7, np.random.default_rng(33))
        error, calls = RuntimeError("scoring failed"), []

        def failing(ghat, gram, gram_inv):
            calls.append(1)
            if len(calls) > len(plans) * cfg.L:
                raise error
            return zf_combiner(ghat, gram, gram_inv)

        monkeypatch.setattr(detection, "zf_combiner", failing)
        log = DrawLog(monkeypatch)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            estimate_sinr(cfg, drop, plans, 7, np.random.default_rng(33),
                          prefetch=prefetch)
        assert info.value is error
        assert threading.active_count() == before
        assert log.running == 0
        assert len(log.threads) == (3 if prefetch else 2)
        monkeypatch.setattr(detection, "zf_combiner", zf_combiner)
        again = estimate_sinr(cfg, drop, plans, 7, np.random.default_rng(33),
                              prefetch=prefetch)
        assert np.array_equal(again, fresh)

    @pytest.mark.parametrize("prefetch", [True, False])
    def test_draw_error_surfaces_unchanged(self, monkeypatch, prefetch):
        # the second draw, the helper's first, raises: the call raises that
        # very exception and leaves no thread behind
        cfg = NetworkConfig()
        drop, plans = self.setup(cfg, 41, monkeypatch, 1)
        fresh = estimate_sinr(cfg, drop, plans, 7, np.random.default_rng(33))
        with monkeypatch.context() as patch:
            log = DrawLog(patch, fail_at=2)
            before = threading.active_count()
            with pytest.raises(RuntimeError) as info:
                estimate_sinr(cfg, drop, plans, 7, np.random.default_rng(33),
                              prefetch=prefetch)
            assert info.value is log.error
            assert threading.active_count() == before
            assert len(log.threads) == 2
            assert (log.threads[1] != threading.get_ident()) == prefetch
        again = estimate_sinr(cfg, drop, plans, 7, np.random.default_rng(33),
                              prefetch=prefetch)
        assert np.array_equal(again, fresh)

    def test_two_chunks_fit_the_memory_bound(self):
        # the bound of test_chunk_budget_bounds_peak_memory holds with the
        # helper's chunk alive next to the scored one, at Table scale
        cfg = NetworkConfig()
        drop = sample_users(cfg, np.random.default_rng(41))
        plans = loc_aware_and_cyclic(cfg, drop)
        tracemalloc.start()
        try:
            estimate_sinr(cfg, drop, plans, 100, np.random.default_rng(43), prefetch=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20
