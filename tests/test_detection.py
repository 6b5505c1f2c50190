"""ZF combining, SINR Monte Carlo, and spectral-efficiency tests."""

import hashlib
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import estimate_sinr_per_trial, make_drop, noise_block
from mimopilots import detection
from mimopilots.allocators import allocate_loc_aware, allocate_random
from mimopilots.channel import ChannelSampler, crandn
from mimopilots.checks import closed_form_dev, distinct_plan, pinv_moments, zf_solve
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


# (config, drop seed): co-pilot NLOS users with merged estimate columns,
# three cells, and fewer antennas than users, where some chunks' batched
# inverse raises and the whole chunk takes pinv
CHUNK_CASES = [
    pytest.param(NetworkConfig(L=2, N=6, M=16, pilot_len=2, k_model="distance",
                               los_model="linear_prob", loc_err_var=9.0), 31,
                 id="merged-columns"),
    pytest.param(NetworkConfig(L=3, N=4, M=8, pilot_len=3, k_db=5.0, loc_err_var=4.0),
                 32, id="three-cell"),
    pytest.param(NetworkConfig(L=2, N=4, M=2, pilot_len=2, k_model="distance",
                               los_model="linear_prob", loc_err_var=3.0), 35,
                 id="fewer-antennas"),
]

# (config, drop seed) whose plans merge co-pilot NLOS users into groups of
# more than one: desk scale, three cells, and fewer antennas than users
MERGED_CASES = [
    pytest.param(NetworkConfig(L=2, N=12, M=64, pilot_len=4, k_model="distance",
                               los_model="linear_prob", loc_err_var=9.0), 42, id="desk"),
    pytest.param(NetworkConfig(L=3, N=5, M=16, pilot_len=2, k_model="distance",
                               los_model="linear_prob", loc_err_var=4.0), 32,
                 id="three-cell"),
    pytest.param(*CHUNK_CASES[2].values, id="tiny-M"),
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

    @pytest.mark.parametrize("shape", [(8,), (2, 8, 3)], ids=["1-d", "3-d"])
    def test_estimate_that_is_not_a_matrix_rejected(self, shape):
        ghat = np.ones(shape, dtype=complex)
        gram = np.eye(shape[-1], dtype=complex)
        with pytest.raises(ValueError, match="2-D matrix"):
            zf_combiner(ghat, gram, None)

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

    @staticmethod
    def all_groups(cfg, seed):
        """(LOS channels at BS l, cell l's groups) at every BS for the
        loc_aware, the cyclic and two random plans of one drop."""
        drop = sample_users(cfg, np.random.default_rng(seed))
        los = estimated_los_channel(drop, cfg)
        plans = loc_aware_and_cyclic(cfg, drop) + random_plans(cfg, drop, 2, seed)
        return [(los[l], CopilotGroups(los[l], l, plan.cells[l], cfg.pilot_len))
                for plan in plans for l in range(cfg.L)]

    @pytest.mark.parametrize("cfg, seed", MERGED_CASES)
    def test_merged_groups_have_all_zero_los_columns(self, cfg, seed):
        # `moments` scales the LOS columns by the group roots, which leaves
        # them unchanged only because every member of a group of more than
        # one user has an all-zero reconstructed LOS column
        merged = 0
        for los, groups in self.all_groups(cfg, seed):
            for u in np.flatnonzero(groups.size > 1):
                members = groups.own[groups.inv == u]
                assert groups.cols[u] in members
                assert not los[:, members].any()
                merged += 1
        assert merged > 0

    @pytest.mark.parametrize("cfg, seed", MERGED_CASES)
    def test_estimate_formed_in_place_is_the_root_scaled_sum(self, monkeypatch,
                                                             cfg, seed):
        # every trial's estimate and Gram matrix handed to the ZF solve are,
        # bit for bit, those of los_u * root + est_u * root
        seen = []

        def recording(ghat, gram, gram_inv):
            seen.append((ghat.copy(), gram.copy()))
            return zf_combiner(ghat, gram, gram_inv)

        monkeypatch.setattr(detection, "zf_combiner", recording)
        rng = np.random.default_rng(seed)
        for los, groups in self.all_groups(cfg, seed):
            est = crand(rng, (3, cfg.M, cfg.pilot_len))
            g = crand(rng, (3, cfg.M, cfg.L * cfg.N))
            seen.clear()
            groups.moments(est, g)
            ref = (los[:, groups.cols] * groups.root
                   + est[..., groups.pilots_u] * groups.root)
            grams = ref.conj().swapaxes(-1, -2) @ ref
            assert len(seen) == 3
            for (ghat, gram), r, a in zip(seen, ref, grams):
                assert np.array_equal(ghat, r)
                assert np.array_equal(gram, a)

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
        # single-trial call, grouped or not, and sums the single-trial
        # moments. Ungrouped, the NLOS co-pilot users' columns of `los + 1.0`
        # coincide, so the stacked inverse raises and hands every trial None,
        # where a single-trial inverse may still give a candidate that the
        # certificate rejects; candidates are compared where the stacked call
        # has one.
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
        assert [inv is None for _, _, inv in inputs[:3]] == [not grouped] * 3
        for t in range(3):
            (ghat, gram, inv), (ghat1, gram1, inv1) = inputs[t], inputs[3 + t]
            assert np.array_equal(ghat, ghat1) and np.array_equal(gram, gram1)
            if inv is not None:
                assert np.array_equal(inv, inv1)
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

    def test_exactly_singular_member_sends_the_whole_chunk_to_pinv(self, monkeypatch):
        # in trial 0 of a 2-trial chunk, a LOS user's reconstructed LOS
        # column cancels its LS estimate exactly; the zero estimate column
        # zeroes a row and a column of the Gram matrix, so LU meets an exact
        # zero pivot in any operation order and the chunk's batched inverse
        # raises. Every trial of the chunk then takes pinv, the regular
        # trial 1 too, and still gives the moments of its own single-trial
        # call. (The root-scaled duplicate of the test above, like two equal
        # columns, need not give LU an exact zero pivot; such inputs take
        # pinv through the certificate.)
        cfg, drop, plan, los, _ = self.desk_cell(41)
        own, pilots = los[0][:, :cfg.N], plan.cells[0]
        b = np.flatnonzero(own.any(axis=0))[0]
        rng = np.random.default_rng(48)
        est = crand(rng, (cfg.M, cfg.pilot_len))
        own[:, b] = -est[:, pilots[b]]
        groups = CopilotGroups(own, 0, pilots, cfg.pilot_len)
        ests = np.stack([est, crand(rng, est.shape)])
        g = crand(rng, (2, cfg.M, cfg.L * cfg.N))
        ghat_u = (own[:, groups.cols] * groups.root
                  + ests[..., groups.pilots_u] * groups.root)
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
        assert [c is None for c in candidates] == [True, True]
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
        x = gram_inverses(grams)
        assert x.shape == grams.shape
        for gram, slot in zip(grams, x):
            assert np.array_equal(slot, np.linalg.inv(gram))

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

    @pytest.mark.parametrize("helper", [False, True])
    def test_one_zf_solve_per_plan_trial_and_bs(self, monkeypatch, helper):
        # the benchmark's tracer counts `zf_combiner` by name and probes the
        # rank of its first argument: one 2-D estimate per plan, trial and
        # BS, on one worker or two, also with merged columns and trials in
        # chunks of 3, each with the Gram matrix of that estimate and a
        # candidate bit-identical to its own 2-D inverse, or None for every
        # trial of a chunk whose batched inverse raised: some member was
        # exactly singular, so all of them, sharing plan, BS and locations,
        # are rank deficient
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
                assert np.linalg.matrix_rank(ghat) < ghat.shape[1]
            else:
                assert np.array_equal(gram_inv, np.linalg.inv(gram))
            return zf_combiner(ghat, gram, gram_inv)

        monkeypatch.setattr(detection, "zf_combiner", counting)
        estimate_sinr(cfg, drop, plans, 7, np.random.default_rng(42), helper=helper)
        assert ndims == [2] * (2 * 7 * cfg.L)

    @pytest.mark.parametrize("cfg, trials, seed", [
        (NetworkConfig(L=1, N=4, M=32, pilot_len=4, snr_db=0.0), 20000, 51),
        (NetworkConfig(L=2, N=4, M=32, pilot_len=4, snr_db=0.0), 20000, 52),
        (NetworkConfig(L=2, N=6, M=64, pilot_len=6, snr_db=10.0), 8000, 53),
    ], ids=["one-cell", "two-cells", "six-users"])
    def test_matches_the_closed_form_on_rayleigh_links(self, cfg, trials, seed):
        # ZF on LS estimates of all-NLOS links, user j on pilot j in every
        # cell, M > N: `checks.closed_form_sinr`, checked on the two-worker
        # path
        assert closed_form_dev(cfg, seed, trials, helper=True) < 0.02


def digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


class DrawLog:
    """Records every channel draw and pilot-noise draw of `estimate_sinr`:
    the thread each channel draw runs on, how many are running, the channel
    and noise blocks themselves (views of the drawing worker's buffers) and a
    digest of each, taken as it is drawn, in draw order. The channel draw
    numbered `fail_at` (from 1) calls `before_fail` and raises `error`
    instead."""

    def __init__(self, monkeypatch, fail_at=None, before_fail=None):
        self.threads, self.running = [], 0
        self.stacks, self.noise_blocks = [], []
        self.channels, self.noise = [], []
        self.error = RuntimeError("draw failed")
        original = ChannelSampler.draw

        def draw(sampler, rng, trials, out=None):
            self.threads.append(threading.get_ident())
            self.stacks.append(None)
            self.running += 1
            try:
                if len(self.threads) == fail_at:
                    if before_fail is not None:
                        before_fail()
                    raise self.error
                drawn = original(sampler, rng, trials, out=out)
            finally:
                self.running -= 1
            self.stacks[-1] = drawn.g
            self.channels.append(digest(drawn.g))
            return drawn

        def noise(rng, shape, out=None):
            z = crandn(rng, shape, out=out)
            self.noise_blocks.append(z)
            self.noise.append(digest(z))
            return z

        monkeypatch.setattr(ChannelSampler, "draw", draw)
        monkeypatch.setattr(detection, "crandn", noise)

    def chunk_of(self, g):
        """The chunk of channel stack `g` or of a view of it: the last chunk
        the calling thread drew, whose buffer `g` must share."""
        me = threading.get_ident()
        chunk = max(c for c, thread in enumerate(self.threads) if thread == me)
        assert np.shares_memory(g, self.stacks[chunk])
        return chunk

    def buffer_sets(self):
        """The number of buffer sets the draws used: every channel and noise
        block a thread draws must share memory with the first it drew, and
        with no block of another thread, so there is one set per thread."""
        for blocks in (self.stacks, self.noise_blocks):
            first = {}
            for thread, block in zip(self.threads, blocks, strict=True):
                first.setdefault(thread, block)
                for other, base in first.items():
                    assert np.shares_memory(block, base) == (other == thread)
        return len(set(self.threads))


class ScoreLog:
    """Records every LS estimate ("ls") and ZF solve ("zf") of
    `estimate_sinr` as (chunk, thread), the chunk being the one, in `draws`,
    a `DrawLog`, that the calling thread drew last and whose channel stack
    the pilot phase or the moments were formed from. `hook(kind, chunk)`
    runs before each call and may block or raise."""

    def __init__(self, monkeypatch, draws, hook=None):
        self.calls = {"ls": [], "zf": []}
        current = threading.local()
        moments = CopilotGroups.moments

        def record(kind):
            self.calls[kind].append((current.chunk, threading.get_ident()))
            if hook is not None:
                hook(kind, current.chunk)

        def synthesize(g, lam, noise):
            current.chunk = draws.chunk_of(g)
            return synthesize_rx(g, lam, noise)

        def estimate(y_clean, lam):
            record("ls")
            return ls_estimate(y_clean, lam)

        def chunk_moments(groups, est, g):
            current.chunk = draws.chunk_of(g)
            return moments(groups, est, g)

        def solve(ghat, gram, gram_inv):
            record("zf")
            return zf_combiner(ghat, gram, gram_inv)

        monkeypatch.setattr(detection, "synthesize_rx", synthesize)
        monkeypatch.setattr(detection, "ls_estimate", estimate)
        monkeypatch.setattr(CopilotGroups, "moments", chunk_moments)
        monkeypatch.setattr(detection, "zf_combiner", solve)

    def threads(self, kind, chunk):
        return [thread for c, thread in self.calls[kind] if c == chunk]


class PoolLog:
    """Records every thread pool that `estimate_sinr` starts, by its worker
    count, and the thread that each job submitted to one runs on; `stopped`
    is set once a job has ended or the pool is shut down."""

    def __init__(self, monkeypatch):
        self.pools, self.threads, self.stopped = [], [], threading.Event()
        log = self

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                super().__init__(max_workers, **kwargs)
                log.pools.append(max_workers)

            def submit(self, fn, /, *args, **kwargs):
                def job(*args, **kwargs):
                    log.threads.append(threading.get_ident())
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        log.stopped.set()
                return super().submit(job, *args, **kwargs)

            def shutdown(self, *args, **kwargs):
                log.stopped.set()
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(detection, "ThreadPoolExecutor", Pool)


def random_plans(cfg, drop, count, seed):
    rng = np.random.default_rng(seed)
    return [allocate_random(cfg, drop, rng) for _ in range(count)]


DESK = NetworkConfig(L=2, N=12, M=64, pilot_len=4, k_model="distance",
                     los_model="linear_prob", loc_err_var=9.0)


class TestDrawAhead:
    """`estimate_sinr(helper=True)`: the caller and one helper thread each
    draw the next chunk in turn and score it, and the chunks' sums are added
    in chunk order."""

    @staticmethod
    def setup(cfg, seed, monkeypatch, chunk):
        monkeypatch.setattr(detection, "_CHUNK_BYTES", chunk * trial_bytes(cfg))
        drop = sample_users(cfg, np.random.default_rng(seed))
        return drop, loc_aware_and_cyclic(cfg, drop)

    @pytest.mark.parametrize("cfg, seed", [
        *CHUNK_CASES, pytest.param(NetworkConfig(), 41, id="table")])
    @pytest.mark.parametrize("chunk", [1, 3])
    def test_draw_ahead_cannot_change_results(self, monkeypatch, cfg, seed, chunk):
        # 7 trials in chunks of 1 and of 3 (a partial last chunk): with a
        # helper the call starts one pool of one helper thread, and only
        # the caller and that helper draw; both streams are consumed in
        # chunk order, the SINR is bit-identical to one worker's, and each
        # worker draws every chunk it takes into its one buffer set
        drop, plans = self.setup(cfg, seed, monkeypatch, chunk)
        caller, runs, draws = threading.get_ident(), {}, {}
        for helper in (False, True):
            with monkeypatch.context() as patch:
                pools = PoolLog(patch)
                log = draws[helper] = DrawLog(patch)
                runs[helper] = estimate_sinr(cfg, drop, plans, 7,
                                               np.random.default_rng(33), helper=helper)
            assert pools.pools == ([1] if helper else [])
            assert len(pools.threads) == helper
            assert caller not in pools.threads
            assert set(log.threads) <= {caller, *pools.threads}
            assert len(log.threads) == len(log.noise) == -(-7 // chunk)
            assert log.buffer_sets() <= 1 + helper
        assert draws[True].channels == draws[False].channels
        assert draws[True].noise == draws[False].noise
        assert np.array_equal(runs[True], runs[False])

    def test_identity_holds_under_fast_thread_switching(self, monkeypatch):
        # the two workers take the generators in turn under a lock and add
        # their chunks in order; switching threads every microsecond must
        # not reorder a draw or a sum
        cfg, seed = CHUNK_CASES[1].values
        drop, plans = self.setup(cfg, seed, monkeypatch, 1)
        inline = estimate_sinr(cfg, drop, plans, 40, np.random.default_rng(34))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            paired = [estimate_sinr(cfg, drop, plans, 40, np.random.default_rng(34),
                                    helper=True) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        for sinr in paired:
            assert np.array_equal(sinr, inline)

    def test_single_chunk_starts_no_thread(self, monkeypatch):
        # one chunk runs on the caller alone, with no pool and no lock
        cfg, seed = CHUNK_CASES[0].values
        drop, plans = self.setup(cfg, seed, monkeypatch, 3)

        def unused(*args, **kwargs):
            raise AssertionError("a helper thread or a lock was made")

        monkeypatch.setattr(detection, "ThreadPoolExecutor", unused)
        monkeypatch.setattr(detection, "Lock", unused)
        log = DrawLog(monkeypatch)
        estimate_sinr(cfg, drop, plans, 2, np.random.default_rng(33), helper=True)
        assert log.threads == [threading.get_ident()]

    def check_error_in_one_worker(self, monkeypatch, kind, helper):
        # 7 Table trials in chunks of 1. Without a helper the first call of
        # `kind` in chunk 1 raises. With one both workers first meet at
        # a barrier, each holding one chunk; then the caller's first call of
        # `kind` raises while the helper waits until the caller has
        # stopped, and in a second call the roles swap. So whatever the
        # timing, one named worker fails, the other stops before it takes a
        # third chunk, and two chunks are drawn. The call raises that very
        # error, no thread or draw is left behind, and the next call is
        # unchanged
        cfg = NetworkConfig()
        drop, plans = self.setup(cfg, 41, monkeypatch, 1)
        fresh = estimate_sinr(cfg, drop, plans, 7, np.random.default_rng(33))
        caller = threading.get_ident()
        for role in ("caller", "helper") if helper else ("caller",):
            error, both, entered = RuntimeError(f"{kind} failed"), threading.Barrier(2), set()
            waited = []

            def hook(call, chunk):
                me = threading.get_ident()
                if not helper:
                    if call == kind and chunk == 1:
                        raise error
                    return
                if me not in entered:
                    entered.add(me)
                    both.wait(30)
                if (me == caller) == (role == "caller"):
                    if call == kind:
                        raise error
                elif not waited:
                    waited.append(pools.stopped.wait(30))

            with monkeypatch.context() as patch:
                pools = PoolLog(patch)
                draws = DrawLog(patch)
                log = ScoreLog(patch, draws, hook)
                before = threading.active_count()
                with pytest.raises(RuntimeError) as info:
                    estimate_sinr(cfg, drop, plans, 7, np.random.default_rng(33),
                                  helper=helper)
                assert info.value is error
                assert waited == ([True] if helper else [])
                assert threading.active_count() == before
                assert draws.running == 0
                assert len(draws.threads) == 2
                failed = next(c for c, t in enumerate(draws.threads)
                              if (t == caller) == (role == "caller")) if helper else 1
                assert log.threads(kind, failed) == [draws.threads[failed]]
            again = estimate_sinr(cfg, drop, plans, 7, np.random.default_rng(33),
                                  helper=helper)
            assert np.array_equal(again, fresh)

    @pytest.mark.parametrize("helper", [True, False])
    def test_scoring_error_surfaces_and_leaves_no_draw_running(self, monkeypatch,
                                                               helper):
        self.check_error_in_one_worker(monkeypatch, "zf", helper)

    @pytest.mark.parametrize("helper", [True, False])
    def test_estimate_error_surfaces_unchanged(self, monkeypatch, helper):
        self.check_error_in_one_worker(monkeypatch, "ls", helper)

    @pytest.mark.parametrize("helper", [True, False])
    def test_draw_error_surfaces_unchanged(self, monkeypatch, helper):
        # the second draw raises. With a helper, the worker holding chunk 0
        # waits in its first LS estimate until that draw has raised, so the
        # other worker makes it; a draw that raises ends the chunks for
        # both, so exactly two draws are made whatever the timing. The call
        # raises that very exception and leaves no thread behind
        cfg = NetworkConfig()
        drop, plans = self.setup(cfg, 41, monkeypatch, 1)
        fresh = estimate_sinr(cfg, drop, plans, 7, np.random.default_rng(33))
        failed, waited = threading.Event(), []

        def hook(call, chunk):
            if helper and chunk == 0 and not waited:
                waited.append(failed.wait(30))

        with monkeypatch.context() as patch:
            draws = DrawLog(patch, fail_at=2, before_fail=failed.set)
            ScoreLog(patch, draws, hook)
            before = threading.active_count()
            with pytest.raises(RuntimeError) as info:
                estimate_sinr(cfg, drop, plans, 7, np.random.default_rng(33),
                              helper=helper)
            assert info.value is draws.error
            assert waited == ([True] if helper else [])
            assert threading.active_count() == before
            assert draws.running == 0
            assert len(draws.threads) == 2
            assert (draws.threads[0] != draws.threads[1]) == helper
        again = estimate_sinr(cfg, drop, plans, 7, np.random.default_rng(33),
                              helper=helper)
        assert np.array_equal(again, fresh)

    def test_two_chunks_fit_the_memory_bound(self):
        # the bound of test_chunk_budget_bounds_peak_memory holds with both
        # workers' buffers and chunks in flight, at Table scale
        cfg = NetworkConfig()
        drop = sample_users(cfg, np.random.default_rng(41))
        plans = loc_aware_and_cyclic(cfg, drop)
        tracemalloc.start()
        try:
            estimate_sinr(cfg, drop, plans, 100, np.random.default_rng(43), helper=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20

    @pytest.mark.parametrize("helper", [True, False])
    def test_estimates_run_on_the_drawing_thread(self, monkeypatch, helper):
        # 32 desk plans in chunks of 3 trials: every LS estimate and ZF
        # solve of a chunk runs on the thread that drew it, one estimate per
        # plan and one solve per plan, trial and BS, and without a helper
        # that thread is the caller
        drop = sample_users(DESK, np.random.default_rng(42))
        plans = random_plans(DESK, drop, 32, 44)
        monkeypatch.setattr(detection, "_CHUNK_BYTES", 3 * trial_bytes(DESK))
        draws = DrawLog(monkeypatch)
        log = ScoreLog(monkeypatch, draws)
        estimate_sinr(DESK, drop, plans, 7, np.random.default_rng(33), helper=helper)
        assert len(draws.threads) == 3
        for chunk, (drawn_by, trials) in enumerate(zip(draws.threads, (3, 3, 1))):
            assert log.threads("ls", chunk) == [drawn_by] * len(plans)
            assert log.threads("zf", chunk) == [drawn_by] * (len(plans) * trials * DESK.L)
        if not helper:
            assert set(draws.threads) == {threading.get_ident()}

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_many_plans_cannot_change_results(self, monkeypatch, chunk):
        # 32 desk plans in chunks of 1 or 3 trials, each worker holding one
        # plan's estimate stack at a time: bit-identical with and without
        # a helper
        drop = sample_users(DESK, np.random.default_rng(42))
        plans = random_plans(DESK, drop, 32, 44)
        monkeypatch.setattr(detection, "_CHUNK_BYTES", chunk * trial_bytes(DESK))
        runs = [estimate_sinr(DESK, drop, plans, 7, np.random.default_rng(33),
                              helper=helper) for helper in (False, True)]
        assert np.array_equal(runs[0], runs[1])

    def test_many_plans_fit_the_memory_bound(self):
        # each worker holds one plan's estimate stack at a time, so the peak
        # does not grow with the plan count
        drop = sample_users(DESK, np.random.default_rng(42))
        plans = random_plans(DESK, drop, 32, 44)
        tracemalloc.start()
        try:
            estimate_sinr(DESK, drop, plans, 100, np.random.default_rng(43), helper=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20
