"""Tests for the five pilot-allocation strategies."""

from dataclasses import fields

import numpy as np
import pytest

from conftest import (is_balanced, loc_aware_per_pilot_mean, make_drop,
                      proxy_weights_per_cell)
from mimopilots import allocators
from mimopilots.allocators import (ALLOCATORS, allocate_greedy, allocate_loc_aware,
                                   allocate_random, allocate_random_iid,
                                   allocate_sector, candidate_proxies, exhaustive_search,
                                   partition_tiers, plan_index, proxy_weights)
from mimopilots.los_metric import los_interference, los_interference_from_params
from mimopilots.model import ConfigError, Drop, Links, NetworkConfig, sample_users
from mimopilots.pilots import AllocationPlan


def cfg_for(**kw):
    base = dict(L=1, N=4, M=8, pilot_len=2, k_db=10.0)
    base.update(kw)
    return NetworkConfig(**base)


# the bench's Table and desk scales, and three cells with NLOS links and
# location error
PLAN_IDENTITY_CONFIGS = {
    "table": {},
    "desk": dict(L=2, N=12, M=64, pilot_len=4, k_model="distance",
                 los_model="linear_prob", loc_err_var=9.0),
    "three_cells": dict(L=3, N=10, M=32, pilot_len=4, k_model="distance",
                        los_model="linear_prob", loc_err_var=25.0),
}


def copilot_proxy(cfg, drop, plan, cell, j, pilot):
    """Oracle: greedy's proxy of user (cell, j) if it held `pilot`, one
    co-pilot user at a time: the estimated-gain ratio at the victim's BS
    plus the pair's LOS interference score."""
    N = cfg.N
    own = float(drop.est.alpha[cell, cell * N + j])
    est = (drop.est.alpha[cell], drop.est.k[cell], drop.est.aoa[cell])
    total = 0.0
    for i in range(cfg.L):
        for jj in np.flatnonzero(plan[i] == pilot):
            if i == cell and jj == j:
                continue
            total += float(drop.est.alpha[cell, i * N + jj]) / own
            total += float(los_interference_from_params(
                *(x[i * N + jj] for x in est), *(x[cell * N + j] for x in est), cfg.M))
    return total


class TestPartitionTiers:
    def test_table_scale(self):
        cfg = NetworkConfig(L=1, N=36, M=4, pilot_len=12)
        drop = sample_users(cfg, np.random.default_rng(0))
        tiers = partition_tiers(drop, 0, cfg.pilot_len)
        assert len(tiers) == 3
        assert all(len(t) == 12 for t in tiers)

    def test_single_tier_when_n_equals_pilot_len(self):
        cfg = cfg_for(N=2)
        drop = sample_users(cfg, np.random.default_rng(1))
        assert len(partition_tiers(drop, 0, cfg.pilot_len)) == 1

    def test_remainder_tier(self):
        cfg = cfg_for(N=5)
        drop = sample_users(cfg, np.random.default_rng(2))
        assert [len(t) for t in partition_tiers(drop, 0, 2)] == [2, 2, 1]

    def test_sorted_by_estimated_distance(self):
        cfg = cfg_for(L=2, N=6, pilot_len=3, loc_err_var=25.0)
        drop = sample_users(cfg, np.random.default_rng(3))
        for cell in range(cfg.L):
            tiers = partition_tiers(drop, cell, 3)
            flat = drop.est.dist[cell, cell * cfg.N + np.concatenate(tiers)].tolist()
            assert flat == sorted(flat)
            assert sorted(np.concatenate(tiers).tolist()) == list(range(cfg.N))


class TestLocAware:
    def test_single_tier_identity_on_sorted_order(self):
        cfg = cfg_for(N=2)
        drop = make_drop(cfg, [(300.0, 1.0), (120.0, 2.0)])
        plan = allocate_loc_aware(cfg, drop)
        # closer user takes pilot 0
        assert list(plan.cells[0]) == [1, 0]
        assert plan.allocator == "loc_aware"

    def test_tie_goes_to_the_lowest_open_pilot(self):
        # users 1 and 2 stand on one spot and hold pilots 1 and 2, so those
        # pilots score every later user exactly alike; pilot 0's holder
        # overlaps user 3, who takes pilot 1, the lower of the tie
        cfg = cfg_for(N=5, pilot_len=3)
        drop = make_drop(cfg, [(100.0, 0.2), (150.0, 2.0), (150.0, 2.0),
                               (300.0, 0.4), (350.0, 4.0)])
        scores = los_interference(drop, cfg.M)
        assert scores[1, 3] == scores[2, 3] < scores[0, 3]
        assert scores[0, 4] < scores[2, 4]
        assert allocate_loc_aware(cfg, drop).cells[0].tolist() == [0, 1, 2, 1, 0]

    def test_hand_worked_four_user_plan(self):
        # tier 1 = two near users; the far user overlapping the nearest in
        # angle must avoid its pilot, the last user takes the leftover
        cfg = cfg_for()
        theta4 = float(np.arcsin(0.75))  # kernel zero against the 30-degree user
        drop = make_drop(cfg, [
            (100.0, 0.0), (150.0, np.pi / 6), (300.0, 0.0), (350.0, theta4)])
        plan = allocate_loc_aware(cfg, drop)
        assert list(plan.cells[0]) == [0, 1, 1, 0]

    def test_deterministic(self):
        cfg = cfg_for(L=2, N=6, pilot_len=3)
        drop = sample_users(cfg, np.random.default_rng(4))
        a = allocate_loc_aware(cfg, drop)
        b = allocate_loc_aware(cfg, drop)
        assert np.array_equal(a.cells, b.cells)

    def test_input_order_invariance(self):
        # the plan follows locations, not user indices: permuting the users of
        # every cell permutes the plan the same way
        cfg = cfg_for(L=2, N=6, pilot_len=3)
        drop = sample_users(cfg, np.random.default_rng(5))
        perm = np.random.default_rng(6).permutation(cfg.N)
        shuffled = Drop(*(Links(*(getattr(links, f.name).reshape(cfg.L, cfg.L, cfg.N)
                                  [..., perm].reshape(cfg.L, -1) for f in fields(links)))
                          for links in (drop.true, drop.est)))
        a = allocate_loc_aware(cfg, drop)
        b = allocate_loc_aware(cfg, shuffled)
        assert np.array_equal(a.cells[:, perm], b.cells)

    def test_no_pilot_repeats_inside_a_tier(self):
        cfg = NetworkConfig(L=2, N=10, M=16, pilot_len=3)
        drop = sample_users(cfg, np.random.default_rng(7))
        plan = allocate_loc_aware(cfg, drop)
        for cell in range(cfg.L):
            for tier in partition_tiers(drop, cell, cfg.pilot_len):
                pilots = plan.cells[cell][tier]
                assert len(set(pilots.tolist())) == len(pilots)

    def test_balanced_per_cell(self):
        cfg = NetworkConfig(L=2, N=10, M=16, pilot_len=3)
        drop = sample_users(cfg, np.random.default_rng(8))
        plan = allocate_loc_aware(cfg, drop)
        for cell in range(cfg.L):
            assert is_balanced(plan.cells[cell], cfg.pilot_len)

    def test_kernel_zero_pairing_reaches_zero_score(self):
        # both later-tier users sit on kernel zeros of exactly one near user
        cfg = cfg_for()
        t2 = float(np.arcsin(0.6))
        t3 = float(np.arcsin(-0.25))  # zero against the 0-radian user (b=1)
        t4 = float(np.arcsin(0.1))    # zero against the t2 user (b=2)
        drop = make_drop(cfg, [
            (100.0, 0.0), (150.0, t2), (300.0, t3), (350.0, t4)])
        plan = allocate_loc_aware(cfg, drop)
        assert list(plan.cells[0]) == [0, 1, 0, 1]
        scores = los_interference(drop, m=cfg.M)
        assert scores[0, 2] + scores[1, 3] < 1e-20

    def test_rayleigh_pairs_scored_by_overlap_only(self):
        # all-NLOS scenario still allocates (scores fall back to the AoA part)
        cfg = cfg_for(N=4, los_model="linear_prob")
        drop = make_drop(cfg, [(100.0, 0.1), (150.0, 1.3),
                               (300.0, 2.1), (350.0, 4.0)], los=False)
        plan = allocate_loc_aware(cfg, drop)
        assert is_balanced(plan.cells[0], cfg.pilot_len)


@pytest.mark.parametrize("kw", PLAN_IDENTITY_CONFIGS.values(), ids=PLAN_IDENTITY_CONFIGS)
def test_loc_aware_equals_per_pilot_mean_oracle(kw):
    cfg = NetworkConfig(**kw)
    for d in range(300):
        drop = sample_users(cfg, np.random.default_rng([51, d]))
        assert np.array_equal(allocate_loc_aware(cfg, drop).cells,
                              loc_aware_per_pilot_mean(cfg, drop)), f"drop {d}"


class TestRandom:
    def test_permutation_when_n_equals_pilot_len(self):
        cfg = cfg_for(N=2)
        plan = allocate_random(cfg, None, np.random.default_rng(9))
        assert sorted(plan.cells[0].tolist()) == [0, 1]

    def test_balanced_multiset(self):
        cfg = NetworkConfig(L=2, N=36, M=4, pilot_len=12)
        plan = allocate_random(cfg, None, np.random.default_rng(10))
        for cell in range(cfg.L):
            counts = np.bincount(plan.cells[cell], minlength=12)
            assert np.all(counts == 3)

    def test_reproducible(self):
        cfg = cfg_for(L=2, N=7, pilot_len=3)
        a = allocate_random(cfg, None, np.random.default_rng(11))
        b = allocate_random(cfg, None, np.random.default_rng(11))
        assert np.array_equal(a.cells, b.cells)

    def test_extra_uses_hit_random_pilots(self):
        # with N = pilot_len + 1 the doubled pilot varies across draws
        cfg = cfg_for(N=4, pilot_len=3)
        doubled = set()
        for seed in range(40):
            plan = allocate_random(cfg, None, np.random.default_rng(seed))
            counts = np.bincount(plan.cells[0], minlength=3)
            doubled.add(int(np.argmax(counts)))
        assert doubled == {0, 1, 2}

    def test_iid_mode_is_sometimes_unbalanced(self):
        cfg = cfg_for(N=6, pilot_len=3)
        plans = [allocate_random_iid(cfg, None, np.random.default_rng(s))
                 for s in range(30)]
        assert any(not is_balanced(p.cells[0], 3) for p in plans)
        assert all(p.allocator == "random_iid" for p in plans)
        assert "random_iid" in ALLOCATORS


class TestSector:
    def test_thirty_degree_sectors(self):
        cfg = cfg_for(N=3, pilot_len=12)
        drop = make_drop(cfg, [
            (200.0, np.deg2rad(45.0)), (250.0, 0.0), (300.0, np.deg2rad(44.0))])
        plan = allocate_sector(cfg, drop)
        assert plan.cells[0][0] == 1   # 45 deg -> sector 1
        assert plan.cells[0][1] == 0   # boundary angle -> sector 0
        assert plan.cells[0][2] == 1   # same sector, same pilot

    def test_identical_grid_across_cells(self):
        cfg = cfg_for(L=2, N=2, pilot_len=4)
        drop = make_drop(cfg, [(150.0, 1.0), (200.0, 1.0)], [(150.0, 1.0), (200.0, 1.0)])
        plan = allocate_sector(cfg, drop)
        assert np.array_equal(plan.cells[0], plan.cells[1])

    def test_unbalanced_allowed(self):
        cfg = cfg_for(N=3, pilot_len=3)
        drop = make_drop(cfg, [(150.0, 0.1), (200.0, 0.2), (250.0, 0.3)])
        plan = allocate_sector(cfg, drop)
        assert np.all(plan.cells[0] == 0)  # all in the first sector


class TestGreedy:
    def fixture(self):
        cfg = NetworkConfig(L=1, N=3, M=8, pilot_len=2, k_db=10.0)
        # near and far user share an angle; seed 0 initializes them co-pilot
        drop = make_drop(cfg, [(100.0, 0.7), (390.0, 0.7), (250.0, 2.5)])
        return cfg, drop

    def test_moves_crowded_user_in_first_iteration(self, monkeypatch):
        monkeypatch.setattr(allocators, "_GREEDY_MAX_ITERS", 1)
        cfg, drop = self.fixture()
        init = allocate_random(cfg, drop, np.random.default_rng(0))
        assert list(init.cells[0]) == [0, 0, 1]
        plan = allocate_greedy(cfg, drop, np.random.default_rng(0))
        assert list(plan.cells[0]) == [0, 1, 1]

    def test_proxy_strictly_improves(self, monkeypatch):
        monkeypatch.setattr(allocators, "_GREEDY_MAX_ITERS", 1)
        cfg, drop = self.fixture()
        init = allocate_random(cfg, drop, np.random.default_rng(0))
        plan = allocate_greedy(cfg, drop, np.random.default_rng(0))
        before = copilot_proxy(cfg, drop, init.cells, 0, 1, init.cells[0][1])
        after = copilot_proxy(cfg, drop, plan.cells, 0, 1, plan.cells[0][1])
        assert after < before

    @pytest.mark.parametrize("kw", [
        dict(L=2, N=9, M=16, pilot_len=3, k_db=10.0),
        dict(L=2, N=12, M=64, pilot_len=4, k_model="distance",
             los_model="linear_prob", loc_err_var=9.0),
    ], ids=["fixed_k", "nlos_and_location_error"])
    def test_candidates_match_per_pair_oracle(self, kw):
        cfg = NetworkConfig(**kw)
        drop = sample_users(cfg, np.random.default_rng(20))
        weights = proxy_weights(cfg, drop)
        for seed in range(3):
            plan = allocate_random_iid(cfg, drop, np.random.default_rng(seed)).cells
            cand = candidate_proxies(weights, plan, cfg.pilot_len)
            assert cand.shape == (cfg.L * cfg.N, cfg.pilot_len)
            for cell, j, p in np.ndindex(cfg.L, cfg.N, cfg.pilot_len):
                assert cand[cell * cfg.N + j, p] == pytest.approx(
                    copilot_proxy(cfg, drop, plan, cell, j, p), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("kw", PLAN_IDENTITY_CONFIGS.values(), ids=PLAN_IDENTITY_CONFIGS)
    def test_weights_equal_per_cell_oracle(self, kw):
        cfg = NetworkConfig(**kw)
        for d in range(20):
            drop = sample_users(cfg, np.random.default_rng([52, d]))
            assert np.array_equal(proxy_weights(cfg, drop), proxy_weights_per_cell(cfg, drop))

    def test_deterministic_given_seed(self):
        cfg = NetworkConfig(L=2, N=9, M=16, pilot_len=3, k_db=10.0)
        drop = sample_users(cfg, np.random.default_rng(12))
        a = allocate_greedy(cfg, drop, np.random.default_rng(13))
        b = allocate_greedy(cfg, drop, np.random.default_rng(13))
        assert np.array_equal(a.cells, b.cells)

    def test_stays_balanced(self):
        for seed in range(10):
            cfg = NetworkConfig(L=2, N=9, M=16, pilot_len=3, k_db=10.0)
            drop = sample_users(cfg, np.random.default_rng(seed))
            plan = allocate_greedy(cfg, drop, np.random.default_rng(seed + 100))
            for cell in range(cfg.L):
                assert is_balanced(plan.cells[cell], cfg.pilot_len)


def search_order(cfg):
    """Every plan of `exhaustive_search`, as (L, N) tuples, in the order given."""
    return [tuple(map(tuple, plan.cells.tolist()))
            for block in exhaustive_search(cfg) for plan in block]


class TestExhaustive:
    def test_enumerates_sixteen_plans(self):
        cfg = cfg_for()
        seen = search_order(cfg)
        assert len(seen) == len(set(seen)) == 16
        # the lexicographically lowest plan comes first
        assert seen[0] == ((0, 0, 0, 0),)

    def test_single_user_space(self):
        cfg = cfg_for(N=1)
        assert search_order(cfg) == [((p,),) for p in range(cfg.pilot_len)]

    def test_space_guard(self):
        # the guard raises before the first block, so no plan is scored
        cfg = cfg_for(N=10, pilot_len=4)
        scored = []
        with pytest.raises(ConfigError, match="1048576"):
            for block in exhaustive_search(cfg):
                scored.extend(block)
        assert scored == []

    def test_argmax_returned_with_its_score(self):
        # scores concatenated block by block put each plan's score at its
        # `plan_index`, the best one's too
        cfg = cfg_for(N=3)
        rng = np.random.default_rng(19)
        table = {}

        def score(plans):
            for plan in plans:
                table.setdefault(tuple(plan.cells[0].tolist()), float(rng.uniform()))
            return np.array([table[tuple(p.cells[0].tolist())] for p in plans])

        scores = np.concatenate([score(block) for block in exhaustive_search(cfg)])
        best_key = max(table, key=table.get)
        assert np.argmax(scores) == plan_index(cfg, AllocationPlan([best_key]))
        assert scores.max() == table[best_key]

    def test_blocks_keep_order_and_first_of_ties(self, monkeypatch):
        # 2**6 plans in blocks of 5: lexicographic order across blocks, so
        # the first of tied scores is the lowest tied plan
        monkeypatch.setattr(allocators, "_SCORE_BLOCK", 5)
        cfg = cfg_for(N=6)
        blocks = list(exhaustive_search(cfg))
        assert [len(block) for block in blocks] == [5] * 12 + [4]
        seen = [tuple(p.cells[0].tolist()) for block in blocks for p in block]
        assert seen == sorted(seen) and len(set(seen)) == 64
        scores = np.array([float(sum(k) == 3) for k in seen])
        assert np.argmax(scores) == plan_index(cfg, AllocationPlan([(0, 0, 0, 1, 1, 1)]))

    def test_plan_index_is_the_position_the_scorer_sees(self):
        # two cells of two users on three pilots: 81 plans, cell 0 the
        # leading digits
        cfg = cfg_for(L=2, N=2, pilot_len=3)
        seen = [plan for block in exhaustive_search(cfg) for plan in block]
        assert len(seen) == 81
        assert [plan_index(cfg, plan) for plan in seen] == list(range(81))
        assert plan_index(cfg, AllocationPlan([[0, 0], [0, 1]])) == 1
        assert plan_index(cfg, AllocationPlan([[1, 0], [0, 0]])) == 27

    def test_plan_index_of_a_one_pilot_space_is_zero(self):
        # 72 users on one pilot: one plan, at position 0; 72 digits are more
        # axes than np.ravel_multi_index takes on numpy 1.25
        cfg = cfg_for(L=2, N=36, pilot_len=1)
        assert search_order(cfg) == [((0,) * 36,) * 2]
        assert plan_index(cfg, AllocationPlan(np.zeros((2, 36), dtype=int))) == 0
