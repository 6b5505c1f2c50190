"""Pilot allocation strategies.

Five allocators share one signature, (cfg, drop, rng) -> AllocationPlan:

* loc_aware  — tiered location-aware assignment driven by the pairwise LOS
               interference score (the main algorithm).
* random     — balanced uniform assignment, the usual baseline; the
               random_iid variant draws pilots i.i.d. per user instead.
* greedy     — iterative repair of the worst large-scale-interference user.
* sector     — equal angular sectors, one pilot per sector.
* exhaustive — brute-force argmax of a scorer over every assignment
               (small scenarios only), scored a block of plans at a time.

loc_aware and greedy read the (L*N, L*N) pair-score matrix that
`los_metric.los_interference` returns per BS; users are flattened
cell-major there (cell * N + user).
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from .los_metric import los_interference
from .model import TWO_PI, ConfigError, Drop, NetworkConfig
from .pilots import AllocationPlan

# largest search space `exhaustive_search` enumerates
MAX_PLANS = 10 ** 6

# most plans `exhaustive_search` hands its scorer in one call
_SCORE_BLOCK = 256

# most repair moves `allocate_greedy` makes
_GREEDY_MAX_ITERS = 10


def partition_tiers(drop: Drop, cell: int, pilot_len: int) -> list[np.ndarray]:
    """One cell's user indices in tiers of pilot_len, closest first.

    Users are sorted by estimated distance at the serving BS; ties break on
    estimated angle and then the user index. Every tier except possibly the
    last has exactly pilot_len members.
    """
    dist, aoa = drop.dist_est[cell, :, cell], drop.aoa_est[cell, :, cell]
    order = np.lexsort((np.arange(dist.size), aoa, dist))
    return [order[start:start + pilot_len] for start in range(0, dist.size, pilot_len)]


def allocate_loc_aware(cfg: NetworkConfig, drop: Drop,
                       rng: np.random.Generator | None = None) -> AllocationPlan:
    """Tiered assignment minimizing average LOS interference.

    Cell 0 first, then the rest in index order. In each cell the closest
    tier takes the pilots in order of estimated distance; every later user
    (closest first) takes the pilot, still unused inside its tier, whose
    already-assigned co-pilot users — earlier tiers of the same cell plus
    every previously finished cell — have the smallest mean interference
    score toward it. Ties go to the lowest pilot index. Deterministic.
    """
    n_pilots, N = cfg.pilot_len, cfg.N
    plan = np.full((cfg.L, N), -1, dtype=int)
    holders: list[list[int]] = [[] for _ in range(n_pilots)]   # flat user indices

    for cell in range(cfg.L):
        tiers = partition_tiers(drop, cell, n_pilots)
        # [reference, interferer]: a row per user of this cell
        scores = los_interference(drop, cell, cfg.M).T
        for slot, j in enumerate(tiers[0]):
            plan[cell, j] = slot
            holders[slot].append(cell * N + j)
        for tier in tiers[1:]:
            # a tier's own picks land on pilots closed to the rest of the
            # tier, so every mean the tier compares is fixed before it starts
            means = np.array([scores[np.ix_(cell * N + tier, h)].mean(axis=1)
                              for h in holders])          # (n_pilots, tier)
            free = np.ones(n_pilots, dtype=bool)
            for col, j in enumerate(tier):
                open_pilots = np.flatnonzero(free)
                pilot = int(open_pilots[np.argmin(means[open_pilots, col])])
                plan[cell, j] = pilot
                free[pilot] = False
                holders[pilot].append(cell * N + j)

    return AllocationPlan(cells=plan, allocator="loc_aware")


def allocate_random(cfg: NetworkConfig, drop: Drop | None,
                    rng: np.random.Generator) -> AllocationPlan:
    """Balanced random assignment: the pilot multiset shuffled per cell.

    Which pilots get the extra use when N is not a multiple of pilot_len is
    itself randomized, so all balanced assignments are equally likely.
    """
    n_pilots = cfg.pilot_len
    plan = np.empty((cfg.L, cfg.N), dtype=int)
    for cell in range(cfg.L):
        labels = rng.permutation(n_pilots)
        seq = np.array([labels[t % n_pilots] for t in range(cfg.N)])
        rng.shuffle(seq)
        plan[cell] = seq
    return AllocationPlan(cells=plan, allocator="random")


def allocate_random_iid(cfg: NetworkConfig, drop: Drop | None,
                        rng: np.random.Generator) -> AllocationPlan:
    """Each user draws a pilot i.i.d. uniformly, so per-pilot reuse counts
    fluctuate: the heavier collision tail the simple baseline has in practice."""
    return AllocationPlan(cells=rng.integers(0, cfg.pilot_len, size=(cfg.L, cfg.N)),
                          allocator="random_iid")


def allocate_sector(cfg: NetworkConfig, drop: Drop,
                    rng: np.random.Generator | None = None) -> AllocationPlan:
    """One pilot per equal angular sector, same grid in every cell.

    Sector plans need not be balanced: co-located users share a pilot by
    construction.
    """
    width = TWO_PI / cfg.pilot_len
    sectors = (Drop.serving(drop.aoa_est) // width).astype(int)
    return AllocationPlan(cells=np.minimum(sectors, cfg.pilot_len - 1),
                          allocator="sector")


def proxy_weights(cfg: NetworkConfig, drop: Drop) -> np.ndarray:
    """Greedy's (L*N, L*N) interference weights [interferer, reference].

    At the reference user's serving BS: the interferer's estimated gain over
    the reference's own, plus the pair's LOS interference score. Zero on the
    diagonal, so a user never counts against itself.
    """
    N = cfg.N
    weights = np.empty((cfg.L * N, cfg.L * N))
    for cell in range(cfg.L):
        refs = slice(cell * N, (cell + 1) * N)
        gain = drop.alpha_est[:, :, cell].reshape(-1)
        weights[:, refs] = (gain[:, None] / gain[None, refs]
                            + los_interference(drop, cell, cfg.M)[:, refs])
    np.fill_diagonal(weights, 0.0)
    return weights


def candidate_proxies(weights: np.ndarray, plan: np.ndarray,
                      n_pilots: int) -> np.ndarray:
    """(L*N, n_pilots) proxy of every user if it held each pilot, summed over
    the co-pilot users of `plan`."""
    holds = plan.reshape(-1, 1) == np.arange(n_pilots)
    return weights.T @ holds.astype(float)


def allocate_greedy(cfg: NetworkConfig, drop: Drop, rng: np.random.Generator) -> AllocationPlan:
    """Iterative repair: move the worst-proxy user to its best pilot.

    Starts from a random balanced plan. Each iteration scores every user
    with the co-pilot interference proxy, picks the worst, and reassigns it
    to the pilot minimizing its own proxy (ties to the lowest pilot); if the
    move would unbalance the cell, the displaced pilot is swapped onto the
    cell member of the target pilot with the cheapest proxy under it. Stops
    on no strict improvement or after `_GREEDY_MAX_ITERS` moves.
    """
    plan = allocate_random(cfg, drop, rng).cells
    n_pilots, N = cfg.pilot_len, cfg.N
    lo, hi = N // n_pilots, -(-N // n_pilots)
    weights = proxy_weights(cfg, drop)

    for _ in range(_GREEDY_MAX_ITERS):
        cand = candidate_proxies(weights, plan, n_pilots)
        proxies = cand[np.arange(cand.shape[0]), plan.ravel()]
        worst = int(np.argmax(proxies))
        cell, j = divmod(worst, N)
        current = plan[cell, j]
        best_pilot = int(np.argmin(cand[worst]))
        if not cand[worst, best_pilot] < proxies[worst]:
            break
        counts = np.bincount(plan[cell], minlength=n_pilots)
        counts[current] -= 1
        counts[best_pilot] += 1
        if counts[current] < lo or counts[best_pilot] > hi:
            # keep the cell balanced: hand `current` to the cheapest holder
            partners = np.flatnonzero(plan[cell] == best_pilot)
            partners = partners[partners != j]
            plan[cell, partners[np.argmin(cand[cell * N + partners, current])]] = current
        plan[cell, j] = best_pilot

    return AllocationPlan(cells=plan, allocator="greedy")


def search_space_size(cfg: NetworkConfig) -> int:
    """Number of plans `exhaustive_search` enumerates; ConfigError above MAX_PLANS."""
    per_cell_count = cfg.pilot_len ** cfg.N
    total = per_cell_count ** cfg.L
    if total > MAX_PLANS:
        raise ConfigError(
            f"exhaustive search space has {total} plans "
            f"({per_cell_count} per cell over {cfg.L} cells), limit {MAX_PLANS}")
    return total


def exhaustive_search(cfg: NetworkConfig,
                      score: Callable[[list[AllocationPlan]], np.ndarray]
                      ) -> tuple[AllocationPlan, float]:
    """Brute-force argmax of `score` over every per-cell assignment.

    Enumerates pilots**N assignments per cell (their product across cells)
    in lexicographic order and hands them to `score` in blocks of at most
    _SCORE_BLOCK plans; `score` maps a list of plans to a (P,) array. It
    should score every block on the same RNG seed so candidates are
    compared on common random numbers. Ties keep the first (lowest) plan.
    Refuses search spaces larger than MAX_PLANS.
    """
    search_space_size(cfg)
    n_pilots = cfg.pilot_len
    per_cell = list(itertools.product(range(n_pilots), repeat=cfg.N))
    combos = itertools.product(per_cell, repeat=cfg.L)

    best_plan = None
    best_score = -np.inf
    while block := [AllocationPlan(cells=np.array(combo, dtype=int), allocator="exhaustive")
                    for combo in itertools.islice(combos, _SCORE_BLOCK)]:
        scores = np.asarray(score(block), dtype=float)
        if scores.shape != (len(block),):
            raise ValueError(f"scorer returned shape {scores.shape} "
                             f"for {len(block)} plans")
        k = int(np.argmax(scores))
        if scores[k] > best_score:
            best_score = float(scores[k])
            best_plan = block[k]
    assert best_plan is not None
    return best_plan, best_score


ALLOCATORS: dict[str, Callable] = {
    "loc_aware": allocate_loc_aware,
    "random": allocate_random,
    "random_iid": allocate_random_iid,
    "greedy": allocate_greedy,
    "sector": allocate_sector,
}
