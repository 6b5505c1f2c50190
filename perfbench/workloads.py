"""The benchmark's workloads: a problem size, the allocators and the trials.

Each workload is one closed loop of drops. `tail_pct` is the drop-time
percentile reported as `drop_ms.tail`; it is fixed per workload, so that
runs of two commits compare the same percentile, and chosen so that a run
of the default length leaves at least ten drops beyond it at the seed
commit's speed (a faster program only adds drops). `count_drops` is how
many leading traced drops the per-drop call counts are averaged over: a
fixed prefix, so that a count repeats exactly at a fixed seed.
"""

from __future__ import annotations

TABLE_SCALE: dict = {}          # the NetworkConfig defaults

WORKLOADS = {
    "table": {
        "config": TABLE_SCALE,
        "allocators": ("loc_aware", "random", "greedy"),
        "trials": 100,
        "tail_pct": 65,
        "count_drops": 4,
    },
    "desk": {
        "config": {"L": 2, "N": 12, "M": 64, "pilot_len": 4,
                   "k_model": "distance", "los_model": "linear_prob",
                   "loc_err_var": 9.0},
        "allocators": ("loc_aware", "sector", "random", "greedy"),
        "trials": 100,
        "tail_pct": 90,
        "count_drops": 10,
    },
    "alloc": {
        "config": TABLE_SCALE,
        "allocators": ("loc_aware", "greedy"),
        "trials": 2,
        "tail_pct": 97,
        "count_drops": 40,
    },
}

# SeedSequence purpose tags: measured drops and set-up warm-up drops never
# share a stream.
TAG_DROP = 0
TAG_WARMUP = 1
