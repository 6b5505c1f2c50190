"""Experiment runner: sweeps, CDF tables, oracle comparison, CSV output.

A drop is one set of user locations; within a drop every allocator is
evaluated on identical channel realizations (common random numbers), so
allocator comparisons are paired. All randomness of a run derives from
SeedSequence([seed, d, purpose]) for its drops d, and no draw is made outside
a drop, which makes runs reproducible and thread-count independent.

`evaluate_drops` and `run_oracle_compare` map a module-level drop function,
`_drop_se` or `_drop_ratios`, over the drop indices with `_for_each_drop`
and stack what it returns into one array per allocator, indexed by drop.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from .allocators import ALLOCATORS, exhaustive_search, search_space_size
from .detection import estimate_sinr, spectral_efficiency
from .model import ConfigError, Drop, NetworkConfig, check_field_types, sample_users
from .pilots import AllocationPlan

CDF_HEADER = ("allocator", "value_bits_hz", "cum_prob")

# purpose tags for per-drop substreams
_STREAM_USERS = 0
_STREAM_SINR = 1
_STREAM_ALLOC = 2  # + allocator position


@dataclass
class ExperimentSpec:
    """One experiment: a config, an optional sweep, and run sizes."""

    cfg: NetworkConfig = field(default_factory=NetworkConfig)
    name: str = "experiment"
    sweep: str | None = None               # "M" | "loc_err_var" | None
    values: tuple = ()
    allocators: tuple[str, ...] = ("loc_aware", "random")
    drops: int = 200
    trials: int = 100
    seed: int = 0
    out: str | None = None
    threads: int = 1
    n_worst: int = 5

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"name must be a string, got {self.name!r}")
        if not isinstance(self.out, (str, type(None))) or self.out == "":
            raise ConfigError(f"out must be a string naming a file, got {self.out!r}")
        for name in ("values", "allocators"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{name} must be a list, got {value!r}")
            setattr(self, name, tuple(value))
        if self.sweep not in (None, "M", "loc_err_var"):
            raise ConfigError(f"unknown sweep axis {self.sweep!r}")
        if self.sweep is not None and not self.values:
            raise ConfigError("sweep requested but no sweep values given")
        if self.sweep is None and self.values:
            raise ConfigError(f"sweep values {list(self.values)} given but no sweep axis")
        unknown = [a for a in self.allocators if not isinstance(a, str) or a not in ALLOCATORS]
        if unknown:
            raise ConfigError(f"unknown allocators {unknown}; "
                              f"valid: {sorted(ALLOCATORS)}")
        if not self.allocators:
            raise ConfigError("need at least one allocator")
        repeated = sorted({a for a in self.allocators if self.allocators.count(a) > 1})
        if repeated:
            raise ConfigError(f"allocators named more than once: {repeated}")
        check_field_types(self)
        for name in ("drops", "threads", "n_worst"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.trials < 2:
            raise ConfigError(f"need at least 2 trials, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.sweep is not None:     # a bad point, or one named twice, fails before any drop
            for value in self.values:
                replace(self.cfg, **{self.sweep: value})
            repeated = sorted({v for v in self.values if self.values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{self.sweep} sweep points named more than once: {repeated}")


@dataclass
class ResultRow:
    """One CSV row: an allocator's mean sum SE in one cell at one sweep point;
    the fields are the columns, and each follows from the spec alone."""

    experiment: str
    allocator: str
    sweep_name: str
    sweep_value: float
    cell: int
    sum_se_bits_hz: float
    stderr: float
    drops: int
    trials: int
    seed: int


CSV_HEADER = tuple(f.name for f in fields(ResultRow))


def _rng(seed: int, d: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, d, purpose]))


def _check_plan(cfg: NetworkConfig, name: str, plan: AllocationPlan) -> None:
    """Raise unless allocator `name`'s plan gives every user a pilot in range."""
    cells = plan.cells
    if cells.shape != (cfg.L, cfg.N):
        raise RuntimeError(f"allocator {name!r} returned a plan of shape "
                           f"{cells.shape}, expected {(cfg.L, cfg.N)}")
    if cells.min() < 0 or cells.max() >= cfg.pilot_len:
        raise RuntimeError(f"allocator {name!r} assigned a pilot outside "
                           f"[0, {cfg.pilot_len}): {cells.tolist()}")


def _drop_plans(cfg: NetworkConfig, allocators: tuple[str, ...], seed: int,
                d: int) -> tuple[Drop, list[AllocationPlan]]:
    """Location drop d and every allocator's plan for it, each checked."""
    drop = sample_users(cfg, _rng(seed, d, _STREAM_USERS))
    plans = [ALLOCATORS[name](cfg, drop, _rng(seed, d, _STREAM_ALLOC + pos))
             for pos, name in enumerate(allocators)]
    for name, plan in zip(allocators, plans):
        _check_plan(cfg, name, plan)
    return drop, plans


def _plan_se(cfg: NetworkConfig, drop: Drop, plans: list[AllocationPlan],
             trials: int, seed: int, d: int, prefetch: bool) -> np.ndarray:
    """(P, L, N) per-user SE of `plans` on drop d's SINR stream.

    Every call starts a fresh generator from the drop's one SINR seed, and a
    plan's SINR does not depend on the other plans of its call, so plans
    scored in different calls still see the same channel draws. `prefetch`
    goes to `estimate_sinr` and cannot change the result.
    """
    sinr = estimate_sinr(cfg, drop, plans, trials, _rng(seed, d, _STREAM_SINR),
                         prefetch=prefetch)
    return spectral_efficiency(sinr, cfg.pilot_len, cfg.coherence_len)


def _drop_se(cfg: NetworkConfig, allocators: tuple[str, ...], trials: int,
             seed: int, d: int, prefetch: bool = False) -> np.ndarray:
    """Drop d's (P, L, N) per-user SE, one row per allocator."""
    return _plan_se(cfg, *_drop_plans(cfg, allocators, seed, d), trials, seed, d,
                    prefetch)


def _drop_ratios(cfg: NetworkConfig, allocators: tuple[str, ...], trials: int,
                 seed: int, d: int, prefetch: bool = False) -> np.ndarray:
    """Drop d's (P,) ratios of each allocator's cell-0 sum SE to the
    exhaustive-search optimum; `score` gives its plans and every candidate
    the same channel draws, so each ratio is <= 1 by construction."""
    drop, plans = _drop_plans(cfg, allocators, seed, d)

    def score(block: list[AllocationPlan]) -> np.ndarray:
        return _plan_se(cfg, drop, block, trials, seed, d, prefetch)[:, 0].sum(axis=-1)

    _, best = exhaustive_search(cfg, score)
    return score(plans) / best


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity mask where the
    platform reports one (a `taskset` or cgroup limit), else the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _for_each_drop(fn, drops: int, threads: int) -> list:
    """[fn(d, prefetch=...) for d in range(drops)] in drop order, on
    min(threads, drops, usable cores) worker threads when that is above one,
    else in a plain loop.

    The harness owns the CPU budget. Only a plain loop on more than one
    usable core leaves a core idle, so only then does each drop's
    `estimate_sinr` draw ahead on one helper thread (`prefetch`); worker
    threads already keep the cores busy and start no helper.
    """
    cores = _usable_cores()
    workers = min(threads, drops, cores)
    run = partial(fn, prefetch=workers == 1 and cores > 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, range(drops)))
    return [run(d) for d in range(drops)]


def evaluate_drops(cfg: NetworkConfig, allocators: tuple[str, ...], drops: int,
                   trials: int, seed: int, threads: int = 1) -> dict[str, np.ndarray]:
    """Per-user SE arrays of shape (drops, L, N) for each allocator.

    Each drop's SE comes from `_drop_se` on the drop's own seeds and is
    stacked in drop order, so the output is identical for any thread count.
    The arguments must make a valid `ExperimentSpec`, else ConfigError.
    """
    spec = ExperimentSpec(cfg=cfg, allocators=allocators, drops=drops, trials=trials,
                          seed=seed, threads=threads)
    se = np.stack(_for_each_drop(partial(_drop_se, cfg, spec.allocators, trials, seed),
                                 drops, threads), axis=1)
    return dict(zip(spec.allocators, se))


def standard_error(values: np.ndarray) -> float:
    """Standard error of the mean of `values`, std (ddof 0) / sqrt(size): the
    exact value a bootstrap of the mean estimates, and 0.0 for one value."""
    return float(np.std(values) / np.sqrt(np.size(values)))


def run_sweep(spec: ExperimentSpec) -> list[ResultRow]:
    """Evaluate every (sweep value, allocator, cell) combination.

    Mean sum SE over drops with its `standard_error`; one row per cell,
    |values| * |allocators| * L rows in total, the same at any thread count.
    """
    if spec.sweep is None:
        raise ConfigError(f"run_sweep needs a spec with a sweep, and {spec.name!r} has none")
    rows: list[ResultRow] = []
    for value in spec.values:
        cfg_v = replace(spec.cfg, **{spec.sweep: value})
        per_user = evaluate_drops(cfg_v, spec.allocators, spec.drops,
                                  spec.trials, spec.seed, spec.threads)
        for name in spec.allocators:
            sums = per_user[name].sum(axis=2)        # (D, L)
            for cell in range(cfg_v.L):
                rows.append(ResultRow(
                    experiment=spec.name, allocator=name, sweep_name=spec.sweep,
                    sweep_value=float(value),
                    cell=cell, sum_se_bits_hz=float(sums[:, cell].mean()),
                    stderr=standard_error(sums[:, cell]),
                    drops=spec.drops, trials=spec.trials, seed=spec.seed))
    return rows


def _check_no_sweep(spec: ExperimentSpec) -> None:
    if spec.sweep is not None:
        raise ConfigError(f"{spec.name!r} sweeps {spec.sweep}, but this runner "
                          f"evaluates one config and would ignore the sweep")


def worst_user_sums(per_user_se: np.ndarray, n_worst: int) -> np.ndarray:
    """Per drop, the summed SE of the n weakest users in cell 0."""
    return np.sort(per_user_se[:, 0, :], axis=1)[:, :n_worst].sum(axis=1)


def empirical_cdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted sample values with cumulative probabilities (1..n)/n."""
    v = np.sort(np.asarray(values, dtype=float))
    return v, np.arange(1, len(v) + 1) / len(v)


def run_worst_user_cdf(spec: ExperimentSpec) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Empirical CDF of the worst-n-user sum SE in cell 0, at a spec with no sweep."""
    _check_no_sweep(spec)
    if spec.n_worst > spec.cfg.N:
        raise ConfigError(f"n_worst={spec.n_worst} exceeds the {spec.cfg.N} "
                          f"users of a cell")
    per_user = evaluate_drops(spec.cfg, spec.allocators, spec.drops,
                              spec.trials, spec.seed, spec.threads)
    out = {}
    for name in spec.allocators:
        sums = worst_user_sums(per_user[name], spec.n_worst)
        out[name] = empirical_cdf(sums)
    return out


def run_oracle_compare(spec: ExperimentSpec) -> dict[str, np.ndarray]:
    """Per drop, each allocator's sum SE over the exhaustive-search optimum.

    Ratios of shape (drops,) per allocator, each drop's from `_drop_ratios`,
    which scores every plan with `_plan_se` on the drop's SINR stream; the
    spec must have no sweep.
    """
    _check_no_sweep(spec)
    search_space_size(spec.cfg)            # too large a search fails before any drop
    ratios = np.stack(_for_each_drop(partial(_drop_ratios, spec.cfg, spec.allocators,
                                             spec.trials, spec.seed),
                                     spec.drops, spec.threads), axis=1)
    return dict(zip(spec.allocators, ratios))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows_csv(rows: list[ResultRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([_fmt(getattr(r, f.name)) for f in fields(r)])


def write_cdf_csv(tables: dict[str, tuple[np.ndarray, np.ndarray]], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CDF_HEADER)
        for name, (values, probs) in tables.items():
            for v, p in zip(values, probs):
                writer.writerow([name, _fmt(float(v)), _fmt(float(p))])


def _read_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid config JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config JSON must be an object")
    return data


def load_spec(path=None, defaults: dict | None = None,
              overrides: dict | None = None) -> ExperimentSpec:
    """Build an ExperimentSpec from defaults < the JSON file at `path` < overrides.

    Each layer is a config document: NetworkConfig keys at the top level
    plus an optional "experiment" object with ExperimentSpec fields (sweep,
    values, allocators, drops, trials, seed, out, threads, n_worst, name).
    A later layer's keys replace an earlier one's, key by key, at the top
    level and inside "experiment"; `path` may be None.
    """
    data: dict = {}
    exp: dict = {}
    for layer in (defaults or {}, {} if path is None else _read_config(path),
                  overrides or {}):
        layer = dict(layer)
        layer_exp = layer.pop("experiment", {})
        if not isinstance(layer_exp, dict):
            raise ConfigError("'experiment' must be an object")
        data.update(layer)
        exp.update(layer_exp)
    cfg = NetworkConfig.from_dict(data)
    # the network config is the document's top level, not an experiment key
    unknown = sorted(set(exp) - ({f.name for f in fields(ExperimentSpec)} - {"cfg"}))
    if unknown:
        raise ConfigError(f"unknown experiment keys: {unknown}")
    return ExperimentSpec(cfg=cfg, **exp)
