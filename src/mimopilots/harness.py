"""Experiment runner: sweeps, CDF tables, oracle comparison, CSV output.

A drop is one set of user locations; within a drop every allocator is
evaluated on identical channel realizations (common random numbers), so
allocator comparisons are paired. Drop d of a run derives all its randomness
from SeedSequence([seed, d, purpose]), which makes runs reproducible and
thread-count independent.

`evaluate_drops` and `run_oracle_compare` take each drop through
`_drop_plans` and then `_plan_se`, and return one array per allocator,
indexed by drop.
"""

from __future__ import annotations

import csv
import json
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .allocators import ALLOCATORS, exhaustive_search, search_space_size
from .detection import estimate_sinr, spectral_efficiency
from .model import ConfigError, Drop, NetworkConfig, sample_users
from .pilots import AllocationPlan

CSV_HEADER = ("experiment", "allocator", "sweep_name", "sweep_value", "cell",
              "sum_se_bits_hz", "stderr", "drops", "trials", "seed", "wall_ms")

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
    seed: int | None = None                # defaults to cfg.seed
    out: str | None = None
    threads: int = 1
    n_worst: int = 5

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"name must be a string, got {self.name!r}")
        if not isinstance(self.out, (str, type(None))):
            raise ConfigError(f"out must be a string, got {self.out!r}")
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
        for name in ("drops", "trials", "threads", "n_worst", "seed"):
            value = getattr(self, name)
            if name == "seed" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.drops < 1:
            raise ConfigError("drops must be >= 1")
        if self.trials < 2:
            raise ConfigError(f"need at least 2 trials, got {self.trials}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.n_worst < 1:
            raise ConfigError("n_worst must be >= 1")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.sweep is not None:
            for value in self.values:    # a bad point fails before any drop runs
                _sweep_cfg(self.cfg, self.sweep, value)

    @property
    def master_seed(self) -> int:
        return self.cfg.seed if self.seed is None else self.seed


@dataclass
class ResultRow:
    """One CSV row: an allocator's mean sum SE in one cell at one sweep point.

    Fields are declared in CSV_HEADER's column order."""

    experiment: str
    allocator: str
    sweep_name: str
    sweep_value: float
    cell: int
    sum_se: float
    stderr: float
    drops: int
    trials: int
    seed: int
    wall_ms: int


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


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
             trials: int, seed: int, d: int) -> np.ndarray:
    """(P, L, N) per-user SE of `plans` on drop d's SINR stream.

    Every call starts a fresh generator from the drop's one SINR seed, and a
    plan's SINR does not depend on the other plans of its call, so plans
    scored in different calls still see the same channel draws.
    """
    sinr = estimate_sinr(cfg, drop, plans, trials, _rng(seed, d, _STREAM_SINR))
    return spectral_efficiency(sinr, cfg.pilot_len, cfg.coherence_len)


def _for_each_drop(work, drops: int, threads: int) -> None:
    """Run work(d) for every drop d, on `threads` worker threads when above one."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(drops)))
    else:
        for d in range(drops):
            work(d)


def evaluate_drops(cfg: NetworkConfig, allocators: tuple[str, ...], drops: int,
                   trials: int, seed: int, threads: int = 1) -> dict[str, np.ndarray]:
    """Per-user SE arrays of shape (drops, L, N) for each allocator.

    Drops are independent work units; results land in preallocated slots,
    so the output is identical for any thread count.
    """
    results = {name: np.empty((drops, cfg.L, cfg.N)) for name in allocators}

    def work(d: int) -> None:
        drop, plans = _drop_plans(cfg, allocators, seed, d)
        for name, se in zip(allocators, _plan_se(cfg, drop, plans, trials, seed, d)):
            results[name][d] = se

    _for_each_drop(work, drops, threads)
    return results


def bootstrap_stderr(values: np.ndarray, seed: int = 0) -> float:
    """Bootstrap standard error of the mean of `values` (1000 drop resamples)."""
    values = np.asarray(values, dtype=float)
    rng = _rng(seed, 0xB00)
    idx = rng.integers(0, len(values), size=(1000, len(values)))
    return float(np.std(values[idx].mean(axis=1)))


def _sweep_cfg(cfg: NetworkConfig, sweep: str | None, value) -> NetworkConfig:
    """The config at one sweep point; raises ConfigError for a bad value."""
    if sweep is None:
        return cfg
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{sweep} sweep values must be numbers, got {value!r}")
    if sweep == "M":
        if not float(value).is_integer():
            raise ConfigError(f"M sweep values must be integers, got {value!r}")
        return replace(cfg, M=int(value))
    return replace(cfg, loc_err_var=float(value))


def run_sweep(spec: ExperimentSpec, clock=time.perf_counter) -> list[ResultRow]:
    """Evaluate every (sweep value, allocator, cell) combination.

    Mean sum SE over drops with a 1000-resample bootstrap standard error;
    one row per cell, |values| * |allocators| * L rows in total.
    """
    seed = spec.master_seed
    values = spec.values if spec.sweep is not None else (None,)
    sweep_name = spec.sweep or "none"
    rows: list[ResultRow] = []
    for value in values:
        cfg_v = _sweep_cfg(spec.cfg, spec.sweep, value)
        t0 = clock()
        per_user = evaluate_drops(cfg_v, spec.allocators, spec.drops,
                                  spec.trials, seed, spec.threads)
        wall_ms = int(round((clock() - t0) * 1000.0))
        for name in spec.allocators:
            sums = per_user[name].sum(axis=2)        # (D, L)
            for cell in range(cfg_v.L):
                rows.append(ResultRow(
                    experiment=spec.name, allocator=name, sweep_name=sweep_name,
                    sweep_value=(0.0 if value is None else float(value)),
                    cell=cell, sum_se=float(sums[:, cell].mean()),
                    stderr=bootstrap_stderr(sums[:, cell], seed=seed),
                    drops=spec.drops, trials=spec.trials, seed=seed,
                    wall_ms=wall_ms))
    return rows


def worst_user_sums(per_user_se: np.ndarray, n_worst: int) -> np.ndarray:
    """Per drop, the summed SE of the n weakest users in the center cell."""
    return np.sort(per_user_se[:, 0, :], axis=1)[:, :n_worst].sum(axis=1)


def empirical_cdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted sample values with cumulative probabilities (1..n)/n."""
    v = np.sort(np.asarray(values, dtype=float))
    return v, np.arange(1, len(v) + 1) / len(v)


def run_worst_user_cdf(spec: ExperimentSpec) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Empirical CDF of the worst-n-user sum SE in the center cell."""
    if spec.n_worst > spec.cfg.N:
        raise ConfigError(f"n_worst={spec.n_worst} exceeds the {spec.cfg.N} "
                          f"users of a cell")
    per_user = evaluate_drops(spec.cfg, spec.allocators, spec.drops,
                              spec.trials, spec.master_seed, spec.threads)
    out = {}
    for name in spec.allocators:
        sums = worst_user_sums(per_user[name], spec.n_worst)
        out[name] = empirical_cdf(sums)
    return out


def run_oracle_compare(spec: ExperimentSpec) -> dict[str, np.ndarray]:
    """Per drop, each allocator's sum SE over the exhaustive-search optimum.

    Ratios of shape (drops,) per allocator. A plan's score is its cell-0
    sum SE from `_plan_se`, the scorer `exhaustive_search` runs on every
    candidate block, so the spec's plans and every candidate see the same
    channel draws (common random numbers) and each ratio is <= 1 by
    construction.
    """
    cfg = spec.cfg
    seed = spec.master_seed
    search_space_size(cfg)                 # too large a search fails before any drop
    ratios = {name: np.empty(spec.drops) for name in spec.allocators}

    def work(d: int) -> None:
        drop, plans = _drop_plans(cfg, spec.allocators, seed, d)

        def score(block: list[AllocationPlan]) -> np.ndarray:
            return _plan_se(cfg, drop, block, spec.trials, seed, d)[:, 0].sum(axis=-1)

        _, best = exhaustive_search(cfg, score)
        for name, own in zip(spec.allocators, score(plans)):
            ratios[name][d] = own / best

    _for_each_drop(work, spec.drops, spec.threads)
    return ratios


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
    unknown = sorted(set(exp) - {f.name for f in fields(ExperimentSpec)} - {"cfg"})
    if unknown:
        raise ConfigError(f"unknown experiment keys: {unknown}")
    return ExperimentSpec(cfg=cfg, **exp)
