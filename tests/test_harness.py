"""Experiment-runner and CLI tests (small scales; statistics live in acceptance)."""

import csv
import ctypes
import itertools
import json
import math
import pickle
import re
import sys
import tempfile
import types
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimopilots import checks, cli, harness
from mimopilots.cli import cli_main
from mimopilots.harness import (CSV_HEADER, ExperimentSpec, empirical_cdf,
                                evaluate_drops, load_spec, run_oracle_compare,
                                run_sweep, run_worst_user_cdf, standard_error,
                                worst_user_sums, write_cdf_csv, write_rows_csv)
from mimopilots.model import ConfigError, NetworkConfig
from mimopilots.pilots import AllocationPlan


def tiny_cfg(**kw):
    base = dict(L=2, N=4, M=8, pilot_len=2)
    base.update(kw)
    return NetworkConfig(**base)


# the `mimopilots oracle` command's network: 16 plans
ORACLE_CFG = harness.load_spec(defaults=cli.DEFAULTS["oracle"]).cfg


def no_monte_carlo(*args, **kwargs):
    raise RuntimeError("a drop ran before the config was rejected")


# a config document with network keys only: every experiment field is the command's
NETWORK_ONLY = {"L": 1, "N": 2, "M": 8, "pilot_len": 2}


def write_config(tmp_path, doc) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def tiny_spec(**kw):
    base = dict(cfg=tiny_cfg(), name="tiny", sweep="M", values=(8,),
                allocators=("loc_aware", "random"), drops=2, trials=2, seed=3)
    base.update(kw)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(cfg=tiny_cfg(), sweep="bogus")
        with pytest.raises(ConfigError):
            ExperimentSpec(cfg=tiny_cfg(), sweep="M", values=())
        with pytest.raises(ConfigError):
            ExperimentSpec(cfg=tiny_cfg(), allocators=("nope",))
        with pytest.raises(ConfigError):
            ExperimentSpec(cfg=tiny_cfg(), drops=0)
        with pytest.raises(ConfigError, match="2 trials"):
            ExperimentSpec(cfg=tiny_cfg(), trials=1)
        with pytest.raises(ConfigError, match="M must be an integer"):
            ExperimentSpec(cfg=tiny_cfg(), sweep="M", values=(8, 8.5))
        with pytest.raises(ConfigError, match="loc_err_var must be a finite number"):
            ExperimentSpec(cfg=tiny_cfg(), sweep="loc_err_var", values=(0.0, "x"))
        with pytest.raises(ConfigError, match="no sweep axis"):
            ExperimentSpec(cfg=tiny_cfg(), values=(8, 16))
        with pytest.raises(ConfigError, match=r"more than once: \['greedy'\]"):
            ExperimentSpec(cfg=tiny_cfg(), allocators=("greedy", "random", "greedy"))
        with pytest.raises(ConfigError, match=r"M sweep points named more than once: \[8\]"):
            ExperimentSpec(cfg=tiny_cfg(), sweep="M", values=(8, 16, 8))
        with pytest.raises(ConfigError, match=r"more than once: \[0\]"):
            ExperimentSpec(cfg=tiny_cfg(), sweep="loc_err_var", values=(0, 3.0, 0.0))
        for bad in (dict(drops=2.0), dict(trials="3"), dict(threads=True),
                    dict(seed=1.5)):
            with pytest.raises(ConfigError, match="integer"):
                ExperimentSpec(cfg=tiny_cfg(), **bad)

    @pytest.mark.parametrize("field, bad", [
        ("M", 8.0), ("M", True), ("M", "8"),
        ("loc_err_var", math.nan), ("loc_err_var", "x"),
    ], ids=["float_m", "bool_m", "string_m", "nan_loc_err_var", "string_loc_err_var"])
    def test_sweep_value_follows_its_field_rule(self, field, bad):
        # a sweep point fails exactly as the same value as a top-level key
        with pytest.raises(ConfigError) as top:
            load_spec(overrides={**NETWORK_ONLY, field: bad})
        with pytest.raises(ConfigError) as point:
            load_spec(overrides={**NETWORK_ONLY,
                                 "experiment": {"sweep": field, "values": [bad]}})
        assert str(point.value) == str(top.value)
        assert str(top.value).startswith(f"{field} must be")

    def test_seed_defaults_to_zero(self):
        assert ExperimentSpec(cfg=tiny_cfg()).seed == 0
        assert tiny_spec(seed=9).seed == 9


class TestSweeps:
    def test_smoke_run_emits_valid_csv(self, tmp_path):
        rows = run_sweep(tiny_spec(drops=1, trials=2))
        path = tmp_path / "out.csv"
        write_rows_csv(rows, path)
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            body = list(reader)
        # the columns are ResultRow's field names; renaming a field must not
        # change the file
        assert tuple(header) == CSV_HEADER == (
            "experiment", "allocator", "sweep_name", "sweep_value", "cell",
            "sum_se_bits_hz", "stderr", "drops", "trials", "seed")
        assert len(body) == len(rows) > 0
        assert all(len(r) == len(CSV_HEADER) for r in body)
        assert all(float(r[5]) >= 0.0 for r in body)

    def test_row_count_invariant(self):
        spec = tiny_spec(values=(4, 8), drops=2, trials=2)
        rows = run_sweep(spec)
        assert len(rows) == 2 * 2 * spec.cfg.L  # values x allocators x cells

    def test_locerr_zero_matches_antenna_sweep_row(self):
        cfg = tiny_cfg(k_model="distance", los_model="linear_prob")
        kw = dict(cfg=cfg, drops=3, trials=3, allocators=("loc_aware",), seed=3)
        rows_m = run_sweep(ExperimentSpec(sweep="M", values=(cfg.M,), **kw))
        rows_e = run_sweep(ExperimentSpec(sweep="loc_err_var", values=(0.0,), **kw))
        for a, b in zip(rows_m, rows_e):
            # same pipeline, same seeds: well within two standard errors
            assert a.sum_se_bits_hz == pytest.approx(b.sum_se_bits_hz, abs=1e-12)

    def test_standard_error_scales_with_drops(self):
        rng = np.random.default_rng(0)
        x = rng.normal(10.0, 2.0, size=400)
        se_small = standard_error(x[:100])
        se_big = standard_error(x)
        # quadrupling the sample roughly halves the error bar
        assert se_big == pytest.approx(se_small / 2, rel=0.30)

    @pytest.mark.parametrize("drops", [2, 30, 120])
    def test_standard_error_is_the_bootstrap_limit(self, drops):
        rng = np.random.default_rng(drops)
        x = rng.gamma(2.0, 3.0, size=drops)
        resampled = x[rng.integers(0, drops, size=(20_000, drops))].mean(axis=1)
        assert standard_error(x) == pytest.approx(np.std(resampled), rel=0.03)

    def test_standard_error_of_one_drop_is_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert standard_error(np.array([4.2])) == 0.0

    @pytest.mark.parametrize("drops", [1, 3])
    def test_stderr_column_is_the_standard_error_of_drop_sums(self, drops):
        spec = tiny_spec(drops=drops, trials=3)
        rows = run_sweep(spec)
        per_user = evaluate_drops(spec.cfg, spec.allocators, drops, spec.trials, spec.seed)
        for row in rows:
            sums = per_user[row.allocator].sum(axis=2)[:, row.cell]
            assert row.sum_se_bits_hz == float(sums.mean())
            assert row.stderr == standard_error(sums)

    def test_spec_without_a_sweep_rejected(self):
        with pytest.raises(ConfigError, match="has none"):
            run_sweep(tiny_spec(sweep=None, values=()))

    @pytest.mark.parametrize("runner", [run_worst_user_cdf, run_oracle_compare],
                             ids=["worst_user_cdf", "oracle_compare"])
    def test_single_config_runners_reject_a_sweep(self, monkeypatch, runner):
        monkeypatch.setattr(harness, "estimate_sinr", no_monte_carlo)
        spec = tiny_spec(cfg=tiny_cfg(L=1, N=3), values=(16, 32), n_worst=2)
        with pytest.raises(ConfigError, match="sweeps M"):
            runner(spec)

    def test_every_stream_belongs_to_a_drop(self, monkeypatch):
        # every generator a run makes is keyed (seed, drop, purpose)
        keys, make = [], harness._rng
        monkeypatch.setattr(harness, "_rng", lambda *key: keys.append(key) or make(*key))
        spec = tiny_spec(cfg=tiny_cfg(L=1, N=3), drops=3, seed=7, n_worst=2)
        run_sweep(spec)
        run_worst_user_cdf(replace(spec, sweep=None, values=()))
        run_oracle_compare(replace(spec, sweep=None, values=()))
        purposes = harness._STREAM_ALLOC + len(spec.allocators)
        assert keys and all(len(key) == 3 and key[0] == spec.seed
                            and 0 <= key[1] < spec.drops and 0 <= key[2] < purposes
                            for key in keys), sorted(set(keys))


class TestWorstUserCdf:
    def test_cdf_shape_and_monotonicity(self):
        tables = run_worst_user_cdf(tiny_spec(sweep=None, values=(), drops=4,
                                              trials=2, n_worst=2))
        for values, probs in tables.values():
            assert len(values) == 4
            assert np.all(np.diff(values) >= 0)
            assert np.all(np.diff(probs) >= 0)
            assert probs[-1] == pytest.approx(1.0)

    def test_constant_values_make_a_step(self):
        values, probs = empirical_cdf(np.full(10, 2.5))
        assert np.all(values == 2.5)
        assert probs[-1] == 1.0

    def test_worst_user_sums_picks_smallest(self):
        se = np.zeros((1, 1, 4))
        se[0, 0] = [4.0, 1.0, 3.0, 2.0]
        assert worst_user_sums(se, 2)[0] == pytest.approx(3.0)

    def test_cdf_csv_schema(self, tmp_path):
        tables = {"loc_aware": (np.array([1.0, 2.0]), np.array([0.5, 1.0]))}
        path = tmp_path / "cdf.csv"
        write_cdf_csv(tables, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "allocator,value_bits_hz,cum_prob"
        assert lines[1] == "loc_aware,1.0,0.5"


class TestOracleCompare:
    def test_ratios_bounded_by_construction(self):
        # every spec allocator gets its own ratios, unchanged by the others
        cfg = NetworkConfig(L=1, N=3, M=8, pilot_len=2)
        spec = ExperimentSpec(cfg=cfg, drops=3, trials=4,
                              allocators=("random", "loc_aware"), seed=5)
        ratios = run_oracle_compare(spec)
        assert list(ratios) == ["random", "loc_aware"]
        for values in ratios.values():
            assert values.shape == (3,)
            assert np.all(values <= 1.0 + 1e-12)
        alone = run_oracle_compare(replace(spec, allocators=("loc_aware",)))
        assert np.array_equal(ratios["loc_aware"], alone["loc_aware"])

    def test_exhaustive_beats_every_allocator_on_shared_seed(self):
        from mimopilots.allocators import ALLOCATORS, exhaustive_search, plan_index
        from mimopilots.detection import estimate_sinr, spectral_efficiency
        from mimopilots.model import sample_users
        cfg = NetworkConfig(L=1, N=3, M=8, pilot_len=2, k_db=10.0)
        drop = sample_users(cfg, np.random.default_rng(6))

        def score(plans):
            sinr = estimate_sinr(cfg, drop, plans, 6, np.random.default_rng(7))
            return spectral_efficiency(sinr, cfg.pilot_len,
                                       cfg.coherence_len)[:, 0].sum(axis=-1)

        scores = np.concatenate([score(block) for block in exhaustive_search(cfg)])
        for name in ("loc_aware", "random", "greedy", "sector", "random_iid"):
            plan = ALLOCATORS[name](cfg, drop, np.random.default_rng(8))
            alone = score([plan])[0]
            assert alone <= scores.max() + 1e-12
            # the plan alone scores what it scored among the candidates
            assert alone == scores[plan_index(cfg, plan)]

    def test_candidate_scores_equal_single_plan_calls(self, monkeypatch):
        # one block per drop: scoring the whole candidate list in one call
        # gives every plan the score of its own single-plan call, bit for bit
        from mimopilots.detection import estimate_sinr, spectral_efficiency
        from mimopilots.model import sample_users
        cfg = NetworkConfig(L=2, N=2, M=8, pilot_len=2, k_model="distance",
                            los_model="linear_prob")
        spec = ExperimentSpec(cfg=cfg, drops=2, trials=5, allocators=("loc_aware",), seed=9)
        scored = []
        plan_se = harness._plan_se

        def recording_plan_se(cfg, drop, plans, *args):
            se = plan_se(cfg, drop, plans, *args)
            scored.append((plans, se[:, 0].sum(axis=-1)))
            return se

        monkeypatch.setattr(harness, "_plan_se", recording_plan_se)
        run_oracle_compare(spec)
        assert sum(len(plans) for plans, _ in scored) == 2 * 16
        for d, (plans, scores) in enumerate(scored):
            drop = sample_users(cfg, harness._rng(spec.seed, d, harness._STREAM_USERS))
            for plan, value in zip(plans, scores):
                sinr = estimate_sinr(cfg, drop, [plan], spec.trials,
                                     harness._rng(spec.seed, d, harness._STREAM_SINR))
                alone = spectral_efficiency(sinr, cfg.pilot_len, cfg.coherence_len)
                assert np.array_equal(value, alone[0, 0].sum())

    @pytest.mark.parametrize("helper", [True, False])
    def test_one_pass_equals_the_two_pass_reference(self, monkeypatch, helper):
        # the oracle config in blocks of 5 plans and chunks of 3 trials:
        # each ratio read from the candidates' scores is, bit for bit, the
        # allocator's plan scored alone over the largest candidate score
        from mimopilots import allocators, detection
        monkeypatch.setattr(allocators, "_SCORE_BLOCK", 5)
        L, N, M = ORACLE_CFG.L, ORACLE_CFG.N, ORACLE_CFG.M
        monkeypatch.setattr(detection, "_CHUNK_BYTES", 3 * 16 * L * M * L * N)
        names, trials, seed = tuple(harness.ALLOCATORS), 7, 5
        for d in range(2):
            drop, plans = harness._drop_plans(ORACLE_CFG, names, seed, d)

            def score(block):
                return harness._plan_se(ORACLE_CFG, drop, block, trials, seed, d,
                                        helper)[:, 0].sum(axis=-1)

            candidates = [AllocationPlan([combo]) for combo in
                          itertools.product(range(ORACLE_CFG.pilot_len), repeat=ORACLE_CFG.N)]
            reference = score(plans) / score(candidates).max()
            ratios = harness._drop_ratios(ORACLE_CFG, names, trials, seed, d, helper)
            assert np.array_equal(ratios, reference)

    def test_one_sinr_call_per_block(self, monkeypatch):
        # 16 plans in blocks of 5 are 4 SINR calls per drop; the allocators'
        # plans take none of their own
        from mimopilots import allocators
        monkeypatch.setattr(allocators, "_SCORE_BLOCK", 5)
        calls = []
        estimate = harness.estimate_sinr

        def counted(cfg, drop, plans, *args, **kwargs):
            calls.append(len(plans))
            return estimate(cfg, drop, plans, *args, **kwargs)

        monkeypatch.setattr(harness, "estimate_sinr", counted)
        run_oracle(ORACLE_CFG, tuple(harness.ALLOCATORS), 3, 2, seed=4)
        assert calls == [5, 5, 5, 1] * 3

    def test_out_of_range_plan_names_loc_aware(self, monkeypatch):
        cfg = NetworkConfig(L=1, N=3, M=8, pilot_len=2)
        monkeypatch.setitem(harness.ALLOCATORS, "loc_aware",
                            lambda cfg, drop, rng=None: AllocationPlan([[0, 1, 2]],
                                                                       "loc_aware"))
        spec = ExperimentSpec(cfg=cfg, drops=1, trials=2, allocators=("loc_aware",), seed=5)
        with pytest.raises(RuntimeError, match="allocator 'loc_aware'"):
            run_oracle_compare(spec)


def run_evaluate(cfg, allocators, drops, trials, seed, threads=1):
    return evaluate_drops(cfg, allocators, drops, trials, seed, threads)


def run_oracle(cfg, allocators, drops, trials, seed, threads=1):
    return run_oracle_compare(ExperimentSpec(cfg=cfg, allocators=allocators, drops=drops,
                                             trials=trials, seed=seed, threads=threads))


def inline_pool(monkeypatch) -> list:
    """Replace the harness's thread pool by one that maps inline; returns
    the list of the worker counts it is started with."""
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", InlinePool)
    return started


class TestThreadsAndDeterminism:
    @pytest.mark.parametrize("run, cfg", [
        (run_evaluate, tiny_cfg()), (run_oracle, tiny_cfg(L=1, N=3)),
    ], ids=["evaluate_drops", "run_oracle_compare"])
    def test_thread_count_does_not_change_results(self, run, cfg):
        a = run(cfg, ("loc_aware", "random"), 4, 3, seed=1, threads=1)
        b = run(cfg, ("loc_aware", "random"), 4, 3, seed=1, threads=8)
        assert list(a) == list(b) == ["loc_aware", "random"]
        for name in a:
            assert np.array_equal(a[name], b[name])

    @pytest.mark.parametrize("fn, run", [
        (harness._drop_se, run_evaluate), (harness._drop_ratios, run_oracle),
    ], ids=["drop_se", "drop_ratios"])
    def test_drop_function_partial_pickles(self, fn, run):
        # no process pool runs the drops, but a pickled partial stays a
        # drop function, which keeps ROADMAP item 5's worker-process design open
        cfg, allocators, trials, seed = tiny_cfg(L=1, N=3), ("loc_aware", "random"), 3, 1
        work = pickle.loads(pickle.dumps(partial(fn, cfg, allocators, trials, seed)))
        results = run(cfg, allocators, 2, trials, seed)
        for d in range(2):
            for name, value in zip(allocators, work(d)):
                assert np.array_equal(value, results[name][d])

    def test_zero_drops_rejected(self):
        with pytest.raises(ConfigError, match="drops must be >= 1"):
            evaluate_drops(tiny_cfg(), ("loc_aware",), 0, 2, 1)

    @pytest.mark.parametrize("allocators, drops, message", [
        ((), 1, "at least one allocator"),
        (("loc_aware", "loc_aware"), 1, r"more than once: \['loc_aware'\]"),
        (("nope",), 1, r"unknown allocators \['nope'\]"),
        (("loc_aware",), True, "drops must be an integer"),
    ], ids=["no_allocator", "repeated_allocator", "unknown_allocator", "bool_drops"])
    def test_arguments_follow_the_spec_rules(self, monkeypatch, allocators, drops,
                                             message):
        monkeypatch.setattr(harness, "estimate_sinr", no_monte_carlo)
        with pytest.raises(ConfigError, match=message):
            evaluate_drops(tiny_cfg(), allocators, drops, 2, 1)

    @pytest.mark.parametrize("threads, drops, cores, workers", [
        (64, 3, 4, 3), (64, 10, 4, 4), (2, 10, 4, 2), (8, 1, 4, None),
        (8, 10, 1, None), (8, 10, None, None), (1, 10, 4, None),
    ])
    def test_pool_is_bounded_by_drops_and_cores(self, monkeypatch, threads, drops,
                                                cores, workers):
        # min(threads, drops, cores) workers, and no pool at all when that is 1;
        # without an affinity mask the host's count is used, 1 if unknown
        started = inline_pool(monkeypatch)
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
        assert harness._for_each_drop(lambda d, helper: d * d, drops, threads) == [
            d * d for d in range(drops)]
        assert started == ([] if workers is None else [workers])

    @pytest.mark.parametrize("threads, drops, cores, helper", [
        (1, 3, 2, True), (8, 1, 2, True), (2, 3, 2, False), (1, 3, 1, False),
    ])
    def test_only_a_plain_loop_on_several_cores_draws_ahead(self, monkeypatch, threads,
                                                             drops, cores, helper):
        # one worker on 2 cores (also when one drop caps the pool) leaves a
        # core for the SINR helper worker; 2 workers or 1 core leave none
        inline_pool(monkeypatch)
        monkeypatch.setattr(harness, "_usable_cores", lambda: cores)
        monkeypatch.setattr(harness, "_blas_threads", lambda: 1)
        assert harness._for_each_drop(lambda d, helper: helper, drops,
                                      threads) == [helper] * drops

    @pytest.mark.parametrize("blas", [2, 64, None])
    def test_a_multi_threaded_or_unknown_blas_starts_no_helper(self, monkeypatch, blas):
        # BLAS threads already take the spare cores, and a BLAS that cannot
        # be asked may; the plain loop then scores on one worker
        inline_pool(monkeypatch)
        monkeypatch.setattr(harness, "_usable_cores", lambda: 8)
        monkeypatch.setattr(harness, "_blas_threads", lambda: blas)
        assert harness._for_each_drop(lambda d, helper: helper, 3, 1) == [False] * 3

    def test_blas_threads_are_asked_of_the_library_at_each_call(self, monkeypatch):
        counts = iter([1, 4])
        monkeypatch.setattr(harness, "_blas_thread_query", lambda: lambda: next(counts))
        assert [harness._blas_threads(), harness._blas_threads()] == [1, 4]
        monkeypatch.setattr(harness, "_blas_thread_query", lambda: None)
        assert harness._blas_threads() is None

    def test_the_loaded_blas_is_found(self, monkeypatch):
        # numpy's OpenBLAS (the wheels' build) is found through numpy's
        # linalg extension and reports at least one thread; where that
        # extension cannot be opened or nothing it links exports a query,
        # the count is unknown
        threads = harness._blas_threads()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if sys.platform.startswith("linux") and "openblas" in str(blas.get("name")):
            assert threads is not None
        assert threads is None or threads >= 1

        harness._blas_thread_query.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(harness, "_BLAS_THREAD_QUERIES", ("no_such_query",))
                assert harness._blas_thread_query() is None
            harness._blas_thread_query.cache_clear()
            with monkeypatch.context() as patch:
                patch.setattr(harness, "_umath_linalg",
                              types.SimpleNamespace(__file__="/no/such/library.so"))
                assert harness._blas_thread_query() is None
        finally:
            harness._blas_thread_query.cache_clear()

    def test_numpys_blas_is_asked_when_scipys_is_loaded(self):
        # scipy's wheels load an OpenBLAS of their own; set to another
        # thread count than numpy's, it is not the library asked. Both
        # counts are restored afterwards
        fblas = pytest.importorskip("scipy.linalg._fblas")

        def openblas_threads(path):
            lib = ctypes.CDLL(path)
            for name in harness._BLAS_THREAD_QUERIES:
                get = getattr(lib, name, None)
                put = getattr(lib, name.replace("_get_", "_set_"), None)
                if "openblas" in name and get is not None and put is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    put.restype, put.argtypes = None, [ctypes.c_int]
                    return get, put
            pytest.skip(f"no OpenBLAS thread-count functions through {path}")

        numpy_get, numpy_set = openblas_threads(harness._umath_linalg.__file__)
        scipy_get, scipy_set = openblas_threads(fblas.__file__)
        before = numpy_get(), scipy_get()
        try:
            for mine, theirs in ((1, 2), (2, 1)):
                numpy_set(mine)
                scipy_set(theirs)
                if numpy_get() == scipy_get():
                    pytest.skip("numpy's and scipy's BLAS counts cannot be set apart")
                assert harness._blas_threads() == numpy_get()
        finally:
            numpy_set(before[0])
            scipy_set(before[1])
        assert (numpy_get(), scipy_get()) == before

    def test_cores_are_those_the_process_may_run_on(self, monkeypatch):
        # a process pinned to one core of an 8-core host runs a plain loop
        # and starts no helper
        started = inline_pool(monkeypatch)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {3},
                            raising=False)
        assert harness._usable_cores() == 1
        assert harness._for_each_drop(lambda d, helper: helper, 4, 8) == [False] * 4
        assert started == []


class TestPinnedResults:
    PINNED = json.loads((Path(__file__).parent / "data" / "evaluate_drops_se.json").read_text())

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_evaluate_drops_matches_pinned_se(self, case):
        # per-user SE of one drop, desk and table recorded at commit bda7f15
        # and three_cells (L=3, odd N, all five allocators) at 87b419c; a
        # change that reorders no arithmetic leaves it unchanged, and rtol
        # 1e-10 leaves room only for BLAS builds that sum in another order
        pin = self.PINNED[case]
        got = evaluate_drops(NetworkConfig(**pin["config"]), tuple(pin["allocators"]),
                             1, pin["trials"], pin["seed"])
        assert list(got) == pin["allocators"] == list(pin["se"])
        for name, se in pin["se"].items():
            np.testing.assert_allclose(got[name][0], se, rtol=1e-10, atol=0)


class TestPostConditions:
    @pytest.mark.parametrize("cells", [
        [[0, 1, 0], [1, 0, 1]],             # one user of each cell left out
        [[0, 1, 0, 2], [1, 0, 1, 0]],       # pilot 2 with pilot_len 2
        [[0, 1, 0, -1], [1, 0, 1, 0]],
    ])
    def test_bad_plan_names_its_allocator(self, monkeypatch, cells):
        monkeypatch.setitem(harness.ALLOCATORS, "fake",
                            lambda cfg, drop, rng=None: AllocationPlan(cells, "fake"))
        with pytest.raises(RuntimeError, match="allocator 'fake'"):
            evaluate_drops(tiny_cfg(), ("random", "fake"), 1, 2, seed=1)


class TestLoadSpec:
    def test_full_document(self, tmp_path):
        doc = {"L": 2, "N": 4, "M": 8, "pilot_len": 2,
               "experiment": {"name": "x", "sweep": "M", "values": [4, 8],
                              "allocators": ["loc_aware"], "drops": 2,
                              "trials": 2, "threads": 2, "seed": 3}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        spec = load_spec(path)
        assert spec.cfg.N == 4
        assert spec.values == (4, 8)
        assert spec.threads == 2
        assert spec.seed == 3

    def test_unknown_experiment_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": {"bogus": 1}}))
        with pytest.raises(ConfigError, match="unknown experiment keys"):
            load_spec(path)

    @pytest.mark.parametrize("exp, message", [
        ({"allocators": "random"}, "allocators must be a list"),
        ({"out": 5}, "out must be a string"),
    ], ids=["string_allocators", "integer_out"])
    def test_mistyped_experiment_field_rejected(self, tmp_path, exp, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": exp}))
        with pytest.raises(ConfigError, match=message):
            load_spec(path)

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": {"drops": 50}}))
        spec = load_spec(path, overrides={"experiment": {"drops": 7}})
        assert spec.drops == 7

    def test_readme_example_loads(self, tmp_path):
        # the one JSON document in the README is a valid config file
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        path = tmp_path / "readme.json"
        path.write_text(blocks[0])
        assert load_spec(path).seed == 42


class TestCli:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_runtime_failure_prints_traceback_and_exits_one(self, tmp_path, capsys,
                                                            monkeypatch):
        # a failure past the config boundary is a defect, not a bad input
        def failing(*args, **kwargs):
            raise RuntimeError("the SINR engine failed")

        monkeypatch.setattr(harness, "estimate_sinr", failing)
        out = tmp_path / "a.csv"
        assert cli_main(["fig3a", "--config", write_config(tmp_path, NETWORK_ONLY),
                         "--drops", "1", "--trials", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and "RuntimeError: the SINR engine failed" in err
        assert not out.exists()

    def test_fig3a_smoke(self, tmp_path, capsys):
        doc = {"L": 2, "N": 4, "M": 8, "pilot_len": 2,
               "experiment": {"name": "fig3a", "sweep": "M", "values": [8],
                              "allocators": ["loc_aware", "random"],
                              "drops": 1, "trials": 2, "seed": 3}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "a.csv"
        code = cli_main(["fig3a", "--config", str(cfg_path), "--out", str(out),
                         "--seed", "42"])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == ",".join(CSV_HEADER)
        # the wall time goes to the console, not into the CSV
        assert re.fullmatch(r"wrote \d+ rows to .* in \d+\.\d s\n", capsys.readouterr().out)

    def test_fig3b_smoke(self, tmp_path):
        out = tmp_path / "b.csv"
        doc = {"L": 2, "N": 6, "M": 8, "pilot_len": 2,
               "experiment": {"name": "fig3b", "drops": 2, "trials": 2, "seed": 3,
                              "allocators": ["loc_aware", "random"]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["fig3b", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert out.read_text().startswith("allocator,value_bits_hz,cum_prob")

    def test_fig3c_requires_distance_models(self, tmp_path, capsys):
        doc = {"L": 2, "N": 4, "M": 8, "pilot_len": 2, "k_model": "fixed",
               "experiment": {"sweep": "loc_err_var", "values": [0.0],
                              "drops": 1, "trials": 2}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["fig3c", "--config", str(cfg_path)]) == 2
        assert "linear_prob" in capsys.readouterr().err

    def test_fig3c_smoke(self, tmp_path):
        doc = {"L": 2, "N": 4, "M": 8, "pilot_len": 2,
               "k_model": "distance", "los_model": "linear_prob",
               "experiment": {"sweep": "loc_err_var", "values": [0.0, 3.0],
                              "allocators": ["loc_aware", "sector"],
                              "drops": 1, "trials": 2, "seed": 3}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "c.csv"
        assert cli_main(["fig3c", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 2 * 2

    def test_oracle_prints_ratio_line(self, tmp_path, capsys):
        doc = {"L": 1, "N": 3, "M": 8, "pilot_len": 2,
               "experiment": {"drops": 2, "trials": 4, "seed": 7,
                              "allocators": ["random", "loc_aware"]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["oracle", "--config", str(cfg_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" over ")[0] for line in lines] == [
            "oracle ratio of random", "oracle ratio of loc_aware"]
        for line in lines:
            assert "(8 plans searched)" in line
            assert "mean=" in line and "min=" in line and "max=" in line

    @pytest.mark.parametrize("cfg_keys, exp_keys", [
        ({"pilot_len": 4, "coherence_len": 4}, {}),
        ({}, {"trials": 1}),
        ({}, {"values": [8, 12.5]}),
        ({"pathloss_exp": math.nan}, {}),
        ({"pathloss_exp": math.inf}, {}),
        ({"k_db": math.nan}, {}),
        ({"k_db": math.inf}, {}),
        ({"loc_err_var": math.nan}, {}),
        ({"loc_err_var": math.inf}, {}),
        ({"antenna_spacing": math.nan}, {}),
        ({"N": 4.0}, {}),
        ({"M": "8"}, {}),
        ({"L": 2, "N": 12, "pathloss_exp": 600.0}, {}),
        ({}, {"drops": 2.0}),
        ({}, {"values": 5}),
        ({}, {"allocators": [["x"]]}),
        ({}, {"name": ["a", "b"]}),
        ({}, {"seed": -1}),
        ({}, {"cfg": {"L": 2}}),
        ({"L": 2, "k_model": "distance", "k_intercept_db": 100.0,
          "k_slope_db_per_m": -1.0, "cell_radius": 500.0, "min_dist": 100.0}, {}),
    ], ids=["pilot_len_fills_coherence_block", "one_trial", "fractional_m",
            "nan_pathloss_exp", "inf_pathloss_exp", "nan_k_db", "inf_k_db",
            "nan_loc_err_var", "inf_loc_err_var", "nan_antenna_spacing",
            "float_n", "string_m", "gain_overflow", "float_drops",
            "scalar_values", "nested_allocators", "list_name", "negative_seed",
            "nested_cfg", "interference_sum_overflow"])
    def test_boundary_error_exits_two_before_any_drop(self, tmp_path, capsys,
                                                      monkeypatch, cfg_keys, exp_keys):
        monkeypatch.setattr(harness, "estimate_sinr", no_monte_carlo)
        doc = {"L": 1, "N": 2, "M": 8, "pilot_len": 2, **cfg_keys,
               "experiment": {"sweep": "M", "values": [8], "drops": 1, "trials": 2,
                              "seed": 3, "allocators": ["loc_aware"], **exp_keys}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["fig3a", "--config", str(path),
                         "--out", str(tmp_path / "a.csv")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("seed", 5), ("pathloss_sign", 1),
                                            ("antenna_spacing", 0.25)])
    def test_removed_network_key_exits_two_before_any_drop(self, tmp_path, capsys,
                                                           monkeypatch, key, value):
        # the run seed is experiment.seed and a negative pathloss_exp gives the
        # increasing law, so neither has a second, top-level spelling; the
        # array is always the half-wavelength ULA the pair scores assume
        monkeypatch.setattr(harness, "estimate_sinr", no_monte_carlo)
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, {**NETWORK_ONLY, key: value,
                                       "experiment": {"drops": 1, "trials": 2, "seed": 7}})
        assert cli_main(["fig3a", "--config", path]) == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "fig3a.csv").exists()

    def test_seed_flag_and_file_seed_write_same_rows(self, tmp_path):
        doc = {**NETWORK_ONLY, "experiment": {"drops": 2, "trials": 2,
                                              "allocators": ["loc_aware", "random"]}}
        by_flag, by_file = tmp_path / "flag.csv", tmp_path / "file.csv"
        assert cli_main(["fig3a", "--config", write_config(tmp_path, doc), "--seed", "7",
                         "--m-values", "8", "--out", str(by_flag)]) == 0
        doc["experiment"]["seed"] = 7
        assert cli_main(["fig3a", "--config", write_config(tmp_path, doc),
                         "--m-values", "8", "--out", str(by_file)]) == 0
        assert by_flag.read_bytes() == by_file.read_bytes()
        with open(by_flag) as fh:
            assert {r["seed"] for r in csv.DictReader(fh)} == {"7"}

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"bogus_key": 1}')
        assert cli_main(["fig3a", "--config", str(path)]) == 2

    @pytest.mark.parametrize("text", [
        None, '{"L": 2,', '[{"L": 2}]', '{"L": 2, "experiment": [1]}',
    ], ids=["missing_file", "malformed_json", "top_level_array", "non_object_experiment"])
    def test_unreadable_config_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        if text is not None:
            path.write_text(text)
        assert cli_main(["fig3a", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_fig3b_zero_antennas_exits_two(self, tmp_path, capsys, monkeypatch):
        # --m 0 is a given value, not a missing one: it must reach the config
        monkeypatch.setattr(harness, "estimate_sinr", no_monte_carlo)
        doc = {"L": 1, "N": 2, "M": 8, "pilot_len": 2,
               "experiment": {"drops": 1, "trials": 2, "seed": 3,
                              "allocators": ["loc_aware"]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "b.csv"
        assert cli_main(["fig3b", "--config", str(path), "--m", "0",
                         "--out", str(out)]) == 2
        assert "M must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_fig3a_k_db_overflow_exits_two(self, tmp_path, capsys, monkeypatch):
        # 10**(k_db/10) overflows a float: the K-factor check reports it
        monkeypatch.setattr(harness, "estimate_sinr", no_monte_carlo)
        out = tmp_path / "a.csv"
        assert cli_main(["fig3a", "--config", write_config(tmp_path, NETWORK_ONLY),
                         "--k-db", "4000", "--out", str(out)]) == 2
        assert "K-factor leaves the positive finite range" in capsys.readouterr().err
        assert not out.exists()

    def test_fig3b_more_worst_users_than_a_cell_exits_two(self, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.setattr(harness, "estimate_sinr", no_monte_carlo)
        path = write_config(tmp_path, {**NETWORK_ONLY, "experiment": {
            "drops": 1, "trials": 2, "n_worst": 50}})
        out = tmp_path / "b.csv"
        assert cli_main(["fig3b", "--config", path, "--out", str(out)]) == 2
        assert "n_worst=50" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_search_space_checked_before_any_drop(self, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(harness, "estimate_sinr", no_monte_carlo)
        path = write_config(tmp_path, {"L": 1, "N": 12, "M": 8, "pilot_len": 4})
        assert cli_main(["oracle", "--config", path]) == 2
        assert "exhaustive search space" in capsys.readouterr().err

    def test_fig3a_network_only_config_keeps_command_defaults(self, tmp_path):
        out = tmp_path / "a.csv"
        assert cli_main(["fig3a", "--config", write_config(tmp_path, NETWORK_ONLY),
                         "--drops", "1", "--trials", "2", "--seed", "3",
                         "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["experiment"] for r in rows} == {"fig3a"}
        assert sorted((r["allocator"], r["sweep_name"], r["sweep_value"]) for r in rows) == [
            (a, "M", m) for a in ("greedy", "loc_aware", "random") for m in ("32.0", "64.0")]

    def test_fig3c_network_only_config_runs_loc_err_sweep(self, tmp_path):
        out = tmp_path / "c.csv"
        assert cli_main(["fig3c", "--config", write_config(tmp_path, NETWORK_ONLY),
                         "--drops", "1", "--trials", "2", "--seed", "3",
                         "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["sweep_name"] for r in rows} == {"loc_err_var"}
        assert len(rows) == 4 * 4          # variances x allocators, one cell

    @pytest.mark.parametrize("exp, flags, drops, allocators", [
        ({}, [], 200, ("loc_aware", "random", "greedy")),
        ({"drops": 5, "allocators": ["sector"]}, [], 5, ("sector",)),
        ({"drops": 5, "allocators": ["sector"]},
         ["--drops", "7", "--allocators", "random"], 7, ("random",)),
    ], ids=["default", "file_beats_default", "flag_beats_file"])
    def test_flag_beats_file_beats_default(self, tmp_path, monkeypatch, exp, flags,
                                           drops, allocators):
        specs = []
        monkeypatch.setattr(cli, "run_sweep", lambda spec: specs.append(spec) or [])
        path = write_config(tmp_path, {**NETWORK_ONLY, "experiment": exp})
        assert cli_main(["fig3a", "--config", path,
                         "--out", str(tmp_path / "a.csv"), *flags]) == 0
        assert [(s.drops, s.allocators) for s in specs] == [(drops, allocators)]

    @pytest.mark.parametrize("flags, runs", [
        ([], [("fig3a", "distance", 10.0)]),
        (["--k-db", "0", "7.5"], [("fig3a[k_db=0]", "fixed", 0.0),
                                  ("fig3a[k_db=7.5]", "fixed", 7.5)]),
    ], ids=["file_k_model", "k_db_flag"])
    def test_fig3a_k_model_from_file_unless_k_db_given(self, tmp_path, monkeypatch,
                                                       flags, runs):
        specs = []
        monkeypatch.setattr(cli, "run_sweep", lambda spec: specs.append(spec) or [])
        path = write_config(tmp_path, {**NETWORK_ONLY, "k_model": "distance"})
        assert cli_main(["fig3a", "--config", path,
                         "--out", str(tmp_path / "a.csv"), *flags]) == 0
        assert [(s.name, s.cfg.k_model, s.cfg.k_db) for s in specs] == runs

    @pytest.mark.parametrize("command, sweep", [
        ("fig3a", "loc_err_var"), ("fig3c", "M"), ("fig3b", "M"), ("oracle", "M"),
        ("fig3b", None), ("oracle", None),
    ])
    def test_wrong_sweep_axis_exits_two_before_any_drop(self, tmp_path, capsys,
                                                        monkeypatch, command, sweep):
        monkeypatch.setattr(harness, "estimate_sinr", no_monte_carlo)
        path = write_config(tmp_path, {
            **NETWORK_ONLY, "k_model": "distance", "los_model": "linear_prob",
            "experiment": {"sweep": sweep, "values": [8], "drops": 1, "trials": 2}})
        assert cli_main([command, "--config", path,
                         "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "sweep" in err

    @pytest.mark.parametrize("exp, flags", [
        ({}, ["--out", "o.csv"]), ({"out": "o.csv"}, []),
    ], ids=["flag", "file"])
    def test_oracle_out_exits_two_before_any_drop(self, tmp_path, capsys, monkeypatch,
                                                  exp, flags):
        monkeypatch.setattr(harness, "estimate_sinr", no_monte_carlo)
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, {**NETWORK_ONLY, "experiment": exp})
        assert cli_main(["oracle", "--config", path, *flags]) == 2
        assert "writes no file" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command, flags", [
        ("fig3a", ["--m-values", "8", "--allocators", "random", "random"]),
        ("oracle", ["--allocators", "loc_aware", "loc_aware"]),
    ], ids=["fig3a", "oracle"])
    def test_repeated_allocator_flag_exits_two_before_any_drop(self, tmp_path, capsys,
                                                               monkeypatch, command, flags):
        monkeypatch.setattr(harness, "estimate_sinr", no_monte_carlo)
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, {**NETWORK_ONLY, "experiment": {"drops": 2, "trials": 2}})
        assert cli_main([command, "--config", path, *flags]) == 2
        assert "allocators named more than once" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.csv").exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("fig3a", ["--m-values", "8", "8"], r"M sweep points named more than once: \[8\]"),
        ("fig3c", ["--values", "0", "3", "0.0"],
         r"loc_err_var sweep points named more than once: \[0.0\]"),
        ("fig3a", ["--k-db", "10", "7.5", "10.0"],
         r"--k-db values give two runs the same name: .*fig3a\[k_db=10\].*fig3a\[k_db=10\]"),
        # distinct values that print alike would label two runs alike
        ("fig3a", ["--k-db", "10", "10.0000001"],
         r"--k-db values give two runs the same name: .*fig3a\[k_db=10\]"),
    ], ids=["fig3a_m", "fig3c_variance", "fig3a_k_db", "fig3a_k_db_same_label"])
    def test_repeated_sweep_point_exits_two_before_any_drop(self, tmp_path, capsys,
                                                            monkeypatch, command, flags,
                                                            message):
        # a drop would raise through `no_monte_carlo` and exit 1
        monkeypatch.setattr(harness, "estimate_sinr", no_monte_carlo)
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, {**NETWORK_ONLY, "experiment": {"drops": 1, "trials": 2}})
        assert cli_main([command, "--config", path, *flags]) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / f"{command}.csv").exists()

    @pytest.mark.parametrize("command, out", [
        ("fig3a", "missing/out.csv"), ("fig3b", "missing/out.csv"),
        ("fig3c", "missing/out.csv"), ("fig3a", "."),
        ("fig3a", None), ("fig3b", None), ("fig3c", None),
    ], ids=["fig3a", "fig3b", "fig3c", "fig3a_out_is_a_directory",
            "fig3a_default", "fig3b_default", "fig3c_default"])
    def test_unwritable_out_exits_two_before_any_drop(self, tmp_path, capsys, monkeypatch,
                                                      command, out):
        # a drop would raise through `no_monte_carlo` and exit 1; without
        # --out, a directory holds the default name `<command>.csv`
        monkeypatch.setattr(harness, "estimate_sinr", no_monte_carlo)
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, {**NETWORK_ONLY, "k_model": "distance",
                                       "los_model": "linear_prob",
                                       "experiment": {"drops": 1, "trials": 2}})
        if out is None:
            (tmp_path / f"{command}.csv").mkdir()
        flags = [] if out is None else ["--out", str(tmp_path / out)]
        assert cli_main([command, "--config", path, *flags]) == 2
        assert "directory" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", ["fig3a", "fig3b", "fig3c"])
    def test_run_without_out_writes_the_default_name(self, tmp_path, capsys, monkeypatch,
                                                     command):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, {**NETWORK_ONLY, "N": 6, "k_model": "distance",
                                       "los_model": "linear_prob",
                                       "experiment": {"drops": 1, "trials": 2}})
        assert cli_main([command, "--config", path]) == 0
        assert f"to {command}.csv" in capsys.readouterr().out
        assert (tmp_path / f"{command}.csv").read_text().count("\n") > 1

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command", ["fig3a", "fig3b", "fig3c", "oracle"])
    def test_empty_out_exits_two_before_any_drop(self, tmp_path, capsys, monkeypatch,
                                                 command, source):
        # an empty out must not fall back to the command's default file name
        monkeypatch.setattr(harness, "estimate_sinr", no_monte_carlo)
        monkeypatch.chdir(tmp_path)
        exp = {"drops": 1, "trials": 2, **({"out": ""} if source == "file" else {})}
        path = write_config(tmp_path, {**NETWORK_ONLY, "k_model": "distance",
                                       "los_model": "linear_prob", "experiment": exp})
        flags = ["--out", ""] if source == "flag" else []
        assert cli_main([command, "--config", path, *flags]) == 2
        assert "out must be a string naming a file" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.csv").exists()

    def test_check_subcommand_passes(self, capsys):
        assert cli_main(["check"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            f"[PASS] {name}" for name, _, _ in checks.INVARIANTS]
        assert "[PASS] steering vector vs direct exponential" in [
            line.split(":")[0] for line in lines]

    @pytest.mark.parametrize("dev", [math.nan, 2e-9], ids=["nan", "over_bound"])
    def test_check_fails_an_entry_not_below_its_bound(self, monkeypatch, capsys, dev):
        monkeypatch.setattr(checks, "INVARIANTS", (
            ("fine", lambda: 0.0, 1e-9), ("broken", lambda: dev, 1e-9)))
        assert cli_main(["check"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "[PASS] fine: deviation 0.00e+00, bound 1e-09",
            f"[FAIL] broken: deviation {dev:.2e}, bound 1e-09"]

    @pytest.mark.parametrize("flags", [
        ["--config", "/nonexistent.json", "--seed", "-5"], ["--drops", "2"],
        ["--allocators", "random"],
    ], ids=["config_and_seed", "drops", "allocators"])
    def test_check_rejects_every_flag(self, monkeypatch, capsys, flags):
        monkeypatch.setattr(checks, "run_all", no_monte_carlo)
        assert cli_main(["check", *flags]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


INT_FIELDS = ("L", "N", "M", "pilot_len", "coherence_len")
FLOAT_FIELDS = ("snr_db", "cell_radius", "min_dist", "pathloss_exp", "k_db",
                "k_intercept_db", "k_slope_db_per_m", "loc_err_var")


@st.composite
def tiny_config_fields(draw):
    """NetworkConfig fields, and a run seed for the ExperimentSpec."""
    radius = draw(st.floats(1.0, 1e4))
    return {
        "L": draw(st.integers(1, 2)), "N": draw(st.integers(1, 4)),
        "M": draw(st.integers(1, 8)), "pilot_len": draw(st.integers(1, 4)),
        "coherence_len": draw(st.integers(2, 300)),
        "snr_db": draw(st.floats(-4000.0, 4000.0)),
        "cell_radius": radius, "min_dist": radius * draw(st.floats(0.001, 0.999)),
        "pathloss_exp": draw(st.floats(-400.0, 400.0)),
        "k_model": draw(st.sampled_from(["fixed", "distance"])),
        "k_db": draw(st.floats(-4000.0, 4000.0)),
        "k_intercept_db": draw(st.floats(-100.0, 100.0)),
        "k_slope_db_per_m": draw(st.floats(-1.0, 1.0)),
        "los_model": draw(st.sampled_from(["always", "linear_prob"])),
        "loc_err_var": draw(st.floats(0.0, 1e4)),
    }, draw(st.integers(0, 2 ** 32))


class TestConfigProperty:
    @given(tiny_config_fields())
    @settings(max_examples=60, deadline=None)
    def test_validated_config_gives_finite_csv(self, drawn):
        fields, seed = drawn
        try:
            cfg = NetworkConfig(**fields)
        except ConfigError:
            return                       # rejected at the boundary
        spec = ExperimentSpec(cfg=cfg, name="prop", sweep="M", values=(cfg.M,),
                              allocators=("loc_aware", "random", "random_iid",
                                          "greedy", "sector"), drops=1, trials=2,
                              seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.csv"
            write_rows_csv(run_sweep(spec), path)
            with open(path) as fh:
                body = list(csv.DictReader(fh))
        assert len(body) == 5 * cfg.L
        for row in body:
            assert math.isfinite(float(row["sum_se_bits_hz"]))
            assert math.isfinite(float(row["stderr"]))

    @given(st.sampled_from(INT_FIELDS + FLOAT_FIELDS), st.data())
    @settings(max_examples=60, deadline=None)
    def test_nonfinite_or_mistyped_field_rejected(self, name, data):
        bad = (st.sampled_from([4.0, "4", True, None, 2.5]) if name in INT_FIELDS
               else st.sampled_from([math.nan, math.inf, -math.inf, "1.0", None, True]))
        doc = {"L": 1, "N": 2, "M": 4, "pilot_len": 2, name: data.draw(bad)}
        with pytest.raises(ConfigError):
            NetworkConfig.from_dict(json.loads(json.dumps(doc)))
