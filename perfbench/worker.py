"""One benchmark process: set-up timing, the closed loop of drops, the traced run.

    python3 perfbench/worker.py setup   --workload W --seed S --warmup I
    python3 perfbench/worker.py measure --workload W --seed S --seconds T
    python3 perfbench/worker.py trace   --workload W --seed S --seconds T [--spans PATH]

`run.py` starts this file with `src` on PYTHONPATH and BLAS pinned to one
thread through the environment, and reads the JSON object it prints as its
last line. Every mode starts its clock before `import mimopilots`, so the
set-up time it reports covers imports, config and spec validation and one
untimed warm-up drop.

The program is driven only through public calls: one drop is one
`harness.evaluate_drops(cfg, allocators, drops=1, trials, seed)` call, with
the seed derived from the workload seed and the drop number.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
from functools import wraps

from workloads import TAG_DROP, TAG_WARMUP, WORKLOADS

HARNESS_THREADS = 1
REPEAT_DROP = -2      # tracer drop id of the re-traced first drop


def drop_seed(seed: int, tag: int, k: int) -> int:
    import numpy as np
    return int(np.random.SeedSequence([seed, tag, k]).generate_state(1)[0])


class Bench:
    """A workload's config and allocators, set up through the public API."""

    def __init__(self, workload: str, seed: int, warmup: int = 0):
        t0 = time.perf_counter()
        from mimopilots import harness
        from mimopilots.model import NetworkConfig
        w = WORKLOADS[workload]
        cfg = NetworkConfig(**w["config"])
        spec = harness.ExperimentSpec(cfg=cfg, allocators=w["allocators"], drops=1,
                                      trials=w["trials"], threads=HARNESS_THREADS)
        harness.evaluate_drops(spec.cfg, spec.allocators, 1, spec.trials,
                               drop_seed(seed, TAG_WARMUP, warmup))
        self.setup_s = time.perf_counter() - t0
        self.harness = harness
        self.workload = w
        self.cfg = spec.cfg
        self.allocators = spec.allocators
        self.trials = spec.trials
        self.seed = seed
        self.plans: dict = {}
        self._capture_plans()

    def _capture_plans(self) -> None:
        """Keep each allocator's plan so the drop check can see it."""
        table = self.harness.ALLOCATORS
        for name in self.allocators:
            fn = table.get(name)
            if fn is None:
                continue

            def capture(*args, _fn=fn, _name=name, **kwargs):
                plan = _fn(*args, **kwargs)
                self.plans[_name] = plan
                return plan

            table[name] = wraps(fn)(capture)

    def check(self, out) -> str | None:
        """None for a correct drop, else what is wrong with it."""
        import numpy as np
        cfg = self.cfg
        if sorted(out) != sorted(self.allocators):
            return f"returned allocators {sorted(out)}"
        for name in self.allocators:
            se = np.asarray(out[name])
            if se.shape != (1, cfg.L, cfg.N):
                return f"{name}: SE shape {se.shape}"
            if not np.all(np.isfinite(se)):
                return f"{name}: non-finite SE"
            if np.any(se < 0):
                return f"{name}: negative SE"
            plan = self.plans.get(name)
            if plan is None:
                continue        # the allocator table is no longer consulted
            cells = np.asarray(plan.cells)
            if cells.shape != (cfg.L, cfg.N):
                return f"{name}: incomplete plan of shape {cells.shape}"
            if cells.min() < 0 or cells.max() >= cfg.pilot_len:
                return f"{name}: pilot index out of range [0, {cfg.pilot_len})"
        return None

    def drop(self, k: int, tracer=None, tag: int | None = None) -> dict:
        """Run drop k once; with a tracer, under its spans and clock, filed
        under drop id `tag` (default k)."""
        seed = drop_seed(self.seed, TAG_DROP, k)
        evaluate, clock = self.harness.evaluate_drops, time.perf_counter
        if tracer is not None:
            tracer.current_drop = k if tag is None else tag
            tracer.install(self.harness.ALLOCATORS, self.allocators)
            evaluate, clock = tracer.wrap("harness", evaluate), tracer.clock
        self.plans.clear()
        out, error = None, None
        t0 = clock()
        try:
            out = evaluate(self.cfg, self.allocators, 1, self.trials, seed)
        except Exception as exc:  # a failed drop is counted; the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        wall = clock() - t0
        if tracer is not None:
            tracer.uninstall()
        if error is None:
            error = self.check(out)
        sums = None if error is not None else {
            name: float(out[name].sum()) for name in self.allocators}
        return {"k": k, "ms": wall * 1000.0, "error": error, "sums": sums}


def blas_threads() -> dict | None:
    """Thread count the loaded BLAS library reports, asked of the library."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "blas" in line.lower() and ".so" in line})
    except OSError:
        return None
    symbols = ("openblas_get_num_threads", "openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "MKL_Get_Max_Threads")
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in symbols:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return {"library": os.path.basename(path), "symbol": sym,
                        "threads": int(fn())}
    return None


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_effective": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "harness_threads": HARNESS_THREADS,
        "platform": platform.platform(),
    }


_CAL_MATRIX = None


def calibrate() -> float:
    """Seconds taken by a fixed mix of the kinds of work a drop does.

    A pure-Python float loop (the allocators' pair scores), small numpy
    expressions (per-call overhead), an LAPACK pseudo-inverse of a Table-size
    matrix (ZF) and blocks of normal draws (channels). No mimopilots code
    runs, so no change to the program moves it; co-tenants of a shared
    machine that slow the drops slow it alike.
    """
    import numpy as np
    global _CAL_MATRIX
    if _CAL_MATRIX is None:
        z = np.random.default_rng(0).standard_normal((100, 36, 2))
        _CAL_MATRIX = z[..., 0] + 1j * z[..., 1]
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += math.sin(i * 0.001) * math.cos(i * 0.002) / (1.0 + i)
    rng = np.random.default_rng(1)
    for _ in range(100):
        z = rng.standard_normal((36, 2))
        acc += float(np.abs(z[..., 0] + 1j * z[..., 1]).sum())
    for _ in range(3):
        acc += float(np.abs(np.linalg.pinv(_CAL_MATRIX)).sum())
    for _ in range(4):
        acc += float(rng.standard_normal((36, 100, 2))[0, 0, 0])
    return time.perf_counter() - t0


def closed_loop(seconds: float, step) -> None:
    """Call step(0), step(1), ... until `seconds` have passed (at least once)."""
    end = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < end:
        step(k)
        k += 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(bench: Bench, seconds: float) -> dict:
    """Closed loop with the calibration kernel between drops: each drop
    carries the mean kernel time just before and just after it."""
    drops: list[dict] = []
    before = calibrate()

    def step(k: int) -> None:
        nonlocal before
        d = bench.drop(k)
        after = calibrate()
        d["cal_ms"] = 500.0 * (before + after)
        before = after
        drops.append(d)

    closed_loop(seconds, step)
    return {"drops": drops, "peak_rss_mb": peak_rss_mb()}


def trace(bench: Bench, seconds: float, spans_path: str | None) -> dict:
    """Paired loop: every drop runs once untraced and once traced.

    The order inside a pair alternates, so neither side always finds warm
    caches; the untraced half prices the tracing overhead on the same inputs.
    """
    from tracer import Tracer
    tracer = Tracer()
    plain: list[dict] = []
    traced: list[dict] = []

    def pair(k: int) -> None:
        for use in ((False, True) if k % 2 == 0 else (True, False)):
            (traced if use else plain).append(bench.drop(k, tracer if use else None))

    closed_loop(seconds, pair)
    repeat = (bench.drop(0, tracer, tag=REPEAT_DROP)
              if traced[0]["error"] is None else None)
    per = tracer.per_drop()
    if spans_path:
        tracer.save(spans_path)
    result = layer_metrics(bench, tracer, per, traced, plain)
    result["checks"] = reconcile(bench, tracer, per, traced, plain, repeat)
    result["drops"] = plain + traced
    return result


def _span_total(per: dict, drops, name: str) -> tuple[int, float]:
    calls = secs = 0
    for k in drops:
        c, s = per.get(k, {}).get(name, (0, 0.0))
        calls += c
        secs += s
    return calls, secs


def layer_metrics(bench: Bench, tracer, per: dict, traced: list[dict],
                  plain: list[dict]) -> dict:
    """Per-drop means over the traced drops; counts over a fixed prefix."""
    drops = [d["k"] for d in traced]
    first = drops[:bench.workload["count_drops"]]
    missing = tracer.missing

    def ms(name: str):
        calls, secs = _span_total(per, drops, name)
        if name in missing or calls == 0:
            return None         # not measured: never reported as 0 ms
        return 1000.0 * secs / len(drops)

    def calls(name: str):
        if name in missing:
            return None
        return _span_total(per, first, name)[0] / len(first)

    def counter(name: str, over) -> float:
        per_drop = tracer.counters.get(name, {})
        return sum(per_drop.get(k, 0.0) for k in over)

    checked = counter("zf_input.checked", drops)
    traced_ms = sum(d["ms"] for d in traced)
    plain_ms = sum(d["ms"] for d in plain)
    m = {"harness.self_ms": ms("harness"),
         "model.sample_users.ms": ms("model.sample_users")}
    for alloc in ("loc_aware", "greedy", "random", "sector"):
        # an allocator the workload does not run spends no time by definition
        m[f"allocators.{alloc}.ms"] = (ms(f"allocators.{alloc}")
                                       if alloc in bench.allocators else 0.0)
    m.update({
        "los_metric.los_interference.calls": calls("los_metric.los_interference"),
        "los_metric.los_interference.ms": ms("los_metric.los_interference"),
        "channel.draw.calls": calls("channel.draw"),
        "channel.draw.ms": ms("channel.draw"),
        "channel.draw.bytes_computed": (None if "channel.draw" in missing else
                                        counter("channel.draw.bytes_computed", first)
                                        / len(first)),
        "channel.sampler_init.ms": ms("channel.sampler_init"),
        "channel.crandn.ms": ms("channel.crandn"),
        "estimation.ls_estimate.calls": calls("estimation.ls_estimate"),
        "estimation.ls_estimate.ms": ms("estimation.ls_estimate"),
        "estimation.los_rx.ms": ms("estimation.los_rx"),
        "estimation.synthesize_rx.calls": calls("estimation.synthesize_rx"),
        "pilots.ms": ms("pilots"),
        "detection.estimate_sinr.self_ms": ms("detection.estimate_sinr"),
        "detection.zf_combiner.calls": calls("detection.zf_combiner"),
        "detection.zf_combiner.ms": ms("detection.zf_combiner"),
        "detection.zf_input.rank_deficient_share": (
            counter("zf_input.rank_deficient", drops) / checked if checked else None),
        "trace.overhead_share": traced_ms / plain_ms - 1.0,
    })
    layers: dict[str, float] = {}
    for name in tracer.names:
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + 1000.0 * _span_total(per, drops, name)[1] / len(drops)
    return {"metrics": m, "layers": layers,
            "traced_drop_ms": traced_ms / len(traced),
            "plain_drop_ms": plain_ms / len(plain),
            "traced_drops": len(drops), "count_drops": len(first),
            "missing": {n: tracer.absent[n] for n in sorted(missing)},
            "los_interference_calls_by_drop": [
                _span_total(per, [k], "los_metric.los_interference")[0] for k in first]}


def reconcile(bench: Bench, tracer, per: dict, traced: list[dict],
              plain: list[dict], repeat: dict | None) -> list[dict]:
    """Count and time reconciliations of the traced run.

    A check with `fails` set makes the run incorrect when it does not hold.
    The draw count is advisory: a change that shares channel draws across
    allocators is expected to break it. The span check is advisory too: self
    times add up to the root span by construction, so it can only show a
    broken span nesting.
    """
    n_alloc, trials, L = len(bench.allocators), bench.trials, bench.cfg.L
    ok_drops = [d["k"] for d in traced if d["error"] is None]
    checks = []

    def expect(name: str, want: int, fails: bool) -> None:
        if name in tracer.missing:
            # reported as a MISSING metric; there is no count to compare
            checks.append({"check": f"{name}.calls per drop == {want}", "ok": False,
                           "fails": False, "detail": "not measured: name missing"})
            return
        got = sorted({per[k].get(name, (0, 0.0))[0] for k in ok_drops})
        checks.append({"check": f"{name}.calls per drop == {want}", "ok": got == [want],
                       "fails": fails, "detail": f"seen {got} on {len(ok_drops)} drops"})

    expect("detection.zf_combiner", n_alloc * trials * L, fails=True)
    expect("channel.draw", n_alloc * trials, fails=False)

    check = "re-traced drop 0 repeats every call count and its SE"
    if repeat is None:
        checks.append({"check": check, "ok": False, "fails": True,
                       "detail": "drop 0 failed"})
    else:
        first, again = per[0], per[REPEAT_DROP]
        diff = [n for n in tracer.names if first.get(n, (0,))[0] != again.get(n, (0,))[0]]
        same_se = repeat["sums"] == traced[0]["sums"]
        checks.append({"check": check, "ok": not diff and same_se, "fails": True,
                       "detail": f"counts differ for {diff}" if diff else
                       ("SE identical" if same_se else "SE differs")})

    # self times telescope to the root span; what the wall adds beyond it is
    # the root wrapper itself, so a gap beyond the tracing overhead means a
    # span was recorded outside its parent
    self_ms = sum(1000.0 * sum(s for _, s in per[d["k"]].values()) for d in traced)
    wall_ms = sum(d["ms"] for d in traced)
    plain_ms = sum(d["ms"] for d in plain)
    gap = (wall_ms - self_ms) / len(traced)
    overhead = (wall_ms - plain_ms) / len(traced)
    checks.append({"check": "span nesting: layer self times + harness.self_ms == "
                            "drop wall time within the tracing overhead",
                   "ok": abs(gap) <= max(abs(overhead), 0.05), "fails": False,
                   "detail": f"unaccounted {gap:.4f} ms/drop, "
                             f"tracing overhead {overhead:.3f} ms/drop"})
    return checks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "measure", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--warmup", type=int, default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()

    bench = Bench(args.workload, args.seed, args.warmup)
    result = {"setup_s": bench.setup_s,
              "setup_cal_ms": 1000.0 * sorted(calibrate() for _ in range(3))[1]}
    if args.mode == "measure":
        result.update(measure(bench, args.seconds))
        result["env"] = environment()
    elif args.mode == "trace":
        result.update(trace(bench, args.seconds, args.spans))
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
