"""Drop-throughput benchmark of the mimopilots simulator.

    python3 perfbench/run.py --workload table|desk|alloc --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from `src/`.
With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json: the
set-up time (median of several fresh processes), then one process running a
closed loop of drops for S seconds with the tracer off. With `--trace 1` one
process runs every drop twice, once under spans around the simulator's
public functions and once without, and reports the per-layer metrics of
BENCHMARK.json together with the tracing overhead and count
reconciliations. Both check every drop's output and compare each
allocator's mean sum SE with `reference.json`; a traced run also fails
when the ZF call count or the fixed-seed repeat of drop 0 does not hold.

Drop and set-up times are reported at a reference machine speed: each is
scaled by CAL_REF_MS over the time of a fixed calibration kernel (see
worker.calibrate) timed next to it, because co-tenants of a shared machine
slow it by up to 1.8x for minutes. The raw wall times are printed as well.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The full
result, with the environment it ran in, is written to perfbench/out/.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 5       # fresh processes timed for setup_s; the median is reported
TIME_LIMIT_S = 170      # all child processes of one run together
GATE_Z = 5.0            # sum-SE tolerance in standard errors of the difference
# The calibration kernel's time (worker.calibrate) on a quiet shared 2-vCPU VM.
# Reported times are scaled to it, so a run made while co-tenants slow the
# machine reads like one made while they do not.
CAL_REF_MS = 3.0
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in BLAS_PINS:
        env[var] = "1"
    return env


def run_child(argv: list[str], deadline: float) -> dict | None:
    """Run one child to completion and parse the JSON object on its last line."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time limit reached before a child could start")
    try:
        proc = subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {argv[:2]} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {argv[:2]} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def worker(mode: str, args, deadline: float, *extra: str) -> dict:
    return run_child([str(HERE / "worker.py"), mode, "--workload", args.workload,
                      "--seed", str(args.seed), *extra], deadline)


def source_identity() -> dict:
    """The git commit when the checkout is a repository, and a digest of src/."""
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def gate(workload: str, drops: list[dict]) -> tuple[bool, list[str]]:
    """Each allocator's mean network sum SE against the committed reference.

    The tolerance is GATE_Z standard errors of the difference of two means of
    independent drops: wide enough for a change of RNG stream layout, narrow
    enough to catch a broken chain (a ZF returning zeros gives SE 0).
    """
    ref = json.loads((HERE / "reference.json").read_text())[workload]
    ok, lines = True, []
    for alloc in WORKLOADS[workload]["allocators"]:
        vals = [d["sums"][alloc] for d in drops if d["sums"] is not None]
        r = ref["allocators"][alloc]
        if not vals:
            ok = False
            lines.append(f"gate {alloc}: no successful drop")
            continue
        mean = statistics.fmean(vals)
        tol = GATE_Z * r["sd"] * math.sqrt(1.0 / len(vals) + 1.0 / ref["drops"])
        good = abs(mean - r["mean"]) <= tol
        ok &= good
        lines.append(f"gate {alloc}: mean sum SE {mean:.3f} over {len(vals)} drops, "
                     f"reference {r['mean']:.3f} +- {tol:.3f} bits/s/Hz: "
                     f"{'ok' if good else 'FAIL'}")
    return ok, lines


def timing_metrics(times: list[float], setups: list[float], pct: int) -> dict:
    """drops_per_s, drop_ms.p50, drop_ms.tail and setup_s from drop times in ms
    and set-up times in s."""
    # the inclusive method interpolates linearly between order statistics
    tail = (statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
            if len(times) > 1 else times[0])
    return {"drops_per_s": len(times) / (sum(times) / 1000.0),
            "drop_ms.p50": statistics.median(times),
            "drop_ms.tail": tail,
            "setup_s": statistics.median(setups)}


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[str]]:
    # untimed: the first import writes the bytecode cache
    run_child(["-c", "import mimopilots"], deadline)
    samples = [worker("setup", args, deadline, "--warmup", str(i))
               for i in range(1, SETUP_SAMPLES)]
    res = worker("measure", args, deadline, "--seconds", str(args.seconds))
    samples.append(res)
    drops = res["drops"]
    failed = sum(d["error"] is not None for d in drops)
    pct = WORKLOADS[args.workload]["tail_pct"]
    raw = timing_metrics([d["ms"] for d in drops], [s["setup_s"] for s in samples], pct)
    times = [d["ms"] * CAL_REF_MS / d["cal_ms"] for d in drops]
    values = timing_metrics(
        times, [s["setup_s"] * CAL_REF_MS / s["setup_cal_ms"] for s in samples], pct)
    beyond = sum(t > values["drop_ms.tail"] for t in times)
    values.update(peak_rss_mb=res["peak_rss_mb"], success_rate=1.0 - failed / len(drops))
    cal = statistics.median(d["cal_ms"] for d in drops)
    notes = [f"times are at the reference speed: raw time x {CAL_REF_MS} ms / calibration "
             f"kernel time (median {cal:.4f} ms this run, {CAL_REF_MS / cal:.4f}x)",
             "raw wall time: " + ", ".join(f"{k} = {v!r}" for k, v in raw.items()),
             f"drop_ms.tail is p{pct} over {len(drops)} drops, {beyond} beyond it"
             + ("" if beyond >= 10 else " (fewer than 10: read it as unresolved)"),
             f"error_rate = {failed / len(drops)!r} ratio ({failed} of {len(drops)} drops failed)",
             f"setup_s samples (raw s): {[round(s['setup_s'], 4) for s in samples]}"]
    return values, res, notes


def traced(args, deadline: float, spans: Path) -> tuple[dict, dict, list[str]]:
    res = worker("trace", args, deadline, "--seconds", str(args.seconds),
                 "--spans", str(spans))
    wall = res["traced_drop_ms"]
    notes = [f"traced {res['traced_drops']} drops (calls averaged over the first "
             f"{res['count_drops']}); traced {wall:.3f} ms/drop vs untraced "
             f"{res['plain_drop_ms']:.3f} ms/drop on the same inputs: tracing overhead "
             f"{res['metrics']['trace.overhead_share']:.2%}"]
    notes += [f"layer {name:<10} {ms:10.3f} ms/drop self {ms / wall:7.2%}"
              for name, ms in sorted(res["layers"].items(), key=lambda kv: -kv[1])]
    notes += [f"reconcile: {c['check']}: {'ok' if c['ok'] else 'MISMATCH'} ({c['detail']})"
              + ("" if c["fails"] else " [advisory]") for c in res["checks"]]
    notes += [f"MISSING: {name} ({attr} no longer exists)"
              for name, attr in res["missing"].items()]
    notes.append(f"los_metric.los_interference.calls by drop: "
                 f"{res['los_interference_calls_by_drop']}")
    return res["metrics"], res, notes


def main() -> int:
    ap = argparse.ArgumentParser(description="Drop-throughput benchmark of mimopilots.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mimopilots" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"run.py: no mimopilots source under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    try:
        if args.trace:
            values, res, notes = traced(args, deadline, OUT / f"{stem}-spans.npz")
            wanted = spec["per_layer"]
        else:
            values, res, notes = end_to_end(args, deadline)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    drops = res.pop("drops")
    # a traced run sees every input twice; the gate counts each drop once
    unique = list({d["k"]: d for d in reversed(drops)}.values())
    correct, gate_lines = gate(args.workload, unique)
    failed = sum(d["error"] is not None for d in drops)
    # a traced run is also incorrect when a failing reconciliation breaks
    reconciled = all(c["ok"] for c in res.get("checks", []) if c["fails"])
    correct = correct and failed == 0 and reconciled
    env = {**res.pop("env"), **source_identity()}
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in wanted}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {WORKLOADS[args.workload]}")
    print("env " + json.dumps(env, sort_keys=True))
    if env["blas_effective"] is None or env["blas_effective"]["threads"] != 1:
        print(f"WARNING: BLAS is not running on one thread: {env['blas_effective']}")
    for line in notes + gate_lines:
        print(line)
    for d in drops:
        if d["error"] is not None:
            print(f"drop {d['k']} failed: {d['error']}")
    for name, m in metrics.items():
        print(f"{name} = {'MISSING' if m['value'] is None else repr(m['value'])} {m['unit']}")
    result = {"correct": correct, "attempted": len(drops), "failed": failed,
              "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"args": vars(args), "env": env, "notes": notes, "gate": gate_lines,
         "result": result, "detail": res, "drops": drops}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
