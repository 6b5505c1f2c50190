"""Regenerate reference.json: each allocator's network sum SE over many drops.

    python3 perfbench/make_reference.py

Run from the root of a checkout. The drops come from a workload seed that
the benchmark's runs do not use, so the gate compares independent samples.
Regenerating, or changing DROPS, is a benchmark change: do it only when the
model itself (not its speed or its RNG stream layout) is meant to change.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_SEED = 2 ** 31 - 1
DROPS = {"table": 100, "desk": 300, "alloc": 1000}


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    from worker import Bench

    out = {"seed": REFERENCE_SEED}
    for workload, n in DROPS.items():
        bench = Bench(workload, REFERENCE_SEED)
        results = [bench.drop(k) for k in range(n)]
        bad = [r for r in results if r["error"] is not None]
        if bad:
            raise SystemExit(f"{workload}: {len(bad)} drops failed, first: {bad[0]['error']}")
        out[workload] = {"drops": n, "allocators": {
            alloc: {"mean": statistics.fmean(r["sums"][alloc] for r in results),
                    "sd": statistics.stdev(r["sums"][alloc] for r in results)}
            for alloc in bench.allocators}}
        print(workload, json.dumps(out[workload]), flush=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
