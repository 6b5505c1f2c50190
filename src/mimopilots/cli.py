"""Command-line front end.

Subcommands map to the experiment runners: `fig3a` (sum SE vs antenna
count), `fig3b` (worst-user CDF), `fig3c` (sum SE vs localization error),
`oracle` (each allocator's ratio to the exhaustive optimum, printed; it
writes no file and rejects `out`), and `check` (the invariant table
`checks.INVARIANTS`, one PASS/FAIL line per row; it takes no flags).

Each experiment is built one way: the command's `DEFAULTS` document, then
the `--config` file, then the flags, merged once by `load_spec`; the
command's own checks run on that spec before any drop.
Exit codes: 0 success, 2 configuration/usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from dataclasses import replace

from . import checks
from .allocators import search_space_size
from .harness import (ExperimentSpec, load_spec, run_oracle_compare, run_sweep,
                      run_worst_user_cdf, write_cdf_csv, write_rows_csv)
from .model import ConfigError

# Each command's defaults as a config document; a command sweeps the axis
# its defaults name (none for fig3b and oracle).
DEFAULTS = {
    "fig3a": {"experiment": {"name": "fig3a", "sweep": "M", "values": (32, 64),
                             "allocators": ("loc_aware", "random", "greedy")}},
    "fig3b": {"experiment": {"name": "fig3b",
                             "allocators": ("loc_aware", "random", "greedy")}},
    "fig3c": {"k_model": "distance", "los_model": "linear_prob",
              "experiment": {"name": "fig3c", "sweep": "loc_err_var",
                             "values": (0.0, 3.0, 9.0, 15.0),
                             "allocators": ("loc_aware", "sector", "random", "greedy")}},
    "oracle": {"L": 1, "N": 4, "M": 32, "pilot_len": 2,
               "experiment": {"name": "oracle", "drops": 100, "trials": 60,
                              "allocators": ("loc_aware",)}},
}


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with NetworkConfig keys and an "
                                      "optional 'experiment' object")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--drops", type=int, default=None)
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--threads", type=int, default=None)
    sub.add_argument("--allocators", nargs="+", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimopilots",
        description="Multi-cell massive-MIMO uplink pilot-allocation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig3a", help="sum SE vs antenna count per allocator")
    _common_flags(p)
    p.add_argument("--m-values", dest="values", type=int, nargs="+", default=None)
    p.add_argument("--k-db", type=float, nargs="+", default=None,
                   help="one run per fixed K value (dB)")

    p = sub.add_parser("fig3b", help="worst-user sum-SE CDF per allocator")
    _common_flags(p)
    p.add_argument("--m", dest="M", type=int, default=None)

    p = sub.add_parser("fig3c", help="sum SE vs localization error variance")
    _common_flags(p)
    p.add_argument("--values", type=float, nargs="+", default=None,
                   help="localization error variances (m^2)")

    p = sub.add_parser("oracle", help="ratio to the exhaustive-search optimum")
    _common_flags(p)

    sub.add_parser("check", help="run the fast invariant suite")
    return parser


def _flag_overrides(args) -> dict:
    """The flags that were given, as a config document."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    doc = {"M": given["M"]} if "M" in given else {}
    doc["experiment"] = {k: given[k] for k in (
        "values", "allocators", "seed", "drops", "trials", "out", "threads")
        if k in given}
    return doc


def _resolve(args) -> ExperimentSpec:
    """The command's spec: defaults < --config file < flags, then its own checks."""
    defaults = DEFAULTS[args.command]
    spec = load_spec(args.config, defaults, _flag_overrides(args))
    axis = defaults["experiment"].get("sweep")
    if spec.sweep != axis:
        raise ConfigError(f"{args.command} sweeps {axis or 'no axis'}, "
                          f"but the config names sweep {spec.sweep!r}")
    if args.command == "oracle" and spec.out is not None:
        raise ConfigError(f"oracle prints its ratios and writes no file, "
                          f"but the config names out {spec.out!r}")
    if args.command != "oracle":
        spec = replace(spec, out=spec.out or f"{args.command}.csv")
        if os.path.isdir(spec.out) or not os.path.isdir(os.path.dirname(spec.out) or "."):
            raise ConfigError(f"out {spec.out!r} is a directory or its directory does not exist")
    if args.command == "fig3c" and (spec.cfg.k_model, spec.cfg.los_model) != (
            "distance", "linear_prob"):
        raise ConfigError("fig3c requires k_model='distance' and "
                          "los_model='linear_prob'")
    return spec


def _run(args) -> int:
    if args.command == "check":
        return 1 if checks.run_all() else 0

    spec = _resolve(args)
    if args.command == "fig3b":
        tables = run_worst_user_cdf(spec)
        write_cdf_csv(tables, spec.out)
        print(f"wrote CDFs for {len(tables)} allocators to {spec.out}")
        return 0

    if args.command == "oracle":
        n_plans = search_space_size(spec.cfg)
        for name, ratios in run_oracle_compare(spec).items():
            print(f"oracle ratio of {name} over {spec.drops} drops "
                  f"({n_plans} plans searched): mean={ratios.mean():.4f} "
                  f"min={ratios.min():.4f} max={ratios.max():.4f}")
        return 0

    runs = [spec]
    if args.command == "fig3a" and args.k_db:
        names = [f"{spec.name}[k_db={k_db:g}]" for k_db in args.k_db]
        if len(set(names)) < len(names):
            raise ConfigError(f"--k-db values give two runs the same name: {names}")
        runs = [replace(spec, cfg=replace(spec.cfg, k_model="fixed", k_db=k_db), name=name)
                for k_db, name in zip(args.k_db, names)]
    t0 = time.perf_counter()
    rows = [row for run in runs for row in run_sweep(run)]
    seconds = time.perf_counter() - t0
    write_rows_csv(rows, spec.out)
    print(f"wrote {len(rows)} rows to {spec.out} in {seconds:.1f} s")
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
