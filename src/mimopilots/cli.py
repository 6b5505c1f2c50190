"""Command-line front end.

Subcommands map to the experiment runners: `fig3a` (sum SE vs antenna
count), `fig3b` (worst-user CDF), `fig3c` (sum SE vs localization error),
`oracle` (ratio to the exhaustive optimum), and `check` (invariant suite).
Exit codes: 0 success, 2 configuration/usage error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import replace

from . import checks
from .harness import (ExperimentSpec, load_spec, run_locerr_sweep,
                      run_oracle_compare, run_sum_se_sweep, run_worst_user_cdf,
                      write_cdf_csv, write_rows_csv)
from .model import ConfigError, NetworkConfig


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with NetworkConfig keys and an "
                                      "optional 'experiment' object")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--drops", type=int, default=None)
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--threads", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimopilots",
        description="Multi-cell massive-MIMO uplink pilot-allocation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig3a", help="sum SE vs antenna count per allocator")
    _common_flags(p)
    p.add_argument("--m-values", type=int, nargs="+", default=None)
    p.add_argument("--k-db", type=float, nargs="+", default=None,
                   help="one run per fixed K value (dB)")
    p.add_argument("--allocators", nargs="+", default=None)

    p = sub.add_parser("fig3b", help="worst-user sum-SE CDF per allocator")
    _common_flags(p)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--allocators", nargs="+", default=None)

    p = sub.add_parser("fig3c", help="sum SE vs localization error variance")
    _common_flags(p)
    p.add_argument("--values", type=float, nargs="+", default=None,
                   help="localization error variances (m^2)")
    p.add_argument("--allocators", nargs="+", default=None)

    p = sub.add_parser("oracle", help="ratio to the exhaustive-search optimum")
    _common_flags(p)

    p = sub.add_parser("check", help="run the fast invariant suite")
    _common_flags(p)
    return parser


def _spec_from_args(args, default_cfg: NetworkConfig,
                    default_exp: dict) -> ExperimentSpec:
    overrides = {"seed": args.seed, "drops": args.drops, "trials": args.trials,
                 "out": args.out, "threads": args.threads}
    if args.config:
        spec = load_spec(args.config, overrides)
    else:
        exp = dict(default_exp)
        exp.update({k: v for k, v in overrides.items() if v is not None})
        spec = ExperimentSpec(cfg=default_cfg, **exp)
    return spec


def _run(args) -> int:
    if args.command == "check":
        return 1 if checks.run_all() else 0

    if args.command == "fig3a":
        base = NetworkConfig()
        spec = _spec_from_args(args, base, {
            "name": "fig3a", "sweep": "M", "values": (32, 64),
            "allocators": ("loc_aware", "random", "greedy")})
        if args.m_values:
            spec = replace(spec, sweep="M", values=tuple(args.m_values))
        if args.allocators:
            spec = replace(spec, allocators=tuple(args.allocators))
        k_values = args.k_db if args.k_db else [spec.cfg.k_db]
        rows = []
        for k_db in k_values:
            cfg_k = replace(spec.cfg, k_model="fixed", k_db=float(k_db))
            spec_k = replace(spec, cfg=cfg_k,
                             name=f"{spec.name}[k_db={k_db:g}]")
            rows.extend(run_sum_se_sweep(spec_k))
        out = spec.out or "fig3a.csv"
        write_rows_csv(rows, out)
        print(f"wrote {len(rows)} rows to {out}")
        return 0

    if args.command == "fig3b":
        spec = _spec_from_args(args, NetworkConfig(), {
            "name": "fig3b", "allocators": ("loc_aware", "random", "greedy")})
        if args.m is not None:
            spec = replace(spec, cfg=replace(spec.cfg, M=args.m))
        if args.allocators:
            spec = replace(spec, allocators=tuple(args.allocators))
        tables = run_worst_user_cdf(spec)
        out = spec.out or "fig3b.csv"
        write_cdf_csv(tables, out)
        print(f"wrote CDFs for {len(tables)} allocators to {out}")
        return 0

    if args.command == "fig3c":
        base = NetworkConfig(k_model="distance", los_model="linear_prob")
        spec = _spec_from_args(args, base, {
            "name": "fig3c", "sweep": "loc_err_var", "values": (0.0, 3.0, 9.0, 15.0),
            "allocators": ("loc_aware", "sector", "random", "greedy")})
        if args.values:
            spec = replace(spec, sweep="loc_err_var", values=tuple(args.values))
        if args.allocators:
            spec = replace(spec, allocators=tuple(args.allocators))
        rows = run_locerr_sweep(spec)
        out = spec.out or "fig3c.csv"
        write_rows_csv(rows, out)
        print(f"wrote {len(rows)} rows to {out}")
        return 0

    if args.command == "oracle":
        base = NetworkConfig(L=1, N=4, M=32, pilot_len=2)
        spec = _spec_from_args(args, base, {
            "name": "oracle", "drops": 100, "trials": 60,
            "allocators": ("loc_aware",)})
        report = run_oracle_compare(spec)
        print(f"oracle ratio over {report.drops} drops "
              f"({report.searched_plans} plans searched): "
              f"mean={report.mean:.4f} min={report.min:.4f} max={report.max:.4f}")
        return 0

    raise ConfigError(f"unknown subcommand {args.command!r}")


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
