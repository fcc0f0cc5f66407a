"""Command-line front end.

Subcommands:
  run <config>       execute a scenario and export CSVs
  validate <config>  print each loop's bound and worst radius, exit 2 on a FAIL
  spectrum <config>  print graph diagnostics (exact Laplacian eigenvalues) and
                     the lambda_max the step sizes use
  dare <config>      print the steady-state prior covariance P* (static sensors)

Exit codes: 0 success, 2 a rejected config (`ConfigError`), 3 a `NumericalError`.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from dkf_admm.exceptions import ConfigError, ConfigRejected, NumericalError
from dkf_admm.harness import (
    ScenarioConfig,
    build_scenario,
    export_csv,
    load_config,
    run_scenario,
    steady_state_prior,
    validate_params,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dkf-admm", description="Distributed Kalman filter simulation harness"
    )
    parser.set_defaults(quiet=False)
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {name: sub.add_parser(name) for name in ("run", "validate", "spectrum", "dare")}
    for p in subs.values():
        p.add_argument("config", nargs="?")
    # only run takes the overrides; validate and dare print nothing but their report
    subs["run"].add_argument("--output", dest="output_dir", help="overrides output_dir")
    subs["run"].add_argument("--seed", dest="master_seed", type=int, help="overrides master_seed")
    subs["run"].add_argument("--runs", dest="n_mc_runs", type=int, help="overrides n_mc_runs")
    for name in ("run", "spectrum"):
        subs[name].add_argument("--quiet", action="store_true")
    return parser


def _load(args) -> ScenarioConfig:
    config = load_config(args.config) if args.config else ScenarioConfig()
    overrides = {k: getattr(args, k, None) for k in ("output_dir", "master_seed", "n_mc_runs")}
    return dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    say = (lambda *_: None) if args.quiet else print
    try:
        config = _load(args)
        if args.command == "run":
            out = Path(config.output_dir)  # checked before the run; nothing is created
            base = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
            if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
                raise ConfigRejected(f"output_dir {out}: {base} is not a writable directory")
            metrics = run_scenario(config)
            paths = export_csv(metrics, config.output_dir)
            say(f"wrote {len(paths)} files to {config.output_dir}")
            for p in paths:
                say(f"  {p}")
        elif args.command == "validate":
            text, reports = validate_params(config)
            print(text)
            for report in reports:  # the printed FAIL, as a rejection
                report.require()
        elif args.command == "spectrum":
            graph, _, spectrum, _ = build_scenario(config)
            say(f"graph: {config.topology}, N={config.n_nodes}, "
                f"edges={graph.indices.size // 2}")
            print("eigenvalues:", " ".join(f"{v:.10g}" for v in spectrum.eigenvalues))
            print(f"lambda_2 = {spectrum.lambda_2:.10g}")
            print(f"lambda_max = {spectrum.eigenvalues[-1]:.10g}")
            print(f"step-size lambda_max = {spectrum.lambda_max!r}")
        elif args.command == "dare":
            _, model, _, _ = build_scenario(config)
            p_star = steady_state_prior(model)
            print("P* =")
            for row in p_star:
                print("  " + " ".join(f"{v: .12g}" for v in row))
    except ConfigError as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
