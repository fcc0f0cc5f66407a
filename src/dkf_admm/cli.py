"""Command-line front end.

Subcommands:
  run <config>       execute a scenario and export CSVs
  validate <config>  print the stability report (bounds + per-mode radii)
  spectrum <config>  print graph diagnostics (Laplacian eigenvalues)
  dare <config>      print the steady-state prior covariance P*

Exit codes: 0 success, 2 config rejected, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from dkf_admm.exceptions import (
    ConfigRejected,
    GraphGenerationFailed,
    GraphNotConnected,
    NotPositiveDefinite,
    ObservabilityError,
    RiccatiDivergence,
    SpectralFailure,
)
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

_CONFIG_ERRORS = (ConfigRejected, GraphNotConnected, GraphGenerationFailed)
_NUMERICAL_ERRORS = (
    NotPositiveDefinite,
    RiccatiDivergence,
    ObservabilityError,
    SpectralFailure,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dkf-admm", description="Distributed Kalman filter simulation harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate", "spectrum", "dare"):
        p = sub.add_parser(name)
        p.add_argument("config_positional", nargs="?", metavar="config")
        p.add_argument("--config", dest="config_flag")
        p.add_argument("--output", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="overrides master_seed")
        p.add_argument("--runs", type=int, help="overrides n_mc_runs")
        p.add_argument("--quiet", action="store_true")
    return parser


def _load(args) -> ScenarioConfig:
    path = args.config_flag or args.config_positional
    config = load_config(path) if path else ScenarioConfig()
    overrides = {}
    if args.output is not None:
        overrides["output_dir"] = args.output
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.runs is not None:
        overrides["n_mc_runs"] = args.runs
    return dataclasses.replace(config, **overrides) if overrides else config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    say = (lambda *_: None) if args.quiet else print
    try:
        config = _load(args)
        if args.command == "run":
            metrics = run_scenario(config)
            paths = export_csv(metrics, config.output_dir)
            say(f"wrote {len(paths)} files to {config.output_dir}")
            for p in paths:
                say(f"  {p}")
        elif args.command == "validate":
            print(validate_params(config))
        elif args.command == "spectrum":
            graph, _, spectrum, _ = build_scenario(config)
            say(f"graph: {config.topology}, N={config.n_nodes}, "
                f"edges={int(graph.adjacency.sum()) // 2}")
            print("eigenvalues:", " ".join(f"{v:.10g}" for v in spectrum.eigenvalues))
            print(f"lambda_2 = {spectrum.lambda_2:.10g}")
            print(f"lambda_max = {spectrum.lambda_max:.10g}")
        elif args.command == "dare":
            _, model, _, _ = build_scenario(config)
            p_star = steady_state_prior(model)
            print("P* =")
            for row in p_star:
                print("  " + " ".join(f"{v: .12g}" for v in row))
    except _CONFIG_ERRORS as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
