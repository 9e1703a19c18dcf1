"""Command-line front end: ``anyonpt <runner> --config FILE [--jobs N] [--output DIR]``.

Exit codes: 0 on success, 2 for configuration problems and unusable output
paths, 3 for numerical failures.  The output directory resolves as --output,
then the ANYONPT_OUTPUT environment variable, then the config's output_dir,
then ./anyonpt_out/<experiment>.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import EXPERIMENTS, ExperimentConfig
from .errors import AnyonptError, ConfigError
from .runners import run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anyonpt",
        description="Spectra, wave dynamics and scattering for drifting phase-rotated "
        "PT-symmetric potentials.",
    )
    sub = parser.add_subparsers(dest="runner", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
        p.add_argument("--output", default=None, help="output directory override")
    return parser


def resolve_output_dir(args, cfg: ExperimentConfig) -> Path:
    if args.output:
        return Path(args.output)
    env = os.environ.get("ANYONPT_OUTPUT")
    if env:
        return Path(env)
    if cfg.output_dir:
        return Path(cfg.output_dir)
    return Path("anyonpt_out") / cfg.experiment


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_yaml(args.config)
        if cfg.experiment != args.runner:
            raise ConfigError(
                f"config is for experiment {cfg.experiment!r}, invoked runner {args.runner!r}"
            )
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        outdir = resolve_output_dir(args, cfg)
        written = run_experiment(cfg, outdir, jobs=args.jobs)
    except ConfigError as exc:
        print(f"anyonpt: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AnyonptError as exc:
        print(f"anyonpt: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # an output path that is a file, under one, or unwritable
        print(f"anyonpt: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
