"""Command line entry point.

    levywalk simulate --config cfg.txt [--seed N] [--out DIR] [--threads K]
    levywalk verify SUITE --config cfg.txt [--seed N] [--out DIR] [--threads K]
    levywalk report [--out DIR]

verify exits 0 iff every report row passes; a config that cannot be read,
parsed or validated exits 2, and so does a run whose output directory
(<out>/simulate or <out>/<suite>) already exists, or one that a config
field makes fail, such as an ensemble that overflows. Running the same
config and seed into a new directory writes byte-identical artifacts
whatever --threads is; it must be at least 1, and counts above
os.cpu_count() are lowered to it.
"""

import argparse
import dataclasses
import os
import sys

from .errors import ConfigError, ValidationError
from .harness import (SUITES, _validate, _validate_suite, aggregate_reports,
                      parse_config, run_simulate, run_suite)


def _thread_count(text):
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {k}")
    return min(k, os.cpu_count() or 1)


def _add_common(p):
    p.add_argument("--config", required=True, help="path to a key = value config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the config output directory")
    p.add_argument("--threads", type=_thread_count, default=1,
                   help="worker threads, at most the CPU count (output-invariant)")


def build_parser():
    parser = argparse.ArgumentParser(prog="levywalk",
                                     description="Levy walk simulation and verification")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("simulate", help="dump trajectories and ensembles"))
    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    _add_common(p_verify)
    p_report = sub.add_parser("report", help="summarize verdicts under an output directory")
    p_report.add_argument("--out", default="runs")
    return parser


def _load_config(args):
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out=args.out)
    _validate(cfg)  # replace() skips the checks parse_config ran
    if args.command == "verify":
        _validate_suite(cfg, args.suite)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return aggregate_reports(args.out)
    try:
        cfg = _load_config(args)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config read error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"config validation error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "simulate":
            return run_simulate(cfg, cfg.out, args.threads)
        return run_suite(cfg, args.suite, cfg.out, args.threads)
    except ValidationError as exc:
        print(f"run refused: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
