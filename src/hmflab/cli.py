"""Command-line entry point: one subcommand per scenario.

    hmflab <scenario> --config <path> --out <dir> [--overwrite] [--threads N]

The subcommand must match the scenario named in the config file, so a
config cannot silently run as something else.  Environment variables are
never consulted; everything comes from the file and the flags.
"""

from __future__ import annotations

import argparse
import sys

from .config import SCENARIOS, ConfigError, load_config
from .runner import RunRefusedError, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmflab",
        description="Spectral mean-field damping laboratory: scenario runner",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run a {name} scenario config")
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", required=True, help="output root directory")
        p.add_argument("--overwrite", action="store_true", help="redo a completed run id")
        p.add_argument("--threads", type=int, default=1, help="parallel sweep members (>= 1)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if cfg.scenario != args.scenario:
        print(
            f"config names scenario {cfg.scenario!r} but the {args.scenario!r} "
            "subcommand was invoked",
            file=sys.stderr,
        )
        return 2
    try:
        manifest = run(cfg, args.out, overwrite=args.overwrite, threads=args.threads)
    except RunRefusedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"ok: {manifest.path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
