"""Command-line interface.

Subcommands::

    atcnet analyze  --config <path|preset> [--out DIR]
    atcnet simulate --config <path|preset> [--out DIR] [--seed N]
    atcnet msd      --config <path|preset> [--out DIR] [--with-sim]
    atcnet verify   [--filter NAME]

Exit codes: 0 success, 1 configuration or I/O error, 2 divergence, 3
verification failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import acceptance, workflows
from .config import PRESET_NAMES, load_config
from .errors import ConfigError, Diverged

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_VERIFY = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atcnet",
        description=(
            "Analyze and simulate adapt-then-combine diffusion learning over "
            "directed networks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument(
                "--config",
                required=True,
                help=f"config file path or preset name {PRESET_NAMES}",
            )
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override run seed")

    add_common(sub.add_parser("analyze", help="structure, W, limit points"))
    add_common(sub.add_parser("simulate", help="Monte-Carlo diffusion runs"))
    msd = sub.add_parser("msd", help="theoretical MSD report")
    add_common(msd)
    msd.add_argument(
        "--with-sim", action="store_true", help="attach Monte-Carlo comparison"
    )
    verify = sub.add_parser("verify", help="run the built-in acceptance suite")
    verify.add_argument(
        "--filter", default=None, help="criterion number, name fragment, or tag"
    )
    return parser


def _load(args):
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(
            config, run=dataclasses.replace(config.run, seed=args.seed)
        )
    return config


def _out_dir(args, config) -> Path:
    if args.out:
        return Path(args.out)
    if config.output_dir:
        return Path(config.output_dir)
    return Path("out") / config.name


def cmd_analyze(args) -> int:
    config = _load(args)
    payload = workflows.analyze(config)
    out = _out_dir(args, config)
    workflows.write_json(payload, out / "analysis.json")
    print(workflows.human_summary(payload))
    print(f"wrote {out / 'analysis.json'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load(args)
    out = _out_dir(args, config)
    result = workflows.simulate(config, out_dir=out)
    if result.estimate is not None:
        for k, (est, hw) in enumerate(
            zip(result.estimate.per_agent, result.estimate.halfwidth)
        ):
            db = 10.0 * math.log10(est) if est > 0 else float("-inf")
            print(f"agent {k}: MSD estimate {db:.2f} dB (+/- {hw:.2e} linear)")
    print(f"wrote {len(result.written)} files under {out}")
    return EXIT_OK


def cmd_msd(args) -> int:
    config = _load(args)
    payload = workflows.msd(config, with_sim=args.with_sim)
    out = _out_dir(args, config)
    workflows.write_json(payload, out / "msd_report.json")
    print(workflows.human_summary(payload))
    print(f"wrote {out / 'msd_report.json'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = acceptance.run_criteria(args.filter)
    if not results:
        print(f"no criteria match filter '{args.filter}'")
        return EXIT_VERIFY
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.cid:>2} {r.name:<{width}} ({r.seconds:6.2f} s) {r.detail}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "simulate": cmd_simulate,
        "msd": cmd_msd,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Diverged as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        config_path = getattr(args, "config", None)
        if config_path:
            print(f"config: {config_path}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:  # an output path that cannot be created or written
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
