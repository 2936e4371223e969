"""Run one atcnet CLI command as a measured process.

Usage::

    python3 child.py --record OUT.json [--trace] [--setup-only] -- <atcnet args>

Writes to OUT.json the monotonic-clock times at which the config finished
loading, ``cli.main`` started and ``cli.main`` returned, plus the trace
summary when ``--trace`` is given (spans go to OUT.spans.csv). With
``--setup-only`` it stops once the config is loaded. Exits with the CLI's
exit code.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import atcnet.cli as cli

    record: dict = {}
    if args.setup_only:
        cli.load_config(cli_args[cli_args.index("--config") + 1])
        record["loaded"] = time.monotonic()
        args.record.write_text(json.dumps(record))
        return 0

    tracer = None
    main_fn = cli.main
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        main_fn = tracer.timed("cli.main", cli.main)

    load = cli.load_config

    def load_and_mark(*a, **kw):
        config = load(*a, **kw)
        record["loaded"] = time.monotonic()
        if tracer is not None:
            tracer.mark_setup()
        return config

    cli.load_config = load_and_mark
    record["main_start"] = time.monotonic()
    code = main_fn(cli_args)
    record["main_end"] = time.monotonic()
    if tracer is not None:
        record["trace"] = tracer.summary()
        tracer.write_spans(args.record.with_suffix(".spans.csv"))
    args.record.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
