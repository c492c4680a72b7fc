"""Command-line entry point: run experiments or list the catalogue.

Exit status: 0 when every assertion passes, 1 when any fails, 2 for
config or usage errors and for errors raised during a run, an artifact
root that cannot be written among them, so shell pipelines and CI gates
can branch on the result without parsing output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .errors import FracvarError, ParseError
from .experiments import _config_from_mapping, _decode_document, list_experiments, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracvar",
        description="run verification experiments for the fractional "
        "variational toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runner = sub.add_parser("run", help="execute one experiment")
    runner.add_argument(
        "config", nargs="?", default=None, help="path to a JSON config file"
    )
    runner.add_argument(
        "--experiment", default=None, help="experiment id (overrides the config)"
    )
    runner.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config field; VALUE is parsed as JSON when possible",
    )
    sub.add_parser("list", help="print the experiment catalogue")
    return parser


def _load_document(args) -> dict:
    doc = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ParseError([f"config file: {exc}"])
        doc = _decode_document(text)
    if args.experiment is not None:
        doc["experiment"] = args.experiment
    for item in args.overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ParseError([f"--set: expected KEY=VALUE, got {item!r}"])
        try:
            doc[key] = json.loads(raw)
        except json.JSONDecodeError:
            doc[key] = raw
    if "experiment" not in doc:
        raise ParseError(
            ["experiment: required (pass a config file or --experiment)"]
        )
    return doc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "list":
        sys.stdout.write(list_experiments())
        return 0
    try:
        config = _config_from_mapping(_load_document(args))
    except ParseError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    try:
        record = run(config)
    except (FracvarError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for check in record.assertions:
        print(check)
    print(f"artifacts: {record.output_dir}")
    failing = [check.id for check in record.assertions if not check.passed]
    if failing:
        print("failing assertions: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
