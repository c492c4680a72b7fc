"""Run every experiment in the catalogue with its default parameters.

Each experiment writes its artifact directory under --output-root (by
default the root that ``fracvar.experiments.run`` resolves: the
``FRACVAR_OUTPUT_DIR`` environment variable, else ./fracvar_results) and
prints one line per assertion. Exit status is 0 when every assertion
passes, 1 when any fails, 2 for a config error or an error raised during
a run.
"""

import argparse
import json
import sys
import time

from fracvar.errors import FracvarError, ParseError
from fracvar.experiments import list_experiments, parse_config, run


def experiment_ids():
    return [line.split(":", 1)[0] for line in list_experiments().splitlines()]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="run the full experiment catalogue and summarize assertions"
    )
    parser.add_argument(
        "--output-root",
        help="directory that receives one artifact subdirectory per experiment",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="ID",
        help="run only this experiment id (repeatable)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the default seed"
    )
    args = parser.parse_args(argv)

    ids = args.only or experiment_ids()
    failures = []
    for name in ids:
        doc = {"experiment": name}
        if args.output_root is not None:
            doc["output_dir"] = args.output_root
        if args.seed is not None:
            doc["seed"] = args.seed
        try:
            config = parse_config(json.dumps(doc))
        except ParseError as exc:
            for line in exc.errors:
                print(f"config error: {line}", file=sys.stderr)
            return 2
        started = time.perf_counter()
        try:
            record = run(config)
        except FracvarError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - started
        print(f"{name} ({elapsed:.1f}s)")
        for check in record.assertions:
            print(f"  {check}")
            if not check.passed:
                failures.append(f"{name}/{check.id}")
    print()
    if failures:
        print("failing assertions: " + ", ".join(failures))
        return 1
    print(f"all assertions passed across {len(ids)} experiments")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
