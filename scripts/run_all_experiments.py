"""Run every experiment in the catalogue with its default parameters.

A loop over ``fracvar run``: each experiment prints that command's lines
and writes its artifact directory under --output-root (by default the root
that ``fracvar run`` resolves: the ``FRACVAR_OUTPUT_DIR`` environment
variable, else ./fracvar_results).  One summary line ends the run.  Exit
status is 0 when every assertion passes, 1 when any fails, 2 at the first
config error or error raised during a run.
"""

import argparse
import json

from fracvar import cli
from fracvar.experiments import list_experiments


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

    settings = []
    if args.output_root is not None:  # as JSON, so a numeric root stays a string
        settings += ["--set", "output_dir=" + json.dumps(args.output_root)]
    if args.seed is not None:
        settings += ["--set", f"seed={args.seed}"]
    ids = args.only or [line.split(":", 1)[0] for line in list_experiments().splitlines()]
    failing = []
    for name in ids:
        code = cli.main(["run", "--experiment", name, *settings])
        if code == 2:
            return 2
        if code:
            failing.append(name)
    if failing:
        print("failing experiments: " + ", ".join(failing))
        return 1
    print(f"all assertions passed across {len(ids)} experiments")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
