"""Compare the artifacts of every experiment under two artifact roots.

    python scripts/compare_results.py ROOT_A ROOT_B

Both roots are directories with one artifact subdirectory per experiment,
as ``scripts/run_all_experiments.py --output-root`` writes them.  For each
experiment the script prints how many numbers of ``results.json`` differ
and the largest absolute and relative change (relative to the value under
ROOT_A), then how many of its ``.csv`` and ``.dat`` files differ byte for
byte (by SHA-256 digest).  ``timing.txt`` is left out, since it holds a
wall time.  Assertions are matched by id; ``inputs/output_dir`` is
ignored, since it names the root itself.  Exit status is 2 when a root
is not a directory or a ``results.json`` cannot be read or parsed (one
``error:`` line on stderr), 1 when an experiment, a key or a file is
present under one root only, or when an assertion's ``passed`` verdict
changes, else 0.
"""

import argparse
import hashlib
import json
import math
import os
import sys

IGNORED = {("inputs", "output_dir")}


def flatten(node, path=()):
    """Leaves of a JSON document by path; list entries that carry an ``id``
    are keyed by it, the others by their index."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from flatten(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            key = value["id"] if isinstance(value, dict) and "id" in value else index
            yield from flatten(value, path + (key,))
    elif path not in IGNORED:
        yield path, node


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def same(x, y):
    return x == y or (is_number(x) and is_number(y) and math.isnan(x) and math.isnan(y))


def compare(doc_a, doc_b):
    """Summary line and the list of problems (missing keys and changed
    verdicts)."""
    a, b = dict(flatten(doc_a)), dict(flatten(doc_b))
    problems = [f"key {'/'.join(map(str, k))} only under {side}"
                for keys, other, side in ((a, b, "ROOT_A"), (b, a, "ROOT_B"))
                for k in keys if k not in other]
    numbers = differ = others = 0
    largest_abs = largest_rel = 0.0
    where = ""
    for key in (k for k in a if k in b):
        x, y = a[key], b[key]
        if key[0] == "assertions" and key[-1] == "passed" and x != y:
            problems.append(f"assertion {key[1]} passed {x} -> {y}")
        if not (is_number(x) and is_number(y)):
            others += not same(x, y)
            continue
        numbers += 1
        if same(x, y):
            continue
        differ += 1
        change = abs(y - x)
        largest_abs = max(largest_abs, change)
        relative = change / abs(x) if x else math.inf
        if relative > largest_rel:
            largest_rel, where = relative, f" ({'/'.join(map(str, key))}: {x!r} -> {y!r})"
    line = (f"{differ} of {numbers} numbers differ; "
            f"max abs {largest_abs:.3g}, max rel {largest_rel:.3g}{where}")
    if others:
        line += f"; {others} other values differ"
    return line, problems


def digests(folder):
    """SHA-256 hex digest of each ``.csv`` and ``.dat`` file in ``folder``, by name."""
    out = {}
    for file in sorted(os.listdir(folder)):
        if file.endswith((".csv", ".dat")):
            with open(os.path.join(folder, file), "rb") as handle:
                out[file] = hashlib.sha256(handle.read()).hexdigest()
    return out


def compare_files(digests_a, digests_b):
    """Summary line and the list of problems (files under one side only)
    for one experiment's ``.csv`` and ``.dat`` files, given their ``digests``."""
    problems = [f"file {file} only under {side}"
                for files, other, side in ((digests_a, digests_b, "ROOT_A"),
                                           (digests_b, digests_a, "ROOT_B"))
                for file in sorted(set(files) - set(other))]
    shared = sorted(set(digests_a) & set(digests_b))
    changed = [file for file in shared if digests_a[file] != digests_b[file]]
    line = f"{len(changed)} of {len(shared)} files differ"
    if changed:
        line += f" ({', '.join(changed)})"
    return line, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description="compare two experiment artifact roots")
    parser.add_argument("root_a", help="first artifact root (the reference)")
    parser.add_argument("root_b", help="second artifact root")
    args = parser.parse_args(argv)
    for root in (args.root_a, args.root_b):
        if not os.path.isdir(root):
            print(f"error: artifact root {root} is not a directory", file=sys.stderr)
            return 2

    def experiments(root):
        return {name for name in os.listdir(root)
                if os.path.isfile(os.path.join(root, name, "results.json"))}

    names_a, names_b = experiments(args.root_a), experiments(args.root_b)
    failed = False
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            print(f"{name}: results.json only under {'ROOT_A' if name in names_a else 'ROOT_B'}")
            failed = True
            continue
        folders = [os.path.join(root, name) for root in (args.root_a, args.root_b)]
        docs = []
        for folder in folders:
            path = os.path.join(folder, "results.json")
            try:
                with open(path) as handle:
                    docs.append(json.load(handle))
            except (OSError, ValueError) as exc:
                print(f"error: {path}: {exc}", file=sys.stderr)
                return 2
        line, problems = compare(*docs)
        files_line, file_problems = compare_files(*map(digests, folders))
        print(f"{name}: {line}; {files_line}")
        for problem in problems + file_problems:
            print(f"  {problem}")
        failed = failed or bool(problems or file_problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
