#!/usr/bin/env python3
"""Print the acceptance results of this checkout without their timings.

    python3 oracles/check_details.py [--criteria 1,5]

runs the acceptance criteria (`acceptance.run_all`, every one by
default, as `morseflow check` does) and prints, per criterion, its
number, its pass flag and its `details`, rendered by
`reports.render_json` with every `elapsed` key removed at any depth.
The package is imported from this checkout's src/, so two checkouts
(copy this script into the other one) print texts to compare with
`diff`; equal texts mean the same numbers behind every verdict.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from morseflow.acceptance import run_all  # noqa: E402
from morseflow.reports import render_json  # noqa: E402


def untimed(obj):
    """`obj` with every dict key "elapsed" left out, recursively."""
    if isinstance(obj, dict):
        return {k: untimed(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, (list, tuple)):
        return [untimed(v) for v in obj]
    return obj


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--criteria", default=None,
                        help="comma-separated criterion numbers "
                             "(default: all)")
    args = parser.parse_args()
    criteria = (None if args.criteria is None
                else [int(c) for c in args.criteria.split(",")])
    for result in run_all(criteria=criteria):
        print(render_json({"number": result.number, "passed": result.passed,
                           "details": untimed(result.details)}))
