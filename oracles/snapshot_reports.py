#!/usr/bin/env python3
"""Write the CLI reports of the four catalog scenarios into one tree.

    python3 oracles/snapshot_reports.py --out DIR

runs, for each catalog scenario, `critical-points`, `flow --from-crit 1`
forward and `--backward`, `graph`, `decay`, `basin --samples 1000` and
`curvature --samples 8`, each into DIR/<scenario>/<command>/. The
package is imported from this checkout's src/, so two checkouts give two
trees to compare with `diff -r`. A command that fails stops the script
with its exit code.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from morseflow.catalog import list_scenarios  # noqa: E402
from morseflow.cli import main  # noqa: E402

COMMANDS = (
    ("critical-points", ["critical-points"]),
    ("flow", ["flow", "--from-crit", "1"]),
    ("flow-backward", ["flow", "--from-crit", "1", "--backward"]),
    ("graph", ["graph"]),
    ("decay", ["decay"]),
    ("basin", ["basin", "--samples", "1000"]),
    ("curvature", ["curvature", "--samples", "8"]),
)


def snapshot(out):
    for name in list_scenarios():
        for label, argv in COMMANDS:
            target = os.path.join(out, name, label)
            code = main([*argv, "--scenario", name, "--out", target])
            if code:
                raise SystemExit(code)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True,
                        help="directory to write the report tree into")
    snapshot(parser.parse_args().out)
