#!/usr/bin/env python3
"""Print one sha256 per catalog scenario over seeded critical point censuses.

    python3 oracles/census_digest.py [--starts 200] [--seeds 10]

For each catalog scenario the script runs `find_critical_points` with
`--starts` Newton starts at each seed 0, ..., `--seeds` - 1. The digest
covers, per census, the location (as raw float64 bytes), id, value and
index of every critical point and the `SweepStats`. The package is
imported from this checkout's src/, so two checkouts print digests to
compare line by line; equal digests mean the same censuses, bit for bit.
"""

import argparse
import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import numpy as np  # noqa: E402

from morseflow import find_critical_points, load_scenario  # noqa: E402
from morseflow.catalog import list_scenarios  # noqa: E402


def scenario_digest(name, starts, seeds):
    scenario = load_scenario(name)
    m = scenario.build_manifold()
    f = scenario.build_function()
    digest = hashlib.sha256()
    for seed in range(seeds):
        crits = find_critical_points(m, f, starts, seed=seed)
        for p in crits:
            digest.update(np.ascontiguousarray(p.location, dtype=float)
                          .tobytes())
            digest.update(repr((p.id, p.value, p.index)).encode())
        digest.update(repr(crits.stats).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--starts", type=int, default=200,
                        help="Newton starts per census (default 200)")
    parser.add_argument("--seeds", type=int, default=10,
                        help="censuses per scenario, seeds 0.. (default 10)")
    args = parser.parse_args()
    for name in list_scenarios():
        print(name, scenario_digest(name, args.starts, args.seeds))
