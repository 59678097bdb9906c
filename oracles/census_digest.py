#!/usr/bin/env python3
"""Print two sha256 per catalog scenario over seeded critical point censuses.

    python3 oracles/census_digest.py [--starts 200] [--seeds 10]

For each catalog scenario the script runs `find_critical_points` with
`--starts` Newton starts at each seed 0, ..., `--seeds` - 1. The digest
covers, per census, the location (as raw float64 bytes), id, value and
index of every critical point, the `SweepStats`, and the r, c_floor and
n_floor_samples of `geometric_constants` (2000 samples, the census's
seed). A second line per scenario, `<scenario> h_lam <digest>`, covers
the multiplier-corrected Hessian H_lam by both of its paths, as raw
float64 bytes: `corrected_hessian` at each critical point of each
census, and `linearization._corrected_hessians` over
`sample_points(200, seed)` at each seed. A last line, `sqrt_domain`, is
a scenario off the catalog whose constraint reads sqrt(x1 + 1), with
the default bounding box, so that every draw block of the sampler holds
draws outside the domain; at each seed its digest covers the bytes of
`sample_points(2000, seed)`, the outcome of `find_critical_points` (a
result, or its error's type and text), and the manifold-wide gradient
floor of `geometric_constants` with no critical points. The package is
imported from this checkout's src/, so two checkouts print digests to
compare line by line; equal digests mean the same censuses, bit for
bit.
"""

import argparse
import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import numpy as np  # noqa: E402

from morseflow import (  # noqa: E402
    ImplicitManifold, find_critical_points, geometric_constants,
    load_scenario, parse,
)
from morseflow.catalog import list_scenarios  # noqa: E402
from morseflow.errors import MorseflowError, TooFewCriticalPointsError  # noqa: E402
from morseflow.linearization import _corrected_hessians  # noqa: E402
from morseflow.morse import corrected_hessian  # noqa: E402

# (constraint, f) on R^3, as in trajectory_digest.py
SQRT_DOMAIN = ("x1^2 + x2^2 + x3^2 - 1 + 1e-4*sqrt(x1 + 1)",
               "x3 + 0.2*x1*x2")


def _update_census(digest, crits):
    for p in crits:
        digest.update(np.ascontiguousarray(p.location, dtype=float)
                      .tobytes())
        digest.update(repr((p.id, p.value, p.index)).encode())
    digest.update(repr(crits.stats).encode())


def scenario_digests(name, starts, seeds):
    """(census digest, h_lam digest) of one catalog scenario."""
    scenario = load_scenario(name)
    m = scenario.build_manifold()
    f = scenario.build_function()
    digest = hashlib.sha256()
    h_lam = hashlib.sha256()
    for seed in range(seeds):
        crits = find_critical_points(m, f, starts, seed=seed)
        _update_census(digest, crits)
        consts = geometric_constants(m, f, crits, seed=seed)
        digest.update(repr((consts.r, consts.c_floor,
                            consts.n_floor_samples)).encode())
        for p in crits:
            h_lam.update(corrected_hessian(m, f, p.location).tobytes())
        h_lam.update(_corrected_hessians(
            m, f, m.sample_points(200, seed)).tobytes())
    return digest.hexdigest(), h_lam.hexdigest()


def sqrt_domain_digest(starts, seeds):
    m = ImplicitManifold(3, [parse(SQRT_DOMAIN[0], 3)])
    f = parse(SQRT_DOMAIN[1], 3)
    digest = hashlib.sha256()
    for seed in range(seeds):
        digest.update(np.ascontiguousarray(m.sample_points(2000, seed))
                      .tobytes())
        try:
            _update_census(digest, find_critical_points(m, f, starts,
                                                        seed=seed))
        except MorseflowError as exc:
            digest.update(repr((type(exc).__name__, str(exc))).encode())
        try:
            geometric_constants(m, f, [], seed=seed)
        except TooFewCriticalPointsError as exc:
            digest.update(repr(exc.manifold_floor).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--starts", type=int, default=200,
                        help="Newton starts per census (default 200)")
    parser.add_argument("--seeds", type=int, default=10,
                        help="censuses per scenario, seeds 0.. (default 10)")
    args = parser.parse_args()
    for name in list_scenarios():
        census, h_lam = scenario_digests(name, args.starts, args.seeds)
        print(name, census)
        print(name, "h_lam", h_lam)
    print("sqrt_domain", sqrt_domain_digest(args.starts, args.seeds))
