#!/usr/bin/env python3
"""Print two sha256 per catalog scenario over the bytes of seeded flows.

    python3 oracles/trajectory_digest.py [--starts 15]

For each catalog scenario the script takes the critical points and flow
settings as the tests do (200 Newton starts at seed 0, the scenario's
integrator defaults) and draws `--starts` points from seed 1. It prints
one line `<scenario> plain <digest>` over the `integrate_flow` runs,
forward and backward from each start, and one line
`<scenario> variational <digest>` over the `integrate_variational_multi`
runs, forward from each start with one tangent vector on even starts and
two on odd ones (drawn from seed 2). A digest covers the times, points,
f values, gradient norms, vectors, terminals and step statistics of its
flows, as raw float64 bytes. The package is imported from this
checkout's src/, so two checkouts print digests to compare line by
line; equal digests mean bit-identical trajectories.
"""

import argparse
import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import numpy as np  # noqa: E402

from morseflow import (  # noqa: E402
    FlowConfig, find_critical_points, geometric_constants, integrate_flow,
    load_scenario,
)
from morseflow.catalog import list_scenarios  # noqa: E402
from morseflow.linearization import integrate_variational_multi  # noqa: E402


def _update(digest, *arrays):
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=float).tobytes())


def _update_outcome(digest, terminal, stats):
    digest.update(repr((terminal.kind, terminal.critical_point_id)).encode())
    digest.update(repr((stats.steps, stats.rejected,
                        stats.retraction_halvings, stats.monotone)).encode())
    _update(digest, [stats.max_constraint_drift])


def scenario_digests(name, starts):
    scenario = load_scenario(name)
    m = scenario.build_manifold()
    f = scenario.build_function()
    crits = find_critical_points(m, f, 200, seed=0)
    consts = geometric_constants(m, f, crits)
    cfg = FlowConfig.from_constants(consts, **scenario.config.integrator)
    rng = np.random.default_rng(2)
    plain, variational = hashlib.sha256(), hashlib.sha256()
    for i, x0 in enumerate(m.sample_points(starts, seed=1)):
        for direction in ("forward", "backward"):
            traj = integrate_flow(m, f, x0, cfg, direction=direction,
                                  crits=crits)
            _update(plain, traj.times, traj.points, traj.f_values,
                    traj.grad_norms)
            _update_outcome(plain, traj.terminal, traj.stats)
        vectors = [m.random_tangent(x0, rng) for _ in range(1 + i % 2)]
        times, points, blocks, terminal, stats = integrate_variational_multi(
            m, f, x0, vectors, cfg, crits=crits)
        _update(variational, times, points, *blocks)
        _update_outcome(variational, terminal, stats)
    return plain.hexdigest(), variational.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--starts", type=int, default=15,
                        help="starts per scenario (default 15)")
    args = parser.parse_args()
    for name in list_scenarios():
        plain, variational = scenario_digests(name, args.starts)
        print(name, "plain", plain)
        print(name, "variational", variational)
