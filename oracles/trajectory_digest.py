#!/usr/bin/env python3
"""Print seven sha256 per catalog scenario over the bytes of seeded flows.

    python3 oracles/trajectory_digest.py [--starts 15]

For each catalog scenario the script takes the critical points and flow
settings from the scenario session (`catalog.ScenarioContext` at its
defaults, as the CLI, the tests and the acceptance suite build it) and
draws `--starts` points from seed 1. It prints
one line `<scenario> plain <digest>` over the `integrate_flow` runs,
forward and backward from each start, and one line
`<scenario> variational <digest>` over the `integrate_variational_multi`
runs, forward from each start with one tangent vector on even starts and
two on odd ones (drawn from seed 2). A digest covers the times, points,
f values, gradient norms, vectors, terminals and step statistics of its
flows, as raw float64 bytes. A third line, `<scenario> transport
<digest>`, covers the `parallel_transport` of the tangent basis at the
start of each forward flow along it (every frame, the Gram drift and
the bias) and one `holonomy_curvature` per start, on the plane of that
basis's first two rows (the operator and its norm). A fourth,
`<scenario> pushed <digest>`, covers the fixed-time flows without
capture that `flatness_test` pushes a plane with: from each start, the
first two rows of that basis pushed by `integrate_variational_multi(...,
capture=False)` forward and backward for t = LIE_H_T and t = 1, and the
`lie_derivative_estimate` made of the LIE_H_T pair. A fifth, `<scenario>
basin <digest>`, covers the basin flows of `flow_terminals` from
BASIN_STARTS points drawn from seed 3: each terminal and the end points
as raw float64 bytes. Two more cover `run_decay`, whose variational
flow is capped at DECAY_MAX_STEP, at seeds 0 and 1000 (and 2059 on
torus_upright, where the flow lingers near a saddle): `<scenario>
decay-series <digest>` over the times, points and vectors of each
series as raw float64 bytes, and `<scenario> decay-fit <digest>` over
the `repr` of each DecayReport. Then one line `<scenario> flows
<digest>` for each of two scenarios off the catalog whose field reads sin, cos and
exp (`transcendental`) or sqrt (`sqrt_domain`, which raises where
x1 < -1), over the `integrate_flow` runs forward and backward and the
`integrate_variational_multi` run with one or two vectors from each
start, without critical points (a small gradient stalls); a flow that
raises adds its error's type and text. The package is
imported from this checkout's src/, so two checkouts print digests to
compare line by line; equal digests mean bit-identical trajectories.
"""

import argparse
import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import numpy as np  # noqa: E402

from morseflow import (  # noqa: E402
    FlowConfig, ImplicitManifold, integrate_flow, load_scenario, parse,
)
from morseflow.catalog import ScenarioContext, list_scenarios  # noqa: E402
from morseflow.errors import MorseflowError  # noqa: E402
from morseflow.flow import flow_terminals  # noqa: E402
from morseflow.linearization import (  # noqa: E402
    integrate_variational_multi, run_decay,
)
from morseflow.transport import (  # noqa: E402
    LIE_H_T, holonomy_curvature, lie_derivative_estimate, parallel_transport,
)


BASIN_STARTS = 50
DECAY_SEEDS = (0, 1000)
EXTRA_DECAY_SEEDS = {"torus_upright": (2059,)}
# (constraint, f) on R^3, both also scenarios of tests/test_kernels.py
OFF_CATALOG = {
    "transcendental": ("x1^2 + x2^2 + x3^2 - 1 + 0.1*sin(x1)",
                       "sin(x3) + 0.3*cos(x1*x2) + 0.1*exp(x2)"),
    "sqrt_domain": ("x1^2 + x2^2 + x3^2 - 1 + 1e-4*sqrt(x1 + 1)",
                    "x3 + 0.2 * x1 * x2"),
}


def _update(digest, *arrays):
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=float).tobytes())


def _update_outcome(digest, terminal, stats):
    digest.update(repr((terminal.kind, terminal.critical_point_id)).encode())
    digest.update(repr((stats.steps, stats.rejected,
                        stats.retraction_halvings, stats.monotone)).encode())
    _update(digest, [stats.max_constraint_drift])


def _update_transport(digest, m, traj):
    """The transport of the start's tangent basis along a forward flow,
    and the holonomy on the plane of its first two rows."""
    start = traj.points[0]
    basis = m.tangent_basis(start)
    moved = parallel_transport(m, traj, basis)
    _update(digest, moved.times, *moved.frames,
            [moved.gram_drift_max, moved.correction_bias_max])
    sample = holonomy_curvature(m, start, basis[0], basis[1])
    _update(digest, sample.operator, [sample.norm])


def _update_pushed(digest, m, f, x0, cfg):
    """Fixed-time pushes of the start basis's first two rows, without
    capture, in both directions, and the Lie derivative estimate."""
    u, v = m.tangent_basis(x0)[:2]
    for t in (LIE_H_T, 1.0):
        for direction in ("forward", "backward"):
            times, points, blocks, terminal, stats = (
                integrate_variational_multi(
                    m, f, x0, [u, v], cfg.replace(t_max=t),
                    direction=direction, capture=False))
            _update(digest, times, points, *blocks)
            _update_outcome(digest, terminal, stats)
    _update(digest, [lie_derivative_estimate(m, f, x0, u, v, cfg)])


def _decay_digests(name, session):
    """The `run_decay` series and reports from each decay seed."""
    series_digest, fit_digest = hashlib.sha256(), hashlib.sha256()
    for seed in DECAY_SEEDS + EXTRA_DECAY_SEEDS.get(name, ()):
        series, report = run_decay(session.manifold, session.function,
                                   session.crits, session.cfg, seed=seed)
        _update(series_digest, series.times, series.points, series.vectors)
        fit_digest.update(repr(report).encode())
    return series_digest.hexdigest(), fit_digest.hexdigest()


def scenario_digests(name, starts):
    session = ScenarioContext(load_scenario(name))
    m, f, crits, cfg = (session.manifold, session.function, session.crits,
                        session.cfg)
    rng = np.random.default_rng(2)
    plain, variational, transport, pushed, basin = (
        hashlib.sha256() for _ in range(5))
    for i, x0 in enumerate(m.sample_points(starts, seed=1)):
        for direction in ("forward", "backward"):
            traj = integrate_flow(m, f, x0, cfg, direction=direction,
                                  crits=crits)
            _update(plain, traj.times, traj.points, traj.f_values,
                    traj.grad_norms)
            _update_outcome(plain, traj.terminal, traj.stats)
            if direction == "forward":
                _update_transport(transport, m, traj)
        vectors = [m.random_tangent(x0, rng) for _ in range(1 + i % 2)]
        times, points, blocks, terminal, stats = integrate_variational_multi(
            m, f, x0, vectors, cfg, crits=crits)
        _update(variational, times, points, *blocks)
        _update_outcome(variational, terminal, stats)
        _update_pushed(pushed, m, f, x0, cfg)
    terminals, ends = flow_terminals(
        m, f, m.sample_points(BASIN_STARTS, seed=3), cfg, crits=crits)
    for terminal in terminals:
        basin.update(repr((terminal.kind,
                           terminal.critical_point_id)).encode())
    _update(basin, ends)
    return tuple(d.hexdigest() for d in (plain, variational, transport,
                                         pushed, basin)) + _decay_digests(
                                             name, session)


def off_catalog_digest(name, starts):
    constraint, function = OFF_CATALOG[name]
    m = ImplicitManifold(3, [parse(constraint, 3)], bounding_box=(-1.2, 1.2))
    f = parse(function, 3)
    cfg = FlowConfig()
    rng = np.random.default_rng(2)
    digest = hashlib.sha256()
    for i, x0 in enumerate(m.sample_points(starts, seed=1)):
        runs = [(integrate_flow, (m, f, x0, cfg, direction))
                for direction in ("forward", "backward")]
        vectors = [m.random_tangent(x0, rng) for _ in range(1 + i % 2)]
        runs.append((integrate_variational_multi, (m, f, x0, vectors, cfg)))
        for run, args in runs:
            try:
                out = run(*args)
            except MorseflowError as exc:
                digest.update(repr((type(exc).__name__, str(exc))).encode())
                continue
            if run is integrate_flow:
                _update(digest, out.times, out.points, out.f_values,
                        out.grad_norms)
                _update_outcome(digest, out.terminal, out.stats)
            else:
                times, points, blocks, terminal, stats = out
                _update(digest, times, points, *blocks)
                _update_outcome(digest, terminal, stats)
    return digest.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--starts", type=int, default=15,
                        help="starts per scenario (default 15)")
    args = parser.parse_args()
    for name in list_scenarios():
        digests = scenario_digests(name, args.starts)
        for kind, digest in zip(("plain", "variational", "transport",
                                 "pushed", "basin", "decay-series",
                                 "decay-fit"), digests):
            print(name, kind, digest)
    for name in OFF_CATALOG:
        print(name, "flows", off_catalog_digest(name, args.starts))
