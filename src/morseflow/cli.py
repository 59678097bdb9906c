"""Command-line interface.

Every subcommand binds a scenario (catalog name or config file) to the
library operations and writes machine-readable reports into the output
directory. Exit codes: 0 success, 1 check or computation failure,
2 configuration or parse errors. Diagnostics go to stderr.
"""

import argparse
import os
import sys

import numpy as np

from . import acceptance, reports
from .catalog import (
    N_STARTS, ScenarioContext, load_scenario, load_scenario_file,
)
from .config import INTEGRATOR_KEYS
from .connectivity import basin_sample, build_connection_graph, check_connected
from .errors import ConfigError, ExpressionSyntaxError, MorseflowError, UnknownScenarioError
from .flow import check_length_bound, integrate_flow
from .linearization import (
    ENERGY_MAX_STEP, check_energy_ode, integrate_variational, run_decay,
)
from .transport import flatness_test


def _add_common(parser):
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", help="catalog scenario name")
    source.add_argument("--config", help="path to a scenario config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario's seed")
    parser.add_argument("--out", default=None,
                        help="output directory (default $MORSEFLOW_OUT or "
                             "./morseflow-out)")
    parser.add_argument("--n-starts", type=int, default=N_STARTS,
                        help="multi-start count for the critical point sweep")
    for flag in INTEGRATOR_KEYS:
        parser.add_argument(f"--{flag.replace('_', '-')}", type=float,
                            default=None, dest=flag)


def _write(args, files):
    """Write each report of {file name: payload} (text for a str, else
    JSON) into the output directory, and return the directory."""
    out = args.out or os.environ.get("MORSEFLOW_OUT") or "./morseflow-out"
    os.makedirs(out, exist_ok=True)
    for name, payload in files.items():
        if isinstance(payload, str):
            reports.write_text_atomic(os.path.join(out, name), payload)
        else:
            reports.write_json_atomic(os.path.join(out, name), payload)
    return out


def _session(args, **positive):
    """ScenarioContext of the common flags. Each keyword names a
    subcommand flag whose value must be positive and finite; they are
    checked before the scenario loads."""
    for flag, value in positive.items():
        if not 0 < value < np.inf:
            raise ConfigError(f"--{flag} must be finite and > 0, got {value}")
    if args.scenario:
        scenario = load_scenario(args.scenario)
    else:
        scenario = load_scenario_file(args.config)
    overrides = {flag: getattr(args, flag) for flag in INTEGRATOR_KEYS
                 if getattr(args, flag) is not None}
    return ScenarioContext(scenario, seed=args.seed, n_starts=args.n_starts,
                           integrator=overrides)


def _parse_point(text, n):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != n:
        raise ConfigError(
            f"point needs {n} coordinates, got {len(parts)}"
        )
    try:
        point = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ConfigError(f"bad coordinate in {text!r}") from exc
    if not np.all(np.isfinite(point)):
        raise ConfigError(f"non-finite coordinate in {text!r}")
    return point


def _cmd_critical_points(args):
    ws = _session(args)
    out = _write(args, {"critical_points.json":
                        reports.critical_points_report(ws.crits, ws.consts)})
    print(f"{len(ws.crits)} critical points -> {out}/critical_points.json")
    return 0


def _crit_location(ws, crit_id):
    by_id = {p.id: p for p in ws.crits}
    if crit_id not in by_id:
        raise ConfigError(f"no critical point with id {crit_id}")
    return by_id[crit_id].location


def _cmd_flow(args):
    ws = _session(args)
    if args.from_crit is not None:
        x0 = _crit_location(ws, args.from_crit)
    elif args.start is None:
        raise ConfigError("flow needs --from <point|crit-id> or --from-crit")
    elif args.start.strip().isdigit():
        x0 = _crit_location(ws, int(args.start))
    else:
        x0 = ws.manifold.retract(
            _parse_point(args.start, ws.manifold.ambient_dim)
        )
    direction = "backward" if args.backward else "forward"
    traj = integrate_flow(ws.manifold, ws.function, x0, ws.cfg,
                          direction=direction, crits=ws.crits)
    length = None
    if ws.consts is not None and len(traj) >= 2:
        length = check_length_bound(traj, ws.consts)
    out = _write(args, {
        "trajectory.csv": reports.trajectory_csv(traj),
        "terminal.json": reports.terminal_report(traj, length),
    })
    print(
        f"trajectory: {len(traj)} samples, terminal {traj.terminal.kind} "
        f"-> {out}/trajectory.csv"
    )
    return 0


def _cmd_graph(args):
    ws = _session(args, eps=args.eps)
    graph = build_connection_graph(ws.manifold, ws.function, ws.crits,
                                   ws.cfg, eps=args.eps)
    connected, components = check_connected(graph)
    out = _write(args, {
        "graph.json": reports.graph_report(graph, connected, components),
        "graph.dot": reports.graph_dot(graph),
    })
    print(
        f"graph: {len(graph.crits)} nodes, {len(graph.edges)} witness "
        f"orbits, connected={connected} -> {out}/graph.json"
    )
    return 0


def _cmd_decay(args):
    ws = _session(args)
    x0 = None
    v0 = None
    if args.start is not None:
        x0 = ws.manifold.retract(
            _parse_point(args.start, ws.manifold.ambient_dim)
        )
    if args.direction_vector is not None:
        if x0 is None:
            raise ConfigError("--v requires --from")
        raw = _parse_point(args.direction_vector, ws.manifold.ambient_dim)
        v0 = ws.manifold.project_tangent(x0, raw)
    series, report = run_decay(ws.manifold, ws.function, ws.crits, ws.cfg,
                               seed=ws.seed, x0=x0, v0=v0)
    energy_series = integrate_variational(
        ws.manifold, ws.function, series.points[0], series.vectors[0],
        ws.cfg.replace(max_step=ENERGY_MAX_STEP), crits=ws.crits,
    )
    residual = check_energy_ode(energy_series, ws.manifold, ws.function)
    out = _write(args,
                 {"decay.json": reports.decay_report(report, residual)})
    print(
        f"decay: fitted {report.c_fit:.6f} vs predicted {report.c_pred:.6f} "
        f"(gap {report.relative_gap:.2%}) -> {out}/decay.json"
    )
    return 0


def _cmd_basin(args):
    ws = _session(args, samples=args.samples)
    report = basin_sample(ws.manifold, ws.function, ws.crits, ws.cfg,
                          args.samples, seed=ws.seed)
    out = _write(args, {"basin.json": reports.basin_report(report)})
    print(
        f"basin: minima fraction {report.minima_fraction:.4f} over "
        f"{report.n_samples} samples -> {out}/basin.json"
    )
    return 0


def _cmd_curvature(args):
    ws = _session(args, samples=args.samples)
    if ws.manifold.dim < 2:
        raise ConfigError("curvature needs at least a 2-dimensional "
                          f"manifold, got dimension {ws.manifold.dim}")
    report = flatness_test(ws.manifold, ws.function, ws.crits,
                           sample_count=args.samples, seed=ws.seed,
                           cfg=ws.cfg)
    out = _write(args, {"flatness.json": reports.flatness_report(report)})
    print(
        f"curvature: max {report.curvature_max:.3e}, Lie derivative max "
        f"{report.lie_derivative_max:.3e}, consistent={report.consistent} "
        f"-> {out}/flatness.json"
    )
    return 0


def _parse_criteria(text):
    """Criterion numbers of `--criteria` ("3" or "2,6"); None for all."""
    if not text:
        return None
    try:
        return [int(token) for token in text.split(",")]
    except ValueError:
        raise ConfigError(
            f"--criteria takes comma-separated numbers, got {text!r}"
        ) from None


def _cmd_check(args):
    results = acceptance.run_all(criteria=_parse_criteria(args.criteria),
                                 echo=print)
    ok = all(r.passed for r in results)
    print("acceptance:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="morseflow",
        description=(
            "Negative gradient flow of Morse functions on implicit "
            "manifolds: critical points, flow lines, connection graphs, "
            "decay rates, transport and curvature checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("critical-points",
                       help="find and classify all critical points")
    _add_common(p)
    p.set_defaults(handler=_cmd_critical_points)

    p = sub.add_parser("flow", help="integrate one flow line")
    _add_common(p)
    p.add_argument("--from", dest="start",
                   help="start point '1,0,0', or a bare critical point id")
    p.add_argument("--from-crit", type=int, default=None,
                   help="start at a critical point id")
    p.add_argument("--backward", action="store_true")
    p.set_defaults(handler=_cmd_flow)

    p = sub.add_parser("graph", help="build the connection graph")
    _add_common(p)
    p.add_argument("--eps", type=float, default=1e-4,
                   help="unstable seed displacement")
    p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("decay", help="fit the pushforward decay rate")
    _add_common(p)
    p.add_argument("--from", dest="start", default=None)
    p.add_argument("--v", dest="direction_vector", default=None,
                   help="initial vector (projected to the tangent space)")
    p.set_defaults(handler=_cmd_decay)

    p = sub.add_parser("basin", help="sample basins of attraction")
    _add_common(p)
    p.add_argument("--samples", type=int, default=2000)
    p.set_defaults(handler=_cmd_basin)

    p = sub.add_parser("curvature", help="curvature / flatness report")
    _add_common(p)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(handler=_cmd_curvature)

    p = sub.add_parser("check", help="run the acceptance suite")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default: all)")
    p.set_defaults(handler=_cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ExpressionSyntaxError, UnknownScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MorseflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
