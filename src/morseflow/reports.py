"""Machine-readable report assembly and deterministic serialization.

Floats are rendered with 17 significant digits so repeated runs with
the same seed produce byte-identical files; output files are written to
a temporary sibling and renamed into place. JSON schemas for every
report format are versioned under docs/schemas/ and validated by the
test suite.
"""

import math
import os
import tempfile

import numpy as np

from .errors import MorseflowError


def format_float(x):
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise MorseflowError(
            f"reports must not contain NaN or infinite values, got {x}"
        )
    return format(x, ".17g")


def render_json(obj, indent=0):
    """Deterministic JSON text (17 significant digits, stable key order)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        escaped = (
            obj.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\t", "\\t")
        )
        return f'"{escaped}"'
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [render_json(item, indent + 1) for item in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + f"\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{key}": {render_json(value, indent + 1)}'
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_text_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path, obj):
    write_text_atomic(path, render_json(obj) + "\n")


# -- report payloads ---------------------------------------------------


def critical_points_report(crits, consts=None):
    points = [
        {
            "id": p.id,
            "location": list(p.location),
            "value": p.value,
            "index": p.index,
            "eigenvalues": list(p.eigenvalues),
            "margin": p.nondegeneracy_margin,
            "degenerate": bool(p.degenerate),
        }
        for p in crits
    ]
    payload = {
        "schema": "morseflow.critical_points.v1",
        "points": points,
        "euler_characteristic": crits.euler_characteristic(),
        "stats": {
            "n_starts": crits.stats.n_starts,
            "n_converged": crits.stats.n_converged,
            "n_discarded": crits.stats.n_discarded,
            "n_unique": crits.stats.n_unique,
        },
    }
    if consts is not None:
        payload["constants"] = {
            "r": consts.r,
            "c_floor": consts.c_floor,
            "n_floor_samples": consts.n_floor_samples,
        }
    return payload


def trajectory_csv(traj):
    n = traj.points.shape[1]
    header = "t," + ",".join(f"x{i}" for i in range(1, n + 1)) + ",f,grad_norm"
    rows = [header]
    for t, x, fv, g in zip(traj.times, traj.points, traj.f_values,
                           traj.grad_norms):
        cells = [format_float(t)]
        cells += [format_float(c) for c in x]
        cells += [format_float(fv), format_float(g)]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def terminal_report(traj, length_report=None):
    payload = {
        "schema": "morseflow.terminal.v1",
        "terminal": traj.terminal.kind,
        "critical_point_id": traj.terminal.critical_point_id,
        "direction": traj.direction,
        "t_final": float(traj.times[-1]),
        "n_samples": int(len(traj)),
        "stats": {
            "steps": traj.stats.steps,
            "rejected": traj.stats.rejected,
            "retraction_halvings": traj.stats.retraction_halvings,
            "max_constraint_drift": traj.stats.max_constraint_drift,
            "monotone": bool(traj.stats.monotone),
        },
    }
    if length_report is not None:
        payload["length_bound"] = {
            "lhs": length_report.lhs,
            "rhs": length_report.rhs,
            "slack": length_report.slack,
            "pass": bool(length_report.passed),
            "segments": [
                {
                    "t_start": s.t_start,
                    "t_end": s.t_end,
                    "length": s.length,
                    "drop": s.drop,
                    "bound": s.bound,
                    "ok": bool(s.ok),
                }
                for s in length_report.segments
            ],
        }
    return payload


def graph_report(graph, connected, components):
    return {
        "schema": "morseflow.graph.v1",
        "nodes": [
            {"id": p.id, "index": p.index, "value": p.value}
            for p in graph.crits
        ],
        "edges": [
            {
                "source": e.source,
                "target": e.target,
                "eigendirection": e.eigendirection,
                "side": e.side,
                "witness_samples": int(len(e.witness)),
                "f_drop": float(
                    e.witness.f_values[0] - e.witness.f_values[-1]
                ),
            }
            for e in graph.edges
        ],
        "directed_pairs": [list(p) for p in graph.directed_pairs()],
        "undirected_pairs": [list(p) for p in graph.undirected_pairs()],
        "connected": bool(connected),
        "components": [sorted(c) for c in components],
    }


def graph_dot(graph):
    """DOT subset: digraph, one node per critical point, labeled edges."""
    lines = ["digraph connection_graph {"]
    for p in graph.crits:
        label = f"{p.id}:{p.index}:{format(p.value, '.6g')}"
        lines.append(f'  n{p.id} [label="{label}"];')
    for source, target in graph.directed_pairs():
        count = len(graph.witnesses(source, target))
        lines.append(f'  n{source} -> n{target} [label="{count}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def decay_report(report, energy_residual=None):
    payload = {
        "schema": "morseflow.decay.v1",
        "c_fit": report.c_fit,
        "c_pred": report.c_pred,
        "fit_window": [report.fit_window[0], report.fit_window[1]],
        "residual": report.residual,
        "relative_gap": report.relative_gap,
        "limit_id": report.limit_id,
        "n_fit_samples": report.n_fit_samples,
        "energy_monotone_on_window": bool(report.energy_monotone_on_window),
    }
    if energy_residual is not None:
        payload["energy_ode_max_residual"] = float(energy_residual)
    return payload


def basin_report(report):
    return {
        "schema": "morseflow.basin.v1",
        "n_samples": report.n_samples,
        "tally": {str(k): int(v) for k, v in sorted(report.tally.items())},
        "minima_fraction": report.minima_fraction,
        "unresolved": report.unresolved,
    }


def flatness_report(report):
    return {
        "schema": "morseflow.flatness.v1",
        "samples": [
            {
                "x": list(s.point),
                "curvature_norm": s.curvature_norm,
                "lie_derivative_norm": s.lie_derivative_norm,
            }
            for s in report.samples
        ],
        "curvature_max": report.curvature_max,
        "lie_derivative_max": report.lie_derivative_max,
        "floor": report.floor,
        "consistent": bool(report.consistent),
    }
