"""Acceptance suite: the catalog's analytic claims re-checked end to end.

Each criterion runs against the built-in scenarios at a pinned
tolerance and reports pass/fail with details; `run_all` is what the
`check` CLI subcommand runs, and tests/test_acceptance.py runs each
criterion alone. Scenario state (critical points, separation constants,
flow configs) is shared across criteria through one lazily evaluated
`catalog.ScenarioContext` per scenario.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .catalog import ScenarioContext, load_scenario
from .connectivity import (
    basin_sample,
    build_connection_graph,
    check_connected,
    propagate_constancy,
)
from .errors import ConfigError
from .flow import integrate_flow, check_length_bound
from .linearization import (
    ENERGY_MAX_STEP,
    check_energy_ode,
    integrate_variational,
    run_decay,
)
from .symbolics import (
    Binary,
    Const,
    Power,
    Unary,
    Var,
    evaluate,
    evaluate_jet,
    parse,
)
from .transport import (
    flatness_test,
    holonomy_curvature,
    parallel_transport,
    sectional_value,
)

@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    budget: float
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return (
            f"[{self.number:2d}/11] {self.name:<28s} {mark}"
            f"  ({self.elapsed:.1f}s / {self.budget:.0f}s budget)"
        )


def _c1_census(ctx):
    failures = []
    details = {}
    for name in ("sphere2", "torus_upright", "clifford"):
        start = time.perf_counter()
        c = ctx[name]
        crits = c.crits
        exp = c.scenario.expected
        elapsed = time.perf_counter() - start
        details[name] = {"elapsed": elapsed, "count": len(crits)}
        if len(crits) != len(exp.values):
            failures.append(
                f"{name}: found {len(crits)} critical points, expected "
                f"{len(exp.values)}"
            )
            continue
        for p, value, index, loc in zip(crits, exp.values, exp.indices,
                                        exp.locations):
            if abs(p.value - value) > 1e-6:
                failures.append(
                    f"{name}: point {p.id} value {p.value} vs {value}"
                )
            if p.index != index:
                failures.append(
                    f"{name}: point {p.id} index {p.index} vs {index}"
                )
            if np.max(np.abs(p.location - np.array(loc))) > 1e-6:
                failures.append(f"{name}: point {p.id} location mismatch")
        for cid, lam in exp.lambda_min.items():
            got = crits[cid].eigenvalues[0]
            if abs(got - lam) > 1e-6:
                failures.append(
                    f"{name}: lambda_min at {cid} is {got}, expected {lam}"
                )
        chi = crits.euler_characteristic()
        if chi != exp.euler_characteristic:
            failures.append(
                f"{name}: Euler characteristic {chi} vs "
                f"{exp.euler_characteristic}"
            )
        if elapsed > 10.0:
            failures.append(f"{name}: census took {elapsed:.1f}s > 10s")
    return failures, details


def _c2_connectivity(ctx):
    failures = []
    details = {}
    for name in ("sphere2", "sphereM", "torus_upright", "clifford"):
        c = ctx[name]
        graph = build_connection_graph(
            c.manifold, c.function, c.crits, c.cfg
        )
        connected, parts = check_connected(graph)
        pairs = [tuple(p) for p in graph.directed_pairs()]
        details[name] = {"directed_pairs": pairs, "connected": connected}
        if not connected:
            failures.append(f"{name}: graph disconnected, parts {parts}")
        edges = c.scenario.expected.directed_edges
        expected = sorted(tuple(e) for e in edges)
        if pairs != expected:
            failures.append(
                f"{name}: edges {pairs} differ from oracle {expected}"
            )
        crit_by_id = {p.id: p for p in c.crits}
        for e in graph.edges:
            if crit_by_id[e.source].value <= crit_by_id[e.target].value:
                failures.append(
                    f"{name}: edge {e.source}->{e.target} does not drop f"
                )
    torus_pairs = details["torus_upright"]["directed_pairs"]
    if (2, 1) not in torus_pairs:
        failures.append("torus: saddle-to-saddle edge (2, 1) missing")
    return failures, details


def _c3_flow_oracle(ctx):
    failures = []
    details = {}
    c = ctx["sphere2"]
    for t_end in (0.5, 1.0, 2.0):
        traj = integrate_flow(
            c.manifold, c.function, [1.0, 0.0, 0.0],
            c.cfg.replace(t_max=t_end), crits=c.crits,
        )
        err = abs(traj.points[-1][2] + math.tanh(t_end))
        details[f"t={t_end}"] = err
        if err >= 1e-6:
            failures.append(f"z({t_end}) off closed form by {err:.2e}")
    return failures, details


def _c4_length_bound(ctx):
    failures = []
    details = {}
    for name in ("sphere2", "sphereM", "torus_upright", "clifford"):
        c = ctx[name]
        starts = c.manifold.sample_points(50, seed=1234)
        n_segments = 0
        for i, x0 in enumerate(starts):
            traj = integrate_flow(c.manifold, c.function, x0, c.cfg,
                                  crits=c.crits)
            report = check_length_bound(traj, c.consts)
            n_segments += len(report.segments)
            if not report.passed:
                failures.append(
                    f"{name} start {i}: length {report.lhs:.4f} exceeds "
                    f"bound (rhs {report.rhs:.4f})"
                )
        details[name] = {"segments": n_segments}
    return failures, details


def _c5_energy_ode(ctx):
    failures = []
    details = {}
    runs = {
        "sphere2": ([1.0, 0.0, 0.0], np.array([0.0, 1.0, 0.0])),
        "clifford": (None, None),
    }
    for name, (x0, v0) in runs.items():
        c = ctx[name]
        if x0 is None:
            x0 = c.manifold.sample_points(1, seed=11)[0]
            v0 = c.manifold.random_tangent(x0, np.random.default_rng(2))
        series = integrate_variational(
            c.manifold, c.function, x0, v0,
            c.cfg.replace(max_step=ENERGY_MAX_STEP), crits=c.crits,
        )
        residual = check_energy_ode(series, c.manifold, c.function)
        details[name] = residual
        if residual >= 1e-2:
            failures.append(f"{name}: energy residual {residual:.3e} >= 1e-2")
    return failures, details


def _c6_decay_rates(ctx):
    failures = []
    details = {}
    for name in ("sphere2", "torus_upright", "clifford"):
        c = ctx[name]
        gaps = []
        for k in range(10):
            _, report = run_decay(
                c.manifold, c.function, c.crits, c.cfg, seed=1000 + k
            )
            gaps.append(report.relative_gap)
            if report.relative_gap >= 0.05:
                failures.append(
                    f"{name} run {k}: rate {report.c_fit:.6f} vs "
                    f"{report.c_pred:.6f} (gap {report.relative_gap:.3f})"
                )
        details[name] = {"max_gap": max(gaps), "c_pred": report.c_pred}
    return failures, details


def _c7_basins(ctx):
    failures = []
    details = {}
    thresholds = {"sphere2": 0.999, "clifford": 0.999, "torus_upright": 0.995}
    for name, threshold in thresholds.items():
        c = ctx[name]
        report = basin_sample(
            c.manifold, c.function, c.crits, c.cfg, 2000, seed=0
        )
        details[name] = {
            "minima_fraction": report.minima_fraction,
            "unresolved": report.unresolved,
            "tally": report.tally,
        }
        if report.minima_fraction < threshold:
            failures.append(
                f"{name}: minima fraction {report.minima_fraction:.4f} < "
                f"{threshold}"
            )
        if sum(report.tally.values()) + report.unresolved != 2000:
            failures.append(f"{name}: basin accounting broken")
    return failures, details


def _c8_transport(ctx):
    failures = []
    details = {}
    for name in ("sphere2", "clifford"):
        c = ctx[name]
        worst_drift = 0.0
        for i, x0 in enumerate(c.manifold.sample_points(5, seed=77)):
            traj = integrate_flow(c.manifold, c.function, x0, c.cfg,
                                  crits=c.crits)
            frame = c.manifold.tangent_basis(traj.points[0])
            moved = parallel_transport(c.manifold, traj, frame)
            worst_drift = max(worst_drift, moved.gram_drift_max)
        details[f"{name}_gram_drift"] = worst_drift
        if worst_drift >= 1e-6:
            failures.append(f"{name}: Gram drift {worst_drift:.2e} >= 1e-6")

    c = ctx["sphere2"]
    rng = np.random.default_rng(88)
    worst = 0.0
    for x in c.manifold.sample_points(50, seed=88):
        u = c.manifold.random_tangent(x, rng)
        w = c.manifold.random_tangent(x, rng)
        w = w - (w @ u) * u
        v = w / np.linalg.norm(w)
        sect = sectional_value(holonomy_curvature(c.manifold, x, u, v))
        worst = max(worst, abs(sect - 1.0))
    details["sphere_sectional_worst"] = worst
    if worst >= 0.05:
        failures.append(f"sphere sectional curvature off by {worst:.3f}")

    c = ctx["clifford"]
    rng = np.random.default_rng(99)
    worst = 0.0
    for x in c.manifold.sample_points(20, seed=99):
        u = c.manifold.random_tangent(x, rng)
        w = c.manifold.random_tangent(x, rng)
        w = w - (w @ u) * u
        v = w / np.linalg.norm(w)
        worst = max(worst, holonomy_curvature(c.manifold, x, u, v).norm)
    details["clifford_curvature_worst"] = worst
    if worst >= 1e-3:
        failures.append(f"clifford curvature norm {worst:.2e} >= 1e-3")
    return failures, details


def _c9_flatness(ctx):
    failures = []
    details = {}
    reports = {}
    for name in ("sphere2", "clifford"):
        c = ctx[name]
        report = flatness_test(
            c.manifold, c.function, c.crits, sample_count=20, seed=0,
            cfg=c.cfg,
        )
        reports[name] = report
        details[name] = {
            "curvature_max": report.curvature_max,
            "lie_derivative_max": report.lie_derivative_max,
            "consistent": report.consistent,
        }
        if not report.consistent:
            failures.append(f"{name}: flatness consistency violated")
    floor = reports["clifford"].floor
    if reports["sphere2"].lie_derivative_max <= 10.0 * floor:
        failures.append(
            "sphere: Lie derivative max "
            f"{reports['sphere2'].lie_derivative_max:.3e} not above "
            f"10 x floor {floor}"
        )
    return failures, details


def _c10_constancy(ctx):
    failures = []
    details = {}
    c = ctx["sphere2"]
    graph = build_connection_graph(c.manifold, c.function, c.crits, c.cfg)
    for text in ("1", "x1^2 + x2^2 + x3^2"):
        verdict = propagate_constancy(graph, [parse(text, 3)])
        details[text] = {
            "applicable": verdict.applicable,
            "constant": verdict.constant,
        }
        if not (verdict.applicable and verdict.constant):
            failures.append(f"field {text!r} should be certified constant")
    verdict = propagate_constancy(graph, [parse("x3", 3)])
    details["x3"] = {
        "applicable": verdict.applicable,
        "max_violation": verdict.max_violation,
    }
    if verdict.applicable:
        failures.append("field 'x3' wrongly passed the along-flow test")
    else:
        witness = np.array(verdict.witness["point"])
        if not c.manifold.is_on_manifold(witness, tol=1e-8):
            failures.append("constancy witness point is off the manifold")
        if verdict.max_violation < 0.5:
            failures.append(
                f"witness violation {verdict.max_violation:.3f} suspiciously "
                "small for the height field"
            )
    return failures, details


def _random_expression(rng, n, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.20:
        if rng.random() < 0.6:
            return Var(int(rng.integers(1, n + 1)))
        return Const(float(np.round(rng.uniform(0.3, 2.2), 3)))
    if roll < 0.50:
        op = ("+", "-", "*", "/")[rng.integers(0, 4)]
        return Binary(op, _random_expression(rng, n, depth - 1),
                      _random_expression(rng, n, depth - 1))
    if roll < 0.80:
        op = ("neg", "sin", "cos", "exp", "sqrt")[rng.integers(0, 5)]
        return Unary(op, _random_expression(rng, n, depth - 1))
    return Power(_random_expression(rng, n, depth - 1),
                 int(rng.integers(2, 4)))


def _fd_gradient_hessian(expr, x, scale=1.0):
    n = len(x)
    h = scale * 1e-4 * np.maximum(1.0, np.abs(x))
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    f0 = evaluate(expr, x)
    for i in range(n):
        xp = x.copy(); xp[i] += h[i]
        xm = x.copy(); xm[i] -= h[i]
        fp, fm = evaluate(expr, xp), evaluate(expr, xm)
        grad[i] = (fp - fm) / (2 * h[i])
        hess[i, i] = (fp - 2 * f0 + fm) / (h[i] * h[i])
        for j in range(i + 1, n):
            xpp = x.copy(); xpp[[i, j]] += [h[i], h[j]]
            xpm = x.copy(); xpm[i] += h[i]; xpm[j] -= h[j]
            xmp = x.copy(); xmp[i] -= h[i]; xmp[j] += h[j]
            xmm = x.copy(); xmm[[i, j]] -= [h[i], h[j]]
            hess[i, j] = hess[j, i] = (
                evaluate(expr, xpp) - evaluate(expr, xpm)
                - evaluate(expr, xmp) + evaluate(expr, xmm)
            ) / (4 * h[i] * h[j])
    return grad, hess


def _floored_rel(a, b):
    return np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a),
                                                             np.abs(b))))


def _fd_reference(expr, x):
    """Central differences validated by step-halving self-agreement.

    Returns (grad, hess) or None when the estimate has not converged at
    this point (the oracle is only trusted where it is resolvable).
    """
    g1, h1 = _fd_gradient_hessian(expr, x, scale=1.0)
    g2, h2 = _fd_gradient_hessian(expr, x, scale=0.5)
    pieces = np.concatenate([g1, h1.ravel(), g2, h2.ravel()])
    if not np.all(np.isfinite(pieces)) or np.max(np.abs(pieces)) > 1e4:
        return None
    if _floored_rel(g1, g2) > 2e-5 or _floored_rel(h1, h2) > 2e-5:
        return None
    return g2, h2


def _c11_infrastructure(ctx):
    failures = []
    details = {}

    rng = np.random.default_rng(42)
    checked = 0
    worst = 0.0
    while checked < 100:
        n = int(rng.integers(2, 5))
        expr = _random_expression(rng, n, depth=5)
        points = []
        for _ in range(120):
            x = rng.uniform(-1.5, 1.5, n)
            try:
                jet = evaluate_jet(expr, x)
                reference = _fd_reference(expr, x)
            except Exception:
                continue
            if reference is None:
                continue
            if not np.all(np.isfinite(jet.gradient)):
                continue
            if abs(jet.value) > 100.0:
                continue
            points.append((jet, *reference))
            if len(points) == 10:
                break
        if len(points) < 10:
            continue
        checked += 1
        for jet, grad_fd, hess_fd in points:
            gerr = _floored_rel(jet.gradient, grad_fd)
            herr = _floored_rel(jet.hessian, hess_fd)
            worst = max(worst, gerr, herr)
            if gerr > 1e-4 or herr > 1e-4:
                failures.append(
                    f"AD/FD mismatch {max(gerr, herr):.2e} on a random "
                    "expression"
                )
    details["ad_fd_worst"] = worst
    details["ad_fd_expressions"] = checked

    c = ctx["sphere2"]
    v0 = np.array([0.0, 1.0, 0.0])
    series = integrate_variational(
        c.manifold, c.function, [1.0, 0.0, 0.0], v0,
        c.cfg.replace(t_max=0.5), crits=c.crits,
    )
    if not np.array_equal(series.vectors[0], v0):
        failures.append("pushforward at t=0 is not bitwise the input vector")

    t1, t2 = 0.7, 0.6
    leg1 = integrate_flow(c.manifold, c.function, [1.0, 0.0, 0.0],
                          c.cfg.replace(t_max=t1), crits=c.crits)
    leg2 = integrate_flow(c.manifold, c.function, leg1.points[-1],
                          c.cfg.replace(t_max=t2), crits=c.crits)
    joint = integrate_flow(c.manifold, c.function, [1.0, 0.0, 0.0],
                           c.cfg.replace(t_max=t1 + t2), crits=c.crits)
    gap = float(np.linalg.norm(leg2.points[-1] - joint.points[-1]))
    details["semigroup_gap"] = gap
    if gap >= 1e-6:
        failures.append(f"semigroup property violated by {gap:.2e}")

    import contextlib
    import filecmp
    import io
    import tempfile
    from . import cli
    with tempfile.TemporaryDirectory() as tmp:
        out_a = f"{tmp}/a"
        out_b = f"{tmp}/b"
        for out in (out_a, out_b):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([
                    "critical-points", "--scenario", "sphere2",
                    "--seed", "0", "--out", out,
                ])
            if code != 0:
                failures.append(f"cli critical-points exited {code}")
        same = filecmp.cmp(f"{out_a}/critical_points.json",
                           f"{out_b}/critical_points.json", shallow=False)
        details["rerun_identical"] = same
        if not same:
            failures.append("repeated runs produced different bytes")
    return failures, details


CRITERIA = (
    (1, "critical point census", 30.0, _c1_census),
    (2, "orbit connectivity", 30.0, _c2_connectivity),
    (3, "flow closed form", 1.0, _c3_flow_oracle),
    (4, "length bound", 60.0, _c4_length_bound),
    (5, "energy identity", 10.0, _c5_energy_ode),
    (6, "shrinkage rates", 60.0, _c6_decay_rates),
    (7, "basin density", 120.0, _c7_basins),
    (8, "transport and curvature", 60.0, _c8_transport),
    (9, "flatness consistency", 60.0, _c9_flatness),
    (10, "constancy propagation", 10.0, _c10_constancy),
    (11, "infrastructure", 60.0, _c11_infrastructure),
)


def make_contexts():
    return {
        name: ScenarioContext(load_scenario(name))
        for name in ("sphere2", "sphereM", "torus_upright", "clifford")
    }


def _criterion(number):
    for criterion in CRITERIA:
        if criterion[0] == number:
            return criterion
    raise ConfigError(
        f"no criterion {number}; criteria are 1 to {len(CRITERIA)}"
    )


def run_criterion(number, contexts=None):
    _, name, budget, fn = _criterion(number)
    contexts = contexts if contexts is not None else make_contexts()
    start = time.perf_counter()
    failures, details = fn(contexts)
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        failures = list(failures) + [
            f"runtime {elapsed:.1f}s exceeded budget {budget:.0f}s"
        ]
    return CriterionResult(
        number=number, name=name, passed=not failures,
        elapsed=elapsed, budget=budget,
        failures=list(failures), details=details,
    )


def run_all(contexts=None, echo=None, criteria=None):
    """Run every criterion, or those numbered in `criteria`, in order.

    An unknown number raises ConfigError before any criterion runs.
    `echo` receives each result's line and its failures as they finish.
    """
    if criteria is None:
        criteria = [num for num, *_ in CRITERIA]
    numbers = sorted({_criterion(number)[0] for number in criteria})
    contexts = contexts if contexts is not None else make_contexts()
    results = []
    for number in numbers:
        result = run_criterion(number, contexts)
        results.append(result)
        if echo is not None:
            echo(result.line())
            for failure in result.failures:
                echo(f"         - {failure}")
    return results
