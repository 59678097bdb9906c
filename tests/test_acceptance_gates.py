"""Every acceptance gate at its bound, one ulp on each side, and at nan.

Each criterion runs on stub contexts, with the names that
`morseflow.acceptance` imports patched to stubs, so that the one
quantity under test reaches its gate with exactly the value chosen here
while every other gate passes. A gate passes only when its comparison
holds: the verdict at the bound and one ulp on each side is the stated
comparison's, and nan fails every numeric gate.
"""

import math
import os
from types import SimpleNamespace as NS
from typing import Callable, NamedTuple

import numpy as np
import pytest

from morseflow import acceptance, cli

NAN = math.nan
CENSUS = ("sphere2", "torus_upright", "clifford")
ALL = ("sphere2", "sphereM", "torus_upright", "clifford")


def _around(bound):
    """One ulp below the bound, the bound, and one ulp above it."""
    return [float(np.nextafter(bound, -np.inf)), bound,
            float(np.nextafter(bound, np.inf))]


class _Cfg(NS):
    def replace(self, **changes):
        return _Cfg(**{**vars(self), **changes})


class _Manifold:
    def __init__(self, name, at):
        self.name = name
        self.at = at

    def sample_points(self, count, seed):
        return np.tile([1.0, 0.0, 0.0], (count, 1))

    def random_tangent(self, x, rng):
        return rng.standard_normal(3)

    def tangent_basis(self, x):
        return np.eye(3)[:2]

    def is_on_manifold(self, x, tol):
        return self.at(self.name, "on M", True)


class _Crits(list):
    def __init__(self, points, chi):
        super().__init__(points)
        self.chi = chi

    def euler_characteristic(self):
        return self.chi


def _contexts(at, names=ALL, **fields):
    """Stub contexts by name: each field's maker called on the name, over
    defaults that the patched calls ignore."""
    return {
        name: NS(**{"manifold": _Manifold(name, at), "function": None,
                    "cfg": _Cfg(t_max=1.0), "crits": [], "consts": name,
                    **{key: make(name) for key, make in fields.items()}})
        for name in names
    }


def _census(mp, at):
    ticks = iter([t for name in CENSUS
                  for t in (0.0, at(name, "elapsed", 0.0))])
    mp.setattr(acceptance, "time", NS(perf_counter=lambda: next(ticks)))
    expected = NS(values=[0.0], indices=[0], locations=[[0.0, 0.0, 0.0]],
                  lambda_min={0: 0.0}, euler_characteristic=2)

    def crits(name):
        point = NS(
            id=0, value=at(name, "value", 0.0),
            index=0 if at(name, "index", True) else 1,
            location=np.array([at(name, "location", 0.0), 0.0, 0.0]),
            eigenvalues=np.array([at(name, "lambda", 0.0)]),
        )
        return _Crits([point] * (1 if at(name, "count", True) else 2),
                      chi=2 if at(name, "chi", True) else 0)

    return _contexts(at, CENSUS, crits=crits,
                     scenario=lambda name: NS(expected=expected))


def _connectivity(mp, at):
    def pairs(name):
        return [(2, 1)] if at(name, "saddle edge", True) else [(1, 0)]

    def graph(m, f, crits, cfg):
        return NS(manifold=m, directed_pairs=lambda: pairs(m.name),
                  edges=[NS(source=2, target=1)])

    mp.setattr(acceptance, "build_connection_graph", graph)
    mp.setattr(acceptance, "check_connected", lambda g: (
        at(g.manifold.name, "connected", True), [[0], [1]]))
    return _contexts(
        at,
        crits=lambda name: [NS(id=1, value=0.0),
                            NS(id=2, value=at(name, "drop", 1.0))],
        scenario=lambda name: NS(expected=NS(directed_edges=(
            pairs(name) if at(name, "edges", True) else [(3, 0)]))),
    )


def _flow_oracle(mp, at):
    mp.setattr(acceptance, "math", NS(tanh=lambda t: 0.0))
    mp.setattr(acceptance, "integrate_flow", lambda m, f, x0, cfg, crits: NS(
        points=np.array([[0.0, 0.0, at(m.name, "error", 0.0)]])))
    return _contexts(at)


def _length_bound(mp, at):
    mp.setattr(acceptance, "integrate_flow",
               lambda m, f, x0, cfg, crits: None)
    mp.setattr(acceptance, "check_length_bound", lambda traj, name: NS(
        segments=[], passed=at(name, "length", True), lhs=2.0, rhs=1.0))
    return _contexts(at)


def _energy(mp, at):
    mp.setattr(acceptance, "integrate_variational",
               lambda m, f, x0, v0, cfg, crits: None)
    mp.setattr(acceptance, "check_energy_ode",
               lambda series, m, f: at(m.name, "residual", 0.0))
    return _contexts(at)


def _decay(mp, at):
    mp.setattr(acceptance, "run_decay", lambda m, f, crits, cfg, seed: (
        None, NS(relative_gap=at(m.name, "gap", 0.0), c_fit=1.0,
                 c_pred=1.0)))
    return _contexts(at)


def _basins(mp, at):
    mp.setattr(acceptance, "basin_sample", lambda m, f, crits, cfg, n, seed: NS(
        minima_fraction=at(m.name, "fraction", 1.0), tally={0: 2000},
        unresolved=0 if at(m.name, "accounting", True) else 1))
    return _contexts(at)


def _transport(mp, at):
    mp.setattr(acceptance, "integrate_flow",
               lambda m, f, x0, cfg, crits: NS(points=[x0]))
    mp.setattr(acceptance, "parallel_transport", lambda m, traj, frame: NS(
        gram_drift_max=at(m.name, "drift", 0.0)))
    mp.setattr(acceptance, "holonomy_curvature", lambda m, x, u, v: NS(
        norm=at(m.name, "norm", 0.0),
        sectional=1.0 + at(m.name, "sectional", 0.0)))
    mp.setattr(acceptance, "sectional_value", lambda h: h.sectional)
    return _contexts(at)


def _flatness(mp, at):
    mp.setattr(acceptance, "flatness_test", lambda m, f, crits, **kw: NS(
        consistent=at(m.name, "consistent", True), curvature_max=0.0,
        lie_derivative_max=at(m.name, "lie", 100.0), floor=1.0))
    return _contexts(at)


def _constancy(mp, at):
    def verdict(graph, field):
        text, = field
        if text == "x3":
            return NS(applicable=not at("sphere2", "x3", True),
                      constant=None, witness={"point": [0.0, 0.0, 1.0]},
                      max_violation=at("sphere2", "violation", 1.0))
        return NS(applicable=at("sphere2", "constant", True), constant=True)

    mp.setattr(acceptance, "build_connection_graph",
               lambda m, f, crits, cfg: None)
    mp.setattr(acceptance, "parse", lambda text, n: text)
    mp.setattr(acceptance, "propagate_constancy", verdict)
    return _contexts(at)


def _infrastructure(mp, at):
    def fake_main(argv):
        out = argv[-1]
        os.makedirs(out)
        with open(f"{out}/critical_points.json", "w") as handle:
            handle.write("{}" if at("sphere2", "rerun", True) else out)
        return 0 if at("sphere2", "exit", True) else 3

    # the first two random expressions are skipped: finite differences
    # resolve no point of the first, and the second's gradient is nan
    jet = NS(value=0.0, gradient=np.zeros(2), hessian=np.zeros((2, 2)))
    nan_jet = NS(value=0.0, gradient=np.full(2, NAN), hessian=jet.hessian)
    count = iter(range(1000))
    mp.setattr(acceptance, "_random_expression",
               lambda rng, n, depth: next(count))
    mp.setattr(acceptance, "evaluate_jet",
               lambda expr, x: nan_jet if expr == 1 else jet)
    mp.setattr(acceptance, "_fd_reference", lambda expr, x: (
        None if expr == 0 else (jet.gradient, jet.hessian)))
    mp.setattr(acceptance, "_floored_rel", lambda ad, fd: at(
        None, "gradient" if ad.ndim == 1 else "Hessian", 0.0))
    mp.setattr(acceptance, "integrate_variational",
               lambda m, f, x0, v0, cfg, crits: NS(vectors=[
                   v0 if at(m.name, "pushforward", True) else -v0]))
    mp.setattr(acceptance, "integrate_flow", lambda m, f, x0, cfg, crits: NS(
        points=np.array([[at(m.name, "semigroup", 0.0)
                          if cfg.t_max == 0.6 else 0.0, 0.0, 0.0]])))
    mp.setattr(cli, "main", fake_main)
    return _contexts(at)


class Gate(NamedTuple):
    number: int
    setup: Callable
    target: str | None  # scenario whose value is varied
    quantity: str
    values: list
    passes: Callable  # the gate's comparison, on the value
    needles: tuple  # text each failure line holds besides the scenario


def _holds(number, setup, target, quantity, *needles):
    """A gate on a condition: it passes iff the condition is true."""
    return Gate(number, setup, target, quantity, [True, False], bool,
                needles)


def _below(number, setup, target, quantity, bound, *needles, values=None):
    return Gate(number, setup, target, quantity,
                (values or _around(bound)) + [NAN],
                lambda v: v < bound, needles + (f"< {bound:g}",))


def _within(number, setup, target, quantity, bound, *needles):
    return Gate(number, setup, target, quantity, _around(bound) + [NAN],
                lambda v: v <= bound, needles + (f"<= {bound:g}",))


def _sectional_pair(bound):
    """The two values of |s - 1| next to `bound`, s a float near 1 + bound
    (s - 1 is exact there, and no s gives `bound` itself)."""
    s = 1.0 + bound
    while s - 1.0 >= bound:
        s = float(np.nextafter(s, 0.0))
    return [s - 1.0, float(np.nextafter(s, 2.0)) - 1.0]


GATES = [
    _holds(1, _census, "torus_upright", "count", "found 2 critical points"),
    _within(1, _census, "clifford", "value", 1e-6, "point 0 value error"),
    _holds(1, _census, "sphere2", "index", "point 0 index 1"),
    _within(1, _census, "sphere2", "location", 1e-6,
            "point 0 location error"),
    _within(1, _census, "torus_upright", "lambda", 1e-6,
            "lambda_min error at 0"),
    _holds(1, _census, "clifford", "chi", "Euler characteristic 0"),
    _within(1, _census, "sphere2", "elapsed", 10.0, "census time"),
    _holds(2, _connectivity, "sphereM", "connected", "graph disconnected"),
    _holds(2, _connectivity, "clifford", "edges", "differ from oracle"),
    Gate(2, _connectivity, "sphere2", "drop", _around(0.0) + [NAN],
         lambda v: v > 0.0, ("edge 2->1 does not drop f",)),
    _holds(2, _connectivity, "torus_upright", "saddle edge",
           "edge (2, 1) missing"),
    _below(3, _flow_oracle, "sphere2", "error", 1e-6, "error to the closed"),
    _holds(4, _length_bound, "sphereM", "length", "exceeds bound (rhs 1."),
    _below(5, _energy, "sphere2", "residual", 1e-2, "energy residual"),
    _below(5, _energy, "clifford", "residual", 1e-2, "energy residual"),
    _below(6, _decay, "torus_upright", "gap", 0.05, "relative gap"),
    Gate(7, _basins, "sphere2", "fraction", _around(0.999) + [NAN],
         lambda v: v >= 0.999, ("minima fraction", ">= 0.999")),
    Gate(7, _basins, "torus_upright", "fraction", _around(0.995) + [NAN],
         lambda v: v >= 0.995, ("minima fraction", ">= 0.995")),
    _holds(7, _basins, "clifford", "accounting", "accounting 2001 != 2000"),
    _below(8, _transport, "sphere2", "drift", 1e-6, "Gram drift"),
    _below(8, _transport, "clifford", "drift", 1e-6, "Gram drift"),
    _below(8, _transport, "sphere2", "sectional", 0.05,
           "sectional curvature error", values=_sectional_pair(0.05)),
    _below(8, _transport, "clifford", "norm", 1e-3, "curvature norm"),
    _holds(9, _flatness, "clifford", "consistent", "consistency violated"),
    Gate(9, _flatness, "sphere2", "lie", _around(10.0) + [NAN],
         lambda v: v > 10.0, ("Lie derivative max", "> 10 x", "floor 1.0")),
    _holds(10, _constancy, "sphere2", "constant", "certified constant"),
    _holds(10, _constancy, "sphere2", "x3", "wrongly passed"),
    _holds(10, _constancy, "sphere2", "on M", "off the manifold",
           "tol 1e-8"),
    Gate(10, _constancy, "sphere2", "violation", _around(0.5) + [NAN],
         lambda v: v >= 0.5, ("witness violation", ">= 0.5")),
    _within(11, _infrastructure, None, "gradient", 1e-4, "AD/FD gradient"),
    _within(11, _infrastructure, None, "Hessian", 1e-4, "AD/FD Hessian"),
    _holds(11, _infrastructure, "sphere2", "pushforward", "not bitwise"),
    _below(11, _infrastructure, "sphere2", "semigroup", 1e-6,
           "semigroup gap"),
    _holds(11, _infrastructure, "sphere2", "exit", "exited 3"),
    _holds(11, _infrastructure, "sphere2", "rerun", "different bytes"),
]


def _cases():
    for gate in GATES:
        for value in gate.values:
            yield pytest.param(
                gate, value,
                id=f"c{gate.number:02d}-{gate.target}-{gate.quantity}-"
                   f"{value!r}",
            )


@pytest.mark.parametrize("gate,value", _cases())
def test_gate_verdict(gate, value, monkeypatch):
    def at(name, quantity, ok):
        return value if (name, quantity) == (gate.target,
                                             gate.quantity) else ok

    contexts = gate.setup(monkeypatch, at)
    collector = acceptance._Gates()
    acceptance._criterion(gate.number)[3](contexts, collector)
    failures = collector.failures
    assert bool(failures) is not gate.passes(value)
    for line in failures:
        assert gate.target in (None, line.split()[0].rstrip(":")), line
        for needle in gate.needles:
            assert needle in line, line
        if isinstance(value, float) and math.isnan(value):
            assert "nan" in line, line


@pytest.mark.parametrize("elapsed", _around(10.0) + [NAN])
def test_runtime_budget_gate(elapsed, monkeypatch):
    ticks = iter([0.0, elapsed])
    monkeypatch.setattr(acceptance, "time",
                        NS(perf_counter=lambda: next(ticks)))
    monkeypatch.setattr(acceptance, "CRITERIA", (
        (1, "stub", 10.0, lambda contexts, gate: {"ok": True}),))
    result = acceptance.run_criterion(1, contexts={})
    assert result.passed is (elapsed <= 10.0)
    assert result.details == {"ok": True}
    if not result.passed:
        assert result.failures == [
            f"runtime (s) is {elapsed:.3e}, must be <= 10"]


def test_worst_case_details_keep_a_nan(monkeypatch):
    def at(name, quantity, ok):
        return NAN if name == "clifford" and quantity == "drift" else ok

    contexts = _transport(monkeypatch, at)
    collector = acceptance._Gates()
    details = acceptance._c8_transport(contexts, collector)
    assert math.isnan(details["clifford_gram_drift"])
    assert details["sphere2_gram_drift"] == 0.0
    assert collector.failures == ["clifford: Gram drift is nan, must be "
                                  "< 1e-06"]


def test_gates_report_whether_they_passed():
    gate = acceptance._Gates()
    assert gate.below("a", 1.0, 2.0) is True
    assert gate.within("b", 2.0, 2.0) is True
    assert gate.holds(np.bool_(False), "c failed") is False
    assert gate.below("d", np.float64(2.0), 2.0) is False
    assert gate.failures == ["c failed", "d is 2.000e+00, must be < 2"]


def test_run_all_echoes_each_failure(monkeypatch):
    def failing(contexts, gate):
        gate.below("sphere2: stub metric", NAN, 1.0)
        return {}

    monkeypatch.setattr(acceptance, "CRITERIA", (
        (1, "failing", 10.0, failing),
        (2, "passing", 10.0, lambda contexts, gate: {}),
    ))
    lines = []
    results = acceptance.run_all(contexts={}, echo=lines.append)
    assert [r.passed for r in results] == [False, True]
    assert len(lines) == 3
    assert lines[0].startswith("[ 1/11] failing") and "FAIL" in lines[0]
    assert lines[1] == "         - sphere2: stub metric is nan, must be < 1"
    assert lines[2].startswith("[ 2/11] passing") and "PASS" in lines[2]
