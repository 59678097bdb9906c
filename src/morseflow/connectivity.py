"""Connection graph of critical points, basin statistics, constancy checks.

Each edge of the graph is one orbit: flow forward from a seed displaced
along a descending eigendirection of a non-minimal critical point and
record where it is captured. Graph connectivity, basin tallies over
random starts, and the propagation of fields that are constant along
flow lines are all built on those witness trajectories.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedGraphError,
    FlowError,
    NonMorseError,
    StalledTrajectoryError,
)
from .flow import FlowConfig, flow_terminals, integrate_flow, unstable_seeds
from .morse import VALUE_TIE_TOL
from .symbolics import compile_expression

CONSTANCY_SAMPLES = 500
CONSTANCY_TOL = 1e-6


@dataclass(frozen=True)
class OrbitEdge:
    """Directed orbit from one critical point to another."""

    source: int
    target: int
    eigendirection: int
    side: int
    witness: object  # Trajectory


@dataclass
class ConnectionGraph:
    """Critical points as nodes, captured orbits as directed edges."""

    manifold: object
    function: object
    crits: list
    edges: tuple

    def node_ids(self):
        return [p.id for p in self.crits]

    def directed_pairs(self):
        """Sorted unique (source, target) pairs."""
        return sorted({(e.source, e.target) for e in self.edges})

    def undirected_pairs(self):
        return sorted({tuple(sorted((e.source, e.target))) for e in self.edges})

    def witnesses(self, source, target):
        return [e for e in self.edges
                if e.source == source and e.target == target]

    def components(self):
        """Union-find partition of nodes under undirected adjacency."""
        parent = {i: i for i in self.node_ids()}

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for a, b in self.undirected_pairs():
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        groups = {}
        for i in self.node_ids():
            groups.setdefault(find(i), set()).add(i)
        return sorted(groups.values(), key=min)


def build_connection_graph(m, f, crits, cfg=None, eps=1e-4):
    """Flow every unstable seed of every non-minimal critical point.

    Aborts with StalledTrajectoryError when any witness stalls (an
    unregistered critical point: re-run the search with more starts).
    f strictly decreases along every orbit of a Morse function, so an
    edge whose drop in f is at most the census's VALUE_TIE_TOL (a
    self-loop among them) raises NonMorseError naming both points.
    Identical (source, target) pairs are kept as separate witnesses;
    edge order is deterministic.
    """
    crits = list(crits)
    if any(p.degenerate for p in crits):
        raise NonMorseError(
            "degenerate critical point present; the connection graph "
            "would not certify anything"
        )
    cfg = cfg or FlowConfig()
    value = {q.id: q.value for q in crits}
    edges = []
    for p in sorted(crits, key=lambda q: q.id):
        if p.index == 0:
            continue
        for seed in unstable_seeds(m, p, eps):
            traj = integrate_flow(m, f, seed.point, cfg, crits=crits)
            if traj.terminal.kind == "stalled":
                raise StalledTrajectoryError(
                    f"orbit from critical point {p.id} stalled at "
                    f"{traj.points[-1]}; re-run find_critical_points with "
                    "more starts"
                )
            if not traj.terminal.converged:
                raise FlowError(
                    f"witness orbit from critical point {p.id} hit t_max "
                    "before capture; raise t_max"
                )
            target = traj.terminal.critical_point_id
            if not value[p.id] - value[target] > VALUE_TIE_TOL:
                raise NonMorseError(
                    f"witness edge {p.id} -> {target} does not descend: f "
                    f"{value[p.id]!r} -> {value[target]!r}, a drop of at "
                    f"most {VALUE_TIE_TOL:g}"
                )
            edges.append(
                OrbitEdge(
                    source=p.id,
                    target=target,
                    eigendirection=seed.eigendirection,
                    side=seed.side,
                    witness=traj,
                )
            )
    edges.sort(key=lambda e: (e.source, e.target, e.eigendirection, e.side))
    return ConnectionGraph(manifold=m, function=f, crits=crits,
                           edges=tuple(edges))


def check_connected(graph):
    """(is_connected, partition); the partition names the pieces on failure."""
    parts = graph.components()
    return len(parts) == 1, parts


@dataclass(frozen=True)
class BasinReport:
    """Capture tally over random starts.

    tally counts resolved starts per critical point id; unresolved
    counts stalls and time-outs, so sum(tally) + unresolved equals
    n_samples.
    """

    n_samples: int
    tally: dict
    minima_fraction: float
    unresolved: int


def basin_sample(m, f, crits, cfg, n, seed, points=None):
    """Flow n sampled starts to capture and tally the landing ids.

    Each start is flowed by `flow_terminals`, the path of
    `integrate_flow` that stops inside a minimum's sublevel trap, where
    the flow's limit is already that minimum.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    crits = list(crits)
    if points is None:
        points = m.sample_points(n, seed)
    else:
        points = np.asarray(points, dtype=float)
        if len(points) != n:
            raise ValueError("explicit points must match n")
    tally = {}
    unresolved = 0
    terminals, _ = flow_terminals(m, f, points, cfg, crits=crits)
    for terminal in terminals:
        if terminal.converged:
            cid = terminal.critical_point_id
            tally[cid] = tally.get(cid, 0) + 1
        else:
            unresolved += 1
    minima = {p.id for p in crits if p.index == 0}
    landed = sum(count for cid, count in tally.items() if cid in minima)
    return BasinReport(
        n_samples=int(n),
        tally=dict(sorted(tally.items())),
        minima_fraction=landed / n,
        unresolved=unresolved,
    )


@dataclass(frozen=True)
class ConstancyVerdict:
    """Outcome of constancy propagation over the connection graph.

    applicable is False when the field fails the along-flow derivative
    test; then `witness` holds the worst sample point and its violation.
    Otherwise `constant` states whether all probed values agree within
    tolerance and `witness` holds the worst pair.
    """

    applicable: bool
    constant: bool | None
    max_violation: float
    max_deviation: float | None
    witness: dict


def propagate_constancy(graph, field):
    """Check a vector field for constancy through the connection graph.

    Step one takes each component's derivative along the projected
    gradient (from exact gradients) at CONSTANCY_SAMPLES samples (seed
    0); the field is applicable only if the largest absolute derivative
    is at most CONSTANCY_TOL, and the witness is the first sample and
    component where it is largest, or the first nan. Step two takes each
    component's values at all critical points and witness-orbit end
    points; the field is constant only if the largest max - min is at
    most CONSTANCY_TOL, and the witness is that component's probes with
    the first smallest and the first largest value, in probe order. A
    nan derivative or value fails its step.
    """
    connected, parts = check_connected(graph)
    if not connected:
        raise DisconnectedGraphError(
            f"graph splits into {len(parts)} components: {parts}"
        )
    m = graph.manifold
    components = [compile_expression(expr, m.ambient_dim) for expr in field]
    samples = m.sample_points(CONSTANCY_SAMPLES, 0)
    rows = []
    for x in samples:
        flow_dir = m.riemannian_gradient(graph.function, x).vec
        rows.append([comp.gradient(x) @ flow_dir for comp in components])
    violations = np.abs(rows)
    i, ci = np.unravel_index(np.argmax(violations), violations.shape)
    worst = float(violations[i, ci])
    if not worst <= CONSTANCY_TOL:
        return ConstancyVerdict(
            applicable=False,
            constant=None,
            max_violation=worst,
            max_deviation=None,
            witness={"point": samples[i].tolist(), "component": int(ci),
                     "violation": worst},
        )

    probes = [("critical_point", p.id, p.location) for p in graph.crits]
    for e in graph.edges:
        probes.append(("orbit_start", (e.source, e.target), e.witness.start))
        probes.append(("orbit_end", (e.source, e.target), e.witness.end))
    values = np.array([[comp.value(x) for _, _, x in probes]
                       for comp in components])
    deviations = values.max(axis=1) - values.min(axis=1)
    ci = int(np.argmax(deviations))
    max_dev = float(deviations[ci])
    pair = {}
    if max_dev != 0.0:
        row = values[ci]
        a, b = sorted((int(np.argmax(row)), int(np.argmin(row))))
        pair = {"component": ci,
                "a": probes[a][:2] + (float(row[a]),),
                "b": probes[b][:2] + (float(row[b]),)}
    return ConstancyVerdict(
        applicable=True,
        constant=max_dev <= CONSTANCY_TOL,
        max_violation=worst,
        max_deviation=max_dev,
        witness=pair,
    )
