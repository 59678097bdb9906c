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
from .symbolics import compile_expression


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
            edges.append(
                OrbitEdge(
                    source=p.id,
                    target=traj.terminal.critical_point_id,
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

    All starts are flowed together as one array (`flow_terminals`),
    under `integrate_flow`'s step rules and capture; the terminals
    matched the scalar path on every catalog basin start.
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


def propagate_constancy(graph, field, tol=1e-6, n_samples=500, seed=0):
    """Check a vector field for constancy through the connection graph.

    Step one verifies that every component has (numerically) vanishing
    derivative along the projected gradient direction at sampled points;
    exact jets are used, not finite differences. Step two compares the
    field values at all critical points and witness-orbit endpoints.
    """
    connected, parts = check_connected(graph)
    if not connected:
        raise DisconnectedGraphError(
            f"graph splits into {len(parts)} components: {parts}"
        )
    m = graph.manifold
    components = [compile_expression(expr, m.ambient_dim) for expr in field]
    samples = m.sample_points(n_samples, seed)
    worst = 0.0
    worst_witness = None
    for x in samples:
        flow_dir = m.riemannian_gradient(graph.function, x).vec
        for ci, comp in enumerate(components):
            violation = abs(float(comp.gradient(x) @ flow_dir))
            if violation > worst:
                worst = violation
                worst_witness = {
                    "point": x.tolist(),
                    "component": ci,
                    "violation": violation,
                }
    if worst > tol:
        return ConstancyVerdict(
            applicable=False,
            constant=None,
            max_violation=worst,
            max_deviation=None,
            witness=worst_witness,
        )

    probes = [("critical_point", p.id, p.location) for p in graph.crits]
    for e in graph.edges:
        probes.append(("orbit_start", (e.source, e.target), e.witness.start))
        probes.append(("orbit_end", (e.source, e.target), e.witness.end))
    max_dev = 0.0
    pair = None
    for ci, comp in enumerate(components):
        values = [(label, key, comp.value(x)) for label, key, x in probes]
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                dev = abs(values[i][2] - values[j][2])
                if dev > max_dev:
                    max_dev = dev
                    pair = {
                        "component": ci,
                        "a": values[i][:2] + (values[i][2],),
                        "b": values[j][:2] + (values[j][2],),
                    }
    return ConstancyVerdict(
        applicable=True,
        constant=max_dev <= tol,
        max_violation=worst,
        max_deviation=max_dev,
        witness=pair or {},
    )
