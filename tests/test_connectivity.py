import math

import numpy as np
import pytest

from morseflow import (
    FlowConfig,
    ImplicitManifold,
    basin_sample,
    build_connection_graph,
    check_connected,
    find_critical_points,
    integrate_flow,
    parse,
    propagate_constancy,
)
from morseflow.connectivity import CONSTANCY_SAMPLES, ConnectionGraph
from morseflow.errors import (
    DisconnectedGraphError,
    FlowError,
    NonMorseError,
    RankDeficiencyError,
    StalledTrajectoryError,
)


def test_sphere_graph(sphere):
    graph = build_connection_graph(sphere.manifold, sphere.function,
                                   sphere.crits, sphere.cfg)
    assert graph.directed_pairs() == [(1, 0)]
    assert len(graph.witnesses(1, 0)) == 4
    connected, parts = check_connected(graph)
    assert connected and len(parts) == 1


def test_torus_graph_has_saddle_saddle_edge(torus):
    graph = build_connection_graph(torus.manifold, torus.function,
                                   torus.crits, torus.cfg)
    pairs = graph.directed_pairs()
    assert pairs == [(1, 0), (2, 1), (3, 0), (3, 2)]
    assert check_connected(graph)[0]


def test_clifford_graph(clifford):
    graph = build_connection_graph(clifford.manifold, clifford.function,
                                   clifford.crits, clifford.cfg)
    assert graph.directed_pairs() == [(1, 0), (2, 0), (3, 1), (3, 2)]
    assert check_connected(graph)[0]


def test_edges_drop_f(torus):
    graph = build_connection_graph(torus.manifold, torus.function,
                                   torus.crits, torus.cfg)
    value = {p.id: p.value for p in torus.crits}
    for e in graph.edges:
        assert value[e.source] > value[e.target]
        assert e.witness.terminal.converged
        start_gap = np.linalg.norm(
            e.witness.points[0] - torus.crits[e.source].location
        )
        assert start_gap < 2e-4


def test_connectivity_stable_under_refinement(torus):
    # doubled starts, halved seed displacement: same undirected structure
    crits = find_critical_points(torus.manifold, torus.function, 400, seed=1)
    graph = build_connection_graph(torus.manifold, torus.function, crits,
                                   torus.cfg, eps=5e-5)
    base = build_connection_graph(torus.manifold, torus.function,
                                  torus.crits, torus.cfg)
    assert graph.undirected_pairs() == base.undirected_pairs()
    assert check_connected(graph)[0] == check_connected(base)[0]


def test_disconnected_partition(sphere):
    bare = ConnectionGraph(manifold=sphere.manifold,
                           function=sphere.function,
                           crits=list(sphere.crits), edges=())
    connected, parts = check_connected(bare)
    assert not connected
    assert parts == [{0}, {1}]


def test_stall_aborts_graph_build(torus):
    # dropping the minimum makes every descent orbit stall
    incomplete = [p for p in torus.crits if p.index > 0]
    with pytest.raises(StalledTrajectoryError):
        build_connection_graph(torus.manifold, torus.function, incomplete,
                               torus.cfg)


def test_witness_hitting_t_max_aborts_graph_build(sphere):
    with pytest.raises(FlowError, match="from critical point 1 hit t_max"):
        build_connection_graph(sphere.manifold, sphere.function,
                               sphere.crits, sphere.cfg.replace(t_max=0.5))


def test_degenerate_scenario_refused(sphere):
    crits = find_critical_points(sphere.manifold, parse("1", 3), 10, seed=0)
    with pytest.raises(NonMorseError):
        build_connection_graph(sphere.manifold, parse("1", 3), crits,
                               sphere.cfg)


def test_basin_sphere(sphere):
    report = basin_sample(sphere.manifold, sphere.function, sphere.crits,
                          sphere.cfg, 200, seed=0)
    assert report.n_samples == 200
    assert sum(report.tally.values()) + report.unresolved == 200
    assert report.minima_fraction >= 0.999


def test_basin_deterministic(sphere):
    a = basin_sample(sphere.manifold, sphere.function, sphere.crits,
                     sphere.cfg, 50, seed=3)
    b = basin_sample(sphere.manifold, sphere.function, sphere.crits,
                     sphere.cfg, 50, seed=3)
    assert a.tally == b.tally
    assert a.minima_fraction == b.minima_fraction


def test_basin_single_point_at_maximum(sphere):
    report = basin_sample(sphere.manifold, sphere.function, sphere.crits,
                          sphere.cfg, 1, seed=0,
                          points=[sphere.crits[1].location])
    assert report.tally == {1: 1}
    assert report.minima_fraction == 0.0


def test_basin_wrong_dimension_points(sphere):
    with pytest.raises(ValueError, match="3 coordinates"):
        basin_sample(sphere.manifold, sphere.function, sphere.crits,
                     sphere.cfg, 1, seed=0, points=[[1.0, 0.0]])
    with pytest.raises(ValueError, match="3 coordinates"):
        basin_sample(sphere.manifold, sphere.function, sphere.crits,
                     sphere.cfg, 2, seed=0, points=[1.0, 0.0])


def test_basin_counts_unresolved_starts(sphere):
    # by t_max = 0.05 the start on the equator is still on its way; the
    # one at the minimum is captured at once
    report = basin_sample(sphere.manifold, sphere.function, sphere.crits,
                          sphere.cfg.replace(t_max=0.05), 2, seed=0,
                          points=[[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    assert report.tally == {0: 1}
    assert report.unresolved == 1
    assert report.minima_fraction == 0.5


def test_basin_rejects_a_bad_count(sphere):
    args = (sphere.manifold, sphere.function, sphere.crits, sphere.cfg)
    with pytest.raises(ValueError, match="n must be at least 1"):
        basin_sample(*args, 0, seed=0)
    with pytest.raises(ValueError, match="explicit points must match n"):
        basin_sample(*args, 2, seed=0, points=[[1.0, 0.0, 0.0]])


def test_basin_matches_scalar_flows(torus):
    # every start is tallied where integrate_flow alone ends it
    m, f = torus.manifold, torus.function
    points = m.sample_points(20, seed=17)
    report = basin_sample(m, f, torus.crits, torus.cfg, 20, seed=0,
                          points=points)
    tally = {}
    for x0 in points:
        terminal = integrate_flow(m, f, x0, torus.cfg,
                                  crits=torus.crits).terminal
        tally[terminal.critical_point_id] = (
            tally.get(terminal.critical_point_id, 0) + 1
        )
    assert report.tally == tally
    assert report.unresolved == 0


def test_basin_rank_deficient_start():
    cone = ImplicitManifold(3, [parse("x1^2 + x2^2 - x3^2", 3)])
    with pytest.raises(RankDeficiencyError):
        basin_sample(cone, parse("x3", 3), [], FlowConfig(), 1, seed=0,
                     points=[[0.0, 0.0, 0.0]])


def test_constancy_constant_field(sphere):
    graph = build_connection_graph(sphere.manifold, sphere.function,
                                   sphere.crits, sphere.cfg)
    verdict = propagate_constancy(graph, [parse("1", 3)])
    assert verdict.applicable and verdict.constant
    assert verdict.max_deviation == 0.0


def test_constancy_radius_field(sphere):
    # |x|^2 is identically 1 on the sphere and constant along flows
    graph = build_connection_graph(sphere.manifold, sphere.function,
                                   sphere.crits, sphere.cfg)
    verdict = propagate_constancy(graph, [parse("x1^2 + x2^2 + x3^2", 3)])
    assert verdict.applicable and verdict.constant


def test_constancy_height_field_not_applicable(sphere):
    # d(x3) along the flow direction is -|P grad f|^2 = z^2 - 1
    graph = build_connection_graph(sphere.manifold, sphere.function,
                                   sphere.crits, sphere.cfg)
    verdict = propagate_constancy(graph, [parse("x3", 3)])
    assert not verdict.applicable
    assert verdict.constant is None
    witness = np.array(verdict.witness["point"])
    assert sphere.manifold.is_on_manifold(witness, tol=1e-8)
    z = witness[2]
    assert verdict.max_violation == pytest.approx(1.0 - z * z, abs=1e-9)
    assert verdict.max_violation > 0.5


def test_constancy_needs_connected_graph(sphere):
    bare = ConnectionGraph(manifold=sphere.manifold,
                           function=sphere.function,
                           crits=list(sphere.crits), edges=())
    with pytest.raises(DisconnectedGraphError):
        propagate_constancy(bare, [parse("1", 3)])


def test_vector_field_components(sphere):
    graph = build_connection_graph(sphere.manifold, sphere.function,
                                   sphere.crits, sphere.cfg)
    verdict = propagate_constancy(
        graph, [parse("2", 3), parse("x1^2 + x2^2 + x3^2 - 3", 3)]
    )
    assert verdict.applicable and verdict.constant


def test_constancy_nan_derivative_is_not_applicable(sphere):
    # d/dx1 of x1 * 1e308 * 1e308 is inf, so every along-flow derivative
    # is nan: the field is not applicable, and the witness is the first
    # sample
    graph = build_connection_graph(sphere.manifold, sphere.function,
                                   sphere.crits, sphere.cfg)
    verdict = propagate_constancy(
        graph, [parse("1", 3),
                parse("x1 * 1e308 * 1e308 - x1 * 1e308 * 1e308", 3)])
    assert not verdict.applicable
    assert verdict.constant is None
    assert math.isnan(verdict.max_violation)
    first = sphere.manifold.sample_points(CONSTANCY_SAMPLES, 0)[0]
    assert verdict.witness["point"] == first.tolist()
    assert verdict.witness["component"] == 1
    assert math.isnan(verdict.witness["violation"])


def test_constancy_nan_value_is_not_constant(sphere):
    # a nan constant has a zero gradient, so the field is applicable, but
    # its values do not agree
    graph = build_connection_graph(sphere.manifold, sphere.function,
                                   sphere.crits, sphere.cfg)
    verdict = propagate_constancy(
        graph, [parse("1", 3), parse("1e308 * 1e308 - 1e308 * 1e308", 3)])
    assert verdict.applicable
    assert verdict.constant is False
    assert math.isnan(verdict.max_deviation)
    assert verdict.witness["component"] == 1


def test_constancy_witness_spans_the_deviation(sphere):
    # x1 / 1e9 passes the along-flow test on the sphere; the witness is
    # the first pair of probes holding the smallest and largest value
    graph = build_connection_graph(sphere.manifold, sphere.function,
                                   sphere.crits, sphere.cfg)
    verdict = propagate_constancy(graph, [parse("x1 / 1e9", 3)])
    assert verdict.applicable and verdict.constant
    a, b = verdict.witness["a"][2], verdict.witness["b"][2]
    assert abs(a - b) == verdict.max_deviation > 0.0
    values = [p.location[0] / 1e9 for p in graph.crits]
    for e in graph.edges:
        values += [e.witness.start[0] / 1e9, e.witness.end[0] / 1e9]
    assert sorted((a, b)) == [min(values), max(values)]
