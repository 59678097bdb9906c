import math

import numpy as np
import pytest

from morseflow import (
    FlowConfig,
    ImplicitManifold,
    check_length_bound,
    find_critical_points,
    integrate_flow,
    limit_point,
    parse,
    unstable_seeds,
)
from morseflow.errors import (
    EvaluationError, FlowError, NotConvergedError, RankDeficiencyError,
)
from morseflow.flow import flow_terminals


def test_closed_form_height_coordinate(sphere):
    # dz/dt = z^2 - 1 from z(0) = 0, so z(t) = -tanh(t)
    traj = integrate_flow(sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
                          sphere.cfg.replace(t_max=1.0), crits=sphere.crits)
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-13)
    assert abs(traj.points[-1][2] + math.tanh(1.0)) < 1e-6


def test_start_at_critical_point_converges_immediately(sphere):
    traj = integrate_flow(sphere.manifold, sphere.function,
                          sphere.crits[0].location, sphere.cfg,
                          crits=sphere.crits)
    assert len(traj) == 1
    assert traj.terminal.converged
    assert traj.terminal.critical_point_id == 0


def test_generic_start_reaches_minimum(sphere):
    traj = integrate_flow(sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
                          sphere.cfg, crits=sphere.crits)
    assert limit_point(traj, sphere.crits) == 0
    assert traj.f_values[0] == pytest.approx(0.0, abs=1e-12)
    assert traj.f_values[-1] == pytest.approx(-1.0, abs=1e-6)


def test_north_pole_start_is_the_maximum(sphere):
    traj = integrate_flow(sphere.manifold, sphere.function, [0.0, 0.0, 1.0],
                          sphere.cfg, crits=sphere.crits)
    assert limit_point(traj, sphere.crits) == 1


def test_stalled_trajectory_raises_in_limit_point(sphere):
    # no registered critical points: the capture-level gradient at the
    # minimum reads as an unregistered critical point
    traj = integrate_flow(sphere.manifold, sphere.function,
                          sphere.crits[0].location, sphere.cfg, crits=[])
    assert traj.terminal.kind == "stalled"
    with pytest.raises(NotConvergedError):
        limit_point(traj, sphere.crits)


def test_max_time_not_converged(sphere):
    traj = integrate_flow(sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
                          sphere.cfg.replace(t_max=0.5), crits=sphere.crits)
    assert traj.terminal.kind == "max_time"
    with pytest.raises(NotConvergedError):
        limit_point(traj, sphere.crits)


@pytest.mark.parametrize("name", ["sphere", "torus", "clifford"])
def test_trajectory_invariants(name, request):
    setup = request.getfixturevalue(name)
    m = setup.manifold
    for x0 in m.sample_points(5, seed=21):
        traj = integrate_flow(m, setup.function, x0, setup.cfg,
                              crits=setup.crits)
        assert traj.terminal.converged
        assert np.all(np.diff(traj.times) > 0.0)
        assert traj.stats.monotone
        assert np.all(np.diff(traj.f_values) <= 1e-12)
        assert traj.stats.max_constraint_drift <= 10.0 * m.constraint_tol
        for x in traj.points[:: max(1, len(traj) // 10)]:
            assert m.max_violation(x) <= m.constraint_tol


def test_backward_flow_increases_f(sphere):
    traj = integrate_flow(sphere.manifold, sphere.function,
                          [1.0, 0.0, 0.0], sphere.cfg,
                          direction="backward", crits=sphere.crits)
    assert traj.terminal.converged
    assert traj.terminal.critical_point_id == 1
    assert np.all(np.diff(traj.f_values) >= -1e-12)


@pytest.mark.parametrize("name", ["sphere", "torus"])
def test_energy_identity(name, request):
    # f(start) - f(end) equals the time integral of |P grad f|^2. On an
    # exponentially decaying gradient the trapezoid's relative error is
    # dt^2 (2 lambda)^2 / 12 wherever the samples sit, so the step cap
    # must resolve the decay rate for the 1e-3 gate.
    setup = request.getfixturevalue(name)
    x0 = setup.manifold.sample_points(1, seed=31)[0]
    traj = integrate_flow(setup.manifold, setup.function, x0,
                          setup.cfg.replace(max_step=0.05),
                          crits=setup.crits)
    drop = traj.f_values[0] - traj.f_values[-1]
    integral = np.trapezoid(traj.grad_norms ** 2, traj.times)
    assert abs(drop - integral) / abs(drop) < 1e-3


def test_semigroup_property(sphere):
    t1, t2 = 0.3, 0.4
    leg1 = integrate_flow(sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
                          sphere.cfg.replace(t_max=t1), crits=sphere.crits)
    leg2 = integrate_flow(sphere.manifold, sphere.function, leg1.points[-1],
                          sphere.cfg.replace(t_max=t2), crits=sphere.crits)
    joint = integrate_flow(sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
                           sphere.cfg.replace(t_max=t1 + t2),
                           crits=sphere.crits)
    assert np.linalg.norm(leg2.points[-1] - joint.points[-1]) < 1e-6


def test_length_bound_passes(sphere):
    traj = integrate_flow(sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
                          sphere.cfg, crits=sphere.crits)
    report = check_length_bound(traj, sphere.consts)
    assert report.passed
    assert len(report.segments) >= 1
    assert report.lhs <= report.rhs * report.slack


def test_length_bound_vacuous_inside_ball(sphere):
    # a start just next to the minimum never leaves its exclusion ball
    m = sphere.manifold
    x0 = m.retract(sphere.crits[0].location + np.array([0.01, 0.0, 0.0]),
                   guard=None)
    traj = integrate_flow(m, sphere.function, x0, sphere.cfg,
                          crits=sphere.crits)
    report = check_length_bound(traj, sphere.consts)
    assert report.passed
    assert len(report.segments) == 0


def test_length_bound_torus_descent(torus):
    seeds = unstable_seeds(torus.manifold, torus.crits[3])
    outer = [s for s in seeds if s.eigendirection == 1][0]
    traj = integrate_flow(torus.manifold, torus.function, outer.point,
                          torus.cfg, crits=torus.crits)
    assert limit_point(traj, torus.crits) == 0
    report = check_length_bound(traj, torus.consts)
    assert report.passed
    assert len(report.segments) >= 1


def test_unstable_seeds_counts(sphere, torus):
    north = unstable_seeds(sphere.manifold, sphere.crits[1])
    assert len(north) == 4
    for seed in north:
        assert np.linalg.norm(seed.point - sphere.crits[1].location) < 2e-4
        assert sphere.manifold.is_on_manifold(seed.point)
    assert unstable_seeds(sphere.manifold, sphere.crits[0]) == []
    saddle = unstable_seeds(torus.manifold, torus.crits[2])
    assert len(saddle) == 2
    assert {s.eigendirection for s in saddle} == {0}
    with pytest.raises(ValueError):
        unstable_seeds(sphere.manifold, sphere.crits[1], eps=0.0)


def test_flow_config_validation(sphere):
    with pytest.raises(ValueError):
        FlowConfig(rel_tol=-1.0)
    cfg = FlowConfig.from_constants(sphere.consts)
    assert cfg.capture_radius == min(sphere.consts.r / 2.0, 1e-3)
    with pytest.raises(ValueError):
        FlowConfig.from_constants(sphere.consts,
                                  capture_radius=2.0 * sphere.consts.r)


def test_record_terminal_only(sphere):
    traj = integrate_flow(sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
                          sphere.cfg, crits=sphere.crits, record=False)
    assert len(traj) == 2
    assert traj.terminal.converged


def test_direction_validation(sphere):
    with pytest.raises(ValueError):
        integrate_flow(sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
                       sphere.cfg, direction="sideways")


def test_wrong_dimension_start_is_a_value_error(sphere):
    with pytest.raises(ValueError, match="3 coordinates"):
        integrate_flow(sphere.manifold, sphere.function, [1.0, 0.0],
                       sphere.cfg, crits=sphere.crits)


# The batched stepper against the scalar one, start by start: same
# terminal, and the same end point up to the last bits.
def _assert_batch_matches_scalar(m, f, starts, cfg, crits, tol=1e-12):
    terminals, ends = flow_terminals(m, f, starts, cfg, crits=crits)
    assert len(terminals) == len(ends) == len(starts)
    for x0, terminal, end in zip(starts, terminals, ends):
        ref = integrate_flow(m, f, x0, cfg, crits=crits, record=False)
        assert terminal == ref.terminal
        if tol is not None:
            assert np.max(np.abs(end - ref.end)) <= tol


@pytest.mark.parametrize("name", ["sphere", "sphere_m", "torus", "clifford"])
def test_batched_flow_matches_scalar(name, request):
    setup = request.getfixturevalue(name)
    m = setup.manifold
    # sampled starts plus an off-manifold one that needs a retraction
    starts = list(m.sample_points(12, seed=31))
    starts.append(1.001 * starts[0])
    _assert_batch_matches_scalar(m, setup.function, starts, setup.cfg,
                                 setup.crits)


def test_batched_flow_three_constraints():
    # S^2 inside R^5: the stacked-solve branch of project
    m = ImplicitManifold(5, [
        parse(e, 5) for e in ("x1^2 + x2^2 + x3^2 - 1", "x4", "x5")
    ])
    f = parse("x3 + 0.3 * x1", 5)
    crits = find_critical_points(m, f, 20, seed=0)
    rng = np.random.default_rng(8)
    starts = np.zeros((8, 5))
    starts[:, :3] = rng.standard_normal((8, 3))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    _assert_batch_matches_scalar(m, f, starts, FlowConfig(), crits)


def test_batched_flow_non_polynomial(sphere):
    # np.sin is not math.sin to the last bit, so only the terminals agree
    m = sphere.manifold
    f = parse("sin(x3) + 0.1*x1", 3)
    crits = find_critical_points(m, f, 50, seed=0)
    _assert_batch_matches_scalar(m, f, m.sample_points(10, seed=4),
                                 sphere.cfg, crits, tol=None)


def test_batched_flow_unresolved_terminals(sphere):
    m, f = sphere.manifold, sphere.function
    starts = m.sample_points(6, seed=12)
    short = sphere.cfg.replace(t_max=0.05)
    terminals, _ = flow_terminals(m, f, starts, short, crits=sphere.crits)
    assert {t.kind for t in terminals} == {"max_time"}
    _assert_batch_matches_scalar(m, f, starts, short, sphere.crits)
    no_minimum = [p for p in sphere.crits if p.index > 0]
    terminals, _ = flow_terminals(m, f, starts, sphere.cfg,
                                  crits=no_minimum)
    assert {t.kind for t in terminals} == {"stalled"}
    _assert_batch_matches_scalar(m, f, starts, sphere.cfg, no_minimum)


def test_batched_flow_errors_match_scalar(sphere):
    cone = ImplicitManifold(3, [parse("x1^2 + x2^2 - x3^2", 3)])
    with pytest.raises(RankDeficiencyError):
        flow_terminals(cone, parse("x3", 3), [[0.6, 0.8, 1.0], [0.0] * 3])
    low = parse("sqrt(x3 - 2)", 3)
    with pytest.raises(EvaluationError):
        integrate_flow(sphere.manifold, low, [1.0, 0.0, 0.0])
    with pytest.raises(EvaluationError):
        flow_terminals(sphere.manifold, low, [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="3 coordinates"):
        flow_terminals(sphere.manifold, sphere.function, [[1.0, 0.0]])
