import dataclasses
import gc
import itertools
import math
import numbers
import weakref
from operator import mul
from types import SimpleNamespace

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
    EvaluationError, FlowError, MorseflowError, NotConvergedError,
    RankDeficiencyError, RetractionError,
)
from morseflow import flow as flow_module
from morseflow.flow import (
    _CK_A, _CK_B5, _CK_ERR, _FLOW_NAMES, MAX_SCALE, MIN_SCALE, SAFETY,
    FlowStats, GradientField, Terminal, Trajectory, _capture, _cash_karp,
    _first_step, _loop_factory, flow_terminals,
)
from morseflow import morse
from morseflow.morse import minimum_traps
from morseflow.linalg import float_norm
from morseflow.linearization import (
    DECAY_MAX_STEP, integrate_variational, integrate_variational_multi,
    run_decay,
)
from morseflow.symbolics.compile import CompiledExpression
from test_kernels import SCENARIOS, _scenario
from test_linearization import hessian_quadratic_form


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


def test_limit_point_rejects_an_id_missing_from_crits(sphere):
    traj = integrate_flow(sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
                          sphere.cfg, crits=sphere.crits)
    assert traj.terminal.critical_point_id == 0
    with pytest.raises(NotConvergedError,
                       match="captured id 0 is not in the supplied"):
        limit_point(traj, sphere.crits[1:])


def test_length_bound_needs_two_samples(sphere):
    # captured at its start, the minimum: one sample
    traj = integrate_flow(sphere.manifold, sphere.function,
                          sphere.crits[0].location, sphere.cfg,
                          crits=sphere.crits)
    assert len(traj) == 1
    with pytest.raises(FlowError, match="at least two samples"):
        check_length_bound(traj, sphere.consts)


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


def test_length_bound_sums_left_to_right():
    # three outside segments of lengths and drops 1e16, 1 and 1, with one
    # sample at a critical point between each two: a compensated sum
    # (math.fsum, and `sum` of floats on Python 3.12 and later) gives
    # 1e16 + 2, the sum from 0.0 left to right 1e16
    points = np.array([[0.0], [1e16], [-100.0], [10.0], [11.0], [-200.0],
                       [20.0], [21.0]])
    traj = Trajectory(
        times=np.arange(8.0), points=points,
        f_values=np.array([1e16, 0.0, 0.5, 1.0, 0.0, 0.5, 1.0, 0.0]),
        grad_norms=np.ones(8), terminal=Terminal("stalled"),
        stats=FlowStats(), direction="forward")
    consts = SimpleNamespace(critical_locations=[[-100.0], [-200.0]],
                             r=2.0, c_floor=0.5)
    report = check_length_bound(traj, consts)
    lengths = [s.length for s in report.segments]
    assert lengths == [s.drop for s in report.segments] == [1e16, 1.0, 1.0]
    lhs = drops = 0.0
    for length in lengths:
        lhs += length
        drops += length
    assert (report.lhs, report.rhs) == (lhs, drops / 0.5)
    assert report.lhs != math.fsum(lengths)


def _outside_oracle(traj, consts):
    """check_length_bound's outside mask as it was: one np.linalg.norm
    per sample and critical point."""
    return [min(np.linalg.norm(x - q) for q in consts.critical_locations)
            > consts.r / 2.0 for x in traj.points]


@pytest.mark.parametrize("name", ["sphere", "sphere_m", "torus", "clifford"])
def test_length_bound_segments_match_per_sample_norms(name, request):
    # the batched distances decide every sample as the per-sample norms
    # did, so the segments are the runs of two or more outside samples
    setup = request.getfixturevalue(name)
    m, f = setup.manifold, setup.function
    for x0 in m.sample_points(10, seed=3):
        for direction in ("forward", "backward"):
            traj = integrate_flow(m, f, x0, setup.cfg, direction=direction,
                                  crits=setup.crits)
            mask = _outside_oracle(traj, setup.consts) + [False]
            runs, start = [], None
            for i, out in enumerate(mask):
                if out and start is None:
                    start = i
                elif not out and start is not None:
                    if i - 1 > start:
                        runs.append((traj.times[start], traj.times[i - 1]))
                    start = None
            report = check_length_bound(traj, setup.consts)
            assert [(s.t_start, s.t_end) for s in report.segments] == runs


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


def test_flow_config_stores_floats():
    # the generated flow loop binds the fields by name: numpy scalars and
    # ints are kept as the Python floats of the same value
    defaults = dataclasses.asdict(FlowConfig())
    cfg = FlowConfig(**{k: np.float64(v) for k, v in defaults.items()})
    assert cfg == FlowConfig()
    assert {type(v) for v in dataclasses.asdict(cfg).values()} == {float}
    assert type(cfg.replace(t_max=3).t_max) is float


def _record_loop_numbers(monkeypatch):
    """Types of every number handed to a generated flow loop, as
    `_make(**names)` or as `_flow(*args)`, from now on."""
    seen = []
    build = flow_module._loop_factory

    def recording_factory(kernel, size):
        make = build(kernel, size)

        def recording_make(**names):
            seen.extend(type(v) for v in names.values()
                        if isinstance(v, numbers.Number))
            flow = make(**names)

            def recording_flow(*args):
                seen.extend(type(a) for a in args)
                return flow(*args)
            return recording_flow
        return recording_make
    monkeypatch.setattr(flow_module, "_loop_factory", recording_factory)
    return seen


def test_only_python_floats_reach_the_flow_loop(sphere, torus, monkeypatch):
    # a numpy scalar bound in the loop (a start norm, a config field)
    # would turn every operation of the loop into a numpy-scalar one
    seen = _record_loop_numbers(monkeypatch)
    m, f, crits, cfg = (sphere.manifold, sphere.function, sphere.crits,
                        sphere.cfg)
    x0 = m.sample_points(1, seed=4)[0]
    v0 = m.random_tangent(x0, np.random.default_rng(4))
    runs = [
        lambda: integrate_flow(m, f, x0, cfg, crits=crits),
        lambda: integrate_variational(
            m, f, x0, v0, cfg.replace(max_step=DECAY_MAX_STEP), crits=crits),
        lambda: integrate_variational_multi(
            m, f, x0, [v0, m.random_tangent(x0, np.random.default_rng(5))],
            cfg.replace(t_max=1.0), capture=False),
        lambda: run_decay(torus.manifold, torus.function, torus.crits,
                          torus.cfg, seed=2),
        lambda: flow_terminals(m, f, m.sample_points(3, seed=6), cfg, crits),
        lambda: integrate_variational(
            m, f, x0, v0, FlowConfig(**{k: np.float64(v) for k, v in
                                        dataclasses.asdict(cfg).items()}),
            crits=crits),
    ]
    for run in runs:
        seen.clear()
        run()
        assert seen
        assert set(seen) == {float}


def test_every_flow_sizes_its_first_step_from_one_norm(sphere, monkeypatch):
    # plain, variational and basin flows from one start hand `_first_step`
    # the same start norm, float_norm's; the start is one where
    # np.linalg.norm differs from it in the last bit
    m, f, cfg, crits = (sphere.manifold, sphere.function, sphere.cfg,
                        sphere.crits)
    x0 = next(x for x in m.sample_points(200, seed=1)
              if float_norm(x.tolist()) != np.linalg.norm(x))
    v0 = m.random_tangent(x0, np.random.default_rng(1))
    norms = []
    first_step = flow_module._first_step

    def recording(cfg, x_norm, gnorm):
        norms.append(x_norm)
        return first_step(cfg, x_norm, gnorm)
    monkeypatch.setattr(flow_module, "_first_step", recording)
    integrate_flow(m, f, x0, cfg, crits=crits)
    integrate_variational(m, f, x0, v0, cfg, crits=crits)
    flow_terminals(m, f, [x0], cfg, crits)
    assert norms == [float_norm(x0.tolist())] * 3
    assert {type(v) for v in norms} == {float}


def test_direction_validation(sphere):
    with pytest.raises(ValueError):
        integrate_flow(sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
                       sphere.cfg, direction="sideways")


def test_wrong_dimension_start_is_a_value_error(sphere):
    with pytest.raises(ValueError, match="3 coordinates"):
        integrate_flow(sphere.manifold, sphere.function, [1.0, 0.0],
                       sphere.cfg, crits=sphere.crits)


# The basin flows against integrate_flow, start by start. A basin flow
# stops at the first sample of that flow inside a minimum's trap (or at
# its start there), so its end is that sample bit for bit and its
# terminal is the minimum, which the flow converges to unless it runs
# out of time first; without such a sample, the same terminal and the
# same end point, bit for bit.
def _first_trapped(traj, traps):
    """(j, trap) of the first sample inside a trap, or (None, None)."""
    for j, x in enumerate(traj.points):
        for trap in traps:
            if (np.sum((x - trap.center) ** 2) < trap.radius ** 2
                    and traj.f_values[j] < trap.level):
                return j, trap
    return None, None


def _assert_basin_matches(m, f, crits, terminals, ends, refs):
    """The basin oracle above; returns how many flows a trap stopped."""
    traps = minimum_traps(m, f, crits)
    assert len(terminals) == len(ends) == len(refs)
    trapped = 0
    for terminal, end, ref in zip(terminals, ends, refs):
        j, trap = _first_trapped(ref, traps)
        if trap is None:
            assert terminal == ref.terminal
            assert np.array_equal(end, ref.end)
            continue
        trapped += 1
        assert terminal == Terminal("converged", trap.id)
        assert ref.terminal in (terminal, Terminal("max_time"))
        assert np.array_equal(end, ref.points[j])
    return trapped


def _assert_batch_matches_scalar(m, f, starts, cfg, crits):
    terminals, ends = flow_terminals(m, f, starts, cfg, crits=crits)
    refs = [integrate_flow(m, f, x0, cfg, crits=crits) for x0 in starts]
    return _assert_basin_matches(m, f, crits, terminals, ends, refs)


@pytest.mark.parametrize("name", ["sphere", "sphere_m", "torus", "clifford"])
def test_batched_flow_matches_scalar(name, request):
    setup = request.getfixturevalue(name)
    m = setup.manifold
    # sampled starts plus an off-manifold one that needs a retraction
    starts = list(m.sample_points(12, seed=31))
    starts.append(1.001 * starts[0])
    assert _assert_batch_matches_scalar(m, setup.function, starts,
                                        setup.cfg, setup.crits) > 0


def test_batched_flow_three_constraints():
    # S^2 inside R^5: three constraints, the generated elimination
    m = ImplicitManifold(5, [
        parse(e, 5) for e in ("x1^2 + x2^2 + x3^2 - 1", "x4", "x5")
    ])
    f = parse("x3 + 0.3 * x1", 5)
    crits = find_critical_points(m, f, 20, seed=0)
    rng = np.random.default_rng(8)
    starts = np.zeros((8, 5))
    starts[:, :3] = rng.standard_normal((8, 3))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    assert _assert_batch_matches_scalar(m, f, starts, FlowConfig(),
                                        crits) > 0


def test_flow_on_orthogonal_group():
    # O(3) in R^9 (six constraints, X^T X = I) with f = tr(diag(1, 2, 3) X):
    # critical exactly at the eight diagonal sign matrices; each flow
    # ends at its component's minimum, diag(1, -1, -1) (f = -4) on SO(3)
    # and -I (f = -6) on the other
    m = ImplicitManifold(9, [
        parse(" + ".join(f"x{i + r}*x{j + r}" for r in (0, 3, 6))
              + (" - 1" if i == j else ""), 9)
        for i in (1, 2, 3) for j in range(i, 4)
    ], bounding_box=(-1.2, 1.2))
    f = parse("x1 + 2*x5 + 3*x9", 9)
    field = GradientField(m, f)
    for signs in itertools.product((1.0, -1.0), repeat=3):
        x = np.diag(signs).ravel().tolist()
        assert field.projected_gradient(x) == (0.0,) * 9
    starts = m.sample_points(30, seed=0)
    terminals, ends = flow_terminals(m, f, starts)
    lows = set()
    for x0, terminal, end in zip(starts, terminals, ends):
        traj = integrate_flow(m, f, x0)
        # no registered critical points: a vanishing field stalls
        assert terminal == traj.terminal == Terminal("stalled")
        assert np.array_equal(end, traj.end)
        if np.linalg.det(x0.reshape(3, 3)) > 0:
            want, low = np.diag([1.0, -1.0, -1.0]), -4.0
        else:
            want, low = -np.eye(3), -6.0
        # f moves by |grad f| = sqrt(14) times the constraint tolerance
        assert traj.f_values[-1] == pytest.approx(low, abs=1e-8)
        assert np.max(np.abs(end - want.ravel())) < 1e-6
        lows.add(low)
    assert lows == {-4.0, -6.0}  # starts on both components


def test_batched_flow_non_polynomial(sphere):
    # every basin flow evaluates sin and exp with `math`, as one flow
    # does (numpy's exp differs from `math.exp` in the last bit on some
    # arguments), so the end points agree bit for bit as well
    m = sphere.manifold
    for text in ("sin(x3) + 0.1*x1", "exp(x3) + 0.1*x1"):
        f = parse(text, 3)
        crits = find_critical_points(m, f, 50, seed=0)
        assert _assert_batch_matches_scalar(
            m, f, m.sample_points(10, seed=4), sphere.cfg, crits) > 0


def _no_root(cut, f, starts):
    return [None] * len(starts)


def _domain_error(cut, f, starts):
    raise EvaluationError("math domain error")


_FAIL_SAFES = {
    "one critical point": lambda crits: crits[:1],
    # the maximum called a minimum: f on its cut is below it, eta < 0,
    # and the true minimum called a saddle
    "eta <= 0": lambda crits: [dataclasses.replace(crits[1], index=0),
                               dataclasses.replace(crits[0], index=1)],
    "TRAP_SAFETY = 0": ("TRAP_SAFETY", 0.0),
    "no root on the cut": ("_newton_sweep", _no_root),
    "a domain error on the cut": ("_newton_sweep", _domain_error),
}


@pytest.mark.parametrize("case", _FAIL_SAFES)
def test_basin_flows_without_a_trap_are_integrate_flows(case, sphere,
                                                       monkeypatch):
    # where no minimum gets a trap, every basin flow has integrate_flow's
    # terminal and end point, bit for bit, as before traps
    m, f, cfg = sphere.manifold, sphere.function, sphere.cfg
    crits, fail = list(sphere.crits), _FAIL_SAFES[case]
    starts = m.sample_points(6, seed=12)
    assert _assert_batch_matches_scalar(m, f, starts, cfg, crits) > 0
    if callable(fail):
        crits = fail(crits)
    else:
        monkeypatch.setattr(morse, *fail)
    assert minimum_traps(m, f, crits) == []
    assert _assert_batch_matches_scalar(m, f, starts, cfg, crits) == 0


def test_basin_flows_on_a_curve_have_no_trap():
    # on a curve the cut M ∩ S(p, rho) is a set of points, not a manifold
    circle = ImplicitManifold(2, [parse("x1^2 + x2^2 - 1", 2)])
    f = parse("x2 + 0.3 * x1", 2)
    crits = find_critical_points(circle, f, 20, seed=0)
    assert [p.index for p in crits] == [0, 1]
    assert minimum_traps(circle, f, crits) == []
    starts = circle.sample_points(6, seed=3)
    assert _assert_batch_matches_scalar(circle, f, starts, FlowConfig(),
                                        crits) == 0


def test_basin_flow_is_trapped_where_integrate_flow_stalls(sphere):
    # the step-control cycle at the edge of the stability region: from
    # this start at rel_tol = abs_tol = 1e-6 the step settles where it
    # neither shrinks nor grows the deviation, |P grad f| stays near 2e-6
    # above the capture threshold, and integrate_flow ends at t_max.
    # The basin flow enters the minimum's trap first, so it knows its
    # limit: the two differ in terminal until the cycle itself is mended
    m, f, crits = sphere.manifold, sphere.function, sphere.crits
    cfg = sphere.cfg.replace(rel_tol=1e-6, abs_tol=1e-6)
    x0 = [0.6, 0.0, -0.8]
    ref = integrate_flow(m, f, x0, cfg, crits=crits)
    assert ref.terminal == Terminal("max_time")
    terminals, ends = flow_terminals(m, f, [x0], cfg, crits=crits)
    assert terminals == [Terminal("converged", 0)]
    assert _assert_basin_matches(m, f, crits, terminals, ends, [ref]) == 1


def test_batched_flow_unresolved_terminals(sphere):
    m, f = sphere.manifold, sphere.function
    starts = m.sample_points(6, seed=12)
    short = sphere.cfg.replace(t_max=0.05)
    terminals, _ = flow_terminals(m, f, starts, short, crits=sphere.crits)
    assert {t.kind for t in terminals} == {"max_time"}
    # no start reaches the trap in that time, and no trap without a minimum
    assert _assert_batch_matches_scalar(m, f, starts, short,
                                        sphere.crits) == 0
    no_minimum = [p for p in sphere.crits if p.index > 0]
    terminals, _ = flow_terminals(m, f, starts, sphere.cfg,
                                  crits=no_minimum)
    assert {t.kind for t in terminals} == {"stalled"}
    assert _assert_batch_matches_scalar(m, f, starts, sphere.cfg,
                                        no_minimum) == 0


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


# -- the generated flow loop against the list-based one ---------------------


def _fold(terms):
    """Left-to-right sum from 0.0, as the generated code adds (`sum` of
    floats is compensated on Python 3.12 and later)."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _oracle_step(rhs, h, state, k1, cfg):
    """One Cash-Karp step on lists: stage sums take component i of every
    stage in stage order, then the B5 sums and the scaled error norm."""
    ks = [k1]
    for row in _CK_A:
        stage = [
            y + h * _fold(map(mul, row, col))
            for y, col in zip(state, zip(*ks))
        ]
        ks.append(rhs(stage))
    cols = list(zip(*ks))
    y_new = [
        y + h * _fold(map(mul, _CK_B5, col)) for y, col in zip(state, cols)
    ]
    err_scaled = 0.0
    for y, y5, col in zip(state, y_new, cols):
        err = h * _fold(map(mul, _CK_ERR, col))
        scale = cfg.abs_tol + cfg.rel_tol * max(abs(y), abs(y5))
        err_scaled += (err / scale) ** 2
    return y_new, math.sqrt(err_scaled / len(state))


def _shrink_factor(err_scaled):
    """Step factor after a rejected step."""
    return max(MIN_SCALE, SAFETY * err_scaled ** -0.2)


def _step_factor(err_scaled):
    """Step factor after an accepted step."""
    if err_scaled > 0.0:
        return min(MAX_SCALE, _shrink_factor(err_scaled))
    return MAX_SCALE


def _checked_rhs(field, sign):
    # the derivative of [x, V_1, ..., V_j], from the checked kernel call
    return lambda ys: [sign * v for v in field.projected_gradient(ys)]


def _oracle_flow(field, sign, state, cfg, crits=None, capture=True):
    """`_cash_karp` as the Python loop it was: `_oracle_step` with the
    checked field, `ImplicitManifold._gauss_newton` on the point part of
    y5, the drift from the constraint map's `value` there, the map's
    `project_rows` per vector, the step factors above, and the module's
    first step (looked up on the module, so that `_start_norm` reaches
    it), capture and statistics."""
    m = field.manifold
    n = field.n
    size = len(state)
    crit_list = list(crits) if crits is not None else []
    stats = FlowStats()
    rhs = _checked_rhs(field, sign)

    def _terminal(point, norm):
        return _capture(point, norm, crit_list, cfg) if capture else None

    k1 = rhs(state)
    gnorm = float_norm(k1[:n])
    times, states, gnorms = [0.0], [state], [gnorm]
    terminal = _terminal(state[:n], gnorm)
    t = 0.0
    h = flow_module._first_step(cfg, float_norm(state[:n]), gnorm)
    halvings = 0
    while terminal is None:
        if t >= cfg.t_max - 1e-13:
            terminal = Terminal("max_time")
            break
        h = min(h, cfg.t_max - t, cfg.max_step)
        if h < 1e-13 * max(1.0, t):
            raise FlowError(f"step size underflow at t={t}")
        y_new, err_scaled = _oracle_step(rhs, h, state, k1, cfg)
        if not err_scaled <= 1.0:
            stats.rejected += 1
            h *= _shrink_factor(err_scaled)
            continue
        try:
            point = m._gauss_newton(y_new[:n], None)
        except RetractionError:
            halvings += 1
            stats.retraction_halvings += 1
            if halvings > 40:
                raise FlowError(
                    "retraction kept failing after 40 step halvings"
                ) from None
            h *= 0.5
            continue
        halvings = 0
        drift = max(map(abs, m._map.value(y_new[:n])))
        stats.max_constraint_drift = max(stats.max_constraint_drift, drift)
        t += h
        state = point + [
            c for lo in range(n, size, n)
            for c in m._map.project_rows(point, y_new[lo:lo + n])
        ]
        stats.steps += 1
        k1 = rhs(state)
        gnorm = float_norm(k1[:n])
        times.append(t)
        states.append(state)
        gnorms.append(gnorm)
        terminal = _terminal(point, gnorm)
        if terminal is None:
            h *= _step_factor(err_scaled)
    return terminal, stats, times, states, gnorms


def _hook_loop_retraction(monkeypatch):
    """Make every flow loop from now on with tol = nan, which no inline
    first iterate passes, so that every accepted step calls the loop's
    `retract`, `ImplicitManifold._gauss_newton` with the manifold's own
    tol."""
    build = flow_module._loop_factory

    def factory(kernel, size):
        make = build(kernel, size)
        return lambda **names: make(**{**names, "tol": math.nan})
    monkeypatch.setattr(flow_module, "_loop_factory", factory)


def _retraction_through(monkeypatch, m, gn):
    """Let `gn(tol, bound, *y)` stand for the constraint map's generated
    `_gn` in every retraction from now on: in `retract`, in the list
    oracle and at every accepted step of a flow loop (routed through
    `_hook_loop_retraction`), all of which call `_gauss_newton`."""
    monkeypatch.setattr(m._map, "_gn", gn)
    _hook_loop_retraction(monkeypatch)


def _failing_retraction(monkeypatch, m, fails):
    """Let the retraction of one point, the constraint map's generated
    `_gn` that flows and `retract` call (`_retraction_through`), report
    "iterations" on its first `fails` calls, or for a set on the calls it
    numbers from 0, which `_gauss_newton` turns into RetractionError.
    Returns the arguments (tol, bound, *y) of the failed calls."""
    fails = range(fails) if isinstance(fails, int) else fails
    original = m._map.gauss_newton()
    failed, calls = [], itertools.count()

    def failing(*args):
        point, status = original(*args)
        if next(calls) in fails:
            failed.append(args)
            status = "iterations"
        return point, status
    _retraction_through(monkeypatch, m, failing)
    return failed


# Near the minimum the first step is large enough (about 1) to be halved
# 40 times before the step size underflows. That start lies in the
# minimum's trap, where a basin flow makes no step; near the maximum the
# first step (0.2) can be halved 40 times as well.
NEAR_MINIMUM = [0.1, 0.0, -math.sqrt(0.99)]
NEAR_MAXIMUM = [0.1, 0.0, math.sqrt(0.99)]


def test_failed_retraction_halves_the_step(sphere, monkeypatch):
    m, f, cfg, crits = (sphere.manifold, sphere.function, sphere.cfg,
                        sphere.crits)
    plain = integrate_flow(m, f, [1.0, 0.0, 0.0], cfg, crits=crits)
    _failing_retraction(monkeypatch, m, 1)
    halved = integrate_flow(m, f, [1.0, 0.0, 0.0], cfg, crits=crits)
    assert plain.stats.retraction_halvings == 0
    assert halved.stats.retraction_halvings == 1
    assert halved.times[1] == 0.5 * plain.times[1]
    assert halved.terminal == plain.terminal


def test_retraction_failing_41_times_raises(sphere, monkeypatch):
    m, f, cfg, crits = (sphere.manifold, sphere.function, sphere.cfg,
                        sphere.crits)
    failed = _failing_retraction(monkeypatch, m, 41)
    with pytest.raises(FlowError, match="retraction kept failing after 40 "
                                        "step halvings"):
        integrate_flow(m, f, NEAR_MINIMUM, cfg, crits=crits)
    assert len(failed) == 41
    # forty failures in a row are halved away
    monkeypatch.undo()
    _failing_retraction(monkeypatch, m, 40)
    traj = integrate_flow(m, f, NEAR_MINIMUM, cfg, crits=crits)
    assert traj.stats.retraction_halvings == 40
    assert traj.terminal.converged


def test_retraction_failures_count_only_in_a_row(sphere, monkeypatch):
    # 30 failures, a retraction that converges, then 11 more: the count
    # starts again at each accepted step, so 41 failures in all pass
    m, f, cfg, crits = (sphere.manifold, sphere.function, sphere.cfg,
                        sphere.crits)
    failed = _failing_retraction(monkeypatch, m,
                                 set(range(30)) | set(range(31, 42)))
    traj = integrate_flow(m, f, NEAR_MINIMUM, cfg, crits=crits)
    assert len(failed) == 41
    assert traj.stats.retraction_halvings == 41
    assert traj.terminal.converged


def test_batched_flow_halves_a_column_whose_retraction_fails(sphere,
                                                             monkeypatch):
    # the starts are on M, so the first `_gn` call is the first start's
    # first step: it fails, and that step is halved once, as in
    # integrate_flow after one RetractionError
    m, f, cfg, crits = (sphere.manifold, sphere.function, sphere.cfg,
                        sphere.crits)
    starts = [[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.6, 0.0, -0.8]]
    failed = _failing_retraction(monkeypatch, m, 1)
    terminals, ends = flow_terminals(m, f, starts, cfg, crits=crits)
    monkeypatch.undo()
    alone = _failing_retraction(monkeypatch, m, 1)
    first = integrate_flow(m, f, starts[0], cfg, crits=crits)
    monkeypatch.undo()
    assert len(failed) == 1
    assert failed == alone  # the same point, bit for bit
    scalar = [first] + [integrate_flow(m, f, x0, cfg, crits=crits)
                        for x0 in starts[1:]]
    assert first.stats.retraction_halvings == 1
    assert _assert_basin_matches(m, f, crits, terminals, ends, scalar) == 3


def test_batched_flow_raises_after_41_failed_retractions(sphere,
                                                        monkeypatch):
    m, f, cfg, crits = (sphere.manifold, sphere.function, sphere.cfg,
                        sphere.crits)
    failed = _failing_retraction(monkeypatch, m, 41)
    with pytest.raises(FlowError, match="retraction kept failing after 40 "
                                        "step halvings"):
        flow_terminals(m, f, [NEAR_MAXIMUM], cfg, crits=crits)
    assert len(failed) == 41


@pytest.mark.parametrize("name", ["sphere", "clifford"])
@pytest.mark.parametrize("vectors", [0, 1])
def test_drift_is_the_largest_violation_before_retraction(name, vectors,
                                                          request,
                                                          monkeypatch):
    # max_constraint_drift is max |F| at the unretracted y5 of every
    # accepted step, recomputed with the constraint map's value; the y5
    # are recorded by routing every retraction through `_gn`, and the
    # flow without that routing (most first iterates passing inline)
    # has the same statistics bit for bit
    setup = request.getfixturevalue(name)
    m, f, cfg, crits = setup.manifold, setup.function, setup.cfg, setup.crits
    x0 = m.sample_points(1, seed=31)[0]
    v0 = m.random_tangent(x0, np.random.default_rng(4))

    def run():
        if vectors:
            return integrate_variational(m, f, x0, v0, cfg, crits=crits).stats
        return integrate_flow(m, f, x0, cfg, crits=crits).stats
    inline = run()
    retracted = []
    original = m._map.gauss_newton()

    def recording(tol, bound, *y):
        retracted.append(list(y))
        return original(tol, bound, *y)
    _retraction_through(monkeypatch, m, recording)
    stats = run()
    assert stats == inline
    assert len(retracted) == stats.steps > 10
    drift = max(max(abs(v) for v in m._map.value(y)) for y in retracted)
    assert stats.max_constraint_drift == drift > 0.0


_FD_STEP = 1e-6


def _field_derivative(field, xs, vec):
    """The derivative of P grad f along vec by central finite differences
    of the field, step 1e-6 * max(1, |x|)."""
    norm = float_norm(vec)
    if norm == 0.0:
        return [0.0] * len(vec)
    h = _FD_STEP * max(1.0, float_norm(xs))
    unit = [v / norm for v in vec]
    plus = field.projected_gradient([x + h * u for x, u in zip(xs, unit)])
    minus = field.projected_gradient([x - h * u for x, u in zip(xs, unit)])
    scale = norm / (2.0 * h)
    return [scale * (p - q) for p, q in zip(plus, minus)]


@pytest.mark.parametrize("name", SCENARIOS)
def test_field_derivative_matches_finite_differences(name):
    # dw[V] and dw[2V] from one kernel call: within 1e-8 of the finite
    # differences, exactly linear under scaling by 2, and V . dw[V] is
    # the corrected Hessian's V^T H_lam V for tangent V
    m, f = _scenario(name)
    field = GradientField(m, f)
    n = field.n
    rng = np.random.default_rng(11)
    for x in m.sample_points(20, seed=12):
        v = m.random_tangent(x, rng)
        out = field.projected_gradient(
            x.tolist() + v.tolist() + (2.0 * v).tolist())
        dw, dw2 = np.array(out[n:2 * n]), np.array(out[2 * n:])
        fd = _field_derivative(field, x.tolist(), v.tolist())
        assert np.linalg.norm(dw - fd) <= 1e-8 * max(1.0, np.linalg.norm(dw))
        assert dw2.tobytes() == (2.0 * dw).tobytes()
        q = hessian_quadratic_form(m, f, x, v)
        assert abs(v @ dw - q) <= 1e-12 * max(1.0, abs(q))


def _outcome(run, *args):
    """The result, or the type and text of the error it raised."""
    try:
        return run(*args)
    except MorseflowError as exc:
        return type(exc), str(exc)


def _bits(outcome):
    """A flow outcome with each float series as its raw bytes."""
    if len(outcome) == 2:
        return outcome
    terminal, stats, times, states, gnorms = outcome
    return (terminal, stats, np.array(times).tobytes(),
            np.array(states).tobytes(), np.array(gnorms).tobytes())


def _record_retractions(monkeypatch, m, calls):
    """Append (y, status) of each call of the constraint map's generated
    `_gn` from now on to `calls`."""
    gn = m._map.gauss_newton()

    def recorded(tol, bound, *y):
        point, status = gn(tol, bound, *y)
        calls.append((list(y), status))
        return point, status
    monkeypatch.setattr(m._map, "_gn", recorded)


def _start_norm(monkeypatch, norm):
    """Size every first step from now on as `_first_step` sizes it for a
    start of norm `norm`."""
    first_step = flow_module._first_step
    monkeypatch.setattr(flow_module, "_first_step",
                        lambda cfg, _, gnorm: first_step(cfg, norm, gnorm))


def _assert_loop_matches_oracle(monkeypatch, field, sign, state, cfg, crits,
                                capture, fails=0, calls=None, norm=None):
    """The generated loop and `_oracle_flow` from the same start, each
    with the first `fails` retractions failing and, given a `norm`, the
    first step sized for a start of that norm: the same times, states,
    gradient norms, FlowStats and terminal bit for bit, or the same
    error. Returns the outcome. With fails=0 the loop runs unrouted, its
    inline first iterate passing or calling `_gn`, and the (y, status)
    of each such call is appended to `calls`."""
    outcomes = []
    for run in (_oracle_flow, _cash_karp):
        with monkeypatch.context() as patch:
            if norm is not None:
                _start_norm(patch, norm)
            if fails:
                _failing_retraction(patch, field.manifold, fails)
            elif run is _cash_karp:
                _record_retractions(patch, field.manifold,
                                    [] if calls is None else calls)
            outcomes.append(_bits(_outcome(
                run, field, sign, list(state), cfg, crits, capture)))
    want, got = outcomes
    assert got == want
    return got


_CATALOG_FIXTURES = {"sphere2": "sphere", "sphereM": "sphere_m",
                     "torus_upright": "torus", "clifford": "clifford"}


@pytest.mark.parametrize("name", SCENARIOS + ("transcendental",))
def test_generated_step_matches_list_oracle(name, request, monkeypatch):
    # whole flows of plain states and states with 1 and 2 vectors, both
    # signs, with capture and without it (then until t_max = 5), on the
    # scenario's critical points and settings where it is in the catalog
    # (sin, cos and exp inlined in the stages for "transcendental");
    # one flow per state size asks for a first step of max_step, so that
    # steps are rejected, and one has its first two retractions fail;
    # the flows without failures call `_gn` only where the inline first
    # iterate misses tol, which some do, and never where it raises
    m, f = _scenario(name)
    if name in _CATALOG_FIXTURES:
        setup = request.getfixturevalue(_CATALOG_FIXTURES[name])
        cfg, crits = setup.cfg, setup.crits
    else:
        cfg, crits = FlowConfig(), None
    field = GradientField(m, f)
    rng = np.random.default_rng(7)
    counts = FlowStats()
    kinds = set()
    calls = []
    steps = 0
    for i, x in enumerate(m.sample_points(2, seed=5)):
        point = x.tolist()
        for vectors in (0, 1, 2):
            state = point + [c for _ in range(vectors)
                             for c in m.random_tangent(x, rng).tolist()]
            for sign, capture in itertools.product((-1.0, 1.0),
                                                   (True, False)):
                run_cfg = cfg if capture else cfg.replace(t_max=5.0)
                big = i == 0 and sign < 0 and capture
                fails = 2 if i == 1 and sign < 0 and capture else 0
                outcome = _assert_loop_matches_oracle(
                    monkeypatch, field, sign, state, run_cfg, crits, capture,
                    fails=fails, calls=calls, norm=1e6 if big else None)
                if len(outcome) == 5:
                    steps += 0 if fails else outcome[1].steps
                    kinds.add(outcome[0].kind)
                    counts.rejected += outcome[1].rejected
                    counts.retraction_halvings += (
                        outcome[1].retraction_halvings)
    assert counts.rejected > 0
    assert counts.retraction_halvings >= 6
    assert "max_time" in kinds
    assert 0 < len(calls) < steps
    for y, _ in calls:
        m._map.value(y)


def test_first_iterate_outside_the_domain_matches_list_oracle(monkeypatch):
    # On the plane x3 = -1e-300 sqrt(x1 - 0.61) the field of f = x1^2 / 2
    # is x1' = -x1 in floats. From x1 = 1 a step of h = 0.5 (a start
    # norm of 49) puts every stage at x1 >= 0.6148 and y5 at x1 = 0.6065,
    # outside the domain of the sqrt: the inline first iterate raises,
    # `_gn` fails there too, and the flow raises the constraint's
    # EvaluationError, as the list oracle does
    m = ImplicitManifold(3, [parse("x3 + 1e-300 * sqrt(x1 - 0.61)", 3)])
    field = GradientField(m, parse("0.5 * x1^2", 3))
    calls = []
    outcome = _assert_loop_matches_oracle(
        monkeypatch, field, -1.0, [1.0, 0.0, 0.0],
        FlowConfig(rel_tol=1.0, abs_tol=1.0), None, False, calls=calls,
        norm=49.0)
    assert outcome[0] is EvaluationError
    assert "sqrt" in outcome[1]
    # one call of `_gn`, whose first iterate raised
    [(y, status)] = calls
    assert status == "failed"
    with pytest.raises(EvaluationError, match="sqrt"):
        m._map.value(y)


def _flow_state(setup, vectors):
    """A sampled point of the setup's manifold and `vectors` tangent
    vectors there, as one flat state."""
    m = setup.manifold
    x = m.sample_points(1, seed=9)[0]
    rng = np.random.default_rng(9)
    return x.tolist() + [c for _ in range(vectors)
                         for c in m.random_tangent(x, rng).tolist()]


def test_flow_loop_is_built_once_per_state_size(sphere, monkeypatch):
    # two flows of each state size compile one loop per size, kept on
    # the field kernel; no stage of it calls a kernel function
    field = GradientField(sphere.manifold, sphere.function)
    kernel = field._kernel
    monkeypatch.setattr(kernel, "_loops", {})
    compiled = []

    def counting(source, name, mode):
        compiled.append(name)
        return compile(source, name, mode)
    monkeypatch.setattr(flow_module, "compile", counting, raising=False)
    for vectors in (0, 1, 0, 1):
        state = _flow_state(sphere, vectors)
        _cash_karp(field, -1.0, state, sphere.cfg, sphere.crits)
    assert compiled == ["<flow-loop:3:3>", "<flow-loop:3:6>"]
    assert sorted(kernel._loops) == [3, 6]
    for size, make in kernel._loops.items():
        assert _loop_factory(kernel, size) is make
        code = make(**dict.fromkeys(_FLOW_NAMES)).__code__
        assert "vg" not in code.co_names + code.co_freevars
        assert set(code.co_freevars) <= set(_FLOW_NAMES)


def test_flow_loop_goes_with_its_kernel(sphere):
    # the loop is kept on the kernel only: a kernel dropped from
    # `compile_expression`'s cache takes its loops with it
    m, f = sphere.manifold, sphere.function
    field = GradientField(m, f)
    field._kernel = CompiledExpression(f, 3, m.constraints)
    state = _flow_state(sphere, 0)
    _cash_karp(field, -1.0, state, sphere.cfg, sphere.crits)
    loop = weakref.ref(field._kernel._loops[3])
    del field
    gc.collect()
    assert loop() is None


@pytest.mark.parametrize("vectors", [0, 1])
def test_flow_leaves_no_reference_cycles(sphere, vectors):
    # nothing of a finished flow (its samples, the bound names of its
    # `_flow`) is kept alive by a cycle that only the collector frees
    field = GradientField(sphere.manifold, sphere.function)
    state = _flow_state(sphere, vectors)
    run = (field, -1.0, state, sphere.cfg, sphere.crits)
    _cash_karp(*run)  # compiles the loop
    gc.collect()
    gc.disable()
    try:
        _cash_karp(*run)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _cone_field():
    # the cone's constraint gradient vanishes at its apex. At (0.5, 0,
    # 0.5) the field of f = x3 is x / (2 x3) = x, and with a first step of
    # max_step = 5 (sized for a start norm of 1e3 by `_start_norm`, which
    # asks for more) the second stage x + 5 * (0.2 * -x) lands on the apex
    # exactly
    cone = ImplicitManifold(3, [parse("x1^2 + x2^2 - x3^2", 3)])
    return GradientField(cone, parse("x3", 3)), [0.5, 0.0, 0.5]


def test_stage_leaving_the_domain_raises_the_checked_error():
    # f is defined for x3 >= -0.5 only; the start is inside, and the
    # stages of the first step, about 0.02 long, cross the boundary
    m = ImplicitManifold(3, [parse("x1^2 + x2^2 + x3^2 - 1", 3)])
    f = parse("x3 + sqrt(x3 + 0.5)", 3)
    field = GradientField(m, f)
    x0 = [math.sqrt(1.0 - 0.495 ** 2), 0.0, -0.495]
    rhs = _checked_rhs(field, -1.0)
    k1 = rhs(x0)
    cfg = FlowConfig()
    h = _first_step(cfg, float_norm(x0), float_norm(k1))
    with pytest.raises(EvaluationError) as want:
        _oracle_step(rhs, h, x0, k1, cfg)
    with pytest.raises(EvaluationError) as got:
        integrate_flow(m, f, x0, cfg)
    assert str(got.value) == str(want.value)
    assert got.value.subexpression == want.value.subexpression == (
        "x3 + sqrt(x3 + 0.5)")


def test_stage_on_a_rank_deficient_jacobian_raises(monkeypatch):
    field, x0 = _cone_field()
    rhs = _checked_rhs(field, -1.0)
    cfg = FlowConfig()
    assert rhs(x0) == [-0.5, -0.0, -0.5]
    with pytest.raises(RankDeficiencyError) as want:
        _oracle_step(rhs, 5.0, x0, rhs(x0), cfg)
    _start_norm(monkeypatch, 1e3)
    with pytest.raises(RankDeficiencyError) as got:
        _cash_karp(field, -1.0, x0, cfg)
    assert str(got.value) == str(want.value)
    assert "[0.0, 0.0, 0.0]" in str(got.value)


def test_variational_stage_leaving_the_domain_raises_the_checked_error():
    # the sphere and start of the plain case, with a tangent vector
    m = ImplicitManifold(3, [parse("x1^2 + x2^2 + x3^2 - 1", 3)])
    f = parse("x3 + sqrt(x3 + 0.5)", 3)
    field = GradientField(m, f)
    x0 = [math.sqrt(1.0 - 0.495 ** 2), 0.0, -0.495]
    state = x0 + [0.0, 1.0, 0.0]
    rhs = _checked_rhs(field, -1.0)
    k1 = rhs(state)
    cfg = FlowConfig()
    h = _first_step(cfg, float_norm(x0), float_norm(k1[:3]))
    with pytest.raises(EvaluationError) as want:
        _oracle_step(rhs, h, state, k1, cfg)
    with pytest.raises(EvaluationError) as got:
        integrate_variational(m, f, x0, [0.0, 1.0, 0.0], cfg)
    assert str(got.value) == str(want.value)
    assert got.value.subexpression == want.value.subexpression == (
        "x3 + sqrt(x3 + 0.5)")


def test_variational_stage_on_a_rank_deficient_jacobian_raises(monkeypatch):
    # the plain case's cone apex, reached by the second stage with a
    # tangent vector in the state
    field, x0 = _cone_field()
    state = x0 + [0.0, 1.0, 0.0]
    rhs = _checked_rhs(field, -1.0)
    cfg = FlowConfig()
    with pytest.raises(RankDeficiencyError) as want:
        _oracle_step(rhs, 5.0, state, rhs(state), cfg)
    _start_norm(monkeypatch, 1e3)
    with pytest.raises(RankDeficiencyError) as got:
        _cash_karp(field, -1.0, state, cfg)
    assert str(got.value) == str(want.value)
    assert "[0.0, 0.0, 0.0]" in str(got.value)


def test_projection_failure_raises_the_checked_error(monkeypatch):
    # a vector is re-projected at the retracted point by the unchecked
    # `_rows`; where that divides by zero, the step is run again through
    # the checked `project_rows`, whose RankDeficiencyError is raised
    field, x0 = _cone_field()
    m = field.manifold
    state = [0.6, 0.8, 1.0, 0.0, 1.0, 0.8]
    apex = [0.0, 0.0, 0.0]

    def to_apex(tol, bound, *y):
        return apex, "converged"
    with pytest.raises(RankDeficiencyError) as want:
        m._map.project_rows(apex, [0.0, 1.0, 0.0])
    _retraction_through(monkeypatch, m, to_apex)
    with pytest.raises(RankDeficiencyError) as got:
        _cash_karp(field, -1.0, state, FlowConfig())
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("f, x2, stage", [
    ("1e300*x2^4", 5e-100, math.inf),
    ("1e300*x2^4 - 5e299*x2^4", 6.3e-100, math.nan),
], ids=["inf", "nan"])
def test_non_finite_stage_gives_the_oracle_outcome(f, x2, stage,
                                                    monkeypatch):
    # On the plane x3 = 0 from |x| = 1e6 the first step is max_step = 5,
    # so the second stage lands at x2 = -500, where the product
    # 4e300 * x2^3 overflows without an exception: k2 is inf, or nan for
    # the difference of two infinite terms. The later stages, y5 and the
    # error estimate are nan. A nan estimate is rejected (it is not at
    # most 1) and shrinks the step by MIN_SCALE (nan is not above it), so
    # every step from the start is rejected until the step size
    # underflows, as in the list oracle, which keeps the zero-weight
    # terms. (While only an estimate above 1 was rejected, the flow
    # stalled after one step at a point with x2 = nan.)
    m = ImplicitManifold(3, [parse("x3", 3)])
    field = GradientField(m, parse(f, 3))
    x0 = [1e6, x2, 0.0]
    k1 = [-v for v in field.projected_gradient(x0)]
    assert round(k1[1]) == -500
    second = [x + 5.0 * (0.2 * k) for x, k in zip(x0, k1)]
    k2 = -field.projected_gradient(second)[1]
    assert k2 == stage or math.isnan(stage) and math.isnan(k2)
    underflow = "step size underflow at t=0.0"
    assert _assert_loop_matches_oracle(
        monkeypatch, field, -1.0, x0, FlowConfig(), None, True) == (
            FlowError, underflow)
    with pytest.raises(FlowError, match=underflow):
        integrate_flow(m, field.function, x0)


def test_nan_projected_gradient_raises_instead_of_stalling(sphere):
    # d/dx1 of x1 * 1e308 * 1e308 is inf, so P grad f is nan at the
    # start; a nan norm is not below the capture threshold, and used to
    # end the flow as Stalled after one sample
    f = parse("x3 + x1 * 1e308 * 1e308 - x1 * 1e308 * 1e308", 3)
    with pytest.raises(FlowError,
                       match=r"projected gradient is nan at \[0\.6, 0\.0, 0\.8\]"):
        integrate_flow(sphere.manifold, f, [0.6, 0.0, 0.8])


@pytest.mark.parametrize("norm, kind", [
    (1e-3, None), (0.0, "stalled"), (math.inf, None), (math.nan, "raises"),
])
def test_capture_at_each_norm(norm, kind):
    cfg = FlowConfig()
    point = [0.6, 0.0, 0.8]
    if kind == "raises":
        with pytest.raises(FlowError, match="nan at"):
            _capture(point, norm, [], cfg)
    else:
        terminal = _capture(point, norm, [], cfg)
        assert (terminal and terminal.kind) == kind
