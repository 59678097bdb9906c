import itertools
import math
from operator import mul

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
    RankDeficiencyError,
)
from morseflow.flow import (
    _CK_A, _CK_B5, _CK_ERR, GradientField, Terminal, _first_step, _norm,
    _stepper, flow_terminals,
)
from morseflow.linearization import integrate_variational
from morseflow.morse import hessian_quadratic_form
from test_kernels import SCENARIOS, _scenario


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
        ref = integrate_flow(m, f, x0, cfg, crits=crits)
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
    _assert_batch_matches_scalar(m, f, starts, FlowConfig(), crits)


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


# -- the generated Cash-Karp step against the list-based one ---------------


def _oracle_step(rhs, h, state, k1, cfg):
    """One Cash-Karp step on lists: stage sums take component i of every
    stage in stage order, then the B5 sums and the scaled error norm."""
    ks = [k1]
    for row in _CK_A:
        stage = [
            y + h * sum(map(mul, row, col))
            for y, col in zip(state, zip(*ks))
        ]
        ks.append(rhs(stage))
    cols = list(zip(*ks))
    y_new = [
        y + h * sum(map(mul, _CK_B5, col)) for y, col in zip(state, cols)
    ]
    err_scaled = 0.0
    for y, y5, col in zip(state, y_new, cols):
        err = h * sum(map(mul, _CK_ERR, col))
        scale = cfg.abs_tol + cfg.rel_tol * max(abs(y), abs(y5))
        err_scaled += (err / scale) ** 2
    return y_new, math.sqrt(err_scaled / len(state))


def _checked_rhs(field, sign):
    # the derivative of [x, V_1, ..., V_j], from the checked kernel call
    return lambda ys: [sign * v for v in field.projected_gradient(ys)]


_FD_STEP = 1e-6


def _field_derivative(field, xs, vec):
    """The derivative of P grad f along vec by central finite differences
    of the field, step 1e-6 * max(1, |x|)."""
    norm = _norm(vec)
    if norm == 0.0:
        return [0.0] * len(vec)
    h = _FD_STEP * max(1.0, _norm(xs))
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


def _outcome(step, *args):
    """The step's result, or the type and text of the error it raised."""
    try:
        return step(*args)
    except MorseflowError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", SCENARIOS)
def test_generated_step_matches_list_oracle(name):
    # plain states and states with 1 and 2 vectors, at random h and both
    # signs: (y5, err_scaled) equal, or the same error
    m, f = _scenario(name)
    field = GradientField(m, f)
    rng = np.random.default_rng(7)
    cfg = FlowConfig()
    for x in m.sample_points(4, seed=5):
        point = x.tolist()
        for sign, vectors in ((-1.0, 0), (1.0, 0), (-1.0, 1), (1.0, 2)):
            state = point + [c for _ in range(vectors)
                             for c in m.random_tangent(x, rng).tolist()]
            rhs = _checked_rhs(field, sign)
            step = _stepper(field, sign, cfg, len(state))
            k1 = rhs(state)
            for h in 10.0 ** rng.uniform(-4.0, 0.0, 3):
                want = _outcome(_oracle_step, rhs, h, state, k1, cfg)
                assert _outcome(step, h, state, k1) == want


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
    h = _first_step(cfg, _norm(x0), _norm(k1))
    with pytest.raises(EvaluationError) as want:
        _oracle_step(rhs, h, x0, k1, cfg)
    with pytest.raises(EvaluationError) as got:
        integrate_flow(m, f, x0, cfg)
    assert str(got.value) == str(want.value)
    assert got.value.subexpression == want.value.subexpression == (
        "x3 + sqrt(x3 + 0.5)")


def test_stage_on_a_rank_deficient_jacobian_raises():
    # the cone's constraint gradient vanishes at its apex; with powers of
    # two the second stage y + h * 0.2 * k1 lands on it exactly
    cone = ImplicitManifold(3, [parse("x1^2 + x2^2 - x3^2", 3)])
    field = GradientField(cone, parse("x3", 3))
    state = [0.25, 0.5, 1.0]
    k1 = [-0.25, -0.5, -1.0]
    cfg = FlowConfig()
    with pytest.raises(RankDeficiencyError) as want:
        _oracle_step(_checked_rhs(field, -1.0), 5.0, state, k1, cfg)
    with pytest.raises(RankDeficiencyError) as got:
        _stepper(field, -1.0, cfg, 3)(5.0, state, k1)
    assert str(got.value) == str(want.value)


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
    h = _first_step(cfg, _norm(x0), _norm(k1[:3]))
    with pytest.raises(EvaluationError) as want:
        _oracle_step(rhs, h, state, k1, cfg)
    with pytest.raises(EvaluationError) as got:
        integrate_variational(m, f, x0, [0.0, 1.0, 0.0], cfg)
    assert str(got.value) == str(want.value)
    assert got.value.subexpression == want.value.subexpression == (
        "x3 + sqrt(x3 + 0.5)")


def test_variational_stage_on_a_rank_deficient_jacobian_raises():
    # the plain case's cone apex, reached by the second stage with a
    # tangent vector in the state
    cone = ImplicitManifold(3, [parse("x1^2 + x2^2 - x3^2", 3)])
    field = GradientField(cone, parse("x3", 3))
    state = [0.25, 0.5, 1.0, 2.0, -1.0, 0.0]
    k1 = [-0.25, -0.5, -1.0, 0.5, 0.25, 0.0]
    cfg = FlowConfig()
    with pytest.raises(RankDeficiencyError) as want:
        _oracle_step(_checked_rhs(field, -1.0), 5.0, state, k1, cfg)
    with pytest.raises(RankDeficiencyError) as got:
        _stepper(field, -1.0, cfg, 6)(5.0, state, k1)
    assert str(got.value) == str(want.value)
