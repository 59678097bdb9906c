import functools
import math
from types import SimpleNamespace as NS

import numpy as np
import pytest

from morseflow import (
    ImplicitManifold,
    find_critical_points,
    flatness_test,
    flow_invariance_defect,
    holonomy_curvature,
    integrate_flow,
    lie_derivative_estimate,
    parallel_transport,
    parse,
)
from morseflow.errors import (
    EvaluationError, FlowError, NonMorseError, RankDeficiencyError,
    RetractionError,
)
from morseflow.geometry import RETRACT_MAX_ITER
from morseflow.linalg import DEFINITE_FLOOR
from morseflow import transport
from morseflow.transport import (
    FLATNESS_FLOOR, LOOP_H, MAX_SUBSTEP, _transport_polyline, sectional_value,
    tangent_plane,
)
from test_flow import _hook_loop_retraction
from test_linalg import _jacobi_eigh_oracle


def _orthonormal_pair(m, x, rng):
    u = m.random_tangent(x, rng)
    w = m.random_tangent(x, rng)
    w = w - (w @ u) * u
    return u, w / np.linalg.norm(w)


def _sym_inverse_sqrt(gram):
    """G^{-1/2} from the numpy Jacobi sweep of test_linalg, which does not
    share the generated sweep of the polar step under test, all
    eigenvalues > DEFINITE_FLOOR."""
    w, v = _jacobi_eigh_oracle(gram)
    if w[0] <= DEFINITE_FLOOR:
        raise ValueError("matrix is not positive definite")
    return (v * (1.0 / np.sqrt(w))) @ v.T


def _transport_matrix_step(m, frame, a, b):
    """The numpy substep that the float one replaced, kept as its oracle:
    frame rows moved from T_a M to T_b M through the chord midpoint, then
    the polar factor. Returns (frame, bias)."""
    mid = m.retract(0.5 * (a + b), guard=None)
    moved = np.array([m.project_tangent(mid, w) for w in frame])
    moved = np.array([m.project_tangent(b, w) for w in moved])
    gram = moved @ moved.T
    bias = float(np.max(np.abs(gram - np.eye(len(frame)))))
    return _sym_inverse_sqrt(gram) @ moved, bias


@functools.lru_cache(maxsize=None)
def _great_sphere_in_r5():
    """A great S^2 of the unit S^4: three constraints, two of them planes
    through 0 with overlapping normals, so the Gram solve eliminates."""
    return ImplicitManifold(5, [parse(e, 5) for e in (
        "x1^2 + x2^2 + x3^2 + x4^2 + x5^2 - 1",
        "x4 - 0.3 * x1 + 0.2 * x2",
        "x5 + 0.4 * x3 - 0.1 * x1",
    )], bounding_box=(-1.2, 1.2))


def _manifold(name, request):
    if name == "great_sphere_in_r5":
        return _great_sphere_in_r5()
    return request.getfixturevalue(name).manifold


@pytest.mark.parametrize("name", ["sphere", "clifford", "sphere_m",
                                  "great_sphere_in_r5"])
def test_substep_matches_numpy_oracle(name, request):
    # one constraint (a division), two (clifford's circles, one division
    # each), dim 4 (six rotations a sweep) and three (elimination);
    # frames of 1 and of dim rows
    m = _manifold(name, request)
    rng = np.random.default_rng(7)
    for x in m.sample_points(4, seed=8):
        basis = m.tangent_basis(x)
        for d in (1, m.dim):
            turn = np.linalg.qr(rng.standard_normal((m.dim, m.dim)))[0]
            frame = (turn @ basis)[:d]
            step = rng.uniform(0.005, 0.1)
            b = m.retract(x + step * m.random_tangent(x, rng), guard=None)
            want, want_bias = _transport_matrix_step(m, frame, x, b)
            # a chord shorter than max_substep is one substep
            frames, bias = _transport_polyline(m, [x.tolist(), b.tolist()],
                                               frame.ravel().tolist(), 1.0)
            got = np.array(frames[-1]).reshape(frame.shape)
            assert np.max(np.abs(got - want)) < 1e-13
            assert abs(bias - want_bias) < 1e-13
            assert bias > 0.0


@pytest.mark.parametrize("name", ["sphere_m", "great_sphere_in_r5"])
def test_holonomy_on_unit_spheres(name, request):
    m = _manifold(name, request)
    rng = np.random.default_rng(6)
    x = m.sample_points(1, seed=16)[0]
    u, v = _orthonormal_pair(m, x, rng)
    sample = holonomy_curvature(m, x, u, v)
    assert sample.frame.shape == (m.dim, m.ambient_dim)
    assert sectional_value(sample) == pytest.approx(1.0, abs=0.05)


def test_rows_at_sphere_origin_raise(sphere):
    # the Gram matrix of the constraint is 0 at the origin: named, not a
    # raw ZeroDivisionError
    with pytest.raises(RankDeficiencyError, match=r"at \[0.0, 0.0, 0.0\]"):
        sphere.manifold._map.project_rows([0.0, 0.0, 0.0],
                                          [0.0, 1.0, 0.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("constraint, a, b, error", [
    # the chord midpoint of antipodal points is the origin, where the
    # Gram matrix is 0
    ("x1^2 + x2^2 + x3^2 - 1", [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
     RetractionError),
    # the midpoint (0, 0, sqrt 3) is outside the domain of the sqrt
    ("x3 - sqrt(x1^2 + x2^2 - 1)", [2.0, 0.0, math.sqrt(3.0)],
     [-2.0, 0.0, math.sqrt(3.0)], EvaluationError),
    # the end point is the cone's apex, where the rows divide by zero
    ("x1^2 + x2^2 - x3^2", [0.5, 0.0, 0.5], [0.0, 0.0, 0.0],
     RankDeficiencyError),
], ids=["retraction", "domain", "projection"])
def test_substep_failures_raise_the_checked_errors(constraint, a, b, error):
    # a substep calls the map's unchecked retraction and row projection;
    # where one fails, the error is the one the checked call raises on
    # the same floats
    m = ImplicitManifold(3, [parse(constraint, 3)])
    mid = [0.5 * (p + q) for p, q in zip(a, b)]
    with pytest.raises(error) as want:
        if error is RankDeficiencyError:
            m._map.project_rows(b, m._map.project_rows(mid, [0.0, 1.0, 0.0]))
        else:
            m._gauss_newton(mid, None)
    with pytest.raises(error) as got:
        _transport_polyline(m, [a, b], [0.0, 1.0, 0.0], 10.0)
    assert str(got.value) == str(want.value)


def test_one_patched_gn_reaches_every_checked_retraction(sphere,
                                                        monkeypatch):
    # `retract`, a flow's fallback where its inline first iterate misses
    # tol (every step, with the loop's tol nan), the `parallel_transport`
    # substeps and the `holonomy_curvature` corners all retract through
    # `ImplicitManifold._gauss_newton`: one patched `_gn` reaches each,
    # and its "iterations" halves the flow's step and raises the same
    # RetractionError from the other three
    m, f, cfg, crits = (sphere.manifold, sphere.function, sphere.cfg,
                        sphere.crits)
    x0 = [1.0, 0.0, 0.0]
    plain = integrate_flow(m, f, x0, cfg, crits=crits)
    original = m._map.gauss_newton()
    calls, fail = [], []

    def gn(tol, bound, *y):
        point, status = original(tol, bound, *y)
        calls.append(list(y))
        if fail:
            fail.pop()
            status = "iterations"
        return point, status
    monkeypatch.setattr(m._map, "_gn", gn)
    _hook_loop_retraction(monkeypatch)

    def failing_once(run, *args):
        """The number of `_gn` calls of `run(*args)` with its first
        call failing, and its result or error text."""
        before = len(calls)
        fail.append(True)
        try:
            out = run(*args)
        except RetractionError as exc:
            out = str(exc)
        assert not fail
        return len(calls) - before, out

    want = f"no convergence within {RETRACT_MAX_ITER} retraction iterations"
    assert failing_once(m.retract, [0.6, 0.0, 0.9]) == (1, want)
    count, halved = failing_once(integrate_flow, m, f, x0, cfg, "forward",
                                 crits)
    # one failed call, then one per accepted step
    assert count == 1 + halved.stats.steps > 1
    assert plain.stats.retraction_halvings == 0
    assert halved.stats.retraction_halvings == 1
    assert halved.times[1] == 0.5 * plain.times[1]
    assert halved.terminal == plain.terminal
    frame = m.tangent_basis(plain.points[0])
    assert failing_once(parallel_transport, m, plain, frame) == (1, want)
    x = np.array([0.0, 0.6, 0.8])
    u, v = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.8, -0.6])
    assert failing_once(holonomy_curvature, m, x, u, v) == (1, want)
    # the failed call was the first corner, x + h u
    assert calls[-1] == (x + LOOP_H * u).tolist()


def test_collapsed_frame_raises(sphere):
    x = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    v = np.array([0.0, 0.0, 1.0])
    with pytest.raises(RankDeficiencyError, match="collapsed"):
        holonomy_curvature(sphere.manifold, x, u, v, frame=np.array([u, u]))


def test_zero_duration_transport(sphere):
    traj = integrate_flow(sphere.manifold, sphere.function,
                          sphere.crits[0].location, sphere.cfg,
                          crits=sphere.crits)
    assert len(traj) == 1
    frame = sphere.manifold.tangent_basis(traj.points[0])
    moved = parallel_transport(sphere.manifold, traj, frame)
    assert len(moved.frames) == 1
    assert np.array_equal(moved.frames[0], frame)


def test_meridian_transport_stays_meridional(sphere):
    # the flow line from the equator runs down a meridian (a geodesic);
    # a vector tangent to the meridian must stay tangent to it
    traj = integrate_flow(sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
                          sphere.cfg.replace(t_max=1.0), crits=sphere.crits)
    frame = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    moved = parallel_transport(sphere.manifold, traj, frame)
    end = traj.points[-1]
    meridian = sphere.manifold.project_tangent(end, np.array([0.0, 0.0, 1.0]))
    meridian /= np.linalg.norm(meridian)
    assert abs(moved.frames[-1][0] @ meridian) == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("name", ["sphere", "torus", "clifford"])
def test_transport_gram_constancy(name, request):
    setup = request.getfixturevalue(name)
    m = setup.manifold
    x0 = m.sample_points(1, seed=55)[0]
    traj = integrate_flow(m, setup.function, x0, setup.cfg, crits=setup.crits)
    frame = m.tangent_basis(traj.points[0])
    moved = parallel_transport(m, traj, frame)
    assert moved.gram_drift_max < 1e-6
    for x, fr in zip(traj.points[::7], moved.frames[::7]):
        assert np.max(np.abs(fr @ fr.T - np.eye(len(fr)))) < 1e-7
        assert np.max(np.abs(m.constraint_jacobian(x) @ fr.T)) < 1e-7


def test_transport_rejects_bad_frame(sphere):
    traj = integrate_flow(sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
                          sphere.cfg.replace(t_max=0.5), crits=sphere.crits)
    with pytest.raises(ValueError):
        parallel_transport(sphere.manifold, traj,
                           np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        parallel_transport(sphere.manifold, traj,
                           np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    # a nan entry fails both checks, the first one first
    with pytest.raises(ValueError, match="orthonormal"):
        parallel_transport(sphere.manifold, traj,
                           np.array([[0.0, np.nan, 0.0], [0.0, 0.0, 1.0]]))


def test_sphere_sectional_curvature(sphere):
    rng = np.random.default_rng(1)
    m = sphere.manifold
    for x in m.sample_points(8, seed=10):
        u, v = _orthonormal_pair(m, x, rng)
        sample = holonomy_curvature(m, x, u, v)
        assert sectional_value(sample) == pytest.approx(1.0, abs=0.05)


def test_curvature_antisymmetry_and_skewness(sphere):
    rng = np.random.default_rng(2)
    m = sphere.manifold
    x = m.sample_points(1, seed=12)[0]
    u, v = _orthonormal_pair(m, x, rng)
    uv = holonomy_curvature(m, x, u, v)
    vu = holonomy_curvature(m, x, v, u)
    # estimator tolerance ~ a few 1e-3 at h = 0.05; allow twice that
    assert np.max(np.abs(uv.operator + vu.operator)) < 5e-3
    assert np.max(np.abs(uv.operator + uv.operator.T)) < 5e-3
    uu = holonomy_curvature(m, x, u, u)
    assert uu.norm < 1e-9


def test_clifford_flat(clifford):
    rng = np.random.default_rng(3)
    m = clifford.manifold
    for x in m.sample_points(5, seed=14):
        u, v = _orthonormal_pair(m, x, rng)
        assert holonomy_curvature(m, x, u, v).norm < 1e-3


def test_flow_invariance_defect_zero_time(sphere):
    x = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    v = np.array([0.0, 0.0, 1.0])
    defect = flow_invariance_defect(sphere.manifold, sphere.function,
                                    x, u, v, 0.0, sphere.cfg)
    assert defect < 1e-9


def test_flow_invariance_defect_sphere(sphere):
    # positive curvature shrinking under the flow cannot be invariant
    x = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    v = np.array([0.0, 0.0, 1.0])
    defect = flow_invariance_defect(sphere.manifold, sphere.function,
                                    x, u, v, 0.5, sphere.cfg)
    assert defect > 10.0 * 1e-3


def test_flow_invariance_defect_refuses_negative_time(sphere):
    x = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    v = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="t must be non-negative"):
        flow_invariance_defect(sphere.manifold, sphere.function,
                               x, u, v, -0.1, sphere.cfg)


def test_flow_invariance_defect_zero_vector_is_degenerate(sphere):
    # a zero u stays zero along the flow; the pushed plane is refused
    # before anything divides by its length (a RuntimeWarning fails here)
    x = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    with pytest.raises(FlowError, match="degenerated"):
        flow_invariance_defect(sphere.manifold, sphere.function,
                               x, np.zeros(3), v, 0.1)


def test_flow_invariance_defect_of_a_nan_field_raises_at_once(sphere):
    # d/dx1 of x1 * 1e308 * 1e308 is inf, so P grad f is nan at x. The
    # push runs without capture, with a capture threshold of -inf, which
    # a nan norm is not at least: it raises at its start, where it used
    # to reject every step until "step size underflow at t=0.0"
    f = parse("x3 + x1 * 1e308 * 1e308 - x1 * 1e308 * 1e308", 3)
    x = np.array([0.6, 0.0, 0.8])
    u = np.array([0.0, 1.0, 0.0])
    v = np.array([0.8, 0.0, -0.6])
    with pytest.raises(FlowError, match=r"projected gradient is nan at "
                                        r"\[0\.6, 0\.0, 0\.8\]"):
        flow_invariance_defect(sphere.manifold, f, x, u, v, 0.5)


def test_flow_invariance_defect_clifford(clifford):
    rng = np.random.default_rng(4)
    m = clifford.manifold
    x = m.sample_points(1, seed=9)[0]
    u, v = _orthonormal_pair(m, x, rng)
    defect = flow_invariance_defect(m, clifford.function, x, u, v, 0.5,
                                    clifford.cfg)
    assert defect < 1e-3


def test_lie_derivative_clifford_flat(clifford):
    rng = np.random.default_rng(5)
    m = clifford.manifold
    x = m.sample_points(1, seed=21)[0]
    u, v = _orthonormal_pair(m, x, rng)
    assert lie_derivative_estimate(m, clifford.function, x, u, v,
                                   clifford.cfg) < 1e-2


def test_lie_derivative_sphere_closed_form(sphere):
    # pulled-back curvature is K * area(t) * rot90 with
    # area'(0) = 2 z K, so the norm of the derivative is 2|z|
    m, f = sphere.manifold, sphere.function
    for z in (-0.6, 0.8):
        rho = np.sqrt(1.0 - z * z)
        x = np.array([rho, 0.0, z])
        u = np.array([0.0, 1.0, 0.0])
        v = m.project_tangent(x, np.array([0.0, 0.0, 1.0]))
        v /= np.linalg.norm(v)
        estimate = lie_derivative_estimate(m, f, x, u, v, sphere.cfg)
        assert estimate == pytest.approx(2.0 * abs(z), rel=0.1)
    # at the equator the pullback is even in t, so the centered
    # derivative vanishes
    x = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    v = np.array([0.0, 0.0, 1.0])
    assert lie_derivative_estimate(m, f, x, u, v, sphere.cfg) < 0.05


def test_lie_derivative_at_critical_point(sphere):
    # the flow fixes the point but its differential still contracts by
    # the Hessian (identity here), so the derivative of the pullback is
    # -R(Hu, v) - R(u, Hv): norm 2K, not zero
    m, f = sphere.manifold, sphere.function
    p = sphere.crits[0].location
    u = m.project_tangent(p, np.array([1.0, 0.0, 0.0]))
    u /= np.linalg.norm(u)
    v = m.project_tangent(p, np.array([0.0, 1.0, 0.0]))
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    estimate = lie_derivative_estimate(m, f, p, u, v, sphere.cfg)
    assert estimate == pytest.approx(2.0, rel=0.05)


def test_flatness_reports(sphere, clifford):
    rep_s = flatness_test(sphere.manifold, sphere.function, sphere.crits,
                          sample_count=6, seed=0, cfg=sphere.cfg)
    assert rep_s.consistent
    assert rep_s.curvature_max == pytest.approx(1.0, abs=0.05)
    rep_c = flatness_test(clifford.manifold, clifford.function,
                          clifford.crits, sample_count=6, seed=0,
                          cfg=clifford.cfg)
    assert rep_c.consistent
    assert rep_c.curvature_max < rep_c.floor
    assert rep_c.lie_derivative_max < rep_c.floor


def test_flatness_refuses_degenerate(sphere):
    constant = parse("1", 3)
    crits = find_critical_points(sphere.manifold, constant, 10, seed=0)
    with pytest.raises(NonMorseError):
        flatness_test(sphere.manifold, constant, crits, sample_count=3,
                      seed=0)


def test_flatness_needs_a_sample(sphere):
    with pytest.raises(ValueError, match="sample_count"):
        flatness_test(sphere.manifold, sphere.function, sphere.crits,
                      sample_count=0, seed=0)


def test_flatness_needs_a_surface():
    # the unit circle is one-dimensional: no plane to take curvature of
    circle = ImplicitManifold(2, [parse("x1^2 + x2^2 - 1", 2)])
    f = parse("x1", 2)
    crits = find_critical_points(circle, f, 20, seed=0)
    assert len(crits) == 2 and not any(p.degenerate for p in crits)
    with pytest.raises(ValueError, match="2-dimensional"):
        flatness_test(circle, f, crits, sample_count=2, seed=0)


@pytest.mark.parametrize("name", ["sphere", "clifford"])
def test_polyline_frames_equal_chained_segments(name, request):
    # c08's flows: one pass over the samples gives, at every sample, the
    # bits that a chain of one-segment calls reaches there
    setup = request.getfixturevalue(name)
    m = setup.manifold
    for x0 in m.sample_points(5, seed=77):
        traj = integrate_flow(m, setup.function, x0, setup.cfg,
                              crits=setup.crits)
        points = traj.points.tolist()
        frame = m.tangent_basis(traj.points[0]).ravel().tolist()
        frames, bias = _transport_polyline(m, points, frame, MAX_SUBSTEP)
        chained, biases = [frame], [0.0]
        for a, b in zip(points[:-1], points[1:]):
            last, worst = _transport_polyline(m, [a, b], chained[-1],
                                              MAX_SUBSTEP)
            chained.append(last[-1])
            biases.append(worst)
        assert len(points) > 2
        assert np.array(frames).tobytes() == np.array(chained).tobytes()
        assert bias == max(biases) > 0.0


def test_polyline_without_a_substep(sphere):
    # repeated points move nothing: the frame comes back at each, and the
    # largest bias of no substep is 0.0
    frame = [0.0, 1.0, 0.0]
    frames, bias = _transport_polyline(
        sphere.manifold, [[1.0, 0.0, 0.0]] * 3, frame, MAX_SUBSTEP)
    assert frames == [frame] * 3
    assert bias == 0.0


class _ParallelDraws:
    """A surface whose every tangent draw is the same vector, so no draw
    has a part off the first."""

    dim = 2

    def sample_points(self, count, seed):
        return np.tile([1.0, 0.0, 0.0], (count, 1))

    def random_tangent(self, x, rng):
        rng.standard_normal(3)
        return np.array([0.0, 1.0, 0.0])


def test_tangent_plane_needs_a_draw_off_u():
    with pytest.raises(RankDeficiencyError, match="tangent plane"):
        tangent_plane(_ParallelDraws(), np.array([1.0, 0.0, 0.0]),
                      np.random.default_rng(0))
    # a flatness test whose every plane draw fails raises the same error,
    # not a bare ValueError from the maximum of no samples
    crits = [NS(degenerate=False)]
    with pytest.raises(RankDeficiencyError, match="tangent plane"):
        flatness_test(_ParallelDraws(), None, crits, sample_count=3, seed=0)


def test_tangent_plane_is_an_orthonormal_tangent_pair(clifford):
    m = clifford.manifold
    rng = np.random.default_rng(9)
    for x in m.sample_points(4, seed=3):
        u, v = tangent_plane(m, x, rng)
        pair = np.array([u, v])
        assert np.max(np.abs(pair @ pair.T - np.eye(2))) < 1e-12
        assert np.max(np.abs(m.constraint_jacobian(x) @ pair.T)) < 1e-12


@pytest.mark.parametrize("curvatures, lies, consistent", [
    # a nan curvature that is not the first sample, with a small Lie
    # derivative: the maximum keeps the nan, and the rule cannot hold
    ([0.01, math.nan, 0.02], [1e-3, 1e-3, 1e-3], False),
    # a nan Lie derivative with a large curvature
    ([0.5, 0.5], [1e-3, math.nan], False),
    # the rule at its bounds: the Lie floor reached, or the curvature
    # within ten floors
    ([0.5, 0.7], [FLATNESS_FLOOR, 1e-3], True),
    ([10.0 * FLATNESS_FLOOR], [0.0], True),
    ([float(np.nextafter(10.0 * FLATNESS_FLOOR, 1.0))],
     [float(np.nextafter(FLATNESS_FLOOR, 0.0))], False),
])
def test_flatness_consistency_keeps_a_nan(sphere, monkeypatch, curvatures,
                                          lies, consistent):
    curv, lie = iter(curvatures), iter(lies)
    monkeypatch.setattr(transport, "holonomy_curvature",
                        lambda *args, **kwargs: NS(norm=next(curv)))
    monkeypatch.setattr(transport, "lie_derivative_estimate",
                        lambda *args, **kwargs: next(lie))
    report = flatness_test(sphere.manifold, sphere.function, sphere.crits,
                           sample_count=len(curvatures), seed=0)
    assert report.consistent is consistent
    np.testing.assert_equal(report.curvature_max, np.max(curvatures))
    np.testing.assert_equal(report.lie_derivative_max, np.max(lies))
