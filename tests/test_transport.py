import numpy as np
import pytest

from morseflow import (
    find_critical_points,
    flatness_test,
    flow_invariance_defect,
    holonomy_curvature,
    integrate_flow,
    lie_derivative_estimate,
    parallel_transport,
    parse,
)
from morseflow.errors import FlowError, NonMorseError
from morseflow.transport import sectional_value


def _orthonormal_pair(m, x, rng):
    u = m.random_tangent(x, rng)
    w = m.random_tangent(x, rng)
    w = w - (w @ u) * u
    return u, w / np.linalg.norm(w)


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


def test_flow_invariance_defect_zero_vector_is_degenerate(sphere):
    # a zero u stays zero along the flow; the pushed plane is refused
    # before anything divides by its length (a RuntimeWarning fails here)
    x = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    with pytest.raises(FlowError, match="degenerated"):
        flow_invariance_defect(sphere.manifold, sphere.function,
                               x, np.zeros(3), v, 0.1)


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
