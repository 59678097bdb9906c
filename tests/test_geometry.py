import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseflow import (
    ImplicitManifold,
    integrate_flow,
    integrate_variational,
    load_scenario,
    parse,
)
from morseflow.errors import RankDeficiencyError, RetractionError
from morseflow.flow import GradientField


def test_projector_north_pole(sphere):
    proj = sphere.manifold.tangent_projector([0.0, 0.0, 1.0])
    assert np.allclose(proj, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_projector_equator(sphere):
    proj = sphere.manifold.tangent_projector([1.0, 0.0, 0.0])
    assert np.allclose(proj, np.diag([0.0, 1.0, 1.0]), atol=1e-12)


def test_projector_clifford_point(clifford):
    c = np.sqrt(0.5)
    x = np.array([c, 0.0, c, 0.0])
    proj = clifford.manifold.tangent_projector(x)
    assert np.linalg.matrix_rank(proj, tol=1e-8) == 2
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(proj @ e2, e2, atol=1e-12)


@pytest.mark.parametrize("name", ["sphere", "torus", "clifford"])
def test_projector_idempotent_symmetric(name, request):
    setup = request.getfixturevalue(name)
    m = setup.manifold
    for x in m.sample_points(1000, seed=101):
        proj = m.tangent_projector(x)
        assert np.max(np.abs(proj - proj.T)) < 1e-10
        assert np.max(np.abs(proj @ proj - proj)) < 1e-10


def test_field_projection_three_constraints():
    # S^2 inside R^5 needs three constraints, the numpy branch of project
    m = ImplicitManifold(5, [
        parse(e, 5) for e in ("x1^2 + x2^2 + x3^2 - 1", "x4", "x5")
    ])
    field = GradientField(m, parse("x3", 5))
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = np.zeros(5)
        x[:3] = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        v = rng.standard_normal(5)
        proj = m.tangent_projector(x)
        assert np.allclose(field.project(x.tolist(), v.tolist()), proj @ v,
                           rtol=0.0, atol=1e-12)
        assert np.allclose(field.projected_gradient(x.tolist()),
                           proj @ np.eye(5)[2], rtol=0.0, atol=1e-12)
    with pytest.raises(RankDeficiencyError):
        field.project([0.0] * 5, [1.0] * 5)


@functools.lru_cache(maxsize=None)
def _catalog_field(name):
    scenario = load_scenario(name)
    return GradientField(scenario.build_manifold(), scenario.build_function())


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["sphere2", "sphereM", "torus_upright", "clifford"]),
    seed=st.integers(0, 2 ** 31 - 1),
    coords=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5),
)
def test_field_projection_tangent_and_idempotent(name, seed, coords):
    # one and two constraints: the hand-solved branches of project
    field = _catalog_field(name)
    m = field.manifold
    x = m.sample_points(1, seed=seed)[0]
    v = coords[:m.ambient_dim]
    tol = 1e-12 * max(1.0, np.linalg.norm(v))
    p = field.project(x.tolist(), v)
    assert np.max(np.abs(m.constraint_jacobian(x) @ p)) <= tol
    assert np.allclose(field.project(x.tolist(), p), p, rtol=0.0, atol=tol)


def test_riemannian_gradient_poles(sphere):
    m, f = sphere.manifold, sphere.function
    assert m.riemannian_gradient(f, [0.0, 0.0, 1.0]).norm() < 1e-12
    assert m.riemannian_gradient(f, [0.0, 0.0, -1.0]).norm() < 1e-12


def test_riemannian_gradient_equator(sphere):
    g = sphere.manifold.riemannian_gradient(sphere.function, [1.0, 0.0, 0.0])
    assert np.allclose(g.vec, [0.0, 0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("name", ["sphere", "torus", "clifford"])
def test_gradient_tangency(name, request):
    setup = request.getfixturevalue(name)
    m = setup.manifold
    for x in m.sample_points(100, seed=5):
        g = m.riemannian_gradient(setup.function, x)
        assert np.max(np.abs(m.constraint_jacobian(x) @ g.vec)) < 1e-8


def test_retract_radial(sphere):
    y = sphere.manifold.retract([0.0, 0.0, 1.01])
    assert np.allclose(y, [0.0, 0.0, 1.0], atol=1e-9)


def test_retract_is_normalization_on_sphere(sphere):
    x = np.array([0.6, 0.0, 0.9])
    y = sphere.manifold.retract(x)
    assert np.allclose(y, x / np.linalg.norm(x), atol=1e-9)


def test_retract_fixed_point_and_idempotent(sphere):
    m = sphere.manifold
    x = m.sample_points(1, seed=9)[0]
    assert np.max(np.abs(m.retract(x) - x)) < 1e-12
    once = m.retract(np.array([0.55, 0.0, 0.9]))
    assert np.max(np.abs(m.retract(once) - once)) < 1e-12


def test_retract_basin_guard(sphere):
    with pytest.raises(RetractionError):
        sphere.manifold.retract([3.0, 0.0, 0.0])
    # the same point is fine with the guard disabled
    y = sphere.manifold.retract([3.0, 0.0, 0.0], guard=None)
    assert abs(np.linalg.norm(y) - 1.0) < 1e-9


def test_rank_deficiency_detected():
    degenerate = ImplicitManifold(3, [parse("x1^2 + x2^2 + x3^2", 3)])
    with pytest.raises(RankDeficiencyError):
        degenerate.tangent_projector([0.0, 0.0, 0.0])
    with pytest.raises(RankDeficiencyError):
        degenerate.project_tangent([0.0, 0.0, 0.0], np.array([1.0, 0.0, 0.0]))
    # the apex of a cone lies on it, and the field there has no projection
    cone = ImplicitManifold(3, [parse("x1^2 + x2^2 - x3^2", 3)])
    height = parse("x3", 3)
    with pytest.raises(RankDeficiencyError):
        integrate_flow(cone, height, [0.0, 0.0, 0.0])
    with pytest.raises(RankDeficiencyError):
        integrate_variational(cone, height, [0.0, 0.0, 0.0],
                              np.array([1.0, 0.0, 0.0]))


def test_tangent_basis_north_pole(sphere):
    basis = sphere.manifold.tangent_basis([0.0, 0.0, 1.0])
    assert np.allclose(basis, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], atol=1e-12)


def test_tangent_basis_equator(sphere):
    x = np.array([1.0, 0.0, 0.0])
    basis = sphere.manifold.tangent_basis(x)
    assert np.allclose(basis @ basis.T, np.eye(2), atol=1e-10)
    assert np.max(np.abs(basis @ x)) < 1e-10


def test_tangent_basis_deterministic(torus):
    x = torus.manifold.sample_points(1, seed=33)[0]
    a = torus.manifold.tangent_basis(x)
    b = torus.manifold.tangent_basis(x)
    assert np.array_equal(a, b)


def test_tangent_basis_clifford_matches_parametrization(clifford):
    # tangent space is spanned by the two circle directions
    m = clifford.manifold
    for x in m.sample_points(20, seed=2):
        t1 = np.array([-x[1], x[0], 0.0, 0.0])
        t2 = np.array([0.0, 0.0, -x[3], x[2]])
        t1 /= np.linalg.norm(t1)
        t2 /= np.linalg.norm(t2)
        basis = m.tangent_basis(x)
        assert np.allclose(basis @ basis.T, np.eye(2), atol=1e-10)
        for row in basis:
            residual = row - (row @ t1) * t1 - (row @ t2) * t2
            assert np.linalg.norm(residual) < 1e-8


@pytest.mark.parametrize("name", ["sphere", "torus", "clifford"])
def test_sampling_stays_on_manifold(name, request):
    setup = request.getfixturevalue(name)
    m = setup.manifold
    pts = m.sample_points(50, seed=123)
    lo, hi = m.bounding_box[:, 0], m.bounding_box[:, 1]
    for x in pts:
        assert m.max_violation(x) <= m.constraint_tol
        assert np.all(x >= lo - 0.1) and np.all(x <= hi + 0.1)
    again = m.sample_points(50, seed=123)
    assert np.array_equal(pts, again)


def test_random_tangent_is_unit_tangent(sphere):
    m = sphere.manifold
    rng = np.random.default_rng(4)
    x = m.sample_points(1, seed=8)[0]
    v = m.random_tangent(x, rng)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert np.max(np.abs(m.constraint_jacobian(x) @ v)) < 1e-10


def test_manifold_validation():
    with pytest.raises(ValueError):
        ImplicitManifold(3, [])
    with pytest.raises(ValueError):
        ImplicitManifold(1, [parse("x1", 1)])
    with pytest.raises(ValueError):
        ImplicitManifold(2, [parse("x1", 2)], bounding_box=[(1.0, -1.0)] * 2)
