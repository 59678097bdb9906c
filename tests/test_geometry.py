import functools
import math
import re

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
from morseflow.errors import (
    EvaluationError,
    RankDeficiencyError,
    RetractionError,
)
from morseflow.flow import GradientField
from morseflow.geometry import SAMPLE_BLOCK
from morseflow.symbolics.compile import CompiledExpression
from test_kernels import projector_oracle


def _basis_projector(m, x):
    """B^T B for the tangent basis rows B at x."""
    basis = m.tangent_basis(x)
    return basis.T @ basis


def test_projector_north_pole(sphere):
    x = [0.0, 0.0, 1.0]
    proj = _basis_projector(sphere.manifold, x)
    assert np.allclose(proj, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert np.allclose(proj, projector_oracle(sphere.manifold, x), atol=1e-12)


def test_projector_equator(sphere):
    x = [1.0, 0.0, 0.0]
    proj = _basis_projector(sphere.manifold, x)
    assert np.allclose(proj, np.diag([0.0, 1.0, 1.0]), atol=1e-12)
    assert np.allclose(proj, projector_oracle(sphere.manifold, x), atol=1e-12)


def test_projector_clifford_point(clifford):
    m = clifford.manifold
    c = np.sqrt(0.5)
    x = np.array([c, 0.0, c, 0.0])
    proj = _basis_projector(m, x)
    assert np.linalg.matrix_rank(proj, tol=1e-8) == 2
    assert np.allclose(proj, projector_oracle(m, x), atol=1e-12)
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(proj @ e2, e2, atol=1e-12)
    assert np.allclose(m.project_tangent(x, e2), e2, atol=1e-12)


@pytest.mark.parametrize("name", ["sphere", "torus", "clifford"])
def test_projector_idempotent_symmetric(name, request):
    # the projector with columns P e_i from project_tangent, and B^T B
    # from the tangent basis, against numpy's
    setup = request.getfixturevalue(name)
    m = setup.manifold
    eye = np.eye(m.ambient_dim)
    for x in m.sample_points(1000, seed=101):
        proj = np.array([m.project_tangent(x, e) for e in eye]).T
        assert np.max(np.abs(proj - proj.T)) < 1e-10
        assert np.max(np.abs(proj @ proj - proj)) < 1e-10
        oracle = projector_oracle(m, x)
        assert np.max(np.abs(proj - oracle)) < 1e-12
        assert np.max(np.abs(_basis_projector(m, x) - oracle)) < 1e-12


def test_field_projection_three_constraints():
    # S^2 inside R^5 needs three constraints: the generated elimination
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
        proj = projector_oracle(m, x)
        assert np.allclose(m.project_tangent(x.tolist(), v.tolist()), proj @ v,
                           rtol=0.0, atol=1e-12)
        assert np.allclose(field.projected_gradient(x.tolist()),
                           proj @ np.eye(5)[2], rtol=0.0, atol=1e-12)
    with pytest.raises(RankDeficiencyError):
        m.project_tangent([0.0] * 5, [1.0] * 5)


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
    p = m.project_tangent(x.tolist(), v)
    assert np.max(np.abs(m.constraint_jacobian(x) @ p)) <= tol
    assert np.allclose(m.project_tangent(x.tolist(), p), p, rtol=0.0,
                       atol=tol)


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


def test_retraction_guard_norms_sum_left_to_right(sphere, monkeypatch):
    # the guard bound of `_gauss_newton` and the correction in the guard
    # message are norms summed from 0.0 left to right, on squares (1e16,
    # 1, 1) where a compensated sum (math.fsum, and `sum` of floats on
    # Python 3.12 and later) differs
    m = sphere.manifold
    y = [1e8, 1.0, 1.0]
    total = 0.0
    for v in y:
        total += v * v
    bounds = []
    statuses = ["converged", "guard"]

    def gauss_newton(self):
        # on "guard" `_gn` hands back the first step, here y, as the point
        def gn(tol, bound, *x):
            bounds.append(bound)
            return list(x), statuses[len(bounds) - 1]
        return gn

    monkeypatch.setattr(CompiledExpression, "gauss_newton", gauss_newton)
    assert m._gauss_newton(y, 0.1) == y
    assert bounds == [0.1 * (1.0 + math.sqrt(total))]
    assert bounds[0] != 0.1 * (1.0 + math.sqrt(math.fsum(v * v for v in y)))
    with pytest.raises(RetractionError, match=re.escape(
            f"(initial correction {math.sqrt(total):.3e})")):
        m._gauss_newton(y, 0.1)


def test_retract_basin_guard(sphere):
    with pytest.raises(RetractionError):
        sphere.manifold.retract([3.0, 0.0, 0.0])
    # the same point is fine with the guard disabled
    y = sphere.manifold.retract([3.0, 0.0, 0.0], guard=None)
    assert abs(np.linalg.norm(y) - 1.0) < 1e-9


def test_rank_deficiency_detected():
    degenerate = ImplicitManifold(3, [parse("x1^2 + x2^2 + x3^2", 3)])
    with pytest.raises(RankDeficiencyError):
        degenerate.tangent_basis([0.0, 0.0, 0.0])
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
    # a batch flags the apex alone, without the caller setting numpy's
    # error state, and keeps the other column's point bits
    kernel = GradientField(cone, height)._kernel
    rows, failed = kernel.columns(
        "value_and_grad", np.array([[0.6, 0.0], [0.8, 0.0], [1.0, 0.0]]))
    assert failed.tolist() == [False, True] and np.isnan(rows[1]).all()
    value, grad, lam = kernel.value_and_grad([0.6, 0.8, 1.0])
    assert rows[0].tolist() == [value, *grad, *lam]


def _sample_points_per_draw(m, count, seed, keep_tol=0.5):
    """`sample_points` one draw at a time: the reference for its blocks."""
    rng = np.random.default_rng(seed)
    lo = m.bounding_box[:, 0]
    span = m.bounding_box[:, 1] - m.bounding_box[:, 0]
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 20000 * (len(points) + 1) + 10000:
            raise RetractionError(
                f"rejection sampling failed at draw {attempts} with "
                f"{len(points)} points found; check the bounding box"
            )
        cand = lo + span * rng.random(m.ambient_dim)
        try:
            if np.max(np.abs(m.constraint_values(cand))) >= keep_tol:
                continue
            y = m.retract(cand, guard=None)
            m._checked_jacobian(y)
        except (RetractionError, RankDeficiencyError, EvaluationError):
            continue
        points.append(y)
    return np.array(points)


def _assert_sampler_parity(m, count, seed):
    try:
        expected = _sample_points_per_draw(m, count, seed)
    except RetractionError as exc:
        with pytest.raises(RetractionError) as raised:
            m.sample_points(count, seed)
        assert str(raised.value) == str(exc)
        return
    points = m.sample_points(count, seed)
    assert points.shape == expected.shape
    assert np.array_equal(points, expected)


@pytest.mark.parametrize("name",
                         ["sphere2", "sphereM", "torus_upright", "clifford"])
def test_sampling_matches_per_draw(name):
    m = load_scenario(name).build_manifold()
    for count in (1, 2, 60, 600, 2000):
        _assert_sampler_parity(m, count, seed=count)


@pytest.mark.parametrize("n, constraints, rank_tol", [
    # three constraints: the generated elimination of the retraction
    (5, ["x1^2 + x2^2 + x3^2 - 1", "x4", "x5"], 1e-6),
    # sqrt(x1 + 1) raises for x1 < -1, a twelfth of the box: only those
    # draws are lost, the rest of their block is used
    (3, ["x1^2 + x2^2 + x3^2 - 1 + 1e-4*sqrt(x1 + 1)"], 1e-6),
    # a double root: retraction stops with |grad F| near 1e-4, so about
    # two thirds of the retracted draws fail the rank check
    (3, ["(x1^2 + x2^2 + x3^2 - 1)^2"], 1e-4),
    # sin and exp, where numpy's ufuncs need not agree with `math` in the
    # last bit (exp differs on some draws): each draw is retracted by the
    # generated loop, with `math`, as alone
    (3, ["x1^2 + x2^2 + x3^2 - 1 + 0.1*sin(x1)"], 1e-6),
    (3, ["x1^2 + x2^2 + x3^2 - 1 + 0.1*exp(x1)"], 1e-6),
], ids=["three_constraints", "domain_error", "rank_check", "transcendental",
        "exp"])
def test_sampling_matches_per_draw_off_catalog(n, constraints, rank_tol):
    m = ImplicitManifold(n, [parse(c, n) for c in constraints],
                         rank_tol=rank_tol, bounding_box=(-1.2, 1.2))
    for count in (1, 2, 60, 600, 2000):
        _assert_sampler_parity(m, count, seed=count)


def test_rank_check_drops_a_point_whose_jacobian_raises():
    # (1, 0, 0) satisfies F = 0, so its retraction converges without the
    # derivative 0.5 / sqrt(x3), which divides by zero there: only that
    # row fails the rank check, as the draw alone fails `_checked_jacobian`
    m = ImplicitManifold(3, [parse("x1^2 + x2^2 - 1 + sqrt(x3)", 3)])
    on = [1.0, 0.0, 0.0]
    near = [0.6, 0.7, 0.01]
    assert m.retract(on, guard=None).tolist() == on
    with pytest.raises(EvaluationError, match="division by zero"):
        m._checked_jacobian(on)
    points, ok = m._retract_checked(np.array([near, on, [0.6, 0.0, -0.1]]))
    assert ok.tolist() == [True, False, False]
    assert np.array_equal(points[0], m.retract(near, guard=None))


def test_sampling_no_points(sphere):
    points = sphere.manifold.sample_points(0, seed=3)
    assert points.shape == (0, 3)


def test_sampling_negative_count(sphere):
    with pytest.raises(ValueError, match="count"):
        sphere.manifold.sample_points(-1, seed=3)


def test_sampling_box_missing_the_manifold_fails_fast(monkeypatch):
    # no draw is kept, so the limit trips at draw 30001, and the sampler
    # filters no block past the one that holds it
    m = ImplicitManifold(3, [parse("x1^2 + x2^2 + x3^2 - 1", 3)],
                         bounding_box=(2.0, 3.0))
    columns = 0
    evaluate = CompiledExpression.columns

    def counted(self, name, x, *args):
        nonlocal columns
        if self is m._map and name == "value":
            columns += x.shape[1]
        return evaluate(self, name, x, *args)

    monkeypatch.setattr(CompiledExpression, "columns", counted)
    _assert_sampler_parity(m, 2000, seed=0)
    assert 30001 <= columns <= 30000 + SAMPLE_BLOCK
    # the box meets M only near (0.645, 0.645, 0.645), one draw in 13000
    # is kept, and the limit trips after 5 points are found
    corner = ImplicitManifold(3, [parse("x1^2 + x2^2 + x3^2 - 1", 3)],
                              bounding_box=(0.645, 3.0))
    with pytest.raises(RetractionError, match="at draw 130001 with 5 "):
        corner.sample_points(8, seed=0)
    for seed in (0, 3):
        _assert_sampler_parity(corner, 8, seed)


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
