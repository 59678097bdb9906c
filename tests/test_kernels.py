"""The generated field kernel, projection and retraction against
hand-written oracles.

The oracles evaluate one compiled object per constraint and write the
arithmetic out term by term: Gram sums from 0.0 in coordinate order,
r / jj for one constraint, and elimination without pivoting then
back-substitution for two or more. The generated code does the same for
every number of constraints, so field, projection and retraction must
be bit-equal to them, as must every column of a batch to its point. The
numpy Gauss-Newton retraction and tangent projection (numpy's solve,
`normal_part` below) stay as a second oracle, met to 1e-14 with the same
outcomes.
"""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseflow import ImplicitManifold, load_scenario, parse
from morseflow import flow as flow_module
from morseflow.acceptance import _random_expression
from morseflow.errors import (
    EvaluationError, RankDeficiencyError, RetractionError,
)
from morseflow.flow import GradientField
from morseflow.geometry import RETRACT_MAX_ITER
from morseflow.symbolics import compile as compiled
from morseflow.symbolics import compile_expression, evaluate_jet

CATALOG = ("sphere2", "sphereM", "torus_upright", "clifford")
SCENARIOS = CATALOG + ("sphere_in_r5", "o3", "sqrt_domain")
# Two constraints whose Jacobian rows overlap (clifford's never do).
FIELD_SCENARIOS = SCENARIOS + ("sphere_cut",)


@functools.lru_cache(maxsize=None)
def _scenario(name):
    """(manifold, function) of a catalog or test scenario."""
    if name == "sphere_in_r5":
        m = ImplicitManifold(5, [
            parse(e, 5) for e in ("x1^2 + x2^2 + x3^2 - 1", "x4", "x5")
        ])
        return m, parse("x3 + 0.3 * x1 * x2", 5)
    if name == "o3":
        # O(3) in R^9, X = (x1 x2 x3; x4 x5 x6; x7 x8 x9) with X^T X = I:
        # six constraints, one per entry on and above the diagonal
        m = ImplicitManifold(9, [
            parse(" + ".join(f"x{i + r}*x{j + r}" for r in (0, 3, 6))
                  + (" - 1" if i == j else ""), 9)
            for i in (1, 2, 3) for j in range(i, 4)
        ], bounding_box=(-1.2, 1.2))
        return m, parse("x1 + 2*x5 + 3*x9 + 0.4*x2*x4", 9)
    if name == "sphere_cut":
        m = ImplicitManifold(4, [
            parse(e, 4) for e in ("x1^2 + x2^2 + x3^2 + x4^2 - 1",
                                  "x1 + 2 * x2 - x3 + 0.5 * x4 - 0.3")
        ])
        return m, parse("x3 + 0.2 * x1 * x4", 4)
    if name == "sqrt_domain":
        # sqrt(x1 + 1) raises for x1 < -1, inside the bounding box
        m = ImplicitManifold(
            3, [parse("x1^2 + x2^2 + x3^2 - 1 + 1e-4*sqrt(x1 + 1)", 3)],
            bounding_box=(-1.2, 1.2),
        )
        return m, parse("x3 + 0.2 * x1 * x2", 3)
    if name == "transcendental":
        # sin, cos and exp in f and sin in the constraint
        m = ImplicitManifold(
            3, [parse("x1^2 + x2^2 + x3^2 - 1 + 0.1*sin(x1)", 3)],
            bounding_box=(-1.2, 1.2),
        )
        return m, parse("sin(x3) + 0.3*cos(x1*x2) + 0.1*exp(x2)", 3)
    scenario = load_scenario(name)
    return scenario.build_manifold(), scenario.build_function()


def _compiled(m):
    return [compile_expression(c, m.ambient_dim) for c in m.constraints]


def normal_part(jac, r):
    """J^T (J J^T)^{-1} r by numpy's solve: J (k, n) with r (k,), or a
    stack J (N, k, n) with r (N, k). A singular Gram matrix raises
    np.linalg.LinAlgError."""
    if jac.ndim == 2:
        return jac.T @ np.linalg.solve(jac @ jac.T, r)
    jac_t = jac.transpose(0, 2, 1)
    return (jac_t @ np.linalg.solve(jac @ jac_t, r[..., None]))[..., 0]


def projector_oracle(m, x):
    """I - J^T (J J^T)^{-1} J at x by numpy's solve, symmetrized: the
    projector that `tangent_basis` was built from before the generated
    projection."""
    jac = m.constraint_jacobian(x)
    proj = np.eye(m.ambient_dim) - jac.T @ np.linalg.solve(jac @ jac.T, jac)
    return 0.5 * (proj + proj.T)


def _plain_dot(u, v):
    s = 0.0
    for a, b in zip(u, v):
        s += a * b
    return s


def _eliminate(rows, rhs):
    """(J J^T)^{-1} rhs for two or more rows J: Gram sums on and above
    the diagonal, elimination without pivoting, back-substitution. A
    zero Gram entry gives the factor 0.0, whose products change no finite
    entry, as the generated code leaves them out."""
    k = len(rows)
    a = [[_plain_dot(rows[i], rows[j]) if j >= i else None
          for j in range(k)] for i in range(k)]
    r = list(rhs)
    for c in range(k - 1):
        for i in range(c + 1, k):
            factor = a[c][i] / a[c][c]
            for j in range(i, k):
                a[i][j] = a[i][j] - factor * a[c][j]
            r[i] = r[i] - factor * r[c]
    w = [None] * k
    for i in reversed(range(k)):
        s = r[i]
        for j in range(i + 1, k):
            s = s - a[i][j] * w[j]
        w[i] = s / a[i][i]
    return w


def _project_oracle(m, xs, vec):
    """GradientField.project written out for every k."""
    constraints = _compiled(m)
    try:
        if len(constraints) == 1:
            _, j = constraints[0].value_and_grad(xs)
            jj = 0.0
            jv = 0.0
            for a, b in zip(j, vec):
                jj += a * a
                jv += a * b
            w = jv / jj
            return [b - w * a for a, b in zip(j, vec)]
        rows = [c.value_and_grad(xs)[1] for c in constraints]
        w = _eliminate(rows, [_plain_dot(j, vec) for j in rows])
        out = []
        for b, *col in zip(vec, *rows):
            for wi, a in zip(w, col):
                b = b - wi * a
            out.append(b)
        return out
    except ZeroDivisionError:
        raise RankDeficiencyError("rank deficient") from None


def _projected_gradient_oracle(m, f, xs):
    grad = compile_expression(f, m.ambient_dim).value_and_grad(xs)[1]
    return _project_oracle(m, xs, grad)


def _values_oracle(m, x):
    return np.array([c.value(x) for c in _compiled(m)])


def _values_and_jacobian_oracle(m, x):
    vals, rows = [], []
    for c in _compiled(m):
        v, g = c.value_and_grad(x)
        vals.append(v)
        rows.append(g)
    return np.array(vals), np.array(rows)


def _project_tangent_oracle(m, x, v):
    jac = np.array([c.gradient(x) for c in _compiled(m)])
    try:
        return v - normal_part(jac, jac @ v)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("rank deficient") from exc


def _step_branches(vals, rows):
    """J^T (J J^T)^{-1} F written out: one row, `_eliminate` for more;
    a singular Gram matrix raises."""
    if len(rows) == 1:
        (j,), (r,) = rows, vals
        jj = 0.0
        for a in j:
            jj += a * a
        w = r / jj
        return [w * a for a in j]
    w = _eliminate(rows, vals)
    step = []
    for col in zip(*rows):
        s = w[0] * col[0]
        for wi, a in zip(w[1:], col[1:]):
            s = s + wi * a
        step.append(s)
    return step


def _plain_norm(v):
    return math.sqrt(sum(a * a for a in v))


def _retract_oracle(m, x, guard=0.1, max_iter=RETRACT_MAX_ITER,
                    lapack=False):
    """ImplicitManifold.retract written out: the step of `_step_branches`
    and plain norms, or with lapack=True numpy's solve and norms as
    retract had them before. The values are tested before the Jacobian
    is formed, so a point within tolerance returns where that raises."""
    norm = np.linalg.norm if lapack else _plain_norm
    y = np.asarray(x, dtype=float).copy()
    scale = 1.0 + norm(y)
    for it in range(max_iter):
        if np.max(np.abs(_values_oracle(m, y))) <= m.constraint_tol:
            return y
        vals, jac = _values_and_jacobian_oracle(m, y)
        try:
            if lapack:
                step = normal_part(jac, vals)
            else:
                step = np.array(_step_branches(vals.tolist(), jac.tolist()))
        except (ZeroDivisionError, np.linalg.LinAlgError) as exc:
            raise RetractionError(
                f"constraint Jacobian singular while retracting {y}"
            ) from exc
        if it == 0 and guard is not None:
            if norm(step) > guard * scale:
                raise RetractionError(
                    "point outside the documented retraction basin "
                    f"(initial correction {norm(step):.3e})"
                )
        y -= step
        if not np.all(np.isfinite(y)):
            raise RetractionError("retraction diverged to non-finite values")
    raise RetractionError(
        f"no convergence within {max_iter} retraction iterations"
    )


def _outcome(fn, *args, **kwargs):
    """A call's result, or its error type and message."""
    try:
        return fn(*args, **kwargs)
    except (RetractionError, RankDeficiencyError, EvaluationError) as exc:
        return type(exc), str(exc)


def _is_error(outcome):
    return isinstance(outcome, tuple) and isinstance(outcome[0], type)


def _assert_same(got, want):
    if _is_error(want):
        assert got == want
    else:
        assert np.array_equal(np.asarray(got), np.asarray(want))


def _assert_close(got, want):
    """The same error, or values within 1e-14."""
    if _is_error(want):
        assert got == want
    else:
        assert not _is_error(got)
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)


@functools.lru_cache(maxsize=None)
def _points(name):
    """On-M samples, the same pushed off M by 1e-8, 1e-4 and 2e-3, and
    box draws the sampler would keep (max |F| < 0.5)."""
    m, _ = _scenario(name)
    rng = np.random.default_rng(11)
    on = m.sample_points(40, seed=5)
    near = [on + s * rng.standard_normal(on.shape) for s in (1e-8, 1e-4, 2e-3)]
    lo, hi = m.bounding_box[:, 0], m.bounding_box[:, 1]
    draws = []
    while len(draws) < 40:
        x = lo + (hi - lo) * rng.random(m.ambient_dim)
        try:
            if np.max(np.abs(m.constraint_values(x))) < 0.5:
                draws.append(x)
        except EvaluationError:
            continue
    return on, np.concatenate(near), np.array(draws)


@pytest.mark.parametrize("name", FIELD_SCENARIOS)
def test_field_matches_hand_written_projection(name):
    m, f = _scenario(name)
    field = GradientField(m, f)
    on, near, _ = _points(name)
    points = np.concatenate([on, near])
    rng = np.random.default_rng(3)
    grad = compile_expression(f, m.ambient_dim)
    for x in points.tolist():
        got = field.projected_gradient(x)
        assert np.array_equal(got, _projected_gradient_oracle(m, f, x))
        assert np.allclose(got, _project_tangent_oracle(
            m, np.array(x), grad.gradient(x)), rtol=0.0, atol=1e-14)
        v = rng.standard_normal(m.ambient_dim).tolist()
        assert np.array_equal(m.project_tangent(x, v),
                              _project_oracle(m, x, v))
    # one `columns` call of the kernel gives each column its point's bits
    rows, failed = field._kernel.columns("value_and_grad", points.T.copy())
    assert not failed.any()
    assert rows[:, 1:1 + m.ambient_dim].tolist() == [
        _projected_gradient_oracle(m, f, x) for x in points.tolist()]


def _check_retraction(name):
    """Points against both retraction oracles."""
    m, _ = _scenario(name)
    _, near, draws = _points(name)
    cases = [(x, 0.1) for x in near]
    cases += [(x, None) for x in np.concatenate([near, draws])]
    for x, guard in cases:
        got = _outcome(m.retract, x, guard=guard)
        _assert_same(got, _outcome(_retract_oracle, m, x, guard=guard))
        _assert_close(got, _outcome(_retract_oracle, m, x, guard=guard,
                                    lapack=True))


@pytest.mark.parametrize("name", SCENARIOS)
def test_retract_matches_numpy_gauss_newton(name):
    _check_retraction(name)


def test_retract_with_overlapping_rows():
    # clifford's two Jacobian rows have disjoint support, sphere_cut's
    # overlap, so every Gram entry of the elimination is used
    _check_retraction("sphere_cut")


# The RetractionError text, or EvaluationError, that `_retract_oracle`
# raises for each status of the generated Gauss-Newton function.
_STATUS_ERRORS = {"guard": "basin", "diverged": "non-finite",
                  "iterations": "no convergence", "failed": "singular"}


def _generated_retraction(m, x, guard):
    """The raw (point, status) of the map's `_gn`."""
    bound = math.inf if guard is None else guard * (1.0 + _plain_norm(x))
    return m._map.gauss_newton()(
        m.constraint_tol, bound, *np.asarray(x, dtype=float).tolist())


@functools.lru_cache(maxsize=None)
def _first_function(cmap):
    """`_first(x1, ..., xn)` of the map's `first_lines`: the values that
    `_gn`'s first convergence test reads, as the flow loop inlines
    them."""
    xs, lines, vals = cmap.first_lines()
    namespace = dict(compiled._NAMESPACE)
    exec("\n".join([f"def _first({', '.join(xs)}):",
                    *(f"    {line}" for line in lines),
                    f"    return {compiled._tuple(vals)}"]), namespace)
    return namespace["_first"]


def _check_first_values(m, x):
    """The value tokens of the map's `first_lines` at x against the map's
    `value` bit for bit, and against the per-constraint oracle where the
    retraction converges: the oracle of the flow loop's inline first
    iterate. Where `value` raises, so do the lines."""
    y = np.asarray(x, dtype=float).tolist()
    first = _first_function(m._map)
    try:
        want = m._map.value(y)
    except EvaluationError:
        with pytest.raises(compiled._FAILURES):
            first(*y)
        return None
    got = first(*y)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    return got


def _check_generated_retraction(m, x, guard):
    """`_gn` against `_retract_oracle` bit for bit: the converged point,
    or the status of the oracle's error; and the first iterate's values
    (`_check_first_values`) as the oracle's values at x."""
    point, status = _generated_retraction(m, x, guard)
    want = _outcome(_retract_oracle, m, x, guard=guard)
    first = _check_first_values(m, x)
    if not _is_error(want):
        assert status == "converged"
        assert point == want.tolist()
        vals = _values_oracle(m, np.asarray(x, dtype=float))
        assert first == tuple(vals.tolist())
    elif want[0] is EvaluationError:
        assert status == "failed"
    else:
        assert _STATUS_ERRORS[status] in want[1]


@pytest.mark.parametrize("name", SCENARIOS)
def test_generated_retraction_matches_oracle(name):
    m, _ = _scenario(name)
    _, near, draws = _points(name)
    for x in near:
        _check_generated_retraction(m, x, 0.1)
    for x in np.concatenate([near, draws]):
        _check_generated_retraction(m, x, None)


def test_generated_retraction_statuses():
    # each status of `_gn`, and the outcome `retract` makes of it
    sphere, _ = _scenario("sphere2")
    with np.errstate(over="ignore", invalid="ignore"):
        for x, guard, status in (([0.6, 0.0, 0.9], 0.1, "converged"),
                                 ([3.0, 0.0, 0.0], 0.1, "guard"),
                                 ([1e200, 0.0, 0.0], None, "diverged"),
                                 ([math.nan, 0.0, 0.0], None, "diverged")):
            assert _generated_retraction(sphere, x, guard)[1] == status
            _check_generated_retraction(sphere, x, guard)
    strict = ImplicitManifold(3, sphere.constraints, constraint_tol=1e-300)
    x = [0.6, 0.1, 0.9]
    assert _generated_retraction(strict, x, None)[1] == "iterations"
    _check_generated_retraction(strict, x, None)
    with pytest.raises(RetractionError,
                       match=f"{RETRACT_MAX_ITER} retraction"):
        strict.retract(x, guard=None)
    # the cone's apex satisfies F = 0 but has a zero Gram matrix: the
    # values are tested before the step, so the converged point returns
    # without the division by zero
    cone = ImplicitManifold(3, [parse("x1^2 + x2^2 - x3^2", 3)])
    apex = [0.0, 0.0, 0.0]
    assert _generated_retraction(cone, apex, 0.1) == (apex, "converged")
    assert cone._gauss_newton(apex, 0.1) == apex
    assert _check_first_values(cone, apex) == (0.0,)
    # a domain error stops the loop; the checked step names the constraint
    m, _ = _scenario("sqrt_domain")
    outside = [-1.1, 0.2, 0.1]
    assert _generated_retraction(m, outside, 0.1)[1] == "failed"
    _check_generated_retraction(m, outside, 0.1)
    with pytest.raises(EvaluationError, match="sqrt"):
        m.retract(outside)


def test_point_within_tolerance_is_returned_where_its_step_would_raise():
    # at x3 = 0 the derivative 0.5 / sqrt(x3) divides by zero; (1, 0, 0)
    # satisfies F = 0, so its step is never formed and it is returned
    # (before the values were tested first, it raised EvaluationError),
    # while a point off M there still needs that step and raises
    m = ImplicitManifold(3, [parse("x1^2 + x2^2 - 1 + sqrt(x3)", 3)])
    on = [1.0, 0.0, 0.0]
    _check_generated_retraction(m, on, 0.1)
    assert m.retract(on).tolist() == on
    off = [1.1, 0.0, 0.0]
    _check_generated_retraction(m, off, 0.1)
    with pytest.raises(EvaluationError, match="division by zero"):
        m.retract(off)


def test_live_lines_keep_what_can_raise():
    # a dead *, + or - line goes; a dead division, power or call stays
    # with the lines it reads
    lines = ["    a = x1 * x1", "    b = x1 ** 7", "    c = 1.0 / x2",
             "    d = sqrt(a)", "    e = x1 + x2", "    f = e - 1e-05",
             "    g = e * 2.0"]
    assert compiled._live(lines, "(g,)") == [
        "    a = x1 * x1", "    b = x1 ** 7", "    c = 1.0 / x2",
        "    d = sqrt(a)", "    e = x1 + x2", "    g = e * 2.0"]


@pytest.mark.parametrize("name", SCENARIOS)
def test_tangent_projection_matches_numpy(name):
    # riemannian_gradient rechecks the floor of geometric_constants, so
    # it must give the field kernel's bits
    m, f = _scenario(name)
    on, near, _ = _points(name)
    points = np.concatenate([on, near])
    rng = np.random.default_rng(8)
    grad = compile_expression(f, m.ambient_dim)
    for x in points:
        v = rng.standard_normal(m.ambient_dim)
        got = m.project_tangent(x, v)
        assert np.array_equal(got, _project_oracle(m, x, v))
        assert np.allclose(got, _project_tangent_oracle(m, x, v),
                           rtol=0.0, atol=1e-14)
        # one field kernel call, bit-equal to f's compiled gradient
        # projected by the constraint map's `project_rows`
        g = grad.gradient(x)
        composed = m.project_tangent(x, g)
        assert np.array_equal(composed, _project_oracle(m, x, g))
        assert np.array_equal(m.riemannian_gradient(f, x).vec, composed)


@pytest.mark.parametrize("name", SCENARIOS + ("sphere_cut",))
def test_projected_rows_match_project(name):
    # the row function shares one Gram solve among the rows, and each
    # row keeps the bits of its projection alone (d = 1, which is
    # `project_tangent`), within 1e-14 of numpy's
    m, _ = _scenario(name)
    on, near, _ = _points(name)
    rng = np.random.default_rng(12)
    for x in np.concatenate([on[:10], near[::12]]):
        for d in (1, 2, 3):
            rows = rng.standard_normal((d, m.ambient_dim))
            got = m._map.project_rows(x, rows.ravel())
            want = [m._map.project_rows(x, r) for r in rows.tolist()]
            assert got == tuple(t for row in want for t in row)
            for row, r in zip(want, rows):
                assert np.allclose(row, _project_tangent_oracle(m, x, r),
                                   rtol=0.0, atol=1e-14)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def test_product_manifold_solves_each_factor_alone():
    # the Clifford torus is the product of two circles, so its Gram
    # matrix is diagonal: the projection of rows, P grad f and the
    # multipliers have, on each circle's coordinates, the bits of that
    # circle's own one-constraint solve
    m, f = _scenario("clifford")
    circles = [ImplicitManifold(4, [c]) for c in m.constraints]
    kernel = compile_expression(f, 4, m.constraints)
    kernels = [compile_expression(f, 4, c.constraints) for c in circles]
    rng = np.random.default_rng(13)
    for x in m.sample_points(500, seed=13).tolist():
        _, grad, lam = kernel.value_and_grad(x)
        (_, g1, l1), (_, g2, l2) = (k.value_and_grad(x) for k in kernels)
        assert _bits(grad) == _bits([*g1[:2], *g2[2:]])
        assert _bits(lam) == _bits([*l1, *l2])
        rows = rng.standard_normal(8).tolist()
        got = m._map.project_rows(x, rows)
        p1, p2 = (c._map.project_rows(x, rows) for c in circles)
        assert _bits(got) == _bits([*p1[:2], *p2[2:4], *p1[4:6], *p2[6:]])


def test_projected_rows_name_a_domain_error():
    # a zero Gram matrix is test_transport's rows at the sphere's origin
    m, _ = _scenario("sqrt_domain")
    with pytest.raises(EvaluationError, match="sqrt"):
        m._map.project_rows([-1.1, 0.2, 0.1], [1.0, 0.0, 0.0])


def test_error_parity():
    cone = ImplicitManifold(3, [parse("x1^2 + x2^2 - x3^2", 3)])
    height = parse("x3", 3)
    apex = [0.0, 0.0, 0.0]
    with pytest.raises(RankDeficiencyError):
        _projected_gradient_oracle(cone, height, apex)
    with pytest.raises(RankDeficiencyError, match=r"at \[0.0, 0.0, 0.0\]"):
        GradientField(cone, height).projected_gradient(apex)
    # a batch flags the apex, where the point call names the point
    cols = np.array([[0.6, 0.0], [0.8, 0.0], [1.0, 0.0]])
    failed = GradientField(cone, height)._kernel.columns(
        "value_and_grad", cols)[1]
    assert failed.tolist() == [False, True]
    with pytest.raises(RankDeficiencyError):
        cone.project_tangent(apex, np.ones(3))

    sphere, f2 = _scenario("sphere2")
    sphere5, f5 = _scenario("sphere_in_r5")  # k = 3
    origin5 = [0.0] * 5
    with pytest.raises(RankDeficiencyError):
        _projected_gradient_oracle(sphere5, f5, origin5)
    with pytest.raises(RankDeficiencyError, match=r"at \[0.0, 0.0, 0.0"):
        GradientField(sphere5, f5).projected_gradient(origin5)
    doubled = ImplicitManifold(3, list(sphere.constraints) * 2)
    for m, x in ((sphere, [0.0, 0.0, 0.0]),  # zero Jacobian row
                 (sphere5, origin5),  # zero first pivot
                 (cone, apex),  # on M with a zero Jacobian row
                 (doubled, [0.6, 0.0, 0.9]),  # equal rows
                 (cone, [1e-3, 0.0, 0.5]),  # far from the cone's basin
                 (sphere, [3.0, 0.0, 0.0]),  # outside the guard
                 (sphere, [1e200, 0.0, 0.0])):  # overflows to a NaN step
        for guard in (0.1, None):
            got = _outcome(m.retract, x, guard=guard)
            with np.errstate(over="ignore", invalid="ignore"):
                _assert_same(got, _outcome(_retract_oracle, m, x,
                                           guard=guard))
                _assert_close(got, _outcome(_retract_oracle, m, x,
                                            guard=guard, lapack=True))
    assert _outcome(doubled.retract, [0.6, 0.0, 0.9])[0] is RetractionError
    assert "basin" in _outcome(sphere.retract, [3.0, 0.0, 0.0])[1]
    assert "non-finite" in _outcome(sphere.retract, [1e200, 0.0, 0.0],
                                    guard=None)[1]
    assert _outcome(sphere5.retract, origin5)[0] is RetractionError
    # the field kernel by `columns`: a zero Gram matrix (a zero Jacobian
    # row, a zero first pivot) flags only its own column, and the other
    # keeps its point's f, P grad f and multipliers
    for m, f, x in ((sphere, f2, [0.0, 0.0, 0.0]), (sphere5, f5, origin5)):
        kernel = compile_expression(f, m.ambient_dim, m.constraints)
        good = [0.6, 0.0, 0.8] + [0.0] * (len(x) - 3)
        cols = np.array([x, good]).T
        with np.errstate(all="raise"):
            rows, failed = kernel.columns("value_and_grad", cols)
        assert failed.tolist() == [True, False] and np.isnan(rows[0]).all()
        value, grad, lam = kernel.value_and_grad(good)
        assert rows[1].tolist() == [value, *grad, *lam]
    # clifford's two Jacobian rows are disjoint, so the elimination leaves
    # out the zero Gram entry and solves each circle alone: a zero second
    # row still divides by its zero pivot, and a non-finite coordinate
    # poisons only the outputs of its own circle, without a raise
    clifford, fc = _scenario("clifford")
    kernel = compile_expression(fc, 4, clifford.constraints)
    flat = [0.5, 0.5, 0.0, 0.0]
    with pytest.raises(RankDeficiencyError, match=r"at \[0.5, 0.5, 0.0, 0"):
        kernel.value_and_grad(flat)
    cols = np.array([[0.6, 0.0, 0.8, 0.0], flat, [0.0, 0.6, 0.0, 0.8]]).T
    assert kernel.columns("value_and_grad", cols)[1].tolist() == [
        False, True, False]
    inf, nan = math.inf, math.nan
    for x, want in (([inf, 0.5, 0.5, 0.5], [inf, nan, nan, 0.5, -0.5, nan,
                                            0.5]),
                    ([0.5, -inf, 0.5, 0.5], [1.0, 1.0, nan, 0.5, -0.5, 0.0,
                                             0.5]),
                    ([0.5, 0.5, 0.5, nan], [1.0, 0.5, -0.5, nan, nan, 0.5,
                                            nan]),
                    ([nan, 0.5, 0.5, 0.5], [nan, nan, nan, 0.5, -0.5, nan,
                                            0.5])):
        value, grad, lam = kernel.value_and_grad(x)
        assert np.array_equal([value, *grad, *lam], want, equal_nan=True)
        rows, failed = kernel.columns("value_and_grad", np.array([x]).T)
        assert not failed[0]
        assert np.array_equal(rows[0], want, equal_nan=True)

    # the iteration limit, with a tolerance no iterate reaches
    strict = ImplicitManifold(3, sphere.constraints, constraint_tol=1e-300)
    x = [0.6, 0.1, 0.9]
    _assert_same(_outcome(strict.retract, x, guard=None),
                 _outcome(_retract_oracle, strict, x, guard=None))
    assert f"{RETRACT_MAX_ITER} retraction" in _outcome(
        strict.retract, x, guard=None)[1]

    # a domain error names the failing constraint, as one compiled
    # constraint did
    m, f = _scenario("sqrt_domain")
    outside = [-1.1, 0.2, 0.1]
    want = _outcome(_retract_oracle, m, outside)
    assert want[0] is EvaluationError and "sqrt" in want[1]
    _assert_same(_outcome(m.retract, outside), want)
    _assert_same(_outcome(GradientField(m, f).projected_gradient, outside),
                 _outcome(_projected_gradient_oracle, m, f, outside))
    _assert_same(_outcome(m.constraint_values, outside), want)
    # a batch flags the column outside the domain, whose point call
    # names the failing constraint
    cols = np.array([[0.5, -1.1], [0.1, 0.2], [0.3, 0.1]])
    assert m._map.columns("value_and_grad", cols)[1].tolist() == [False, True]
    _assert_same(_outcome(m._map.project_rows, outside, [1.0, 1.0, 1.0]),
                 want)


def _flat_outputs(out):
    """A point call's outputs (a float, or tuples and arrays of them) as
    one flat list in order."""
    if not isinstance(out, tuple):
        return [out]
    return [float(t) for block in out for t in np.ravel(block)]


# (scenario, object, function, columns whose point call raises) over the
# batch of `test_columns_flag_exactly_the_failing_points`: the sphere's
# origin (column 1) has a zero Gram matrix and (-1.1, 0.2, 0.1) (column
# 3) is outside the domain of sqrt_domain's sqrt. The field kernel's
# `value_and_grad` rows end with the multipliers; f alone ("plain") has
# none.
COLUMN_CASES = [
    ("sphere2", "map", "value", []),
    ("sphere2", "map", "value_and_grad", []),
    ("sphere2", "plain", "value_and_grad", []),
    ("sphere2", "kernel", "value", []),
    ("sphere2", "kernel", "value_and_grad", [1]),
    ("sphere2", "kernel", "kkt", []),
    ("sqrt_domain", "map", "value", [3]),
    ("sqrt_domain", "map", "value_and_grad", [3]),
    ("sqrt_domain", "plain", "value_and_grad", []),
    ("sqrt_domain", "kernel", "value", []),
    ("sqrt_domain", "kernel", "value_and_grad", [3]),
    ("sqrt_domain", "kernel", "kkt", [3]),
]


@pytest.mark.parametrize("name, kind, function, failing", COLUMN_CASES)
def test_columns_flag_exactly_the_failing_points(name, kind, function,
                                                 failing):
    # the one batch rule: the mask is true exactly where the point call
    # raises, each other row is the point call's outputs bit for bit, and
    # a batch of failing points keeps the shape (N, width), all nan
    m, f = _scenario(name)
    obj = {"map": m._map, "plain": compile_expression(f, m.ambient_dim),
           "kernel": compile_expression(f, m.ambient_dim, m.constraints)}[kind]
    on = m.sample_points(3, seed=4)
    x = np.array([on[0], [0.0, 0.0, 0.0], on[1], [-1.1, 0.2, 0.1], on[2]])
    rng = np.random.default_rng(6)
    args = {"kkt": (rng.standard_normal((len(x), m.n_constraints)),)
            }.get(function, ())
    rows, failed = obj.columns(function, x.T.copy(),
                               *(a.T.copy() for a in args))
    want = []
    for j, point in enumerate(x.tolist()):
        outcome = _outcome(getattr(obj, function), point,
                           *(a[j].tolist() for a in args))
        want.append(None if _is_error(outcome) else _flat_outputs(outcome))
    assert [j for j, w in enumerate(want) if w is None] == failing
    assert failed.tolist() == [w is None for w in want]
    width = len(want[0])
    assert rows.shape == (len(x), width)
    for row, w in zip(rows, want):
        if w is None:
            assert np.isnan(row).all()
        else:
            assert row.tolist() == w
    if failing:
        rows, failed = obj.columns(function, x[failing].T.copy(),
                                   *(a[failing].T.copy() for a in args))
        assert rows.shape == (len(failing), width) and failed.all()
        assert np.isnan(rows).all()


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(CATALOG + ("sphere_cut", "sphere_in_r5",
                                       "o3")),
       seed=st.integers(0, 2 ** 31 - 1))
def test_kernel_on_random_functions(name, seed):
    # a random f on a test manifold: the kernel against the gradient of
    # the second-order jet projected by the oracle, and bit for bit
    # against the oracle projection of the compiled gradient
    m, _ = _scenario(name)
    rng = np.random.default_rng(seed)
    f = _random_expression(rng, m.ambient_dim, depth=4)
    x = m.sample_points(1, seed=seed % 1000)[0]
    x = (x + 1e-3 * rng.standard_normal(m.ambient_dim)).tolist()
    kernel = compile_expression(f, m.ambient_dim, m.constraints)
    try:
        want = _projected_gradient_oracle(m, f, x)
    except EvaluationError as exc:
        with pytest.raises(EvaluationError) as raised:
            kernel.value_and_grad(x)
        assert str(raised.value) == str(exc)
        return
    value, got, _ = kernel.value_and_grad(x)
    assert np.array_equal(got, want, equal_nan=True)
    composed = m.project_tangent(
        x, compile_expression(f, m.ambient_dim).gradient(x))
    assert np.array_equal(m.riemannian_gradient(f, x).vec, composed,
                          equal_nan=True)
    try:
        jet = evaluate_jet(f, x)
    except EvaluationError:
        return
    if not (np.all(np.isfinite(jet.gradient)) and abs(jet.value) < 1e8):
        return
    tree = _project_oracle(m, x, jet.gradient.tolist())
    assert abs(value - jet.value) <= 1e-12 * max(1.0, abs(jet.value))
    scale = max(1.0, float(np.max(np.abs(jet.gradient))))
    assert np.max(np.abs(np.subtract(got, tree))) <= 1e-9 * scale


def _kkt_oracle(m, f, x, lam):
    """The KKT blocks from the jets: f and grad f, the constraint
    Jacobian and values, and Hess f with lam_i Hess F_i subtracted one at
    a time."""
    jet = evaluate_jet(f, x)
    vals, jac = m.values_and_jacobian(x)
    hess = jet.hessian.copy()
    for coef, cons_hess in zip(lam, m.constraint_hessians(x)):
        hess -= coef * cons_hess
    return jet.value, jet.gradient, jac, vals, hess


# Field kernels whose numpy twin once ran numpy's exp or power: those
# gave 19 to 145 of the 2000 rows below other bits than the point call.
BITS_KERNELS = {
    "exp": "exp(x1) + x2*x3",
    "x^5": "x1^5 + x2*x3",
    "x^6, x^7": "x1^6 - x2^7 + x3",
}


@pytest.mark.parametrize("name", [*BITS_KERNELS, "transcendental"])
def test_columns_rows_are_the_point_calls_bits(name):
    # `value`, `value_and_grad` and `kkt` over 2000 columns by one
    # `columns` call each, against each point alone, bit for bit
    if name == "transcendental":
        m, f = _scenario(name)
    else:
        m, f = _scenario("sphere2")[0], parse(BITS_KERNELS[name], 3)
    kernel = compile_expression(f, 3, m.constraints)
    x = np.random.default_rng(0).uniform(-1.2, 1.2, (3, 2000))
    points = x.T.tolist()

    def bits(rows):
        return np.ascontiguousarray(rows).tobytes()
    rows, failed = kernel.columns("value", x)
    assert not failed.any()
    assert bits(rows) == bits([[kernel.value(p)] for p in points])
    rows, failed = kernel.columns("value_and_grad", x)
    assert not failed.any()
    want = [kernel.value_and_grad(p) for p in points]
    assert bits(rows) == bits([[v, *g, *lam] for v, g, lam in want])
    lam = np.array([w[2] for w in want])
    blocks, failed = kernel.kkt_columns(x, lam.T.copy())
    assert not failed.any()
    want = [kernel.kkt(p, row) for p, row in zip(points, lam)]
    for i, block in enumerate(blocks):
        assert bits(block) == bits([w[i] for w in want])


def test_numpy_sin_cos_sqrt_give_math_bits():
    # the numpy twins run numpy's sin, cos and sqrt on columns, where the
    # point call runs `math`'s; a numpy build whose kernels round
    # otherwise fails here, before any digest moves
    rng = np.random.default_rng(0)
    values = np.concatenate([np.linspace(-10.0, 10.0, 20001),
                             rng.uniform(-10.0, 10.0, 20000),
                             rng.uniform(-1e-3, 1e-3, 2000),
                             [0.0, -0.0, 1e-300, math.pi, 1e6]])
    for ufunc, fn in ((np.sin, math.sin), (np.cos, math.cos)):
        assert ufunc(values).tobytes() == np.array(
            [fn(v) for v in values.tolist()]).tobytes()
    roots = np.abs(values) * 10.0
    assert np.sqrt(roots).tobytes() == np.array(
        [math.sqrt(v) for v in roots.tolist()]).tobytes()


@pytest.mark.parametrize("name", SCENARIOS)
def test_kkt_kernel_matches_jets(name):
    # x = (-1.1, ..., -1.1) is outside the domain of sqrt_domain, so there
    # the columns are re-run as points and that one is flagged.
    m, f = _scenario(name)
    kernel = compile_expression(f, m.ambient_dim, m.constraints)
    points = np.concatenate([*_points(name), [[-1.1] * m.ambient_dim]])
    rng = np.random.default_rng(4)
    lam = rng.standard_normal((len(points), m.n_constraints))
    blocks, failed = kernel.kkt_columns(points.T.copy(), lam.T.copy())
    assert failed.any() == (name == "sqrt_domain")
    for j, (x, mult) in enumerate(zip(points, lam)):
        want = _outcome(_kkt_oracle, m, f, x, mult)
        got = _outcome(kernel.kkt, x, mult)
        assert failed[j] == _is_error(want)
        if _is_error(want):
            assert got == want
            continue
        for point, column, oracle in zip(got, blocks, want):
            assert np.array_equal(point, oracle)
            assert np.array_equal(column[j], oracle)


@pytest.mark.parametrize("name", SCENARIOS)
def test_tangent_basis_matches_numpy_projector(name):
    # orthonormal rows in ker J, spanning the range of numpy's projector
    m, _ = _scenario(name)
    on, _, _ = _points(name)
    for x in on:
        basis = m.tangent_basis(x)
        jac = m.constraint_jacobian(x)
        assert basis.shape == (m.dim, m.ambient_dim)
        assert np.max(np.abs(basis @ basis.T - np.eye(m.dim))) < 1e-12
        assert np.max(np.abs(jac @ basis.T)) < 1e-12 * np.max(np.abs(jac))
        assert np.max(np.abs(basis.T @ basis - projector_oracle(m, x))) < 1e-12


def test_field_source_forms_each_right_hand_side_once(monkeypatch):
    # equal right-hand sides share one local: with vectors, each one's
    # projection reuses the Gram sums and elimination of the first, and
    # equal H_lam entries are formed once
    sources = []

    def capture(src, *args):
        sources.append(src)
        return compile(src, *args)

    monkeypatch.setattr(compiled, "compile", capture, raising=False)
    for name in ("sphere2", "clifford", "o3"):
        m, f = _scenario(name)
        for vectors in (0, 1, 2):
            compiled._field_code(f, m.constraints, m.ambient_dim, vectors)
    assert len(sources) == 9
    for src in sources:
        rhs = [line.split(" = ", 1)[1] for line in src.splitlines()
               if " = " in line]
        assert len(rhs) == len(set(rhs))


# A line that binds a generated local or a stage argument (a name ending
# in a digit) to one name or one literal (a negated one too), a product
# with a factor 0.0, 1.0 or (-1.0), a quotient 0.0 / pivot, and an int
# literal as an operand of * or / (not an exponent, of ** or of a
# literal such as 1e-13).
_BOUND_TOKEN = re.compile(
    r"^ *[A-Za-z_]\w*\d = ([A-Za-z_]\w*|\(?-?\d[\w.+-]*\)?)$", re.M)
_ZERO_OR_UNIT = re.compile(
    r"\* [01]\.0\b|(?<![\w.])[01]\.0 \*|= 0\.0 / |\* \(-1\.0\)|\(-1\.0\) \*")
_INT_OPERAND = re.compile(
    r"(?<![\w.+-])-?\d+ [*/](?!\*)|(?<!\*)[*/] \(?-?\d+(?![\w.])")


def test_field_source_has_no_zero_or_unit_factors(monkeypatch):
    # every generated function: a structural zero (a Jacobian or Hessian
    # entry absent from the walk, a Gram entry of disjoint rows) and a
    # one-token right-hand side get no local of their own, so no product
    # reads a zero, no elimination factor divides one, and none is
    # written with a factor 1.0; with clifford's, sphere_in_r5's and o3's
    # zero Gram entries through the elimination. sphere_cut's -x3 has the
    # gradient entry -1.0, a literal token with no local of its own, and a
    # product with it is the negation of the other factor. Every literal
    # that * or / reads is a float (the power rule's coefficients, the
    # loop's mean over the state), so no product or quotient mixes int
    # and float.
    sources = []

    def capture(src, *args):
        sources.append(src)
        return compile(src, *args)

    # kernels of their own, so that no flow loop is cached on them yet
    kernels = [compiled.CompiledExpression(f, m.ambient_dim, m.constraints)
               for m, f in map(_scenario, ("sphere2", "clifford",
                                           "sphere_in_r5", "o3",
                                           "sphere_cut"))]
    for module in (compiled, flow_module):
        monkeypatch.setattr(module, "compile", capture, raising=False)
    for kernel in kernels:
        f, n, constraints = (kernel.expression, kernel.ambient_dim,
                             kernel.constraints)
        for vectors in (0, 1, 2):
            compiled._field_code(f, constraints, n, vectors)
        compiled._value_grad_code(constraints, n)
        for count in (1, 2):
            compiled._rows_code(constraints, n, count)
        compiled._gn_code(constraints, n)
        compiled._kkt_code(f, constraints, n)
        for size in (n, 2 * n, 3 * n):
            flow_module._loop_factory(kernel, size)
    assert len(sources) == 5 * 11
    for src in sources:
        assert not _BOUND_TOKEN.search(src), _BOUND_TOKEN.search(src)[0]
        assert not _ZERO_OR_UNIT.search(src), _ZERO_OR_UNIT.search(src)[0]
        assert not _INT_OPERAND.search(src), _INT_OPERAND.search(src)[0]


def test_kernels_share_the_expression_cache():
    scenario = load_scenario("clifford")
    m, f = scenario.build_manifold(), scenario.build_function()
    kernel = compile_expression(f, 4, m.constraints)
    assert kernel is compile_expression(f, 4, m.constraints)
    assert compile_expression(m.constraints, 4) is m._map
    compile_expression.cache_clear()
    assert compile_expression(f, 4, m.constraints) is not kernel
