"""The generated field kernel, projection and retraction against
hand-written oracles.

The oracles evaluate one compiled object per constraint and write the
arithmetic out term by term: Gram sums from 0.0 in coordinate order,
r / jj for one constraint, Cramer's rule for two, and elimination
without pivoting then back-substitution for three or more. The
generated code does the same for every number of constraints, so field,
projection and retraction must be bit-equal to them, as must every
column of a batch to its point. The numpy Gauss-Newton retraction and
tangent projection (numpy's solve, `normal_part` below) stay as a second
oracle, met to 1e-14 with the same outcomes.
"""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseflow import ImplicitManifold, load_scenario, parse
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
    """(J J^T)^{-1} rhs for three or more rows J: Gram sums on and above
    the diagonal, elimination without pivoting, back-substitution."""
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
    if isinstance(xs, np.ndarray) and xs.ndim == 2:
        with np.errstate(divide="raise", invalid="raise"):
            return _project_branches(m, xs, vec)
    return _project_branches(m, xs, vec)


def _project_branches(m, xs, vec):
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
        if len(constraints) == 2:
            _, j1 = constraints[0].value_and_grad(xs)
            _, j2 = constraints[1].value_and_grad(xs)
            a11 = a12 = a22 = r1 = r2 = 0.0
            for u, v, b in zip(j1, j2, vec):
                a11 += u * u
                a12 += u * v
                a22 += v * v
                r1 += u * b
                r2 += v * b
            det = a11 * a22 - a12 * a12
            w1 = (a22 * r1 - a12 * r2) / det
            w2 = (a11 * r2 - a12 * r1) / det
            return [b - w1 * u - w2 * v for u, v, b in zip(j1, j2, vec)]
        rows = [c.value_and_grad(xs)[1] for c in constraints]
        w = _eliminate(rows, [_plain_dot(j, vec) for j in rows])
        out = []
        for b, *col in zip(vec, *rows):
            for wi, a in zip(w, col):
                b = b - wi * a
            out.append(b)
        return out
    except (ZeroDivisionError, FloatingPointError):
        raise RankDeficiencyError("rank deficient") from None


def _projected_gradient_oracle(m, f, xs):
    grad = compile_expression(f, m.ambient_dim).value_and_grad(xs)[1]
    return _project_oracle(m, xs, grad)


def _values_and_jacobian_oracle(m, x):
    vals, rows = [], []
    for c in _compiled(m):
        v, g = c.value_and_grad(x)
        vals.append(v)
        rows.append(g)
    return np.array(vals), np.array(rows)


def _values_and_jacobian_columns_oracle(m, cols):
    count = cols.shape[1]
    vals = np.empty((m.n_constraints, count))
    jac = np.empty((count, m.n_constraints, m.ambient_dim))
    for c, comp in enumerate(_compiled(m)):
        vals[c], grad = comp.value_and_grad(cols)
        for i, g in enumerate(grad):
            jac[:, c, i] = g
    return vals, jac


def _project_tangent_oracle(m, x, v):
    jac = np.array([c.gradient(x) for c in _compiled(m)])
    try:
        return v - normal_part(jac, jac @ v)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("rank deficient") from exc


def _step_branches(vals, rows):
    """J^T (J J^T)^{-1} F written out: one row, Cramer's rule for two,
    `_eliminate` for more; a singular Gram matrix raises."""
    if len(rows) == 1:
        (j,), (r,) = rows, vals
        jj = 0.0
        for a in j:
            jj += a * a
        w = r / jj
        return [w * a for a in j]
    if len(rows) == 2:
        j1, j2 = rows
        r1, r2 = vals
        a11 = a12 = a22 = 0.0
        for u, v in zip(j1, j2):
            a11 += u * u
            a12 += u * v
            a22 += v * v
        det = a11 * a22 - a12 * a12
        w1 = (a22 * r1 - a12 * r2) / det
        w2 = (a11 * r2 - a12 * r1) / det
        return [w1 * u + w2 * v for u, v in zip(j1, j2)]
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
    retract had them before."""
    norm = np.linalg.norm if lapack else _plain_norm
    y = np.asarray(x, dtype=float).copy()
    scale = 1.0 + norm(y)
    for it in range(max_iter):
        vals, jac = _values_and_jacobian_oracle(m, y)
        if np.max(np.abs(vals)) <= m.constraint_tol:
            return y
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


def _retract_columns_oracle(m, cols):
    """retract_columns as it was: a stacked numpy solve."""
    y = np.array(cols, dtype=float)
    ok = np.zeros(y.shape[1], dtype=bool)
    live = np.arange(y.shape[1])
    for _ in range(RETRACT_MAX_ITER):
        vals, jac = _values_and_jacobian_columns_oracle(m, y[:, live])
        done = np.max(np.abs(vals), axis=0) <= m.constraint_tol
        ok[live[done]] = True
        live, vals, jac = live[~done], vals[:, ~done], jac[~done]
        if not len(live):
            break
        try:
            steps = normal_part(jac, vals.T)
        except np.linalg.LinAlgError:
            steps = np.full((len(live), m.ambient_dim), np.nan)
            for j in range(len(live)):
                try:
                    steps[j] = normal_part(jac[j:j + 1], vals.T[j:j + 1])
                except np.linalg.LinAlgError:
                    pass
        y[:, live] -= steps.T
        live = live[np.all(np.isfinite(y[:, live]), axis=0)]
    return y, ok


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
        assert np.array_equal(field.project(x, v), _project_oracle(m, x, v))
    cols = points.T.copy()
    assert np.array_equal(field.projected_gradient(cols),
                          _projected_gradient_oracle(m, f, cols))


def _check_retraction(name):
    """Points against both retraction oracles, and each column of a batch
    against its point."""
    m, _ = _scenario(name)
    _, near, draws = _points(name)
    cases = [(x, 0.1) for x in near]
    cases += [(x, None) for x in np.concatenate([near, draws])]
    for x, guard in cases:
        got = _outcome(m.retract, x, guard=guard)
        _assert_same(got, _outcome(_retract_oracle, m, x, guard=guard))
        _assert_close(got, _outcome(_retract_oracle, m, x, guard=guard,
                                    lapack=True))
    for cols in (near.T, draws.T):
        got, ok = m.retract_columns(cols)
        want, want_ok = _retract_columns_oracle(m, cols)
        assert np.array_equal(ok, want_ok)
        assert np.allclose(got[:, ok], want[:, ok], rtol=0.0, atol=1e-14)
        for x, y, good in zip(cols.T, got.T, ok):
            alone = _outcome(m.retract, x, guard=None)
            if good:
                assert np.array_equal(alone, y)
            else:
                assert alone[0] is RetractionError


@pytest.mark.parametrize("name", SCENARIOS)
def test_retract_matches_numpy_gauss_newton(name):
    _check_retraction(name)


def test_retract_with_overlapping_rows():
    # clifford's two Jacobian rows have disjoint support, sphere_cut's
    # overlap, so every Gram entry of Cramer's rule is used
    _check_retraction("sphere_cut")


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
        # projected by the constraint map's `project`
        g = grad.gradient(x)
        composed = m.project_tangent(x, g)
        assert np.array_equal(composed, _project_oracle(m, x, g))
        assert np.array_equal(m.riemannian_gradient(f, x).vec, composed)


@pytest.mark.parametrize("name", SCENARIOS + ("sphere_cut",))
def test_projected_rows_match_project(name):
    # the row function shares one Gram solve among the rows, and each
    # row keeps the bits of `project` alone
    m, _ = _scenario(name)
    on, near, _ = _points(name)
    rng = np.random.default_rng(12)
    for x in np.concatenate([on[:10], near[::12]]):
        for d in (1, 2, 3):
            rows = rng.standard_normal((d, m.ambient_dim))
            got = m._map.project_rows(x, rows.ravel())
            want = [m._map.project(x, r)[0] for r in rows.tolist()]
            assert got == tuple(t for row in want for t in row)


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
    cols = np.array([[0.6, 0.0], [0.8, 0.0], [1.0, 0.0]])
    with pytest.raises(RankDeficiencyError, match="one of 2 points"):
        GradientField(cone, height).projected_gradient(cols)
    with pytest.raises(RankDeficiencyError):
        cone.project_tangent(apex, np.ones(3))

    sphere, _ = _scenario("sphere2")
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
    cols = np.array([[0.0, 0.6], [0.0, 0.0], [0.0, 0.9]])
    with np.errstate(all="raise"):  # the singular column raises nothing
        got, ok = sphere.retract_columns(cols)
    want_ok = _retract_columns_oracle(sphere, cols)[1]
    assert ok.tolist() == want_ok.tolist() == [False, True]
    assert np.array_equal(got[:, 1], sphere.retract(cols[:, 1], guard=None))
    got, ok = doubled.retract_columns(cols[:, 1:2])
    assert ok.tolist() == [False]
    assert _outcome(sphere5.retract, origin5)[0] is RetractionError
    cols = np.array([[0.0, 0.6], [0.0, 0.0], [0.0, 0.9], [0.0, 0.0],
                     [0.0, 0.0]])
    with np.errstate(all="raise"):
        got, ok = sphere5.retract_columns(cols)
    assert ok.tolist() == [False, True]
    assert np.array_equal(got[:, 1], sphere5.retract(cols[:, 1], guard=None))

    # the iteration limit, with a tolerance no iterate reaches
    strict = ImplicitManifold(3, sphere.constraints, constraint_tol=1e-300)
    x = [0.6, 0.1, 0.9]
    _assert_same(_outcome(strict.retract, x, guard=None),
                 _outcome(_retract_oracle, strict, x, guard=None))
    assert f"{RETRACT_MAX_ITER} retraction" in _outcome(
        strict.retract, x, guard=None)[1]
    assert not strict.retract_columns(np.array([x]).T)[1].any()

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
    with pytest.raises(EvaluationError, match="sqrt"):
        m.values_and_jacobian_columns(np.array([[0.5, -1.1], [0.1, 0.2],
                                                [0.3, 0.1]]))


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
    value, got = kernel.value_and_grad(x)
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


def test_field_source_has_no_zero_or_unit_factors(monkeypatch):
    # the Gram sums, projections and normal steps leave out the products
    # with a Jacobian entry 0.0 and write a factor 1.0 as no product
    sources = []

    def capture(src, *args):
        sources.append(src)
        return compile(src, *args)

    monkeypatch.setattr(compiled, "compile", capture, raising=False)
    for name in ("sphere2", "clifford"):
        m, f = _scenario(name)
        for vectors in (0, 1):
            compiled._field_code(f, m.constraints, m.ambient_dim, vectors)
    assert len(sources) == 4
    for src in sources:
        assert not re.search(r"\* 0\.0\b|(?<![\w.])0\.0 \*|\* 1\.0\b", src)


def test_kernels_share_the_expression_cache():
    scenario = load_scenario("clifford")
    m, f = scenario.build_manifold(), scenario.build_function()
    kernel = compile_expression(f, 4, m.constraints)
    assert kernel is compile_expression(f, 4, m.constraints)
    assert compile_expression(m.constraints, 4) is m._map
    compile_expression.cache_clear()
    assert compile_expression(f, 4, m.constraints) is not kernel
