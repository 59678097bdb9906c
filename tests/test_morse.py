import math
import sys

import numpy as np
import pytest

from morseflow import (
    FlowConfig,
    ImplicitManifold,
    basin_sample,
    build_connection_graph,
    check_connected,
    check_energy_ode,
    find_critical_points,
    flatness_test,
    geometric_constants,
    holonomy_curvature,
    integrate_flow,
    intrinsic_hessian,
    load_scenario,
    morse,
    parallel_transport,
    parse,
    propagate_constancy,
    run_decay,
)
from morseflow.errors import (
    DisconnectedGraphError,
    EvaluationError,
    NonMorseError,
    NotCriticalError,
    RankDeficiencyError,
    TooFewCriticalPointsError,
)
from morseflow.linalg import jacobi_eigh
from morseflow.morse import (
    DEDUPE_RADIUS, SweepStats, _multipliers, _newton_sweep, classify_point,
    corrected_hessian,
)
from morseflow.symbolics import compile_expression, evaluate_jet
from test_kernels import CATALOG, FIELD_SCENARIOS, _scenario


def test_sphere_census(sphere):
    crits = sphere.crits
    assert len(crits) == 2
    assert [p.index for p in crits] == [0, 2]
    assert crits[0].value == pytest.approx(-1.0, abs=1e-9)
    assert crits[1].value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(crits[0].location, [0, 0, -1], atol=1e-8)


def test_torus_census(torus):
    crits = torus.crits
    assert [p.index for p in crits] == [0, 1, 1, 2]
    values = [p.value for p in crits]
    assert np.allclose(values, [-3.0, -1.0, 1.0, 3.0], atol=1e-9)


def test_clifford_census(clifford):
    crits = clifford.crits
    root2 = math.sqrt(2.0)
    assert [p.index for p in crits] == [0, 1, 1, 2]
    assert np.allclose(
        [p.value for p in crits], [-root2, 0.0, 0.0, root2], atol=1e-9
    )
    # ids of the tied saddles are fixed by coordinate order
    assert crits[1].location[0] < 0 < crits[2].location[0]


def test_sphere_m_census(sphere_m):
    crits = sphere_m.crits
    assert [p.index for p in crits] == [0, 4]
    assert np.allclose([p.value for p in crits], [-1.0, 1.0], atol=1e-9)


@pytest.mark.parametrize(
    "name,chi", [("sphere", 2), ("torus", 0), ("clifford", 0), ("sphere_m", 2)]
)
def test_euler_characteristic(name, chi, request):
    assert request.getfixturevalue(name).crits.euler_characteristic() == chi


def test_intrinsic_hessian_sphere_south_pole(sphere):
    hess = intrinsic_hessian(sphere.manifold, sphere.function,
                             sphere.crits[0].location)
    w, _ = jacobi_eigh(hess)
    assert np.allclose(w, [1.0, 1.0], atol=1e-8)


def test_intrinsic_hessian_torus_minimum(torus):
    assert np.allclose(torus.crits[0].eigenvalues, [1.0 / 3.0, 1.0], atol=1e-8)


def test_intrinsic_hessian_clifford_minimum(clifford):
    root2 = math.sqrt(2.0)
    assert np.allclose(clifford.crits[0].eigenvalues, [root2, root2], atol=1e-8)


def test_intrinsic_hessian_requires_critical_point(sphere):
    with pytest.raises(NotCriticalError):
        intrinsic_hessian(sphere.manifold, sphere.function, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("name", ["sphere", "torus", "clifford"])
def test_eigenpairs(name, request):
    setup = request.getfixturevalue(name)
    m, f = setup.manifold, setup.function
    for p in setup.crits:
        hess = intrinsic_hessian(m, f, p.location)
        basis = m.tangent_basis(p.location)
        for lam, ev in zip(p.eigenvalues, p.eigenvectors):
            coeff = basis @ ev.vec
            assert np.max(np.abs(hess @ coeff - lam * coeff)) <= 1e-8
            # ambient orthonormality and tangency
            assert abs(np.linalg.norm(ev.vec) - 1.0) <= 1e-8
            assert np.max(np.abs(m.constraint_jacobian(p.location) @ ev.vec)) <= 1e-8
        gram = np.array([
            [a.vec @ b.vec for b in p.eigenvectors] for a in p.eigenvectors
        ])
        assert np.max(np.abs(gram - np.eye(len(p.eigenvalues)))) <= 1e-8


def test_margins_and_grad(sphere, torus, clifford):
    for setup in (sphere, torus, clifford):
        for p in setup.crits:
            assert p.grad_norm <= 1e-8
            assert p.nondegeneracy_margin > 1e-6
            assert not p.degenerate


def test_seed_independence(torus):
    other = find_critical_points(torus.manifold, torus.function, 200, seed=7)
    assert len(other) == len(torus.crits)
    for a, b in zip(other, torus.crits):
        assert np.max(np.abs(a.location - b.location)) < 1e-6


def test_tied_critical_values_ordered_by_location(clifford):
    # the two clifford saddles share the value 0 up to ~3e-12
    m, f = clifford.manifold, clifford.function
    orders = set()
    for seed in range(8):
        crits = find_critical_points(m, f, 60, seed=seed)
        assert len(crits) == 4
        orders.add(tuple(tuple(np.round(p.location, 6)) for p in crits))
    assert len(orders) == 1


def test_sweep_stats(sphere):
    stats = sphere.crits.stats
    assert stats.n_starts == 200
    assert stats.n_converged + stats.n_discarded >= stats.n_starts
    assert stats.n_unique == 2


def test_constant_function_flags_degenerate(sphere):
    crits = find_critical_points(sphere.manifold, parse("1", 3), 20, seed=0)
    assert len(crits) > 0
    assert any(p.degenerate for p in crits)


def test_orthogonal_group_census():
    # O(3) in R^9 (six constraints, X^T X = I) with f = tr(D X),
    # D = diag(1, 2, 3): the critical points are the eight diagonal sign
    # matrices S, with f(S) = sum d_i s_i and intrinsic Hessian
    # eigenvalues -(d_i s_i + d_j s_j) / 2 for i < j, so the index counts
    # the positive sums. A flow keeps the sign of det, so the connection
    # graph splits into SO(3) and its coset.
    m = ImplicitManifold(9, [
        parse(" + ".join(f"x{i + r}*x{j + r}" for r in (0, 3, 6))
              + (" - 1" if i == j else ""), 9)
        for i in (1, 2, 3) for j in range(i, 4)
    ], bounding_box=(-1.2, 1.2))
    f = parse("x1 + 2*x5 + 3*x9", 9)
    crits = find_critical_points(m, f, 40, seed=0)
    assert len(crits) == 8 and not any(p.degenerate for p in crits)
    d = np.array([1.0, 2.0, 3.0])
    found = set()
    for p in crits:
        s = np.sign(np.diag(p.location.reshape(3, 3)))
        assert np.allclose(p.location, np.diag(s).ravel(), atol=1e-9)
        sums = [d[i] * s[i] + d[j] * s[j] for i, j in ((0, 1), (0, 2), (1, 2))]
        assert p.value == pytest.approx(float(d @ s), abs=1e-9)
        assert np.allclose(p.eigenvalues, np.sort(-0.5 * np.array(sums)),
                           atol=1e-9)
        assert p.index == sum(v > 0 for v in sums)
        found.add(tuple(s))
    assert len(found) == 8
    graph = build_connection_graph(m, f, crits)
    connected, parts = check_connected(graph)
    assert not connected
    assert parts == [{0, 4, 5, 6}, {1, 2, 3, 7}]
    for part in parts:
        assert len({np.sign(np.linalg.det(crits[i].location.reshape(3, 3)))
                    for i in part}) == 1
    with pytest.raises(DisconnectedGraphError):
        propagate_constancy(graph, [f])


def test_morse_bott_function_is_flagged(sphere):
    # f = x3^2 on S^2 is critical on the whole equator (f = 0, intrinsic
    # Hessian eigenvalues 0 and 2) and at the poles (f = 1, eigenvalues
    # -2, -2). The equator's zero eigenvalue comes out as rounding of
    # either sign, so its index is not checked.
    m = sphere.manifold
    f = parse("x3^2", 3)
    crits = find_critical_points(m, f, 200, seed=0)
    equator = [p for p in crits if abs(p.location[2]) < 1e-12]
    poles = [p for p in crits if abs(p.location[2]) >= 1e-12]
    assert len(equator) > 100
    assert all(p.degenerate for p in equator)
    assert len(poles) == 2
    for p in poles:
        assert not p.degenerate and p.index == 2
        assert p.value == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(p.eigenvalues, [-2.0, -2.0], atol=1e-8)
    with pytest.raises(NonMorseError):
        build_connection_graph(m, f, crits)
    with pytest.raises(NonMorseError):
        flatness_test(m, f, crits, 2, seed=0)


def test_geometric_constants_sphere(sphere):
    consts = sphere.consts
    assert consts.r == pytest.approx(1.0, abs=1e-9)
    # the floor of |P grad f| outside chordal-radius-1/2 polar caps is
    # sqrt(15)/8 (cap edge at polar angle 2*asin(1/4)); a 2000-point
    # sample sits just above it
    inf_floor = math.sqrt(15.0) / 8.0
    assert inf_floor - 1e-9 <= consts.c_floor <= 0.55
    assert consts.n_floor_samples > 1000


def test_geometric_constants_torus(torus):
    assert torus.consts.r == pytest.approx(1.0, abs=1e-8)
    assert torus.consts.c_floor > 0.0


def _floor_oracle(m, f, crits, n_samples=2000, seed=0):
    """(c_floor, n_floor_samples) as geometric_constants computed them
    before its batched floor: one riemannian_gradient per sample."""
    locs = [np.asarray(p.location, dtype=float) for p in crits]
    r = 0.5 * min(np.linalg.norm(a - b)
                  for i, a in enumerate(locs) for b in locs[i + 1:])
    floor = None
    used = 0
    for x in m.sample_points(n_samples, seed):
        if min(np.linalg.norm(x - q) for q in locs) <= r / 2.0:
            continue
        used += 1
        g = m.riemannian_gradient(f, x).norm()
        if floor is None or g < floor:
            floor = g
    return floor, used


@pytest.mark.parametrize("name", ["sphere", "torus", "clifford", "sphere_m"])
def test_gradient_floor_matches_per_sample_loop(name, request):
    setup = request.getfixturevalue(name)
    m, f = setup.manifold, setup.function
    for seed, consts in ((0, setup.consts),
                         (7, geometric_constants(m, f, setup.crits, seed=7))):
        want = _floor_oracle(m, f, setup.crits, seed=seed)
        assert (consts.c_floor, consts.n_floor_samples) == want


def test_too_few_critical_points(sphere):
    with pytest.raises(TooFewCriticalPointsError) as err:
        geometric_constants(sphere.manifold, sphere.function,
                            sphere.crits[:1], n_samples=200, seed=0)
    assert err.value.manifold_floor > 0
    samples = sphere.manifold.sample_points(200, 0)
    assert err.value.manifold_floor == min(
        sphere.manifold.riemannian_gradient(sphere.function, x).norm()
        for x in samples
    )


@pytest.mark.parametrize("n_samples", [0, -1])
def test_geometric_constants_needs_samples(sphere, n_samples):
    for crits in (sphere.crits, sphere.crits[:1]):
        with pytest.raises(ValueError, match="n_samples"):
            geometric_constants(sphere.manifold, sphere.function, crits,
                                n_samples=n_samples)


def test_classify_point_matches_census(sphere):
    p = classify_point(sphere.manifold, sphere.function,
                       sphere.crits[1].location)
    assert p.index == 2
    assert np.allclose(p.eigenvalues, [-1.0, -1.0], atol=1e-8)


@pytest.mark.parametrize("name", FIELD_SCENARIOS)
def test_classify_point_matches_the_jets_reference(name):
    # H_lam from the field kernel's `kkt` at its own lam is the jets'
    # corrected_hessian bit for bit, zero signs included, so the
    # intrinsic Hessian is too; the value is plain f's
    m, f = _scenario(name)
    kernel = compile_expression(f, m.ambient_dim, m.constraints)
    points = [p.location for p in find_critical_points(m, f, 40, seed=0)]
    samples = m.sample_points(100, seed=7)
    for x in samples:
        lam = kernel.value_and_grad(x)[2]
        got, want = kernel.kkt(x, lam)[4], corrected_hessian(m, f, x)
        assert got.tobytes() == want.tobytes()
    for x in points:
        p = classify_point(m, f, x)
        basis = m.tangent_basis(x)
        hess = basis @ corrected_hessian(m, f, x) @ basis.T
        hess = 0.5 * (hess + hess.T)
        assert intrinsic_hessian(m, f, x).tobytes() == hess.tobytes()
        assert p.eigenvalues.tobytes() == jacobi_eigh(hess)[0].tobytes()
        value = compile_expression(f, m.ambient_dim).value(x)
        assert type(p.value) is float and p.value == value


def _count_calls(monkeypatch, owner, name, counts, key):
    method = getattr(owner, name)

    def counted(self, *args):
        counts[key(self)] += 1
        return method(self, *args)
    monkeypatch.setattr(owner, name, counted)


def _raise_on_jets(monkeypatch):
    """Make `evaluate_jet`, at every module that imports it, and
    `ImplicitManifold.constraint_hessians` raise."""
    def jets(*args):
        raise AssertionError("a computing path reached the jets")
    sites = [module for module_name, module in list(sys.modules.items())
             if module_name.split(".")[0] == "morseflow"
             and getattr(module, "evaluate_jet", None) is evaluate_jet]
    assert {"morseflow.morse", "morseflow.geometry"} <= {
        module.__name__ for module in sites}
    for module in sites:
        monkeypatch.setattr(module, "evaluate_jet", jets)
    monkeypatch.setattr(ImplicitManifold, "constraint_hessians", jets)


def test_classify_point_makes_one_field_call_and_one_kkt_call(
        clifford, monkeypatch):
    m, f = clifford.manifold, clifford.function
    kernel = compile_expression(f, m.ambient_dim, m.constraints)
    _raise_on_jets(monkeypatch)
    counts = {"value_and_grad": 0, "kkt": 0, "other": 0}
    for name in ("value_and_grad", "kkt"):
        _count_calls(monkeypatch, type(kernel), name, counts,
                     lambda self, name=name: name if self is kernel
                     else "other")
    for p in clifford.crits:
        before = dict(counts)
        classify_point(m, f, p.location)
        # the tangent basis's rank check reads the constraint map
        assert counts["value_and_grad"] - before["value_and_grad"] == 1
        assert counts["kkt"] - before["kkt"] == 1


@pytest.mark.parametrize("name", ["sphere2", "clifford"])
def test_no_computing_path_reaches_the_jets(name, monkeypatch):
    # the tree-walking jets are the reference that the tests compare
    # against; every computing path reads the generated kernels
    _raise_on_jets(monkeypatch)
    scenario = load_scenario(name)
    m, f = scenario.build_manifold(), scenario.build_function()
    cfg = FlowConfig(**scenario.config.integrator)
    crits = find_critical_points(m, f, 40, seed=scenario.seed)
    assert len(crits) in (2, 4)
    for p in crits:
        classify_point(m, f, p.location)
        intrinsic_hessian(m, f, p.location)
    geometric_constants(m, f, crits, n_samples=200)
    x0 = m.sample_points(1, seed=3)[0]
    traj = integrate_flow(m, f, x0, cfg, crits=crits)
    basin_sample(m, f, crits, cfg, 4, seed=0)
    series, _ = run_decay(m, f, crits, cfg, seed=0)
    check_energy_ode(series, m, f)
    parallel_transport(m, traj, m.tangent_basis(traj.points[0]))
    u, v = m.tangent_basis(x0)
    holonomy_curvature(m, x0, u, v)


def test_root_failing_the_gradient_check_is_discarded(sphere, monkeypatch):
    # a Newton root whose |P grad f| exceeds GRAD_TOL is dropped by
    # classify_point's NotCriticalError and counted in n_discarded
    m, f = sphere.manifold, sphere.function
    sweep = morse._newton_sweep
    want = find_critical_points(m, f, 10, seed=0)
    monkeypatch.setattr(morse, "_newton_sweep", lambda m, f, starts: [
        *sweep(m, f, starts), np.array([1.0, 0.0, 0.0])])
    got = find_critical_points(m, f, 10, seed=0)
    assert got.stats == SweepStats(
        n_starts=10, n_converged=want.stats.n_converged + 1,
        n_discarded=want.stats.n_discarded + 1, n_unique=2)
    assert [p.location.tobytes() for p in got] == [
        p.location.tobytes() for p in want]


def test_jacobi_eigh_against_numpy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((n, n))
        a = a + a.T
        w, v = jacobi_eigh(a)
        w_ref = np.linalg.eigvalsh(a)
        assert np.allclose(w, w_ref, atol=1e-9)
        assert np.max(np.abs(a @ v - v * w)) < 1e-9
        assert np.max(np.abs(v @ v.T - np.eye(n))) < 1e-10


def _newton_solve(m, f, x0, max_iter=60, step_cap=0.5, res_tol=1e-11):
    """Newton on the multiplier system from one start; None on failure.

    The oracle of `_newton_sweep`: one start at a time, from the jets of
    f and of each constraint.
    """
    n = m.ambient_dim
    kernel = compile_expression(f, n, m.constraints)
    x = np.asarray(x0, dtype=float).copy()
    lam = None
    for _ in range(max_iter):
        jet = evaluate_jet(f, x)
        vals, jac = m.values_and_jacobian(x)
        if lam is None:
            # the field kernel's multipliers, nan where the Gram matrix
            # is singular
            try:
                lam = np.array(kernel.value_and_grad(x)[2])
            except RankDeficiencyError:
                lam = np.full(len(vals), np.nan)
        residual = np.concatenate([jet.gradient - jac.T @ lam, vals])
        if np.max(np.abs(residual)) < res_tol:
            return x
        hess = jet.hessian.copy()
        for coef, cons_hess in zip(lam, m.constraint_hessians(x)):
            hess -= coef * cons_hess
        k = len(vals)
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = hess
        kkt[:n, n:] = -jac.T
        kkt[n:, :n] = jac
        try:
            delta = np.linalg.solve(kkt, -residual)
        except np.linalg.LinAlgError:
            delta, *_ = np.linalg.lstsq(kkt, -residual, rcond=None)
        step = delta[:n]
        norm = np.linalg.norm(step)
        if norm > step_cap:
            delta = delta * (step_cap / norm)
        x = x + delta[:n]
        lam = lam + delta[n:]
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > 1e6:
            return None
    return None


def _census_oracle(m, f, roots):
    """Kept locations and SweepStats of a census from the oracle's roots:
    sorted by coordinates, deduplicated with one norm per pair."""
    converged = sorted((x for x in roots if x is not None), key=tuple)
    unique = []
    for x in converged:
        if all(np.linalg.norm(x - u) > DEDUPE_RADIUS for u in unique):
            unique.append(x)
    kept = []
    for x in unique:
        try:
            classify_point(m, f, x)
        except NotCriticalError:
            continue
        kept.append(x)
    stats = SweepStats(
        n_starts=len(roots),
        n_converged=len(converged),
        n_discarded=len(roots) - len(converged) + len(unique) - len(kept),
        n_unique=len(kept),
    )
    return kept, stats


def _assert_same_roots(got, want):
    """Same None pattern, and each root with the oracle's bits (the sign
    of a zero included)."""
    assert [r is None for r in got] == [r is None for r in want]
    for a, b in zip(got, want):
        if b is not None:
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))


def _quadric_cut():
    # Both constraints and f have Hessian entry (1, 1), so its H_lam entry
    # is a sum of three terms, and the Jacobian rows overlap.
    m = ImplicitManifold(4, [parse(e, 4) for e in (
        "x1^2 + x2^2 + x3^2 + x4^2 - 1", "x1^2 - x2^2 + x3*x4 - 0.1")])
    return m, parse("x1*x3 + 0.5*x1^2 + x4", 4)


@pytest.mark.parametrize("name", CATALOG + ("sphere_in_r5", "o3", "quadric"))
def test_newton_sweep_matches_point_newton(name):
    # Every o3 start takes capped steps, and 6 of its 120 run out of
    # iterations (38 of 120 quadric starts).
    m, f = _quadric_cut() if name == "quadric" else _scenario(name)
    for seed in range(3):
        starts = m.sample_points(40, seed)
        want = [_newton_solve(m, f, x) for x in starts]
        _assert_same_roots(_newton_sweep(m, f, starts), want)
        crits = find_critical_points(m, f, 40, seed)
        kept, stats = _census_oracle(m, f, want)
        assert crits.stats == stats
        got = sorted((p.location for p in crits), key=tuple)
        assert len(got) == len(kept)
        assert all(np.array_equal(a, b) for a, b in zip(got, kept))


@pytest.mark.parametrize("name", CATALOG + ("sphere_in_r5", "o3", "quadric"))
def test_multipliers_match_lstsq(name):
    # the field kernel's multipliers are the least-squares solution of
    # J^T lam = grad f, and corrected_hessian subtracts them as before
    m, f = _quadric_cut() if name == "quadric" else _scenario(name)
    kernel = compile_expression(f, m.ambient_dim, m.constraints)
    for x in m.sample_points(300, seed=7):
        jet = evaluate_jet(f, x)
        jac = m.constraint_jacobian(x)
        want, *_ = np.linalg.lstsq(jac.T, jet.gradient, rcond=None)
        got = np.array(kernel.value_and_grad(x)[2])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        hess = jet.hessian.copy()
        for coef, cons_hess in zip(want, m.constraint_hessians(x)):
            hess -= coef * cons_hess
        gap = corrected_hessian(m, f, x) - 0.5 * (hess + hess.T)
        assert np.max(np.abs(gap)) <= 1e-12 * max(1.0, np.max(np.abs(hess)))


@pytest.mark.parametrize("name", FIELD_SCENARIOS)
def test_batched_multipliers_match_project(name):
    # the field kernel's multipliers, the Gram weights of its projection,
    # meet numpy's least-squares solution of J^T lam = grad f, and each
    # `_multipliers` row has the bits of the point call's
    m, f = _scenario(name)
    kernel = compile_expression(f, m.ambient_dim, m.constraints)
    x = m.sample_points(50, seed=9)
    lam = _multipliers(m, f, x)
    assert lam.flags.c_contiguous and lam.shape == (50, m.n_constraints)
    for row, p in zip(lam, x):
        want, *_ = np.linalg.lstsq(m.constraint_jacobian(p).T,
                                   evaluate_jet(f, p).gradient, rcond=None)
        assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))
        assert row.tolist() == list(kernel.value_and_grad(p)[2])


def test_batched_multipliers_are_nan_only_where_project_raises(sphere):
    # the columns make rows 1 and 2 non-finite: at the origin (row 1) the
    # point call raises on the zero Gram matrix, while at row 2 J grad f
    # overflows to inf and the point call returns inf
    m = sphere.manifold
    f = parse("1e308*x2 + 1e308*x3", 3)
    kernel = compile_expression(f, 3, m.constraints)
    x = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
    lam = _multipliers(m, f, x)
    with pytest.raises(RankDeficiencyError):
        kernel.value_and_grad(x[1])
    assert np.isnan(lam[1]).all()
    assert lam[0].tolist() == list(kernel.value_and_grad(x[0])[2])
    assert lam[2].tolist() == list(kernel.value_and_grad(x[2])[2])
    assert lam[2].tolist() == [math.inf]


# The sweep's module constants that the oracle's keywords stand for.
_NEWTON_CONSTANTS = {"max_iter": "NEWTON_MAX_ITER",
                     "step_cap": "NEWTON_STEP_CAP",
                     "res_tol": "NEWTON_RES_TOL"}


def test_newton_sweep_branches(sphere, monkeypatch):
    m = sphere.manifold
    samples = list(m.sample_points(6, 0))
    edge = [math.cos(1e-8), 0.0, math.sin(1e-8)]
    cases = [
        # At the equator f = x3 has lam = 0 and H_lam = 0, so the KKT
        # matrix is singular: lstsq steps (for those rows only, the rest
        # of the batch solves), until max_iter.
        (parse("x3", 3), [[1.0, 0.0, 0.0], *samples, [0.0, 1.0, 0.0]], {}),
        # A constant f: singular everywhere.
        (parse("1", 3), samples, {}),
        # At the origin J = 0, so the Gram matrix is singular: the first
        # multipliers are nan and the start is dropped.
        (sphere.function, [[0.0, 0.0, 0.0], *samples], {}),
        # Just off the equator the KKT matrix is nearly singular: an
        # uncapped step of about 1e8 leaves the ball of radius 1e6.
        (parse("x3", 3), [edge, *samples], {"step_cap": 1e9}),
        # Too few iterations: these samples need 6 to 15 evaluations, so
        # 5 stops one of them a single evaluation short.
        *((sphere.function, samples, {"max_iter": i}) for i in (2, 5, 8)),
    ]
    for f, starts, options in cases:
        starts = np.array(starts)
        want = [_newton_solve(m, f, x, **options) for x in starts]
        with monkeypatch.context() as patch:
            for option, value in options.items():
                patch.setattr(morse, _NEWTON_CONSTANTS[option], value)
            _assert_same_roots(_newton_sweep(m, f, starts), want)
    # Only the options make those starts fail.
    assert _newton_solve(m, parse("x3", 3), edge, step_cap=1e9) is None
    assert _newton_solve(m, parse("x3", 3), edge) is not None
    assert _newton_sweep(m, sphere.function, np.zeros((1, 3))) == [None]
    for x in samples:
        assert _newton_solve(m, sphere.function, x, max_iter=2) is None
        assert _newton_solve(m, sphere.function, x) is not None


def _newton_outcome(m, f, x):
    """The point Newton's root (or None), or its EvaluationError."""
    try:
        return _newton_solve(m, f, x)
    except EvaluationError as exc:
        return exc


@pytest.mark.parametrize("function", [
    "x1 + x2 + 0.01*sqrt(x2 + 1)", "-x1 - x2 + 0.001*sqrt(0.99 - x2)",
])
def test_newton_sweep_raises_the_first_failing_start(function):
    # The constraint has sqrt(x1 + 1) and f a sqrt of x2, so a start fails
    # in one or the other. A start whose evaluation fails is discarded as
    # a diverging one is, so a batch with converging starts returns their
    # roots and the census counts the failures as discarded.
    m, _ = _scenario("sqrt_domain")
    f = parse(function, 3)
    starts = m.sample_points(30, 0)
    outcomes = [_newton_outcome(m, f, x) for x in starts]
    errors = [isinstance(o, EvaluationError) for o in outcomes]
    want = [None if e else o for e, o in zip(errors, outcomes)]
    with np.errstate(all="raise"):
        _assert_same_roots(_newton_sweep(m, f, starts), want)
    crits = find_critical_points(m, f, 30, 0)
    assert crits.stats.n_converged == len(starts) - sum(errors) > 0
    assert crits.stats.n_discarded >= sum(errors) > 0
    # With no start converging, the lowest failing start raises its
    # error; the orders below make it a failure of f or of the
    # constraint.
    failing = starts[errors]
    messages = set()
    for batch in (failing, failing[1:], failing[2:], failing[::-1]):
        first = str(_newton_outcome(m, f, batch[0]))
        messages.add(first)
        with np.errstate(all="raise"):
            with pytest.raises(EvaluationError) as err:
                _newton_sweep(m, f, batch)
        assert str(err.value) == first
    assert len(messages) == 2


def test_newton_sweep_overflow_is_a_failed_start(sphere):
    # H_lam of 1e308 x1^2 overflows to inf, and near x1 = +-1 so does the
    # gradient: numpy flags the overflow, the point code gives inf, and no
    # lstsq sees a non-finite matrix (LAPACK may not return from one).
    m = sphere.manifold
    f = parse("1e308 * x1^2", 3)
    starts = np.array([[0.1, 0.2, math.sqrt(0.95)], [0.6, 0.0, 0.8],
                       [0.95, 0.0, math.sqrt(1.0 - 0.95 ** 2)]])
    with np.errstate(all="raise"):
        assert _newton_sweep(m, f, starts) == [None, None, None]
