import math

import numpy as np
import pytest

from morseflow import find_critical_points, geometric_constants, intrinsic_hessian, parse
from morseflow.errors import NotCriticalError, TooFewCriticalPointsError
from morseflow.linalg import jacobi_eigh
from morseflow.morse import classify_point


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
    assert crits.any_degenerate()


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


def test_too_few_critical_points(sphere):
    with pytest.raises(TooFewCriticalPointsError) as err:
        geometric_constants(sphere.manifold, sphere.function,
                            sphere.crits[:1], n_samples=200, seed=0)
    assert err.value.manifold_floor > 0


def test_classify_point_matches_census(sphere):
    p = classify_point(sphere.manifold, sphere.function,
                       sphere.crits[1].location)
    assert p.index == 2
    assert np.allclose(p.eigenvalues, [-1.0, -1.0], atol=1e-8)


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
