"""jacobi_eigh, which runs the generated Jacobi sweep, against the numpy
sweep kept as its reference, and the generated polar step that runs the
same sweep."""

import math

import numpy as np
import pytest

from morseflow.errors import RankDeficiencyError
from morseflow.linalg import (
    float_norm, jacobi_eigh, polar_function, row_norms,
)
from morseflow.morse import intrinsic_hessian


def _jacobi_eigh_oracle(matrix, off_tol=1e-12, max_sweeps=64):
    """The numpy version of jacobi_eigh, kept as the reference."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-10 * max(1.0, np.abs(a).max())):
        raise ValueError("matrix must be symmetric")
    a = 0.5 * (a + a.T)
    v = np.eye(n)
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        off = math.sqrt((a[off_mask] ** 2).sum())
        if off <= off_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= off_tol / (n * n):
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = v[:, order]
    for j in range(n):
        k = int(np.argmax(np.abs(v[:, j])))
        if v[k, j] < 0.0:
            v[:, j] = -v[:, j]
    return w, v


def _assert_same_eigh(matrix):
    try:
        want = _jacobi_eigh_oracle(matrix)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            jacobi_eigh(matrix)
        return
    w, v = jacobi_eigh(matrix)
    assert np.array_equal(w, want[0])
    assert np.array_equal(v, want[1])
    assert v.flags.c_contiguous


@pytest.mark.parametrize("name", ["sphere", "sphere_m", "torus", "clifford"])
def test_catalog_hessians_match_numpy_sweep(name, request):
    setup = request.getfixturevalue(name)
    for crit in setup.crits:
        _assert_same_eigh(intrinsic_hessian(setup.manifold, setup.function,
                                            crit.location))


def test_random_symmetric_matrices_match_numpy_sweep():
    rng = np.random.default_rng(21)
    for n in range(1, 7):
        for _ in range(300):
            a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4)
            a = a + a.T
            if rng.random() < 0.2:  # repeated eigenvalues
                a = np.diag(rng.integers(-2, 3, n).astype(float))
            if n > 1 and rng.random() < 0.3:
                # asymmetry around the allclose threshold
                a[0, -1] += abs(a[-1, 0]) * 10.0 ** rng.uniform(-7, -4)
            _assert_same_eigh(a)


def test_gram_inverse_square_root():
    # the polar step returns Q = G^{-1/2} R for G = R R^T, so
    # Q Q^T = G^{-1/2} G G^{-1/2} = I, and Q R^T = G^{1/2} is symmetric
    # with square G
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        rows = rng.standard_normal((n, n + 2))
        gram = rows @ rows.T
        flat, bias = polar_function(n, n + 2)(*rows.ravel().tolist())
        q = np.array(flat).reshape(rows.shape)
        assert bias == pytest.approx(np.max(np.abs(gram - np.eye(n))),
                                     abs=1e-12)
        assert np.allclose(q @ q.T, np.eye(n), atol=1e-10)
        root = q @ rows.T
        assert np.allclose(root, root.T, atol=1e-10)
        assert np.allclose(root @ root, gram, atol=1e-10)
    with pytest.raises(RankDeficiencyError, match="collapsed"):
        polar_function(2, 4)(*[0.0] * 8)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_matrices_are_rejected(bad):
    # an inf diagonal made the symmetry tolerance inf, so the sweep ran and
    # returned [inf, nan]; a non-finite entry anywhere raises before it
    for i, j in ((0, 0), (0, 1), (1, 1)):
        a = [[1.0, 0.5], [0.5, 2.0]]
        a[i][j] = a[j][i] = bad
        with pytest.raises(ValueError, match="matrix must be finite"):
            jacobi_eigh(a)


def test_row_norms_match_numpy_norm():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5, 9):
        rows = rng.standard_normal((200, n)) * 10.0 ** rng.integers(-3, 4)
        want = [np.linalg.norm(r) for r in rows]
        assert row_norms(rows).tolist() == want
    # column-major rows, as `CompiledExpression.columns` returns them:
    # the product of the transposed view sums in another order
    for n in (4, 5, 9):
        rows = rng.standard_normal((n, 20000)).T
        want = [np.linalg.norm(r) for r in rows]
        assert row_norms(rows).tolist() == want


def test_float_norm_sums_left_to_right():
    # squares 1e16, 1 and 1: a compensated sum (math.fsum, and `sum` of
    # floats on Python 3.12 and later) gives 1e16 + 2, the sum from 0.0
    # left to right 1e16
    vec = [1e8, 1.0, 1.0]
    total = 0.0
    for v in vec:
        total += v * v
    assert float_norm(vec) == math.sqrt(total)
    assert float_norm(vec) != math.sqrt(math.fsum(v * v for v in vec))
