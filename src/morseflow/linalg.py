"""Small dense symmetric eigenproblems via cyclic Jacobi rotations.

The intrinsic Hessians and frame Gram matrices here are at most a few
rows, so a short textbook Jacobi sweep on Python floats is plenty and
keeps the decomposition deterministic across platforms.
"""

import math

import numpy as np

OFF_TOL = 1e-12
MAX_SWEEPS = 64
DEFINITE_FLOOR = 1e-14


def jacobi_eigh(matrix):
    """Eigen-decomposition of a symmetric matrix.

    Returns (w, V) with eigenvalues `w` ascending and eigenvectors in the
    columns of `V`. The matrix is symmetric when every
    |a_ij - a_ji| <= atol + 1e-5 |a_ji| (numpy's `allclose` rule) with
    atol = 1e-10 max(1, max |a_ij|); it is then averaged with its
    transpose. Sweeps stop once the off-diagonal Frobenius norm falls
    below OFF_TOL, or after MAX_SWEEPS sweeps. Eigenvector signs are
    fixed so the entry of largest magnitude is positive. The rotations
    run on Python floats: the matrices are a few rows, where numpy's
    per-call cost dominates.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    a = a.tolist()
    atol = 1e-10 * max(1.0, max((abs(x) for row in a for x in row),
                                default=0.0))
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            y = a[j][i]
            if not (x == y or abs(x - y) <= atol + 1e-5 * abs(y)):
                raise ValueError("matrix must be symmetric")
    a = [[0.5 * (x + a[j][i]) for j, x in enumerate(row)]
         for i, row in enumerate(a)]
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(MAX_SWEEPS):
        off = math.sqrt(sum(
            x * x for i, row in enumerate(a) for j, x in enumerate(row)
            if i != j
        ))
        if off <= OFF_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= OFF_TOL / (n * n):
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                _rotate_columns(a, p, q, c, s)
                ap, aq = a[p], a[q]
                a[p] = [c * x - s * y for x, y in zip(ap, aq)]
                a[q] = [s * x + c * y for x, y in zip(ap, aq)]
                _rotate_columns(v, p, q, c, s)
    w = [a[i][i] for i in range(n)]
    order = sorted(range(n), key=w.__getitem__)
    columns = []
    for j in order:
        col = [row[j] for row in v]
        k = max(range(n), key=lambda i: abs(col[i]))
        columns.append([-x for x in col] if col[k] < 0.0 else col)
    return np.array([w[j] for j in order]), np.array(columns).T.copy()


def _rotate_columns(rows, p, q, c, s):
    """Columns p, q of a list of rows <- (c p - s q, s p + c q)."""
    for row in rows:
        x, y = row[p], row[q]
        row[p] = c * x - s * y
        row[q] = s * x + c * y


def sym_inverse_sqrt(gram):
    """G^{-1/2} for a symmetric matrix, all eigenvalues > DEFINITE_FLOOR."""
    w, v = jacobi_eigh(gram)
    if w[0] <= DEFINITE_FLOOR:
        raise ValueError("matrix is not positive definite")
    return (v * (1.0 / np.sqrt(w))) @ v.T


def operator_norm(matrix):
    """Spectral norm of a small dense matrix."""
    return float(np.linalg.norm(np.asarray(matrix, dtype=float), 2))
