"""Small dense symmetric eigenproblems via cyclic Jacobi rotations.

The intrinsic Hessians and frame Gram matrices here are at most a few
rows, so a short textbook Jacobi sweep on Python floats is plenty and
keeps the decomposition deterministic across platforms. `jacobi_eigh`
decomposes a Hessian. The polar step of a transported frame,
`polar_function`, runs the same rotations in generated code for each
frame size, with the rotations of a sweep written out.
"""

import functools
import math

import numpy as np

from .errors import RankDeficiencyError

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


def _polar_code(d, n):
    """Source of `_polar(r1_1, ..., rd_n)` for d rows R of n floats.

    It forms the upper triangle of G = R R^T (mirrored), the bias
    max |G - I|, and G's eigen-decomposition by `jacobi_eigh`'s sweeps:
    the same rotation formulas on the whole matrix, unrolled within a
    sweep, with the sweep loop, OFF_TOL and MAX_SWEEPS kept. Then it
    returns (G^{-1/2} R flat, bias), G^{-1/2} = V diag(w^{-1/2}) V^T.
    An eigenvalue not above DEFINITE_FLOOR (or nan) raises
    RankDeficiencyError.
    """
    idx = range(1, d + 1)
    rows = [[f"r{i}_{c}" for c in range(1, n + 1)] for i in idx]
    lines = [f"def _polar({', '.join(r for row in rows for r in row)}):"]
    emit = lines.append
    for i in idx:
        for j in idx:
            rhs = (" + ".join(f"{x} * {y}" for x, y in zip(rows[i - 1],
                                                           rows[j - 1]))
                   if i <= j else f"a{j}_{i}")
            emit(f"    a{i}_{j} = {rhs}")
    # 0.0 closes the list, so that max has two arguments for d = 1 too
    emit("    bias = max(" + ", ".join(
        f"abs(a{i}_{j}{' - 1.0' if i == j else ''})"
        for i in idx for j in idx if i <= j) + ", 0.0)")
    for i in idx:
        for j in idx:
            emit(f"    v{i}_{j} = {float(i == j)!r}")
    if d > 1:
        skip = repr(OFF_TOL / (d * d))
        emit(f"    for _ in range({MAX_SWEEPS}):")
        emit("        if sqrt(" + " + ".join(
            f"a{i}_{j} * a{i}_{j}" for i in idx for j in idx if i != j)
            + f") <= {OFF_TOL!r}:")
        emit("            break")
        for p in idx:
            for q in range(p + 1, d + 1):
                emit(f"        if abs(a{p}_{q}) > {skip}:")
                emit(f"            theta = (a{q}_{q} - a{p}_{p}) / "
                     f"(2.0 * a{p}_{q})")
                emit("            t = copysign(1.0, theta) / "
                     "(abs(theta) + sqrt(theta * theta + 1.0))")
                emit("            c = 1.0 / sqrt(t * t + 1.0)")
                emit("            s = t * c")
                # columns p, q of A, then rows p, q of A, then columns of V
                pairs = ([(f"a{r}_{p}", f"a{r}_{q}") for r in idx]
                         + [(f"a{p}_{j}", f"a{q}_{j}") for j in idx]
                         + [(f"v{r}_{p}", f"v{r}_{q}") for r in idx])
                for x, y in pairs:
                    emit(f"            {x}, {y} = c * {x} - s * {y}, "
                         f"s * {x} + c * {y}")
    emit("    if not (" + " and ".join(
        f"a{k}_{k} > {DEFINITE_FLOOR!r}" for k in idx) + "):")
    emit(f"        raise _collapsed({', '.join(f'a{k}_{k}' for k in idx)})")
    for k in idx:
        emit(f"    e{k} = 1.0 / sqrt(a{k}_{k})")
    for i in idx:
        for j in idx:
            rhs = (" + ".join(f"v{i}_{k} * e{k} * v{j}_{k}" for k in idx)
                   if i <= j else f"g{j}_{i}")
            emit(f"    g{i}_{j} = {rhs}")
    out = [" + ".join(f"g{i}_{j} * {rows[j - 1][c]}" for j in idx)
           for i in idx for c in range(n)]
    emit(f"    return ({', '.join(out)},), bias")
    return "\n".join(lines) + "\n"


def _collapsed(*eigenvalues):
    return RankDeficiencyError(
        f"transported frame collapsed: Gram eigenvalue {min(eigenvalues):.3e}"
        f" is not above {DEFINITE_FLOOR}"
    )


@functools.lru_cache(maxsize=None)
def polar_function(d, n):
    """The polar step of d rows of n floats, generated on first use
    (`_polar_code`): rows R (d * n floats, row after row) to
    (G^{-1/2} R, max |G - I|), G = R R^T, its rows orthonormal."""
    scope = {"sqrt": math.sqrt, "copysign": math.copysign,
             "_collapsed": _collapsed}
    exec(compile(_polar_code(d, n), f"<polar:{d}x{n}>", "exec"), scope)
    return scope["_polar"]


def operator_norm(matrix):
    """Spectral norm of a small dense matrix."""
    return float(np.linalg.norm(np.asarray(matrix, dtype=float), 2))
