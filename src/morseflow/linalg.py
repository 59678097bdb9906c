"""Small dense symmetric eigenproblems via cyclic Jacobi rotations, and
bit-exact row norms.

The intrinsic Hessians and frame Gram matrices here are at most a few
rows, so a short textbook Jacobi sweep on Python floats is plenty and
keeps the decomposition deterministic across platforms. There is one
sweep, `_sweep`, which writes the rotations of a sweep out as generated
code for each matrix size. `jacobi_eigh` runs it on a Hessian, and the
polar step of a transported frame, `polar_function`, on the frame's
Gram matrix. `row_norms` gives the norms of many rows with the bits of
np.linalg.norm of each, for the distance checks of morse and flow.
"""

import functools
import math

import numpy as np

from .errors import RankDeficiencyError
from .symbolics.compile import _define

OFF_TOL = 1e-12
MAX_SWEEPS = 64
DEFINITE_FLOOR = 1e-14


def jacobi_eigh(matrix):
    """Eigen-decomposition of a symmetric matrix.

    Returns (w, V) with eigenvalues `w` ascending and eigenvectors in the
    columns of `V`. A matrix with an inf or nan entry raises ValueError
    before the sweep. The matrix is symmetric when every
    |a_ij - a_ji| <= atol + 1e-5 |a_ji| (numpy's `allclose` rule) with
    atol = 1e-10 max(1, max |a_ij|); it is then averaged with its
    transpose. Sweeps stop once the off-diagonal Frobenius norm falls
    below OFF_TOL, or after MAX_SWEEPS sweeps. Eigenvector signs are
    fixed so the entry of largest magnitude is positive. The rotations
    are `_sweep`'s, generated for each n, on Python floats: the matrices
    are a few rows, where numpy's per-call cost dominates.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    a = a.tolist()
    atol = 1e-10 * max(1.0, max((abs(x) for row in a for x in row),
                                default=0.0))
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            y = a[j][i]
            if not (x == y or abs(x - y) <= atol + 1e-5 * abs(y)):
                raise ValueError("matrix must be symmetric")
    average = (0.5 * (x + a[j][i]) for i, row in enumerate(a)
               for j, x in enumerate(row))
    w, v = _eigh_function(n)(*average)
    order = sorted(range(n), key=w.__getitem__)
    columns = []
    for j in order:
        col = v[j::n]
        columns.append([-x for x in col] if max(col, key=abs) < 0.0 else col)
    return np.array([w[j] for j in order]), np.array(columns).T.copy()


def _sweep(d):
    """Body lines of the cyclic Jacobi sweeps on the d x d locals a1_1,
    ..., ad_d, from V = I in v1_1, ...: pairs p < q in row order, each
    rotation unrolled over columns p, q of A, rows p, q of A, then
    columns p, q of V (Golub & Van Loan, Matrix Computations, 8.5). The
    eigenvalues end on A's diagonal, the eigenvectors in V's columns."""
    idx = range(1, d + 1)
    lines = [f"    v{i}_{j} = {float(i == j)!r}" for i in idx for j in idx]
    if d < 2:
        return lines
    emit = lines.append
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
            pairs = ([(f"a{r}_{p}", f"a{r}_{q}") for r in idx]
                     + [(f"a{p}_{j}", f"a{q}_{j}") for j in idx]
                     + [(f"v{r}_{p}", f"v{r}_{q}") for r in idx])
            for x, y in pairs:
                emit(f"            {x}, {y} = c * {x} - s * {y}, "
                     f"s * {x} + c * {y}")
    return lines


@functools.lru_cache(maxsize=None)
def _eigh_function(d):
    """`_eigh(a1_1, ..., ad_d)`, generated on first use: the `_sweep` of
    a d x d matrix given row after row, returning the diagonal and V
    (row after row) as two lists."""
    idx = range(1, d + 1)
    names = ", ".join(f"a{i}_{j}" for i in idx for j in idx)
    diagonal = ", ".join(f"a{k}_{k}" for k in idx)
    vectors = ", ".join(f"v{i}_{j}" for i in idx for j in idx)
    code = "\n".join([f"def _eigh({names}):", *_sweep(d),
                      f"    return [{diagonal}], [{vectors}]", ""])
    return _define(compile(code, f"<eigh:{d}>", "exec"), "_eigh", _SCOPE)


def _polar_code(d, n):
    """Source of `_polar(r1_1, ..., rd_n)` for d rows R of n floats.

    It forms the upper triangle of G = R R^T (mirrored), the bias
    max |G - I|, and G's eigen-decomposition by `_sweep`, as
    `jacobi_eigh` does. Then it returns (G^{-1/2} R flat, bias),
    G^{-1/2} = V diag(w^{-1/2}) V^T.
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
    lines += _sweep(d)
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


# What the generated sweeps and polar steps call.
_SCOPE = {"sqrt": math.sqrt, "copysign": math.copysign,
          "_collapsed": _collapsed}


@functools.lru_cache(maxsize=None)
def polar_function(d, n):
    """The polar step of d rows of n floats, generated on first use
    (`_polar_code`): rows R (d * n floats, row after row) to
    (G^{-1/2} R, max |G - I|), G = R R^T, its rows orthonormal."""
    code = compile(_polar_code(d, n), f"<polar:{d}x{n}>", "exec")
    return _define(code, "_polar", _SCOPE)


def float_norm(vec):
    """The norm of a sequence of floats, squares summed left to right from
    0.0 (`sum` of floats is compensated on Python 3.12 and later)."""
    total = 0.0
    for v in vec:
        total += v * v
    return math.sqrt(total)


def row_norms(rows):
    """np.linalg.norm of each row of a 2-D array, bit for bit: the
    stacked product (1, n) @ (n, 1) sums the squares as the dot product
    of one row does, while norm(axis=1), einsum and plain sums round
    differently."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def operator_norm(matrix):
    """Spectral norm of a small dense matrix."""
    return float(np.linalg.norm(np.asarray(matrix, dtype=float), 2))
