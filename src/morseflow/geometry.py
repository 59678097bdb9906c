"""Implicit manifolds M = F^{-1}(0) in R^n with the induced metric.

Points live in ambient coordinates throughout; tangency and membership
are always checked against the constraint map. Distances are ambient
(chordal); on the compact manifolds handled here they are equivalent to
geodesic distances up to constants, and tolerances are calibrated for
the chordal convention.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, RankDeficiencyError, RetractionError
from .symbolics import compile_expression, evaluate_jet
from .symbolics.compile import stack_columns

DEFAULT_CONSTRAINT_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-6
RETRACT_MAX_ITER = 25
SAMPLE_KEEP_TOL = 0.5
# Draws per pass of the rejection sampler; the points do not depend on
# it. One or two points take under 1 ms with blocks of 64 to 4096 draws,
# while 2000 torus_upright points (one draw in 40 kept) took 3x as long
# with 256 and 10x with 64.
SAMPLE_BLOCK = 1024


@dataclass(frozen=True)
class TangentVector:
    """Ambient vector attached to a base point, J(base) @ vec = 0."""

    base: np.ndarray
    vec: np.ndarray

    def norm(self):
        return float(np.linalg.norm(self.vec))


class ImplicitManifold:
    """M = {x : F_i(x) = 0 for all i} with full-rank constraint Jacobian."""

    def __init__(
        self,
        ambient_dim,
        constraints,
        constraint_tol=DEFAULT_CONSTRAINT_TOL,
        rank_tol=DEFAULT_RANK_TOL,
        bounding_box=None,
    ):
        if ambient_dim < 1:
            raise ValueError("ambient_dim must be at least 1")
        constraints = tuple(constraints)
        if not 0 < len(constraints) < ambient_dim:
            raise ValueError(
                "need between 1 and ambient_dim-1 constraint expressions"
            )
        self.ambient_dim = int(ambient_dim)
        self.constraints = constraints
        self.constraint_tol = float(constraint_tol)
        self.rank_tol = float(rank_tol)
        self._map = compile_expression(constraints, ambient_dim)
        if bounding_box is None:
            bounding_box = [(-3.0, 3.0)] * ambient_dim
        box = np.asarray(bounding_box, dtype=float)
        if box.shape == (2,):
            box = np.tile(box, (ambient_dim, 1))
        if box.shape != (ambient_dim, 2) or np.any(box[:, 0] >= box[:, 1]):
            raise ValueError("bounding_box must be (lo, hi) per coordinate")
        self.bounding_box = box

    @property
    def n_constraints(self):
        return len(self.constraints)

    @property
    def dim(self):
        return self.ambient_dim - len(self.constraints)

    # -- constraint map -------------------------------------------------

    def constraint_values(self, x):
        return np.array(self._map.value(x))

    def constraint_jacobian(self, x):
        return self._map.gradient(x)

    def values_and_jacobian(self, x):
        vals, rows = self._map.value_and_grad(x)
        return np.array(vals), np.array(rows)

    def values_and_jacobian_columns(self, cols):
        """Values (k, N) and Jacobians (N, k, n) at the columns of (n, N)."""
        vals, rows = self._map.value_and_grad(cols)
        entries = [*vals, *(g for row in rows for g in row)]
        out = stack_columns(entries, cols.shape[1])
        k, n = self.n_constraints, self.ambient_dim
        jac = out[k:].reshape(k, n, -1).transpose(2, 0, 1)
        return out[:k], np.ascontiguousarray(jac)

    def constraint_hessians(self, x):
        """Ambient Hessian of each constraint (second-order jets)."""
        return [evaluate_jet(c, x).hessian for c in self.constraints]

    def max_violation(self, x):
        return float(np.max(np.abs(self.constraint_values(x))))

    def is_on_manifold(self, x, tol=None):
        tol = self.constraint_tol if tol is None else tol
        return self.max_violation(x) <= tol

    # -- tangent structure ----------------------------------------------

    def _checked_jacobian(self, x):
        jac = self.constraint_jacobian(x)
        smallest = np.linalg.svd(jac, compute_uv=False)[-1]
        if smallest <= self.rank_tol:
            raise RankDeficiencyError(
                f"constraint Jacobian is rank deficient at {np.asarray(x)} "
                f"(smallest singular value {smallest:.3e})"
            )
        return jac

    def project_tangent(self, x, v):
        """P(x) v without forming the projector: the constraint map's
        generated `project` at one point. A singular Gram matrix raises
        RankDeficiencyError.
        """
        return np.array(self._map.project(x, v)[0])

    def riemannian_gradient(self, f, x):
        """Tangential part of the ambient gradient of `f` at `x`, from one
        call of the field kernel of (M, f)."""
        x = np.asarray(x, dtype=float)
        kernel = compile_expression(f, self.ambient_dim, self.constraints)
        return TangentVector(x, kernel.gradient(x))

    def tangent_basis(self, x):
        """Rows: `dim` orthonormal ambient vectors spanning ker J(x).

        Deterministic in x: after `_checked_jacobian`'s rank check, the
        standard basis vectors projected by `project` are orthogonalized
        greedily, largest residual first, ties broken by coordinate index.
        """
        self._checked_jacobian(x)
        residuals = [np.array(self._map.project(x, e)[0])
                     for e in np.eye(self.ambient_dim).tolist()]
        basis = []
        for _ in range(self.dim):
            norms = np.array([np.linalg.norm(r) for r in residuals])
            pick = int(np.argmax(norms))
            if norms[pick] < 1e-8:
                raise RankDeficiencyError(
                    "tangent space collapsed while building a basis"
                )
            b = residuals[pick] / norms[pick]
            basis.append(b)
            for r in residuals:
                r -= b * (b @ r)
        return np.array(basis)

    def random_tangent(self, x, rng):
        """Unit tangent vector at x drawn from the projected Gaussian."""
        for _ in range(16):
            v = self.project_tangent(x, rng.standard_normal(self.ambient_dim))
            norm = np.linalg.norm(v)
            if norm > 1e-10:
                return v / norm
        raise RankDeficiencyError("could not draw a tangent direction")

    # -- retraction and sampling ----------------------------------------

    def retract(self, x, guard=0.1):
        """Project a near-manifold point back onto M.

        Gauss-Newton on F = 0 moving along the normal space, so the
        result is the locally nearest manifold point. The basin guard
        bounds the first correction step by guard * (1 + |x|); pass
        guard=None to disable it (used by the rejection sampler, which
        filters on |F| < SAMPLE_KEEP_TOL and simply discards failures).

        The iteration runs on Python floats, one call per iteration of
        the constraint map's generated `normal_step` for the values and
        the step. Raises RetractionError on a singular Gram matrix, a
        non-finite iterate, the guard, or RETRACT_MAX_ITER iterations.
        """
        return np.array(self.retract_floats(
            np.asarray(x, dtype=float).tolist(), guard))

    def retract_floats(self, y, guard=0.1):
        """`retract` of one point given and returned as a list of floats."""
        if guard is not None:
            bound = guard * (1.0 + math.sqrt(sum(v * v for v in y)))
        tol = self.constraint_tol
        for it in range(RETRACT_MAX_ITER):
            try:
                vals, step = self._map.normal_step(y)
            except RankDeficiencyError as exc:
                if self.is_on_manifold(y):
                    return y
                raise RetractionError(
                    "constraint Jacobian singular while retracting "
                    f"{np.array(y)}"
                ) from exc
            if all(abs(v) <= tol for v in vals):
                return y
            if it == 0 and guard is not None:
                size = math.sqrt(sum(v * v for v in step))
                if size > bound:
                    raise RetractionError(
                        "point outside the documented retraction basin "
                        f"(initial correction {size:.3e})"
                    )
            y = [a - b for a, b in zip(y, step)]
            if not all(map(math.isfinite, y)):
                raise RetractionError("retraction diverged to non-finite values")
        raise RetractionError(
            f"no convergence within {RETRACT_MAX_ITER} retraction iterations"
        )

    def retract_columns(self, cols):
        """`retract(x, guard=None)` of every column of an (n, N) array.

        Each column follows the same Gauss-Newton iteration as alone, with
        the same arithmetic: the constraint map's `normal_step` on the
        columns, each column bit for bit its point. Returns (points, ok);
        ok[j] is False where retracting column j alone would raise
        RetractionError (singular Gram matrix, non-finite iterate, or
        RETRACT_MAX_ITER iterations). A domain error of a constraint
        raises EvaluationError for the batch.
        """
        y = np.array(cols, dtype=float)
        ok = np.zeros(y.shape[1], dtype=bool)
        live = np.arange(y.shape[1])
        for _ in range(RETRACT_MAX_ITER):
            vals, steps = (stack_columns(a, len(live))
                           for a in self._map.normal_step(y[:, live]))
            done = np.max(np.abs(vals), axis=0) <= self.constraint_tol
            ok[live[done]] = True
            live, steps = live[~done], steps[:, ~done]
            if not len(live):
                break
            y[:, live] -= steps
            live = live[np.all(np.isfinite(y[:, live]), axis=0)]
        return y, ok

    def sample_points(self, count, seed):
        """`count` points on M as (count, ambient_dim) rows, roughly uniform.

        Rejection sampling: ambient draws in the bounding box are kept
        when every |F_i| < SAMPLE_KEEP_TOL, then retracted (`retract` with
        guard=None) and rank-checked as in `_checked_jacobian`; draws
        whose evaluation, retraction or rank check fails are discarded.
        Deterministic given the seed.

        The draws are made in blocks of SAMPLE_BLOCK with one
        `rng.random` call, the same stream as one call per draw. Each
        block is filtered as coordinate columns; its kept draws are
        retracted together, in draw order and only as many as are still
        needed, and rank-checked with one stacked SVD. Where a constraint
        raises for some draw, that filter or retraction runs one draw at
        a time, so only those draws are lost. The points are those of
        drawing, filtering and retracting one draw at a time, bit for
        bit where numpy's ufuncs agree with `math` (always for + - * /
        and sqrt).

        Draw i (counting from 1) raises RetractionError when
        i > 20000 * (points found before it + 1) + 10000, so a box that
        misses M fails at draw 30001 whatever the count.
        """
        if count < 0:
            raise ValueError("count must be at least 0")
        rng = np.random.default_rng(seed)
        lo = self.bounding_box[:, 0]
        span = self.bounding_box[:, 1] - self.bounding_box[:, 0]
        points = []
        drawn = 0
        while len(points) < count:
            block = lo + span * rng.random((SAMPLE_BLOCK, self.ambient_dim))
            ok, retracted = self._sample_block(block, count - len(points))
            # ok is False past the last point needed, but no draw there
            # can trip the limit: it grew by 20000 with that point.
            number = drawn + np.arange(1, SAMPLE_BLOCK + 1)
            before = len(points) + np.cumsum(ok) - ok
            over = np.flatnonzero(number > 20000 * (before + 1) + 10000)
            if len(over):
                raise RetractionError(
                    f"rejection sampling failed at draw {number[over[0]]} "
                    f"with {before[over[0]]} points found; check the "
                    "bounding box"
                )
            points.extend(retracted[ok])
            drawn += SAMPLE_BLOCK
        return np.array(points).reshape(-1, self.ambient_dim)

    def _sample_block(self, block, need):
        """(ok, points) for the draws in the rows of `block`.

        Kept draws are retracted in draw order until `need` of them
        survive, so ok is exact up to its last True; points holds the
        retracted rows where ok is True.
        """
        try:
            vals = self.values_and_jacobian_columns(block.T)[0]
        except EvaluationError:
            # Some draw is outside a constraint's domain: judge each alone.
            vals = np.full((self.n_constraints, len(block)), np.inf)
            for j, cand in enumerate(block):
                try:
                    vals[:, j] = self.constraint_values(cand)
                except EvaluationError:
                    pass
        kept = np.flatnonzero(np.all(np.abs(vals) < SAMPLE_KEEP_TOL, axis=0))
        ok = np.zeros(len(block), dtype=bool)
        points = block.copy()
        while need and len(kept):
            take, kept = kept[:need], kept[need:]
            points[take], ok[take] = self._retract_checked(block[take])
            need -= np.count_nonzero(ok[take])
        return ok, points

    def _retract_checked(self, rows):
        """Rows retracted with guard=None, and where they pass the rank check.

        Returns (points, ok) like `retract_columns`, in rows. Where a
        constraint raises for some row, each row is retracted alone.
        """
        try:
            cols, ok = self.retract_columns(rows.T)
            if ok.any():
                jac = self.values_and_jacobian_columns(cols[:, ok])[1]
                smallest = np.linalg.svd(jac, compute_uv=False)[:, -1]
                ok[ok] = smallest > self.rank_tol
            return cols.T, ok
        except EvaluationError:
            pass
        points = rows.copy()
        ok = np.zeros(len(rows), dtype=bool)
        for j, cand in enumerate(rows):
            try:
                points[j] = self.retract(cand, guard=None)
                self._checked_jacobian(points[j])
            except (RetractionError, RankDeficiencyError, EvaluationError):
                continue
            ok[j] = True
        return points, ok
