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

from .errors import RankDeficiencyError, RetractionError
from .linalg import float_norm
from .symbolics import Binary, Const, Power, Var
from .symbolics import compile_expression, evaluate_jet
from .symbolics.compile import RETRACT_MAX_ITER

DEFAULT_CONSTRAINT_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-6
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
        for name, tol in (("constraint_tol", constraint_tol),
                          ("rank_tol", rank_tol)):
            if not 0.0 < tol < math.inf:
                raise ValueError(f"{name} must be positive and finite")
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
        if (box.shape != (ambient_dim, 2) or not np.isfinite(box).all()
                or np.any(box[:, 0] >= box[:, 1])):
            raise ValueError("bounding_box must be finite with lo < hi")
        self.bounding_box = box
        # the norm of the box's corner farthest from 0, which sizes the
        # region a flow must stay in (`flow.ESCAPE_FACTOR`)
        self.box_radius = float(np.linalg.norm(np.abs(box).max(axis=1)))

    def sphere_cut(self, center, radius):
        """M ∩ S(center, radius), M with |x - center|^2 - radius^2 = 0, in
        the ball's box: in M's box the sampler would miss this thin set."""
        center, radius = [float(c) for c in center], float(radius)
        sphere = Const(-radius * radius)
        for i, c in enumerate(center, start=1):
            term = Power(Binary("-", Var(i), Const(c)), 2)
            sphere = Binary("+", sphere, term)
        return ImplicitManifold(self.ambient_dim, self.constraints + (sphere,),
                                self.constraint_tol, self.rank_tol,
                                [(c - radius, c + radius) for c in center])

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

    def constraint_hessians(self, x):
        """Ambient Hessian of each constraint (second-order jets): the
        jets reference for `kkt`'s constraint terms, kept here while the
        benchmark's tracer patches `evaluate_jet` in this module."""
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
        generated `project_rows` at one point, with one row. A singular
        Gram matrix raises RankDeficiencyError.
        """
        return np.array(self._map.project_rows(x, v))

    def riemannian_gradient(self, f, x):
        """Tangential part of the ambient gradient of `f` at `x`, from one
        call of the field kernel of (M, f)."""
        x = np.asarray(x, dtype=float)
        kernel = compile_expression(f, self.ambient_dim, self.constraints)
        return TangentVector(x, kernel.gradient(x))

    def tangent_basis(self, x):
        """Rows: `dim` orthonormal ambient vectors spanning ker J(x).

        Deterministic in x: after `_checked_jacobian`'s rank check, the
        standard basis vectors projected by one `project_rows` call are
        orthogonalized greedily, largest residual first, ties by index.
        """
        self._checked_jacobian(x)
        eye = np.eye(self.ambient_dim)
        residuals = np.reshape(self._map.project_rows(x, eye.ravel()), eye.shape)
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
        guard=None to disable it.

        The array wrapper of `_gauss_newton`: the same iteration, on
        Python floats. Raises RetractionError on a singular Gram matrix,
        a non-finite iterate, the guard, or RETRACT_MAX_ITER iterations.
        """
        return np.array(self._gauss_newton(
            np.asarray(x, dtype=float).tolist(), guard))

    def _gauss_newton(self, y, guard):
        """`retract`'s iteration on the float list y: the point as a list,
        or its error.

        The whole iteration is one call of the constraint map's generated
        `_gn` (`symbolics.compile`), whose loop body forms the values, the
        Jacobian rows and the Gauss-Newton step. It stops once every
        |F_i| <= constraint_tol, which a nan value never satisfies,
        before that point's step is formed. This is the one checked
        retraction: `retract`, the flow loop where its inline first
        iterate misses the tolerance, the transport substeps and the
        holonomy corners all call it.

        Where the body raised, the map's checked `value_and_grad` at that
        point raises a constraint's EvaluationError; if it evaluates, the
        Gram solve divided by zero, a RetractionError. On "guard", `_gn`
        gives the first step in place of the point, and its norm goes
        into the message. Every other status but "converged" is a
        RetractionError.
        """
        bound = math.inf if guard is None else guard * (1.0 + float_norm(y))
        point, status = self._map.gauss_newton()(
            self.constraint_tol, bound, *y)
        if status == "converged":
            return point
        if status == "failed":
            self._map.value_and_grad(point)  # raises a domain error
            raise RetractionError(
                "constraint Jacobian singular while retracting "
                f"{np.array(point)}"
            )
        if status == "guard":
            raise RetractionError(
                "point outside the documented retraction basin "
                f"(initial correction {float_norm(point):.3e})"
            )
        if status == "diverged":
            raise RetractionError("retraction diverged to non-finite values")
        raise RetractionError(
            f"no convergence within {RETRACT_MAX_ITER} retraction iterations"
        )

    def sample_points(self, count, seed):
        """`count` points on M as (count, ambient_dim) rows, roughly uniform.

        Rejection sampling: ambient draws in the bounding box are kept
        when every |F_i| < SAMPLE_KEEP_TOL, then retracted (`retract` with
        guard=None) and rank-checked as in `_checked_jacobian`; draws
        whose evaluation, retraction or rank check fails are discarded.
        Deterministic given the seed.

        The draws are made in blocks of SAMPLE_BLOCK with one
        `rng.random` call, the same stream as one call per draw. Each
        block is filtered by one `columns` call of the constraint values;
        its kept draws are retracted one at a time by the generated
        Gauss-Newton loop, in draw order and only as many as are still
        needed, and rank-checked with one `columns` call of the Jacobians
        and one stacked SVD. A draw where a constraint raises is flagged
        by `columns` and lost alone. The points are those of drawing,
        filtering and retracting one draw at a time, bit for bit.

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
        # a draw where a constraint raises has nan values, and is not kept
        vals = self._map.columns("value", block.T)[0]
        kept = np.flatnonzero(np.all(np.abs(vals) < SAMPLE_KEEP_TOL, axis=1))
        ok = np.zeros(len(block), dtype=bool)
        points = block.copy()
        while need and len(kept):
            take, kept = kept[:need], kept[need:]
            points[take], ok[take] = self._retract_checked(block[take])
            need -= np.count_nonzero(ok[take])
        return ok, points

    def _retract_checked(self, rows):
        """Rows retracted with guard=None, and where they pass the rank check.

        Returns (points, ok) in rows: each row is one `_gn` call, the
        iteration of `retract`, and ok where it converged and the
        Jacobian there evaluates (`columns` flags where it raises) and
        passes `_checked_jacobian`'s rank check. It reads `_gn`'s status
        itself, not `_gauss_newton`'s error, since a draw that fails is
        dropped, not raised.
        """
        gn = self._map.gauss_newton()
        points = rows.copy()
        ok = np.zeros(len(rows), dtype=bool)
        for j, y in enumerate(rows.tolist()):
            point, status = gn(self.constraint_tol, math.inf, *y)
            if status == "converged":
                points[j] = point
                ok[j] = True
        jac, failed = self._map.columns("value_and_grad", points[ok].T)
        ok[np.flatnonzero(ok)[failed]] = False
        k, n = self.n_constraints, self.ambient_dim
        smallest = np.linalg.svd(jac[~failed, k:].reshape(-1, k, n),
                                 compute_uv=False)[:, -1]
        ok[ok] = smallest > self.rank_tol
        return points, ok
