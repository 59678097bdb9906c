"""Implicit manifolds M = F^{-1}(0) in R^n with the induced metric.

Points live in ambient coordinates throughout; tangency and membership
are always checked against the constraint map. Distances are ambient
(chordal); on the compact manifolds handled here they are equivalent to
geodesic distances up to constants, and tolerances are calibrated for
the chordal convention.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, RankDeficiencyError, RetractionError
from .symbolics import compile_expression, evaluate_jet

DEFAULT_CONSTRAINT_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-6
TANGENCY_TOL = 1e-8
RETRACT_MAX_ITER = 25


def normal_part(jac, r):
    """J^T (J J^T)^{-1} r for one Jacobian J (k, n) and r (k,), or a stack.

    A stack is J (N, k, n) with r (N, k); each stacked product and solve
    gives the same bits as the 2-D one. The 2-D form is kept for one
    point because it runs about 15% faster there. A singular Gram matrix
    raises np.linalg.LinAlgError.
    """
    if jac.ndim == 2:
        return jac.T @ np.linalg.solve(jac @ jac.T, r)
    jac_t = jac.transpose(0, 2, 1)
    return (jac_t @ np.linalg.solve(jac @ jac_t, r[..., None]))[..., 0]


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
        self._compiled = [compile_expression(c, ambient_dim) for c in constraints]
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
        return np.array([c.value(x) for c in self._compiled])

    def constraint_jacobian(self, x):
        return np.array([c.gradient(x) for c in self._compiled])

    def values_and_jacobian(self, x):
        vals, rows = [], []
        for c in self._compiled:
            v, g = c.value_and_grad(x)
            vals.append(v)
            rows.append(g)
        return np.array(vals), np.array(rows)

    def values_and_jacobian_columns(self, cols):
        """Values (k, N) and Jacobians (N, k, n) at the columns of (n, N)."""
        count = cols.shape[1]
        vals = np.empty((self.n_constraints, count))
        jac = np.empty((count, self.n_constraints, self.ambient_dim))
        for c, comp in enumerate(self._compiled):
            vals[c], grad = comp.value_and_grad(cols)
            for i, g in enumerate(grad):
                jac[:, c, i] = g
        return vals, jac

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

    def tangent_projector(self, x):
        """Orthogonal projector P = I - J^T (J J^T)^{-1} J onto ker J(x)."""
        jac = self._checked_jacobian(x)
        gram = jac @ jac.T
        weights = np.linalg.solve(gram, jac)
        proj = np.eye(self.ambient_dim) - jac.T @ weights
        return 0.5 * (proj + proj.T)

    def project_tangent(self, x, v):
        """P(x) @ v without forming the projector."""
        jac = self.constraint_jacobian(x)
        try:
            return v - normal_part(jac, jac @ v)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(
                f"constraint Jacobian is rank deficient at {np.asarray(x)}"
            ) from exc

    def riemannian_gradient(self, f, x):
        """Tangential part of the ambient gradient of `f` at `x`."""
        grad = compile_expression(f, self.ambient_dim).gradient(x)
        x = np.asarray(x, dtype=float)
        return TangentVector(x, self.project_tangent(x, grad))

    def tangent_basis(self, x):
        """Rows: `dim` orthonormal ambient vectors spanning ker J(x).

        The basis is deterministic in x: projected standard basis vectors
        are orthogonalized greedily, largest residual first, ties broken
        by coordinate index.
        """
        proj = self.tangent_projector(x)
        residuals = [proj[:, i].copy() for i in range(self.ambient_dim)]
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

    def retract(self, x, guard=0.1, max_iter=RETRACT_MAX_ITER):
        """Project a near-manifold point back onto M.

        Gauss-Newton on F = 0 moving along the normal space, so the
        result is the locally nearest manifold point. The basin guard
        bounds the first correction step by guard * (1 + |x|); pass
        guard=None to disable it (used by the rejection sampler, which
        filters on |F| < 0.5 and simply discards failures).
        """
        y = np.asarray(x, dtype=float).copy()
        scale = 1.0 + np.linalg.norm(y)
        for it in range(max_iter):
            vals, jac = self.values_and_jacobian(y)
            if np.max(np.abs(vals)) <= self.constraint_tol:
                return y
            try:
                step = normal_part(jac, vals)
            except np.linalg.LinAlgError as exc:
                raise RetractionError(
                    f"constraint Jacobian singular while retracting {y}"
                ) from exc
            if it == 0 and guard is not None:
                if np.linalg.norm(step) > guard * scale:
                    raise RetractionError(
                        "point outside the documented retraction basin "
                        f"(initial correction {np.linalg.norm(step):.3e})"
                    )
            y -= step
            if not np.all(np.isfinite(y)):
                raise RetractionError("retraction diverged to non-finite values")
        raise RetractionError(
            f"no convergence within {max_iter} retraction iterations"
        )

    def retract_columns(self, cols):
        """`retract(x, guard=None)` of every column of an (n, N) array.

        Each column follows the same Gauss-Newton iteration as alone, with
        the same arithmetic. Returns (points, ok); ok[j] is False where
        retracting column j alone would raise RetractionError (singular
        Gram matrix, non-finite iterate, or RETRACT_MAX_ITER iterations).
        """
        y = np.array(cols, dtype=float)
        ok = np.zeros(y.shape[1], dtype=bool)
        live = np.arange(y.shape[1])
        for _ in range(RETRACT_MAX_ITER):
            vals, jac = self.values_and_jacobian_columns(y[:, live])
            done = np.max(np.abs(vals), axis=0) <= self.constraint_tol
            ok[live[done]] = True
            live, vals, jac = live[~done], vals[:, ~done], jac[~done]
            if not len(live):
                break
            try:
                steps = normal_part(jac, vals.T)
            except np.linalg.LinAlgError:
                # Some Gram matrix is singular: those columns fail.
                steps = np.full((len(live), self.ambient_dim), np.nan)
                for j in range(len(live)):
                    try:
                        steps[j] = normal_part(jac[j:j + 1], vals.T[j:j + 1])
                    except np.linalg.LinAlgError:
                        pass
            y[:, live] -= steps.T
            live = live[np.all(np.isfinite(y[:, live]), axis=0)]
        return y, ok

    def sample_points(self, count, seed, keep_tol=0.5):
        """`count` points on M, roughly uniform for acceptance purposes.

        Rejection sampling: ambient draws in the bounding box are kept
        when every |F_i| < keep_tol, then retracted; draws whose
        retraction fails are discarded. Deterministic given the seed.
        The draws allowed grow with the points found, 20000 per point
        plus 10000, so a box that misses M fails after 30000 draws
        whatever the count.
        """
        rng = np.random.default_rng(seed)
        lo = self.bounding_box[:, 0]
        span = self.bounding_box[:, 1] - self.bounding_box[:, 0]
        points = []
        attempts = 0
        while len(points) < count:
            attempts += 1
            if attempts > 20000 * (len(points) + 1) + 10000:
                raise RetractionError(
                    "rejection sampling failed; check the bounding box"
                )
            cand = lo + span * rng.random(self.ambient_dim)
            try:
                if np.max(np.abs(self.constraint_values(cand))) >= keep_tol:
                    continue
                y = self.retract(cand, guard=None)
                self._checked_jacobian(y)
            except (RetractionError, RankDeficiencyError, EvaluationError):
                continue
            points.append(y)
        return np.array(points)
