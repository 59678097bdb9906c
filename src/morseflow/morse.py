"""Critical points of f on M: location, classification, separation data.

The stationarity system {P(x) grad f(x) = 0 on M} is solved in its
multiplier form: grad f(x) = J(x)^T lam together with F(x) = 0. Both
systems have the same zero set when J has full rank, and the multiplier
form has an analytic Jacobian assembled from the generated second-order
jets of f and the constraints (`evaluate_jet`), so plain Newton
converges quadratically.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotCriticalError, TooFewCriticalPointsError
from .flow import GradientField
from .geometry import TangentVector
from .linalg import jacobi_eigh
from .symbolics import compile_expression, evaluate_jet

GRAD_TOL = 1e-8
DEGENERATE_TOL = 1e-6
DEDUPE_RADIUS = 1e-5
# Critical values closer than this are one level (roots carry ~1e-12).
VALUE_TIE_TOL = 1e-9


@dataclass(frozen=True)
class CriticalPoint:
    """One nondegenerate (or flagged) critical point of f restricted to M."""

    id: int
    location: np.ndarray
    value: float
    index: int
    eigenvalues: np.ndarray
    eigenvectors: tuple
    nondegeneracy_margin: float
    degenerate: bool
    grad_norm: float


@dataclass(frozen=True)
class SweepStats:
    n_starts: int
    n_converged: int
    n_discarded: int
    n_unique: int


class CriticalPointSet(Sequence):
    """Deduplicated critical points, ids ascending in critical value."""

    def __init__(self, points, stats):
        self.points = list(points)
        self.stats = stats

    def __getitem__(self, i):
        return self.points[i]

    def __len__(self):
        return len(self.points)

    def minima(self):
        return [p for p in self.points if p.index == 0]

    def any_degenerate(self):
        return any(p.degenerate for p in self.points)

    def euler_characteristic(self):
        return int(sum((-1) ** p.index for p in self.points))


def corrected_hessian(m, f, x):
    """Ambient matrix of the second derivative of f along M at x.

    Hess f minus the multiplier-weighted constraint Hessians; restricted
    to tangent vectors this is the quadratic form of the intrinsic
    Hessian (the multipliers carry exactly the normal component of
    grad f, i.e. the curvature-of-embedding correction).
    """
    jet = evaluate_jet(f, x)
    hess = jet.hessian.copy()
    jac = m.constraint_jacobian(x)
    lam, *_ = np.linalg.lstsq(jac.T, jet.gradient, rcond=None)
    for coef, cons_hess in zip(lam, m.constraint_hessians(x)):
        hess -= coef * cons_hess
    return 0.5 * (hess + hess.T)


def hessian_quadratic_form(m, f, x, v):
    """v^T (corrected Hessian) v for a tangent vector v at x."""
    h = corrected_hessian(m, f, x)
    v = np.asarray(v, dtype=float)
    return float(v @ h @ v)


def intrinsic_hessian(m, f, location, grad_tol=GRAD_TOL):
    """Intrinsic Hessian at a critical point, in the tangent basis."""
    hess, _ = _intrinsic_hessian_with_basis(m, f, location, grad_tol)
    return hess


def _intrinsic_hessian_with_basis(m, f, location, grad_tol=GRAD_TOL):
    location = np.asarray(location, dtype=float)
    gnorm = m.riemannian_gradient(f, location).norm()
    if gnorm > grad_tol:
        raise NotCriticalError(
            f"projected gradient norm {gnorm:.3e} exceeds {grad_tol:.1e} "
            f"at {location}"
        )
    basis = m.tangent_basis(location)
    ambient = corrected_hessian(m, f, location)
    hess = basis @ ambient @ basis.T
    return 0.5 * (hess + hess.T), basis


def classify_point(m, f, location, point_id=-1, grad_tol=GRAD_TOL,
                   degenerate_tol=DEGENERATE_TOL):
    """Build a CriticalPoint record (Hessian spectrum, index, margin)."""
    location = np.asarray(location, dtype=float)
    hess, basis = _intrinsic_hessian_with_basis(m, f, location, grad_tol)
    eigvals, eigvecs = jacobi_eigh(hess)
    vectors = tuple(
        TangentVector(location, basis.T @ eigvecs[:, j])
        for j in range(len(eigvals))
    )
    margin = float(np.min(np.abs(eigvals))) if len(eigvals) else 0.0
    value = compile_expression(f, m.ambient_dim).value(location)
    return CriticalPoint(
        id=point_id,
        location=location,
        value=float(value),
        index=int(np.sum(eigvals < 0.0)),
        eigenvalues=eigvals,
        eigenvectors=vectors,
        nondegeneracy_margin=margin,
        degenerate=margin <= degenerate_tol,
        grad_norm=m.riemannian_gradient(f, location).norm(),
    )


def _newton_solve(m, f, x0, max_iter=60, step_cap=0.5, res_tol=1e-11):
    """Newton on the multiplier system from one start; None on failure."""
    n = m.ambient_dim
    x = np.asarray(x0, dtype=float).copy()
    lam = None
    for _ in range(max_iter):
        jet = evaluate_jet(f, x)
        vals, jac = m.values_and_jacobian(x)
        if lam is None:
            lam, *_ = np.linalg.lstsq(jac.T, jet.gradient, rcond=None)
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


def find_critical_points(m, f, n_starts, seed, grad_tol=GRAD_TOL,
                         degenerate_tol=DEGENERATE_TOL,
                         dedupe_radius=DEDUPE_RADIUS):
    """Multi-start Newton sweep for all critical points of f on M.

    Starts are manifold samples; converged roots are sorted by
    coordinates, deduplicated at `dedupe_radius` in that order, and ids
    are assigned in ascending critical value. Values within
    VALUE_TIE_TOL of each other are ties, broken by coordinate order at
    1e-6 resolution (so rounding noise in a root cannot flip it), and
    ids are reproducible across seeds.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    converged = []
    n_failed = 0
    for start in m.sample_points(n_starts, seed):
        root = _newton_solve(m, f, start)
        if root is None:
            n_failed += 1
            continue
        converged.append(root)
    converged.sort(key=lambda p: tuple(p))
    unique = []
    for x in converged:
        if all(np.linalg.norm(x - u) > dedupe_radius for u in unique):
            unique.append(x)
    records = []
    for x in unique:
        try:
            records.append(
                classify_point(m, f, x, grad_tol=grad_tol,
                               degenerate_tol=degenerate_tol)
            )
        except NotCriticalError:
            n_failed += 1
    records.sort(key=lambda p: p.value)
    levels = []
    for p in records:
        if levels and p.value - levels[-1][-1].value <= VALUE_TIE_TOL:
            levels[-1].append(p)
        else:
            levels.append([p])
    records = [
        p for level in levels
        for p in sorted(level, key=lambda q: tuple(np.round(q.location, 6)))
    ]
    points = [
        CriticalPoint(
            id=i,
            location=p.location,
            value=p.value,
            index=p.index,
            eigenvalues=p.eigenvalues,
            eigenvectors=p.eigenvectors,
            nondegeneracy_margin=p.nondegeneracy_margin,
            degenerate=p.degenerate,
            grad_norm=p.grad_norm,
        )
        for i, p in enumerate(records)
    ]
    stats = SweepStats(
        n_starts=int(n_starts),
        n_converged=len(converged),
        n_discarded=n_failed,
        n_unique=len(points),
    )
    return CriticalPointSet(points, stats)


@dataclass(frozen=True)
class GeometricConstants:
    """Separation radius and gradient floor away from critical balls.

    r is half the minimum pairwise (chordal) critical point distance;
    c_floor is the sampled minimum of |P grad f| outside every ball of
    radius r/2 around a critical point.
    """

    r: float
    c_floor: float
    critical_locations: tuple
    n_floor_samples: int


def geometric_constants(m, f, crits, n_samples=2000, seed=0):
    crits = list(crits)
    if len(crits) < 2:
        samples = m.sample_points(max(n_samples, 1), seed)
        floor = _gradient_floor(m, f, samples)
        raise TooFewCriticalPointsError(
            "separation radius needs at least two critical points; "
            f"manifold-wide gradient floor is {floor:.6e}",
            manifold_floor=floor,
        )
    locs = [np.asarray(p.location, dtype=float) for p in crits]
    pairwise = [
        np.linalg.norm(a - b)
        for i, a in enumerate(locs)
        for b in locs[i + 1:]
    ]
    r = 0.5 * min(pairwise)
    samples = m.sample_points(n_samples, seed)
    radius = r / 2.0
    dist = np.linalg.norm(samples[:, None, :] - np.array(locs), axis=2)
    outside = np.all(dist > radius, axis=1)
    # This norm sums its squares in another order than np.linalg.norm of
    # one sample, so samples within rounding of a ball's edge take that.
    for i in np.flatnonzero(np.any(abs(dist - radius) <= 1e-9 * r, axis=1)):
        outside[i] = min(np.linalg.norm(samples[i] - q) for q in locs) > radius
    if not outside.any():
        raise TooFewCriticalPointsError(
            "every sample fell inside a critical ball; enlarge n_samples"
        )
    return GeometricConstants(
        r=float(r),
        c_floor=float(_gradient_floor(m, f, samples[outside])),
        critical_locations=tuple(locs),
        n_floor_samples=int(np.count_nonzero(outside)),
    )


def _gradient_floor(m, f, samples):
    """min |P grad f| over the samples (rows), as riemannian_gradient's norm.

    One projected-gradient call over all samples as columns finds the
    candidates, every sample within 1e-9 relative of the batched minimum;
    those few are recomputed with riemannian_gradient, whose bits can
    differ from the batch's by some ulps.
    """
    grad = GradientField(m, f).projected_gradient(samples.T.copy())
    norms = np.sqrt(sum(g * g for g in grad))
    close = np.flatnonzero(norms <= (1.0 + 1e-9) * np.min(norms))
    return min(m.riemannian_gradient(f, samples[i]).norm() for i in close)
