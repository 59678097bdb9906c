"""Critical points of f on M: location, classification, separation data.

The stationarity system {P(x) grad f(x) = 0 on M} is solved in its
multiplier form: grad f(x) = J(x)^T lam together with F(x) = 0. Both
systems have the same zero set when J has full rank, and the multiplier
form has an analytic Jacobian, the KKT matrix [[H_lam, -J^T], [J, 0]]
with H_lam = Hess f - sum_i lam_i Hess F_i (Nocedal & Wright, Numerical
Optimization, ch. 18), so plain Newton converges quadratically. The
census runs Newton from all its starts at once: one call of the field
kernel's generated `kkt_columns` per iteration gives every live start
its blocks, and numpy's stacked solve takes their steps.
`classify_point` reads f, P grad f and lam = (J J^T)^{-1} J grad f from
one field-kernel `value_and_grad` call and H_lam from one `kkt` call at
that lam, which carries the normal part of grad f (the Weingarten
correction: Absil, Mahony & Trumpf, GSI 2013). Every multiplier is read
from the field kernel, as the Gram weights of its projection: one point
call, or one `columns` call for many points (`_multipliers`).
`corrected_hessian` forms H_lam from the jets (`evaluate_jet`).
"""

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotCriticalError, TooFewCriticalPointsError
from .geometry import TangentVector
from .linalg import jacobi_eigh, row_norms
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

    def euler_characteristic(self):
        return int(sum((-1) ** p.index for p in self.points))


def corrected_hessian(m, f, x):
    """Ambient matrix of the second derivative of f along M at x.

    Hess f minus the multiplier-weighted constraint Hessians; restricted
    to tangent vectors this is the quadratic form of the intrinsic
    Hessian (the multipliers carry exactly the normal component of
    grad f, i.e. the curvature-of-embedding correction), read from one
    point call of the field kernel. A singular Gram matrix raises
    RankDeficiencyError. The jets reference for the field kernel's
    `kkt`, which every computing path reads; it stays here while the
    benchmark's tracer patches `evaluate_jet` in this module.
    """
    jet = evaluate_jet(f, x)
    hess = jet.hessian.copy()
    kernel = compile_expression(f, m.ambient_dim, m.constraints)
    lam = kernel.value_and_grad(x)[2]
    for coef, cons_hess in zip(lam, m.constraint_hessians(x)):
        hess -= coef * cons_hess
    return 0.5 * (hess + hess.T)


def intrinsic_hessian(m, f, location):
    """Intrinsic Hessian at a critical point, in the tangent basis."""
    return _intrinsic_hessian_with_basis(m, f, location)[0]


def _intrinsic_hessian_with_basis(m, f, location):
    """(intrinsic Hessian, tangent basis rows, |P grad f|, f) at a point
    whose projected gradient norm is at most GRAD_TOL, from one
    `value_and_grad` and one `kkt` call (at its lam) of the field kernel."""
    location = np.asarray(location, dtype=float)
    kernel = compile_expression(f, m.ambient_dim, m.constraints)
    value, grad, lam = kernel.value_and_grad(location)
    gnorm = float(np.linalg.norm(grad))
    if gnorm > GRAD_TOL:
        raise NotCriticalError(
            f"projected gradient norm {gnorm:.3e} exceeds {GRAD_TOL:.1e} "
            f"at {location}"
        )
    basis = m.tangent_basis(location)
    hess = basis @ kernel.kkt(location, lam)[4] @ basis.T
    return 0.5 * (hess + hess.T), basis, gnorm, value


def classify_point(m, f, location):
    """CriticalPoint record (spectrum, index, margin), id -1 until a census."""
    location = np.asarray(location, dtype=float)
    hess, basis, gnorm, value = _intrinsic_hessian_with_basis(m, f, location)
    eigvals, eigvecs = jacobi_eigh(hess)
    vectors = tuple(
        TangentVector(location, basis.T @ eigvecs[:, j])
        for j in range(len(eigvals))
    )
    margin = float(np.min(np.abs(eigvals))) if len(eigvals) else 0.0
    return CriticalPoint(
        id=-1,
        location=location,
        value=float(value),
        index=int(np.sum(eigvals < 0.0)),
        eigenvalues=eigvals,
        eigenvectors=vectors,
        nondegeneracy_margin=margin,
        degenerate=margin <= DEGENERATE_TOL,
        grad_norm=gnorm,
    )


def _lstsq(a, b):
    """numpy's least-squares solution, or nan where a or b is not finite:
    LAPACK's SVD may then fail to converge, or not return at all."""
    if np.isfinite(a).all() and np.isfinite(b).all():
        try:
            return np.linalg.lstsq(a, b, rcond=None)[0]
        except np.linalg.LinAlgError:
            pass
    return np.full(a.shape[1], np.nan)


def _kkt_step(kkt, rhs):
    """One start's Newton step: numpy's solve, and lstsq where the KKT
    matrix is singular."""
    try:
        return np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return _lstsq(kkt, rhs)


def _multipliers(m, f, x):
    """The multipliers of f at the rows of x, a C-contiguous (N, k)
    array, from one `columns` call of the field kernel's
    `value_and_grad`: each row the point call's lam bits (where numpy
    agrees with `math`), nan where that call raises."""
    kernel = compile_expression(f, m.ambient_dim, m.constraints)
    rows = kernel.columns("value_and_grad", x.T)[0]
    return np.ascontiguousarray(rows[:, 1 + m.ambient_dim:])


def _newton_sweep(m, f, starts, max_iter=60, step_cap=0.5, res_tol=1e-11):
    """Newton on the multiplier system from every start (row) at once.

    Each iteration makes one call of the field kernel's `kkt_columns` for
    all live starts, forms the residual [grad f - J^T lam, F] and the KKT
    matrix [[H_lam, -J^T], [J, 0]], and takes one stacked solve. A start
    is done when its residual is below `res_tol` (its root), and is
    dropped as None when its iterate is not finite or leaves the ball of
    radius 1e6, or after `max_iter` iterations. The first multipliers
    come from one `_multipliers` call, nan where J J^T is singular (so
    the start is dropped at its first step). Each start takes its
    steps as it would alone: the matvec, the solve and the step norms
    are numpy's per-row operations. A start whose evaluation fails is
    dropped as None too; only when no start converged does the
    lowest-index one raise its EvaluationError at the point where it
    failed, so a function undefined on all of M still names its error.
    """
    n, k = m.ambient_dim, m.n_constraints
    kernel = compile_expression(f, n, m.constraints)
    roots = [None] * len(starts)
    failed = []
    live = np.arange(len(starts))
    x = np.array(starts, dtype=float)
    lam = _multipliers(m, f, x)

    def evaluate():
        """grad f, J, F and H_lam of the live starts, after dropping (and
        recording) those whose evaluation fails."""
        nonlocal live, x, lam
        blocks, bad = kernel.kkt_columns(x.T, lam.T)
        if bad.any():
            failed.extend(zip(live[bad], x[bad], lam[bad]))
            live, x, lam = live[~bad], x[~bad], lam[~bad]
            blocks = [block[~bad] for block in blocks]
        return blocks[1:]

    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            if not len(live):
                break
            grad, jac, vals, hess = evaluate()
            # J^T lam as numpy's matvec of one start's (k, n) Jacobian
            # forms it, which needs each start's rows contiguous.
            jac = np.ascontiguousarray(jac)
            jac_t = jac.transpose(0, 2, 1)
            res = np.concatenate(
                [grad - (jac_t @ lam[:, :, None])[:, :, 0], vals], axis=1)
            done = np.max(np.abs(res), axis=1) < res_tol
            for s, root in zip(live[done], x[done]):
                roots[s] = root
            go = ~done
            live, x, lam, res = live[go], x[go], lam[go], res[go]
            kkt = np.zeros((len(live), n + k, n + k))
            kkt[:, :n, :n] = hess[go]
            kkt[:, :n, n:] = -jac_t[go]
            kkt[:, n:, :n] = jac[go]
            try:
                delta = np.linalg.solve(kkt, -res[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                delta = np.array([_kkt_step(a, -b) for a, b in zip(kkt, res)])
            norm = row_norms(delta[:, :n])
            big = norm > step_cap
            delta[big] = delta[big] * (step_cap / norm[big])[:, None]
            x = x + delta[:, :n]
            lam = lam + delta[:, n:]
            keep = np.all(np.isfinite(x), axis=1) & ~(row_norms(x) > 1e6)
            live, x, lam = live[keep], x[keep], lam[keep]
    if failed and all(root is None for root in roots):
        # The point code raises where the columns failed.
        _, at, lam_at = min(failed, key=lambda item: item[0])
        kernel.kkt(at, lam_at)
    return roots


def find_critical_points(m, f, n_starts, seed):
    """Multi-start Newton sweep for all critical points of f on M.

    Starts are manifold samples; converged roots are sorted by
    coordinates, deduplicated at DEDUPE_RADIUS in that order, and ids
    are assigned in ascending critical value. Values within
    VALUE_TIE_TOL of each other are ties, broken by coordinate order at
    1e-6 resolution (so rounding noise in a root cannot flip it), and
    ids are reproducible across seeds.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    roots = _newton_sweep(m, f, m.sample_points(n_starts, seed))
    converged = sorted((x for x in roots if x is not None), key=tuple)
    n_failed = len(roots) - len(converged)
    # Each root against every one kept so far, in coordinate order.
    kept = np.empty((len(converged), m.ambient_dim))
    count = 0
    for x in converged:
        if np.all(row_norms(x - kept[:count]) > DEDUPE_RADIUS):
            kept[count] = x
            count += 1
    unique = list(kept[:count])
    records = []
    for x in unique:
        try:
            records.append(classify_point(m, f, x))
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
    points = [dataclasses.replace(p, id=i) for i, p in enumerate(records)]
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
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    crits = list(crits)
    if len(crits) < 2:
        samples = m.sample_points(n_samples, seed)
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
    # each the bits of np.linalg.norm of one sample's difference
    dist = row_norms((samples[:, None] - np.array(locs))
                     .reshape(-1, m.ambient_dim))
    outside = np.all(dist.reshape(len(samples), -1) > r / 2.0, axis=1)
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

    One `columns` call of the field kernel over all samples finds the
    candidates, every sample within 1e-9 relative of the batched minimum;
    those few are recomputed with riemannian_gradient, whose bits can
    differ from the batch's by some ulps. The first sample where the
    kernel raises raises its error through riemannian_gradient.
    """
    kernel = compile_expression(f, m.ambient_dim, m.constraints)
    rows, failed = kernel.columns("value_and_grad", samples.T.copy())
    if failed.any():
        m.riemannian_gradient(f, samples[np.argmax(failed)])  # raises
    norms = np.sqrt(sum(g * g for g in rows[:, 1:1 + m.ambient_dim].T))
    close = np.flatnonzero(norms <= (1.0 + 1e-9) * np.min(norms))
    return min(m.riemannian_gradient(f, samples[i]).norm() for i in close)
