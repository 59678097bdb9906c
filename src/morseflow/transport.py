"""Parallel transport, holonomy curvature, and flow-invariance checks.

Transport of an orthonormal tangent frame uses midpoint double
projection per substep followed by a symmetric (polar) re-orthonormali-
zation. The polar step matters: it extracts exactly the rotation part of
the projection chain, so frames pick up no spurious in-plane rotation
from anisotropic shrinkage (plain Gram-Schmidt injects a first-order
bias that shows up as fake curvature on flat product manifolds).

Curvature is estimated from the holonomy of small retracted
parallelogram loops, Richardson-extrapolated over h and h/2. The
flow-invariance defect compares the curvature operator at a point
against the pullback of the operator at the flowed point evaluated on
the pushed plane; its t-derivative estimates the connection Lie
derivative along the flow direction (the flow runs along the negative
gradient, which flips the sign of the derivative but not its norm).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FlowError, NonMorseError
from .flow import FlowConfig
from .linalg import operator_norm, sym_inverse_sqrt
from .linearization import integrate_variational_multi


@dataclass
class TransportedFrame:
    """Frames transported along a trajectory's samples."""

    times: np.ndarray
    frames: list  # one (dim, n) array per sample, rows orthonormal tangent
    gram_drift_max: float  # deviation of output Grams from identity
    correction_bias_max: float  # largest pre-orthonormalization deviation


def _transport_matrix_step(m, frame, a, b):
    """Move frame rows from T_a M to T_b M through the chord midpoint."""
    mid = m.retract(0.5 * (a + b), guard=None)
    moved = np.array([m.project_tangent(mid, w) for w in frame])
    moved = np.array([m.project_tangent(b, w) for w in moved])
    gram = moved @ moved.T
    bias = float(np.max(np.abs(gram - np.eye(len(frame)))))
    return sym_inverse_sqrt(gram) @ moved, bias


def _transport_polyline(m, points, frame, max_substep):
    """Transport `frame` along retracted chords through `points`.

    Returns (frame at the end, worst per-substep bias). Long gaps are
    subdivided so each substep chord stays below max_substep.
    """
    worst = 0.0
    current = frame
    for a, b in zip(points[:-1], points[1:]):
        gap = float(np.linalg.norm(b - a))
        if gap == 0.0:
            continue
        pieces = max(1, int(math.ceil(gap / max_substep)))
        prev = a
        for s in range(1, pieces + 1):
            target = a + (s / pieces) * (b - a)
            target = b if s == pieces else m.retract(target, guard=None)
            current, bias = _transport_matrix_step(m, current, prev, target)
            worst = max(worst, bias)
            prev = target
    return current, worst


def parallel_transport(m, traj, frame0, max_substep=0.02):
    """Transport an orthonormal tangent frame along a trajectory.

    frame0 has dim rows, orthonormal and tangent at the trajectory
    start. The returned frames sit at every trajectory sample; inner
    products are preserved by construction and the pre-correction bias
    is logged.
    """
    frame0 = np.asarray(frame0, dtype=float)
    start = traj.points[0]
    if np.max(np.abs(frame0 @ frame0.T - np.eye(len(frame0)))) > 1e-7:
        raise ValueError("frame0 is not orthonormal")
    if np.max(np.abs(m.constraint_jacobian(start) @ frame0.T)) > 1e-7:
        raise ValueError("frame0 is not tangent at the trajectory start")
    frames = [frame0]
    worst_bias = 0.0
    gram_drift = float(np.max(np.abs(frame0 @ frame0.T - np.eye(len(frame0)))))
    for a, b in zip(traj.points[:-1], traj.points[1:]):
        nxt, bias = _transport_polyline(m, [a, b], frames[-1], max_substep)
        worst_bias = max(worst_bias, bias)
        frames.append(nxt)
        gram_drift = max(
            gram_drift,
            float(np.max(np.abs(nxt @ nxt.T - np.eye(len(nxt))))),
        )
    return TransportedFrame(
        times=traj.times.copy(),
        frames=frames,
        gram_drift_max=gram_drift,
        correction_bias_max=worst_bias,
    )


@dataclass(frozen=True)
class CurvatureSample:
    """Curvature operator of one tangent 2-plane, in an orthonormal frame."""

    point: np.ndarray
    u: np.ndarray
    v: np.ndarray
    operator: np.ndarray  # (dim, dim) matrix in `frame` coordinates
    norm: float
    frame: np.ndarray


def _loop_points(m, x, u, v, h, substeps):
    """Retracted parallelogram x -> x+hu -> x+hu+hv -> x+hv -> x."""
    x = np.asarray(x, dtype=float)
    corners = [
        x,
        m.retract(x + h * u, guard=None),
        m.retract(x + h * u + h * v, guard=None),
        m.retract(x + h * v, guard=None),
        x,
    ]
    points = [corners[0]]
    for a, b in zip(corners[:-1], corners[1:]):
        for s in range(1, substeps + 1):
            target = a + (s / substeps) * (b - a)
            points.append(b if s == substeps else m.retract(target, guard=None))
    return points


def _holonomy_operator(m, x, u, v, h, frame, substeps, max_substep):
    points = _loop_points(m, x, u, v, h, substeps)
    looped, _ = _transport_polyline(m, points, frame, max_substep)
    hol = frame @ looped.T  # hol[i, j] = <frame_i, looped_j>
    return (np.eye(len(frame)) - hol) / (h * h)


def holonomy_curvature(m, x, u, v, h=0.05, frame=None, substeps=8):
    """Curvature operator on the plane (u, v) from loop holonomy.

    u, v must be orthonormal tangent vectors at x and h in [1e-3, 1e-1].
    The loop estimate at h and h/2 is Richardson-combined to cancel the
    leading error term. The sign convention makes the sectional value
    <operator v, u> positive on a round sphere.
    """
    if not 1e-3 <= h <= 1e-1:
        raise ValueError("h must lie in [1e-3, 1e-1]")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if frame is None:
        frame = m.tangent_basis(x)
    max_substep = h  # legs are already cut into `substeps` pieces
    coarse = _holonomy_operator(m, x, u, v, h, frame, substeps, max_substep)
    fine = _holonomy_operator(m, x, u, v, h / 2, frame, substeps, max_substep)
    operator = 2.0 * fine - coarse
    return CurvatureSample(
        point=x,
        u=u,
        v=v,
        operator=operator,
        norm=operator_norm(operator),
        frame=frame,
    )


def sectional_value(sample):
    """<R(u, v) v, u> for the sample's own plane."""
    cu = sample.frame @ sample.u
    cv = sample.frame @ sample.v
    return float(cu @ sample.operator @ cv)


def _pushed_operator(m, f, x, u, v, t, direction, cfg, h, substeps):
    """Matrix of the pulled-back curvature on the pushed plane.

    Pushes (u, v) and an orthonormal frame from x along the flow for
    time t, evaluates the holonomy operator at the endpoint on the
    orthonormalized pushed plane, scales by the parallelogram area of
    the pushed pair, and expresses it in the transported frame (which is
    exactly the inverse-transport conjugation).
    """
    frame = m.tangent_basis(x)
    if t == 0.0:
        sample = holonomy_curvature(m, x, u, v, h, frame=frame,
                                    substeps=substeps)
        return sample.operator, frame
    cfg = (cfg or FlowConfig()).replace(t_max=t)
    times, points, blocks, _, _ = integrate_variational_multi(
        m, f, x, [u, v], cfg, direction=direction, capture=False
    )
    pushed_u = blocks[0][-1]
    pushed_v = blocks[1][-1]
    y = points[-1]
    nu = np.linalg.norm(pushed_u)
    if nu == 0.0:
        raise FlowError("pushed plane degenerated; shorten t")
    unit_u = pushed_u / nu
    perp = pushed_v - (pushed_v @ unit_u) * unit_u
    nv = np.linalg.norm(perp)
    if nv < 1e-12:
        raise FlowError("pushed plane degenerated; shorten t")
    unit_v = perp / nv
    area = nu * nv
    moved_frame, _ = _transport_polyline(m, points, frame, max_substep=h)
    sample = holonomy_curvature(m, y, unit_u, unit_v, h, frame=moved_frame,
                                substeps=substeps)
    return area * sample.operator, frame


def flow_invariance_defect(m, f, x, u, v, t, cfg=None, h=0.05, substeps=8):
    """Operator-norm mismatch between R at x and the pulled-back R.

    Zero (to estimator tolerance) exactly when the curvature operator is
    invariant under the flow for this plane and time.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    frame = m.tangent_basis(np.asarray(x, dtype=float))
    base = holonomy_curvature(m, x, u, v, h, frame=frame, substeps=substeps)
    pushed, _ = _pushed_operator(m, f, x, u, v, t, "forward", cfg, h, substeps)
    return operator_norm(base.operator - pushed)


def lie_derivative_estimate(m, f, x, u, v, cfg=None, h_t=1e-3, h=0.05,
                            substeps=8):
    """Norm of the t-derivative of the pulled-back curvature at t = 0.

    Centered difference between pullbacks at t = +h_t (forward flow) and
    t = -h_t (backward flow).
    """
    plus, _ = _pushed_operator(m, f, x, u, v, h_t, "forward", cfg, h, substeps)
    minus, _ = _pushed_operator(m, f, x, u, v, h_t, "backward", cfg, h, substeps)
    return operator_norm((plus - minus) / (2.0 * h_t))


@dataclass(frozen=True)
class FlatnessSample:
    point: np.ndarray
    curvature_norm: float
    lie_derivative_norm: float


@dataclass(frozen=True)
class FlatnessReport:
    """No-counterexample check: a vanishing connection Lie derivative
    along the flow must come with vanishing curvature."""

    samples: tuple
    curvature_max: float
    lie_derivative_max: float
    floor: float
    consistent: bool


def flatness_test(m, f, crits, sample_count, seed, cfg=None, floor=1e-2,
                  h=0.05, substeps=8):
    """Sample curvature and Lie-derivative norms; flag counterexamples.

    `consistent` is False only when the sampled Lie derivative stays
    below the floor while the sampled curvature rises above ten times
    the floor. Requires a nondegenerate critical point set (a scenario
    with a degenerate point certifies nothing).
    """
    crits = list(crits)
    if not crits or any(p.degenerate for p in crits):
        raise NonMorseError(
            "flatness test needs a nondegenerate critical point set"
        )
    if m.dim < 2:
        raise ValueError("curvature needs at least a 2-dimensional manifold")
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    points = m.sample_points(sample_count, seed)
    rng = np.random.default_rng((seed, 0x5EED))
    samples = []
    for x in points:
        u = m.random_tangent(x, rng)
        v = None
        for _ in range(16):
            cand = m.random_tangent(x, rng)
            perp = cand - (cand @ u) * u
            norm = np.linalg.norm(perp)
            if norm > 1e-6:
                v = perp / norm
                break
        if v is None:
            continue
        curv = holonomy_curvature(m, x, u, v, h, substeps=substeps).norm
        lie = lie_derivative_estimate(m, f, x, u, v, cfg=cfg, h=h,
                                      substeps=substeps)
        samples.append(FlatnessSample(
            point=x, curvature_norm=curv, lie_derivative_norm=lie))
    curv_max = max(s.curvature_norm for s in samples)
    lie_max = max(s.lie_derivative_norm for s in samples)
    return FlatnessReport(
        samples=tuple(samples),
        curvature_max=curv_max,
        lie_derivative_max=lie_max,
        floor=floor,
        consistent=not (lie_max < floor and curv_max > 10.0 * floor),
    )
