"""Parallel transport, holonomy curvature, and flow-invariance checks.

Transport of an orthonormal tangent frame uses midpoint double
projection per substep followed by a symmetric (polar) re-orthonormali-
zation. The polar step matters: it extracts exactly the rotation part of
the projection chain, so frames pick up no spurious in-plane rotation
from anisotropic shrinkage (plain Gram-Schmidt injects a first-order
bias that shows up as fake curvature on flat product manifolds).

A substep runs on Python floats from start to end: the retraction of
the chord midpoint (`ImplicitManifold._gauss_newton`, one call of the
map's generated `_gn`), the constraint map's generated row projection
at the midpoint and at the target, one Gram solve shared by all rows,
and the generated polar step of `linalg.polar_function` (the Gram
triangle, the bias, `jacobi_eigh`'s rotations and G^{-1/2} times the
rows). The frame stays a flat list of floats along a polyline and
becomes an array only where a caller needs one: at each
`parallel_transport` sample and at the end of a loop.

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

from .errors import FlowError, NonMorseError, RankDeficiencyError
from .flow import FlowConfig
from .linalg import operator_norm, polar_function
from .linearization import integrate_variational_multi
from .symbolics.compile import _FAILURES

MAX_SUBSTEP = 0.02  # longest chord of one `parallel_transport` substep
LOOP_H = 0.05  # side of a holonomy loop
LOOP_SUBSTEPS = 8  # retracted pieces per side of a loop
LIE_H_T = 1e-3  # half-width in t of the Lie-derivative difference
FLATNESS_FLOOR = 1e-2


@dataclass
class TransportedFrame:
    """Frames transported along a trajectory's samples."""

    times: np.ndarray
    frames: list  # one (dim, n) array per sample, rows orthonormal tangent
    gram_drift_max: float  # deviation of output Grams from identity
    correction_bias_max: float  # largest pre-orthonormalization deviation


def _chord(a, b, frac):
    """a + frac (b - a) for lists of floats, as numpy forms it per entry."""
    return [p + frac * (q - p) for p, q in zip(a, b)]


def _transport_polyline(m, points, frame, max_substep):
    """Transport `frame` along retracted chords through `points`.

    Points are lists of floats and the frame is d * n floats, row after
    row. Returns (the frame at every point, the given frame first, each
    a flat list of floats; the largest substep bias, 0.0 for a path
    without a substep). Long gaps are subdivided so each substep chord
    stays below max_substep. A substep moves the rows from T_a M to T_b M
    through the retracted chord midpoint, projecting them there and at b
    with one call of the map's row projection each, then takes the polar
    factor (`polar_function`).

    Retractions are the checked `m._gauss_newton(y, None)`, which raises
    the named error. The projections call the map's unchecked
    `rows_function(d)`, as the flow loop does, and one that raises goes
    to the checked `project_rows`, which raises the named error.
    """
    d = len(frame) // m.ambient_dim
    retract = m._gauss_newton
    rows = m._map.rows_function(d)
    polar = polar_function(d, m.ambient_dim)
    frames, biases = [frame], []
    for a, b in zip(points[:-1], points[1:]):
        gap = math.dist(a, b)
        pieces = max(1, int(math.ceil(gap / max_substep))) if gap else 0
        prev = a
        for s in range(1, pieces + 1):
            target = (b if s == pieces
                      else retract(_chord(a, b, s / pieces), None))
            mid = retract([0.5 * (p + q) for p, q in zip(prev, target)], None)
            try:
                projected = rows(*target, *rows(*mid, *frame))
            except _FAILURES:
                project = m._map.project_rows
                project(target, project(mid, frame))  # raises its error
            frame, bias = polar(*projected)
            biases.append(bias)
            prev = target
        frames.append(frame)
    return frames, float(np.max(biases)) if biases else 0.0


def parallel_transport(m, traj, frame0):
    """Transport an orthonormal tangent frame along a trajectory.

    frame0 has dim rows, orthonormal and tangent at the trajectory
    start. One `_transport_polyline` pass over the samples gives the
    frame at every sample; inner products are preserved by construction,
    and the largest deviation of a frame's Gram matrix from I and the
    largest pre-correction bias are logged.
    """
    frame0 = np.asarray(frame0, dtype=float)
    start = traj.points[0]
    # written so that a nan fails them
    if not np.max(np.abs(frame0 @ frame0.T - np.eye(len(frame0)))) <= 1e-7:
        raise ValueError("frame0 is not orthonormal")
    if not np.max(np.abs(m.constraint_jacobian(start) @ frame0.T)) <= 1e-7:
        raise ValueError("frame0 is not tangent at the trajectory start")
    flat, worst_bias = _transport_polyline(
        m, traj.points.tolist(), frame0.ravel().tolist(), MAX_SUBSTEP)
    frames = [np.array(f).reshape(frame0.shape) for f in flat]
    eye = np.eye(len(frame0))
    return TransportedFrame(
        times=traj.times.copy(),
        frames=frames,
        gram_drift_max=float(np.max(
            [np.max(np.abs(f @ f.T - eye)) for f in frames])),
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


def _holonomy_operator(m, x, u, v, h, frame):
    """(I - holonomy) / h^2 of the retracted parallelogram x -> x+hu ->
    x+hu+hv -> x+hv -> x, each side cut into LOOP_SUBSTEPS retracted
    pieces, so the substep bound LOOP_H cuts no further."""
    corners = [m._gauss_newton(c.tolist(), None)
               for c in (x + h * u, x + h * u + h * v, x + h * v)]
    corners = [x.tolist(), *corners, x.tolist()]
    points = [corners[0]]
    for a, b in zip(corners[:-1], corners[1:]):
        for s in range(1, LOOP_SUBSTEPS):
            points.append(m._gauss_newton(
                _chord(a, b, s / LOOP_SUBSTEPS), None))
        points.append(b)
    looped = _transport_polyline(m, points, frame.ravel().tolist(),
                                 LOOP_H)[0][-1]
    # hol[i, j] = <frame_i, looped_j>
    hol = frame @ np.array(looped).reshape(frame.shape).T
    return (np.eye(len(frame)) - hol) / (h * h)


def holonomy_curvature(m, x, u, v, frame=None):
    """Curvature operator on the plane (u, v) from loop holonomy.

    u, v must be orthonormal tangent vectors at x. The loop estimate at
    LOOP_H and LOOP_H / 2 is Richardson-combined to cancel the leading
    error term. The sign convention makes the sectional value
    <operator v, u> positive on a round sphere.
    """
    x, u, v = (np.asarray(a, dtype=float) for a in (x, u, v))
    if frame is None:
        frame = m.tangent_basis(x)
    coarse = _holonomy_operator(m, x, u, v, LOOP_H, frame)
    fine = _holonomy_operator(m, x, u, v, LOOP_H / 2, frame)
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


def _pushed_operator(m, f, x, u, v, t, direction, cfg):
    """Matrix of the pulled-back curvature on the pushed plane.

    Pushes (u, v) and an orthonormal frame from x along the flow for
    time t, evaluates the holonomy operator at the endpoint on the
    orthonormalized pushed plane, scales by the parallelogram area of
    the pushed pair, and expresses it in the transported frame (which is
    exactly the inverse-transport conjugation).
    """
    frame = m.tangent_basis(x)
    if t == 0.0:
        return holonomy_curvature(m, x, u, v, frame=frame).operator
    cfg = (cfg or FlowConfig()).replace(t_max=t)
    _, points, blocks, _, _ = integrate_variational_multi(
        m, f, x, [u, v], cfg, direction=direction, capture=False
    )
    pushed_u, pushed_v = blocks[0][-1], blocks[1][-1]
    nu = np.linalg.norm(pushed_u)
    if nu == 0.0:
        raise FlowError("pushed plane degenerated; shorten t")
    unit_u = pushed_u / nu
    perp = pushed_v - (pushed_v @ unit_u) * unit_u
    nv = np.linalg.norm(perp)
    if nv < 1e-12:
        raise FlowError("pushed plane degenerated; shorten t")
    moved = _transport_polyline(m, points.tolist(), frame.ravel().tolist(),
                                LOOP_H)[0][-1]
    sample = holonomy_curvature(m, points[-1], unit_u, perp / nv,
                                frame=np.array(moved).reshape(frame.shape))
    return nu * nv * sample.operator


def flow_invariance_defect(m, f, x, u, v, t, cfg=None):
    """Operator-norm mismatch between R at x and the pulled-back R.

    Zero (to estimator tolerance) exactly when the curvature operator is
    invariant under the flow for this plane and time.
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    base = holonomy_curvature(m, x, u, v)
    pushed = _pushed_operator(m, f, x, u, v, t, "forward", cfg)
    return operator_norm(base.operator - pushed)


def lie_derivative_estimate(m, f, x, u, v, cfg=None):
    """Norm of the t-derivative of the pulled-back curvature at t = 0.

    Centered difference between pullbacks at t = +LIE_H_T (forward flow)
    and t = -LIE_H_T (backward flow).
    """
    plus = _pushed_operator(m, f, x, u, v, LIE_H_T, "forward", cfg)
    minus = _pushed_operator(m, f, x, u, v, LIE_H_T, "backward", cfg)
    return operator_norm((plus - minus) / (2.0 * LIE_H_T))


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


def tangent_plane(m, x, rng):
    """An orthonormal pair (u, v) of random tangent vectors at x: u one
    `random_tangent` draw, v the first of up to 16 more whose part off u
    has norm > 1e-6, normalized; RankDeficiencyError if none has."""
    u = m.random_tangent(x, rng)
    for _ in range(16):
        cand = m.random_tangent(x, rng)
        perp = cand - (cand @ u) * u
        norm = np.linalg.norm(perp)
        if norm > 1e-6:
            return u, perp / norm
    raise RankDeficiencyError("could not draw a tangent plane")


def flatness_test(m, f, crits, sample_count, seed, cfg=None):
    """Sample curvature and Lie-derivative norms; flag counterexamples.

    `consistent` holds when the largest sampled Lie derivative reaches
    FLATNESS_FLOOR or the largest sampled curvature stays within ten
    times that floor, so a nan maximum reads inconsistent. Requires a
    nondegenerate critical point set (a scenario with a degenerate point
    certifies nothing).
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
        u, v = tangent_plane(m, x, rng)
        samples.append(FlatnessSample(
            point=x, curvature_norm=holonomy_curvature(m, x, u, v).norm,
            lie_derivative_norm=lie_derivative_estimate(m, f, x, u, v, cfg)))
    curv_max = float(np.max([s.curvature_norm for s in samples]))
    lie_max = float(np.max([s.lie_derivative_norm for s in samples]))
    return FlatnessReport(
        samples=tuple(samples),
        curvature_max=curv_max,
        lie_derivative_max=lie_max,
        floor=FLATNESS_FLOOR,
        consistent=(lie_max >= FLATNESS_FLOOR
                    or curv_max <= 10.0 * FLATNESS_FLOOR),
    )
