"""Negative gradient flow on an implicit manifold.

One embedded Cash-Karp 5(4) stepper steps the ambient ODE
dx/dt = -+ P(x) grad f(x) over an augmented state: the point, then the
pushforward vectors of the linearized flow (none for the plain flow).
Every accepted point is retracted back onto M and the vectors are
re-projected by `GradientField.project`, the one tangent projection,
which also builds the field. Constraint drift before retraction is
monitored and must stay within an order of magnitude of the manifold
tolerance.

A trajectory terminates Converged once the projected gradient falls
below the capture threshold within the capture radius of a registered
critical point; a small gradient near no registered point is reported
as Stalled (an unregistered critical point upstream).
"""

import dataclasses
import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import (
    FlowError, NotConvergedError, RankDeficiencyError, RetractionError,
)
from .symbolics import compile_expression

# Cash-Karp tableau: 5th order propagated, 4th order for the error gap.
_CK_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_ERR = tuple(
    b5 - b4
    for b5, b4 in zip(
        _CK_B5,
        (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4),
    )
)


@dataclass(frozen=True)
class FlowConfig:
    """Adaptive step control and capture thresholds."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    t_max: float = 200.0
    capture_grad_tol: float = 1e-7
    capture_radius: float = 1e-3
    max_step: float = 5.0
    safety: float = 0.9
    min_scale: float = 0.2
    max_scale: float = 5.0

    def __post_init__(self):
        for name in (
            "rel_tol", "abs_tol", "t_max", "capture_grad_tol",
            "capture_radius", "max_step", "safety", "min_scale", "max_scale",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    def replace(self, **changes):
        return dataclasses.replace(self, **changes)

    @staticmethod
    def from_constants(consts, **overrides):
        """Defaults with the capture radius tied to the separation radius."""
        radius = min(consts.r / 2.0, 1e-3)
        cfg = FlowConfig(capture_radius=radius).replace(**overrides)
        if cfg.capture_radius >= consts.r:
            raise ValueError("capture_radius must stay below the separation radius")
        return cfg


@dataclass(frozen=True)
class Terminal:
    kind: str  # "converged" | "max_time" | "stalled"
    critical_point_id: int | None = None

    @property
    def converged(self):
        return self.kind == "converged"


@dataclass
class FlowStats:
    steps: int = 0
    rejected: int = 0
    retraction_halvings: int = 0
    max_constraint_drift: float = 0.0
    monotone: bool = True


@dataclass
class Trajectory:
    """Accepted samples of one flow line plus its terminal state."""

    times: np.ndarray
    points: np.ndarray
    f_values: np.ndarray
    grad_norms: np.ndarray
    terminal: Terminal
    stats: FlowStats
    direction: str

    def __len__(self):
        return len(self.times)

    @property
    def start(self):
        return self.points[0]

    @property
    def end(self):
        return self.points[-1]


class GradientField:
    """Tangent projection on M and the projected gradient field of f.

    Works on plain float lists; `projected_gradient` is `project` applied
    to grad f. The one- and two-constraint cases (the whole catalog)
    avoid numpy dispatch entirely, which matters at a few million field
    evaluations per basin sweep. A rank-deficient Jacobian raises
    RankDeficiencyError.
    """

    def __init__(self, m, f):
        self.manifold = m
        self.function = f
        self._f = compile_expression(f, m.ambient_dim)
        self._constraints = [
            compile_expression(c, m.ambient_dim) for c in m.constraints
        ]
        self.n = m.ambient_dim
        self.k = len(self._constraints)

    def f_value(self, xs):
        return self._f.value(xs)

    def projected_gradient(self, xs):
        """P(x) grad f(x) as a list of floats."""
        return self.project(xs, self._f.value_and_grad(xs)[1])

    def project(self, xs, vec):
        """Tangential part of `vec` at the point xs (float-list based)."""
        try:
            if self.k == 1:
                _, j = self._constraints[0].value_and_grad(xs)
                jj = 0.0
                jv = 0.0
                for a, b in zip(j, vec):
                    jj += a * a
                    jv += a * b
                w = jv / jj
                return [b - w * a for a, b in zip(j, vec)]
            if self.k == 2:
                _, j1 = self._constraints[0].value_and_grad(xs)
                _, j2 = self._constraints[1].value_and_grad(xs)
                a11 = a12 = a22 = r1 = r2 = 0.0
                for u, v, b in zip(j1, j2, vec):
                    a11 += u * u
                    a12 += u * v
                    a22 += v * v
                    r1 += u * b
                    r2 += v * b
                det = a11 * a22 - a12 * a12
                w1 = (a22 * r1 - a12 * r2) / det
                w2 = (a11 * r2 - a12 * r1) / det
                return [b - w1 * u - w2 * v for u, v, b in zip(j1, j2, vec)]
        except ZeroDivisionError:
            raise RankDeficiencyError(
                f"constraint Jacobian is rank deficient at {list(xs)}"
            ) from None
        return list(self.manifold.project_tangent(np.asarray(xs), np.asarray(vec)))


def _norm(vec):
    return math.sqrt(sum(v * v for v in vec))


def _sign(direction):
    """Sign of the field: -1 descends f (forward), +1 ascends (backward)."""
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    return -1.0 if direction == "forward" else 1.0


def _start_point(m, x0):
    x = np.asarray(x0, dtype=float)
    return x if m.is_on_manifold(x) else m.retract(x)


def _cash_karp(field, rhs, state, x_norm, cfg, crits=None, capture=True):
    """Step the flat state [x, v_1, ..., v_j] until its terminal.

    `rhs(state)` is the state's derivative; its first n entries are the
    signed field, whose norm at each accepted point decides capture. An
    accepted point is retracted onto M and the vectors re-projected there.
    `x_norm` (|x0|) sets the first step. Returns (terminal, stats, times,
    states, grad_norms) over the start and every accepted step.
    """
    m = field.manifold
    n = field.n
    size = len(state)
    crit_list = list(crits) if crits is not None else []
    stats = FlowStats()

    def _capture(point, norm):
        if not capture or norm >= cfg.capture_grad_tol:
            return None
        for crit in crit_list:
            if np.linalg.norm(point - crit.location) < cfg.capture_radius:
                return Terminal("converged", crit.id)
        return Terminal("stalled")

    k1 = rhs(state)
    gnorm = _norm(k1[:n])
    times, states, gnorms = [0.0], [state], [gnorm]
    terminal = _capture(np.array(state[:n]), gnorm)
    t = 0.0
    h = min(cfg.max_step, cfg.t_max,
            0.01 * (1.0 + x_norm) / max(gnorm, 1e-10))
    halvings = 0

    while terminal is None:
        if t >= cfg.t_max - 1e-13:
            terminal = Terminal("max_time")
            break
        h = min(h, cfg.t_max - t, cfg.max_step)
        if h < 1e-13 * max(1.0, t):
            raise FlowError(f"step size underflow at t={t}")

        # Stage sums take component i of every stage, in stage order.
        ks = [k1]
        for row in _CK_A:
            stage = [
                y + h * sum(map(mul, row, col))
                for y, col in zip(state, zip(*ks))
            ]
            ks.append(rhs(stage))
        cols = list(zip(*ks))
        y_new = [
            y + h * sum(map(mul, _CK_B5, col)) for y, col in zip(state, cols)
        ]
        err_scaled = 0.0
        for y, y5, col in zip(state, y_new, cols):
            err = h * sum(map(mul, _CK_ERR, col))
            scale = cfg.abs_tol + cfg.rel_tol * max(abs(y), abs(y5))
            err_scaled += (err / scale) ** 2
        err_scaled = math.sqrt(err_scaled / size)

        if err_scaled > 1.0:
            stats.rejected += 1
            h *= max(cfg.min_scale, cfg.safety * err_scaled ** -0.2)
            continue

        x_new = y_new[:n]
        try:
            retracted = m.retract(np.array(x_new), guard=None)
        except RetractionError:
            halvings += 1
            stats.retraction_halvings += 1
            if halvings > 40:
                raise FlowError(
                    "retraction kept failing after 40 step halvings"
                ) from None
            h *= 0.5
            continue
        halvings = 0

        drift = max(abs(c.value(x_new)) for c in field._constraints)
        stats.max_constraint_drift = max(stats.max_constraint_drift, drift)

        t += h
        point = retracted.tolist()
        state = point + [
            c for lo in range(n, size, n)
            for c in field.project(point, y_new[lo:lo + n])
        ]
        stats.steps += 1
        k1 = rhs(state)
        gnorm = _norm(k1[:n])
        times.append(t)
        states.append(state)
        gnorms.append(gnorm)
        terminal = _capture(retracted, gnorm)
        if terminal is None and err_scaled > 0.0:
            h *= min(cfg.max_scale,
                     max(cfg.min_scale, cfg.safety * err_scaled ** -0.2))
        elif terminal is None:
            h *= cfg.max_scale
    return terminal, stats, times, states, gnorms


def integrate_flow(m, f, x0, cfg=None, direction="forward", crits=None,
                   record=True):
    """Flow from x0 until capture, stall, or t_max (hit exactly).

    `crits` supplies the registered critical points used for capture;
    with crits=None any capture-level gradient is reported as Stalled.
    Backward direction flips the sign of the field (f then increases
    along the trajectory). With record=False only the first and the
    last sample are returned.
    """
    sign = _sign(direction)
    field = GradientField(m, f)
    xs = _start_point(m, x0).tolist()
    terminal, stats, times, points, gnorms = _cash_karp(
        field, lambda ys: [sign * v for v in field.projected_gradient(ys)],
        xs, _norm(xs), cfg or FlowConfig(), crits,
    )
    f_vals = [field.f_value(p) for p in points]
    stats.monotone = not any(
        sign * (b - a) < -1e-12 for a, b in zip(f_vals, f_vals[1:])
    )
    if not record:
        del times[1:-1], points[1:-1], f_vals[1:-1], gnorms[1:-1]
    return Trajectory(
        times=np.array(times),
        points=np.array(points),
        f_values=np.array(f_vals),
        grad_norms=np.array(gnorms),
        terminal=terminal,
        stats=stats,
        direction=direction,
    )


def limit_point(traj, crits):
    """Id of the critical point a converged trajectory was captured by."""
    if not traj.terminal.converged:
        if traj.terminal.kind == "stalled":
            raise NotConvergedError(
                "trajectory stalled away from every registered critical "
                "point; re-run the critical point search"
            )
        raise NotConvergedError(
            f"trajectory ended with terminal '{traj.terminal.kind}'"
        )
    cid = traj.terminal.critical_point_id
    ids = {p.id for p in crits}
    if cid not in ids:
        raise NotConvergedError(
            f"captured id {cid} is not in the supplied critical point set"
        )
    return cid


@dataclass(frozen=True)
class LengthSegment:
    t_start: float
    t_end: float
    length: float
    drop: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class LengthBoundReport:
    """Polyline length vs f-drop over the sub-arcs outside critical balls."""

    segments: tuple
    lhs: float
    rhs: float
    passed: bool
    slack: float


def check_length_bound(traj, consts, slack=1.05):
    """Check length <= slack * drop / c_floor on every outside segment.

    Samples closer than r/2 to any critical point are excluded; each
    maximal run of outside samples is one segment. An empty restriction
    passes vacuously.
    """
    if len(traj) < 2:
        raise FlowError("need at least two samples to measure length")
    locs = consts.critical_locations
    outside = [
        min(np.linalg.norm(x - q) for q in locs) > consts.r / 2.0
        for x in traj.points
    ]
    segments = []
    i = 0
    n = len(traj)
    while i < n:
        if not outside[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and outside[j + 1]:
            j += 1
        if j > i:
            pts = traj.points[i:j + 1]
            length = float(
                np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1))
            )
            drop = abs(float(traj.f_values[i] - traj.f_values[j]))
            bound = slack * drop / consts.c_floor
            segments.append(
                LengthSegment(
                    t_start=float(traj.times[i]),
                    t_end=float(traj.times[j]),
                    length=length,
                    drop=drop,
                    bound=bound,
                    ok=length <= bound,
                )
            )
        i = j + 1
    lhs = sum(s.length for s in segments)
    rhs = sum(s.drop for s in segments) / consts.c_floor
    return LengthBoundReport(
        segments=tuple(segments),
        lhs=float(lhs),
        rhs=float(rhs),
        passed=all(s.ok for s in segments),
        slack=slack,
    )


@dataclass(frozen=True)
class UnstableSeed:
    point: np.ndarray
    eigendirection: int
    side: int


def unstable_seeds(m, p, eps=1e-4):
    """Points retract(p +- eps e) for each descending eigendirection e.

    A minimum has no descending directions and yields an empty list.
    Seeds are ordered by (eigendirection, +side first) so downstream
    graph assembly is deterministic.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    seeds = []
    for idx in range(len(p.eigenvalues)):
        if p.eigenvalues[idx] >= 0.0:
            continue
        direction = p.eigenvectors[idx].vec
        for side in (1, -1):
            seeds.append(
                UnstableSeed(
                    point=m.retract(p.location + side * eps * direction),
                    eigendirection=idx,
                    side=side,
                )
            )
    return seeds
