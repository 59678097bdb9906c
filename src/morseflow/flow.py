"""Negative gradient flow on an implicit manifold.

Two embedded Cash-Karp 5(4) steppers step the ambient ODE
dx/dt = -+ P(x) grad f(x). They share the tableau, the term order of
the stage, B5 and error sums, the step-size rules and capture:

- `_cash_karp` steps one flow over an augmented state of floats: the
  point, then the pushforward vectors of the linearized flow (none for
  the plain flow). `integrate_flow` and the variational flows use it.
  One step is one generated function per state size (`_step_code`),
  compiled once and defined per flow with the field kernel, the sign
  and the tolerances bound: from h, the state and k1 it forms the five
  further stages, y5 and the scaled error norm on float locals. Each
  stage is one call of the field kernel for the state: P grad f, then
  its exact derivative along each vector.
- `_cash_karp_columns` steps many plain forward flows as one (n, N)
  array, with a time, step size, accept/reject decision and terminal per
  column. Basin sampling uses it, through `flow_terminals`. Each column
  follows the scalar stepper's step rules and term order. For polynomial
  f the end points agree with the scalar ones to about 1e-14 (the
  squared error terms round differently: `pow` for one float, a product
  in numpy), and the terminals matched on all catalog basin starts.
  numpy's sin/cos/exp/sqrt may differ from `math` in the last bit, so
  there a start near a basin boundary may land elsewhere. It keeps its
  whole-array sums: the generated step's source run in the numpy
  namespace, one array per row, gave the same bits but one step took
  1.3-2.1x their time on 12 and 50 columns (sphere2, torus_upright,
  clifford; 2-core x86-64, numpy 2.4).

Single flows stay on the scalar stepper: a batch of one runs 8-10x
slower than it (numpy dispatch on every stage), measured on the sphere2,
torus_upright and clifford scenarios.

For any number of constraints the field is one generated kernel per
(M, f) (`symbolics.compile`): one call gives P grad f from a single pass
over f and the constraints, with the projection written out in a fixed
term order, for floats and, exec'd with numpy, for columns. Vectors are
re-projected by the constraint map's generated `project`, and retracted
by its `normal_step`, which write the same Gram sums and solve.

Every accepted point is retracted back onto M (`retract`, a Gauss-Newton
loop on floats; `retract_columns` for the batch, each column bit for bit
its point) and the vectors are re-projected there. The scalar stepper
records the constraint drift before retraction, which must stay within
an order of magnitude of the manifold tolerance.

A trajectory terminates Converged once the projected gradient falls
below the capture threshold within the capture radius of a registered
critical point; a small gradient near no registered point is reported
as Stalled (an unregistered critical point upstream).
"""

import dataclasses
import functools
import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import FlowError, NotConvergedError, RetractionError
from .symbolics import compile_expression
from .symbolics.compile import _FAILURES, _define

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
# Step-size factor SAFETY * err^(-1/5), clipped to [MIN_SCALE, MAX_SCALE];
# MAX_SCALE after a zero error estimate.
SAFETY = 0.9
MIN_SCALE = 0.2
MAX_SCALE = 5.0


@dataclass(frozen=True)
class FlowConfig:
    """Adaptive step control and capture thresholds."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    t_max: float = 200.0
    capture_grad_tol: float = 1e-7
    capture_radius: float = 1e-3
    max_step: float = 5.0

    def __post_init__(self):
        for field in dataclasses.fields(self):
            if not getattr(self, field.name) > 0.0:
                raise ValueError(f"{field.name} must be positive")

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

    Both are generated code for any number of constraints: the field
    kernel of (M, f) gives f and P grad f from one pass over f and the
    constraints, at one point (a float list) or at the N columns of an
    (n, N) array, and the constraint map's `project` the tangential
    part of a vector at one point, with the projection written out in
    one term order (see `symbolics.compile`), so the two agree bit for
    bit with each other and with `ImplicitManifold.project_tangent`,
    without numpy dispatch for one point. A rank-deficient Jacobian
    raises RankDeficiencyError.
    """

    def __init__(self, m, f):
        self.manifold = m
        self.function = f
        self.n = m.ambient_dim
        self._map = compile_expression(m.constraints, self.n)
        self._kernel = compile_expression(f, self.n, m.constraints)

    def f_value(self, xs):
        return self._kernel.value(xs)

    def projected_gradient(self, xs):
        """P(x) grad f(x): n floats, or n columns; for a state [x, V_1,
        ...], P grad f then its derivative along each V."""
        return self._kernel.value_and_grad(xs)[1]

    def project(self, xs, vec):
        """Tangential part of `vec` at the point xs."""
        return self._map.project(xs, vec)


def _norm(vec):
    return math.sqrt(sum(v * v for v in vec))


def _sign(direction):
    """Sign of the field: -1 descends f (forward), +1 ascends (backward)."""
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    return -1.0 if direction == "forward" else 1.0


def _start_point(m, x0):
    x = np.asarray(x0, dtype=float)
    if x.shape != (m.ambient_dim,):
        raise ValueError(
            f"start point must have {m.ambient_dim} coordinates, "
            f"got shape {x.shape}"
        )
    return x if m.is_on_manifold(x) else m.retract(x)


def _capture(point, norm, crits, cfg):
    """Terminal at an accepted point, or None while the flow goes on."""
    if norm >= cfg.capture_grad_tol:
        return None
    for crit in crits:
        if np.linalg.norm(point - crit.location) < cfg.capture_radius:
            return Terminal("converged", crit.id)
    return Terminal("stalled")


def _first_step(cfg, x_norm, gnorm):
    return min(cfg.max_step, cfg.t_max,
               0.01 * (1.0 + x_norm) / max(gnorm, 1e-10))


def _shrink_factor(err_scaled):
    """Step factor after a rejected step.

    Both steppers compute the factors on Python floats, one start at a
    time: numpy's vectorised power can differ from libm's in the last
    bit, which would move the step sizes apart.
    """
    return max(MIN_SCALE, SAFETY * err_scaled ** -0.2)


def _step_factor(err_scaled):
    """Step factor after an accepted step."""
    if err_scaled > 0.0:
        return min(MAX_SCALE, _shrink_factor(err_scaled))
    return MAX_SCALE


def _weighted(weights, col):
    """Source of sum(map(mul, weights, col)): from 0.0, in stage order,
    zero weights kept."""
    terms = (f"{w!r} * {k}" for w, k in zip(weights, col))
    return f"({' + '.join(['0.0', *terms])})"


@functools.lru_cache(maxsize=None)
def _step_code(size):
    """Compiled `_ck(h, y1, ..., k1_1, ...)`: one Cash-Karp step over a
    state of `size` floats, returning ([y5_1, ...], err_scaled).

    Each further stage calls the field kernel's point function `vg` for
    the state size and takes k = sign * g of its output g (see
    `_cash_karp`). Stage, B5 and error sums are `_weighted`; each error
    term is h * (...) / (abs_tol + rel_tol * max(|y|, |y5|)), squared
    with ** 2 and summed from 0.0, and the norm is sqrt(sum / size).
    """
    index = range(1, size + 1)
    ys = [f"y{j}" for j in index]
    ks = [[f"k1_{j}" for j in index]]
    lines = [f"def _ck(h, {', '.join(ys + ks[0])}):"]
    for i, row in enumerate(_CK_A, start=2):
        stage = ", ".join(f"{y} + h * {_weighted(row, col)}"
                          for y, col in zip(ys, zip(*ks)))
        k = [f"k{i}_{j}" for j in index]
        lines.append(f"    _, ({', '.join(f'g{j}' for j in index)},) "
                     f"= vg({stage})")
        lines += [f"    {kj} = sign * g{j}" for j, kj in zip(index, k)]
        ks.append(k)
    cols = list(zip(*ks))
    zs = [f"z{j}" for j in index]
    lines += [f"    {z} = {y} + h * {_weighted(_CK_B5, col)}"
              for z, y, col in zip(zs, ys, cols)]
    errors = [
        f"(h * {_weighted(_CK_ERR, col)} / (abs_tol + rel_tol * "
        f"max(abs({y}), abs({z})))) ** 2"
        for y, z, col in zip(ys, zs, cols)
    ]
    lines.append(f"    return [{', '.join(zs)}], "
                 f"sqrt(({' + '.join(['0.0', *errors])}) / {size})")
    return compile("\n".join(lines) + "\n", f"<cash-karp:{size}>", "exec")


def _stepper(field, sign, cfg, size):
    """step(h, state, k1) -> (y5, err_scaled) for a state of `size` floats.

    The stages call the field kernel's point function for the state size
    unchecked; a stage that fails there (a domain error, or a zero Gram
    determinant or pivot) re-runs the step through the checked
    `value_and_grad`, which raises the EvaluationError naming the
    failing expression, or the RankDeficiencyError, of that stage.
    """
    kernel = field._kernel
    code = _step_code(size)
    scope = {"sqrt": math.sqrt, "sign": sign, "abs_tol": cfg.abs_tol,
             "rel_tol": cfg.rel_tol, "vg": kernel.field_function(size)}
    fast = _define(code, "_ck", scope)

    def step(h, state, k1):
        try:
            return fast(h, *state, *k1)
        except _FAILURES:
            scope["vg"] = lambda *xs: kernel.value_and_grad(xs)
            return _define(code, "_ck", scope)(h, *state, *k1)
    return step


def _cash_karp(field, sign, state, x_norm, cfg, crits=None, capture=True):
    """Step the flat state [x, v_1, ..., v_j] until its terminal.

    The state's derivative is sign times the field kernel's output for
    the state: P grad f, then the derivative of P grad f along each
    vector. Its first n entries are the signed field, whose norm at each
    accepted point decides capture. An accepted point is retracted onto
    M and the vectors re-projected there. `x_norm` (|x0|) sets the first
    step. Returns (terminal, stats, times, states, grad_norms) over the
    start and every accepted step.
    """
    m = field.manifold
    n = field.n
    size = len(state)
    crit_list = list(crits) if crits is not None else []
    stats = FlowStats()
    step = _stepper(field, sign, cfg, size)

    def derivative(ys):
        return [sign * v for v in field.projected_gradient(ys)]

    def _terminal(point, norm):
        return _capture(point, norm, crit_list, cfg) if capture else None

    k1 = derivative(state)
    gnorm = _norm(k1[:n])
    times, states, gnorms = [0.0], [state], [gnorm]
    terminal = _terminal(np.array(state[:n]), gnorm)
    t = 0.0
    h = _first_step(cfg, x_norm, gnorm)
    halvings = 0

    while terminal is None:
        if t >= cfg.t_max - 1e-13:
            terminal = Terminal("max_time")
            break
        h = min(h, cfg.t_max - t, cfg.max_step)
        if h < 1e-13 * max(1.0, t):
            raise FlowError(f"step size underflow at t={t}")

        y_new, err_scaled = step(h, state, k1)
        if err_scaled > 1.0:
            stats.rejected += 1
            h *= _shrink_factor(err_scaled)
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

        drift = max(abs(v) for v in field._map.value(x_new))
        stats.max_constraint_drift = max(stats.max_constraint_drift, drift)

        t += h
        point = retracted.tolist()
        state = point + [
            c for lo in range(n, size, n)
            for c in field.project(point, y_new[lo:lo + n])
        ]
        stats.steps += 1
        k1 = derivative(state)
        gnorm = _norm(k1[:n])
        times.append(t)
        states.append(state)
        gnorms.append(gnorm)
        terminal = _terminal(retracted, gnorm)
        if terminal is None:
            h *= _step_factor(err_scaled)
    return terminal, stats, times, states, gnorms


def _cash_karp_columns(field, points, cfg, crits):
    """Forward flow of every column of the (n, N) array `points` at once.

    Each column is a start on M with its own time, step size,
    accept/reject decision, halving count and terminal, under
    `_cash_karp`'s rules and term order (per-row step control as in
    Hairer, Norsett & Wanner, Solving ODEs I, II.4); see the module
    docstring for how closely it follows the scalar path. A column leaves the active
    set at its terminal. Returns the terminals and the last accepted
    points as the rows of an (N, n) array.
    """
    m = field.manifold
    n, count = points.shape
    terminals = [None] * count
    ends = np.empty((count, n))

    def rhs(cols):
        k = np.empty_like(cols)
        for i, v in enumerate(field.projected_gradient(cols)):
            k[i] = -v
        return k

    def norms(k):
        return np.sqrt(sum(c * c for c in k)).tolist()

    def capture(rows, gnorms):
        # Positions `rows` of the active set were just accepted.
        for j, gnorm in zip(rows, gnorms):
            if gnorm < cfg.capture_grad_tol:
                terminals[live[j]] = _capture(state[:, j], gnorm, crits, cfg)
                done[j] = True

    live = np.arange(count)
    state = np.array(points, dtype=float)
    k1 = rhs(state)
    gnorms = norms(k1)
    h = np.array([
        _first_step(cfg, _norm(x), g)
        for x, g in zip(state.T.tolist(), gnorms)
    ])
    t = np.zeros(count)
    halvings = np.zeros(count, dtype=int)
    done = np.zeros(count, dtype=bool)
    capture(range(count), gnorms)

    while True:
        for j in np.flatnonzero(~done & (t >= cfg.t_max - 1e-13)):
            terminals[live[j]] = Terminal("max_time")
            done[j] = True
        if done.any():
            ends[live[done]] = state[:, done].T
            live, state, k1, t, h, halvings = (
                a[..., ~done] for a in (live, state, k1, t, h, halvings)
            )
            done = done[~done]
        if not len(live):
            return terminals, ends

        h = np.minimum(np.minimum(h, cfg.t_max - t), cfg.max_step)
        small = h < 1e-13 * np.maximum(1.0, t)
        if small.any():
            raise FlowError(f"step size underflow at t={t[small][0]}")

        # The scalar stepper's stage, B5 and error sums, per column.
        ks = [k1]
        for row in _CK_A:
            ks.append(rhs(state + h * sum(map(mul, row, ks))))
        y_new = state + h * sum(map(mul, _CK_B5, ks))
        err = h * sum(map(mul, _CK_ERR, ks))
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(
            np.abs(state), np.abs(y_new))
        err_scaled = np.sqrt(sum((err / scale) ** 2) / n)

        rejected = err_scaled > 1.0
        shrink = np.flatnonzero(rejected)
        h[shrink] *= [
            _shrink_factor(e) for e in err_scaled[shrink].tolist()
        ]
        accepted = np.flatnonzero(~rejected)
        retracted, ok = m.retract_columns(y_new[:, accepted])
        failed = accepted[~ok]
        halvings[failed] += 1
        if (halvings[failed] > 40).any():
            raise FlowError(
                "retraction kept failing after 40 step halvings"
            )
        h[failed] *= 0.5

        moved = accepted[ok]
        halvings[moved] = 0
        t[moved] += h[moved]
        state[:, moved] = retracted[:, ok]
        k1[:, moved] = rhs(state[:, moved])
        capture(moved.tolist(), norms(k1[:, moved]))
        grow = moved[~done[moved]]
        h[grow] *= [
            _step_factor(e) for e in err_scaled[grow].tolist()
        ]


def flow_terminals(m, f, starts, cfg=None, crits=None):
    """Forward flows from many starts together: (terminals, end points).

    The bulk counterpart of integrate_flow's terminal and end point,
    used for basin sampling: the same start handling, step control and
    capture, stepped for all starts as one array. The end points are the
    rows of an (N, n) array.
    """
    field = GradientField(m, f)
    points = np.array([_start_point(m, x0) for x0 in starts], dtype=float)
    return _cash_karp_columns(
        field, points.reshape(-1, field.n).T, cfg or FlowConfig(),
        list(crits) if crits is not None else [],
    )


def integrate_flow(m, f, x0, cfg=None, direction="forward", crits=None):
    """Flow from x0 until capture, stall, or t_max (hit exactly).

    `crits` supplies the registered critical points used for capture;
    with crits=None any capture-level gradient is reported as Stalled.
    Backward direction flips the sign of the field (f then increases
    along the trajectory). Every accepted sample is returned.
    """
    sign = _sign(direction)
    field = GradientField(m, f)
    xs = _start_point(m, x0).tolist()
    terminal, stats, times, points, gnorms = _cash_karp(
        field, sign, xs, _norm(xs), cfg or FlowConfig(), crits,
    )
    f_vals = [field.f_value(p) for p in points]
    stats.monotone = not any(
        sign * (b - a) < -1e-12 for a, b in zip(f_vals, f_vals[1:])
    )
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
