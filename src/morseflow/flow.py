"""Negative gradient flow on an implicit manifold.

One embedded Cash-Karp 5(4) stepper, `_cash_karp`, steps the ambient
ODE dx/dt = -+ P(x) grad f(x) over an augmented state of floats: the
point, then the pushforward vectors of the linearized flow (none for the
plain flow). `integrate_flow`, the variational flows and the basin
flows of `flow_terminals` all run it, one flow at a time. Its whole
accept/reject loop is one generated function per field kernel and state
size (`_loop_factory`, kept on the kernel), with the kernel's lines
written into each of the five stages after k1, so no stage calls the
kernel, and the constraint map's lines of the retraction's first
iterate written in after y5. It is defined per flow with the checked
retraction `ImplicitManifold._gauss_newton`, the constraint map's row
projection `_rows` and its checked `project_rows`, the sign, the
tolerances, the capture threshold, a basin flow's traps (below) and the
escape radius bound, and returns its counts; each accepted sample goes
to one bound `record`. It tests its start and every accepted point the
same way, capture first, then the traps. It hands back to Python only to
capture (once |P grad f| is below the threshold, where the point becomes
an array; `_capture` with the flow's critical points bound), to call the
kernel's checked `value` at a point inside a trap's ball, to retract
where the inline first iterate does not converge (a RetractionError
there halves the step), and at a failed stage or re-projection, where
the checked call on the same floats, `GradientField.projected_gradient`
or `project_rows`, raises the named error. k1 at each accepted point
stays a checked `projected_gradient` call, so a failure there raises its
named error at once. A step is rejected unless its error estimate is
at most 1, so a nan estimate is rejected too.

The loop runs on Python floats: the state, k1, the first step and every
number bound in it are floats at entry (`FlowConfig` stores its fields
as float, and every flow sizes its first step from `float_norm` of the
start). A numpy scalar there would spread to the step size, the
time, every stage and the state, and turn each operation of the loop
into a numpy-scalar operation, 3-4x slower per step. Every literal that
a product or quotient of the loop reads is a float too (the code
generator's rule, `symbolics.compile`), as CPython's specializing
interpreter has a fast path for float * float but none for int * float.

Every accepted point is retracted back onto M and the vectors are
re-projected there, with the Gram sums and solve of the field kernel.
The retraction's first iterate runs inline: the constraint values at y5,
`_gn`'s lines before its convergence test, and that test, every
|F_i| <= tol. Most retractions end there (91-95% of the accepted steps of
50 sampled flows on each catalog scenario), and y5 is then the point, as
`_gn` would return it. Only where the test fails or the values raise is
`_gauss_newton` called, the whole Gauss-Newton loop from y5, which forms
the same values first. The constraint drift, which must stay within an
order of magnitude of the manifold tolerance, is max |F| at the
unretracted point: those inline values, so F is not evaluated a second
time.

A flow whose accepted point leaves max |x_i| <= R (`ESCAPE_FACTOR`)
raises FlowError: M may not be compact. "step size underflow" names
the point where the step size fell below its floor.

A trajectory terminates Converged once the projected gradient falls
below the capture threshold within the capture radius of a registered
critical point; a small gradient near no registered point is reported
as Stalled (an unregistered critical point upstream). A basin flow
(`flow_terminals`) also ends Converged inside a minimum's sublevel trap
(`morse.minimum_traps`), where its limit is decided: the loop's `traps`,
empty for the other flows, which keep their full tails.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FlowError, NotConvergedError, RetractionError
from .linalg import float_norm, row_norms
from .morse import minimum_traps
from .symbolics import compile_expression
from .symbolics.compile import _FAILURES, _NAMESPACE, _define, prefixed
from .symbolics.compile import _const, _dot

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
LENGTH_SLACK = 1.05
# A flow whose point leaves max |x_i| <= R, R = ESCAPE_FACTOR times the
# larger of the bounding box's farthest corner norm and |x0|, raises: on
# a compact M it never gets there. The box need not contain M (it only
# seeds the sampler and the census), so the factor is generous, yet it
# ends a flow running off to infinity within a few time units.
ESCAPE_FACTOR = 10.0


@dataclass(frozen=True)
class FlowConfig:
    """Adaptive step control and capture thresholds.

    Each field must be positive and finite and is stored as a Python
    float, the type the generated flow loop binds it as.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    t_max: float = 200.0
    capture_grad_tol: float = 1e-7
    capture_radius: float = 1e-3
    max_step: float = 5.0

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{field.name} must be positive and finite")
            object.__setattr__(self, field.name, float(value))

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

    Both are generated code for any number of constraints, for one point
    (a float list): the field kernel of (M, f) gives f, P grad f and the
    multipliers from one pass over f and the constraints, and the
    constraint map's `project_rows` the tangential part of a vector,
    with the projection written out in one term order (see
    `symbolics.compile`), so the two agree bit for bit with each other
    and with `ImplicitManifold.project_tangent`, without numpy dispatch.
    Many points go through `CompiledExpression.columns`. A
    rank-deficient Jacobian raises RankDeficiencyError.
    """

    def __init__(self, m, f):
        self.manifold = m
        self.function = f
        self.n = m.ambient_dim
        self._kernel = compile_expression(f, self.n, m.constraints)

    def f_value(self, xs):
        return self._kernel.value(xs)

    def projected_gradient(self, xs):
        """P(x) grad f(x) at one point, n floats; for a state [x, V_1,
        ...], P grad f then its derivative along each V."""
        return self._kernel.value_and_grad(xs)[1]


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
    """Terminal at an accepted point, or None while the flow goes on.

    The point (floats or an array) becomes an array only once the
    gradient norm is below the capture threshold. A nan norm raises
    FlowError naming the point.
    """
    if norm >= cfg.capture_grad_tol:
        return None
    point = np.asarray(point)
    if math.isnan(norm):
        raise FlowError(f"projected gradient is nan at {point.tolist()}")
    for crit in crits:
        if np.linalg.norm(point - crit.location) < cfg.capture_radius:
            return Terminal("converged", crit.id)
    return Terminal("stalled")


def _first_step(cfg, x_norm, gnorm):
    return min(cfg.max_step, cfg.t_max,
               0.01 * (1.0 + x_norm) / max(gnorm, 1e-10))


# The generated flow loop (`_loop_factory`) reads `_FLOW_NAMES`, bound
# per flow, and `_LOOP_NAMESPACE`.
_FLOW_NAMES = (
    "sign", "abs_tol", "rel_tol", "t_max", "max_step", "tol", "threshold",
    "escape", "capture", "traps", "value", "pg", "retract", "rows",
    "project", "record",
)
_LOOP_NAMESPACE = {
    **_NAMESPACE, "_FAILURES": _FAILURES,
    "FlowError": FlowError, "RetractionError": RetractionError,
    "SAFETY": SAFETY, "MIN_SCALE": MIN_SCALE, "MAX_SCALE": MAX_SCALE,
    "MAX_TIME": Terminal("max_time"),
}
# The step size and the step factors are clipped by conditionals that
# pick what `min` and `max` pick: the first argument unless a later one
# is strictly smaller (larger).
_LOOP_SOURCE = """\
def _make({names}):
    def _flow(h, gnorm, {state}):
        t = 0.0
        halvings_total = rejected = 0
        drift = 0.0
        point = [{x}]
        while True:
            if not gnorm >= threshold:
                terminal = capture(point, gnorm)
                if terminal is not None:
                    return terminal, drift, rejected, halvings_total
            for {centers}, r2, level, terminal in traps:
                if {d2} < r2:
                    if value(point) < level:
                        return terminal, drift, rejected, halvings_total
                    break
            halvings = 0
            while True:
                if t >= t_max - 1e-13:
                    return MAX_TIME, drift, rejected, halvings_total
                rest = t_max - t
                if rest < h:
                    h = rest
                if max_step < h:
                    h = max_step
                if h < 1e-13 * (t if t > 1.0 else 1.0):
                    raise FlowError(f"step size underflow at t={{t}} at "
                                    f"x={{[{x}]}}")
{stages}
{y5}
                err = sqrt(({errors}) / {size})
                if not err <= 1.0:
                    rejected += 1
                    factor = SAFETY * err ** -0.2
                    h *= factor if factor > MIN_SCALE else MIN_SCALE
                    continue
                if {escaped}:
                    raise FlowError(f"flow left max |x_i| <= {{escape}} at "
                                    f"t={{t + h}}: M may not be compact")
                try:
{first}
                except _FAILURES:
                    converged = False
                if converged:
                    point = [{z}]
                else:
                    try:
                        point = retract([{z}], None)
                    except RetractionError:
                        halvings += 1
                        halvings_total += 1
                        if halvings > 40:
                            raise FlowError("retraction kept failing after "
                                            "40 step halvings") from None
                        h *= 0.5
                        continue
                break
{accept}
{drift}
            t += h
            {g}, = pg(state)
{k1}
            gnorm = sqrt({gnorm})
            record((t, state, gnorm))
            factor = SAFETY * err ** -0.2 if err > 0.0 else MAX_SCALE
            if not factor > MIN_SCALE:
                factor = MIN_SCALE
            h *= factor if factor < MAX_SCALE else MAX_SCALE
    return _flow
"""
_ACCEPT_VECTORS = """\
try:
    {v} = rows(*point, {zv})
except _FAILURES:
    project(point, [{zv}])
{x} = point
state = [{y}]"""


def _block(lines, depth=12):
    """The source lines as one text, each indented by `depth` spaces."""
    text = "\n".join(lines)
    return "\n".join(" " * depth + line for line in text.split("\n"))


def _loop_factory(kernel, size):
    """`_make(*_FLOW_NAMES)` of `_LOOP_SOURCE` for the field kernel and a
    state of `size` floats, generated on first use and kept on the
    kernel, so that it goes with the kernel. `_make(**names)` defines one
    flow's `_flow(h, gnorm, y..., k1...)`, which hands each accepted
    sample to `record` as (t, state, gnorm) and returns (terminal,
    largest drift, rejected steps, retraction halvings) or raises.

    `_flow` loops over points, the start first. It tests each for
    capture, then against the `traps`, flat tuples (p1, ..., pn, radius
    squared, level, Terminal): the first ball that holds the point (its
    squares summed from 0.0 left to right) decides, by the bound `value`
    below the level. An inner loop then tries steps from the point; it
    `continue`s after a rejection or a halving and `break`s at an
    accepted step.

    Stage i assigns its arguments, the state plus h times the weighted
    earlier stages, to the parameters of the kernel's lines
    (`field_lines`, each name prefixed by `s<i>_`), runs the lines and
    takes k<i>_j = sign * (output j); where they raise, the checked `pg`
    on the same arguments raises the named error. After y5 the lines of
    the retraction's first iterate (the map's `first_lines`, the map being
    `compile_expression(kernel.constraints, n)`) run on the point part
    of y5, z1, ..., zn in place of x1, ..., xn and every other name
    prefixed by `z_`; they set `converged`, which is False where they
    raise. Where it is False the loop calls the bound `retract`,
    `ImplicitManifold._gauss_newton` with guard None, and halves the
    step if that raises RetractionError. Where the unchecked `rows` fails
    to re-project the vectors, the checked `project` raises likewise. An
    accepted y5 with some |z_i| > `escape`, of the b_i that the error
    scale forms, raises FlowError: M may not be compact.
    """
    make = kernel._loops.get(size)
    if make is not None:
        return make
    n = kernel.ambient_dim
    ys, zs, gs = ([f"{c}{j}" for j in range(1, size + 1)] for c in "yzg")
    ks = [[f"k1_{j}" for j in range(1, size + 1)]]
    params, lines, outputs = kernel.field_lines(size)
    stages = []
    for i, row in enumerate(_CK_A, start=2):
        args = [prefixed(p, f"s{i}_") for p in params]
        stages += [f"{a} = {y} + h * ({_dot(map(_const, row), col)})"
                   for a, y, col in zip(args, ys, zip(*ks))]
        ks.append([f"k{i}_{j}" for j in range(1, size + 1)])
        stages += ["try:",
                   *(f"    {prefixed(line, f's{i}_')}" for line in lines),
                   *(f"    {k} = sign * ({prefixed(out, f's{i}_')})"
                     for k, out in zip(ks[-1], outputs)),
                   "except _FAILURES:",
                   f"    pg([{', '.join(args)}])"]
    # the retraction's first iterate at y5: c_i = |F_i| and its
    # convergence test, and the drift raised to each larger c_i
    xs, head, values = compile_expression(kernel.constraints, n).first_lines()
    at_y5 = dict(zip(xs, zs))
    cs = [f"c{i}" for i in range(1, len(values) + 1)]
    first = [prefixed(line, "z_", at_y5) for line in head] + [
        f"{c} = abs({prefixed(v, 'z_', at_y5)})" for c, v in zip(cs, values)]
    first.append(f"converged = {' and '.join(f'{c} <= tol' for c in cs)}")
    drift = [f"if {c} > drift:\n    drift = {c}" for c in cs]
    cols = list(zip(*ks))
    # the error scale max(|y|, |z|) as `max` picks it: the first unless
    # the second is larger
    y5 = [f"{z} = {y} + h * ({_dot(map(_const, _CK_B5), col)})"
          for z, y, col in zip(zs, ys, cols)]
    for j, (y, z) in enumerate(zip(ys, zs), start=1):
        y5.append(f"a{j}, b{j} = abs({y}), abs({z})")
    errors = (f"(h * ({_dot(map(_const, _CK_ERR), col)}) / (abs_tol + "
              f"rel_tol * (b{j} if b{j} > a{j} else a{j}))) ** 2"
              for j, col in enumerate(cols, start=1))
    if size > n:
        accept = _ACCEPT_VECTORS.format(
            v=", ".join(ys[n:]), zv=", ".join(zs[n:]),
            x=", ".join(ys[:n]), y=", ".join(ys))
    else:
        accept = f"{', '.join(ys)}, = state = point"
    source = _LOOP_SOURCE.format(
        names=", ".join(_FLOW_NAMES), state=", ".join(ys + ks[0]),
        size=float(size), stages=_block(stages, 16), y5=_block(y5, 16),
        first=_block(first, 20), x=", ".join(ys[:n]),
        centers=", ".join(f"p{j}" for j in range(1, n + 1)),
        d2=" + ".join(["0.0", *(f"({y} - p{j}) * ({y} - p{j})"
                                for j, y in enumerate(ys[:n], start=1))]),
        escaped=" or ".join(f"b{j} > escape" for j in range(1, n + 1)),
        errors=" + ".join(["0.0", *errors]), z=", ".join(zs[:n]),
        accept=_block([accept]), drift=_block(drift), g=", ".join(gs),
        k1=_block(f"{k} = sign * {g}" for k, g in zip(ks[0], gs)),
        gnorm=" + ".join(f"{k} * {k}" for k in ks[0][:n]))
    make = kernel._loops[size] = _define(
        compile(source, f"<flow-loop:{n}:{size}>", "exec"), "_make",
        _LOOP_NAMESPACE)
    return make


def _cash_karp(field, sign, state, cfg, crits=None, capture=True,
               traps=()):
    """Step the flat state [x, v_1, ..., v_j] until its terminal.

    The state's derivative is sign times the field kernel's output for
    the state: P grad f, then the derivative of P grad f along each
    vector. Its first n entries are the signed field, whose norm at each
    accepted point decides capture (with capture=False the threshold is
    -inf, which only a nan norm is not at least: it raises). An accepted
    point is retracted onto M and the vectors re-projected there; |x0|
    by `float_norm` sets the first step and the escape radius
    (`ESCAPE_FACTOR`). Returns (terminal, stats, times, states,
    grad_norms) over the start and every accepted step.

    After the start's checked k1 and norms the whole flow is one call of
    a `_flow` defined for this flow by `_loop_factory`, with the field
    kernel's lines inlined in each stage. It tests the start and each
    accepted point for capture and against `traps` (flat tuples, see
    `flow_terminals`; empty but for a basin flow), records one (t,
    state, gnorm) per accepted point and returns the terminal, the
    largest constraint drift and the rejection and halving counts. Where
    a stage or the re-projection fails, it raises the EvaluationError
    naming the failing expression, or the RankDeficiencyError, from the
    checked call on the same floats.
    """
    m = field.manifold
    n = field.n
    size = len(state)
    threshold = cfg.capture_grad_tol if capture else -math.inf
    capture = functools.partial(
        _capture, crits=list(crits) if crits is not None else [], cfg=cfg)
    k1 = [sign * v for v in field.projected_gradient(state)]
    gnorm = float_norm(k1[:n])
    x_norm = float_norm(state[:n])
    samples = [(0.0, state, gnorm)]
    flow = _loop_factory(field._kernel, size)(
        sign=sign, abs_tol=cfg.abs_tol, rel_tol=cfg.rel_tol,
        t_max=cfg.t_max, max_step=cfg.max_step, tol=m.constraint_tol,
        threshold=threshold, escape=ESCAPE_FACTOR * max(m.box_radius, x_norm),
        capture=capture, traps=traps, value=field._kernel.value,
        pg=field.projected_gradient, retract=m._gauss_newton,
        rows=m._map.rows_function(size // n - 1) if size > n else None,
        project=m._map.project_rows, record=samples.append)
    terminal, drift, rejected, halvings = flow(
        _first_step(cfg, x_norm, gnorm), gnorm, *state, *k1)
    times, states, gnorms = zip(*samples)
    stats = FlowStats(len(samples) - 1, rejected, halvings, drift)
    return terminal, stats, times, states, gnorms


def flow_terminals(m, f, starts, cfg=None, crits=None):
    """Forward flows from many starts: (terminals, end points).

    Used for basin sampling: every start is checked and put on M first,
    then each flow is `_cash_karp`, the path of `integrate_flow`, ended
    at its first sample (bit for bit that flow's) inside a trap of
    `morse.minimum_traps` as Converged to that minimum, or else where
    `integrate_flow` ends. The traps become the loop's flat tuples once
    per call. The end points are the rows of an (N, n) array.
    """
    field = GradientField(m, f)
    cfg = cfg or FlowConfig()
    crits = list(crits) if crits is not None else []
    points = [_start_point(m, x0).tolist() for x0 in starts]
    traps = tuple((*t.center, t.radius * t.radius, t.level,
                   Terminal("converged", t.id))
                  for t in minimum_traps(m, f, crits))
    terminals = []
    ends = np.empty((len(points), field.n))
    for end, xs in zip(ends, points):
        terminal, _, _, states, _ = _cash_karp(field, -1.0, xs, cfg, crits,
                                               traps=traps)
        terminals.append(terminal)
        end[:] = states[-1]
    return terminals, ends


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
        field, sign, xs, cfg or FlowConfig(), crits)
    f_vals = [field.f_value(p) for p in points]
    stats.monotone = all(
        sign * (b - a) >= -1e-12 for a, b in zip(f_vals, f_vals[1:])
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


def check_length_bound(traj, consts):
    """Check length <= LENGTH_SLACK * drop / c_floor per outside segment.

    Samples closer than r/2 to any critical point are excluded; each
    maximal run of outside samples, between two edges of the outside
    mask padded with False, is one segment. An empty restriction passes
    vacuously. All sample-to-point distances come from one `row_norms`
    call, each the bits of np.linalg.norm of its difference; a segment's
    length sums its slice of one np.linalg.norm over all steps.
    """
    if len(traj) < 2:
        raise FlowError("need at least two samples to measure length")
    points = traj.points
    dim = points.shape[1]
    locs = np.reshape(consts.critical_locations, (-1, dim))
    dists = row_norms((points[:, None] - locs).reshape(-1, dim))
    outside = dists.reshape(len(points), -1).min(axis=1) > consts.r / 2.0
    edges = np.flatnonzero(np.diff(np.pad(outside, 1)))
    steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    segments = []
    lhs = drops = 0.0  # summed left to right: `sum` compensates on 3.12+
    # each run's first and last sample
    for i, j in zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()):
        if j > i:
            length = float(np.sum(steps[i:j]))
            drop = abs(float(traj.f_values[i] - traj.f_values[j]))
            bound = LENGTH_SLACK * drop / consts.c_floor
            lhs += length
            drops += drop
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
    return LengthBoundReport(
        segments=tuple(segments),
        lhs=lhs,
        rhs=float(drops / consts.c_floor),
        passed=all(s.ok for s in segments),
        slack=LENGTH_SLACK,
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
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
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
