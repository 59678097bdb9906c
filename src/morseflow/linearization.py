"""Linearized flow: pushforward of tangent vectors along flow lines.

The pushforward V(t) of a tangent vector obeys the variational equation
dV/dt = -A(x) V, where A(x) V is the directional derivative of the
projected gradient field along V. The field kernel forms it exactly,
from the second-order jets, in the call that forms the field
(`symbolics.compile`). Its normal part, which turns V with the tangent
planes, is kept: projecting it away would bleed energy at every
re-projection. For tangent V, V . A(x) V = Hess(V, V).

The joint state [x, V_1, ..., V_j] runs through the flow's own stepper:
one adaptive step and error norm over the point and every vector, with
the vectors re-projected by the constraint map's generated `_rows` at
each accepted point.

The energy E(t) = |V|^2 / 2 satisfies dE/dt = -Hess(V, V) with the
multiplier-corrected Hessian; `check_energy_ode` measures the residual
of that identity on a computed series, all samples at once: dE/dt from
five-point derivative weights in closed form, H_lam at every sample from
the field kernel's multipliers and one `kkt_columns` call, and
Hess(V, V) from one einsum. `fit_decay_rate` compares the asymptotic
decay rate of |V|, fitted on the tail where V lies on the slow
eigenspace of the limiting minimum, against its smallest Hessian
eigenvalue.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FlowError, NotConvergedError
from .flow import (
    FlowConfig, FlowStats, GradientField, Terminal, _cash_karp, _sign,
    _start_point,
)
from .morse import _multipliers
from .symbolics import compile_expression

# Step caps giving dense enough sampling for rate fits and for the
# finite-difference energy derivative (its truncation must sit below
# the 1e-2 residual gate even where dE/dt changes sign).
DECAY_MAX_STEP = 0.2
ENERGY_MAX_STEP = 0.02
ENERGY_DERIV_FLOOR = 1e-10
FIT_WINDOW = (0.60, 0.95)
FIT_MIN_SAMPLES = 20
# The fit starts no earlier than the last sample where V's part off the
# slow eigenspace exceeds this fraction of its slow part, unless that
# leaves fewer than FIT_MIN_SAMPLES.
FIT_FAST_SHARE = 1e-2
SLOW_EIGENVALUE_TOL = 1e-6
MAX_REDRAWS = 5


@dataclass
class VariationalSeries:
    """Joint samples of the flow line and its pushforward vector."""

    times: np.ndarray
    points: np.ndarray
    vectors: np.ndarray
    energies: np.ndarray
    terminal: Terminal
    stats: FlowStats
    direction: str

    def __len__(self):
        return len(self.times)

    def vector_norms(self):
        return np.linalg.norm(self.vectors, axis=1)


def integrate_variational_multi(m, f, x0, initial_vectors, cfg=None,
                                direction="forward", crits=None,
                                capture=True):
    """Co-integrate the flow from x0 with several pushforward vectors.

    All vectors share the base trajectory and the adaptive step. Returns
    (times, points, vector_blocks, terminal, stats) where vector_blocks
    is a list (one array per initial vector) of per-sample pushforwards.
    With capture=False the run always lasts exactly t_max (used for
    fixed-horizon pushes, where a stationary start is legitimate).
    """
    sign = _sign(direction)
    cfg = cfg or FlowConfig()
    field = GradientField(m, f)
    n = field.n

    x = _start_point(m, x0)
    state = x.tolist()
    for v0 in initial_vectors:
        vec = np.asarray(getattr(v0, "vec", v0), dtype=float)
        if vec.shape != (n,):
            raise ValueError("each v0 must be an ambient vector of length n")
        # before J @ vec, where an inf entry forms 0 * inf
        if not np.isfinite(vec).all():
            raise ValueError(
                "v0 is not tangent at x0: it has a non-finite entry")
        tangency = np.max(np.abs(m.constraint_jacobian(x) @ vec))
        if not tangency <= 1e-6 * max(1.0, np.linalg.norm(vec)):
            raise ValueError("v0 is not tangent at x0")
        state += vec.tolist()

    terminal, stats, times, states, _ = _cash_karp(
        field, sign, state, cfg, crits, capture)
    samples = np.array(states)
    return (
        np.array(times),
        samples[:, :n].copy(),
        [samples[:, lo:lo + n].copy() for lo in range(n, len(state), n)],
        terminal,
        stats,
    )


def integrate_variational(m, f, x0, v0, cfg=None, direction="forward",
                          crits=None):
    """Co-integrate the flow from x0 and the pushforward of v0.

    v0 may be a TangentVector or an ambient array tangent at x0. The
    joint state shares one adaptive step, the point is retracted and the
    vector re-projected after every accepted step, and capture follows
    the same thresholds as the plain flow.
    """
    times, points, blocks, terminal, stats = integrate_variational_multi(
        m, f, x0, [v0], cfg, direction, crits
    )
    vectors = blocks[0]
    return VariationalSeries(
        times=times,
        points=points,
        vectors=vectors,
        energies=0.5 * np.sum(vectors * vectors, axis=1),
        terminal=terminal,
        stats=stats,
        direction=direction,
    )


def _derivative_weights(t):
    """(windows, weights) of dE/dt at the interior samples of the grid t.

    Row i - 1 holds sample i's window, five samples centred on i and
    clamped to the ends of the series, and the weights w with
    dE/dt(t_i) ~ sum_j w_j E[window_j]: the derivative of the quartic
    through the window, exact through fourth order, which keeps the
    estimate usable next to sign changes of dE/dt. Series of three or
    four samples take three-sample windows.

    The weights are the closed form of the Lagrange basis derivative at
    a node (Fornberg, Math. Comp. 51, 1988): with the barycentric weights
    b_j = 1 / prod_{m != j} (t_j - t_m), w_j = b_j / (b_i (t_i - t_j))
    for j != i and w_i = -sum_{j != i} w_j (Berrut & Trefethen, SIAM
    Review 46, 2004, eq. 9.4).
    """
    count = len(t)
    width = 5 if count >= 5 else 3
    centre = np.arange(1, count - 1)
    lo = np.clip(centre - width // 2, 0, count - width)
    windows = lo[:, None] + np.arange(width)
    offsets = t[windows] - t[centre, None]
    at = windows == centre[:, None]
    gaps = offsets[:, :, None] - offsets[:, None, :]
    gaps[:, range(width), range(width)] = 1.0
    bary = 1.0 / gaps.prod(axis=2)
    with np.errstate(divide="ignore"):
        weights = bary / (-offsets * bary[at][:, None])
    weights[at] = 0.0
    weights[at] = -weights.sum(axis=1)
    return windows, weights


def _corrected_hessians(m, f, points):
    """H_lam at each row of `points`, as `morse.corrected_hessian` forms
    it: the multipliers lam from one field-kernel call
    (`morse._multipliers`), and H_lam from one `kkt_columns` call. The
    lowest row whose multipliers or `kkt` fail raises that point's
    EvaluationError or RankDeficiencyError."""
    kernel = compile_expression(f, m.ambient_dim, m.constraints)
    lam = _multipliers(m, f, points)
    blocks, failed = kernel.kkt_columns(points.T, lam.T)
    failed |= np.isnan(lam).any(axis=1)
    if failed.any():
        x = points[np.argmax(failed)].tolist()
        kernel.kkt(x, kernel.value_and_grad(x)[2])
    return blocks[-1]


def _energy_sides(series, m, f):
    """(samples, dE/dt, -Hess(V, V)) at the interior samples whose
    finite-difference dE/dt exceeds ENERGY_DERIV_FLOOR in magnitude.

    dE/dt comes from `_derivative_weights`, H_lam for all those samples
    from `_corrected_hessians`, and each V^T H_lam V from one einsum.
    Samples under the floor are never evaluated.
    """
    if len(series) < 3:
        raise FlowError("need at least three samples for the energy check")
    windows, weights = _derivative_weights(series.times)
    lhs = np.einsum("sw,sw->s", weights, series.energies[windows])
    kept = np.flatnonzero(np.abs(lhs) > ENERGY_DERIV_FLOOR)
    samples = kept + 1
    hess = _corrected_hessians(m, f, series.points[samples])
    vecs = series.vectors[samples]
    return samples, lhs[kept], -np.einsum("si,sij,sj->s", vecs, hess, vecs)


def check_energy_ode(series, m, f):
    """Max relative residual of dE/dt against -Hess(V, V) on the series.

    dE/dt is the five-point finite difference on the (non-uniform) time
    grid, with closed-form weights for every sample at once; samples
    where its magnitude is at most ENERGY_DERIV_FLOOR are skipped and
    never evaluated. H_lam at all other samples comes from one kernel
    call, and a sample whose evaluation fails raises its error, the
    lowest first (see `_energy_sides`). Returns 0.0 when nothing clears
    the floor.
    """
    _, lhs, rhs = _energy_sides(series, m, f)
    if not len(lhs):
        return 0.0
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs),
                                                         np.abs(rhs))))


@dataclass(frozen=True)
class DecayReport:
    """Fitted vs predicted exponential rate of the pushforward norm."""

    c_fit: float
    c_pred: float
    fit_window: tuple
    residual: float
    relative_gap: float
    limit_id: int
    n_fit_samples: int
    energy_monotone_on_window: bool


def _slow_vectors(limit):
    """The limit's eigenvectors whose eigenvalues lie within
    SLOW_EIGENVALUE_TOL of the smallest."""
    lam_min = limit.eigenvalues[0]
    return [
        ev.vec for lam, ev in zip(limit.eigenvalues, limit.eigenvectors)
        if lam <= lam_min + SLOW_EIGENVALUE_TOL
    ]


def _last_mixed_sample(series, limit):
    """Index of the last sample whose vector's part off the limit's slow
    eigenspace exceeds FIT_FAST_SHARE of its part on it, or 0."""
    basis = np.array(_slow_vectors(limit))
    slow = series.vectors @ basis.T @ basis
    mixed = np.flatnonzero(
        np.linalg.norm(series.vectors - slow, axis=1)
        > FIT_FAST_SHARE * np.linalg.norm(slow, axis=1))
    return int(mixed[-1]) if len(mixed) else 0


def _limit(series, crits):
    """The critical point of `crits` a converged series was captured by;
    NotConvergedError for a series that did not converge or whose limit
    id is not in `crits`."""
    if not series.terminal.converged:
        raise NotConvergedError("series did not converge to a critical point")
    by_id = {p.id: p for p in crits}
    limit = by_id.get(series.terminal.critical_point_id)
    if limit is None:
        raise NotConvergedError("limit id missing from the critical point set")
    return limit


def fit_decay_rate(series, crits):
    """Least-squares slope of log|V| on the tail of a converged series.

    The window ends at FIT_WINDOW[1] of the samples before capture (the
    final slice is dropped as capture-threshold noise) and starts at the
    later of FIT_WINDOW[0] of them and the last sample where V's part
    off the limit's slow eigenspace exceeds FIT_FAST_SHARE of its slow
    part: where the flow lingers near a saddle, the faster components
    have not died out by then. Where they fall below that share only
    within the window's last FIT_MIN_SAMPLES or never, as at a minimum
    whose two smallest eigenvalues are close, it starts FIT_MIN_SAMPLES
    before its end, where V is nearest its slow eigenspace. It needs at
    least FIT_MIN_SAMPLES. The prediction is the smallest intrinsic
    Hessian eigenvalue at the limiting minimum, the rate of exponential
    shrinkage on its stable manifold.
    """
    limit = _limit(series, crits)
    if limit.index != 0:
        raise NotConvergedError(
            "decay fit requires convergence to a minimum, got index "
            f"{limit.index}"
        )
    n = len(series)
    lo = int(math.floor(FIT_WINDOW[0] * n))
    hi = int(math.floor(FIT_WINDOW[1] * n))
    if hi - lo < FIT_MIN_SAMPLES:
        raise FlowError(
            f"fit window has {hi - lo} samples, needs {FIT_MIN_SAMPLES}; "
            "lower max_step or raise capture accuracy"
        )
    lo = max(lo, min(_last_mixed_sample(series, limit),
                     hi - FIT_MIN_SAMPLES))
    norms = series.vector_norms()[lo:hi]
    if np.any(norms <= 0.0):
        raise FlowError("pushforward norm vanished inside the fit window")
    ts = series.times[lo:hi]
    logs = np.log(norms)
    design = np.stack([ts, np.ones_like(ts)], axis=1)
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    slope, intercept = coef
    resid = logs - design @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    c_fit = -float(slope)
    c_pred = float(limit.eigenvalues[0])
    energies = series.energies[lo:hi]
    return DecayReport(
        c_fit=c_fit,
        c_pred=c_pred,
        fit_window=(float(ts[0]), float(ts[-1])),
        residual=rms,
        relative_gap=abs(c_fit - c_pred) / c_pred,
        limit_id=limit.id,
        n_fit_samples=int(hi - lo),
        energy_monotone_on_window=bool(np.all(np.diff(energies) <= 0.0)),
    )


def slow_component(series, crits):
    """Fraction of the final vector lying in the slow eigenspace.

    Guards the generic-direction assumption behind rate fits: a start
    vector with no component on the smallest-eigenvalue eigenspace of
    the limiting minimum (eigenvalues within SLOW_EIGENVALUE_TOL of the
    smallest) decays at a faster rate and must be redrawn.
    """
    slow = _slow_vectors(_limit(series, crits))
    v_end = series.vectors[-1]
    norm = np.linalg.norm(v_end)
    if norm == 0.0:
        return 0.0
    proj = 0.0
    for s in slow:
        proj += float(np.dot(v_end, s)) ** 2
    return math.sqrt(proj) / norm


def run_decay(m, f, crits, cfg=None, seed=0, x0=None, v0=None):
    """One full decay experiment: generic start, fit, genericity guard.

    Draws a start point and tangent direction from the seed when not
    supplied, draws the direction up to MAX_REDRAWS times until its
    slow-eigenspace component at the limit is 1e-6 or more, and returns
    (series, report).
    """
    cfg = (cfg or FlowConfig()).replace(max_step=min(
        DECAY_MAX_STEP, (cfg or FlowConfig()).max_step))
    rng = np.random.default_rng(seed)
    if x0 is None:
        x0 = m.sample_points(1, seed=rng.integers(2 ** 31))[0]
    for _ in range(MAX_REDRAWS):
        vec = m.random_tangent(x0, rng) if v0 is None else np.asarray(
            getattr(v0, "vec", v0), dtype=float)
        series = integrate_variational(m, f, x0, vec, cfg, crits=crits)
        # the fit raises for a series that did not converge, and its
        # window would be empty without a slow component
        if (v0 is not None or not series.terminal.converged
                or slow_component(series, crits) >= 1e-6):
            return series, fit_decay_rate(series, crits)
    raise FlowError("could not draw a direction with a slow component")
