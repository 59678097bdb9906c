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
the vectors re-projected by `GradientField.project` at each accepted point.

The energy E(t) = |V|^2 / 2 satisfies dE/dt = -Hess(V, V) with the
multiplier-corrected Hessian; `check_energy_ode` measures the residual
of that identity on a computed series, and `fit_decay_rate` compares the
asymptotic decay rate of |V| against the smallest Hessian eigenvalue at
the limiting minimum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FlowError, NotConvergedError
from .flow import (
    FlowConfig, FlowStats, GradientField, Terminal, _cash_karp, _sign,
    _start_point,
)
from .morse import hessian_quadratic_form

# Step caps giving dense enough sampling for rate fits and for the
# finite-difference energy derivative (its truncation must sit below
# the 1e-2 residual gate even where dE/dt changes sign).
DECAY_MAX_STEP = 0.2
ENERGY_MAX_STEP = 0.02
ENERGY_DERIV_FLOOR = 1e-10
FIT_WINDOW = (0.60, 0.95)
FIT_MIN_SAMPLES = 20
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
        tangency = np.max(np.abs(m.constraint_jacobian(x) @ vec))
        if tangency > 1e-6 * max(1.0, np.linalg.norm(vec)):
            raise ValueError("v0 is not tangent at x0")
        state += vec.tolist()

    terminal, stats, times, states, _ = _cash_karp(
        field, sign, state, np.linalg.norm(x), cfg, crits, capture
    )
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


def _centered_derivative(t, e, i):
    """d e / d t at sample i from a quartic on a non-uniform grid.

    The quartic goes through the five samples centred on i, a window
    clamped to the ends of the series, so the samples next to the ends
    take a one-sided window (Fornberg, Math. Comp. 51, 1988); it is exact
    through fourth order, which keeps the estimate usable right next to
    sign changes of the derivative. Series of three or four samples fall
    back to the three-point formula.
    """
    if len(t) >= 5:
        lo = min(max(i - 2, 0), len(t) - 5)
        span = t[lo + 4] - t[lo]
        s = (t[lo:lo + 5] - t[i]) / span
        vand = np.vander(s, 5, increasing=True)
        coef = np.linalg.solve(vand, e[lo:lo + 5])
        return coef[1] / span
    h_minus = t[i] - t[i - 1]
    h_plus = t[i + 1] - t[i]
    return (
        -e[i - 1] * h_plus / (h_minus * (h_minus + h_plus))
        + e[i] * (h_plus - h_minus) / (h_minus * h_plus)
        + e[i + 1] * h_minus / (h_plus * (h_minus + h_plus))
    )


def check_energy_ode(series, m, f):
    """Max relative residual of dE/dt against -Hess(V, V) on the series.

    dE/dt is a centered finite difference on the (non-uniform) time
    grid; samples where its magnitude is at most ENERGY_DERIV_FLOOR are
    skipped. Returns 0.0 when nothing clears the floor.
    """
    if len(series) < 3:
        raise FlowError("need at least three samples for the energy check")
    worst = 0.0
    t = series.times
    e = series.energies
    for i in range(1, len(series) - 1):
        lhs = _centered_derivative(t, e, i)
        if abs(lhs) <= ENERGY_DERIV_FLOOR:
            continue
        rhs = -hessian_quadratic_form(m, f, series.points[i], series.vectors[i])
        denom = max(abs(lhs), abs(rhs))
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst


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


def fit_decay_rate(series, crits):
    """Least-squares slope of log|V| on the tail of a converged series.

    The window covers the FIT_WINDOW fraction of the samples before
    capture, at least FIT_MIN_SAMPLES (the final slice is dropped as
    capture-threshold noise). The prediction is the smallest intrinsic
    Hessian eigenvalue at the limiting minimum.
    """
    if not series.terminal.converged:
        raise NotConvergedError("series did not converge to a critical point")
    by_id = {p.id: p for p in crits}
    limit = by_id.get(series.terminal.critical_point_id)
    if limit is None:
        raise NotConvergedError("limit id missing from the critical point set")
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
    by_id = {p.id: p for p in crits}
    limit = by_id[series.terminal.critical_point_id]
    lam_min = limit.eigenvalues[0]
    slow = [
        ev.vec for lam, ev in zip(limit.eigenvalues, limit.eigenvectors)
        if lam <= lam_min + SLOW_EIGENVALUE_TOL
    ]
    v_end = series.vectors[-1]
    norm = np.linalg.norm(v_end)
    if norm == 0.0:
        return 0.0
    proj = sum(float(np.dot(v_end, s)) ** 2 for s in slow)
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
        report = fit_decay_rate(series, crits)
        if v0 is not None or slow_component(series, crits) >= 1e-6:
            return series, report
    raise FlowError("could not draw a direction with a slow component")
