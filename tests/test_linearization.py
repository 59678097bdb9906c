import math
from types import SimpleNamespace

import numpy as np
import pytest

from morseflow import (
    FlowConfig,
    ImplicitManifold,
    check_energy_ode,
    fit_decay_rate,
    integrate_flow,
    integrate_variational,
    parse,
    run_decay,
    unstable_seeds,
)
from morseflow.errors import (
    EvaluationError, FlowError, NotConvergedError, RankDeficiencyError,
)
from morseflow.flow import FlowStats, Terminal
from morseflow.linearization import (
    ENERGY_DERIV_FLOOR,
    ENERGY_MAX_STEP,
    FIT_MIN_SAMPLES,
    VariationalSeries,
    _derivative_weights,
    _energy_sides,
    integrate_variational_multi,
    slow_component,
)
from morseflow import linearization
from morseflow.catalog import Scenario, ScenarioContext
from morseflow.config import parse_scenario_text
from morseflow.morse import corrected_hessian


def _centered_derivative(t, e, i):
    """Oracle: d e / d t at sample i from the quartic through the five
    samples centred on i (clamped to the ends), by one Vandermonde solve;
    the three-point formula for series of three or four samples."""
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


def hessian_quadratic_form(m, f, x, v):
    """Oracle: v^T (corrected Hessian) v for a tangent vector v at x."""
    h = corrected_hessian(m, f, x)
    v = np.asarray(v, dtype=float)
    return float(v @ h @ v)


def _energy_oracle(series, m, f):
    """The energy check one sample at a time: {sample: (dE/dt,
    -Hess(V, V))} over the samples above the floor, and the residual."""
    sides = {}
    t, e = series.times, series.energies
    for i in range(1, len(series) - 1):
        lhs = _centered_derivative(t, e, i)
        if abs(lhs) > ENERGY_DERIV_FLOOR:
            sides[i] = (lhs, -hessian_quadratic_form(
                m, f, series.points[i], series.vectors[i]))
    worst = max((abs(a - b) / max(abs(a), abs(b)) for a, b in sides.values()),
                default=0.0)
    return sides, worst


def test_zero_vector_stays_zero(sphere):
    series = integrate_variational(
        sphere.manifold, sphere.function, [1.0, 0.0, 0.0], np.zeros(3),
        sphere.cfg.replace(t_max=1.0),
    )
    assert np.max(np.abs(series.vectors)) == 0.0
    assert np.max(series.energies) == 0.0
    assert check_energy_ode(series, sphere.manifold, sphere.function) == 0.0


def test_zero_error_estimate_grows_the_step(sphere):
    # at the minimum with a zero vector every stage derivative vanishes,
    # so the error estimate is exactly 0.0 on every step
    times, points, blocks, terminal, stats = integrate_variational_multi(
        sphere.manifold, sphere.function, [0.0, 0.0, -1.0], [np.zeros(3)],
        FlowConfig(t_max=1.0), capture=False,
    )
    assert terminal.kind == "max_time"
    assert times[-1] == pytest.approx(1.0, abs=1e-13)
    assert np.array_equal(points[-1], [0.0, 0.0, -1.0])
    assert np.max(np.abs(blocks[0])) == 0.0
    assert stats.rejected == 0


def test_pushforward_identity_at_zero_time(sphere):
    v0 = np.array([0.0, 1.0, 0.0])
    series = integrate_variational(
        sphere.manifold, sphere.function, [1.0, 0.0, 0.0], v0,
        sphere.cfg.replace(t_max=0.5), crits=sphere.crits,
    )
    assert np.array_equal(series.vectors[0], v0)


def test_rejects_non_tangent_vector(sphere):
    with pytest.raises(ValueError):
        integrate_variational(
            sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
            np.array([1.0, 0.0, 0.0]), sphere.cfg,
        )


def test_rejects_a_nan_vector(sphere):
    # checked before the tangency J @ v0 at x0 = (1, 0, 0), J = (2, 0, 0):
    # an inf first entry made the tangency inf, which passed the check
    # against 1e-6 |v0| = inf, and an inf second entry formed 0 * inf,
    # whose RuntimeWarning was raised instead of the ValueError
    for bad in (math.nan, math.inf, -math.inf):
        for vec in ([bad, 1.0, 0.0], [0.0, bad, 1.0]):
            with pytest.raises(ValueError, match="not tangent"):
                integrate_variational(
                    sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
                    np.array(vec), sphere.cfg,
                )


def test_linearity_at_matched_times(sphere):
    cfg = sphere.cfg.replace(t_max=2.0)
    double = integrate_variational(
        sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
        np.array([0.0, 2.0, 0.0]), cfg, crits=sphere.crits,
    )
    single = integrate_variational(
        sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
        np.array([0.0, 1.0, 0.0]), cfg, crits=sphere.crits,
    )
    gap = np.abs(double.vectors[-1] - 2.0 * single.vectors[-1])
    assert np.max(gap) <= 1e-8 * max(1.0, np.max(np.abs(double.vectors[-1])))


def test_tangency_maintained(sphere):
    series = integrate_variational(
        sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
        np.array([0.0, 1.0, 0.0]), sphere.cfg, crits=sphere.crits,
    )
    for x, v in zip(series.points[::10], series.vectors[::10]):
        tangency = np.max(np.abs(sphere.manifold.constraint_jacobian(x) @ v))
        assert tangency <= 1e-6 * max(1.0, np.linalg.norm(v))


def test_finite_difference_consistency(sphere):
    # |phi_t(retract(x0 + eps v0)) - phi_t(x0) - eps V(t)| = O(eps^2)
    m, f = sphere.manifold, sphere.function
    x0 = np.array([1.0, 0.0, 0.0])
    v0 = np.array([0.0, 1.0, 0.0])
    cfg = sphere.cfg.replace(t_max=1.0)
    series = integrate_variational(m, f, x0, v0, cfg, crits=sphere.crits)
    base = integrate_flow(m, f, x0, cfg, crits=sphere.crits)
    gaps = []
    for eps in (1e-4, 5e-5):
        shifted = integrate_flow(m, f, m.retract(x0 + eps * v0), cfg,
                                 crits=sphere.crits)
        gaps.append(np.linalg.norm(
            shifted.points[-1] - base.points[-1] - eps * series.vectors[-1]
        ))
    ratio = gaps[0] / gaps[1]
    assert 3.0 <= ratio <= 5.0


def test_energy_ode_residual_sphere(sphere):
    series = integrate_variational(
        sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
        np.array([0.0, 1.0, 0.0]),
        sphere.cfg.replace(max_step=ENERGY_MAX_STEP), crits=sphere.crits,
    )
    assert check_energy_ode(series, sphere.manifold, sphere.function) < 1e-2


def test_energy_ode_residual_at_the_end_samples(clifford):
    # From this start dE/dt changes fast near t = 0: the three-point
    # formula at sample 1 gave a residual of 0.197, while the five-sample
    # window clamped to the end gives 5.4e-4.
    m, f = clifford.manifold, clifford.function
    x0 = m.sample_points(1, seed=167)[0]
    v0 = m.random_tangent(x0, np.random.default_rng(2))
    series = integrate_variational(
        m, f, x0, v0, clifford.cfg.replace(max_step=ENERGY_MAX_STEP),
        crits=clifford.crits,
    )
    assert check_energy_ode(series, m, f) < 1e-2


def test_centered_derivative_is_exact_for_quartics():
    # the oracle and the closed-form weights at every interior sample,
    # the clamped windows next to the ends included; three or four
    # samples take the three-point window, exact for quadratics
    rng = np.random.default_rng(0)
    for count, degree in ((9, 4), (6, 4), (5, 4), (4, 2), (3, 2)):
        t = np.cumsum(rng.uniform(0.1, 1.0, count))
        coef = rng.standard_normal(degree + 1)
        e = np.polyval(coef, t)
        slope = np.polyval(np.polyder(coef), t)
        windows, weights = _derivative_weights(t)
        width = 5 if count >= 5 else 3
        assert windows.shape == weights.shape == (count - 2, width)
        batched = np.sum(weights * e[windows], axis=1)
        for i in range(1, count - 1):
            lo = min(max(i - width // 2, 0), count - width)
            assert windows[i - 1].tolist() == list(range(lo, lo + width))
            assert _centered_derivative(t, e, i) == pytest.approx(
                slope[i], rel=1e-9, abs=1e-9)
            assert batched[i - 1] == pytest.approx(slope[i], rel=1e-9,
                                                   abs=1e-9)


def _energy_series(setup):
    """c05's variational flow on sphere2 and clifford; on the other
    catalog scenarios a start and vector drawn as c05 draws clifford's."""
    m, f = setup.manifold, setup.function
    if setup.scenario.name == "sphere2":
        x0, v0 = [1.0, 0.0, 0.0], np.array([0.0, 1.0, 0.0])
    else:
        x0 = m.sample_points(1, seed=11)[0]
        v0 = m.random_tangent(x0, np.random.default_rng(2))
    return integrate_variational(
        m, f, x0, v0, setup.cfg.replace(max_step=ENERGY_MAX_STEP),
        crits=setup.crits,
    )


@pytest.mark.parametrize("name", ["sphere", "sphere_m", "torus", "clifford"])
def test_batched_energy_check_matches_the_per_sample_oracle(name, request):
    setup = request.getfixturevalue(name)
    m, f = setup.manifold, setup.function
    series = _energy_series(setup)
    sides, worst = _energy_oracle(series, m, f)
    samples, lhs, rhs = _energy_sides(series, m, f)
    assert samples.tolist() == sorted(sides)
    assert len(samples) > 100
    for i, a, b in zip(samples.tolist(), lhs, rhs):
        want_lhs, want_rhs = sides[i]
        assert a == pytest.approx(want_lhs, rel=1e-9)
        assert b == pytest.approx(want_rhs, rel=1e-9)
    # the residual is itself relative: a 1e-9 relative move of dE/dt
    # moves it by about 1e-9
    assert abs(check_energy_ode(series, m, f) - worst) <= 1e-9
    assert worst < 1e-2


def _hand_built(points, energies):
    """A series on a uniform grid with unit vectors along x1."""
    points = np.array(points, dtype=float)
    vectors = np.zeros_like(points)
    vectors[:, 0] = 1.0
    return VariationalSeries(
        times=0.1 * np.arange(len(points)), points=points, vectors=vectors,
        energies=np.array(energies, dtype=float),
        terminal=Terminal("max_time"), stats=FlowStats(),
        direction="forward",
    )


def _sqrt_on_sphere():
    """The unit sphere and f = sqrt(x3 + 0.5): f is defined only for
    x3 >= -0.5, and the sphere's Gram matrix vanishes at the origin."""
    m = ImplicitManifold(3, [parse("x1^2 + x2^2 + x3^2 - 1", 3)])
    return m, parse("sqrt(x3 + 0.5)", 3)


GOOD = [0.6, 0.0, 0.8]
OUTSIDE = [0.0, 0.6, -0.8]  # f's domain error
ORIGIN = [0.0, 0.0, 0.0]    # zero constraint Gram matrix


@pytest.mark.parametrize("first,error", [
    (OUTSIDE, EvaluationError), (ORIGIN, RankDeficiencyError),
])
def test_energy_check_raises_at_the_lowest_failing_sample(first, error):
    # every interior sample clears the floor; the two failing ones are
    # samples 2 and 4, and the lower one decides the error
    m, f = _sqrt_on_sphere()
    second = ORIGIN if first is OUTSIDE else OUTSIDE
    points = [GOOD, GOOD, first, GOOD, second, GOOD, GOOD]
    series = _hand_built(points, [float(k) for k in range(7)])
    with pytest.raises(error):
        check_energy_ode(series, m, f)


def test_energy_check_leaves_samples_under_the_floor_unevaluated():
    # constant energy: no sample clears the floor, so neither the domain
    # error nor the zero Gram matrix is evaluated
    m, f = _sqrt_on_sphere()
    points = [GOOD, OUTSIDE, ORIGIN, GOOD, GOOD, GOOD, GOOD]
    assert check_energy_ode(_hand_built(points, [1.0] * 7), m, f) == 0.0
    # energy constant over the windows of samples 1 and 2 (samples 0-4):
    # only samples 3, 4 and 5 are evaluated
    series = _hand_built(points, [1.0] * 5 + [2.0, 3.0])
    assert _energy_sides(series, m, f)[0].tolist() == [3, 4, 5]
    assert np.isfinite(check_energy_ode(series, m, f))


def test_energy_rate_near_minimum(sphere):
    # -dE/dt / (2E) approaches the smallest Hessian eigenvalue (1 here)
    series = integrate_variational(
        sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
        np.array([0.0, 1.0, 0.0]),
        sphere.cfg.replace(max_step=ENERGY_MAX_STEP), crits=sphere.crits,
    )
    i = len(series) - 40
    t, e = series.times, series.energies
    slope = (e[i + 1] - e[i - 1]) / (t[i + 1] - t[i - 1])
    assert -slope / (2.0 * e[i]) == pytest.approx(1.0, rel=1e-3)


def test_energy_ode_needs_three_samples(sphere):
    series = integrate_variational(
        sphere.manifold, sphere.function, sphere.crits[0].location,
        np.array([1.0, 0.0, 0.0]) * 0.0, sphere.cfg, crits=sphere.crits,
    )
    with pytest.raises(FlowError):
        check_energy_ode(series, sphere.manifold, sphere.function)


@pytest.mark.parametrize(
    "name,rate",
    [("sphere", 1.0), ("torus", 1.0 / 3.0), ("clifford", math.sqrt(2.0))],
)
def test_decay_rates(name, rate, request):
    setup = request.getfixturevalue(name)
    series, report = run_decay(setup.manifold, setup.function, setup.crits,
                               setup.cfg, seed=3)
    assert report.c_pred == pytest.approx(rate, abs=1e-8)
    assert report.relative_gap < 0.05
    assert report.c_fit > 0.0
    assert report.n_fit_samples >= 20
    assert report.energy_monotone_on_window
    assert slow_component(series, setup.crits) > 1e-6
    assert np.all(series.energies > 0.0)


def test_decay_fit_waits_for_the_slow_eigencomponent(torus, monkeypatch):
    # from seed 2059 the flow lingers near a saddle, so at 60% of the
    # samples V's fast eigencomponent has not died out: the fit starts at
    # the last sample where it exceeds 1% of the slow one
    series, report = run_decay(torus.manifold, torus.function, torus.crits,
                               torus.cfg, seed=2059)
    n = len(series)
    lo = int(np.flatnonzero(series.times == report.fit_window[0])[0])
    assert math.floor(0.6 * n) < lo < math.floor(0.95 * n) - FIT_MIN_SAMPLES
    assert report.n_fit_samples == math.floor(0.95 * n) - lo
    assert report.relative_gap < 0.05
    limit = {p.id: p for p in torus.crits}[report.limit_id]
    slow = limit.eigenvectors[0].vec
    on = series.vectors[lo:] @ slow
    off = np.linalg.norm(series.vectors[lo:] - np.outer(on, slow), axis=1)
    assert off[0] > 1e-2 * abs(on[0])
    assert np.all(off[1:] <= 1e-2 * np.abs(on[1:]))
    # the fixed 60-95% window misses the prediction
    monkeypatch.setattr(linearization, "_last_mixed_sample", lambda s, p: 0)
    assert fit_decay_rate(series, torus.crits).relative_gap > 0.5


@pytest.fixture(scope="module")
def near_degenerate():
    # the minimum at the south pole has Hessian eigenvalues 1 and 1.02:
    # V's part on the second dies out like exp(-0.02 t), so it stays
    # above 1% of the slow part until capture
    text = "\n".join([
        "name = sphere_near_degenerate",
        "ambient_dim = 3",
        "constraint.1 = x1^2 + x2^2 + x3^2 - 1",
        "function = x3 + 0.01*x1^2",
        "bounding_box = -1.2 1.2",
    ])
    return ScenarioContext(Scenario(
        "sphere_near_degenerate", parse_scenario_text(text), None))


@pytest.mark.parametrize("seed", range(5))
def test_decay_fit_at_a_near_degenerate_minimum(near_degenerate, seed):
    # the rates V mixes lie within 2% of the smallest
    c = near_degenerate
    _, report = run_decay(c.manifold, c.function, c.crits, c.cfg, seed=seed)
    limit = {p.id: p for p in c.crits}[report.limit_id]
    assert limit.eigenvalues == pytest.approx([1.0, 1.02], abs=1e-8)
    assert report.n_fit_samples >= FIT_MIN_SAMPLES
    assert report.relative_gap < 0.05


def test_fit_takes_the_last_samples_where_v_stays_mixed(near_degenerate):
    # a window waiting for the 1% share would be empty: the fit takes
    # the last FIT_MIN_SAMPLES before the dropped final slice
    c = near_degenerate
    series, report = run_decay(c.manifold, c.function, c.crits, c.cfg,
                               seed=0)
    hi = math.floor(0.95 * len(series))
    assert report.n_fit_samples == FIT_MIN_SAMPLES
    assert report.fit_window == (series.times[hi - FIT_MIN_SAMPLES],
                                 series.times[hi - 1])


def test_slow_component_sums_left_to_right():
    # squared components 1e16, 1 and 1 on a threefold slow eigenspace: a
    # compensated sum (math.fsum, and `sum` of floats on Python 3.12 and
    # later) gives 1e16 + 2, the sum from 0.0 left to right 1e16
    limit = SimpleNamespace(
        id=0, eigenvalues=[1.0, 1.0, 1.0],
        eigenvectors=[SimpleNamespace(vec=e) for e in np.eye(3)])
    v_end = np.array([1e8, 1.0, 1.0])
    series = SimpleNamespace(terminal=Terminal("converged", 0),
                             vectors=np.array([v_end]))
    proj = 0.0
    for e in np.eye(3):
        proj += float(np.dot(v_end, e)) ** 2
    norm = np.linalg.norm(v_end)
    got = slow_component(series, [limit])
    assert got == math.sqrt(proj) / norm
    assert got != math.sqrt(math.fsum(v * v for v in v_end)) / norm


def test_slow_component_of_a_vanished_vector_is_zero():
    # a final vector of norm 0.0 has no direction: its slow share is 0.0,
    # so run_decay redraws the start vector, rather than a 0/0 nan
    limit = SimpleNamespace(
        id=0, eigenvalues=[1.0, 2.0],
        eigenvectors=[SimpleNamespace(vec=e) for e in np.eye(2)])
    series = SimpleNamespace(terminal=Terminal("converged", 0),
                             vectors=np.array([[1.0, 1.0], [0.0, -0.0]]))
    got = slow_component(series, [limit])
    assert got == 0.0 and isinstance(got, float)


def test_fit_requires_convergence(sphere):
    series = integrate_variational(
        sphere.manifold, sphere.function, [1.0, 0.0, 0.0],
        np.array([0.0, 1.0, 0.0]), sphere.cfg.replace(t_max=1.0),
        crits=sphere.crits,
    )
    with pytest.raises(NotConvergedError):
        fit_decay_rate(series, sphere.crits)


def test_fit_rejects_saddle_limits(torus):
    # the inner-equator orbit is captured by the lower saddle (index 1)
    m, f = torus.manifold, torus.function
    upper = torus.crits[2]
    seed = unstable_seeds(m, upper)[0]
    rng = np.random.default_rng(0)
    v0 = m.random_tangent(seed.point, rng)
    series = integrate_variational(m, f, seed.point, v0, torus.cfg,
                                   crits=torus.crits)
    assert series.terminal.converged
    assert series.terminal.critical_point_id == 1
    with pytest.raises(NotConvergedError):
        fit_decay_rate(series, torus.crits)


def test_fit_window_minimum_size(sphere):
    # a loose capture ends the flow after 33 samples, so the fit window
    # (60% to 95% of them) holds 12, fewer than FIT_MIN_SAMPLES
    cfg = sphere.cfg.replace(capture_radius=0.1, capture_grad_tol=1e-2)
    series = integrate_variational(
        sphere.manifold, sphere.function, [0.6, 0.0, -0.8], [0.0, 1.0, 0.0],
        cfg, crits=sphere.crits,
    )
    assert series.terminal.converged
    n = len(series)
    assert math.floor(0.95 * n) - math.floor(0.6 * n) < FIT_MIN_SAMPLES
    with pytest.raises(FlowError, match="fit window has 12 samples"):
        fit_decay_rate(series, sphere.crits)
