import math

import numpy as np
import pytest

from morseflow import (
    FlowConfig,
    check_energy_ode,
    fit_decay_rate,
    integrate_flow,
    integrate_variational,
    run_decay,
    unstable_seeds,
)
from morseflow.errors import FlowError, NotConvergedError
from morseflow.linearization import (
    ENERGY_MAX_STEP,
    FIT_MIN_SAMPLES,
    _centered_derivative,
    integrate_variational_multi,
    slow_component,
)


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
    rng = np.random.default_rng(0)
    t = np.cumsum(rng.uniform(0.1, 1.0, 9))
    coef = rng.standard_normal(5)
    e = np.polyval(coef, t)
    slope = np.polyval(np.polyder(coef), t)
    for i in range(1, len(t) - 1):
        assert _centered_derivative(t, e, i) == pytest.approx(
            slope[i], rel=1e-9, abs=1e-9)


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
