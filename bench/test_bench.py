"""Tests of the benchmark's own code: spans, patching, fingerprints, shapes.

They run on small workload sizes so they stay quick; run them with
`PYTHONPATH=src python -m pytest bench/test_bench.py`.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import morseflow as mf

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import shapes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _check_tree(spans):
    """Every span: self_s >= 0 and self_s + children == its duration."""
    by_id = {s.id: s for s in spans}
    children = {}
    for s in spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
            children.setdefault(s.parent, []).append(s)
    for s in spans:
        inner = sum(c.end - c.start for c in children.get(s.id, []))
        assert s.self_s >= 0.0
        assert s.self_s + inner == pytest.approx(s.end - s.start, abs=1e-9)
    return children


def test_spans_nest_and_self_times_add_up():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(2000))

    traced_leaf = tracing.wrap(tracer, leaf, "leaf")

    def middle():
        return traced_leaf() + traced_leaf()

    traced_middle = tracing.wrap(tracer, middle, "middle")

    def root():
        return traced_middle() + traced_leaf()

    tracing.wrap(tracer, root, "root")()
    children = _check_tree(tracer.spans)
    names = {s.id: s.name for s in tracer.spans}
    assert [names[c.id] for c in children[tracer.spans[-1].id]] == [
        "middle", "leaf"]
    assert tracer.calls == {"root": 1, "middle": 1, "leaf": 3}
    assert sum(tracer.self_s.values()) == pytest.approx(
        tracer.total_s["root"], abs=1e-9)


def test_error_hook_sees_the_exception_and_the_span_closes():
    tracer = tracing.Tracer()
    seen = []

    def boom():
        raise ValueError("no")

    traced = tracing.wrap(tracer, boom, "boom",
                          on_error=lambda t, exc: seen.append(exc))
    with pytest.raises(ValueError):
        traced()
    assert len(seen) == 1 and tracer.calls["boom"] == 1
    assert not tracer.active["boom"]


@pytest.fixture(scope="module")
def sphere_scene():
    return workloads.load_scenes(("sphere2",), census=True)


def test_traced_morseflow_spans_nest(sphere_scene):
    scene = sphere_scene["sphere2"]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        mf.integrate_flow(scene.manifold, scene.function, [1.0, 0.0, 0.0],
                          scene.cfg, crits=scene.crits)
    _check_tree(tracer.spans)
    assert tracer.calls["flow.integrate_flow"] == 1
    assert tracer.counts["flow.steps"] > 0
    assert tracer.counts["flow.field_evals"] > tracer.counts["flow.steps"]
    assert tracer.calls["symbolics.value_and_grad"] > 0


def test_wrappers_are_removed_after_the_traced_run(sphere_scene):
    before = tracing.patch_sites()
    scene = sphere_scene["sphere2"]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert mf.integrate_flow is not before[0][2]
        mf.basin_sample(scene.manifold, scene.function, scene.crits,
                        scene.cfg, 2, seed=0,
                        points=shapes.draw("sphere2",
                                           np.random.default_rng(0), 2)[0])
    calls = sum(tracer.calls.values())
    after = tracing.patch_sites()
    assert len(after) == len(before)
    for (owner, key, original), (_, _, now) in zip(before, after):
        assert getattr(owner, key) is original is now
    mf.integrate_flow(scene.manifold, scene.function, [1.0, 0.0, 0.0],
                      scene.cfg, crits=scene.crits)
    assert sum(tracer.calls.values()) == calls


def test_every_import_site_is_patched():
    sites = {(getattr(owner, "__name__", ""), key)
             for owner, key, _ in tracing.patch_sites()}
    for site in [("morseflow.flow", "integrate_flow"),
                 ("morseflow.connectivity", "integrate_flow"),
                 ("morseflow", "integrate_flow"),
                 ("morseflow.linearization", "integrate_variational_multi"),
                 ("morseflow.transport", "integrate_variational_multi"),
                 ("morseflow.morse", "evaluate_jet"),
                 ("morseflow.geometry", "evaluate_jet")]:
        assert site in sites


SMALL = {
    "basin-sweep": workloads.BasinSizes(starts=3),
    "census": workloads.CensusSizes(subseeds=1, starts=20, samples=100),
    "orbit-geometry": workloads.OrbitSizes(flows=1, transports=1,
                                           holonomies=1, flatness_samples=1),
}


def _fingerprints(name, seed):
    workload = workloads.WORKLOADS[name]
    scenes = workloads.load_scenes(workload.scenarios,
                                   workload.census_in_setup)
    ops = workload.make_ops(scenes, seed, SMALL[name])
    with harness.SpeedClock() as clock:
        first, second = (harness.run_pass(ops, clock),
                         harness.run_pass(ops, clock))
    assert first.failed == 0, first.problems
    assert first.attempted > 0
    return harness.fingerprint(first.items), harness.fingerprint(second.items)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_fingerprints(name):
    a = _fingerprints(name, 7)
    b = _fingerprints(name, 7)
    assert a[0] == a[1] == b[0] == b[1]


@pytest.mark.parametrize("name", shapes.SHAPES)
def test_closed_form_points_lie_on_the_manifold(name):
    m = mf.load_scenario(name).build_manifold()
    points, frames = shapes.draw(name, np.random.default_rng(3), 200)
    for x, frame in zip(points, frames):
        assert np.max(np.abs(m.constraint_values(x))) <= 1e-12
        assert frame.shape == (m.dim, m.ambient_dim)
        assert np.allclose(frame @ frame.T, np.eye(m.dim), atol=1e-12)
        assert np.max(np.abs(m.constraint_jacobian(x) @ frame.T)) <= 1e-12


def test_closed_form_draws_repeat_for_a_seed():
    a = shapes.draw("clifford", np.random.default_rng(5), 4)
    b = shapes.draw("clifford", np.random.default_rng(5), 4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert layer == harness.layer_metric_names()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert harness.percentile(values, 50) == 5
    assert harness.percentile(values, 90) == 9
    assert harness.percentile([4.0], 90) == 4.0
