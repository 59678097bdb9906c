"""Spans and counters around morseflow's public functions, from outside.

`instrument(tracer)` swaps each traced function for a wrapper at every
morseflow module that holds it (morseflow.flow.integrate_flow,
morseflow.connectivity.integrate_flow, morseflow.integrate_flow, ...) and
each traced method on its class, then puts every original back on exit.
The package's source is never touched, so an untraced run pays nothing.

A span's self time is its duration minus the durations of its direct
child spans. Aggregates cover every call; individual span records are
kept up to a cap and written out at the end of the run.
"""

import functools
import sys
import time
from collections import defaultdict, namedtuple
from contextlib import contextmanager

Span = namedtuple("Span", "id parent group name start end self_s")

MAX_SPANS = 20000  # span records kept per tracer; aggregates count them all


class Tracer:
    """Span stack plus per-name aggregates for one traced phase."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.active = defaultdict(int)
        self.spans = []
        self.dropped = 0
        self.group = None  # id of the benchmark op the next spans belong to
        self._stack = []
        self._next_id = 0

    def begin(self, name):
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else None
        frame = [name, time.perf_counter(), 0.0, self._next_id, parent]
        self._stack.append(frame)
        self.active[name] += 1
        return frame

    def end(self, frame):
        stop = time.perf_counter()
        name, start, child_s, span_id, parent = frame
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {name!r} closed out of order")
        self.active[name] -= 1
        duration = stop - start
        own = duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += own
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                Span(span_id, parent, self.group, name, start, stop, own))
        else:
            self.dropped += 1


# -- what is traced ---------------------------------------------------------

def _flow_result(tracer, traj):
    stats = traj.stats
    tracer.counts["flow.steps"] += stats.steps
    tracer.counts["flow.rejected"] += stats.rejected
    tracer.counts["flow.retraction_halvings"] += stats.retraction_halvings
    tracer.counts[f"flow.terminal.{traj.terminal.kind}"] += 1


def _variational_result(tracer, result):
    stats = result[4]
    tracer.counts["linearization.steps"] += stats.steps
    tracer.counts["linearization.rejected"] += stats.rejected


def _census_result(tracer, crits):
    tracer.counts["morse.newton.starts"] += crits.stats.n_starts
    tracer.counts["morse.newton.converged"] += crits.stats.n_converged


def _sample_result(tracer, points):
    tracer.counts["geometry.sample_points.accepted"] += len(points)


def _basin_result(tracer, report):
    tracer.counts["connectivity.unresolved"] += report.unresolved


def _retract_error(tracer, exc):
    from morseflow.errors import RetractionError
    if isinstance(exc, RetractionError):
        tracer.counts["geometry.retract.failures"] += 1


# (module, attribute or Class.method, span name, result hook, error hook)
SPANS = (
    ("morseflow.flow", "integrate_flow", "flow.integrate_flow",
     _flow_result, None),
    ("morseflow.flow", "check_length_bound", "flow.check_length_bound",
     None, None),
    ("morseflow.flow", "GradientField.projected_gradient",
     "flow.projected_gradient", None, None),
    ("morseflow.symbolics.compile", "CompiledExpression.value_and_grad",
     "symbolics.value_and_grad", None, None),
    ("morseflow.symbolics.jets", "evaluate_jet", "symbolics.evaluate_jet",
     None, None),
    ("morseflow.geometry", "ImplicitManifold.retract", "geometry.retract",
     None, _retract_error),
    ("morseflow.geometry", "ImplicitManifold.sample_points",
     "geometry.sample_points", _sample_result, None),
    ("morseflow.geometry", "ImplicitManifold.project_tangent",
     "geometry.project_tangent", None, None),
    ("morseflow.morse", "find_critical_points", "morse.find_critical_points",
     _census_result, None),
    ("morseflow.morse", "geometric_constants", "morse.geometric_constants",
     None, None),
    ("morseflow.morse", "classify_point", "morse.classify_point", None, None),
    ("morseflow.linearization", "integrate_variational_multi",
     "linearization.integrate_variational_multi", _variational_result, None),
    ("morseflow.linearization", "run_decay", "linearization.run_decay",
     None, None),
    ("morseflow.linearization", "check_energy_ode",
     "linearization.check_energy_ode", None, None),
    ("morseflow.transport", "parallel_transport",
     "transport.parallel_transport", None, None),
    ("morseflow.transport", "flatness_test", "transport.flatness_test",
     None, None),
    ("morseflow.transport", "holonomy_curvature",
     "transport.holonomy_curvature", None, None),
    ("morseflow.connectivity", "basin_sample", "connectivity.basin_sample",
     _basin_result, None),
    ("morseflow.connectivity", "build_connection_graph",
     "connectivity.build_connection_graph", None, None),
)

# (module, Class.method or attribute, counter, span the call must sit in)
COUNTERS = (
    ("morseflow.geometry", "ImplicitManifold.values_and_jacobian",
     "geometry.retract.jacobian_evals", "geometry.retract"),
    # Inside the sampler every draw is checked with one constraint_values
    # call (its retraction uses values_and_jacobian), so this counts draws.
    ("morseflow.geometry", "ImplicitManifold.constraint_values",
     "geometry.sample_points.draws", "geometry.sample_points"),
    ("morseflow.flow", "GradientField.projected_gradient",
     "flow.field_evals", "flow.integrate_flow"),
)


def wrap(tracer, fn, name, on_result=None, on_error=None):
    """`fn` inside a span called `name`; hooks see its result or error."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.end(frame)
            if on_error is not None:
                on_error(tracer, exc)
            raise
        tracer.end(frame)
        if on_result is not None:
            on_result(tracer, result)
        return result
    return traced


def _counted(tracer, fn, counter, inside):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if tracer.active[inside]:
            tracer.counts[counter] += 1
        return fn(*args, **kwargs)
    return counted


def _package_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None
            and (key == "morseflow" or key.startswith("morseflow."))]


def _sites(module_name, attribute):
    """(owner, name, original) for every place the target is bound."""
    module = sys.modules[module_name]
    if "." in attribute:
        cls_name, method = attribute.split(".")
        cls = getattr(module, cls_name)
        return [(cls, method, cls.__dict__[method])]
    original = getattr(module, attribute)
    return [(mod, key, value)
            for mod in _package_modules()
            for key, value in list(vars(mod).items())
            if value is original]


def patch_sites():
    """Every (owner, name, original) that `instrument` replaces."""
    found = []
    for module_name, attribute, *_ in SPANS + COUNTERS:
        found.extend(_sites(module_name, attribute))
    return found


@contextmanager
def instrument(tracer):
    """Route morseflow's traced functions through `tracer` for the block."""
    import morseflow  # noqa: F401  (loads every module that gets patched)
    replaced = []
    try:
        for module_name, attribute, name, on_result, on_error in SPANS:
            for owner, key, original in _sites(module_name, attribute):
                setattr(owner, key,
                        wrap(tracer, original, name, on_result, on_error))
                replaced.append((owner, key, original))
        for module_name, attribute, counter, inside in COUNTERS:
            for owner, key, current in _sites(module_name, attribute):
                setattr(owner, key, _counted(tracer, current, counter, inside))
                replaced.append((owner, key, current))
        yield tracer
    finally:
        for owner, key, original in reversed(replaced):
            setattr(owner, key, original)
