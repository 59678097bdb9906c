"""Timing loop, per-layer metrics from a trace, fingerprints, machine facts.

Only the standard library is imported here, so run.py can start a speed
clock before it imports numpy and morseflow and time those imports too.
"""

import hashlib
import json
import math
import os
import platform
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path


# -- machine speed ------------------------------------------------------------
#
# On a shared machine the same code runs up to ~1.6x slower for stretches
# of seconds to minutes, often longer than a run. Every timed interval is
# therefore scaled by PROBE_NOMINAL_S over the mean time of a fixed
# pure-Python probe, taken just before and just after the interval and,
# from a timer signal, every SAMPLE_EVERY_S inside it. A scaled time reads
# as the seconds the interval would take where the probe takes
# PROBE_NOMINAL_S. The probe is benchmark code, so a change to morseflow
# cannot move it. The time the in-interval probes take is subtracted from
# the interval. Raw wall times are kept in the record next to the scaled
# ones.

PROBE_NOMINAL_S = 1e-3
SAMPLE_EVERY_S = 0.05


def _probe_kernel():
    xs = [0.1 * i for i in range(64)]
    acc = 0.0
    for _ in range(120):
        ys = [x * 1.0001 + 0.5 for x in xs]
        acc += sum(a * b for a, b in zip(xs, ys))
        xs = [y - 0.5 for y in ys]
    return acc


def _timed_probe():
    begin = time.perf_counter()
    _probe_kernel()
    return time.perf_counter() - begin


def probe():
    """Best of three timings of the probe kernel, in seconds."""
    return min(_timed_probe() for _ in range(3))


class SpeedClock:
    """Scaled timing of consecutive intervals, inside a `with` block."""

    def __init__(self):
        self.probes = []  # every probe time taken, in order
        self._stolen_s = 0.0
        self._last = None
        self._previous = None

    def _sample(self, signum, frame):
        spent = _timed_probe()
        self.probes.append(spent)
        self._stolen_s += spent

    def __enter__(self):
        self._last = probe()
        self.probes.append(self._last)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self):
        """Mark the start of an interval."""
        return time.perf_counter(), self._stolen_s, len(self.probes)

    def elapsed(self, mark):
        """Raw seconds since `mark`, less the probes taken inside."""
        begin, stolen, _ = mark
        return time.perf_counter() - begin - (self._stolen_s - stolen)

    def factor(self, mark):
        """End the interval with a probe; the scale for its raw times."""
        after = probe()
        seen = [self._last, *self.probes[mark[2]:], after]
        self.probes.append(after)
        self._last = after
        return PROBE_NOMINAL_S / statistics.fmean(seen)


@dataclass
class PassResult:
    """One run of a workload's op list; times are scaled."""

    spans: list = field(default_factory=list)  # op call + check
    latencies: list = field(default_factory=list)  # op call
    wall_s: float = 0.0  # raw time inside ops, in-op probes included
    attempted: int = 0
    failed: int = 0
    items: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def run_pass(ops, clock, tracer=None):
    """Run every op in order; an op that raises or misses its gate fails."""
    result = PassResult()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.group = index
        mark = clock.start()
        try:
            value = op.call()
        except Exception as exc:  # a failing op is counted, the run goes on
            latency = clock.elapsed(mark)
            result.failed += op.units
            result.items.append([op.label, "raised", type(exc).__name__])
            result.problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
        else:
            latency = clock.elapsed(mark)
            bad, item, problem = op.check(value)
            result.failed += bad
            result.items.append(item)
            if problem:
                result.problems.append(problem)
        spent = clock.elapsed(mark)
        result.wall_s += time.perf_counter() - mark[0]
        factor = clock.factor(mark)
        result.attempted += op.units
        result.latencies.append(latency * factor)
        result.spans.append(spent * factor)
    return result


def run_passes(ops, clock, seconds, min_passes, tracer=None):
    """Repeat the op list until `seconds` have passed and min_passes ran."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, clock, tracer))
    return passes


def solve_seconds(passes):
    """One pass's time to a verified answer: the sum of per-op medians.

    Taking each op's median before summing drops the passes in which that
    op straddled a change of machine speed, which a median of pass totals
    would keep.
    """
    return sum(statistics.median(times)
               for times in zip(*(p.spans for p in passes)))


def timed_setup(load, names, clock):
    """({name: load(name)}, {name: scaled seconds}, raw seconds)."""
    scenes, scaled = {}, {}
    raw = 0.0
    for name in names:
        mark = clock.start()
        scenes[name] = load(name)
        spent = clock.elapsed(mark)
        scaled[name] = spent * clock.factor(mark)
        raw += spent
    return scenes, scaled, raw


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100], of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def fingerprint(items):
    """sha256 of the canonical JSON of a list of fingerprint items."""
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- per-layer metrics ---------------------------------------------------------

# Spans whose call count and self time are reported.
SPAN_QUANTITIES = (
    ("flow.integrate_flow", ("calls", "self_s")),
    ("flow.projected_gradient", ("calls", "self_s")),
    ("flow.check_length_bound", ("self_s",)),
    ("symbolics.value_and_grad", ("calls", "self_s")),
    ("symbolics.evaluate_jet", ("calls", "self_s")),
    ("geometry.retract", ("calls", "self_s")),
    ("geometry.sample_points", ("self_s",)),
    ("geometry.project_tangent", ("calls", "self_s")),
    ("morse.find_critical_points", ("self_s",)),
    ("morse.geometric_constants", ("self_s",)),
    ("morse.classify_point", ("calls",)),
    ("linearization.integrate_variational_multi", ("calls", "self_s")),
    ("linearization.run_decay", ("self_s",)),
    ("linearization.check_energy_ode", ("self_s",)),
    ("transport.parallel_transport", ("self_s",)),
    ("transport.flatness_test", ("self_s",)),
    ("transport.holonomy_curvature", ("calls", "self_s")),
    ("connectivity.basin_sample", ("self_s",)),
    ("connectivity.build_connection_graph", ("self_s",)),
)

# Counters reported per pass, straight from the tracer.
COUNTED = (
    "flow.steps", "flow.rejected", "flow.retraction_halvings",
    "flow.terminal.converged", "flow.terminal.stalled",
    "flow.terminal.max_time", "geometry.retract.failures",
    "geometry.sample_points.draws", "morse.newton.starts",
    "linearization.steps", "linearization.rejected",
    "connectivity.unresolved",
)

# (metric, numerator counter, denominator counters or "calls:<span>", unit)
RATIOS = (
    ("flow.accept_ratio", "flow.steps",
     ("flow.steps", "flow.rejected", "flow.retraction_halvings"), "ratio"),
    ("flow.field_evals_per_step", "flow.field_evals", ("flow.steps",),
     "evals/step"),
    ("geometry.retract.jacobian_evals_per_call",
     "geometry.retract.jacobian_evals", ("calls:geometry.retract",),
     "evals/call"),
    ("geometry.sample_points.accept_ratio", "geometry.sample_points.accepted",
     ("geometry.sample_points.draws",), "ratio"),
    ("morse.newton.converged_ratio", "morse.newton.converged",
     ("morse.newton.starts",), "ratio"),
)

# Inclusive time of a span over the traced wall time.
SHARES = ("flow.integrate_flow", "geometry.sample_points")

# The layers that run while a workload sets up (census and constants).
SETUP_METRICS = (
    "geometry.sample_points.self_s", "geometry.sample_points.draws",
    "geometry.sample_points.accept_ratio", "geometry.retract.self_s",
    "geometry.retract.jacobian_evals_per_call",
    "morse.find_critical_points.self_s", "morse.geometric_constants.self_s",
    "morse.newton.converged_ratio", "symbolics.evaluate_jet.self_s",
)


def _unit(metric):
    for name, _, _, unit in RATIOS:
        if name == metric:
            return unit
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".share"):
        return "ratio"
    return "count"


def layer_metrics(tracer, passes, wall_s):
    """{metric: value} per traced pass; ratios over the whole phase."""
    values = {}
    for span, quantities in SPAN_QUANTITIES:
        for quantity in quantities:
            source = tracer.calls if quantity == "calls" else tracer.self_s
            values[f"{span}.{quantity}"] = source[span] / passes
    for counter in COUNTED:
        values[counter] = tracer.counts[counter] / passes

    def amount(key):
        if key.startswith("calls:"):
            return tracer.calls[key[len("calls:"):]]
        return tracer.counts[key]

    for name, numerator, denominators, _ in RATIOS:
        below = sum(amount(key) for key in denominators)
        values[name] = amount(numerator) / below if below else 0.0
    for span in SHARES:
        values[f"{span}.share"] = tracer.total_s[span] / wall_s
    return values


def layer_metric_names():
    """Every per-layer metric a traced run prints, with its unit."""
    names = [f"{span}.{q}" for span, qs in SPAN_QUANTITIES for q in qs]
    names += list(COUNTED) + [r[0] for r in RATIOS]
    names += [f"{span}.share" for span in SHARES]
    names += [f"setup.{name}" for name in SETUP_METRICS]
    names.append("trace.overhead_ratio")
    return [(name, "ratio" if name == "trace.overhead_ratio"
             else _unit(name.removeprefix("setup."))) for name in names]


# -- machine facts -------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(root):
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        "platform": platform.platform(),
    }
