"""Run one morseflow benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload basin-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; morseflow is imported from ./src.
With --trace 0 the last stdout line is a JSON object carrying the
end-to-end metrics (setup_s, solve_s, op_p50_ms, op_p90_ms, ok_ratio,
peak_rss_mb); with --trace 1 it carries the per-layer metrics of a traced
run instead. Times are scaled for machine speed by a fixed probe (see
harness.py). A record with the machine facts, the fingerprint and every
metric is written to .bench_out/. See bench/README.md.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402  (standard library only)

# One process, one BLAS thread: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 3  # set-ups per untraced run; setup_s takes their median
MIN_PASSES = 3  # untraced passes at least, whatever --seconds says
MAX_PROBLEMS = 20  # problem messages kept in the record


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("basin-sweep", "census", "orbit-geometry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _import_morseflow():
    """Import morseflow from this checkout's src/, or say why not."""
    package = SRC / "morseflow"
    if not (package / "__init__.py").is_file():
        return f"no morseflow sources at {package}"
    sys.path.insert(0, str(SRC))
    import morseflow
    if Path(morseflow.__file__).resolve().parent != package.resolve():
        return f"morseflow was imported from {morseflow.__file__}"
    return None


def _setup(workload, reps):
    """Scenes, the median scaled seconds of each scene's set-up over `reps`
    identical set-ups, and the raw seconds of each set-up."""
    from functools import partial

    from morseflow.symbolics import compile_expression
    from workloads import load_scene
    load = partial(load_scene, census=workload.census_in_setup)
    scaled, raw = [], []
    with harness.SpeedClock() as clock:
        for _ in range(reps):
            # Empty the expression cache so every set-up compiles, like the
            # first one in a fresh process.
            compile_expression.cache_clear()
            scenes, scaled_s, raw_s = harness.timed_setup(
                load, workload.scenarios, clock)
            scaled.append(scaled_s)
            raw.append(raw_s)
    medians = {name: statistics.median(rep[name] for rep in scaled)
               for name in workload.scenarios}
    return scenes, medians, raw


def _tally(passes, setup_items, setup_problems):
    attempted = len(setup_items) + sum(p.attempted for p in passes)
    failed = len(setup_problems) + sum(p.failed for p in passes)
    problems = setup_problems + [m for p in passes for m in p.problems]
    return attempted, failed, problems


def _layer_metrics(setup_tracer, setup_raw, plain, traced,
                   solve_tracer):
    values = harness.layer_metrics(solve_tracer, len(traced),
                                   sum(p.wall_s for p in traced))
    setup_values = harness.layer_metrics(setup_tracer, 1, setup_raw)
    for name in harness.SETUP_METRICS:
        values[f"setup.{name}"] = setup_values[name]
    values["trace.overhead_ratio"] = (harness.solve_seconds(traced)
                                      / harness.solve_seconds(plain))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in harness.layer_metric_names()}


def _end_to_end_metrics(import_s, setup_scaled, passes, attempted,
                        failed):
    latencies = [t for p in passes for t in p.latencies]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": ("s", import_s + sum(setup_scaled.values())),
        "solve_s": ("s", harness.solve_seconds(passes)),
        "op_p50_ms": ("ms", 1e3 * harness.percentile(latencies, 50)),
        "op_p90_ms": ("ms", 1e3 * harness.percentile(latencies, 90)),
        "ok_ratio": ("ratio", 1.0 - failed / attempted),
        "peak_rss_mb": ("MiB", peak_kib / 1024.0),
    }
    return {name: {"value": value, "unit": unit}
            for name, (unit, value) in values.items()}


def main(argv=None):
    args = _parse(argv)
    with harness.SpeedClock() as clock:
        mark = clock.start()
        why = _import_morseflow()
        if why is not None:
            print(f"bench: cannot run: {why}", file=sys.stderr)
            return 2
        import tracing
        from workloads import WORKLOADS, setup_checks
        import_raw = clock.elapsed(mark) + (mark[0] - _STARTED)
        import_s = import_raw * clock.factor(mark)
    workload = WORKLOADS[args.workload]
    if args.trace:
        setup_tracer = tracing.Tracer()
        with tracing.instrument(setup_tracer):
            scenes, setup_scaled, setup_raw = _setup(workload, 1)
    else:
        scenes, setup_scaled, setup_raw = _setup(workload, SETUP_REPS)
    checked = setup_checks(scenes)
    setup_items = [item for _, _, item in checked]
    setup_problems = [f"set-up census {name}: " + "; ".join(problems)
                      for name, problems, _ in checked if problems]
    ops = workload.make_ops(scenes, args.seed, workload.sizes)

    clock = harness.SpeedClock()
    with clock:
        if args.trace:
            solve_tracer = tracing.Tracer()
            plain = harness.run_passes(ops, clock, args.seconds / 2, 2)
            with tracing.instrument(solve_tracer):
                traced = harness.run_passes(ops, clock, args.seconds / 2, 1,
                                            solve_tracer)
            passes = plain + traced
        else:
            passes = harness.run_passes(ops, clock, args.seconds, MIN_PASSES)
    attempted, failed, problems = _tally(passes, setup_items, setup_problems)
    if args.trace:
        metrics = _layer_metrics(setup_tracer, setup_raw[0], plain, traced,
                                 solve_tracer)
    else:
        metrics = _end_to_end_metrics(import_s, setup_scaled, passes,
                                      attempted, failed)

    prints = sorted({harness.fingerprint(setup_items + p.items)
                     for p in passes})
    correct = failed == 0 and len(prints) == 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": harness.machine_facts(ROOT),
        "probe_nominal_s": harness.PROBE_NOMINAL_S,
        "probe_median_s": statistics.median(clock.probes),
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "ops_timed": sum(len(p.latencies) for p in passes),
        "pass_solve_s": [sum(p.spans) for p in passes],
        "pass_wall_s": [p.wall_s for p in passes],
        "op_labels": [op.label for op in ops],
        "op_latency_ms": [[1e3 * t for t in p.latencies] for p in passes],
        "setup_scaled_s": setup_scaled,  # per scene, median over set-ups
        "setup_wall_s": setup_raw,
        "import_wall_s": import_raw,
        "fingerprint_sha256": prints,
        "fingerprint": setup_items + passes[0].items,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = {"dropped": solve_tracer.dropped,
                 "spans": [s._asdict() for s in solve_tracer.spans]}
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(ops)} ops, {record['ops_timed']} ops timed, raw pass wall "
          f"median {statistics.median(record['pass_wall_s']):.4g} s, "
          f"fingerprint {prints[0][:16]}")
    for message in problems[:MAX_PROBLEMS]:
        print(f"# problem: {message}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
