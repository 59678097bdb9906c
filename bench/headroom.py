"""Budget headroom: one pass of the acceptance suite, elapsed over budget.

    python3 bench/headroom.py

Runs morseflow.acceptance.run_all() once in this process, prints each
criterion's elapsed/budget ratio, flags every ratio above 50 %, and
writes .bench_out/headroom.json with the machine facts. It is not one of
the gated benchmark workloads and changes no budget. Exit status is 1
when a criterion fails, 0 otherwise (flags alone do not fail it). The
full suite takes about two minutes on a 2-core machine.
"""

import json
import sys

import harness
from run import OUT, ROOT, _import_morseflow  # pins BLAS threads too

FLAG_RATIO = 0.5


def main():
    why = _import_morseflow()
    if why is not None:
        print(f"headroom: cannot run: {why}", file=sys.stderr)
        return 2
    from morseflow.acceptance import run_all

    rows = []
    for result in run_all():
        ratio = result.elapsed / result.budget
        rows.append({
            "criterion": result.number,
            "name": result.name,
            "passed": result.passed,
            "elapsed_s": result.elapsed,
            "budget_s": result.budget,
            "ratio": ratio,
            "flagged": ratio > FLAG_RATIO,
        })
        mark = "FLAG" if ratio > FLAG_RATIO else "ok"
        status = "PASS" if result.passed else "FAIL"
        print(f"c{result.number:02d} {result.name:<26s} {status} "
              f"{result.elapsed:8.2f}s / {result.budget:5.0f}s = "
              f"{100 * ratio:5.1f}%  {mark}")
    OUT.mkdir(exist_ok=True)
    record = {"machine": harness.machine_facts(ROOT),
              "flag_ratio": FLAG_RATIO, "criteria": rows}
    (OUT / "headroom.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(row["passed"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
