#!/usr/bin/env python3
"""Count the rows of `CompiledExpression.columns` that differ from the point call.

    python3 oracles/columns_bits.py [--points 2000] [--seed 0]

For each field kernel below, the script draws `--points` columns
uniform in [-1.2, 1.2]^3 (numpy's default_rng(`--seed`)) and runs
`value`, `value_and_grad` and `kkt` on all of them by one `columns`
call each (`kkt` through `kkt_columns`, at the multipliers that each
point's `value_and_grad` gives). It prints, per kernel and function,
how many rows differ in any bit from the same function called on that
point alone, and a row whose point call raises counts as differing
unless its column is flagged. The kernels are f = exp(x1) + x2*x3,
x1^5 + x2*x3 and x1^6 - x2^7 + x3 on the unit sphere, and the
`transcendental` scenario of tests/test_kernels.py (sin, cos and exp in
f, sin in the constraint). The exit status is 1 if any row differs. The
package is imported from this checkout's src/.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import numpy as np  # noqa: E402

from morseflow import parse  # noqa: E402
from morseflow.errors import MorseflowError  # noqa: E402
from morseflow.symbolics import compile_expression  # noqa: E402

SPHERE = "x1^2 + x2^2 + x3^2 - 1"
# name: (constraint, f) on R^3
KERNELS = {
    "exp": (SPHERE, "exp(x1) + x2*x3"),
    "x^5": (SPHERE, "x1^5 + x2*x3"),
    "x^6, x^7": (SPHERE, "x1^6 - x2^7 + x3"),
    "transcendental": ("x1^2 + x2^2 + x3^2 - 1 + 0.1*sin(x1)",
                       "sin(x3) + 0.3*cos(x1*x2) + 0.1*exp(x2)"),
}


def _point(call, *args):
    """The flat float64 outputs of one point call, or None if it raises."""
    try:
        out = call(*args)
    except MorseflowError:
        return None
    return np.concatenate([np.ravel(block) for block in out])


def _differing(got, failed, want):
    """How many rows differ in a bit from the point calls `want`."""
    return sum(
        (not flag) if w is None else (flag or row.tobytes() != w.tobytes())
        for row, flag, w in zip(got, failed, want)
    )


def differing_rows(kernel, x):
    """{function: rows that differ} for the columns x (3, N)."""
    points = x.T.tolist()
    value = [_point(lambda p: [kernel.value(p)], p) for p in points]
    vg = [_point(kernel.value_and_grad, p) for p in points]
    lam = np.array([[np.nan] if w is None else w[1 + len(p):]
                    for w, p in zip(vg, points)])
    kkt = [_point(kernel.kkt, p, row) for p, row in zip(points, lam)]
    blocks, failed = kernel.kkt_columns(x, lam.T.copy())
    rows = np.concatenate([b.reshape(len(points), -1) for b in blocks],
                          axis=1)
    return {
        "value": _differing(*kernel.columns("value", x), value),
        "value_and_grad": _differing(*kernel.columns("value_and_grad", x),
                                     vg),
        "kkt": _differing(rows, failed, kkt),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    x = np.random.default_rng(args.seed).uniform(-1.2, 1.2, (3, args.points))
    total = 0
    for name, (constraint, f) in KERNELS.items():
        kernel = compile_expression(parse(f, 3), 3, (parse(constraint, 3),))
        counts = differing_rows(kernel, x)
        total += sum(counts.values())
        print(f"{name}: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
