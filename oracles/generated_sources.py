#!/usr/bin/env python3
"""Write every generated function's source, one file each, into one tree.

    python3 oracles/generated_sources.py --out DIR

For each scenario (the four catalog ones and three off the catalog:
`sphere_in_r5` and `o3` with structural zeros in the Gram matrix,
`sphere_cut` with two overlapping Jacobian rows) the script writes
DIR/<scenario>/<function>.py for the field kernel with 0, 1 and 2
tangent vectors (`field_0` ... `field_2`), the constraint map's
`value_and_grad` (`map_vg`), its row projection for one and two rows
(`rows_1`, `rows_2`), its Gauss-Newton retraction (`gn`), the KKT
kernel (`kkt`) and the flow loop of `flow._loop_factory` for the plain
state and the states with one and two vectors (`loop_<size>`). Each is
the text handed to `compile`. The package is imported from this
checkout's src/, so `diff -r` of the trees of two checkouts shows which
generated lines moved.
"""

import argparse
import builtins
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from morseflow import flow, load_scenario, parse  # noqa: E402
from morseflow.catalog import list_scenarios  # noqa: E402
from morseflow.symbolics import compile as compiled  # noqa: E402

# (ambient dimension, constraints, f) off the catalog, as in
# tests/test_kernels.py
OFF_CATALOG = {
    "sphere_in_r5": (5, ("x1^2 + x2^2 + x3^2 - 1", "x4", "x5"),
                     "x3 + 0.3 * x1 * x2"),
    "o3": (9, tuple(" + ".join(f"x{i + r}*x{j + r}" for r in (0, 3, 6))
                    + (" - 1" if i == j else "")
                    for i in (1, 2, 3) for j in range(i, 4)),
           "x1 + 2*x5 + 3*x9 + 0.4*x2*x4"),
    "sphere_cut": (4, ("x1^2 + x2^2 + x3^2 + x4^2 - 1",
                       "x1 + 2 * x2 - x3 + 0.5 * x4 - 0.3"),
                   "x3 + 0.2 * x1 * x4"),
}


def source_of(build, *args):
    """The source text that `build(*args)` hands to `compile`."""
    sources = []

    def capture(src, *rest):
        sources.append(src)
        return builtins.compile(src, *rest)

    for module in (compiled, flow):
        module.compile = capture
    try:
        build(*args)
    finally:
        for module in (compiled, flow):
            del module.compile
    (src,) = sources
    return src


def sources(n, constraints, f):
    """{function name: source} of one scenario."""
    out = {f"field_{j}": source_of(compiled._field_code, f, constraints, n, j)
           for j in range(3)}
    out["map_vg"] = source_of(compiled._value_grad_code, constraints, n)
    for d in (1, 2):
        out[f"rows_{d}"] = source_of(compiled._rows_code, constraints, n, d)
    out["gn"] = source_of(compiled._gn_code, constraints, n)
    out["kkt"] = source_of(compiled._kkt_code, f, constraints, n)
    # a kernel of its own, so that no flow loop is cached on it yet, and
    # the constraint map that a loop takes its first iterate from
    kernel = compiled.CompiledExpression(f, n, constraints)
    compiled.compile_expression(constraints, n)
    for size in (n, 2 * n, 3 * n):
        out[f"loop_{size}"] = source_of(flow._loop_factory, kernel, size)
    return out


def scenarios():
    """(name, n, constraints, f) of every scenario."""
    for name in list_scenarios():
        scenario = load_scenario(name)
        m = scenario.build_manifold()
        yield name, m.ambient_dim, m.constraints, scenario.build_function()
    for name, (n, constraints, f) in OFF_CATALOG.items():
        yield name, n, tuple(parse(c, n) for c in constraints), parse(f, n)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory to write")
    args = parser.parse_args()
    for name, n, constraints, f in scenarios():
        folder = os.path.join(args.out, name)
        os.makedirs(folder, exist_ok=True)
        for function, src in sources(n, constraints, f).items():
            with open(os.path.join(folder, f"{function}.py"), "w") as out:
                out.write(src)
