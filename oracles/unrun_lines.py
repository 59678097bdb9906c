#!/usr/bin/env python3
"""List the lines of src/morseflow that the tier-1 suite never runs.

    python3 oracles/unrun_lines.py [PYTEST_ARG ...]

runs the tier-1 suite (tests/ and bench/test_bench.py, or the pytest
arguments given) in this process under a `sys.settrace` line tracer that
follows only the files of src/morseflow. It then prints, per module, the
executable lines (those that `co_lines` of the module's compiled code
names, docstrings left out) that never ran, as ranges, and their total.
The package is imported from this checkout's src/ after the tracer is
set, so its import-time lines count as run.

`test_flow_leaves_no_reference_cycles` is deselected, whatever the
arguments: it asserts that a flow leaves nothing for the garbage
collector, and a tracer's hold on frames breaks that. Under the tracer
the suite takes about 100 s on a 2-core machine. The exit status is
pytest's.
"""

import ast
import os
import sys
import threading
import types

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(HERE, "src")
PACKAGE = os.path.join(SRC, "morseflow") + os.sep
TIER1 = ["tests", os.path.join("bench", "test_bench.py")]
DESELECT = ["--deselect",
            "tests/test_flow.py::test_flow_leaves_no_reference_cycles"]


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def executable_lines(path):
    """Lines of the file that some instruction of its code belongs to."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    lines = set()
    codes = [compile(source, path, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines - docstring_lines(ast.parse(source))


def ranges(lines):
    """'3, 7-9, 12' for {3, 7, 8, 9, 12}."""
    spans = []
    for line in sorted(lines):
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def traced_run(args):
    """Run pytest on `args` under the tracer: (exit status, {path: lines
    that ran})."""
    ran = {}

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        seen = ran.setdefault(path, set())
        seen.add(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line
        return on_line

    sys.path.insert(0, SRC)
    os.chdir(HERE)
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv):
    status, ran = traced_run([*(argv or TIER1), *DESELECT])
    total = 0
    print()
    for folder, _, names in sorted(os.walk(PACKAGE)):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            unrun = executable_lines(path) - ran.get(path, set())
            if unrun:
                total += len(unrun)
                print(f"{os.path.relpath(path, SRC)}: {len(unrun)} "
                      f"unrun: {ranges(unrun)}")
    print(f"total: {total} executable lines never ran")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
