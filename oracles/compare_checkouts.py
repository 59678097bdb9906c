#!/usr/bin/env python3
"""Run the output oracles in this checkout and another one, and compare.

    python3 oracles/compare_checkouts.py OTHER_DIR

runs `trajectory_digest.py`, `census_digest.py` and `check_details.py`
at their defaults in each checkout, each the checkout's own script on
its own src/, and `generated_sources.py` and `snapshot_reports.py` of
each into a temporary tree. Per oracle it prints `identical`, or the
lines that differ (`-` OTHER_DIR, `+` this checkout), the generated
files that differ, or `compare_reports.py`'s lines for each report file
that differs (OTHER_DIR's tree first). A script that fails counts as a
difference and prints its exit status and the last line of its error
output. The two checkouts run side by side, one process each. The exit
status is 0 when every oracle is identical and 1 otherwise.

A last section, for information only, prints the lines and the code
lines (not blank, comment-only or docstring lines) of each module under
src/ in OTHER_DIR and in this checkout, their total, and the differences.
"""

import argparse
import ast
import difflib
import filecmp
import os
import subprocess
import sys
import tempfile
import tokenize

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = ("trajectory_digest.py", "census_digest.py", "check_details.py")
# oracles that write a tree into --out
TREES = ("generated_sources.py", "snapshot_reports.py")


def _run_both(other, name, args=()):
    """(OTHER_DIR's, this checkout's) completed runs of the oracle `name`,
    started together. The package comes from each script's own src/
    alone, and no bytecode is written into either tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    procs = []
    for side, checkout in (("other", other), ("here", HERE)):
        argv = [sys.executable, os.path.join(checkout, "oracles", name),
                *(a.format(side=side) for a in args)]
        procs.append(subprocess.Popen(argv, env=env, text=True,
                                      stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE))
    return [(p, *p.communicate()) for p in procs]


def _failures(runs):
    """Lines naming each run that failed."""
    lines = []
    for label, (proc, _, err) in zip(("OTHER_DIR", "this checkout"), runs):
        if proc.returncode:
            tail = (err.strip().splitlines() or [""])[-1]
            lines.append(f"  {label} exited {proc.returncode}: {tail}")
    return lines


def _compare_text(runs):
    """The differing lines of two outputs, as a diff without context."""
    (_, a, _), (_, b, _) = runs
    a, b = a.splitlines(), b.splitlines()
    diff = [line for line in difflib.unified_diff(a, b, lineterm="", n=0)
            if line[:1] in "-+" and line[:3] not in ("---", "+++")]
    return [f"  {line}" for line in diff], max(len(a), len(b))


def _files(root):
    """Every file under root, as paths relative to it."""
    return {os.path.relpath(os.path.join(folder, name), root)
            for folder, _, names in os.walk(root) for name in names}


def _compare_trees(a, b):
    """Lines naming each file only in one tree or differing in content."""
    left, right = _files(a), _files(b)
    lines = [f"  only in OTHER_DIR: {p}" for p in sorted(left - right)]
    lines += [f"  only in this checkout: {p}" for p in sorted(right - left)]
    lines += [f"  differs: {p}" for p in sorted(left & right)
              if not filecmp.cmp(os.path.join(a, p), os.path.join(b, p),
                                 shallow=False)]
    return lines, len(left | right)


def _compare_reports(a, b):
    """`compare_reports.py`'s lines for each file of the report trees a
    and b that is not identical."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "oracles", "compare_reports.py"),
         a, b], text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.splitlines()
    total = sum(not line.startswith(" ") for line in lines)
    return [f"  {line}" for line in lines
            if not line.endswith(": identical")], total


def _code_lines(path):
    """(lines, code lines) of one Python file. A code line holds a token
    other than a comment, and is not part of a docstring (by `ast`)."""
    with open(path, "rb") as handle:
        source = handle.read()
    code = set()
    layout = (tokenize.ENCODING, tokenize.COMMENT, tokenize.NL,
              tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENDMARKER)
    for tok in tokenize.tokenize(iter(source.splitlines(True)).__next__):
        if tok.type not in layout:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(source.splitlines()), len(code)


def _src_counts(checkout):
    """{module path under src/: (lines, code lines)} of a checkout."""
    root = os.path.join(checkout, "src")
    return {path: _code_lines(os.path.join(root, path))
            for path in _files(root) if path.endswith(".py")}


def print_src_lines(other):
    """Print the lines and code lines of src/ per module and in total:
    OTHER_DIR's, this checkout's and the difference."""
    before, after = _src_counts(other), _src_counts(HERE)
    rows = [(p, before.get(p, (0, 0)), after.get(p, (0, 0)))
            for p in sorted(before.keys() | after.keys())]
    rows.append(("total", *(tuple(map(sum, zip(*side.values())))
                            for side in (before, after))))
    print("src lines (OTHER_DIR -> this checkout):")
    for path, (lines_a, code_a), (lines_b, code_b) in rows:
        print(f"  {path}: lines {lines_a} -> {lines_b} "
              f"({lines_b - lines_a:+d}), code {code_a} -> {code_b} "
              f"({code_b - code_a:+d})")


def compare(other):
    """Print each oracle's comparison; True when all are identical."""
    same = True
    with tempfile.TemporaryDirectory() as scratch:
        for name in DIGESTS + TREES:
            if name in DIGESTS:
                runs = _run_both(other, name)
                diff, total = _compare_text(runs)
                unit = "lines"
            else:
                out = os.path.join(scratch, name, "{side}")
                runs = _run_both(other, name, ("--out", out))
                a, b = (out.format(side=side) for side in ("other", "here"))
                if name == "snapshot_reports.py":
                    diff, total = _compare_reports(a, b)
                else:
                    diff, total = _compare_trees(a, b)
                unit = "files"
            diff = _failures(runs) + diff
            if diff:
                same = False
                print(f"{name}: differs ({total} {unit})", *diff, sep="\n")
            else:
                print(f"{name}: identical ({total} {unit})")
    return same


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", metavar="OTHER_DIR",
                        help="the root of another checkout")
    args = parser.parse_args()
    same = compare(args.other)
    print_src_lines(args.other)
    sys.exit(0 if same else 1)
