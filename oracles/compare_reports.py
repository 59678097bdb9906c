#!/usr/bin/env python3
"""Compare two report trees written by `snapshot_reports.py`, file by file.

    python3 oracles/compare_reports.py DIR_A DIR_B

prints one line per file found in either tree: `identical`, `only in
DIR_A` (or DIR_B), or the file name followed by one line per
difference. Numbers are grouped by JSON path, with every list index
written [*], or by CSV column; each group prints the largest absolute
difference and the largest relative one, |a - b| / max(|a|, |b|). A
difference of keys, lengths, CSV headers or non-numeric values is
printed in full, with its concrete path; so is the first differing line
of any other file. The exit status is 0 when every file is identical
and 1 otherwise.
"""

import argparse
import csv
import json
import math
import os
import sys


class _Differences:
    """Numeric differences per grouped path, and the other ones in full."""

    def __init__(self):
        self.numeric = {}  # group -> [max abs, max rel]
        self.other = []

    def number(self, group, a, b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        gap = abs(a - b)
        rel = gap / max(abs(a), abs(b))
        worst = self.numeric.setdefault(group, [0.0, 0.0])
        # a nan gap (a nan against a number) stays nan
        worst[0] = gap if math.isnan(gap) else max(worst[0], gap)
        worst[1] = rel if math.isnan(rel) else max(worst[1], rel)

    def lines(self):
        out = [f"  {group}: max abs {gap:.3g}, max rel {rel:.3g}"
               for group, (gap, rel) in sorted(self.numeric.items())]
        return out + [f"  {text}" for text in self.other]


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _walk(a, b, path, group, diff):
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            diff.other.append(f"{path or '.'}: keys {sorted(a)} != {sorted(b)}")
        for key in a:
            if key in b:
                _walk(a[key], b[key], f"{path}.{key}", f"{group}.{key}", diff)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diff.other.append(f"{path or '.'}: length {len(a)} != {len(b)}")
        for i, (u, v) in enumerate(zip(a, b)):
            _walk(u, v, f"{path}[{i}]", f"{group}[*]", diff)
    elif _is_number(a) and _is_number(b):
        diff.number(group or ".", float(a), float(b))
    elif a != b:
        diff.other.append(f"{path or '.'}: {a!r} != {b!r}")


def _compare_json(path_a, path_b, diff):
    with open(path_a) as fa, open(path_b) as fb:
        _walk(json.load(fa), json.load(fb), "", "", diff)


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _compare_csv(path_a, path_b, diff):
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    head_a, head_b = rows_a[0] if rows_a else [], rows_b[0] if rows_b else []
    if head_a != head_b:
        diff.other.append(f"header {head_a} != {head_b}")
        return
    if len(rows_a) != len(rows_b):
        diff.other.append(f"rows {len(rows_a) - 1} != {len(rows_b) - 1}")
    for line, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=2):
        for column, a, b in zip(head_a, ra, rb):
            u, v = _float(a), _float(b)
            if u is not None and v is not None:
                diff.number(column, u, v)
            elif a != b:
                diff.other.append(f"line {line}, {column}: {a!r} != {b!r}")


def _compare_text(path_a, path_b, diff):
    with open(path_a) as fa, open(path_b) as fb:
        lines_a, lines_b = fa.read().splitlines(), fb.read().splitlines()
    for line, (a, b) in enumerate(zip(lines_a, lines_b), start=1):
        if a != b:
            diff.other.append(f"line {line}: {a!r} != {b!r}")
            return
    if len(lines_a) != len(lines_b):
        diff.other.append(f"lines {len(lines_a)} != {len(lines_b)}")


def _files(root):
    found = set()
    for folder, _, names in os.walk(root):
        for name in names:
            found.add(os.path.relpath(os.path.join(folder, name), root))
    return found


def compare(dir_a, dir_b):
    """Print the comparison; True when every file is identical."""
    files_a, files_b = _files(dir_a), _files(dir_b)
    same = True
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            print(f"{rel}: only in {dir_a if rel in files_a else dir_b}")
            same = False
            continue
        path_a, path_b = os.path.join(dir_a, rel), os.path.join(dir_b, rel)
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            if fa.read() == fb.read():
                print(f"{rel}: identical")
                continue
        same = False
        diff = _Differences()
        if rel.endswith(".json"):
            _compare_json(path_a, path_b, diff)
        elif rel.endswith(".csv"):
            _compare_csv(path_a, path_b, diff)
        else:
            _compare_text(path_a, path_b, diff)
        # Bytes differ with equal values: formatting or the sign of a zero.
        print(f"{rel}:", *(diff.lines() or ["  equal values, other bytes"]),
              sep="\n")
    return same


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", help="first snapshot_reports.py tree")
    parser.add_argument("dir_b", help="second snapshot_reports.py tree")
    args = parser.parse_args()
    sys.exit(0 if compare(args.dir_a, args.dir_b) else 1)
