"""Scenario/config file parsing.

The format is flat key-value text, one `key = value` per line, with `#`
comments and blank lines ignored. Keys are dotted and lowercase:

    name             = sphere2
    ambient_dim      = 3
    constraint.1     = x1^2 + x2^2 + x3^2 - 1
    function         = x3
    bounding_box     = -1.2 1.2          # uniform over coordinates
    bounding_box.2   = -2.0 2.0          # or per-coordinate overrides
    tolerance.constraint = 1e-9
    tolerance.rank       = 1e-6
    integrator.rel_tol   = 1e-8
    seed             = 0

Constraints are numbered consecutively from 1. The full grammar is in
docs/config_format.md; errors report line and column.
"""

import math
import re
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .errors import ConfigError, ExpressionSyntaxError
from .flow import FlowConfig
from .geometry import ImplicitManifold
from .symbolics import parse as parse_expression

# tolerance.<key> sets the ImplicitManifold argument <key>_tol.
_TOLERANCE_KEYS = {"constraint", "rank"}
# integrator.<key> sets the FlowConfig field <key>.
INTEGRATOR_KEYS = tuple(f.name for f in fields(FlowConfig))


@dataclass
class ScenarioConfig:
    """Parsed but not yet compiled scenario description."""

    name: str
    ambient_dim: int
    constraint_texts: list
    function_text: str
    bounding_box: list
    tolerances: dict = field(default_factory=dict)
    integrator: dict = field(default_factory=dict)
    seed: int = 0

    def build_manifold(self):
        constraints = [
            parse_expression(text, self.ambient_dim)
            for text in self.constraint_texts
        ]
        kwargs = {f"{sub}_tol": tol for sub, tol in self.tolerances.items()}
        return ImplicitManifold(
            self.ambient_dim, constraints,
            bounding_box=self.bounding_box, **kwargs,
        )

    def build_function(self):
        return parse_expression(self.function_text, self.ambient_dim)


class _Entry(NamedTuple):
    """One `key = value` line: its number, its key (lowercased) and value
    (trimmed), and the 1-based columns where the two start."""

    line: int
    key: str
    key_col: int
    value: str
    value_col: int

    def error(self, message, column=None):
        """A ConfigError on this line, at `column` or else the key's."""
        return ConfigError(message, self.line, column or self.key_col)


def _split_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key_text, equals, value_text = raw.split("#", 1)[0].partition("=")
        key, value = key_text.strip(), value_text.strip()
        if not (key or equals):
            continue
        key_col = len(key_text) - len(key_text.lstrip()) + 1
        # the value starts after the "=" and the blanks that follow it
        lead = len(value_text) - len(value_text.lstrip())
        value_col = len(key_text) + 2 + lead
        entry = _Entry(lineno, key.lower(), key_col, value, value_col)
        if not (key and equals):
            raise entry.error("empty key" if equals
                              else "expected 'key = value'")
        if not value:
            raise entry.error(f"empty value for {entry.key!r}",
                              len(key_text) + 2)
        yield entry


def _parse_float(entry, text, column, positive=False):
    try:
        number = float(text)
    except ValueError:
        number = math.nan
    if not (0.0 if positive else -math.inf) < number < math.inf:
        need = "a finite number > 0" if positive else "a finite number"
        raise entry.error(f"expected {need}, got {text!r}", column)
    return number


def _parse_int(entry, text, column, least=None):
    try:
        number = int(text)
    except ValueError:
        raise entry.error(f"not an integer: {text!r}", column) from None
    if least is not None and number < least:
        raise entry.error(f"{entry.key} must be >= {least}", column)
    return number


def _parse_pair(entry):
    """The value's `lo hi`, each number's errors at its own column."""
    tokens = list(re.finditer(r"\S+", entry.value))
    if len(tokens) != 2:
        raise entry.error("expected two numbers 'lo hi'", entry.value_col)
    lo, hi = (_parse_float(entry, t.group(), entry.value_col + t.start())
              for t in tokens)
    if lo >= hi:
        raise entry.error("bounding box needs lo < hi", entry.value_col)
    return lo, hi


def _index(entry):
    """N of a `prefix.N` key, its errors at the column of N."""
    dot = entry.key.index(".") + 1
    return _parse_int(entry, entry.key[dot:], entry.key_col + dot)


def _checked_expression(entry, ambient_dim):
    """The value of `entry`, parsed; a syntax error at its token."""
    try:
        parse_expression(entry.value, ambient_dim)
    except ExpressionSyntaxError as exc:
        column = entry.value_col + exc.position - 1
        raise entry.error(str(exc), column) from None
    return entry.value


def parse_scenario_text(text, default_name="scenario"):
    """Parse config text into a ScenarioConfig (line/column on errors)."""
    name = default_name
    ambient_dim = None
    constraints = {}
    function = None
    box_uniform = (-3.0, 3.0)
    box_per_coord = {}
    tolerances = {}
    integrator = {}
    seed = 0

    for entry in _split_lines(text):
        key, value, value_col = entry.key, entry.value, entry.value_col
        if key == "name":
            name = value
        elif key == "ambient_dim":
            ambient_dim = _parse_int(entry, value, value_col, least=1)
        elif key.startswith("constraint."):
            idx = _index(entry)
            if idx in constraints:
                raise entry.error(f"duplicate constraint.{idx}")
            constraints[idx] = entry
        elif key == "function":
            function = entry
        elif key == "bounding_box":
            box_uniform = _parse_pair(entry)
        elif key.startswith("bounding_box."):
            box_per_coord[_index(entry)] = (_parse_pair(entry), entry)
        elif key.startswith("tolerance."):
            sub = key.split(".", 1)[1]
            if sub not in _TOLERANCE_KEYS:
                raise entry.error(f"unknown tolerance key {sub!r}")
            tolerances[sub] = _parse_float(entry, value, value_col, True)
        elif key.startswith("integrator."):
            sub = key.split(".", 1)[1]
            if sub not in INTEGRATOR_KEYS:
                raise entry.error(f"unknown integrator key {sub!r}")
            integrator[sub] = _parse_float(entry, value, value_col, True)
        elif key == "seed":
            seed = _parse_int(entry, value, value_col, least=0)
        else:
            raise entry.error(f"unknown key {key!r}")

    if ambient_dim is None:
        raise ConfigError("missing required key 'ambient_dim'")
    if function is None:
        raise ConfigError("missing required key 'function'")
    if not constraints:
        raise ConfigError("need at least one 'constraint.N' line")
    stray = [idx for idx in constraints if not 1 <= idx <= len(constraints)]
    if stray:
        raise constraints[stray[0]].error(
            f"constraints must be numbered 1..{len(constraints)}, got "
            f"{sorted(constraints)}")
    if len(constraints) >= ambient_dim:
        raise constraints[ambient_dim].error(
            "need between 1 and ambient_dim-1 constraint expressions")
    constraint_texts = [_checked_expression(constraints[idx], ambient_dim)
                        for idx in sorted(constraints)]
    function_text = _checked_expression(function, ambient_dim)

    box = [box_uniform] * ambient_dim
    for idx, (pair, entry) in box_per_coord.items():
        if not 1 <= idx <= ambient_dim:
            raise entry.error(f"bounding_box.{idx} outside ambient dimension")
        box[idx - 1] = pair

    return ScenarioConfig(
        name=name,
        ambient_dim=ambient_dim,
        constraint_texts=constraint_texts,
        function_text=function_text,
        bounding_box=box,
        tolerances=tolerances,
        integrator=integrator,
        seed=seed,
    )


def parse_scenario_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stem = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return parse_scenario_text(text, default_name=stem)
