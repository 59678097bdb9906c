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
from dataclasses import dataclass, field, fields

from .errors import ConfigError, ExpressionSyntaxError
from .flow import FlowConfig
from .geometry import ImplicitManifold
from .symbolics import parse as parse_expression

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
        kwargs = {}
        if "constraint" in self.tolerances:
            kwargs["constraint_tol"] = self.tolerances["constraint"]
        if "rank" in self.tolerances:
            kwargs["rank_tol"] = self.tolerances["rank"]
        return ImplicitManifold(
            self.ambient_dim, constraints,
            bounding_box=self.bounding_box, **kwargs,
        )

    def build_function(self):
        return parse_expression(self.function_text, self.ambient_dim)


def _split_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line=lineno, column=1)
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", line=lineno, column=1)
        if not value:
            raise ConfigError(f"empty value for {key!r}", line=lineno,
                              column=raw.index("=") + 2)
        yield lineno, raw, key, value


def _parse_float(value, lineno, raw, positive=False):
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not (0.0 if positive else -math.inf) < number < math.inf:
        need = "a finite number > 0" if positive else "a finite number"
        raise ConfigError(f"expected {need}, got {value!r}", line=lineno,
                          column=raw.find(value) + 1)
    return number


def _parse_int(value, lineno, raw):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"not an integer: {value!r}", line=lineno,
                          column=raw.find(value) + 1) from None


def _parse_pair(value, lineno, raw):
    parts = value.split()
    if len(parts) != 2:
        raise ConfigError("expected two numbers 'lo hi'", line=lineno,
                          column=raw.find(value) + 1)
    lo = _parse_float(parts[0], lineno, raw)
    hi = _parse_float(parts[1], lineno, raw)
    if lo >= hi:
        raise ConfigError("bounding box needs lo < hi", line=lineno,
                          column=raw.find(value) + 1)
    return lo, hi


def parse_scenario_text(text, default_name="scenario"):
    """Parse config text into a ScenarioConfig (line/column on errors)."""
    name = default_name
    ambient_dim = None
    constraints = {}
    function_text = None
    function_line = None
    box_uniform = None
    box_per_coord = {}
    tolerances = {}
    integrator = {}
    seed = 0

    for lineno, raw, key, value in _split_lines(text):
        if key == "name":
            name = value
        elif key == "ambient_dim":
            ambient_dim = _parse_int(value, lineno, raw)
            if ambient_dim < 1:
                raise ConfigError("ambient_dim must be >= 1", line=lineno,
                                  column=raw.find(value) + 1)
        elif key.startswith("constraint."):
            idx = _parse_int(key.split(".", 1)[1], lineno, raw)
            if idx in constraints:
                raise ConfigError(f"duplicate constraint.{idx}", line=lineno,
                                  column=1)
            constraints[idx] = (value, lineno, raw)
        elif key == "function":
            function_text = value
            function_line = (lineno, raw)
        elif key == "bounding_box":
            box_uniform = _parse_pair(value, lineno, raw)
        elif key.startswith("bounding_box."):
            idx = _parse_int(key.split(".", 1)[1], lineno, raw)
            box_per_coord[idx] = _parse_pair(value, lineno, raw)
        elif key.startswith("tolerance."):
            sub = key.split(".", 1)[1]
            if sub not in _TOLERANCE_KEYS:
                raise ConfigError(f"unknown tolerance key {sub!r}",
                                  line=lineno, column=1)
            tolerances[sub] = _parse_float(value, lineno, raw, True)
        elif key.startswith("integrator."):
            sub = key.split(".", 1)[1]
            if sub not in INTEGRATOR_KEYS:
                raise ConfigError(f"unknown integrator key {sub!r}",
                                  line=lineno, column=1)
            integrator[sub] = _parse_float(value, lineno, raw, True)
        elif key == "seed":
            seed = _parse_int(value, lineno, raw)
            if seed < 0:
                raise ConfigError("seed must be >= 0", line=lineno,
                                  column=raw.find(value) + 1)
        else:
            raise ConfigError(f"unknown key {key!r}", line=lineno, column=1)

    if ambient_dim is None:
        raise ConfigError("missing required key 'ambient_dim'")
    if function_text is None:
        raise ConfigError("missing required key 'function'")
    if not constraints:
        raise ConfigError("need at least one 'constraint.N' line")
    expected = set(range(1, len(constraints) + 1))
    if set(constraints) != expected:
        raise ConfigError(
            f"constraints must be numbered 1..{len(constraints)}, got "
            f"{sorted(constraints)}"
        )

    constraint_texts = []
    for idx in sorted(constraints):
        text_i, lineno, raw = constraints[idx]
        try:
            parse_expression(text_i, ambient_dim)
        except ExpressionSyntaxError as exc:
            raise ConfigError(
                str(exc), line=lineno, column=raw.find(text_i) + exc.position
            ) from None
        constraint_texts.append(text_i)
    lineno, raw = function_line
    try:
        parse_expression(function_text, ambient_dim)
    except ExpressionSyntaxError as exc:
        raise ConfigError(
            str(exc), line=lineno, column=raw.find(function_text) + exc.position
        ) from None

    if box_uniform is None and not box_per_coord:
        box = [(-3.0, 3.0)] * ambient_dim
    else:
        base = box_uniform if box_uniform is not None else (-3.0, 3.0)
        box = [base] * ambient_dim
        for idx, pair in box_per_coord.items():
            if not 1 <= idx <= ambient_dim:
                raise ConfigError(
                    f"bounding_box.{idx} outside ambient dimension"
                )
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
