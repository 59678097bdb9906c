"""Built-in scenarios with their analytic ground truth.

Scenario definitions live in scenarios/*.cfg, written in the same
config format users supply, so the catalog doubles as format
documentation. Expected tables (critical values, indices, eigenvalue
floors, edge sets, curvature class) live in sibling *.expected.json
data files regenerated by oracles/generate_expected.py.

`ScenarioContext` binds a scenario to its critical points, separation
constants and flow config; the CLI, the acceptance suite, the tests and
the oracles all build scenario state through it.
"""

import json
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

from .config import ScenarioConfig, parse_scenario_file, parse_scenario_text
from .errors import ConfigError, UnknownScenarioError
from .flow import FlowConfig
from .morse import find_critical_points, geometric_constants

_CATALOG_NAMES = ("clifford", "sphere2", "sphereM", "torus_upright")
# Defaults of a ScenarioContext: Newton starts of the census and samples
# of the gradient floor.
N_STARTS = 200
CONSTANT_SAMPLES = 2000


@dataclass(frozen=True)
class ExpectedData:
    """Analytic ground truth used by tests and the acceptance suite."""

    values: tuple
    indices: tuple
    locations: tuple
    lambda_min: dict  # critical point id (int) -> smallest eigenvalue
    euler_characteristic: int
    directed_edges: tuple
    curvature_class: str
    sectional_curvature: float | None

    @staticmethod
    def from_json(payload):
        return ExpectedData(
            values=tuple(payload["values"]),
            indices=tuple(payload["indices"]),
            locations=tuple(tuple(row) for row in payload["locations"]),
            lambda_min={int(k): v for k, v in payload["lambda_min"].items()},
            euler_characteristic=int(payload["euler_characteristic"]),
            directed_edges=tuple(
                tuple(edge) for edge in payload["directed_edges"]
            ),
            curvature_class=payload["curvature_class"],
            sectional_curvature=payload["sectional_curvature"],
        )


@dataclass(frozen=True)
class Scenario:
    """A manifold, a function on it, and (for catalog entries) oracles."""

    name: str
    config: ScenarioConfig
    expected: ExpectedData | None

    def build_manifold(self):
        return self.config.build_manifold()

    def build_function(self):
        return self.config.build_function()

    @property
    def seed(self):
        return self.config.seed


@contextmanager
def _config_errors():
    """A ValueError of a library constructor, as ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


class ScenarioContext:
    """A scenario with its census, separation constants and flow config,
    each computed on first use: `crits` from `n_starts` Newton starts at
    `seed` (default: the scenario's), `consts` from CONSTANT_SAMPLES
    samples (None below two critical points), and `cfg` from the
    scenario's integrator settings with `integrator` over them. A value
    the library rejects raises ConfigError.
    """

    def __init__(self, scenario, seed=None, n_starts=N_STARTS,
                 integrator=None):
        if n_starts < 1:
            raise ConfigError(f"n_starts must be at least 1, got {n_starts}")
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.n_starts = n_starts
        self.integrator = {**scenario.config.integrator, **(integrator or {})}
        with _config_errors():
            FlowConfig(**self.integrator)

    @cached_property
    def manifold(self):
        with _config_errors():
            return self.scenario.build_manifold()

    @cached_property
    def function(self):
        return self.scenario.build_function()

    @cached_property
    def crits(self):
        return find_critical_points(self.manifold, self.function,
                                    self.n_starts, seed=self.seed)

    @cached_property
    def consts(self):
        if len(self.crits) < 2:
            return None
        return geometric_constants(self.manifold, self.function, self.crits,
                                   n_samples=CONSTANT_SAMPLES, seed=self.seed)

    @cached_property
    def cfg(self):
        if self.consts is None:
            return FlowConfig(**self.integrator)
        with _config_errors():
            return FlowConfig.from_constants(self.consts, **self.integrator)


def list_scenarios():
    return list(_CATALOG_NAMES)


def _read_resource(filename):
    ref = resources.files("morseflow").joinpath("scenarios", filename)
    return ref.read_text(encoding="utf-8")


def load_scenario(name):
    """Catalog lookup; unknown names fail with the available list."""
    if name not in _CATALOG_NAMES:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; available: "
            + ", ".join(_CATALOG_NAMES)
        )
    config = parse_scenario_text(_read_resource(f"{name}.cfg"),
                                 default_name=name)
    expected = ExpectedData.from_json(
        json.loads(_read_resource(f"{name}.expected.json"))
    )
    return Scenario(name=name, config=config, expected=expected)


def load_scenario_file(path):
    """A user scenario file: same format, no expected table."""
    config = parse_scenario_file(path)
    return Scenario(name=config.name, config=config, expected=None)
