import json
import os
import runpy
from importlib import resources

import pytest

from morseflow import (
    FlowConfig, list_scenarios, load_scenario, load_scenario_file,
)
from morseflow.catalog import Scenario, ScenarioContext
from morseflow.config import parse_scenario_text
from morseflow.errors import UnknownScenarioError

ORACLE_SCRIPT = os.path.join(os.path.dirname(__file__), "..", "oracles",
                             "generate_expected.py")


def test_scenario_names():
    assert list_scenarios() == ["clifford", "sphere2", "sphereM",
                                "torus_upright"]


@pytest.mark.parametrize("name", ["clifford", "sphere2", "sphereM",
                                  "torus_upright"])
def test_scenarios_load_and_build(name):
    scenario = load_scenario(name)
    manifold = scenario.build_manifold()
    function = scenario.build_function()
    assert manifold.dim >= 2
    assert scenario.expected is not None
    exp = scenario.expected
    assert len(exp.values) == len(exp.indices) == len(exp.locations)
    # internal consistency: index parity sum equals the Euler number
    parity = sum((-1) ** i for i in exp.indices)
    assert parity == exp.euler_characteristic
    assert function is not None


def test_sphere2_expected_table():
    exp = load_scenario("sphere2").expected
    assert exp.values == (-1.0, 1.0)
    assert exp.indices == (0, 2)
    assert exp.euler_characteristic == 2
    assert exp.curvature_class == "constant_positive"


def test_clifford_expected_table():
    exp = load_scenario("clifford").expected
    assert exp.curvature_class == "flat"
    assert exp.sectional_curvature == 0.0
    assert exp.lambda_min[0] == pytest.approx(2.0 ** 0.5)


def test_unknown_scenario_lists_names():
    with pytest.raises(UnknownScenarioError) as err:
        load_scenario("unknown")
    message = str(err.value)
    for name in list_scenarios():
        assert name in message


def test_catalog_files_load_as_user_configs(tmp_path):
    # catalog .cfg files double as documentation of the user format
    text = resources.files("morseflow").joinpath(
        "scenarios", "torus_upright.cfg").read_text()
    path = tmp_path / "my_torus.cfg"
    path.write_text(text)
    scenario = load_scenario_file(path)
    assert scenario.expected is None
    assert scenario.config.ambient_dim == 3
    assert scenario.build_manifold().dim == 2


def test_oracle_script_reproduces_expected_tables():
    module = runpy.run_path(ORACLE_SCRIPT)
    tables = module["build_all"]()
    for name, table in tables.items():
        shipped = json.loads(
            resources.files("morseflow")
            .joinpath("scenarios", f"{name}.expected.json").read_text()
        )
        assert table == shipped, name


def test_session_is_lazy_and_applies_its_overrides():
    session = ScenarioContext(load_scenario("sphere2"), seed=3, n_starts=20,
                              integrator={"max_step": 0.5})
    assert "crits" not in vars(session)  # nothing computed yet
    cfg = session.cfg
    assert session.crits.stats.n_starts == 20
    assert cfg.max_step == 0.5
    assert cfg.capture_radius == min(session.consts.r / 2.0, 1e-3)
    assert session.seed == 3


def test_session_without_two_critical_points():
    # f = x1 on the line x2 = 0 has no critical point: no separation
    # constants, and the flow config is the integrator settings alone
    config = parse_scenario_text(
        "ambient_dim = 2\nconstraint.1 = x2\nfunction = x1\n"
        "integrator.t_max = 3\n"
    )
    session = ScenarioContext(Scenario("line", config, None), n_starts=5)
    assert len(session.crits) == 0
    assert session.consts is None
    assert session.cfg == FlowConfig(t_max=3.0)
