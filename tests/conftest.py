import pytest

from morseflow import load_scenario
from morseflow.catalog import ScenarioContext


def build_setup(name):
    """The catalog scenario's session: census, constants and flow config
    at the defaults the CLI and the acceptance suite use."""
    return ScenarioContext(load_scenario(name))


@pytest.fixture(scope="session")
def sphere():
    return build_setup("sphere2")


@pytest.fixture(scope="session")
def torus():
    return build_setup("torus_upright")


@pytest.fixture(scope="session")
def clifford():
    return build_setup("clifford")


@pytest.fixture(scope="session")
def sphere_m():
    return build_setup("sphereM")
