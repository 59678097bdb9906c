import math

import pytest

from morseflow import FlowConfig, ImplicitManifold, parse
from morseflow.config import parse_scenario_text
from morseflow.errors import ConfigError

GOOD = """
# a user scenario
name = demo
ambient_dim = 3
constraint.1 = x1^2 + x2^2 + x3^2 - 1
function = x3
bounding_box = -1.5 1.5
bounding_box.3 = -1.1 1.1
tolerance.constraint = 1e-10
integrator.rel_tol = 1e-7
seed = 4
"""


def test_parse_good_config():
    cfg = parse_scenario_text(GOOD)
    assert cfg.name == "demo"
    assert cfg.ambient_dim == 3
    assert cfg.constraint_texts == ["x1^2 + x2^2 + x3^2 - 1"]
    assert cfg.function_text == "x3"
    assert cfg.bounding_box[0] == (-1.5, 1.5)
    assert cfg.bounding_box[2] == (-1.1, 1.1)
    assert cfg.tolerances == {"constraint": 1e-10}
    assert cfg.integrator == {"rel_tol": 1e-7}
    assert cfg.seed == 4
    manifold = cfg.build_manifold()
    assert manifold.constraint_tol == 1e-10


def test_missing_required_keys():
    with pytest.raises(ConfigError):
        parse_scenario_text("function = x1\nconstraint.1 = x1 - 1\n")
    with pytest.raises(ConfigError):
        parse_scenario_text("ambient_dim = 2\nconstraint.1 = x1\n")
    with pytest.raises(ConfigError):
        parse_scenario_text("ambient_dim = 2\nfunction = x1\n")


def test_error_positions():
    with pytest.raises(ConfigError) as err:
        parse_scenario_text("ambient_dim = 2\nbogus line without equals\n")
    assert err.value.line == 2

    with pytest.raises(ConfigError) as err:
        parse_scenario_text("ambient_dim = two\n")
    assert err.value.line == 1

    bad_expr = (
        "ambient_dim = 2\n"
        "constraint.1 = x1^2 + x2^2 - 1\n"
        "function = x1 + + x2\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_scenario_text(bad_expr)
    assert err.value.line == 3
    assert err.value.column > len("function = ")


def test_negative_seed_rejected_with_position():
    # a seed goes to numpy's generators, which take none below 0
    with pytest.raises(ConfigError, match="seed must be >= 0") as err:
        parse_scenario_text(GOOD.replace("seed = 4", "seed = -2"))
    line = GOOD.splitlines().index("seed = 4") + 1
    assert (err.value.line, err.value.column) == (line, len("seed = ") + 1)
    assert parse_scenario_text(GOOD.replace("seed = 4", "seed = 0")).seed == 0


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        parse_scenario_text("ambient_dim = 2\nwhatever = 1\n")
    with pytest.raises(ConfigError):
        parse_scenario_text("ambient_dim = 2\ntolerance.bogus = 1\n")
    with pytest.raises(ConfigError):
        parse_scenario_text("ambient_dim = 2\nintegrator.bogus = 1\n")


def test_constraints_must_be_consecutive():
    text = (
        "ambient_dim = 3\n"
        "constraint.1 = x1 - 1\n"
        "constraint.3 = x2 - 1\n"
        "function = x3\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_scenario_text(text)
    assert "numbered" in str(err.value)
    # the first key outside 1..k, at its line and column
    assert (err.value.line, err.value.column) == (3, 1)
    assert str(err.value).endswith("(line 3, column 1)")
    indented = text.replace("constraint.3", "  constraint.0")
    with pytest.raises(ConfigError, match="got \\[0, 1\\]") as err:
        parse_scenario_text(indented)
    assert (err.value.line, err.value.column) == (3, 3)


def test_duplicate_constraint_rejected():
    text = (
        "ambient_dim = 2\n"
        "constraint.1 = x1 - 1\n"
        "constraint.1 = x2 - 1\n"
        "function = x1\n"
    )
    with pytest.raises(ConfigError):
        parse_scenario_text(text)


def test_bad_bounding_box():
    with pytest.raises(ConfigError):
        parse_scenario_text("ambient_dim = 2\nbounding_box = 1 -1\n")
    text = (
        "ambient_dim = 2\n"
        "constraint.1 = x1^2 + x2^2 - 1\n"
        "function = x1\n"
        "bounding_box.5 = -1 1\n"
    )
    with pytest.raises(ConfigError, match="outside ambient dimension") as err:
        parse_scenario_text(text)
    assert (err.value.line, err.value.column) == (4, 1)
    assert str(err.value).endswith("(line 4, column 1)")
    # checked once ambient_dim is known, wherever it stands
    late = " bounding_box.0 = -1 1\n" + text.replace("bounding_box.5", "#")
    with pytest.raises(ConfigError, match="bounding_box.0") as err:
        parse_scenario_text(late)
    assert (err.value.line, err.value.column) == (1, 2)


@pytest.mark.parametrize("text, line", [
    ("ambient_dim = 2\nconstraint.1 = x1^2 + x2^2 - 1\nfunction = x1\n"
     "bounding_box.5 = -1 1\n", 4),
    ("ambient_dim = 3\nconstraint.1 = x1 - 1\nconstraint.3 = x2 - 1\n"
     "function = x3\n", 3),
], ids=["box_index", "constraint_gap"])
def test_config_key_errors_exit_2_with_position(text, line, tmp_path,
                                                capsys):
    from morseflow import cli
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code = cli.main(["critical-points", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.rstrip().endswith(f"(line {line}, column 1)")


def test_overflowing_literal_rejected():
    text = (
        "ambient_dim = 2\n"
        "constraint.1 = x1^2 + x2^2 - 1\n"
        "function = 1e999 * x1\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_scenario_text(text)
    assert err.value.line == 3


def test_variable_out_of_range_reported_with_position():
    text = (
        "ambient_dim = 2\n"
        "constraint.1 = x1^2 + x3^2 - 1\n"
        "function = x1\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_scenario_text(text)
    assert err.value.line == 2
    assert "x3" in str(err.value)


@pytest.mark.parametrize("line, column", [
    ("tolerance.constraint = -1", 24),
    ("tolerance.rank = nan", 18),
    ("tolerance.rank = 0", 18),
    ("integrator.t_max = inf", 20),
    ("bounding_box = nan 1", 16),
    ("bounding_box.2 = -1 inf", 21),
])
def test_non_finite_or_non_positive_values_rejected_with_position(line,
                                                                   column):
    # docs/config_format.md: every float is finite, and the tolerances
    # and integrator settings are > 0. Each of these once reached the
    # sampler, which gave up after 30000 draws, or a flow that never
    # ended (t_max = inf)
    text = (
        "ambient_dim = 2\n"
        "constraint.1 = x1^2 + x2^2 - 1\n"
        "function = x1\n"
        f"{line}\n"
    )
    with pytest.raises(ConfigError) as err:
        parse_scenario_text(text)
    assert (err.value.line, err.value.column) == (4, column)


@pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
def test_library_rejects_non_finite_or_non_positive_settings(value):
    circle = [parse("x1^2 + x2^2 - 1", 2)]
    with pytest.raises(ValueError, match="constraint_tol"):
        ImplicitManifold(2, circle, constraint_tol=value)
    with pytest.raises(ValueError, match="rank_tol"):
        ImplicitManifold(2, circle, rank_tol=value)
    with pytest.raises(ValueError, match="t_max"):
        FlowConfig(t_max=value)
    with pytest.raises(ValueError, match="capture_grad_tol"):
        FlowConfig().replace(capture_grad_tol=value)
    if not math.isfinite(value):
        with pytest.raises(ValueError, match="bounding_box"):
            ImplicitManifold(2, circle, bounding_box=[(-1.0, value)] * 2)
