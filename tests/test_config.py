import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseflow import FlowConfig, ImplicitManifold, parse
from morseflow.config import INTEGRATOR_KEYS, parse_scenario_text
from morseflow.errors import ConfigError, ExpressionSyntaxError
from morseflow.symbolics import UNARY_FUNCTIONS

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


_BASE = (
    "ambient_dim = 3\n"
    "constraint.1 = x1^2 + x2^2 + x3^2 - 1\n"
    "function = x3\n"
)


@pytest.mark.parametrize("text, line, column", [
    # the line itself
    (_BASE + "   bogus line\n", 4, 4),
    (_BASE + "  = 3\n", 4, 3),
    (_BASE + "seed =\n", 4, 7),
    (_BASE + "seed =   # no value\n", 4, 7),
    # keys, at the key
    (_BASE + "  whatever = 1\n", 4, 3),
    (_BASE + "tolerance.bogus = 1\n", 4, 1),
    (_BASE + " integrator.bogus = 1\n", 4, 2),
    (_BASE + "constraint.1 = x2\n", 4, 1),
    (_BASE + "constraint.3 = x2\n", 4, 1),
    (_BASE + "constraint.2 = x1\n  constraint.3 = x2\n", 5, 3),
    (_BASE + "bounding_box.4 = -1 1\n", 4, 1),
    # an index, at the index
    (_BASE + "constraint.x = x1\n", 4, 12),
    (_BASE + "bounding_box.x = -1 1\n", 4, 14),
    # scalar values, at the value
    ("ambient_dim = a\n", 1, 15),
    ("ambient_dim = 0\n", 1, 15),
    (_BASE + "seed = d\n", 4, 8),
    (_BASE + "seed = -1\n", 4, 8),
    (_BASE + "integrator.t_max = t\n", 4, 20),
    (_BASE + "tolerance.rank = n\n", 4, 18),
    (_BASE + "   seed   =   d  \n", 4, 15),
    # a pair, at the number that fails, or at the value
    (_BASE + "bounding_box = o 1\n", 4, 16),
    (_BASE + "bounding_box = -1  e\n", 4, 20),
    (_BASE + "bounding_box.2 = 1\n", 4, 18),
    (_BASE + "bounding_box = 1 -1\n", 4, 16),
    # expressions, at the token the expression parser names
    ("ambient_dim = 3\nconstraint.1 = x1\nfunction = on\n", 3, 12),
    ("ambient_dim = 3\nconstraint.1 = x1\nfunction = t\n", 3, 12),
    ("ambient_dim = 3\nconstraint.1 = t\nfunction = x1\n", 2, 16),
    ("ambient_dim = 3\nconstraint.1 = x1\nfunction = x1 + + x2\n", 3, 17),
    ("ambient_dim = 3\nconstraint.1 = x1\nfunction = (x1\n", 3, 15),
    ("ambient_dim = 3\nconstraint.1 = x1^2 + x4^2 - 1\nfunction = x3\n",
     2, 23),
])
def test_error_position_table(text, line, column):
    # docs/config_format.md: which column each parse error points at
    with pytest.raises(ConfigError) as err:
        parse_scenario_text(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value).endswith(f"(line {line}, column {column})")


def _accepts_positive(token):
    return 0.0 < float(token) < math.inf


def _accepts_finite(token):
    return -math.inf < float(token) < math.inf


# Each typed value key by the rule its values follow (docs/config_format.md)
_VALUE_RULES = {
    "ambient_dim": lambda token: int(token) >= 1,
    "seed": lambda token: int(token) >= 0,
    "bounding_box": _accepts_finite,
    "bounding_box.2": _accepts_finite,
    "tolerance.constraint": _accepts_positive,
    "tolerance.rank": _accepts_positive,
    **{f"integrator.{key}": _accepts_positive for key in INTEGRATOR_KEYS},
}
# Letters of the keys, so that a token can also occur in its key.
_TOKEN_CHARS = "abcdefgilmnorstux_.+-0123456789"


def _rejects(key, token):
    try:
        return not _VALUE_RULES[key](token)
    except ValueError:
        return True


def _rejected_expression(token):
    """A name that the expression parser rejects at its first character:
    not a function name and not one of x1..x3."""
    if token in UNARY_FUNCTIONS:
        return False
    try:
        parse(token, 3)
    except ExpressionSyntaxError:
        return True
    return False


@st.composite
def _rejected_lines(draw):
    """(text, line, column): one line with a token that its key rejects."""
    key = draw(st.sampled_from([*_VALUE_RULES, "function", "constraint.2"]))
    if key in _VALUE_RULES:
        token = draw(st.text(_TOKEN_CHARS, min_size=1, max_size=6)
                     .filter(lambda t: _rejects(key, t)))
    else:
        token = draw(st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,5}",
                                   fullmatch=True)
                     .filter(_rejected_expression))
    pad = st.sampled_from(["", " ", "   ", "\t"])
    before = f"{draw(pad)}{key}{draw(pad)}={draw(pad)}"
    if key.startswith("bounding_box"):
        gap = draw(st.sampled_from([" ", "  ", "\t"]))
        if draw(st.booleans()):
            after = f"{gap}1"
        else:
            before, after = f"{before}-1{gap}", ""
    elif key in ("function", "constraint.2"):
        before += draw(st.sampled_from(["", "x1 + ", "2*", "sin("]))
        after = ""
    else:
        after = ""
    line = f"{before}{token}{after}{draw(pad)}\n"
    if key == "ambient_dim":
        return line + _BASE.split("\n", 1)[1], 1, len(before) + 1
    return _BASE + line, 4, len(before) + 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_rejected_lines())
def test_rejected_token_is_reported_at_its_own_column(case):
    text, line, column = case
    with pytest.raises(ConfigError) as err:
        parse_scenario_text(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_at_least_as_many_constraints_as_dimensions_rejected(tmp_path,
                                                             capsys):
    # M = F^{-1}(0) needs k < n constraints; the error points at the
    # key of constraint.n, and the CLI exits 2 with that position
    text = (
        "ambient_dim = 2\n"
        "constraint.1 = x1^2 + x2^2 - 1\n"
        "  constraint.2 = x1\n"
        "function = x2\n"
    )
    with pytest.raises(ConfigError, match="ambient_dim-1") as err:
        parse_scenario_text(text)
    assert (err.value.line, err.value.column) == (3, 3)
    three = text + "constraint.3 = x2\n"
    with pytest.raises(ConfigError, match="ambient_dim-1") as err:
        parse_scenario_text(three)
    assert (err.value.line, err.value.column) == (3, 3)
    from morseflow import cli
    cfg = tmp_path / "square.cfg"
    cfg.write_text(text)
    code = cli.main(["critical-points", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.rstrip().endswith("(line 3, column 3)")


def test_documented_example_parses_and_builds():
    # the "## Example" block of docs/config_format.md, so that the
    # documented format cannot drift from the parser
    doc = (Path(__file__).parents[1] / "docs" / "config_format.md").read_text(
        encoding="utf-8")
    example = re.search(r"## Example\s*```\n(.*?)```", doc, re.S).group(1)
    cfg = parse_scenario_text(example)
    assert cfg.name == "tilted"
    manifold = cfg.build_manifold()
    assert (manifold.ambient_dim, manifold.dim) == (3, 2)
    assert manifold.constraint_tol == 1e-9
    assert cfg.build_function() == parse("0.6 * x1 + 0.8 * x3", 3)
