import csv
import filecmp
import json
import os

import jsonschema
import numpy as np
import pytest

from morseflow import cli, reports
from morseflow.errors import MorseflowError
from morseflow.linearization import run_decay

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "docs", "schemas")


def _validate(payload, schema_name):
    with open(os.path.join(SCHEMA_DIR, schema_name)) as handle:
        schema = json.load(handle)
    jsonschema.validate(payload, schema)


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


def test_critical_points_output(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["critical-points", "--scenario", "sphere2",
                     "--out", str(out)])
    assert code == 0
    payload = _read_json(out / "critical_points.json")
    _validate(payload, "critical_points.v1.schema.json")
    assert len(payload["points"]) == 2
    assert payload["euler_characteristic"] == 2
    assert payload["constants"]["r"] == pytest.approx(1.0, abs=1e-8)


def test_flow_outputs(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["flow", "--scenario", "sphere2", "--from", "1,0,0",
                     "--out", str(out)])
    assert code == 0
    payload = _read_json(out / "terminal.json")
    _validate(payload, "terminal.v1.schema.json")
    assert payload["terminal"] == "converged"
    assert payload["critical_point_id"] == 0
    assert payload["length_bound"]["pass"] is True
    with open(out / "trajectory.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "x1", "x2", "x3", "f", "grad_norm"]
    assert len(rows) == payload["n_samples"] + 1


def test_flow_from_critical_point(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["flow", "--scenario", "sphere2", "--from-crit", "1",
                     "--out", str(out)])
    assert code == 0
    payload = _read_json(out / "terminal.json")
    assert payload["n_samples"] == 1
    # a bare integer --from is read as a critical point id
    code = cli.main(["flow", "--scenario", "sphere2", "--from", "1",
                     "--out", str(out)])
    assert code == 0
    assert _read_json(out / "terminal.json")["n_samples"] == 1


def test_decay_with_explicit_vector(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["decay", "--scenario", "sphere2", "--from", "1,0,0",
                     "--v", "0,1,0", "--out", str(out)])
    assert code == 0
    payload = _read_json(out / "decay.json")
    assert payload["relative_gap"] < 0.05
    assert payload["c_pred"] == pytest.approx(1.0, abs=1e-8)


def test_decay_with_explicit_vector_keeps_a_smaller_max_step(tmp_path,
                                                             sphere):
    # --v caps the step as run_decay does, so --max-step 0.05 gives the
    # library's run at max_step=0.05
    out = tmp_path / "out"
    code = cli.main(["decay", "--scenario", "sphere2", "--from", "1,0,0",
                     "--v", "0,1,0", "--max-step", "0.05",
                     "--out", str(out)])
    assert code == 0
    m = sphere.manifold
    x0 = m.retract(np.array([1.0, 0.0, 0.0]))
    _, report = run_decay(
        m, sphere.function, sphere.crits, sphere.cfg.replace(max_step=0.05),
        x0=x0, v0=m.project_tangent(x0, np.array([0.0, 1.0, 0.0])))
    payload = _read_json(out / "decay.json")
    assert payload["n_fit_samples"] == report.n_fit_samples
    assert payload["c_fit"] == report.c_fit
    assert payload["fit_window"] == list(report.fit_window)


def test_flow_backward(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["flow", "--scenario", "sphere2", "--from", "1,0,0",
                     "--backward", "--out", str(out)])
    assert code == 0
    payload = _read_json(out / "terminal.json")
    assert payload["direction"] == "backward"
    assert payload["critical_point_id"] == 1


def test_graph_outputs(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["graph", "--scenario", "torus_upright",
                     "--out", str(out)])
    assert code == 0
    payload = _read_json(out / "graph.json")
    _validate(payload, "graph.v1.schema.json")
    assert payload["connected"] is True
    assert [2, 1] in payload["directed_pairs"]
    dot = (out / "graph.dot").read_text()
    assert dot.startswith("digraph")
    assert 'n3 [label="3:2:3"];' in dot
    assert "n2 -> n1" in dot


def test_decay_output(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["decay", "--scenario", "clifford", "--out", str(out)])
    assert code == 0
    payload = _read_json(out / "decay.json")
    _validate(payload, "decay.v1.schema.json")
    assert payload["relative_gap"] < 0.05
    assert payload["c_pred"] == pytest.approx(2.0 ** 0.5, abs=1e-8)
    assert payload["energy_ode_max_residual"] < 1e-2


def test_basin_output(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["basin", "--scenario", "sphere2", "--samples", "60",
                     "--out", str(out)])
    assert code == 0
    payload = _read_json(out / "basin.json")
    _validate(payload, "basin.v1.schema.json")
    assert payload["n_samples"] == 60
    assert payload["minima_fraction"] >= 0.999


def test_curvature_output(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["curvature", "--scenario", "clifford", "--samples", "4",
                     "--out", str(out)])
    assert code == 0
    payload = _read_json(out / "flatness.json")
    _validate(payload, "flatness.v1.schema.json")
    assert payload["consistent"] is True
    assert payload["curvature_max"] < 1e-3


def test_byte_identical_reruns(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert cli.main(["critical-points", "--scenario", "torus_upright",
                         "--seed", "0", "--out", str(out)]) == 0
    assert filecmp.cmp(out_a / "critical_points.json",
                       out_b / "critical_points.json", shallow=False)


def test_user_config_file(tmp_path):
    cfg = tmp_path / "tilted.cfg"
    cfg.write_text(
        "name = tilted\n"
        "ambient_dim = 3\n"
        "constraint.1 = x1^2 + x2^2 + x3^2 - 1\n"
        "function = 0.6 * x1 + 0.8 * x3\n"
        "bounding_box = -1.2 1.2\n"
    )
    out = tmp_path / "out"
    code = cli.main(["critical-points", "--config", str(cfg),
                     "--out", str(out)])
    assert code == 0
    payload = _read_json(out / "critical_points.json")
    assert len(payload["points"]) == 2
    values = [p["value"] for p in payload["points"]]
    assert values[0] == pytest.approx(-1.0, abs=1e-8)


def test_unknown_scenario_exit_code(tmp_path, capsys):
    code = cli.main(["critical-points", "--scenario", "nope",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("ambient_dim = 3\nfunction = x1 +\nconstraint.1 = x1\n")
    code = cli.main(["critical-points", "--config", str(cfg),
                     "--out", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_bad_point_exit_code(tmp_path, capsys):
    code = cli.main(["flow", "--scenario", "sphere2", "--from", "1,0",
                     "--out", str(tmp_path)])
    assert code == 2
    capsys.readouterr()


def test_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MORSEFLOW_OUT", str(tmp_path / "envout"))
    code = cli.main(["basin", "--scenario", "sphere2", "--samples", "5"])
    assert code == 0
    assert (tmp_path / "envout" / "basin.json").exists()
    capsys.readouterr()


def test_non_morse_config_exit_code(tmp_path, capsys):
    # f = x3^2 on the sphere is critical on the whole equator
    cfg = tmp_path / "morse_bott.cfg"
    cfg.write_text(
        "ambient_dim = 3\n"
        "constraint.1 = x1^2 + x2^2 + x3^2 - 1\n"
        "function = x3^2\n"
        "bounding_box = -1.2 1.2\n"
    )
    code = cli.main(["graph", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: degenerate critical point")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_disconnected_manifold_config(tmp_path, capsys):
    # O(3) in R^9 (X^T X = I) has two components. `graph` reports the
    # split with exit code 0: no subcommand requires a connected graph
    # (DisconnectedGraphError comes only from propagate_constancy)
    constraints = [
        " + ".join(f"x{i + r}*x{j + r}" for r in (0, 3, 6))
        + (" - 1" if i == j else "")
        for i in (1, 2, 3) for j in range(i, 4)
    ]
    cfg = tmp_path / "o3.cfg"
    cfg.write_text(
        "ambient_dim = 9\n"
        + "".join(f"constraint.{k} = {c}\n"
                  for k, c in enumerate(constraints, start=1))
        + "function = x1 + 2*x5 + 3*x9 + 0.4*x2*x4\n"
        "bounding_box = -1.2 1.2\n"
    )
    out = tmp_path / "out"
    code = cli.main(["graph", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    payload = _read_json(out / "graph.json")
    assert len(payload["nodes"]) == 8
    assert payload["connected"] is False
    assert payload["components"] == [[0, 4, 5, 6], [1, 2, 3, 7]]
    assert capsys.readouterr().err == ""


_SPHERE = (
    "ambient_dim = 3\n"
    "constraint.1 = x1^2 + x2^2 + x3^2 - 1\n"
    "function = x3\n"
)
_BAD_CONFIGS = {
    "negative_tol": _SPHERE + "integrator.rel_tol = -1\n",
    "negative_seed": _SPHERE + "seed = -2\n",
    # once each ended in "rejection sampling failed" with exit code 1
    "negative_constraint_tol": _SPHERE + "tolerance.constraint = -1\n",
    "nan_rank_tol": _SPHERE + "tolerance.rank = nan\n",
    "nan_box": _SPHERE + "bounding_box = nan 1\n",
    # two constraints leave no manifold dimension in R^2
    "two_constraints": (
        "ambient_dim = 2\n"
        "constraint.1 = x1^2 + x2^2 - 1\n"
        "constraint.2 = x1\n"
        "function = x2\n"
    ),
    # a circle has no tangent 2-planes to take the curvature of
    "circle": (
        "ambient_dim = 2\n"
        "constraint.1 = x1^2 + x2^2 - 1\n"
        "function = x2\n"
    ),
}
_FLOW = ["flow", "--scenario", "sphere2", "--from", "1,0,0"]


@pytest.mark.parametrize("argv", [
    _FLOW + ["--rel-tol", "-1"],
    _FLOW + ["--abs-tol", "nan"],
    ["critical-points", "--config", "{negative_tol}"],
    _FLOW + ["--capture-radius", "5"],
    ["critical-points", "--config", "{two_constraints}"],
    ["critical-points", "--scenario", "sphere2", "--n-starts", "0"],
    ["critical-points", "--scenario", "sphere2", "--seed", "-1"],
    ["critical-points", "--config", "{negative_seed}"],
    ["basin", "--scenario", "sphere2", "--samples", "0"],
    ["graph", "--scenario", "sphere2", "--eps", "-1"],
    # once a retraction error with exit code 1
    ["graph", "--scenario", "sphere2", "--eps", "inf"],
    ["curvature", "--scenario", "sphere2", "--samples", "0"],
    ["curvature", "--config", "{circle}"],
    ["flow", "--scenario", "sphere2", "--from", "inf,0,0"],
    ["decay", "--scenario", "sphere2", "--from", "0.6,0,-0.8",
     "--v", "nan,1,0"],
    ["critical-points", "--config", "{negative_constraint_tol}"],
    ["critical-points", "--config", "{nan_rank_tol}"],
    ["critical-points", "--config", "{nan_box}"],
    # once a flow that never returned
    ["flow", "--scenario", "sphere2", "--from", "0.6,0,-0.8",
     "--rel-tol", "1e-6", "--abs-tol", "1e-6", "--t-max", "inf"],
], ids=["rel_tol", "abs_tol_nan", "config_rel_tol", "capture_radius",
        "two_constraints_in_r2", "n_starts", "seed", "config_seed",
        "basin_samples", "eps", "eps_inf",
        "curvature_samples", "curvature_on_a_circle", "flow_from_inf",
        "decay_v_nan", "config_constraint_tol", "config_rank_tol_nan",
        "config_box_nan", "t_max_inf"])
def test_input_errors_exit_2(argv, tmp_path, capsys):
    # a bad user value is one `error:` line and exit code 2, with no
    # report directory written
    paths = {}
    for name, text in _BAD_CONFIGS.items():
        paths[name] = tmp_path / f"{name}.cfg"
        paths[name].write_text(text)
    out = tmp_path / "out"
    argv = [arg.format(**paths) for arg in argv]
    assert cli.main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["flow", "--from", "1,x,0"], "bad coordinate in '1,x,0'"),
    (["flow", "--from-crit", "9"], "no critical point with id 9"),
    (["flow"], "flow needs --from <point|crit-id> or --from-crit"),
    (["decay", "--v", "0,1,0"], "--v requires --from"),
], ids=["flow_from_bad_coordinate", "flow_from_unknown_crit",
        "flow_without_start", "decay_v_without_from"])
def test_start_errors_exit_2(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(argv + ["--scenario", "sphere2", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_negative_seeds_exit_2(tmp_path, capsys):
    # numpy's generators take no negative seed; the override and the
    # config key are both rejected before one is built, and the config
    # error names its line and column
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(_BAD_CONFIGS["negative_seed"])
    assert cli.main(["critical-points", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: seed must be >= 0 (line 4, column 8)\n")
    assert cli.main(["critical-points", "--scenario", "sphere2",
                     "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: seed must be at least 0, got -1\n")


@pytest.mark.parametrize("criteria", ["99", "x", "3,99", "3,,5"])
def test_check_rejects_unknown_criteria(criteria, capsys):
    # nothing runs: no criterion line and no verdict
    assert cli.main(["check", "--criteria", criteria]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_check_runs_the_selected_criterion(capsys):
    assert cli.main(["check", "--criteria", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[ 3/11] flow closed form")
    assert "PASS" in lines[0]
    assert lines[1] == "acceptance: PASS"


def _sphere_config(tmp_path, function):
    cfg = tmp_path / "sphere.cfg"
    cfg.write_text(
        "ambient_dim = 3\n"
        "constraint.1 = x1^2 + x2^2 + x3^2 - 1\n"
        f"function = {function}\n"
        "bounding_box = -1.2 1.2\n"
        "seed = 0\n"
    )
    return str(cfg)


@pytest.mark.parametrize("argv", [
    ["critical-points"],
    ["flow", "--from", "0.6,0,0.8"],
], ids=["critical_points", "flow"])
def test_non_finite_report_value_exits_1(argv, tmp_path, capsys):
    # f is x3 plus a constant nan: the census and the flow run, and the
    # report refuses the nan values of f
    cfg = _sphere_config(tmp_path, "x3 + (1e308 * 1e308 - 1e308 * 1e308)")
    code = cli.main(argv + ["--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: reports must not contain NaN or infinite values, got nan\n")


def test_nan_projected_gradient_exits_1(tmp_path, capsys):
    # d/dx1 of x1 * 1e308 * 1e308 is inf, so P grad f is nan everywhere;
    # the first start raises instead of counting as a stall
    cfg = _sphere_config(tmp_path,
                         "x3 + x1 * 1e308 * 1e308 - x1 * 1e308 * 1e308")
    code = cli.main(["basin", "--config", cfg, "--samples", "5",
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: projected gradient is nan at [")
    assert err.count("\n") == 1
    assert not (tmp_path / "out" / "basin.json").exists()


@pytest.mark.parametrize("value, text", [
    (None, "null"), ([], "[]"), ({}, "{}"), ((), "[]"),
    ({"a": []}, '{\n  "a": []\n}'), (np.array([1.5]), "[\n  1.5\n]"),
])
def test_render_json_edge_values(value, text):
    assert reports.render_json(value) == text


def test_render_json_refuses_other_types():
    with pytest.raises(TypeError, match="cannot serialize set"):
        reports.render_json({"a": {1}})


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_format_float_refuses_non_finite_values(value):
    with pytest.raises(MorseflowError, match="NaN or infinite"):
        reports.format_float(value)
