import csv
import filecmp
import json
import os

import jsonschema
import numpy as np
import pytest

from morseflow import cli
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
    # two constraints leave no manifold dimension in R^2
    "two_constraints": (
        "ambient_dim = 2\n"
        "constraint.1 = x1^2 + x2^2 - 1\n"
        "constraint.2 = x1\n"
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
    ["basin", "--scenario", "sphere2", "--samples", "0"],
    ["graph", "--scenario", "sphere2", "--eps", "-1"],
    ["curvature", "--scenario", "sphere2", "--samples", "0"],
], ids=["rel_tol", "abs_tol_nan", "config_rel_tol", "capture_radius",
        "two_constraints_in_r2", "n_starts", "basin_samples", "eps",
        "curvature_samples"])
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
