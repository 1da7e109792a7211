"""Command-line interface: exit codes and artifacts."""

import json
import os

import pytest

from igashell.cli import main
from igashell.geometry import Mesh, make_plate

TINY_RUN = {
    "mesh": {"type": "plate", "lx": 1.0, "ly": 1.0, "degree": 2,
             "n_x": 2, "n_y": 2},
    "material": {"model": "koiter", "youngs": 1e4, "poisson": 0.3,
                 "thickness": 0.05},
    "constraints": [
        {"kind": "fix", "patch": 0, "side": "u0"},
        {"kind": "rotation", "patch": 0, "side": "u0",
         "method": "penalty", "epsilon": 1e4},
    ],
    "loads": [{"kind": "edge_traction", "patch": 0, "side": "u1",
               "traction": [0, 0, -0.01]}],
    "solver": {"linear": True},
    "outputs": {"probes": [{"patch": 0, "u": 1.0, "v": 0.5}],
                "fields": True, "formats": ["csv", "vtk"]},
}


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_missing_config_exits_2(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "missing.json")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_run_invalid_config_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(TINY_RUN))
    doc["material"]["model"] = "cheese"
    rc = main(["run", "--config", _write(tmp_path, doc)])
    assert rc == 2
    assert "material" in capsys.readouterr().err


def test_run_malformed_mesh_file_exits_2(tmp_path, capsys):
    """A mesh file whose interface names a patch the mesh lacks is a config
    error, not a traceback."""
    blob = Mesh([make_plate(1.0, 1.0, 2, 2, 2)]).to_json_dict()
    blob["interfaces"] = [{"patch_a": 0, "side_a": "u1", "patch_b": 5,
                           "side_b": "u0"}]
    (tmp_path / "mesh.json").write_text(json.dumps(blob))
    doc = json.loads(json.dumps(TINY_RUN))
    doc["mesh"] = {"type": "file", "path": "mesh.json"}
    doc["constraints"].append({"kind": "interface", "index": 0,
                               "method": "penalty", "epsilon": 1e4})
    rc = main(["run", "--config", _write(tmp_path, doc), "--out",
               str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "patch 5 does not exist" in err


ONE_INTERFACE = {"patch_a": 0, "side_a": "u1", "patch_b": 0,
                 "side_b": "u0"}


@pytest.mark.parametrize("mutate, says", [
    (lambda b: b.update(sets=[1, 2]), "'sets' must be an object"),
    (lambda b: b["patches"][0].update(n_u=None), "n_u must be a whole"),
    (lambda b: b["patches"][0].update(degree_u="2"),
     "degree_u must be a whole"),
    (lambda b: b["patches"][0].update(n_v=2.5), "n_v must be a whole"),
    (lambda b: b.update(interfaces=[dict(ONE_INTERFACE, patch_b=None)]),
     "patch_b must be a whole"),
    (lambda b: b.update(interfaces=[dict(ONE_INTERFACE, reversed="no")]),
     "reversed must be true or false"),
], ids=["sets_not_an_object", "null_n_u", "string_degree_u",
        "fractional_n_v", "null_patch_b", "string_reversed"])
def test_run_mesh_file_with_a_mistyped_field_exits_2(tmp_path, capsys,
                                                     mutate, says):
    """A mesh file field of the wrong JSON type is a config error, not a
    traceback or a silent conversion."""
    blob = Mesh([make_plate(1.0, 1.0, 2, 2, 2)]).to_json_dict()
    mutate(blob)
    (tmp_path / "mesh.json").write_text(json.dumps(blob))
    doc = json.loads(json.dumps(TINY_RUN))
    doc["mesh"] = {"type": "file", "path": "mesh.json"}
    rc = main(["run", "--config", _write(tmp_path, doc), "--out",
               str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and says in err


def test_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--config", _write(tmp_path, TINY_RUN),
               "--out", str(out)])
    assert rc == 0
    for name in ("history.csv", "probes.csv", "fields.csv", "fields.vtk"):
        assert (out / name).is_file(), f"{name} missing"
    probe_rows = (out / "probes.csv").read_bytes().decode().strip()
    header, row = probe_rows.split("\r\n")
    assert header.split(",")[:3] == ["step", "lam", "probe"]
    uz = float(row.split(",")[-1])
    assert uz < 0.0, "edge load points down, tip must deflect down"
    assert "done: 1 step(s)" in capsys.readouterr().out


def test_run_point_outside_patch_exits_2(tmp_path, capsys):
    """A point load or probe off the [0, 1] x [0, 1] plate is rejected,
    not extrapolated."""
    load = {"kind": "point", "patch": 0, "u": 3.0, "v": 0.5,
            "force": [0, 0, -0.01]}
    probe = {"patch": 0, "u": 0.5, "v": -0.25}
    for loads, probes in (([load], []), ([], [probe])):
        doc = json.loads(json.dumps(TINY_RUN))
        doc["loads"] += loads
        doc["outputs"]["probes"] += probes
        assert main(["run", "--config", _write(tmp_path, doc), "--out",
                     str(tmp_path / "out")]) == 2
        assert "outside patch 0" in capsys.readouterr().err


def test_run_point_on_patch_edge_is_accepted(tmp_path):
    doc = json.loads(json.dumps(TINY_RUN))
    doc["loads"].append({"kind": "point", "patch": 0, "u": 1.0, "v": 1.0,
                         "force": [0, 0, -0.01]})
    doc["outputs"] = {"probes": [{"patch": 0, "u": 1.0, "v": 0.0}]}
    assert main(["run", "--config", _write(tmp_path, doc), "--out",
                 str(tmp_path / "out")]) == 0


def test_run_history_says_how_each_step_converged(tmp_path, capsys):
    doc = json.loads(json.dumps(TINY_RUN))
    doc["solver"] = {"linear": False, "n_steps": 2}
    doc["outputs"] = {"fields": False}
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, doc), "--out",
                 str(out), "--verbose"]) == 0
    rows = (out / "history.csv").read_bytes().decode().strip().split("\r\n")
    assert rows[0].split(",") == ["step", "lam", "iterations", "residual",
                                  "reason"]
    reasons = [row.split(",")[-1] for row in rows[1:]]
    assert len(reasons) == 2 and set(reasons) <= {"tol", "trial", "floor"}
    printed = capsys.readouterr().out
    assert all(f", {reason})" in printed for reason in reasons)


def test_run_nonlinear_failure_exits_3(tmp_path, capsys):
    doc = json.loads(json.dumps(TINY_RUN))
    doc["solver"] = {"linear": False, "n_steps": 1, "max_iter": 2,
                     "max_cuts": 0}
    doc["loads"][0]["traction"] = [0, 0, -100.0]
    rc = main(["run", "--config", _write(tmp_path, doc)])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err


def test_run_linear_unsupported_plate_exits_3(tmp_path, capsys):
    """Without supports the stiffness is singular: the linear solve reports
    a solver failure, as Newton does, instead of a displacement of 1e13."""
    doc = json.loads(json.dumps(TINY_RUN))
    doc["constraints"] = []
    rc = main(["run", "--config", _write(tmp_path, doc),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err


def test_bench_unknown_case_exits_2(capsys):
    assert main(["bench", "no_such_case"]) == 2
    assert "unknown benchmark case" in capsys.readouterr().err


def test_bench_writes_case_csv(tmp_path, capsys):
    cfg = _write(tmp_path, {"case": "plate_sinusoidal",
                            "params": {"degrees": [2], "levels": [4]}},
                 "bench.json")
    rc = main(["bench", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "plate_sinusoidal.csv").read_bytes().decode()
    assert lines.startswith("case,degree,elements")
    assert "plate_sinusoidal,2,4x4" in lines


@pytest.mark.parametrize("params", [5, [2], "levels", None])
def test_bench_params_not_an_object_exits_2(tmp_path, capsys, params):
    cfg = _write(tmp_path, {"case": "plate_sinusoidal", "params": params},
                 "bench.json")
    assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "plate_sinusoidal.csv").exists()


@pytest.mark.parametrize("case, params, says", [
    ("plate_sinusoidal", {"levels": 5}, "params: 'levels' = 5"),
    ("plate_sinusoidal", {"level": [4]}, "params: unknown key(s) level"),
    ("nonlinear_checkpoints", {"hole": {"steps": 4}},
     "params.hole: unknown key(s) steps"),
    ("nonlinear_checkpoints", {"pinch": {"w_max": "90"}},
     "params.pinch: 'w_max'"),
    ("pure_bending_folded", {"methods": [["penalty", "big"]]},
     "params: 'methods'"),
    ("pure_bending_folded", {"methods": [["lm", "n2q9"]]},
     "params: 'methods'"),
    ("pure_bending_folded", {"levels": [1], "methods": [["penalty", -1]]},
     "params: 'methods'"),
    ("plate_sinusoidal", {"levels": [0]}, "params: 'levels' = [0]"),
], ids=["wrong_kind", "unknown_key", "nested_unknown_key",
        "nested_wrong_kind", "penalty_scale_not_a_number",
        "unknown_interpolation", "negative_penalty_scale", "zero_level"])
def test_bench_params_unlike_the_defaults_exit_2(tmp_path, capsys, case,
                                                 params, says):
    """Params are checked against the case's defaults before it runs."""
    cfg = _write(tmp_path, {"case": case, "params": params}, "bench.json")
    assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and says in err
    assert not (tmp_path / f"{case}.csv").exists()


def test_verify_tangents_passes(capsys):
    rc = main(["verify-tangents", "--model", "koiter", "--states", "3",
               "--deterministic"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "koiter" in out and "global_tangent" in out and "FAIL" not in out


def test_verify_tangents_without_states_exits_2(capsys):
    """--states 0 checks nothing, so it must not report every law as ok."""
    for states in ("0", "-1"):
        assert main(["verify-tangents", "--model", "koiter", "--states",
                     states, "--deterministic"]) == 2
        captured = capsys.readouterr()
        assert "--states" in captured.err and "ok" not in captured.out


def test_verify_tangents_unknown_model_exits_2(capsys):
    assert main(["verify-tangents", "--model", "gum"]) == 2
    assert "unknown material model" in capsys.readouterr().err


def test_flugge_prints_series_value(capsys):
    assert main(["flugge", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "1.82487" in out


def test_info_lists_cases(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "pinched_cylinder_linear" in out and "igashell" in out
