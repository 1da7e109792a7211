"""Config schema, model building and file writers."""

import json
import os

import numpy as np
import pytest

from igashell.cli_io import (ConfigError, FieldOutput, RunConfig, build_mesh,
                             build_field_output, build_model, write_csv,
                             write_field_csv, write_vtk)
from igashell.geometry import (Mesh, make_folded_strip, make_plate,
                               make_sphere_panel)
from igashell.materials import KoiterMaterial
from oracles import field_output_reference

FULL_CONFIG = {
    "mesh": {"type": "plate", "lx": 2.0, "ly": 1.0, "degree": 2,
             "n_x": 3, "n_y": 2},
    "material": {"model": "koiter", "youngs": 1e4, "poisson": 0.3,
                 "thickness": 0.05},
    "constraints": [
        {"kind": "fix", "patch": 0, "side": "u0"},
        {"kind": "fix_nodes", "nodes": [0, 1], "components": [2]},
        {"kind": "rotation", "patch": 0, "side": "u0",
         "method": "penalty", "epsilon": 1e4, "normal": [1, 0, 0]},
        {"kind": "rotation", "patch": 0, "side": "v0",
         "method": "multiplier", "interp": "n2q1c"},
        {"kind": "interface", "index": "all", "method": "penalty",
         "epsilon": 100.0},
    ],
    "loads": [
        {"kind": "point", "patch": 0, "u": 1.0, "v": 0.5,
         "force": [0, 0, -1]},
        {"kind": "pressure", "patch": 0, "p": 2.5},
        {"kind": "edge_traction", "patch": 0, "side": "u1",
         "traction": [0, 0, -0.5]},
        {"kind": "body", "patch": 0, "traction": [0, 0, -0.1]},
        {"kind": "edge_moment", "patch": 0, "side": "u1", "moment": 0.2},
    ],
    "solver": {"n_steps": 2, "tol_rel": 1e-9},
    "outputs": {"probes": [{"patch": 0, "u": 1.0, "v": 0.5}],
                "fields": True, "formats": ["vtk", "csv"]},
}


# -- schema ----------------------------------------------------------------

def test_round_trip_is_fixpoint():
    cfg = RunConfig.from_dict(FULL_CONFIG)
    once = cfg.to_dict()
    twice = RunConfig.from_dict(json.loads(json.dumps(once))).to_dict()
    assert once == twice


def test_defaults_are_filled():
    cfg = RunConfig.from_dict({
        "mesh": {"type": "plate", "lx": 1, "ly": 1, "degree": 2,
                 "n_x": 2, "n_y": 2},
        "material": {"model": "koiter", "youngs": 1.0, "poisson": 0.0,
                     "thickness": 0.1}})
    assert cfg.solver == {"n_steps": 1, "tol_rel": 1e-8, "max_iter": 30,
                          "max_cuts": 4, "linear": False}
    assert cfg.outputs == {"probes": [], "fields": False,
                           "samples_per_element": 2, "formats": ["csv"]}
    assert cfg.mesh["skew"] == 0.0


def test_incompressible_alias_normalized():
    cfg = RunConfig.from_dict({
        "mesh": {"type": "plate", "lx": 1, "ly": 1, "degree": 2,
                 "n_x": 2, "n_y": 2},
        "material": {"model": "projected_incompressible", "youngs": 1.0,
                     "poisson": 0.3, "thickness": 0.1}})
    assert cfg.material["model"] == "projected"
    assert cfg.material["incompressible"] is True
    assert RunConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("mesh"), "missing required key 'mesh'"),
    (lambda d: d.update(extra=1), "unknown key"),
    (lambda d: d["mesh"].update(type="torus"), "'type' must be one of"),
    (lambda d: d["mesh"].update(lx="wide"), "'lx' must be a number"),
    (lambda d: d["mesh"].update(n_x=0), "'n_x' must be >= 1"),
    (lambda d: d["material"].update(model="rubber"), "'model' must be one"),
    (lambda d: d["material"].update(thickness=-1.0), "must be positive"),
    (lambda d: d["constraints"][0].update(side="w0"), "'side' must be one"),
    (lambda d: d["constraints"][0].update(components=[3]), "components"),
    (lambda d: d["constraints"][2].update(epsilon=-5.0), "must be positive"),
    (lambda d: d["constraints"][3].update(interp="n3"), "'interp' must be"),
    (lambda d: d["loads"][0].update(force=[1, 2]), "list of 3 numbers"),
    (lambda d: d["outputs"].update(formats=["xml"]), "'formats' must be"),
    (lambda d: d["outputs"].update(samples_per_element=1), ">= 2"),
    (lambda d: d["solver"].update(linear="yes"), "'linear' must be a boolean"),
])
def test_invalid_configs_rejected(mutate, fragment):
    doc = json.loads(json.dumps(FULL_CONFIG))
    mutate(doc)
    with pytest.raises(ConfigError, match=fragment.replace("[", "\\[")):
        RunConfig.from_dict(doc)


# -- model building --------------------------------------------------------

def test_build_model_full_config():
    cfg = RunConfig.from_dict(FULL_CONFIG)
    model, mesh = build_model(cfg)
    assert len(mesh.patches) == 1
    # interface "all" on a single-patch mesh adds nothing
    assert len(model.constraints) == 2
    assert len(model.pressures) == 1 and len(model.edge_moments) == 1
    nq, _ = model.multiplier_layout()
    assert nq > 0      # the n2q1c rotation constraint carries multipliers


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d["constraints"][0].update(patch=3), "patch 3 does not exist"),
    (lambda d: d["constraints"][1].update(nodes=[10 ** 6]), "node 1000000"),
    (lambda d: d["constraints"][4].update(index=5), "interface 5"),
    (lambda d: d["loads"][1].update(patch=2), "patch 2 does not exist"),
    (lambda d: d["outputs"]["probes"][0].update(patch=9), "patch 9"),
])
def test_dangling_references_rejected(mutate, fragment):
    doc = json.loads(json.dumps(FULL_CONFIG))
    mutate(doc)
    with pytest.raises(ConfigError, match=fragment.replace("[", "\\[")):
        build_model(RunConfig.from_dict(doc))


def test_mesh_from_file_and_bad_file(tmp_path):
    mesh = Mesh([make_plate(1.0, 1.0, 2, 2, 2)])
    path = tmp_path / "mesh.json"
    mesh.save(path)
    cfg = {"type": "file", "path": "mesh.json"}
    loaded = build_mesh(cfg, base_dir=str(tmp_path))
    assert loaded.n_nodes == mesh.n_nodes
    (tmp_path / "broken.json").write_text("{not json")
    with pytest.raises(ConfigError, match="broken.json"):
        build_mesh({"type": "file", "path": "broken.json"},
                   base_dir=str(tmp_path))


def test_skewed_plate_recipe():
    straight = build_mesh({"type": "plate", "lx": 1.0, "ly": 1.0,
                           "degree": 2, "n_x": 4, "n_y": 4, "skew": 0.0})
    skewed = build_mesh({"type": "plate", "lx": 1.0, "ly": 1.0,
                         "degree": 2, "n_x": 4, "n_y": 4, "skew": 0.2})
    assert skewed.n_nodes == straight.n_nodes
    assert not np.allclose(skewed.node_coords, straight.node_coords)


# -- field sampling --------------------------------------------------------

def _flat_field(samples=2):
    mesh = Mesh([make_plate(2.0, 1.0, 2, 3, 2)])
    mat = KoiterMaterial.from_youngs(1e3, 0.3, 0.02)
    return build_field_output(mesh, mesh.node_coords, mat, samples), mesh


def test_flat_reference_field_is_stress_free():
    fo, mesh = _flat_field()
    n_el = 3 * 2
    assert fo.points.shape == (4 * n_el, 3)
    assert fo.cells.shape == (n_el, 4)
    assert np.abs(fo.displacement).max() == 0.0
    assert np.abs(fo.mean_curvature).max() < 1e-12
    assert np.abs(fo.gauss_curvature).max() < 1e-12
    assert np.abs(fo.membrane_stress).max() < 1e-9
    assert np.abs(fo.bending_moment).max() < 1e-9


def test_sphere_reference_curvatures():
    R = 2.0
    mesh = Mesh([make_sphere_panel(R, 0.0, 90.0, 30.0, 80.0, 3, 4, 4)])
    mat = KoiterMaterial.from_youngs(1e3, 0.3, 0.02)
    fo = build_field_output(mesh, mesh.node_coords, mat, 3)
    assert fo.gauss_curvature == pytest.approx(1.0 / R ** 2, rel=1e-10)
    assert np.abs(fo.mean_curvature) == pytest.approx(1.0 / R, rel=1e-10)


@pytest.mark.parametrize("samples", [2, 3])
@pytest.mark.parametrize("mesh", [
    Mesh([make_sphere_panel(2.0, 0.0, 90.0, 20.0, 80.0, 2, 3, 2)]),
    make_folded_strip(1.0, 1.0, 0.5, 30.0, 2, 2, 2)[0],
], ids=["cap", "strip"])
def test_field_output_matches_point_reference(mesh, samples):
    """The batched field output equals one-point evaluation bit for bit at
    a deformed state.  Samples on a breakpoint take the element on their
    right, where the quadratic basis' d2N jumps."""
    mat = KoiterMaterial.from_youngs(1e3, 0.3, 0.02)
    rng = np.random.default_rng(8)
    x = mesh.node_coords + 0.02 * rng.standard_normal(mesh.node_coords.shape)
    fo = build_field_output(mesh, x, mat, samples)
    want = field_output_reference(mesh, x, mat, samples)
    for got, w in zip((fo.points, fo.displacement, fo.mean_curvature,
                       fo.gauss_curvature, fo.membrane_stress,
                       fo.bending_moment), want):
        assert np.array_equal(got, w)


def test_sampled_grid_resolution():
    fo, _ = _flat_field(samples=3)
    # 3x3 points and 2x2 quads per element
    assert fo.points.shape[0] == 9 * 6
    assert fo.cells.shape[0] == 4 * 6
    assert fo.cells.max() == fo.points.shape[0] - 1


# -- writers ---------------------------------------------------------------

def test_csv_is_rfc4180(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, "x,y"], [2.5, 'he said "hi"']])
    raw = path.read_bytes()
    assert b"\r\n" in raw
    lines = raw.decode().split("\r\n")
    assert lines[0] == "a,b"
    assert lines[1] == '1,"x,y"'
    assert lines[2] == '2.5,"he said ""hi"""'


def test_field_csv_shape(tmp_path):
    fo, _ = _flat_field()
    path = tmp_path / "f.csv"
    write_field_csv(path, fo)
    lines = path.read_bytes().decode().strip().split("\r\n")
    assert len(lines) == 1 + len(fo.points)
    assert lines[0].split(",")[:3] == ["x", "y", "z"]
    assert len(lines[1].split(",")) == 14


def _read_vtk(path):
    """Minimal legacy ASCII reader for the subset this package writes."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    assert lines[0].startswith("# vtk DataFile")
    assert lines[2] == "ASCII" and lines[3] == "DATASET UNSTRUCTURED_GRID"
    out = {}
    i = 4
    while i < len(lines):
        tok = lines[i].split()
        if tok[0] == "POINTS":
            n = int(tok[1])
            out["points"] = np.array(
                [[float(v) for v in lines[i + 1 + k].split()]
                 for k in range(n)])
            i += n + 1
        elif tok[0] == "CELLS":
            nc = int(tok[1])
            rows = [lines[i + 1 + k].split() for k in range(nc)]
            assert all(r[0] == "4" for r in rows)
            out["cells"] = np.array([[int(v) for v in r[1:]] for r in rows])
            i += nc + 1
        elif tok[0] == "CELL_TYPES":
            nc = int(tok[1])
            assert all(lines[i + 1 + k] == "9" for k in range(nc))
            i += nc + 1
        elif tok[0] == "POINT_DATA":
            out["n_point_data"] = int(tok[1])
            i += 1
        elif tok[0] == "VECTORS":
            n = out["n_point_data"]
            out[tok[1]] = np.array(
                [[float(v) for v in lines[i + 1 + k].split()]
                 for k in range(n)])
            i += n + 1
        elif tok[0] == "SCALARS":
            n = out["n_point_data"]
            assert lines[i + 1] == "LOOKUP_TABLE default"
            out[tok[1]] = np.array([float(lines[i + 2 + k])
                                    for k in range(n)])
            i += n + 2
        elif tok[0] == "FIELD":
            i += 1
            for _ in range(int(tok[2])):
                name, comp, n = (lines[i].split()[0],
                                 int(lines[i].split()[1]),
                                 int(lines[i].split()[2]))
                out[name] = np.array(
                    [[float(v) for v in lines[i + 1 + k].split()]
                     for k in range(n)])
                assert out[name].shape[1] == comp
                i += n + 1
        else:
            raise AssertionError(f"unexpected VTK line: {lines[i]}")
    return out


def test_vtk_round_trip(tmp_path):
    R = 1.5
    mesh = Mesh([make_sphere_panel(R, 0.0, 90.0, 20.0, 70.0, 2, 2, 2)])
    mat = KoiterMaterial.from_youngs(1e3, 0.3, 0.02)
    rng = np.random.default_rng(3)
    x = mesh.node_coords * 1.01 + 0.001 * rng.standard_normal((mesh.n_nodes, 3))
    fo = build_field_output(mesh, x, mat, 2)
    path = tmp_path / "f.vtk"
    write_vtk(path, fo)
    data = _read_vtk(path)
    for name, arr in (("points", fo.points),
                      ("cells", fo.cells),
                      ("displacement", fo.displacement),
                      ("mean_curvature", fo.mean_curvature),
                      ("gauss_curvature", fo.gauss_curvature),
                      ("membrane_stress", fo.membrane_stress),
                      ("bending_moment", fo.bending_moment)):
        got = data[name]
        assert got.shape == arr.shape, name
        scale = max(np.abs(arr).max(), 1e-30)
        assert np.abs(got - arr).max() <= 1e-8 * scale, \
            f"{name} does not survive the round trip"


def test_flat_plate_vtk_zero_mean_curvature(tmp_path):
    fo, _ = _flat_field()
    path = tmp_path / "flat.vtk"
    write_vtk(path, fo)
    data = _read_vtk(path)
    assert np.abs(data["mean_curvature"]).max() < 1e-12
