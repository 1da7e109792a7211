"""Run configuration, model building and file output for the command line.

A run is described by one JSON document with six sections: mesh, material,
constraints, loads, solver and outputs.  Parsing normalizes the document
(defaults filled in, aliases resolved), and serializing a parsed config
reproduces the normalized form exactly, so parse -> serialize -> parse is a
fixpoint.  Field output goes to RFC-4180 CSV or legacy ASCII VTK.
"""

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .constraints import Multiplier, Penalty, RotationConstraint
from .geometry import (SIDES, Mesh, MeshFormatError, make_cylinder_panel,
                       make_folded_strip, make_plate, make_sphere_panel,
                       skew_patch, surface_derivatives)
from .kinematics import surface_vectors_state
from .materials import (CanhamMaterial, KoiterMaterial, MixedMaterial,
                        ProjectedNeoHooke)
from .solver import Model


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _require(d, key, where):
    if key not in d:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return d[key]


def _num(d, key, where, default=None):
    v = d.get(key, default)
    if v is None:
        v = _require(d, key, where)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: '{key}' must be a number")
    return float(v)


def _int(d, key, where, default=None, minimum=None):
    v = d.get(key, default)
    if v is None:
        v = _require(d, key, where)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: '{key}' must be an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}: '{key}' must be >= {minimum}")
    return int(v)


def _vec3(d, key, where):
    v = _require(d, key, where)
    if (not isinstance(v, (list, tuple)) or len(v) != 3
            or any(isinstance(c, bool) or not isinstance(c, (int, float))
                   for c in v)):
        raise ConfigError(f"{where}: '{key}' must be a list of 3 numbers")
    return [float(c) for c in v]


def _choice(d, key, where, allowed, default=None):
    v = d.get(key, default)
    if v is None:
        v = _require(d, key, where)
    if v not in allowed:
        raise ConfigError(f"{where}: '{key}' must be one of {sorted(allowed)},"
                          f" got {v!r}")
    return v


def _components(d, where):
    comps = d.get("components", [0, 1, 2])
    if (not isinstance(comps, (list, tuple)) or len(comps) == 0
            or any(isinstance(c, bool) or not isinstance(c, int)
                   or c not in (0, 1, 2) for c in comps)):
        raise ConfigError(f"{where}: 'components' must be a nonempty list"
                          " drawn from [0, 1, 2]")
    return sorted(set(int(c) for c in comps))


def _reject_unknown(d, allowed, where):
    extra = sorted(set(d) - set(allowed))
    if extra:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(extra)}")


# -- section parsers -------------------------------------------------------

_MESH_KEYS = {
    "plate": ("lx", "ly", "degree", "n_x", "n_y", "skew"),
    "cylinder": ("radius", "length", "phi0", "phi1", "degree",
                 "n_axial", "n_circ"),
    "sphere": ("radius", "phi0", "phi1", "theta0", "theta1", "degree",
               "n_phi", "n_theta"),
    "folded_strip": ("length_1", "length_2", "width", "fold_angle", "degree",
                     "n_per_patch", "n_width", "n_patches_1", "n_patches_2"),
    "file": ("path",),
}


def _parse_mesh(d):
    if not isinstance(d, dict):
        raise ConfigError("mesh: must be an object")
    typ = _choice(d, "type", "mesh", set(_MESH_KEYS))
    _reject_unknown(d, ("type",) + _MESH_KEYS[typ], "mesh")
    out = {"type": typ}
    if typ == "file":
        path = _require(d, "path", "mesh")
        if not isinstance(path, str):
            raise ConfigError("mesh: 'path' must be a string")
        out["path"] = path
        return out
    ints = {"degree", "n_x", "n_y", "n_axial", "n_circ", "n_phi", "n_theta",
            "n_per_patch", "n_width", "n_patches_1", "n_patches_2"}
    defaults = {"skew": 0.0, "n_patches_1": 1, "n_patches_2": 1}
    for key in _MESH_KEYS[typ]:
        if key in ints:
            out[key] = _int(d, key, "mesh", default=defaults.get(key),
                            minimum=1)
        else:
            out[key] = _num(d, key, "mesh", default=defaults.get(key))
    return out


def _parse_material(d):
    if not isinstance(d, dict):
        raise ConfigError("material: must be an object")
    model = _choice(d, "model", "material",
                    {"koiter", "mixed", "projected",
                     "projected_incompressible", "canham"})
    if model == "canham":
        _reject_unknown(d, ("model", "lam", "mu", "bend"), "material")
        return {"model": "canham",
                "lam": _num(d, "lam", "material"),
                "mu": _num(d, "mu", "material"),
                "bend": _num(d, "bend", "material")}
    out = {"model": model,
           "youngs": _num(d, "youngs", "material"),
           "poisson": _num(d, "poisson", "material"),
           "thickness": _num(d, "thickness", "material")}
    if out["thickness"] <= 0.0:
        raise ConfigError("material: 'thickness' must be positive")
    if model in ("projected", "projected_incompressible"):
        _reject_unknown(d, ("model", "youngs", "poisson", "thickness",
                            "incompressible", "reduction", "n_thickness"),
                        "material")
        incomp = d.get("incompressible", model == "projected_incompressible")
        if not isinstance(incomp, bool):
            raise ConfigError("material: 'incompressible' must be a boolean")
        out["model"] = "projected"
        out["incompressible"] = incomp
        out["reduction"] = _choice(d, "reduction", "material",
                                   {"exact", "simple"}, default="exact")
        out["n_thickness"] = _int(d, "n_thickness", "material", default=3,
                                  minimum=1)
    else:
        _reject_unknown(d, ("model", "youngs", "poisson", "thickness"),
                        "material")
    return out


def _parse_method(d, where):
    method = _choice(d, "method", where, {"penalty", "multiplier"},
                     default="penalty")
    if method == "penalty":
        eps = _num(d, "epsilon", where)
        if eps <= 0.0:
            raise ConfigError(f"{where}: 'epsilon' must be positive")
        return {"method": "penalty", "epsilon": eps}
    return {"method": "multiplier",
            "interp": _choice(d, "interp", where, {"n2q0", "n2q1c"},
                              default="n2q0")}


def _parse_constraint(d, k):
    where = f"constraints[{k}]"
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: must be an object")
    kind = _choice(d, "kind", where,
                   {"fix", "fix_nodes", "rotation", "interface"})
    if kind == "fix":
        _reject_unknown(d, ("kind", "patch", "side", "components", "value"),
                        where)
        return {"kind": "fix",
                "patch": _int(d, "patch", where, minimum=0),
                "side": _choice(d, "side", where, set(SIDES)),
                "components": _components(d, where),
                "value": _num(d, "value", where, default=0.0)}
    if kind == "fix_nodes":
        _reject_unknown(d, ("kind", "nodes", "components", "value"), where)
        nodes = _require(d, "nodes", where)
        if (not isinstance(nodes, (list, tuple)) or len(nodes) == 0
                or any(isinstance(n, bool) or not isinstance(n, int)
                       or n < 0 for n in nodes)):
            raise ConfigError(f"{where}: 'nodes' must be a nonempty list of"
                              " node indices")
        return {"kind": "fix_nodes", "nodes": [int(n) for n in nodes],
                "components": _components(d, where),
                "value": _num(d, "value", where, default=0.0)}
    if kind == "rotation":
        _reject_unknown(d, ("kind", "patch", "side", "method", "epsilon",
                            "interp", "normal", "angle"), where)
        out = {"kind": "rotation",
               "patch": _int(d, "patch", where, minimum=0),
               "side": _choice(d, "side", where, set(SIDES)),
               "normal": None if d.get("normal") is None
               else _vec3(d, "normal", where),
               "angle": None if d.get("angle") is None
               else _num(d, "angle", where)}
        out.update(_parse_method(d, where))
        return out
    _reject_unknown(d, ("kind", "index", "method", "epsilon", "interp"),
                    where)
    index = d.get("index", "all")
    if index != "all" and (isinstance(index, bool)
                           or not isinstance(index, int) or index < 0):
        raise ConfigError(f"{where}: 'index' must be a nonnegative integer"
                          " or 'all'")
    out = {"kind": "interface", "index": index}
    out.update(_parse_method(d, where))
    return out


def _parse_load(d, k):
    where = f"loads[{k}]"
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: must be an object")
    kind = _choice(d, "kind", where,
                   {"point", "pressure", "edge_traction", "body",
                    "edge_moment"})
    out = {"kind": kind, "patch": _int(d, "patch", where, minimum=0)}
    if kind == "point":
        _reject_unknown(d, ("kind", "patch", "u", "v", "force"), where)
        out.update(u=_num(d, "u", where), v=_num(d, "v", where),
                   force=_vec3(d, "force", where))
    elif kind == "pressure":
        _reject_unknown(d, ("kind", "patch", "p"), where)
        out["p"] = _num(d, "p", where)
    elif kind == "edge_traction":
        _reject_unknown(d, ("kind", "patch", "side", "traction"), where)
        out.update(side=_choice(d, "side", where, set(SIDES)),
                   traction=_vec3(d, "traction", where))
    elif kind == "body":
        _reject_unknown(d, ("kind", "patch", "traction"), where)
        out["traction"] = _vec3(d, "traction", where)
    else:
        _reject_unknown(d, ("kind", "patch", "side", "moment"), where)
        out.update(side=_choice(d, "side", where, set(SIDES)),
                   moment=_num(d, "moment", where))
    return out


def _parse_solver(d):
    if not isinstance(d, dict):
        raise ConfigError("solver: must be an object")
    _reject_unknown(d, ("n_steps", "tol_rel", "max_iter", "max_cuts",
                        "linear"), "solver")
    linear = d.get("linear", False)
    if not isinstance(linear, bool):
        raise ConfigError("solver: 'linear' must be a boolean")
    return {"n_steps": _int(d, "n_steps", "solver", default=1, minimum=1),
            "tol_rel": _num(d, "tol_rel", "solver", default=1e-8),
            "max_iter": _int(d, "max_iter", "solver", default=30, minimum=1),
            "max_cuts": _int(d, "max_cuts", "solver", default=4, minimum=0),
            "linear": linear}


def _parse_outputs(d):
    if not isinstance(d, dict):
        raise ConfigError("outputs: must be an object")
    _reject_unknown(d, ("probes", "fields", "samples_per_element", "formats"),
                    "outputs")
    probes = d.get("probes", [])
    if not isinstance(probes, list):
        raise ConfigError("outputs: 'probes' must be a list")
    norm = []
    for k, p in enumerate(probes):
        where = f"outputs.probes[{k}]"
        if not isinstance(p, dict):
            raise ConfigError(f"{where}: must be an object")
        _reject_unknown(p, ("patch", "u", "v"), where)
        norm.append({"patch": _int(p, "patch", where, minimum=0),
                     "u": _num(p, "u", where), "v": _num(p, "v", where)})
    fields = d.get("fields", False)
    if not isinstance(fields, bool):
        raise ConfigError("outputs: 'fields' must be a boolean")
    formats = d.get("formats", ["csv"])
    if (not isinstance(formats, list) or len(formats) == 0
            or any(f not in ("csv", "vtk") for f in formats)):
        raise ConfigError("outputs: 'formats' must be a nonempty list drawn"
                          " from ['csv', 'vtk']")
    return {"probes": norm, "fields": fields,
            "samples_per_element": _int(d, "samples_per_element", "outputs",
                                        default=2, minimum=2),
            "formats": sorted(set(formats))}


@dataclass
class RunConfig:
    """Normalized run description; to_dict round-trips through from_dict."""

    mesh: dict
    material: dict
    constraints: list = field(default_factory=list)
    loads: list = field(default_factory=list)
    solver: dict = field(default_factory=lambda: _parse_solver({}))
    outputs: dict = field(default_factory=lambda: _parse_outputs({}))

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError("config root must be a JSON object")
        _reject_unknown(d, ("mesh", "material", "constraints", "loads",
                            "solver", "outputs"), "config")
        cons = d.get("constraints", [])
        loads = d.get("loads", [])
        if not isinstance(cons, list):
            raise ConfigError("constraints: must be a list")
        if not isinstance(loads, list):
            raise ConfigError("loads: must be a list")
        return cls(
            mesh=_parse_mesh(_require(d, "mesh", "config")),
            material=_parse_material(_require(d, "material", "config")),
            constraints=[_parse_constraint(c, k) for k, c in enumerate(cons)],
            loads=[_parse_load(l, k) for k, l in enumerate(loads)],
            solver=_parse_solver(d.get("solver", {})),
            outputs=_parse_outputs(d.get("outputs", {})))

    def to_dict(self):
        return {"mesh": dict(self.mesh), "material": dict(self.material),
                "constraints": [dict(c) for c in self.constraints],
                "loads": [dict(l) for l in self.loads],
                "solver": dict(self.solver), "outputs": dict(self.outputs)}

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


# -- model construction ----------------------------------------------------

def build_mesh(mesh_cfg, base_dir="."):
    m = mesh_cfg
    typ = m["type"]
    if typ == "file":
        path = m["path"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            return Mesh.load(path)
        except (OSError, MeshFormatError, ValueError) as exc:
            raise ConfigError(f"mesh file {m['path']}: {exc}") from exc
    try:
        if typ == "plate":
            patch = make_plate(m["lx"], m["ly"], m["degree"], m["n_x"],
                               m["n_y"])
            if m["skew"] != 0.0:
                patch = skew_patch(patch, m["skew"])
            return Mesh([patch])
        if typ == "cylinder":
            return Mesh([make_cylinder_panel(
                m["radius"], m["length"], m["phi0"], m["phi1"], m["degree"],
                m["n_axial"], m["n_circ"])])
        if typ == "sphere":
            return Mesh([make_sphere_panel(
                m["radius"], m["phi0"], m["phi1"], m["theta0"], m["theta1"],
                m["degree"], m["n_phi"], m["n_theta"])])
        mesh, _ = make_folded_strip(
            m["length_1"], m["length_2"], m["width"], m["fold_angle"],
            m["degree"], m["n_per_patch"], m["n_width"],
            m["n_patches_1"], m["n_patches_2"])
        return mesh
    except ValueError as exc:
        raise ConfigError(f"mesh: {exc}") from exc


def build_material(mat_cfg):
    m = mat_cfg
    if m["model"] == "canham":
        return CanhamMaterial(m["lam"], m["mu"], m["bend"])
    args = (m["youngs"], m["poisson"], m["thickness"])
    if m["model"] == "koiter":
        return KoiterMaterial.from_youngs(*args)
    if m["model"] == "mixed":
        return MixedMaterial.from_youngs(*args)
    return ProjectedNeoHooke.from_youngs(
        *args, incompressible=m["incompressible"], reduction=m["reduction"],
        n_thickness=m["n_thickness"])


def _check_patch(mesh, idx, where):
    if idx >= len(mesh.patches):
        raise ConfigError(f"{where}: patch {idx} does not exist"
                          f" (mesh has {len(mesh.patches)})")


def _check_point(mesh, d, where):
    """A point load's or probe's (u, v) lies in its patch's parameter
    range, the ends included (``Mesh.check_point``)."""
    try:
        mesh.check_point(d["patch"], d["u"], d["v"])
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _method_obj(c):
    if c["method"] == "penalty":
        return Penalty(c["epsilon"])
    return Multiplier(c["interp"])


def build_model(cfg, base_dir="."):
    """Instantiate mesh, material, constraints and loads from a RunConfig."""
    mesh = build_mesh(cfg.mesh, base_dir)
    model = Model(mesh, build_material(cfg.material))
    for k, c in enumerate(cfg.constraints):
        where = f"constraints[{k}]"
        if c["kind"] == "fix":
            _check_patch(mesh, c["patch"], where)
            model.fix_edge(c["patch"], c["side"], components=c["components"],
                           value=c["value"])
        elif c["kind"] == "fix_nodes":
            bad = [n for n in c["nodes"] if n >= mesh.n_nodes]
            if bad:
                raise ConfigError(f"{where}: node {bad[0]} does not exist"
                                  f" (mesh has {mesh.n_nodes} nodes)")
            model.fix_nodes(np.array(c["nodes"]), components=c["components"],
                            value=c["value"])
        elif c["kind"] == "rotation":
            _check_patch(mesh, c["patch"], where)
            con = RotationConstraint.fixed(mesh, c["patch"], c["side"],
                                           normal=c["normal"],
                                           alpha0=c["angle"])
            model.add_constraint(con, _method_obj(c))
        else:
            if c["index"] == "all":
                picked = list(range(len(mesh.interfaces)))
            elif c["index"] >= len(mesh.interfaces):
                raise ConfigError(
                    f"{where}: interface {c['index']} does not exist"
                    f" (mesh has {len(mesh.interfaces)})")
            else:
                picked = [c["index"]]
            for i in picked:
                con = RotationConstraint.from_interface(mesh,
                                                        mesh.interfaces[i])
                model.add_constraint(con, _method_obj(c))
    for k, l in enumerate(cfg.loads):
        _check_patch(mesh, l["patch"], f"loads[{k}]")
        if l["kind"] == "point":
            _check_point(mesh, l, f"loads[{k}]")
            model.add_point_force(l["patch"], l["u"], l["v"], l["force"])
        elif l["kind"] == "pressure":
            model.add_pressure(l["patch"], l["p"])
        elif l["kind"] == "edge_traction":
            model.add_edge_traction(l["patch"], l["side"], l["traction"])
        elif l["kind"] == "body":
            model.add_body_load(l["patch"], l["traction"])
        else:
            model.add_edge_moment(l["patch"], l["side"], l["moment"])
    for k, p in enumerate(cfg.outputs["probes"]):
        _check_patch(mesh, p["patch"], f"outputs.probes[{k}]")
        _check_point(mesh, p, f"outputs.probes[{k}]")
    return model, mesh


# -- field sampling --------------------------------------------------------

@dataclass
class FieldOutput:
    """Per-sample-point surface fields on an element-wise visualization grid.

    Stress arrays hold physical covariant components in the order
    [11, 22, 12] (membrane force resultants and bending moments).
    """

    points: np.ndarray
    cells: np.ndarray
    displacement: np.ndarray
    mean_curvature: np.ndarray
    gauss_curvature: np.ndarray
    membrane_stress: np.ndarray
    bending_moment: np.ndarray


def _patch_samples(patch, s):
    """Per-element s x s parameter grids: (n_pts, 2) plus local quads.

    Elements run with u fastest, and so do the points within one."""
    us, vs = (np.linspace(b[:-1], b[1:], s, axis=1)
              for b in (np.unique(patch.knots_u), np.unique(patch.knots_v)))
    shape = (len(vs), len(us), s, s)
    params = np.stack([np.broadcast_to(us[None, :, None, :], shape),
                       np.broadcast_to(vs[:, None, :, None], shape)], axis=-1)
    a = (s * s * np.arange(len(vs) * len(us))[:, None, None]
         + s * np.arange(s - 1)[:, None] + np.arange(s - 1)).ravel()
    return params.reshape(-1, 2), np.stack([a, a + 1, a + s + 1, a + s], 1)


def build_field_output(mesh, x_nodes, material, samples_per_element=2):
    """Sample geometry, curvature and stress on each patch's element grid."""
    s = int(samples_per_element)
    if s < 2:
        raise ValueError("samples_per_element must be at least 2")
    pts, cells = [], []
    disp, Hs, ks, taus, moms = [], [], [], [], []
    offset = 0
    for p, patch in enumerate(mesh.patches):
        params, quads = _patch_samples(patch, s)
        idx, *tables = patch.basis2d(params[:, 0], params[:, 1])
        nodes = mesh.patch_node_ids[p][idx]
        X, a_ref, h_ref = surface_derivatives(*tables, mesh.node_coords[nodes])
        x, a_cur, h_cur = surface_derivatives(*tables, x_nodes[nodes])
        ref, _ = surface_vectors_state(a_ref, h_ref)
        cur, _ = surface_vectors_state(a_cur, h_cur)
        tau, M0 = material.stress(ref, cur)
        pts.append(x)
        cells.append(quads + offset)
        disp.append(x - X)
        Hs.append(cur.H)
        ks.append(cur.kappa)
        taus.append(np.stack([tau[:, 0, 0], tau[:, 1, 1], tau[:, 0, 1]], 1))
        moms.append(np.stack([M0[:, 0, 0], M0[:, 1, 1], M0[:, 0, 1]], 1))
        offset += len(params)
    return FieldOutput(np.vstack(pts), np.vstack(cells), np.vstack(disp),
                       np.concatenate(Hs), np.concatenate(ks),
                       np.vstack(taus), np.vstack(moms))


# -- writers ---------------------------------------------------------------

def write_csv(path, header, rows):
    """RFC-4180 style CSV: header row, CRLF line endings, minimal quoting."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(header)
        w.writerows(rows)


def write_field_csv(path, fo: FieldOutput):
    header = ["x", "y", "z", "ux", "uy", "uz", "mean_curvature",
              "gauss_curvature", "tau_11", "tau_22", "tau_12",
              "m_11", "m_22", "m_12"]
    data = np.column_stack([fo.points, fo.displacement,
                            fo.mean_curvature, fo.gauss_curvature,
                            fo.membrane_stress, fo.bending_moment])
    write_csv(path, header, [[f"{v:.9g}" for v in row] for row in data])


def _vtk_block(fh, arr, fmt="{:.9g}"):
    for row in np.atleast_2d(arr):
        fh.write(" ".join(fmt.format(v) for v in row) + "\n")


def write_vtk(path, fo: FieldOutput, title="shell field output"):
    """Legacy ASCII VTK unstructured grid with quad cells and point data."""
    n, nc = len(fo.points), len(fo.cells)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(title + "\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {n} float\n")
        _vtk_block(fh, fo.points)
        fh.write(f"CELLS {nc} {5 * nc}\n")
        for q in fo.cells:
            fh.write("4 " + " ".join(str(i) for i in q) + "\n")
        fh.write(f"CELL_TYPES {nc}\n")
        for _ in range(nc):
            fh.write("9\n")
        fh.write(f"POINT_DATA {n}\n")
        fh.write("VECTORS displacement float\n")
        _vtk_block(fh, fo.displacement)
        for name, arr in (("mean_curvature", fo.mean_curvature),
                          ("gauss_curvature", fo.gauss_curvature)):
            fh.write(f"SCALARS {name} float 1\nLOOKUP_TABLE default\n")
            _vtk_block(fh, arr[:, None])
        fh.write("FIELD FieldData 2\n")
        fh.write(f"membrane_stress 3 {n} float\n")
        _vtk_block(fh, fo.membrane_stress)
        fh.write(f"bending_moment 3 {n} float\n")
        _vtk_block(fh, fo.bending_moment)
