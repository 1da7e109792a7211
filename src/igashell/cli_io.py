"""Run configuration, model building and file output for the command line.

A run is described by one JSON document with six sections: mesh, material,
constraints, loads, solver and outputs.  The table ``RUN_CONFIG`` below is
the one description of it: every key, its kind, range and default (read
with ``schema``).  Parsing normalizes the document (defaults filled in,
aliases resolved), and serializing a parsed config reproduces the
normalized form exactly, so parse -> serialize -> parse is a fixpoint.
Field output goes to RFC-4180 CSV or legacy ASCII VTK.
"""

import csv
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .constraints import Multiplier, Penalty, RotationConstraint
from .geometry import (MAX_DEGREE, SIDES, Mesh, make_cylinder_panel,
                       make_folded_strip, make_plate, make_sphere_panel,
                       skew_patch, surface_derivatives)
from .kinematics import surface_vectors_state
from .materials import (CanhamMaterial, KoiterMaterial, MixedMaterial,
                        ProjectedNeoHooke)
from .schema import (InputError, check, flag, listof, number, obj, read_json,
                     tag, text, whole)
from .solver import Model


ConfigError = InputError     # the name importers know

# -- the schema: the one description of a run config ------------------------

LENGTH = number(gt=0.0)
COUNT = whole(ge=1)
# the shell's C1 basis, and every arc, need degree 2; degree 1 leaves a
# flat patch without bending stiffness
DEGREE = whole(ge=2, le=MAX_DEGREE)
SKEW = number(ge=0.0, lt=1.0)     # skew_patch's distortion ratio
INDEX = whole(ge=0)
SIDE = tag("side", SIDES)
VEC3 = listof(number(), size=3)
COMPONENTS = listof(whole(ge=0, le=2), [0, 1, 2], unique=True)
# 3D Lame constants need -1 < nu < 1/2; t**3 of the bending stiffness
# overflows above t = 1e102
ELASTIC = {"youngs": number(gt=0.0),
           "poisson": number(gt=-1.0, lt=0.5),
           "thickness": number(gt=0.0, le=1e100)}
PROJECTED = {**ELASTIC, "reduction": tag("reduction", ("exact", "simple"),
                                         "exact"),
             "n_thickness": whole(3, ge=1)}
METHOD = tag("method", {
    "penalty": {"epsilon": number(gt=0.0)},
    "multiplier": {"interp": tag("interpolation", ("n2q0", "n2q1c"),
                                 "n2q0")}}, "penalty")

RUN_CONFIG = obj({
    "mesh": obj({"type": tag("mesh type", {
        "plate": {"lx": LENGTH, "ly": LENGTH, "degree": DEGREE,
                  "n_x": COUNT, "n_y": COUNT,
                  "skew": replace(SKEW, default=0.0)},
        "cylinder": {"radius": LENGTH, "length": LENGTH, "phi0": number(),
                     "phi1": number(), "degree": DEGREE, "n_axial": COUNT,
                     "n_circ": COUNT},
        "sphere": {"radius": LENGTH, "phi0": number(), "phi1": number(),
                   "theta0": number(), "theta1": number(), "degree": DEGREE,
                   "n_phi": COUNT, "n_theta": COUNT},
        "folded_strip": {"length_1": LENGTH, "length_2": LENGTH,
                         "width": LENGTH, "fold_angle": number(),
                         "degree": DEGREE, "n_per_patch": COUNT,
                         "n_width": COUNT, "n_patches_1": whole(1, ge=1),
                         "n_patches_2": whole(1, ge=1)},
        "file": {"path": text()}})}),
    "material": obj({"model": tag("material model", {
        "koiter": ELASTIC,
        "mixed": ELASTIC,
        "projected": {**PROJECTED, "incompressible": flag(False)},
        "projected_incompressible": {**PROJECTED,
                                     "incompressible": flag(True)},
        "canham": {"lam": number(), "mu": number(), "bend": number()}})}),
    "constraints": listof(obj({"kind": tag("constraint kind", {
        "fix": {"patch": INDEX, "side": SIDE, "components": COMPONENTS,
                "value": number(0.0)},
        "fix_nodes": {"nodes": listof(INDEX, nonempty=True),
                      "components": COMPONENTS, "value": number(0.0)},
        "rotation": {"patch": INDEX, "side": SIDE,
                     "normal": listof(number(), None, size=3),
                     "angle": number(None), "method": METHOD},
        "interface": {"index": whole("all", ge=0), "method": METHOD}})}),
        []),
    "loads": listof(obj({"kind": tag("load kind", {
        "point": {"u": number(), "v": number(), "force": VEC3},
        "pressure": {"p": number()},
        "edge_traction": {"side": SIDE, "traction": VEC3},
        "body": {"traction": VEC3},
        "edge_moment": {"side": SIDE, "moment": number()}}),
        "patch": INDEX}), []),
    "solver": obj({"n_steps": whole(1, ge=1),
                   "tol_rel": number(1e-8, gt=0.0),
                   "max_iter": whole(30, ge=1), "max_cuts": whole(4, ge=0),
                   "linear": flag(False)}, {}),
    "outputs": obj({"probes": listof(obj({"patch": INDEX, "u": number(),
                                          "v": number()}), []),
                    "fields": flag(False),
                    "samples_per_element": whole(2, ge=2),
                    "formats": listof(tag("output format", ("csv", "vtk")),
                                      ["csv"], unique=True)}, {}),
})


@dataclass
class RunConfig:
    """Normalized run description; to_dict round-trips through from_dict."""

    mesh: dict
    material: dict
    constraints: list
    loads: list
    solver: dict
    outputs: dict

    @classmethod
    def from_dict(cls, d):
        cfg = check(RUN_CONFIG, d)
        if cfg["material"]["model"] == "projected_incompressible":
            cfg["material"]["model"] = "projected"
        return cls(**cfg)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def load(cls, path):
        return cls.from_dict(read_json(path))


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
        except ValueError as exc:
            raise InputError(f"mesh file {m['path']}: {exc}") from exc
    try:
        if typ == "plate":
            return Mesh([skew_patch(make_plate(m["lx"], m["ly"], m["degree"],
                                               m["n_x"], m["n_y"]),
                                    m["skew"])])
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
        raise InputError(f"mesh: {exc}") from exc


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
        raise InputError(f"{where}: patch {idx} does not exist"
                          f" (mesh has {len(mesh.patches)})")


def _method_obj(c):
    if c["method"] == "penalty":
        return Penalty(c["epsilon"])
    return Multiplier(c["interp"])


def build_model(cfg, base_dir="."):
    """Instantiate mesh, material, constraints and loads from a RunConfig.

    What the schema cannot see, the build finds: a reference to a patch,
    node or interface the mesh lacks, a point outside its patch, a
    degenerate surface or edge.  Each is an InputError naming the entry."""
    mesh = build_mesh(cfg.mesh, base_dir)
    where = "mesh"
    try:
        model = Model(mesh, build_material(cfg.material))
        for k, c in enumerate(cfg.constraints):
            where = f"constraints[{k}]"
            _add_constraint(model, mesh, c, where)
        for k, l in enumerate(cfg.loads):
            where = f"loads[{k}]"
            _check_patch(mesh, l["patch"], where)
            if l["kind"] == "point":
                mesh.check_point(l["patch"], l["u"], l["v"])
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
            where = f"outputs.probes[{k}]"
            _check_patch(mesh, p["patch"], where)
            mesh.check_point(p["patch"], p["u"], p["v"])
    except InputError:
        raise
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None
    return model, mesh


def _add_constraint(model, mesh, c, where):
    if c["kind"] == "fix":
        _check_patch(mesh, c["patch"], where)
        model.fix_edge(c["patch"], c["side"], components=c["components"],
                       value=c["value"])
    elif c["kind"] == "fix_nodes":
        bad = [n for n in c["nodes"] if n >= mesh.n_nodes]
        if bad:
            raise InputError(f"{where}: node {bad[0]} does not exist"
                              f" (mesh has {mesh.n_nodes} nodes)")
        model.fix_nodes(np.array(c["nodes"]), components=c["components"],
                        value=c["value"])
    elif c["kind"] == "rotation":
        _check_patch(mesh, c["patch"], where)
        con = RotationConstraint.fixed(mesh, c["patch"], c["side"],
                                       normal=c["normal"], alpha0=c["angle"])
        model.add_constraint(con, _method_obj(c))
    else:
        if c["index"] == "all":
            picked = list(range(len(mesh.interfaces)))
        elif c["index"] >= len(mesh.interfaces):
            raise InputError(f"{where}: interface {c['index']} does not "
                              f"exist (mesh has {len(mesh.interfaces)})")
        else:
            picked = [c["index"]]
        for i in picked:
            con = RotationConstraint.from_interface(mesh, mesh.interfaces[i])
            model.add_constraint(con, _method_obj(c))


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
        sv = material.stress_voigt(ref, cur)
        pts.append(x)
        cells.append(quads + offset)
        disp.append(x - X)
        Hs.append(cur.H)
        ks.append(cur.kappa)
        taus.append(sv[:, :3])
        moms.append(sv[:, 3:])
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


def _vtk_block(fh, arr):
    for row in np.atleast_2d(arr):
        fh.write(" ".join(f"{v:.9g}" for v in row) + "\n")


def write_vtk(path, fo: FieldOutput):
    """Legacy ASCII VTK unstructured grid with quad cells and point data."""
    n, nc = len(fo.points), len(fo.cells)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nshell field output\n")
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
