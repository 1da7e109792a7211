"""Benchmark problem definitions and runners.

Each classical test gets a builder that assembles the model and a runner
that solves it and reports the measured quantities next to their reference
values.  The runners return (rows, summary): rows are flat dicts meant for
CSV tables, the summary carries the headline numbers programmatically.

Linear cases are solved with a single tangent solve about the reference
state, since that is what the tabulated literature values mean.  Nonlinear
cases march the load in increments and report the full path.
"""

import functools
import time
from dataclasses import replace

import numpy as np

from .cli_io import COUNT, DEGREE, SKEW
from .constraints import Multiplier, Penalty, RotationConstraint
from .geometry import (Mesh, make_cylinder_panel, make_folded_strip,
                       make_plate, make_sphere_panel, skew_patch)
from .materials import CanhamMaterial, KoiterMaterial, ProjectedNeoHooke
from .reference import (FluggeCylinder, PureBending, l2_displacement_error,
                        navier_plate_center_deflection)
from .schema import check, listof, number, obj, pair, tag, whole
from .solver import Model, displacement_at, linear_solve, solve

# ---------------------------------------------------------------------------
# linear benchmarks


HEMI = dict(E=6.825e7, nu=0.3, R=10.0, T=0.04, F=2.0)


def build_hemisphere_linear(degree=4, n=16, material="koiter",
                            hole_deg=0.0):
    """Quarter model of the equator-pinched hemisphere.

    Symmetry on the x-z and y-z cut planes, pole control point fixed (or,
    with a hole, the vertical translation pinned at the inward load point).
    Half loads act at the two equator points: inward along x, outward
    along y.
    """
    E, nu, R, T = HEMI["E"], HEMI["nu"], HEMI["R"], HEMI["T"]
    patch = make_sphere_panel(R, 0.0, 90.0, hole_deg, 90.0, degree, n, n)
    mesh = Mesh([patch])
    if material == "koiter":
        mat = KoiterMaterial.from_youngs(E, nu, T)
    else:
        mat = ProjectedNeoHooke.from_youngs(E, nu, T)
    model = Model(mesh, mat)

    model.fix_edge(0, "u0", components=(1,))      # phi = 0: y = 0 plane
    model.fix_edge(0, "u1", components=(0,))      # phi = 90: x = 0 plane
    eps = 800.0 * E
    model.add_constraint(RotationConstraint.fixed(
        mesh, 0, "u0", normal=[0.0, 1.0, 0.0]), Penalty(eps))
    model.add_constraint(RotationConstraint.fixed(
        mesh, 0, "u1", normal=[1.0, 0.0, 0.0]), Penalty(eps))
    if hole_deg == 0.0:
        pole = np.unique(mesh.edge_node_ids(0, "v0"))
        model.fix_nodes(pole)
    else:
        # loads are horizontal; pin the free vertical translation
        corner = mesh.edge_node_ids(0, "v1")[:1]
        model.fix_nodes(corner, components=(2,))

    half = HEMI["F"] / 2.0
    model.add_point_force(0, 0.0, 90.0, [-half, 0.0, 0.0])
    model.add_point_force(0, 90.0, 90.0, [0.0, half, 0.0])
    return model


def hemisphere_linear_deflection(degree=4, n=16, material="koiter"):
    """Radial displacement magnitude under the inward load point."""
    model = build_hemisphere_linear(degree, n, material)
    x, _ = linear_solve(model)
    dA = displacement_at(model.mesh, x, 0, 0.0, 90.0)
    return float(-dA[0])


def _degrees(default):
    return listof(DEGREE, default, nonempty=True)


def _levels(default):
    return listof(COUNT, default, nonempty=True)


def run_hemisphere_linear(params=None):
    p = check(obj({"degrees": _degrees([2, 3, 4]),
                   "levels": _levels([4, 8, 16]),
                   "material": tag("material", ("koiter", "projected"),
                                   "koiter")}), params or {}, "params")
    rows = []
    for deg in p["degrees"]:
        for n in p["levels"]:
            t0 = time.perf_counter()
            d = hemisphere_linear_deflection(deg, n, p["material"])
            rows.append(dict(case="pinched_hemisphere_linear", degree=deg,
                             elements=f"{n}x{n}", material=p["material"],
                             quantity="radial_deflection_under_load",
                             value=d, reference=0.0924,
                             normalized=d / 0.0924,
                             wall_s=round(time.perf_counter() - t0, 3)))
    summary = dict(deflection=rows[-1]["value"],
                   normalized=rows[-1]["normalized"])
    return rows, summary


PLATE = dict(E=4.8e5, nu=0.38, L=12.0, T=0.375, p0=1.0)


def build_plate_sinusoidal(degree=4, n=16):
    """Quarter model of the simply supported plate under sinusoidal load.

    Outer edges carry the support (w = 0), the two inner edges symmetry
    conditions; the penalty grows as n^(p-1) with refinement.
    """
    E, nu, L, T, p0 = (PLATE["E"], PLATE["nu"], PLATE["L"], PLATE["T"],
                       PLATE["p0"])
    patch = make_plate(L / 2.0, L / 2.0, degree, n, n)
    mesh = Mesh([patch])
    model = Model(mesh, KoiterMaterial.from_youngs(E, nu, T))

    model.fix_edge(0, "u0", components=(2,))
    model.fix_edge(0, "v0", components=(2,))
    model.fix_edge(0, "u1", components=(0,))
    model.fix_edge(0, "v1", components=(1,))
    eps = 1e-2 * n ** (degree - 1) * E
    model.add_constraint(RotationConstraint.fixed(
        mesh, 0, "u1", normal=[1.0, 0.0, 0.0]), Penalty(eps))
    model.add_constraint(RotationConstraint.fixed(
        mesh, 0, "v1", normal=[0.0, 1.0, 0.0]), Penalty(eps))

    def pressure(X):
        return np.array([0.0, 0.0, p0 * np.sin(np.pi * X[0] / L)
                         * np.sin(np.pi * X[1] / L)])

    model.add_body_load(0, pressure)
    return model


def plate_center_deflection(degree=4, n=16):
    model = build_plate_sinusoidal(degree, n)
    x, _ = linear_solve(model)
    L = PLATE["L"]
    d = displacement_at(model.mesh, x, 0, L / 2.0, L / 2.0)
    return float(d[2])


def run_plate_sinusoidal(params=None):
    p = check(obj({"degrees": _degrees([2, 3, 4]),
                   "levels": _levels([4, 8, 16])}), params or {}, "params")
    ref = navier_plate_center_deflection(PLATE["p0"], PLATE["L"], PLATE["E"],
                                         PLATE["nu"], PLATE["T"])
    rows = []
    for deg in p["degrees"]:
        for n in p["levels"]:
            t0 = time.perf_counter()
            w = plate_center_deflection(deg, n)
            rows.append(dict(case="plate_sinusoidal", degree=deg,
                             elements=f"{n}x{n}",
                             quantity="center_deflection", value=w,
                             reference=ref, normalized=w / ref,
                             wall_s=round(time.perf_counter() - t0, 3)))
    return rows, dict(deflection=rows[-1]["value"], reference=ref,
                      normalized=rows[-1]["normalized"])


CYL = dict(E=3e6, nu=0.3, R=300.0, L=600.0, T=3.0, F=1.0)


@functools.lru_cache(maxsize=None)
def flugge_reference():
    """Series deflection under the pinching load (cached)."""
    return FluggeCylinder(R=CYL["R"], L=CYL["L"], T=CYL["T"], E=CYL["E"],
                          nu=CYL["nu"], P=CYL["F"]).load_point_deflection()


def build_cylinder_linear(degree=4, n=32):
    """One eighth of the diaphragm-supported pinched cylinder.

    x in [0, L/2] and 90 degrees of circumference; the load point sits on
    the midspan symmetry edge at the top.
    """
    E, nu, R, L, T = CYL["E"], CYL["nu"], CYL["R"], CYL["L"], CYL["T"]
    patch = make_cylinder_panel(R, L / 2.0, 0.0, 90.0, degree, n, n)
    mesh = Mesh([patch])
    model = Model(mesh, KoiterMaterial.from_youngs(E, nu, T))

    model.fix_edge(0, "u0", components=(1, 2))    # rigid diaphragm
    model.fix_edge(0, "u1", components=(0,))      # midspan plane x = L/2
    model.fix_edge(0, "v0", components=(2,))      # z = 0 plane
    model.fix_edge(0, "v1", components=(1,))      # y = 0 plane
    eps_ax = 2e2 * n ** (degree - 1) * E
    model.add_constraint(RotationConstraint.fixed(
        mesh, 0, "u1", normal=[1.0, 0.0, 0.0]), Penalty(eps_ax))
    model.add_constraint(RotationConstraint.fixed(
        mesh, 0, "v0", normal=[0.0, 0.0, 1.0]), Penalty(eps_ax))
    model.add_constraint(RotationConstraint.fixed(
        mesh, 0, "v1", normal=[0.0, 1.0, 0.0]), Penalty(eps_ax))

    model.add_point_force(0, L / 2.0, 90.0, [0.0, 0.0, -CYL["F"] / 4.0])
    return model


def cylinder_linear_deflection(degree=4, n=32):
    model = build_cylinder_linear(degree, n)
    x, _ = linear_solve(model)
    d = displacement_at(model.mesh, x, 0, CYL["L"] / 2.0, 90.0)
    return float(-d[2])


def run_cylinder_linear(params=None):
    p = check(obj({"degrees": _degrees([4]), "levels": _levels([8, 16, 32])}),
              params or {}, "params")
    ref = flugge_reference()
    rows = []
    for deg in p["degrees"]:
        for n in p["levels"]:
            t0 = time.perf_counter()
            w = cylinder_linear_deflection(deg, n)
            rows.append(dict(case="pinched_cylinder_linear", degree=deg,
                             elements=f"{n}x{n}",
                             quantity="deflection_under_load", value=w,
                             reference=ref, rel_error=abs(w - ref) / ref,
                             wall_s=round(time.perf_counter() - t0, 3)))
    return rows, dict(deflection=rows[-1]["value"], reference=ref,
                      errors=[r["rel_error"] for r in rows])


# ---------------------------------------------------------------------------
# pure bending of a strip (flat and folded)


BEND = dict(mu=10.0, lam=5.0, c=1.0, S=np.pi, L=1.0)


def _bending_exact(M, s_fold=None, beta0=0.0):
    pb = PureBending(mu=BEND["mu"], lam=BEND["lam"], c=BEND["c"], M=M)

    def exact(s, X2):
        return pb.deformed_point(s, X2, s_fold=s_fold, beta0=beta0)

    return pb, exact


def build_bending_flat(n=8, scheme="single", M=1.0):
    """Flat strip clamped at the left edge with an end moment on the right.

    The analytic constant-curvature field satisfies these conditions
    exactly: the left edge stays in the x = 0 plane with its surface normal
    unrotated, and the corner at the origin does not move.
    """
    S, L, deg = BEND["S"], BEND["L"], 2
    n_wid = max(2, n // 2)
    if scheme.startswith("single"):
        patches = [make_plate(S, L, deg, n, n_wid)]
    else:
        patches = [make_plate(S / 2.0, L, deg, n // 2, n_wid),
                   make_plate(S / 2.0, L, deg, n - n // 2, n_wid,
                              origin=(S / 2.0, 0.0, 0.0))]
    if scheme.endswith("skew"):
        patches = [skew_patch(pp, 0.2) for pp in patches]
    mesh = Mesh(patches)
    model = Model(mesh, CanhamMaterial(BEND["lam"], BEND["mu"], BEND["c"]))

    model.fix_edge(0, "u0", components=(0, 2))
    model.fix_nodes(mesh.edge_node_ids(0, "u0")[:1], components=(1,))
    eps = 1e4 * n * n_wid * BEND["c"] / BEND["L"]
    model.add_constraint(RotationConstraint.fixed(mesh, 0, "u0"),
                         Penalty(eps))
    for iface in mesh.detect_interfaces():
        model.add_constraint(RotationConstraint.from_interface(mesh, iface),
                             Penalty(eps))
    # positive follower moment curls the free end downward; the analytic
    # field bends toward +z
    model.add_edge_moment(len(patches) - 1, "u1", -M)
    return model


def bending_flat_l2(n=8, scheme="single", M=1.0, n_steps=8):
    model = build_bending_flat(n, scheme, M)
    hist = solve(model, n_steps=n_steps)
    _, exact = _bending_exact(M)

    def field(pi, X):
        return exact(X[..., 0], X[..., 1]) - X

    err = l2_displacement_error(model.quads, hist[-1].x, field,
                                BEND["S"] * BEND["L"],
                                model.mesh.node_coords)
    return err, hist


def run_bending_flat(params=None):
    schemes = ["single", "single_skew", "double", "double_skew"]
    p = check(obj({"levels": _levels([2, 4, 8, 16]),
                   "schemes": listof(tag("scheme", schemes), schemes,
                                     nonempty=True)}), params or {}, "params")
    rows = []
    for scheme in p["schemes"]:
        for n in p["levels"]:
            t0 = time.perf_counter()
            err, hist = bending_flat_l2(n, scheme)
            rows.append(dict(case="pure_bending_flat", scheme=scheme,
                             elements=f"{n}x{max(2, n // 2)}",
                             quantity="l2_displacement_error", value=err,
                             iterations=sum(h.iterations for h in hist),
                             wall_s=round(time.perf_counter() - t0, 3)))
    return rows, dict(errors={s: [r["value"] for r in rows
                                  if r["scheme"] == s]
                              for s in p["schemes"]})


FOLD = dict(M=1.6, beta0=np.pi / 6.0, fold_at=0.75 * np.pi)


def build_bending_folded(n_per_patch=2, n_width=2, method=("penalty", 1e4),
                         M=None):
    """Eight flat patches with a 30 degree fold three quarters along.

    method is ("penalty", scale) with epsilon = scale * n_S * n_L * c / L,
    or ("lm", interp) for the multiplier scheme.
    """
    M = FOLD["M"] if M is None else M
    S1 = FOLD["fold_at"]
    S2 = BEND["S"] - S1
    mesh, meta = make_folded_strip(S1, S2, BEND["L"],
                                   np.degrees(FOLD["beta0"]), 2,
                                   n_per_patch, n_width, 6, 2)
    model = Model(mesh, CanhamMaterial(BEND["lam"], BEND["mu"], BEND["c"]))

    model.fix_edge(0, "u0", components=(0, 2))
    model.fix_nodes(mesh.edge_node_ids(0, "u0")[:1], components=(1,))

    n_S = 8 * n_per_patch
    if method[0] == "penalty":
        how = Penalty(method[1] * n_S * n_width * BEND["c"] / BEND["L"])
    else:
        how = Multiplier(method[1])
    clamp_eps = 1e4 * n_S * n_width * BEND["c"] / BEND["L"]
    model.add_constraint(RotationConstraint.fixed(mesh, 0, "u0"),
                         Penalty(clamp_eps))
    for iface in mesh.detect_interfaces():
        model.add_constraint(RotationConstraint.from_interface(mesh, iface),
                             how)
    model.add_edge_moment(7, "u1", -M)
    return model, meta


def bending_folded_solve(n_per_patch=2, n_width=2, method=("penalty", 1e4),
                         n_steps=10):
    model, meta = build_bending_folded(n_per_patch, n_width, method)
    hist = solve(model, n_steps=n_steps)
    x = hist[-1].x
    _, exact = _bending_exact(FOLD["M"], s_fold=FOLD["fold_at"],
                              beta0=FOLD["beta0"])

    def field(pi, X):
        frame = meta[pi]
        s = frame["s_start"] + (X - frame["origin"]) @ frame["e_len"]
        return exact(s, X[..., 1]) - X

    l2 = l2_displacement_error(model.quads, x, field,
                               BEND["S"] * BEND["L"],
                               model.mesh.node_coords)

    H_target = FOLD["M"] / (2.0 * BEND["c"])
    H_dev = 0.0
    for pq in model.quads:
        state = pq.current(x)[0]
        H_dev = max(H_dev, float(np.abs(np.abs(state.H) - H_target).max()))

    moments = []
    _, offsets = model.multiplier_layout()
    for (con, how), off in zip(model.constraints, offsets):
        if isinstance(how, Penalty):
            mom = con.moment(x, how)
        else:
            qc = hist[-1].q[off:off + con.n_multipliers(how)]
            mom = con.moment(x, (how, qc))
        moments.append(float(np.mean(mom)))
    return dict(l2=l2, H_dev_rel=H_dev / H_target, moments=moments,
                history=hist, model=model, x=x)


def run_bending_folded(params=None):
    method = pair("method", {"penalty": number(gt=0.0),
                             "lm": tag("interpolation", ("n2q0", "n2q1c"))})
    p = check(obj({"levels": _levels([1, 2, 4]), "n_width": whole(2, ge=1),
                   "methods": listof(method, [
                       ["penalty", 1e2], ["penalty", 1e3], ["penalty", 1e4],
                       ["lm", "n2q0"], ["lm", "n2q1c"]], nonempty=True)}),
              params or {}, "params")
    rows = []
    for method in [tuple(m) for m in p["methods"]]:
        for n in p["levels"]:
            t0 = time.perf_counter()
            res = bending_folded_solve(n, p["n_width"], method)
            label = (f"penalty_{method[1]:g}" if method[0] == "penalty"
                     else f"lm_{method[1]}")
            rows.append(dict(case="pure_bending_folded", method=label,
                             elements=f"{8 * n}x{p['n_width']}",
                             l2_error=res["l2"],
                             H_rel_dev_max=res["H_dev_rel"],
                             mean_interface_moment=float(
                                 np.mean(np.abs(res["moments"][1:]))),
                             applied_moment=FOLD["M"],
                             wall_s=round(time.perf_counter() - t0, 3)))
    return rows, dict(rows=rows)


# ---------------------------------------------------------------------------
# nonlinear cantilever


CANT = dict(L=10.0, W=1.0, T=0.1, E=1.2e6, nu=0.0)


def build_cantilever(skew=0.0, degree=3, n=10):
    """End-loaded cantilever plate, clamped by the penalty method."""
    E = CANT["E"]
    mesh = Mesh([skew_patch(make_plate(CANT["L"], CANT["W"], degree, n, 1),
                            skew)])
    model = Model(mesh, KoiterMaterial.from_youngs(E, CANT["nu"], CANT["T"]))
    model.fix_edge(0, "u0")
    model.add_constraint(RotationConstraint.fixed(mesh, 0, "u0"),
                         Penalty(1000.0 * E))
    F_max = 4.0 * E * CANT["W"] * CANT["T"] ** 3 / 12.0 / CANT["L"] ** 2
    model.add_edge_traction(0, "u1", [0.0, 0.0, F_max / CANT["W"]])
    return model


def cantilever_curve(skew=0.0, degree=3, n=10, n_steps=8):
    """Tip displacement path: (load factor, axial shortening, deflection)."""
    model = build_cantilever(skew, degree, n)
    hist = solve(model, n_steps=n_steps)
    curve = []
    for h in hist:
        d = displacement_at(model.mesh, h.x, 0, CANT["L"], CANT["W"] / 2.0)
        curve.append(dict(lam=h.lam, shortening=float(-d[0]),
                          deflection=float(d[2]), iterations=h.iterations))
    return curve


def run_cantilever(params=None):
    p = check(obj({"skews": listof(SKEW, [0.0, 0.2], nonempty=True),
                   "degree": replace(DEGREE, default=3),
                   "n": whole(10, ge=1), "n_steps": whole(8, ge=1)}),
              params or {}, "params")
    rows = []
    for skew in p["skews"]:
        t0 = time.perf_counter()
        curve = cantilever_curve(skew, p["degree"], p["n"], p["n_steps"])
        wall = round(time.perf_counter() - t0, 3)
        for c in curve:
            rows.append(dict(case="cantilever_end_shear", skew=skew,
                             load_factor=c["lam"],
                             tip_shortening=c["shortening"],
                             tip_deflection=c["deflection"],
                             iterations=c["iterations"], wall_s=wall))
    return rows, dict(rows=rows)


# ---------------------------------------------------------------------------
# nonlinear literature checkpoints


def build_hemisphere_hole(degree=2, n=16):
    """Pinched hemisphere with an 18 degree polar hole, quarter model.

    The symmetry penalty is kept at the bending-compatible scale 0.2 E: the
    recovered displacements are penalty-insensitive over at least two decades
    around it (five matching digits), while at scales of order 1e3 E Newton
    stalls on a round-off floor near 3e-5 of the load, far above the
    tolerance, and the increments are numerically unsolvable.
    """
    model = build_hemisphere_linear(degree, n, "koiter", hole_deg=18.0)
    # replace the linear-case loads and penalty with the nonlinear recipe
    model.dead_forces.clear()
    model.constraints.clear()
    eps = 0.2 * HEMI["E"]
    model.add_constraint(RotationConstraint.fixed(
        model.mesh, 0, "u0", normal=[0.0, 1.0, 0.0]), Penalty(eps))
    model.add_constraint(RotationConstraint.fixed(
        model.mesh, 0, "u1", normal=[1.0, 0.0, 0.0]), Penalty(eps))
    half = 400.0 / 2.0
    model.add_point_force(0, 0.0, 90.0, [-half, 0.0, 0.0])
    model.add_point_force(0, 90.0, 90.0, [0.0, half, 0.0])
    return model


def hemisphere_hole_path(degree=2, n=16, n_steps=8):
    model = build_hemisphere_hole(degree, n)
    hist = solve(model, n_steps=n_steps)
    path = []
    for h in hist:
        dA = displacement_at(model.mesh, h.x, 0, 0.0, 90.0)
        dB = displacement_at(model.mesh, h.x, 0, 90.0, 90.0)
        path.append(dict(lam=h.lam, inward_A=float(-dA[0]),
                         outward_B=float(dB[1]), iterations=h.iterations))
    return path


NLCYL = dict(E=30e3, nu=0.3, R=100.0, L=200.0, T=1.0, F=12e3)


def build_cylinder_pinch_nl(degree=2, n=24, w_max=160.0):
    """Large-deformation pinched cylinder, multiplier symmetry conditions.

    The load path of this test folds back on itself under load control (the
    side wall snaps through around a quarter of the full load), so the pinch
    is driven by a prescribed deflection at the load point and the force is
    recovered from the reaction.  The load point sits at a patch corner,
    where the NURBS basis is interpolatory, so prescribing that control
    point is exact displacement control of the surface point.
    """
    E, nu, R, L, T = (NLCYL["E"], NLCYL["nu"], NLCYL["R"], NLCYL["L"],
                      NLCYL["T"])
    patch = make_cylinder_panel(R, L / 2.0, 0.0, 90.0, degree, n, n)
    mesh = Mesh([patch])
    model = Model(mesh, KoiterMaterial.from_youngs(E, nu, T))
    model.fix_edge(0, "u0", components=(1, 2))
    model.fix_edge(0, "u1", components=(0,))
    model.fix_edge(0, "v0", components=(2,))
    model.fix_edge(0, "v1", components=(1,))
    lm = Multiplier("n2q0")
    model.add_constraint(RotationConstraint.fixed(
        mesh, 0, "u1", normal=[1.0, 0.0, 0.0]), lm)
    model.add_constraint(RotationConstraint.fixed(
        mesh, 0, "v0", normal=[0.0, 0.0, 1.0]), lm)
    model.add_constraint(RotationConstraint.fixed(
        mesh, 0, "v1", normal=[0.0, 1.0, 0.0]), lm)
    corner = np.intersect1d(mesh.edge_node_ids(0, "u1"),
                            mesh.edge_node_ids(0, "v1"))
    model.fix_nodes(corner, components=(2,), value=-w_max)
    return model, int(corner[0])


def cylinder_pinch_path(degree=2, n=24, n_steps=16, w_max=160.0):
    model, corner = build_cylinder_pinch_nl(degree, n, w_max)
    hist = solve(model, n_steps=n_steps)
    path = []
    for h in hist:
        r, _, _ = model.assemble(h.x, h.q, h.lam, tangent=False)
        path.append(dict(lam=h.lam, deflection=w_max * h.lam,
                         force=4.0 * abs(float(r[3 * corner + 2])),
                         iterations=h.iterations))
    return path


FREECYL = dict(E=10.5e6, nu=0.3125, R=4.953, L=10.35, T=0.094, F=40e3)


def build_cylinder_free_nl(degree=2, n=20):
    """Open-ended cylinder spread apart by radial forces at midlength."""
    E, nu, R, L, T = (FREECYL["E"], FREECYL["nu"], FREECYL["R"],
                      FREECYL["L"], FREECYL["T"])
    patch = make_cylinder_panel(R, L / 2.0, 0.0, 90.0, degree, n, n)
    mesh = Mesh([patch])
    model = Model(mesh, KoiterMaterial.from_youngs(E, nu, T))
    model.fix_edge(0, "u0", components=(0,))      # midlength plane
    model.fix_edge(0, "v0", components=(2,))
    model.fix_edge(0, "v1", components=(1,))
    eps_circ = 20.0 * E / (np.pi * R)
    eps_ax = 20.0 * E / L
    model.add_constraint(RotationConstraint.fixed(
        mesh, 0, "u0", normal=[1.0, 0.0, 0.0]), Penalty(eps_circ))
    model.add_constraint(RotationConstraint.fixed(
        mesh, 0, "v0", normal=[0.0, 0.0, 1.0]), Penalty(eps_ax))
    model.add_constraint(RotationConstraint.fixed(
        mesh, 0, "v1", normal=[0.0, 1.0, 0.0]), Penalty(eps_ax))
    model.add_point_force(0, 0.0, 90.0, [0.0, 0.0, FREECYL["F"] / 4.0])
    return model


def cylinder_free_path(degree=2, n=20, n_steps=16):
    model = build_cylinder_free_nl(degree, n)
    hist = solve(model, n_steps=n_steps)
    path = []
    for h in hist:
        d = displacement_at(model.mesh, h.x, 0, 0.0, 90.0)
        path.append(dict(lam=h.lam, spread=float(d[2]),
                         iterations=h.iterations))
    return path


def run_nonlinear_checkpoints(params=None):
    def path(n_steps, **more):
        return obj({"degree": replace(DEGREE, default=2),
                    "n": whole(16, ge=1), "n_steps": whole(n_steps, ge=1),
                    **more}, {})

    p = check(obj({"hole": path(16),
                   "pinch": path(18, w_max=number(90.0, gt=0.0)),
                   "free": path(16)}), params or {}, "params")
    rows = []
    t0 = time.perf_counter()
    hole = hemisphere_hole_path(**p["hole"])
    for c in hole:
        rows.append(dict(case="hemisphere_hole_nonlinear",
                         load=400.0 * c["lam"], inward_A=c["inward_A"],
                         outward_B=c["outward_B"],
                         iterations=c["iterations"]))
    pinch = cylinder_pinch_path(**p["pinch"])
    for c in pinch:
        rows.append(dict(case="pinched_cylinder_nonlinear",
                         load=c["force"], deflection=c["deflection"],
                         iterations=c["iterations"]))
    free = cylinder_free_path(**p["free"])
    for c in free:
        rows.append(dict(case="cylinder_free_ends_nonlinear",
                         load=FREECYL["F"] * c["lam"], spread=c["spread"],
                         iterations=c["iterations"]))
    summary = dict(hole_A=hole[-1]["inward_A"], hole_B=hole[-1]["outward_B"],
                   pinch=pinch[-1]["deflection"], free=free[-1]["spread"],
                   wall_s=round(time.perf_counter() - t0, 3))
    return rows, summary


# ---------------------------------------------------------------------------
# registry


CASES = {
    "pinched_hemisphere_linear": run_hemisphere_linear,
    "plate_sinusoidal": run_plate_sinusoidal,
    "pinched_cylinder_linear": run_cylinder_linear,
    "pure_bending_flat": run_bending_flat,
    "pure_bending_folded": run_bending_folded,
    "cantilever_end_shear": run_cantilever,
    "nonlinear_checkpoints": run_nonlinear_checkpoints,
}


BENCH_CONFIG = obj({"case": tag("benchmark case", tuple(CASES)),
                    "params": obj(None, {})})


def run_case(case_id: str, params=None):
    if case_id not in CASES:
        raise KeyError(f"unknown benchmark case '{case_id}'")
    return CASES[case_id](params)
