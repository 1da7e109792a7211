"""The four benchmark workloads: build, solve and check.

``build`` and ``solve`` call only the package's public entry points (the
``igashell.benchmarks`` builders, ``solver.linear_solve`` and
``solver.solve``); they are what the benchmark times.  ``solve`` passes its
callback, if any, to ``solver.solve``, which calls it after every accepted
load step.  ``outputs`` reduces a solution to the arrays that must repeat
exactly from round to round, and ``check`` recovers the checked quantities
from a solution outside the timed region.  No input is random.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from igashell import benchmarks as B
from igashell import solver as S
from igashell.constraints import Penalty
from igashell.elements import internal_forces, total_energy
from igashell.reference import PureBending, l2_displacement_error


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], object]
    solve: Callable[[object, object], object]
    outputs: Callable[[object], list]
    check: Callable[[object, object], list]


# ---------------------------------------------------------------------------
# diaphragm-supported pinched cylinder, quartic 16x16, linear

def _cylinder_check(model, result):
    x, _ = result
    mesh = model.mesh
    L = B.CYL["L"]
    w = -float(S.displacement_at(mesh, x, 0, L / 2.0, 90.0)[2])
    f = np.zeros(mesh.n_dofs)
    for pq in model.quads:
        fe, _ = internal_forces(pq, model.material, x, tangent=False)
        np.add.at(f, pq.edof.ravel(), fe.ravel())
    return [checks.deflection(w),
            checks.translation(f.reshape(-1, 3), B.CYL["F"] / 4.0)]


CYLINDER_LINEAR = Workload(
    "cylinder_linear",
    build=lambda: B.build_cylinder_linear(4, 16),
    solve=lambda model, callback: S.linear_solve(model),
    outputs=lambda result: [result[0]],
    check=_cylinder_check)


# ---------------------------------------------------------------------------
# hemisphere with an 18 degree hole, quadratic 8x8, 16 load steps

def _hemisphere_check(model, history):
    mesh = model.mesh
    free = ~model._presc_mask
    res, ref = [], []
    for h in history:
        r, _, f_ext = model.assemble(h.x, h.q, h.lam, tangent=False)
        res.append(np.linalg.norm(r[free]))
        ref.append(np.linalg.norm(f_ext[free]))
    x1 = history[-1].x
    energy = sum(total_energy(pq, model.material, x1) for pq in model.quads)
    energy += sum(con.penalty_energy(x1, how)
                  for con, how in model.constraints)
    f_dead = np.zeros(mesh.n_dofs)              # the point loads at lam = 1
    for dofs, vals in model.dead_forces:
        np.add.at(f_dead, dofs.ravel(), vals.ravel())
    lam = [0.0] + [h.lam for h in history]
    f_dot_u = [0.0] + [float(f_dead @ (h.x - mesh.node_coords).ravel())
                       for h in history]
    return [checks.equilibrium(res, ref),
            checks.energy_balance(energy, lam, f_dot_u)]


HEMISPHERE_NONLINEAR = Workload(
    "hemisphere_nonlinear",
    build=lambda: B.build_hemisphere_hole(2, 8),
    solve=lambda model, callback: S.solve(model, n_steps=16,
                                          callback=callback),
    outputs=lambda history: [h.x for h in history],
    check=_hemisphere_check)


# ---------------------------------------------------------------------------
# eight-patch strip with a 30 degree fold under an end moment, 10 load steps

def _folded_check(built, history):
    model, meta = built
    x = history[-1].x
    M, c = B.FOLD["M"], B.BEND["c"]
    pb = PureBending(mu=B.BEND["mu"], lam=B.BEND["lam"], c=c, M=M)

    def field(pi, X):
        frame = meta[pi]
        s = frame["s_start"] + (X - frame["origin"]) @ frame["e_len"]
        return pb.deformed_point(s, X[..., 1], s_fold=B.FOLD["fold_at"],
                                 beta0=B.FOLD["beta0"]) - X

    l2 = l2_displacement_error(model.quads, x, field,
                               B.BEND["S"] * B.BEND["L"],
                               model.mesh.node_coords)
    H_target = M / (2.0 * c)
    H_dev = max(float(np.abs(np.abs(pq.current(x)[0].H) - H_target).max())
                for pq in model.quads)

    _, offsets = model.multiplier_layout()
    moments, lm_cons = [], []
    for (con, how), off in zip(model.constraints, offsets):
        if isinstance(how, Penalty):
            mom = con.moment(x, how)
        else:
            lm_cons.append(con)
            qc = history[-1].q[off:off + con.n_multipliers(how)]
            mom = con.moment(x, (how, qc))
        moments.append(float(np.mean(mom)))
    out = [checks.l2_error(l2), checks.moments(moments, M),
           checks.curvature(H_dev / H_target)]
    if lm_cons:
        worst = max(con.max_angle_deviation(h.x)
                    for h in history for con in lm_cons)
        out.append(checks.angle_deviation(worst))
    return out


def _folded(name, method):
    return Workload(
        name,
        build=lambda: B.build_bending_folded(2, 2, method),
        solve=lambda built, callback: S.solve(built[0], n_steps=10,
                                              callback=callback),
        outputs=lambda history: [h.x for h in history],
        check=_folded_check)


FOLDED_STRIP_LM = _folded("folded_strip_lm", ("lm", "n2q0"))
FOLDED_STRIP_PENALTY = _folded("folded_strip_penalty", ("penalty", 1e4))

WORKLOADS = {w.name: w for w in (CYLINDER_LINEAR, HEMISPHERE_NONLINEAR,
                                 FOLDED_STRIP_LM, FOLDED_STRIP_PENALTY)}
