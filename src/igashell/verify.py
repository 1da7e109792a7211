"""Finite-difference consistency checks exposed as a runtime feature.

Every analytic derivative in the package (constitutive stress from the
energy, the four tangent moduli blocks, and the assembled global tangent)
is checked against central differences on randomized admissible states.
The same routines back the command line's verify-tangents subcommand.
"""

import numpy as np

from .constraints import Penalty, RotationConstraint
from .geometry import Mesh, make_sphere_panel
from .kinematics import metric_state
from .materials import (CanhamMaterial, KoiterMaterial, MixedMaterial,
                        ProjectedNeoHooke)
from .solver import Model

_SYM_UNITS = (
    np.array([[1.0, 0.0], [0.0, 0.0]]),
    np.array([[0.0, 0.0], [0.0, 1.0]]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
)
# energy-derivative prefactors: tau = 2 dW/da, M0 = dW/db, with the
# off-diagonal unit perturbing both symmetric entries at once
_TAU_FAC = (2.0, 2.0, 1.0)
_M_FAC = (1.0, 1.0, 0.5)


def material_models(E=1.0e4, nu=0.3, thickness=0.02):
    """Default-parameter instances of every constitutive model."""
    lam2, mu2 = E * nu / (1.0 - nu ** 2), E / (2.0 * (1.0 + nu))
    return {
        "koiter": KoiterMaterial.from_youngs(E, nu, thickness),
        "canham": CanhamMaterial(lam2 * thickness, mu2 * thickness,
                                 E * thickness ** 3 / 12.0),
        "mixed": MixedMaterial.from_youngs(E, nu, thickness),
        "projected": ProjectedNeoHooke.from_youngs(E, nu, thickness),
        "projected_incompressible": ProjectedNeoHooke.from_youngs(
            E, nu, thickness, incompressible=True),
    }


def _random_states(rng, strain=0.2, curv=0.6):
    L = np.eye(2) + 0.3 * rng.uniform(-1.0, 1.0, (2, 2))
    A = L @ L.T
    S = rng.uniform(-1.0, 1.0, (2, 2))
    B = curv * 0.5 * (S + S.T)
    M = L @ (np.eye(2) + strain * rng.uniform(-1.0, 1.0, (2, 2)))
    S = rng.uniform(-1.0, 1.0, (2, 2))
    return metric_state(A, B), metric_state(M @ M.T,
                                            B + curv * 0.5 * (S + S.T))


def verify_material(material, n_states=20, seed=0, h=1e-6):
    """Max relative FD error of stress (vs energy) and moduli (vs stress).

    Errors are normalized by the largest stress/modulus magnitude of the
    state so that near-zero components do not dominate.
    """
    rng = np.random.default_rng(seed)
    zero = np.zeros((2, 2))
    err_s, err_m = 0.0, 0.0
    for _ in range(n_states):
        ref, cur = _random_states(rng)
        sv = material.stress_voigt(ref, cur)
        fd = np.zeros(6)
        for k, Ek in enumerate(_SYM_UNITS):
            gp = material.energy_perturbed(ref, cur, h * Ek, zero)
            gm = material.energy_perturbed(ref, cur, -h * Ek, zero)
            fd[k] = _TAU_FAC[k] * (gp - gm) / (2.0 * h)
            gp = material.energy_perturbed(ref, cur, zero, h * Ek)
            gm = material.energy_perturbed(ref, cur, zero, -h * Ek)
            fd[3 + k] = _M_FAC[k] * (gp - gm) / (2.0 * h)
        err_s = max(err_s, np.abs(fd - sv).max() / max(np.abs(sv).max(), 1.0))

        C, D, E4, F = material.moduli_voigt(ref, cur)
        scale = max(max(np.abs(M).max() for M in (C, D, E4, F)), 1.0)

        def stress_at(a_cov, b_cov):
            return material.stress_voigt(ref, metric_state(a_cov, b_cov))

        for k, Ek in enumerate(_SYM_UNITS):
            sp = stress_at(cur.a_cov + h * Ek, cur.b_cov)
            sm = stress_at(cur.a_cov - h * Ek, cur.b_cov)
            col = _TAU_FAC[k] * (sp - sm) / (2.0 * h)
            err_m = max(err_m, np.abs(col[:3] - C[:, k]).max() / scale,
                        np.abs(col[3:] - E4[:, k]).max() / scale)
            sp = stress_at(cur.a_cov, cur.b_cov + h * Ek)
            sm = stress_at(cur.a_cov, cur.b_cov - h * Ek)
            col = _M_FAC[k] * (sp - sm) / (2.0 * h)
            err_m = max(err_m, np.abs(col[:3] - D[:, k]).max() / scale,
                        np.abs(col[3:] - F[:, k]).max() / scale)
    return {"stress": err_s, "moduli": err_m}


def tangent_error(model, x, q, h=1e-6):
    """Max relative error of the model's assembled tangent at (x, q) and
    load factor 1 against the dense central-difference Jacobian of its
    residual in the displacements and the multipliers."""
    nd = model.mesh.n_dofs
    _, K, _ = model.assemble(x, q, 1.0)
    K = K.toarray()
    J = np.zeros_like(K)
    for i in range(len(K)):
        dz = np.zeros(len(K))
        dz[i] = h
        rp, _, _ = model.assemble(x + dz[:nd].reshape(-1, 3), q + dz[nd:],
                                  1.0, tangent=False)
        rm, _, _ = model.assemble(x - dz[:nd].reshape(-1, 3), q - dz[nd:],
                                  1.0, tangent=False)
        J[:, i] = (rp - rm) / (2.0 * h)
    return np.abs(J - K).max() / np.abs(J).max()


def verify_global_tangent(material=None, seed=0, h=1e-6):
    """Max relative error of the assembled tangent on a small curved model.

    A 2x2-element quadratic spherical cap with a rotation penalty and a
    pressure load is perturbed off the reference state, and its tangent
    checked by ``tangent_error``.
    """
    if material is None:
        material = KoiterMaterial.from_youngs(1.0e4, 0.3, 0.02)
    patch = make_sphere_panel(1.0, 10.0, 80.0, 30.0, 80.0, 2, 2, 2)
    mesh = Mesh([patch])
    model = Model(mesh, material)
    model.add_constraint(RotationConstraint.fixed(mesh, 0, "u0"),
                         Penalty(50.0))
    model.add_pressure(0, 0.3)
    rng = np.random.default_rng(seed)
    x = mesh.node_coords + 0.02 * rng.standard_normal(
        mesh.node_coords.shape)
    return tangent_error(model, x, np.zeros(0), h)


def run_verification(models="all", n_states=20, seed=0):
    """Per-model FD error report plus the global-tangent check."""
    available = material_models()
    if models == "all":
        selected = available
    else:
        names = [models] if isinstance(models, str) else list(models)
        unknown = [m for m in names if m not in available]
        if unknown:
            raise KeyError(f"unknown material model(s): {', '.join(unknown)}")
        selected = {m: available[m] for m in names}
    report = {name: verify_material(mat, n_states=n_states, seed=seed)
              for name, mat in selected.items()}
    report["global_tangent"] = verify_global_tangent(seed=seed)
    return report
