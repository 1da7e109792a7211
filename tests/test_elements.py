"""Assembly-level gates: rigid-body invariance, residual vs energy gradient,
and consistent tangents vs finite differences of the residual."""

from types import SimpleNamespace

import numpy as np
import pytest

from igashell.elements import (
    _EPS2,
    EdgeQuadrature,
    PatchQuadrature,
    _at_points,
    _b_operators,
    _metric_kron,
    _normal_kron,
    _point_sum,
    _surface_sum,
    dead_load,
    follower_edge_moment,
    follower_pressure,
    gauss_01,
    internal_forces,
    point_load,
    total_energy,
)
from igashell.geometry import (Mesh, make_cylinder_panel, make_folded_strip,
                               make_plate, make_sphere_panel)
from igashell.kinematics import (ddot22, dot3, from_voigt, raise2,
                                 surface_vectors_state, to_voigt)
from igashell.materials import (CanhamMaterial, KoiterMaterial,
                                ProjectedNeoHooke, _ddot_voigt)
from oracles import (ddot4, fd_gradient, fd_jacobian, outer4, sym4,
                     tens4_to_voigt)


def cap_mesh():
    patch = make_sphere_panel(1.0, 0.0, 90.0, 25.0, 80.0, 3, 2, 2)
    return Mesh([patch])


def strip_mesh():
    mesh, _ = make_folded_strip(1.0, 1.0, 0.6, 25.0, 2, 2, 2)
    return mesh


def tables(mesh, extra_gauss=False):
    """Default (p+1) x (q+1) tables, or (p+2) x (q+1) so that ngp != nloc."""
    return [PatchQuadrature(p, mesh.patch_node_ids[k], mesh.node_coords,
                            n_gauss=(p.degree_u + 2, p.degree_v + 1)
                            if extra_gauss else None)
            for k, p in enumerate(mesh.patches)]


def assemble_f(pqs, material, x, n_dofs):
    f = np.zeros(n_dofs)
    for pq in pqs:
        fe, _ = internal_forces(pq, material, x, tangent=False)
        np.add.at(f, pq.edof, fe)
    return f


def assemble_K(pqs, material, x, n_dofs):
    K = np.zeros((n_dofs, n_dofs))
    f = np.zeros(n_dofs)
    for pq in pqs:
        fe, Ke = internal_forces(pq, material, x)
        for e in range(pq.nel):
            d = pq.edof[e]
            f[d] += fe[e]
            K[np.ix_(d, d)] += Ke[e]
    return f, K


def perturbed(mesh, scale, seed=0):
    rng = np.random.default_rng(seed)
    return mesh.node_coords + scale * rng.uniform(-1, 1, (mesh.n_nodes, 3))


KOITER = KoiterMaterial(2.0, 1.0, 0.05)
PROJ = ProjectedNeoHooke(1.2, 0.8, 0.05)
CANHAM = CanhamMaterial(1.5, 1.0, 0.02)


def test_rigid_motion_gives_zero_residual():
    mesh = cap_mesh()
    pqs = tables(mesh)
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    x = mesh.node_coords @ rot.T + np.array([0.2, -0.1, 0.5])
    for mat in (KOITER, PROJ):
        r = assemble_f(pqs, mat, x, mesh.n_dofs)
        assert np.abs(r).max() < 1e-10, (
            f"rigid motion produced residual {np.abs(r).max():.3e}")


@pytest.mark.parametrize("mat", [KOITER, CANHAM], ids=["koiter", "canham"])
def test_residual_is_energy_gradient(mat):
    mesh = cap_mesh()
    pqs = tables(mesh)
    x0 = perturbed(mesh, 0.02, seed=3)

    def E(xf):
        return sum(total_energy(pq, mat, xf.reshape(-1, 3)) for pq in pqs)

    r = assemble_f(pqs, mat, x0, mesh.n_dofs)
    g = fd_gradient(E, x0.ravel(), h=1e-6)
    scale = np.abs(g).max()
    err = np.abs(r - g).max() / scale
    assert err < 1e-6, f"residual vs energy gradient rel err {err:.3e}"


@pytest.mark.parametrize("mesh_fn", [cap_mesh, strip_mesh], ids=["cap", "strip"])
@pytest.mark.parametrize("mat", [KOITER, PROJ], ids=["koiter", "projected"])
def test_tangent_matches_residual_jacobian(mesh_fn, mat):
    mesh = mesh_fn()
    check_tangent(mesh, tables(mesh), mat)


@pytest.mark.parametrize("mesh_fn", [cap_mesh, strip_mesh], ids=["cap", "strip"])
@pytest.mark.parametrize("mat", [KOITER, PROJ], ids=["koiter", "projected"])
def test_tangent_matches_residual_jacobian_extra_gauss(mesh_fn, mat):
    mesh = mesh_fn()
    pqs = tables(mesh, extra_gauss=True)
    assert all(pq.ngp != pq.nloc for pq in pqs)
    check_tangent(mesh, pqs, mat)


def check_tangent(mesh, pqs, mat):
    x0 = perturbed(mesh, 0.02, seed=5)
    f0, K = assemble_K(pqs, mat, x0, mesh.n_dofs)

    def resid(xf):
        return assemble_f(pqs, mat, xf.reshape(-1, 3), mesh.n_dofs)

    J = fd_jacobian(resid, x0.ravel(), h=1e-6)
    scale = np.abs(J).max()
    err = np.abs(K - J).max() / scale
    assert err < 1e-5, f"tangent vs FD residual rel err {err:.3e}"


def test_kernel_contractions_match_einsum():
    # the einsum strings define the matmul factorisations; ngp != nloc
    rng = np.random.default_rng(2)
    e, g, n = 3, 5, 4
    dNl, dNr = rng.standard_normal((2, e, g, n, 2))
    W = rng.standard_normal((e, g, 2, 2))
    x, y = rng.standard_normal((2, e, g, 3))
    X = rng.standard_normal((e, g, n, 3))
    v = rng.standard_normal((e, g, n))
    for K, ref in (
            (_metric_kron(dNl, W, x, dNr, y),
             np.einsum("egna,egab,egmb,egi,egj->enimj", dNl, W, dNr, x, y)),
            (_normal_kron(x, X, v),
             np.einsum("egi,egnj,egm->enimj", x, X, v))):
        err = np.abs(K - ref.reshape(K.shape)).max() / np.abs(ref).max()
        assert err < 1e-14, f"contraction differs from einsum: {err:.2e}"
    # B: membrane rows sym(0, 0), sym(1, 1), 2 sym(0, 1), sym(a, b) =
    # dN_a a_b + dN_b a_a; bending rows (1, 1, 2) Nt_r n
    pq = SimpleNamespace(nel=e, ngp=g, nloc=n, dN=dNl,
                         d2N=rng.standard_normal((e, g, n, 3)))
    a_vec, gamma = rng.standard_normal((2, e, g, 2, 3))
    B, Nt = _b_operators(pq, x, a_vec, gamma)
    Nt_ref = pq.d2N - np.einsum("egnc,egcr->egnr", pq.dN, gamma)

    def sym(a, b):
        return (np.einsum("egn,egi->egni", pq.dN[..., a], a_vec[:, :, b])
                + np.einsum("egn,egi->egni", pq.dN[..., b], a_vec[:, :, a]))

    ref = np.stack([sym(0, 0), sym(1, 1), 2.0 * sym(0, 1)]
                   + [c * np.einsum("egn,egi->egni", Nt_ref[..., r], x)
                      for r, c in enumerate((1.0, 1.0, 2.0))], axis=2)
    for got, want in ((Nt, Nt_ref), (B, ref.reshape(B.shape))):
        err = np.abs(got - want).max() / np.abs(want).max()
        assert err < 1e-14, f"B operator differs from einsum: {err:.2e}"


def assert_contractions(pairs):
    """Each (name, new form, einsum definition) agrees to 1e-14 relative."""
    for name, new, ref in pairs:
        assert new.shape == ref.shape, name
        err = np.abs(new - ref).max() / np.abs(ref).max()
        assert err <= 1e-14, f"{name} differs from its einsum by {err:.2e}"


def contraction_tables():
    """A patch table and an edge table of the curved strip with p + 2 Gauss
    points, so ngp != nloc, at a perturbed state."""
    mesh = strip_mesh()
    patch, ids = mesh.patches[1], mesh.patch_node_ids[1]
    ng = patch.degree_u + 2
    pq = PatchQuadrature(patch, ids, mesh.node_coords,
                         n_gauss=(ng, patch.degree_v + 2))
    eq = EdgeQuadrature(patch, ids, mesh.node_coords, "u1", n_gauss=ng)
    assert pq.ngp != pq.nloc and eq.ngp != eq.nloc
    return pq, eq, perturbed(mesh, 0.02, seed=9)


@pytest.mark.parametrize("which", ["patch", "edge"])
def test_point_contractions_match_einsum(which):
    """The matmul and componentwise forms of the kinematics, element,
    material and constraint kernels equal their einsum definitions."""
    pq, eq, x = contraction_tables()
    q = pq if which == "patch" else eq
    xe = x[q.conn]
    a_vec, h_vec = _at_points(q.dN, xe), _at_points(q.d2N, xe)
    if which == "patch":
        state, normal, _, a_up, _, _ = pq.current(x)
    else:
        state, normal = surface_vectors_state(a_vec, h_vec)
        a_up = np.matmul(state.a_con, a_vec)
    # the shared first-order evaluation forms those of PatchQuadrature.current
    # without the curvature, bit for bit
    for got, want in zip(q.first_order(x), (state.a_con, state.jac, normal,
                                            a_vec, a_up)):
        assert np.array_equal(got, want)
    A, b = state.a_con, state.b_cov
    cr = np.cross(a_vec[..., 0, :], a_vec[..., 1, :])
    rng = np.random.default_rng(4)
    g4 = rng.standard_normal(A.shape + (2, 2))
    Da = rng.standard_normal(A.shape + (2, 2))
    w = q.wq * state.jac
    # symmetric in the contracted pair (e, h), as the Voigt sums require
    Ds = 0.5 * (Da + Da.swapaxes(-4, -3))
    gs = 0.5 * (g4 + g4.swapaxes(-2, -1))
    pairs = [
        ("a_vec", a_vec, np.einsum("egna,eni->egai", q.dN, xe)),
        ("h_vec", h_vec, np.einsum("egnr,eni->egri", q.d2N, xe)),
        ("a_cov", state.a_cov, np.einsum("...ai,...bi->...ab", a_vec, a_vec)),
        ("normal", normal, cr / np.linalg.norm(cr, axis=-1)[..., None]),
        ("b_cov", b, from_voigt(np.einsum("...ki,...i->...k", h_vec,
                                          normal))),
        ("a_up", a_up, np.einsum("egab,egbi->egai", A, a_vec)),
        ("raise2", raise2(A, b), np.einsum("...ac,...cd,...db->...ab",
                                           A, b, A)),
        ("ddot22", ddot22(A, b), np.einsum("...ab,...ab->...", A, b)),
        ("dot3", dot3(a_vec[..., 0, :], a_vec[..., 1, :]),
         np.einsum("egi,egi->eg", a_vec[..., 0, :], a_vec[..., 1, :])),
        ("outer4", outer4(A, b), np.einsum("...ab,...cd->...abcd", A, b)),
        ("sym4", sym4(A, b), 0.5 * (np.einsum("...ac,...bd->...abcd", A, b)
                                    + np.einsum("...ad,...bc->...abcd", A, b))),
        ("ddot4 (2, 2)", ddot4(A, Da),
         np.einsum("...eh,...ehcd->...cd", A, Da)),
        ("ddot4 (2, 2, 2, 2)", ddot4(g4, Da),
         np.einsum("...abeh,...ehcd->...abcd", g4, Da)),
        ("voigt ddot (2, 2)",
         _ddot_voigt(to_voigt(A)[..., None, :], tens4_to_voigt(Ds)),
         to_voigt(np.einsum("...eh,...ehcd->...cd", A, Ds))[..., None, :]),
        ("voigt ddot (2, 2, 2, 2)",
         _ddot_voigt(tens4_to_voigt(gs), tens4_to_voigt(Ds)),
         tens4_to_voigt(np.einsum("...abeh,...ehcd->...abcd", gs, Ds))),
        ("surface sum", _surface_sum(q.dN, A[..., 0]),
         np.einsum("egna,ega->egn", q.dN, A[..., 0])),
        ("point sum", _point_sum(q.N, normal, w),
         np.einsum("eg,egn,egi->eni", w, q.N, normal)),
    ]
    E, K = 0.5 * (state.a_cov - q.ref_state.a_cov), b - q.ref_state.b_cov
    tau, M0 = KOITER.stress(q.ref_state, state)
    Ar = q.ref_state.a_con
    pairs += [
        ("koiter tau", tau, KOITER.lam * np.einsum("...ab,...ab->...", Ar, E)[
            ..., None, None] * Ar + 2.0 * KOITER.mu * np.einsum(
            "...ac,...cd,...db->...ab", Ar, E, Ar)),
        ("koiter M0", M0, KOITER.thickness ** 2 / 12.0 * (
            KOITER.lam * np.einsum("...ab,...ab->...", Ar, K)[..., None, None]
            * Ar + 2.0 * KOITER.mu * np.einsum("...ac,...cd,...db->...ab",
                                                Ar, K, Ar))),
    ]
    if which == "patch":
        _, _, _, _, _, gamma = pq.current(x)
        B, Nt = _b_operators(pq, normal, a_vec, gamma)
        sv = KOITER.stress_voigt(pq.ref_state, state)
        half = np.array([0.5, 0.5, 0.5, 1.0, 1.0, 1.0])
        wA = pq.wq * pq.jac0
        pairs += [
            ("gamma", gamma, np.einsum("egci,egri->egcr", a_up, h_vec)),
            ("Nt", Nt, pq.d2N - np.einsum("egcr,egnc->egnr", gamma, pq.dN)),
            ("f_int", internal_forces(pq, KOITER, x, tangent=False)[0],
             np.einsum("egkd,egk->ed", B, sv * half * wA[..., None])),
            ("f_pressure", follower_pressure(pq, x)[0],
             np.einsum("egn,egi->eni", pq.N, normal * w[..., None]
                       ).reshape(pq.nel, -1)),
        ]
    else:
        P = np.einsum("egcd,d->egc", A, _EPS2[:, eq.xi_dir])
        qn = np.einsum("egnc,egc->egn", eq.dN, P)
        pairs.append(("f_moment",
                      follower_edge_moment(eq, x)[0],
                      -np.einsum("egn,egi->eni", qn * w[..., None],
                                 normal).reshape(eq.nel, -1)))
    assert_contractions(pairs)


def point_tables(patch, n_gauss, side=None):
    """(ids, N, dN, d2N, wq) stacked (nel, ngp, ...) from one basis2d call
    per Gauss point, at the points and weights of the quadrature classes."""
    bu, bv = patch.basis_u, patch.basis_v

    def spans(basis):
        return zip(basis.breaks[:-1], basis.breaks[1:])

    if side is None:
        (tu, wu), (tv, wv) = (gauss_01(n) for n in n_gauss)
        pts = [[(u0 + a * (u1 - u0), v0 + b * (v1 - v0),
                 wa * wb * (u1 - u0) * (v1 - v0))
                for b, wb in zip(tv, wv) for a, wa in zip(tu, wu)]
               for v0, v1 in spans(bv) for u0, u1 in spans(bu)]
    else:
        along_u = side in ("v0", "v1")
        knots = patch.knots_v if along_u else patch.knots_u
        fix = knots[0] if side.endswith("0") else knots[-1]
        run = [[(s0 + t * (s1 - s0), w * (s1 - s0))
                for t, w in zip(*gauss_01(n_gauss))]
               for s0, s1 in spans(bu if along_u else bv)]
        pts = [[(s, fix, w) if along_u else (fix, s, w) for s, w in row]
               for row in run]
    vals = [[(*patch.basis2d(u, v), w) for u, v, w in row] for row in pts]
    return [np.array([[pt[k] for pt in row] for row in vals]) for k in range(5)]


@pytest.mark.parametrize("extra", [0, 1], ids=["p+1", "p+2"])
@pytest.mark.parametrize("patch", [
    make_plate(1.0, 0.7, 2, 3, 2),
    make_sphere_panel(10.0, 0.0, 90.0, 18.0, 90.0, 2, 4, 3),
    make_cylinder_panel(3.0, 3.0, 0.0, 90.0, 4, 3, 2),
], ids=["plate", "cap", "cylinder"])
def test_tables_match_point_evaluation(patch, extra):
    """Batched tables equal per-point basis2d bit for bit, on all patches,
    and the weights equal w_u w_v h_u h_v formed point by point."""
    ids = np.arange(patch.points.shape[0])
    pu, pv = patch.degree_u, patch.degree_v
    n_gauss = (pu + 1 + extra, pv + 1)
    pq = PatchQuadrature(patch, ids, patch.points, n_gauss=n_gauss)
    assert (pq.ngp != pq.nloc) == bool(extra)
    quads = [(pq, point_tables(patch, n_gauss))]
    for side in ("u0", "u1", "v0", "v1"):
        ng = (pu if side in ("v0", "v1") else pv) + 1 + extra
        quads.append((EdgeQuadrature(patch, ids, patch.points, side,
                                     n_gauss=ng),
                      point_tables(patch, ng, side)))
    for q, (idx, N, dN, d2N, wq) in quads:
        assert np.array_equal(idx, np.broadcast_to(q.local_ids[:, None],
                                                   idx.shape))
        assert np.array_equal(q.N, N)
        assert np.array_equal(q.dN, dN)
        assert np.array_equal(q.d2N, d2N)
        assert np.array_equal(q.wq, wq)


def test_dead_area_load_resultant():
    mesh = Mesh([make_plate(2.0, 0.5, 3, 3, 2)])
    pq = PatchQuadrature(mesh.patches[0], mesh.patch_node_ids[0],
                         mesh.node_coords)
    t = np.array([0.0, 0.0, -3.0])
    fe = dead_load(pq, t)
    total = np.zeros(mesh.n_dofs)
    np.add.at(total, pq.edof, fe)
    assert np.allclose(total.reshape(-1, 3).sum(axis=0), t * 1.0, atol=1e-12)


def test_follower_pressure_resultant_and_tangent():
    mesh = cap_mesh()
    pq = PatchQuadrature(mesh.patches[0], mesh.patch_node_ids[0],
                         mesh.node_coords)
    x0 = perturbed(mesh, 0.01, seed=8)
    p = 2.5
    _, finish = follower_pressure(pq, x0)
    Ke = p * finish()

    def fvec(xf):
        f = np.zeros(mesh.n_dofs)
        fl, _ = follower_pressure(pq, xf.reshape(-1, 3))
        np.add.at(f, pq.edof, p * fl)
        return f

    K = np.zeros((mesh.n_dofs, mesh.n_dofs))
    for e in range(pq.nel):
        d = pq.edof[e]
        K[np.ix_(d, d)] += Ke[e]
    J = fd_jacobian(fvec, x0.ravel(), h=1e-6)
    err = np.abs(K - J).max() / np.abs(J).max()
    assert err < 1e-6, f"pressure tangent rel err {err:.3e}"


def test_follower_pressure_closed_direction():
    # a flat plate under pressure must push along +z with resultant p * area
    mesh = Mesh([make_plate(1.0, 1.0, 2, 2, 2)])
    pq = PatchQuadrature(mesh.patches[0], mesh.patch_node_ids[0],
                         mesh.node_coords)
    fe, _ = follower_pressure(pq, mesh.node_coords)
    total = np.zeros(mesh.n_dofs)
    np.add.at(total, pq.edof, fe)
    res = total.reshape(-1, 3).sum(axis=0)
    assert np.allclose(res, [0.0, 0.0, 1.0], atol=1e-12), res


def test_dead_edge_traction_resultant():
    mesh = Mesh([make_plate(2.0, 1.5, 2, 3, 3)])
    eq = EdgeQuadrature(mesh.patches[0], mesh.patch_node_ids[0],
                        mesh.node_coords, "u1")
    t = np.array([1.0, 0.5, -2.0])
    fe = dead_load(eq, t)
    total = np.zeros(mesh.n_dofs)
    np.add.at(total, eq.edof, fe)
    assert np.allclose(total.reshape(-1, 3).sum(axis=0), t * 1.5, atol=1e-12)


def test_follower_moment_tangent():
    mesh = Mesh([make_plate(1.0, 1.0, 3, 2, 2)])
    eq = EdgeQuadrature(mesh.patches[0], mesh.patch_node_ids[0],
                        mesh.node_coords, "u1")
    x0 = perturbed(mesh, 0.05, seed=11)
    m = 0.7
    _, finish = follower_edge_moment(eq, x0)
    Ke = m * finish()

    def fvec(xf):
        f = np.zeros(mesh.n_dofs)
        fl, _ = follower_edge_moment(eq, xf.reshape(-1, 3))
        np.add.at(f, eq.edof, m * fl)
        return f

    K = np.zeros((mesh.n_dofs, mesh.n_dofs))
    for e in range(eq.nel):
        d = eq.edof[e]
        K[np.ix_(d, d)] += Ke[e]
    J = fd_jacobian(fvec, x0.ravel(), h=1e-6)
    err = np.abs(K - J).max() / np.abs(J).max()
    assert err < 1e-6, f"edge moment tangent rel err {err:.3e}"


def test_follower_moment_is_torque_about_edge():
    # flat plate, moment on the u1 edge: the force pattern must be normal to
    # the plate and self-equilibrated in force, with torque m * edge length
    # about the edge line
    mesh = Mesh([make_plate(1.0, 1.0, 2, 2, 2)])
    eq = EdgeQuadrature(mesh.patches[0], mesh.patch_node_ids[0],
                        mesh.node_coords, "u1")
    m = 1.3
    fe, _ = follower_edge_moment(eq, mesh.node_coords)
    f = np.zeros(mesh.n_dofs)
    np.add.at(f, eq.edof, m * fe)
    F = f.reshape(-1, 3)
    assert np.allclose(F[:, :2], 0.0, atol=1e-12), "in-plane edge force"
    assert np.isclose(F.sum(), 0.0, atol=1e-12), "net force must vanish"
    torque = np.cross(mesh.node_coords - np.array([1.0, 0.0, 0.0]), F).sum(axis=0)
    assert np.isclose(abs(torque[1]), m * 1.0, rtol=1e-12), torque


def test_point_load_partition():
    mesh = cap_mesh()
    nodes, rows = point_load(mesh, 0, 45.0, 52.5, [0.0, 0.0, -2.0])
    assert np.isclose(rows[:, 2].sum(), -2.0)
    assert np.all(rows[:, :2] == 0.0)
