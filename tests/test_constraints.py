"""Edge rotation constraints: finite-difference and closed-form checks.

The penalty and multiplier contributions are exact gradients of scalar
potentials, so every force block is gated against central differences of the
quadrature-evaluated potential and every tangent block against differences
of the forces.  A rigid rotation of one patch about the fold line changes
the edge angle exactly, which gives closed-form values for the potential and
the recovered moment independent of the implementation.
"""

import numpy as np
import pytest

from igashell.geometry import (Mesh, Patch, make_plate, make_cylinder_panel,
                               make_folded_strip)
from igashell.constraints import Penalty, Multiplier, RotationConstraint
from igashell.elements import EdgeQuadrature

from oracles import fd_gradient, fd_jacobian

RNG = np.random.default_rng(77)

L1, L2, WIDTH = 0.6, 0.5, 0.4
FOLD_DEG = 30.0


def fold_mesh(angle=FOLD_DEG):
    mesh, _ = make_folded_strip(L1, L2, WIDTH, angle, 2, 2, 2)
    assert len(mesh.interfaces) == 1
    return mesh


def backwards(p):
    """The same surface with both parameters running the other way."""
    def flip(knots):
        return knots[0] + knots[-1] - knots[::-1]
    return Patch(p.degree_u, p.degree_v, flip(p.knots_u), flip(p.knots_v),
                 p.points.reshape(p.n_v, p.n_u, 3)[::-1, ::-1].reshape(-1, 3),
                 p.weights.reshape(p.n_v, p.n_u)[::-1, ::-1].ravel())


def reversed_fold_mesh(angle=FOLD_DEG):
    """The folded strip with its second patch parametrized backwards, so the
    shared edge runs one way on each side (a reversed interface)."""
    strip = fold_mesh(angle)
    mesh = Mesh([strip.patches[0], backwards(strip.patches[1])])
    assert len(mesh.interfaces) == 1 and mesh.interfaces[0].reversed
    return mesh


def pair_constraint(mesh, alpha0=None):
    return RotationConstraint.from_interface(mesh, mesh.interfaces[0],
                                             alpha0=alpha0)


def perturbed(mesh, amp=0.03, seed=3):
    rng = np.random.default_rng(seed)
    return mesh.node_coords + amp * rng.standard_normal(
        mesh.node_coords.shape)


def assemble_force(n_dofs, pairs):
    f = np.zeros(n_dofs)
    for edof, fe in pairs:
        if fe is not None:
            np.add.at(f, edof.ravel(), fe.ravel())
    return f


def assemble_matrix(n_dofs, triples):
    K = np.zeros((n_dofs, n_dofs))
    for rdof, cdof, Ke in triples:
        if Ke is None:
            continue
        for e in range(Ke.shape[0]):
            K[np.ix_(rdof[e], cdof[e])] += Ke[e]
    return K


def penalty_force_global(con, mesh, x, method):
    (f_a, f_b), _ = con.penalty_pass(x, method)
    return assemble_force(mesh.n_dofs, [(con.edof_a, f_a), (con.edof_b, f_b)])


def penalty_tangent_global(con, mesh, x, method):
    K_aa, K_bb, K_ab, _ = con.penalty_pass(x, method)[1]()
    triples = [(con.edof_a, con.edof_a, K_aa)]
    if K_bb is not None:
        triples += [(con.edof_b, con.edof_b, K_bb),
                    (con.edof_a, con.edof_b, K_ab),
                    (con.edof_b, con.edof_a, K_ab.transpose(0, 2, 1))]
    return assemble_matrix(mesh.n_dofs, triples)


def one_sided_cases():
    mesh_c = Mesh([make_cylinder_panel(1.0, 0.8, -40.0, 40.0, 2, 2, 2)])
    sym = RotationConstraint.fixed(mesh_c, 0, "v0",
                                   normal=[0.0, np.sin(np.radians(40.0)),
                                           np.cos(np.radians(40.0))])
    mesh_p = Mesh([make_plate(1.0, 0.7, 2, 2, 2)])
    clamp = RotationConstraint.fixed(mesh_p, 0, "u0")
    return [("symmetry", mesh_c, sym), ("clamp", mesh_p, clamp)]


def two_sided_cases():
    out = []
    for name, ang in (("fold", FOLD_DEG), ("g1", 0.0)):
        mesh = fold_mesh(ang)
        out.append((name, mesh, pair_constraint(mesh)))
    mesh = reversed_fold_mesh()
    out.append(("reversed", mesh, pair_constraint(mesh)))
    return out


ALL_CASES = two_sided_cases() + one_sided_cases()


def extra_gauss_cases():
    """The same cases with p + 2 edge Gauss points instead of p + 1."""
    mesh_c, mesh_p = one_sided_cases()[0][1], one_sided_cases()[1][1]
    out = [(name, mesh, RotationConstraint.from_interface(
                mesh, mesh.interfaces[0], n_gauss=4))
           for name, mesh, _ in two_sided_cases()]
    out.append(("symmetry", mesh_c, RotationConstraint.fixed(
        mesh_c, 0, "v0", normal=[0.0, np.sin(np.radians(40.0)),
                                 np.cos(np.radians(40.0))], n_gauss=4)))
    out.append(("clamp", mesh_p, RotationConstraint.fixed(mesh_p, 0, "u0",
                                                          n_gauss=4)))
    return out


@pytest.mark.parametrize("name,mesh,con", extra_gauss_cases(),
                         ids=lambda c: c if isinstance(c, str) else "")
def test_edge_contractions_match_einsum(name, mesh, con):
    """The componentwise angle and matmul multiplier fields equal their
    einsum definitions, with p + 2 edge Gauss points."""
    x = perturbed(mesh)
    g = con._geometry(x)
    sin_ref = np.einsum("egi,egi->eg", np.cross(g.n, g.nt), g.tau)
    assert np.abs(g.cosa - np.einsum("egi,egi->eg", g.n, g.nt)).max() <= 1e-14
    assert np.abs(g.sina - sin_ref).max() <= 1e-14
    q = np.random.default_rng(5).standard_normal(con.nel + 1)
    for interp in ("n2q0", "n2q1c"):
        Nq, qconn, _ = con._q_tables(interp)
        qi = q[:con.n_multipliers(Multiplier(interp))]
        ref = np.einsum("gq,eq->eg", Nq, qi[qconn])
        err = np.abs(con._q_field(qi, interp) - ref).max() / np.abs(ref).max()
        assert err <= 1e-14, f"{interp} multiplier field differs by {err:.2e}"


@pytest.mark.parametrize("name,mesh,con", ALL_CASES, ids=lambda c: c if isinstance(c, str) else "")
def test_rest_state_carries_no_constraint_force(name, mesh, con):
    method = Penalty(3.0)
    f = penalty_force_global(con, mesh, mesh.node_coords, method)
    assert np.abs(f).max() < 1e-11, \
        f"{name}: rest state should be constraint-force free, got {np.abs(f).max():.2e}"
    assert abs(con.penalty_energy(mesh.node_coords, method)) < 1e-12


@pytest.mark.parametrize("name,mesh,con", ALL_CASES, ids=lambda c: c if isinstance(c, str) else "")
def test_penalty_force_is_energy_gradient(name, mesh, con):
    method = Penalty(3.0)
    x = perturbed(mesh)
    f = penalty_force_global(con, mesh, x, method)

    def energy(z):
        return con.penalty_energy(z.reshape(-1, 3), method)

    g = fd_gradient(energy, x.ravel(), h=1e-6)
    err = np.abs(f - g).max() / np.abs(g).max()
    assert err < 1e-6, f"{name}: force vs energy gradient rel err {err:.2e}"


@pytest.mark.parametrize("name,mesh,con", ALL_CASES, ids=lambda c: c if isinstance(c, str) else "")
def test_penalty_tangent_matches_fd(name, mesh, con):
    check_penalty_tangent(name, mesh, con)


@pytest.mark.parametrize("name,mesh,con", extra_gauss_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_penalty_tangent_matches_fd_extra_gauss(name, mesh, con):
    assert con.ngp == 4
    check_penalty_tangent(name, mesh, con)


def test_penalty_tangent_force_is_penalty_force():
    """Finishing a penalty pass's stiffness, displacement or MIP, leaves its
    forces as they were, since the model scatters them after finishing."""
    _, mesh, con = two_sided_cases()[0]
    x = perturbed(mesh)
    forces, finish = con.penalty_pass(x, Penalty(3.0))
    before = [f.copy() for f in forces]
    finish()
    finish(np.ones_like(con.wS))
    for f_t, f in zip(forces, before):
        assert np.array_equal(f_t, f)


def rest_moment(con, x, eps):
    """eps e(x) = 2 eps sin(delta / 2) at every point of the edge."""
    cosd, sind = con.angle_deviation(x)
    return 2.0 * eps * np.sin(0.5 * np.arctan2(sind, cosd))


def angle(con, x):
    g = con._geometry(x)
    return np.arctan2(g.sina, g.cosa)


@pytest.mark.parametrize("name,mesh,con", ALL_CASES + extra_gauss_cases(),
                         ids=lambda c: c if isinstance(c, str) else "")
def test_mip_tangent_at_the_rest_moment_is_the_displacement_tangent(
        name, mesh, con):
    """At m = eps e(x) the MIP tangent is the displacement tangent, on a
    state where the one-sided blocks' (C, S) is not a unit pair."""
    method = Penalty(3.0)
    x = perturbed(mesh)
    g = con._geometry(x)
    rho = np.hypot(g.cosa, g.sina)
    if con.two_sided:
        assert np.abs(rho - 1.0).max() < 1e-14
    else:
        assert np.abs(rho - 1.0).max() > 1e-4
    _, finish = con.penalty_pass(x, method)
    K0 = finish()[:3]
    K_mip = finish(rest_moment(con, x, method.epsilon))[:3]
    for a, b in zip(K_mip, K0):
        if b is not None:
            err = np.abs(a - b).max() / np.abs(b).max()
            assert err <= 1e-15, f"{name}: MIP identity off by {err:.2e}"


@pytest.mark.parametrize("name,mesh,con", ALL_CASES + extra_gauss_cases(),
                         ids=lambda c: c if isinstance(c, str) else "")
def test_angle_rate_matches_fd(name, mesh, con):
    """The per-point dalpha . du against a central difference of alpha."""
    x = perturbed(mesh)
    du = np.random.default_rng(11).standard_normal(x.shape)
    rate = con.angle_rate(con._geometry(x), du)
    h = 1e-6
    fd = (angle(con, x + h * du) - angle(con, x - h * du)) / (2.0 * h)
    err = np.abs(rate - fd).max() / np.abs(fd).max()
    assert err < 1e-7, f"{name}: angle rate vs FD rel err {err:.2e}"


@pytest.mark.parametrize("name,mesh,con", ALL_CASES,
                         ids=lambda c: c if isinstance(c, str) else "")
def test_moment_predictor_is_the_linearized_rest_moment(name, mesh, con):
    """predict(du) = eps (e + de . du): eps e(x) at du = 0, and the central
    difference of eps e along du otherwise."""
    method = Penalty(3.0)
    x = perturbed(mesh)
    du = np.random.default_rng(13).standard_normal(x.shape)
    predict = con.penalty_pass(x, method)[1]()[3]
    m0 = rest_moment(con, x, method.epsilon)
    assert np.abs(predict(np.zeros_like(x)) - m0).max() <= \
        1e-15 * np.abs(m0).max()
    h = 1e-6
    fd = (rest_moment(con, x + h * du, method.epsilon)
          - rest_moment(con, x - h * du, method.epsilon)) / (2.0 * h)
    err = np.abs((predict(h * du) - m0) / h - fd).max() / np.abs(fd).max()
    assert err < 1e-6, f"{name}: moment rate vs FD rel err {err:.2e}"


@pytest.mark.parametrize("name,mesh,con", two_sided_cases(),
                         ids=lambda c: c if isinstance(c, str) else "")
def test_mip_tangent_matches_its_definition(name, mesh, con):
    """On an interface, where (C, S) is a unit pair, the MIP tangent at any
    moment field m is sum wS (eps de (x) de + m d2e), with de from central
    differences of e and sum wS m d2e from central differences of the
    gradient of sum wS m e."""
    method = Penalty(3.0)
    eps = method.epsilon
    x = perturbed(mesh)
    m = eps * np.random.default_rng(17).uniform(-0.5, 0.5, con.wS.shape)
    K_aa, K_bb, K_ab, _ = con.penalty_pass(x, method)[1](m)
    K = assemble_matrix(mesh.n_dofs, [
        (con.edof_a, con.edof_a, K_aa), (con.edof_b, con.edof_b, K_bb),
        (con.edof_a, con.edof_b, K_ab),
        (con.edof_b, con.edof_a, K_ab.transpose(0, 2, 1))])

    def e_field(z):
        return (rest_moment(con, z.reshape(-1, 3), eps) / eps).ravel()

    def grad_me(z):
        # d(sum wS m e) = sum wS m cos(delta/2) dalpha: the force kernel
        # with (cc, ss) = m cos(delta/2) (S, -C), a unit (C, S) here
        g = con._geometry(z.reshape(-1, 3))
        cos_h = con._half_angle(g)[2]
        f_a, f_b = con._force_kernel(g, m * cos_h * g.sina,
                                     -m * cos_h * g.cosa)
        return assemble_force(mesh.n_dofs, [(con.edof_a, f_a),
                                            (con.edof_b, f_b)])

    de = fd_jacobian(e_field, x.ravel(), h=1e-6)
    ref = eps * de.T @ (con.wS.ravel()[:, None] * de) + fd_jacobian(
        grad_me, x.ravel(), h=1e-6)
    err = np.abs(K - ref).max() / np.abs(ref).max()
    assert err < 1e-5, f"{name}: MIP tangent vs definition rel err {err:.2e}"


def check_penalty_tangent(name, mesh, con):
    method = Penalty(3.0)
    x = perturbed(mesh)
    K = penalty_tangent_global(con, mesh, x, method)

    def force(z):
        return penalty_force_global(con, mesh, z.reshape(-1, 3), method)

    J = fd_jacobian(force, x.ravel(), h=1e-6)
    scale = np.abs(J).max()
    err = np.abs(K - J).max() / scale
    assert err < 1e-5, f"{name}: tangent vs FD rel err {err:.2e}"
    sym = np.abs(K - K.T).max() / scale
    assert sym < 1e-11, f"{name}: assembled constraint tangent not symmetric"


@pytest.mark.parametrize("interp", ["n2q0", "n2q1c"])
def test_multiplier_saddle_system_matches_fd(interp):
    mesh = fold_mesh()
    check_multiplier_saddle(mesh, pair_constraint(mesh), interp)


@pytest.mark.parametrize("interp", ["n2q0", "n2q1c"])
def test_multiplier_saddle_system_matches_fd_extra_gauss(interp):
    mesh = fold_mesh()
    con = RotationConstraint.from_interface(mesh, mesh.interfaces[0],
                                            n_gauss=4)
    assert con.ngp == 4
    check_multiplier_saddle(mesh, con, interp)


@pytest.mark.parametrize("interp", ["n2q0", "n2q1c"])
def test_multiplier_saddle_system_matches_fd_reversed(interp):
    mesh = reversed_fold_mesh()
    check_multiplier_saddle(mesh, pair_constraint(mesh), interp)


def edge_flipped_by_hand(eq):
    """An edge's tables with element and Gauss order reversed array by array."""
    out = {name: getattr(eq, name)[::-1, ::-1]
           for name in ("N", "dN", "d2N", "wq", "X", "ref_normal", "jac0")}
    out.update({name: getattr(eq, name)[::-1]
                for name in ("conn", "local_ids", "edof")})
    for f in ("a_cov", "b_cov", "a_con", "det_a", "jac", "b_con", "H",
              "kappa"):
        out["ref_state." + f] = getattr(eq.ref_state, f)[::-1, ::-1]
    return out


@pytest.mark.parametrize("n_gauss", [None, 4])
def test_reversed_interface_tables_and_gap(n_gauss):
    mesh = reversed_fold_mesh()
    iface = mesh.interfaces[0]
    con = RotationConstraint.from_interface(mesh, iface, n_gauss=n_gauss)
    gap = np.linalg.norm(con.eq_a.X - con.eq_b.X, axis=-1).max()
    assert gap < 1e-12 * mesh.bbox_diag()
    # the rest angle, read through the reversed side, is the fold angle
    assert np.allclose(con.c0, np.cos(np.radians(FOLD_DEG)), atol=1e-13)
    plain = EdgeQuadrature(mesh.patches[iface.patch_b],
                           mesh.patch_node_ids[iface.patch_b],
                           mesh.node_coords, iface.side_b, n_gauss=con.ngp)
    for name, want in edge_flipped_by_hand(plain).items():
        obj, _, attr = name.rpartition(".")
        got = getattr(con.eq_b.ref_state if obj else con.eq_b, attr)
        assert np.array_equal(got, want), name


def check_multiplier_saddle(mesh, con, interp):
    method = Multiplier(interp)
    nq = con.n_multipliers(method)
    nd = mesh.n_dofs
    rng = np.random.default_rng(11)
    x = perturbed(mesh, amp=0.02, seed=5)
    q = rng.standard_normal(nq)

    def split(z):
        return z[:nd].reshape(-1, 3), z[nd:]

    def residual(z):
        xz, qz = split(z)
        (f_a, f_b, f_q), _ = con.lm_pass(xz, qz, method)
        r = np.zeros(nd + nq)
        np.add.at(r, con.edof_a.ravel(), f_a.ravel())
        np.add.at(r, con.edof_b.ravel(), f_b.ravel())
        _, qconn, _ = con._q_tables(interp)
        np.add.at(r, nd + qconn.ravel(), f_q.ravel())
        return r

    def energy(z):
        xz, qz = split(z)
        return con.lm_energy(xz, qz, method)

    z0 = np.concatenate([x.ravel(), q])
    r0 = residual(z0)
    g = fd_gradient(energy, z0, h=1e-6)
    err_r = np.abs(r0 - g).max() / np.abs(g).max()
    assert err_r < 1e-6, f"multiplier residual vs energy gradient {err_r:.2e}"

    forces, finish = con.lm_pass(x, q, method)
    before = [f.copy() for f in forces]
    K_aa, K_bb, K_ab, K_aq, K_bq = finish()
    for f_t, f in zip(forces, before):
        assert np.array_equal(f_t, f)
    _, qconn, _ = con._q_tables(interp)
    qdof = nd + qconn
    K = assemble_matrix(nd + nq, [
        (con.edof_a, con.edof_a, K_aa),
        (con.edof_b, con.edof_b, K_bb),
        (con.edof_a, con.edof_b, K_ab),
        (con.edof_b, con.edof_a, K_ab.transpose(0, 2, 1)),
        (con.edof_a, qdof, K_aq),
        (qdof, con.edof_a, K_aq.transpose(0, 2, 1)),
        (con.edof_b, qdof, K_bq),
        (qdof, con.edof_b, K_bq.transpose(0, 2, 1)),
    ])
    J = fd_jacobian(residual, z0, h=1e-6)
    scale = np.abs(J).max()
    err_K = np.abs(K - J).max() / scale
    assert err_K < 1e-5, f"multiplier tangent vs FD rel err {err_K:.2e}"
    # multiplier block of the saddle matrix is empty
    assert np.abs(J[nd:, nd:]).max() < 1e-9 * scale


def test_interface_reaction_is_self_equilibrated():
    mesh = fold_mesh()
    con = pair_constraint(mesh)
    x = perturbed(mesh, amp=0.04, seed=9)
    f = penalty_force_global(con, mesh, x, Penalty(3.0)).reshape(-1, 3)
    fs = np.abs(f).sum()
    assert np.abs(f.sum(axis=0)).max() < 1e-12 * fs
    torque = np.cross(x, f).sum(axis=0)
    assert np.abs(torque).max() < 1e-12 * fs, \
        "interface constraint must transmit no net torque"


def test_fixed_normal_translation_invariance():
    name, mesh, con = one_sided_cases()[0]
    x = perturbed(mesh, amp=0.04, seed=13)
    f = penalty_force_global(con, mesh, x, Penalty(3.0)).reshape(-1, 3)
    assert np.abs(f.sum(axis=0)).max() < 1e-12 * np.abs(f).sum()


def test_symmetry_plane_rest_angle_is_quarter_turn():
    _, _, con = one_sided_cases()[0]
    assert np.abs(con.c0).max() < 1e-12
    assert np.abs(np.abs(con.s0) - 1.0).max() < 1e-12


def test_rigid_fold_rotation_gives_exact_angle_and_moment():
    mesh = fold_mesh()
    con = pair_constraint(mesh)
    dbeta = 0.07
    c, s = np.cos(dbeta), np.sin(dbeta)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    pivot = np.array([L1, 0.0, 0.0])
    x = mesh.node_coords.copy()
    ids2 = np.unique(mesh.patch_node_ids[1])
    x[ids2] = (x[ids2] - pivot) @ rot.T + pivot

    cosd, sind = con.angle_deviation(x)
    assert np.abs(cosd - np.cos(dbeta)).max() < 1e-12
    assert np.abs(np.abs(sind) - np.sin(dbeta)).max() < 1e-12
    assert abs(con.max_angle_deviation(x) - dbeta) < 1e-12

    eps = 5.0
    en = con.penalty_energy(x, Penalty(eps))
    assert abs(en - eps * (1.0 - np.cos(dbeta)) * WIDTH) < 1e-12 * eps
    m = con.moment(x, Penalty(eps))
    assert np.abs(np.abs(m) - eps * np.sin(dbeta)).max() < 1e-12 * eps


def test_multiplier_moment_recovery_and_counts():
    mesh = fold_mesh()
    con = pair_constraint(mesh)
    assert con.n_multipliers(Multiplier("n2q0")) == con.nel
    assert con.n_multipliers(Multiplier("n2q1c")) == con.nel + 1
    q = np.arange(1.0, con.nel + 1)
    m = con.moment(mesh.node_coords, (Multiplier("n2q0"), q))
    assert np.allclose(m, -q[:, None])
    Nq, qconn, nql = con._q_tables("n2q1c")
    assert nql == 2
    assert np.allclose(Nq.sum(axis=1), 1.0), "hat functions must sum to one"
    assert np.array_equal(qconn[:-1, 1], qconn[1:, 0]), \
        "n2q1c multipliers must chain continuously along the interface"


def test_angle_identity_on_deformed_interface():
    mesh = fold_mesh()
    con = pair_constraint(mesh)
    g = con._geometry(perturbed(mesh, amp=0.05, seed=21))
    assert np.abs(g.cosa ** 2 + g.sina ** 2 - 1.0).max() < 1e-12


def test_alpha0_override_sets_rest_deviation():
    mesh = Mesh([make_plate(1.0, 0.7, 2, 2, 2)])
    con = RotationConstraint.fixed(mesh, 0, "u0", normal=[0.0, 0.0, 1.0],
                                   alpha0=0.3)
    cosd, sind = con.angle_deviation(mesh.node_coords)
    assert np.abs(cosd - np.cos(0.3)).max() < 1e-12
    assert np.abs(sind + np.sin(0.3)).max() < 1e-12


def test_nonconforming_interface_is_rejected():
    a = make_plate(1.0, 0.5, 2, 2, 2)
    b = make_plate(1.0, 0.5, 2, 3, 3, origin=(1.0, 0.0, 0.0))
    mesh = Mesh([a, b], interfaces=[])
    with pytest.raises(ValueError):
        RotationConstraint(mesh, 0, "u1", patch_b=1, side_b="u0")


def test_penalty_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError):
        Penalty(0.0)
    with pytest.raises(ValueError):
        Multiplier("n2q2")
