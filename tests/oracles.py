"""Independent checks used by the test suite.

The B-spline evaluator here follows the textbook recursion directly and
deliberately shares no code with the package (the package goes through
extraction operators instead).  The finite-difference helpers encode the
symmetric-matrix derivative conventions for the work-conjugate stress pair:

    dW = 1/2 tau^{ab} da_ab + M0^{ab} db_ab

so a unit perturbation of the (12) entry pair picks up the off-diagonal
component once for tau-like quantities and twice for M0-like ones.

``point_basis_reference`` and ``field_output_reference`` are the other
kind of oracle: they redo the package's own arithmetic one point at a time
with scalar operations, so a batched evaluation can be checked against them
bit for bit.

``outer4``, ``sym4``, ``tens4_to_voigt`` and ``ddot4`` form fourth-order
surface tensors (..., 2, 2, 2, 2) in full, and ``projected_moduli4`` is
the thickness-integrated law's moduli built from them, the reference for
the package's moduli formed on the 9 Voigt pairs.
"""

import numpy as np

from igashell.kinematics import (layer_coefficients, metric_state,
                                 surface_vectors_state)
from igashell.nurbs import bernstein


def cox_de_boor(knots, degree, i, u):
    """Single basis function N_{i,p}(u) by recursion (right end closed)."""
    knots = np.asarray(knots, dtype=float)
    if degree == 0:
        last = np.max(knots)
        if knots[i] <= u < knots[i + 1]:
            return 1.0
        if u == last and knots[i] < knots[i + 1] == last:
            return 1.0
        return 0.0
    left = 0.0
    den = knots[i + degree] - knots[i]
    if den > 0.0:
        left = (u - knots[i]) / den * cox_de_boor(knots, degree - 1, i, u)
    right = 0.0
    den = knots[i + degree + 1] - knots[i + 1]
    if den > 0.0:
        right = (knots[i + degree + 1] - u) / den * cox_de_boor(knots, degree - 1, i + 1, u)
    return left + right


def cox_de_boor_deriv(knots, degree, i, u, order=1):
    """Derivative d^k/du^k N_{i,p}(u) via the degree-reduction formula."""
    if order == 0:
        return cox_de_boor(knots, degree, i, u)
    knots = np.asarray(knots, dtype=float)
    left = 0.0
    den = knots[i + degree] - knots[i]
    if den > 0.0:
        left = degree / den * cox_de_boor_deriv(knots, degree - 1, i, u, order - 1)
    right = 0.0
    den = knots[i + degree + 1] - knots[i + 1]
    if den > 0.0:
        right = degree / den * cox_de_boor_deriv(knots, degree - 1, i + 1, u, order - 1)
    return left - right


def bspline_row(knots, degree, u, order=0):
    """All n basis functions (or derivatives) at u as a dense row."""
    n = len(knots) - degree - 1
    return np.array([cox_de_boor_deriv(knots, degree, i, u, order) for i in range(n)])


# ---------------------------------------------------------------------------
# one-point references for batched evaluation


def point_basis_reference(patch, u, v):
    """Rational basis at one point with scalar arithmetic: each 1-D basis
    from one Bernstein row, then the tensor product and quotient rule.  A
    point on a breakpoint takes the element on its right."""
    tables = []
    for basis, x in ((patch.basis_u, u), (patch.basis_v, v)):
        e = min(int(np.searchsorted(basis.breaks, x, side="right")) - 1,
                basis.n_elements - 1)
        h = basis.breaks[e + 1] - basis.breaks[e]
        B, dB, d2B = bernstein(basis.degree, np.array([(x - basis.breaks[e]) / h]))
        C = basis.C[e]
        tables.append((basis.conn[e], (B @ C.T)[0], (dB @ C.T)[0] / h,
                       (d2B @ C.T)[0] / h ** 2))
    (cu, Nu, dNu, d2Nu), (cv, Nv, dNv, d2Nv) = tables
    idx = (cv[:, None] * patch.n_u + cu[None, :]).ravel()
    w = patch.weights[idx]
    wB = w * np.outer(Nv, Nu).ravel()
    wdB = w[:, None] * np.stack([np.outer(Nv, dNu).ravel(),
                                 np.outer(dNv, Nu).ravel()], axis=-1)
    wd2B = w[:, None] * np.stack([np.outer(Nv, d2Nu).ravel(),
                                  np.outer(d2Nv, Nu).ravel(),
                                  np.outer(dNv, dNu).ravel()], axis=-1)
    W, Wd, Wdd = wB.sum(), wdB.sum(axis=0), wd2B.sum(axis=0)
    dN = (wdB - np.outer(wB, Wd) / W) / W
    d2N = np.empty_like(wd2B)
    for k, (a, b) in enumerate(((0, 0), (1, 1), (0, 1))):
        d2N[:, k] = (wd2B[:, k] - (wdB[:, a] * Wd[b] + wdB[:, b] * Wd[a]) / W
                     - wB * Wdd[k] / W + 2.0 * wB * Wd[a] * Wd[b] / W ** 2) / W
    return idx, wB / W, dN, d2N


def field_output_reference(mesh, x_nodes, material, s):
    """Field output sample by sample: per patch, each element's s x s grid
    (u fastest, elements too), the basis of every sample from
    ``point_basis_reference`` and its geometry from one-point products.
    Returns (points, displacement, mean_curvature, gauss_curvature,
    membrane_stress, bending_moment) as ``build_field_output`` orders
    them."""
    out = []
    for p, patch in enumerate(mesh.patches):
        bu, bv = np.unique(patch.knots_u), np.unique(patch.knots_v)
        rows = []       # (X, a_ref, h_ref, x, a_cur, h_cur) per sample
        for v0, v1 in zip(bv[:-1], bv[1:]):
            for u0, u1 in zip(bu[:-1], bu[1:]):
                for v in np.linspace(v0, v1, s):
                    for u in np.linspace(u0, u1, s):
                        idx, N, dN, d2N = point_basis_reference(patch, u, v)
                        nodes = mesh.patch_node_ids[p][idx]
                        rows.append([f for P in (mesh.node_coords[nodes],
                                                 x_nodes[nodes])
                                     for f in (N @ P, dN.T @ P, d2N.T @ P)])
        X, a_ref, h_ref, x, a_cur, h_cur = (np.array(f) for f in zip(*rows))
        ref, _ = surface_vectors_state(a_ref, h_ref)
        cur, _ = surface_vectors_state(a_cur, h_cur)
        tau, M0 = material.stress(ref, cur)
        out.append((x, x - X, cur.H, cur.kappa,
                    np.stack([tau[:, 0, 0], tau[:, 1, 1], tau[:, 0, 1]], 1),
                    np.stack([M0[:, 0, 0], M0[:, 1, 1], M0[:, 0, 1]], 1)))
    return tuple(np.concatenate(parts) for parts in zip(*out))


# ---------------------------------------------------------------------------
# finite differences for the constitutive layer

SYM_UNITS = (
    np.array([[1.0, 0.0], [0.0, 0.0]]),
    np.array([[0.0, 0.0], [0.0, 1.0]]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
)
# dW/dh -> tensor component factors for tau-like (2 dW/da) and M-like (dW/db)
_TAU_FAC = (2.0, 2.0, 1.0)
_M_FAC = (1.0, 1.0, 0.5)


def fd_stress(material, ref, cur, h=1e-6):
    """Voigt-6 stress [tau11, tau22, tau12, M11, M22, M12] from energy FD."""
    out = np.zeros(6)
    zero = np.zeros((2, 2))
    for k, E in enumerate(SYM_UNITS):
        gp = material.energy_perturbed(ref, cur, h * E, zero)
        gm = material.energy_perturbed(ref, cur, -h * E, zero)
        out[k] = _TAU_FAC[k] * (gp - gm) / (2.0 * h)
        gp = material.energy_perturbed(ref, cur, zero, h * E)
        gm = material.energy_perturbed(ref, cur, zero, -h * E)
        out[3 + k] = _M_FAC[k] * (gp - gm) / (2.0 * h)
    return out


def _stress_pair(material, ref, a_cov, b_cov):
    tau, M0 = material.stress(ref, metric_state(a_cov, b_cov))
    return (np.array([tau[0, 0], tau[1, 1], tau[0, 1]]),
            np.array([M0[0, 0], M0[1, 1], M0[0, 1]]))


def fd_moduli(material, ref, cur, h=1e-6):
    """Voigt 3x3 blocks (C, D, E, F) by differencing the stress map."""
    C = np.zeros((3, 3))
    D = np.zeros((3, 3))
    E4 = np.zeros((3, 3))
    F = np.zeros((3, 3))
    for k, Ek in enumerate(SYM_UNITS):
        tp, mp = _stress_pair(material, ref, cur.a_cov + h * Ek, cur.b_cov)
        tm, mm = _stress_pair(material, ref, cur.a_cov - h * Ek, cur.b_cov)
        C[:, k] = _TAU_FAC[k] * (tp - tm) / (2.0 * h)
        E4[:, k] = _TAU_FAC[k] * (mp - mm) / (2.0 * h)
        tp, mp = _stress_pair(material, ref, cur.a_cov, cur.b_cov + h * Ek)
        tm, mm = _stress_pair(material, ref, cur.a_cov, cur.b_cov - h * Ek)
        D[:, k] = _M_FAC[k] * (tp - tm) / (2.0 * h)
        F[:, k] = _M_FAC[k] * (mp - mm) / (2.0 * h)
    return C, D, E4, F


def random_state_pair(rng, strain=0.2, curv=0.6):
    """Reference and perturbed current metric states, guaranteed admissible."""
    L = np.eye(2) + 0.3 * rng.uniform(-1.0, 1.0, (2, 2))
    A = L @ L.T
    B = curv * _sym(rng)
    M = L @ (np.eye(2) + strain * rng.uniform(-1.0, 1.0, (2, 2)))
    a = M @ M.T
    b = B + curv * _sym(rng)
    return metric_state(A, B), metric_state(a, b)


def _sym(rng):
    S = rng.uniform(-1.0, 1.0, (2, 2))
    return 0.5 * (S + S.T)


def fd_gradient(fun, x, h=1e-6):
    """Dense central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        g.flat[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def fd_jacobian(fun, x, h=1e-6):
    """Dense central-difference Jacobian of a vector function of a vector."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun(x))
    J = np.zeros((f0.size, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        J[:, i] = (np.asarray(fun(x + e)) - np.asarray(fun(x - e))).ravel() / (2.0 * h)
    return J


# ---------------------------------------------------------------------------
# fourth-order surface tensors

_VOIGT_PAIRS = ((0, 0), (1, 1), (0, 1))


def tens4_to_voigt(T):
    """Raw Voigt 3x3 of a fourth-order tensor with minor symmetries."""
    out = np.empty(T.shape[:-4] + (3, 3))
    for I, (a, b) in enumerate(_VOIGT_PAIRS):
        for J, (c, d) in enumerate(_VOIGT_PAIRS):
            out[..., I, J] = T[..., a, b, c, d]
    return out


def outer4(A, B):
    """A^{ab} B^{cd}."""
    return A[..., :, :, None, None] * B[..., None, None, :, :]


def sym4(A, B):
    """1/2 (A^{ac} B^{bd} + A^{ad} B^{bc})."""
    return 0.5 * (A[..., :, None, :, None] * B[..., None, :, None, :]
                  + A[..., :, None, None, :] * B[..., None, :, :, None])


def ddot4(A, B):
    """sum_{eh} A[..., e, h] B[..., e, h, c, d] for A (..., 2, 2) or
    (..., 2, 2, 2, 2) and B (..., 2, 2, 2, 2) of one leading shape."""
    lead = B.shape[:-4]
    rows = A.shape[len(lead):-2]
    return np.matmul(A.reshape(lead + (-1, 4)), B.reshape(lead + (4, 4))
                     ).reshape(lead + rows + (2, 2))


def projected_moduli4(mat, ref, cur):
    """(c4, d4, e4, f4) of a ``ProjectedNeoHooke`` as fourth-order tensors:
    per thickness point, the derivatives of the layer metric with respect
    to a and b, contracted with the layer stress and its tangent."""
    shape = cur.a_cov.shape + (2, 2)
    c4, d4, e4, f4 = (np.zeros(shape) for _ in range(4))
    a_con, b_con, bt_con = cur.a_con, cur.b_con, cur.b_adj_con
    a_cov, b_cov = cur.a_cov, cur.b_cov
    H, kap = cur.H, cur.kappa
    I4 = sym4(np.eye(2), np.eye(2))

    def n4(v):
        return v[..., None, None, None, None]

    for xi, w in zip(mat.xi, mat.wts):
        _, G_con, s0, g_cov, g_con, _, Js = mat._layer(ref, cur, xi)
        f, fp = mat._fJ(Js)
        tau_l = mat.mu * G_con + f[..., None, None] * g_con
        g_a, g_b, _ = layer_coefficients(H, kap, xi)
        # dg_eh/da_cd and dg_eh/db_cd including the coefficient variations
        Da = (n4(g_a) * I4 + n4(kap * xi ** 2) * outer4(a_cov, a_con)
              - xi ** 2 * outer4(b_cov, b_con))
        Db = (n4(g_b) * I4 - xi ** 2 * outer4(a_cov, bt_con)
              + xi ** 2 * outer4(b_cov, a_con))
        g4 = -sym4(g_con, g_con)
        Jfp, fn = n4(Js * fp), n4(f)
        ct = Jfp * outer4(g_con, ddot4(g_con, Da)) + 2.0 * fn * ddot4(g4, Da)
        dt = (0.5 * Jfp * outer4(g_con, ddot4(g_con, Db))
              + fn * ddot4(g4, Db))
        if mat.reduction == "exact":
            s0n, gan, gbn = n4(s0), n4(g_a), n4(g_b)
            kxi2 = n4(kap * xi ** 2)
            c4 += w * s0n * (2.0 * kxi2 * outer4(tau_l, a_con) + gan * ct)
            d4 += w * s0n * (-xi ** 2 * outer4(tau_l, bt_con) + gan * dt)
            e4 += w * s0n * (-xi ** 2 * outer4(tau_l, b_con) + 0.5 * gbn * ct)
            f4 += w * s0n * (0.5 * xi ** 2 * outer4(tau_l, a_con)
                             + 0.5 * gbn * dt)
        else:
            c4 += w * ct
            d4 += w * dt
            e4 += -w * xi * ct
            f4 += -w * xi * dt
    return c4, d4, e4, f4
