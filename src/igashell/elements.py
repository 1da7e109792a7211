"""Element-level machinery: quadrature tables, internal force vectors,
consistent tangent matrices, and external load contributions.

Patch and edge tables share one builder and one first-order evaluation
(``_Tables``); only the patch kernels read curvature
(``PatchQuadrature.current``).  One integrator serves every dead load.

Work conjugacy fixes the factors used throughout: with tau = 2 dW/da and
M0 = dW/db per unit reference area,

    delta W_int = int ( 1/2 tau : delta a + M0 : delta b ) dA.

The hatted strain rows carry the doubled shear entry, so the Voigt moduli
blocks from the material layer enter raw.  The curvature variation uses the
current-configuration Christoffel correction of the second basis derivatives.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .geometry import Mesh, Patch
from .kinematics import (MetricState, inverse_metric, surface_basis,
                         surface_vectors_state)

__all__ = [
    "PatchQuadrature",
    "EdgeQuadrature",
    "force_pass",
    "internal_forces",
    "total_energy",
    "dead_load",
    "follower_pressure",
    "follower_edge_moment",
    "point_load",
]

# antisymmetric symbol, eps[0, 1] = +1
_EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def gauss_01(n: int):
    """Gauss-Legendre points and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    return 0.5 * (x + 1.0), 0.5 * w


def _at_points(T, xe):
    """sum_n T[e, g, n, k] xe[e, n, i] for a basis table T (nel, ngp, nloc,
    k) and element node rows xe (nel, nloc, 3): (nel, ngp, k, 3).

    One matmul per element with the node axis inner, T laid out as (nel,
    ngp k, nloc).  The reference geometry and every current configuration
    go through here, so x = X reproduces the reference state bit for bit.
    """
    nel, ngp, nloc, k = T.shape
    return np.matmul(T.swapaxes(-1, -2).reshape(nel, ngp * k, nloc),
                     xe).reshape(nel, ngp, k, -1)


def _surface_sum(dN, v):
    """sum_a dN[e, g, n, a] v[e, g, a]: (nel, ngp, nloc), one (nloc x 2)
    (2 x 1) matmul per point."""
    return np.matmul(dN, v[..., None])[..., 0]


def _point_sum(u, v, w):
    """sum_g w[e, g] u[e, g, n] v[e, g, i]: (nel, nloc, 3), one matmul per
    element with the Gauss point axis inner."""
    return np.matmul((w[..., None] * u).swapaxes(1, 2), v)


class _Tables:
    """Basis tables and reference geometry at quadrature points, stacked
    over elements, made by the one builder ``_build``.

    N (nel, ngp, nloc), dN (..., 2) and d2N (..., 3) with the mixed
    derivative last, the global nodes ``conn`` (nel, nloc) and DOFs
    ``edof`` (nel, 3 nloc) of each element, the weights ``wq``, and the
    reference measure ``jac0``: the area element on a patch, the length
    element along an edge (``xi_dir`` runs along it; None on a patch).
    ``STACKED`` names the per-element arrays the kernels read, and
    ``SHARED`` the other attributes they read.
    """

    STACKED = ("N", "dN", "d2N", "conn", "wq", "edof", "ref_state", "jac0")
    SHARED = ()
    xi_dir = None

    @classmethod
    def stack(cls, tables):
        """One table over the elements of several, in their order.

        The tables must share (ngp, nloc) and their ``SHARED`` attributes;
        a single table is returned as it is, uncopied.  A stack carries only
        ``STACKED`` and ``SHARED``.  Every kernel treats elements
        independently, so a call on the stack returns, bit for bit, the
        calls on the parts one after the other.
        """
        first = tables[0]
        if len(tables) == 1:
            return first
        out = cls.__new__(cls)
        for name in cls.SHARED:
            setattr(out, name, getattr(first, name))
        for name in cls.STACKED:
            parts = [getattr(t, name) for t in tables]
            if isinstance(parts[0], MetricState):
                setattr(out, name, MetricState(*(
                    np.concatenate([getattr(p, f.name) for p in parts])
                    for f in fields(MetricState))))
            else:
                setattr(out, name, np.concatenate(parts))
        out.nel, out.ngp, out.nloc = out.N.shape
        return out

    def _build(self, patch, node_ids, node_coords, u, v, wq):
        """Tabulate ``patch.basis2d`` at (u, v), whose leading axes run over
        the elements, with the weights wq (nel, ngp).  ``node_ids`` maps
        the control points to rows of the reference node coordinates
        ``node_coords``, from which the reference geometry is computed as
        every current state is; so x = X is the reference state bit for
        bit, also where coincident control points merge into one node.
        """
        idx, N, dN, d2N = patch.basis2d(u, v)
        k, nel = idx.ndim - 1, len(wq)
        idx, self.N, self.dN, self.d2N = (
            T.reshape((nel, -1) + T.shape[k:]) for T in (idx, N, dN, d2N))
        self.local_ids = idx[:, 0]
        self.nel, self.ngp, self.nloc = self.N.shape
        self.conn = node_ids[self.local_ids]
        self.wq = wq
        self.edof = (3 * self.conn[:, :, None] + np.arange(3)[None, None, :]
                     ).reshape(self.nel, 3 * self.nloc)
        Xe = node_coords[self.conn]                         # (nel, nloc, 3)
        self.X = np.einsum("egn,eni->egi", self.N, Xe)
        A_vec = _at_points(self.dN, Xe)
        self.ref_state, self.ref_normal = surface_vectors_state(
            A_vec, _at_points(self.d2N, Xe))
        self.jac0 = (self.ref_state.jac if self.xi_dir is None else
                     np.linalg.norm(A_vec[:, :, self.xi_dir], axis=-1))

    def first_order(self, x_nodes: np.ndarray):
        """(a_con, jac, normal, a_vec, a_up) at every quadrature point, bit
        for bit those of ``PatchQuadrature.current``, with no curvature:
        what the rotation constraints and the follower loads read."""
        a_vec = _at_points(self.dN, x_nodes[self.conn])
        a_cov, normal = surface_basis(a_vec)
        det_a, a_con = inverse_metric(a_cov)
        return a_con, np.sqrt(det_a), normal, a_vec, np.matmul(a_con, a_vec)


class PatchQuadrature(_Tables):
    """The tables of one patch on (p + 1) x (q + 1) Gauss points per
    element (or ``n_gauss``); ``current`` adds the curvature the patch
    kernels read."""

    def __init__(self, patch: Patch, node_ids: np.ndarray,
                 node_coords: np.ndarray, n_gauss=None):
        bu, bv = patch.basis_u, patch.basis_v
        ngu, ngv = (bu.degree + 1, bv.degree + 1) if n_gauss is None else n_gauss
        tu, wu = gauss_01(ngu)
        tv, wv = gauss_01(ngv)
        # the Gauss grid u_e + t h_e along each direction, (nel, ng)
        u, v = (b.breaks[:-1, None] + t[None, :] * b.h[:, None]
                for b, t in ((bu, tu), (bv, tv)))
        # w_u w_v h_u h_v, multiplied in that order, (nel_v, nel_u, ngv, ngu)
        wq = ((wv[:, None] * wu[None, :]) * bu.h[:, None, None]
              * bv.h[:, None, None, None]).reshape(patch.n_elements, -1)
        self._build(patch, node_ids, node_coords, u[None, :, None, :],
                    v[:, None, :, None], wq)

    def current(self, x_nodes: np.ndarray):
        """(state, normal, a_vec, a_up, h_vec, gamma) at every quadrature
        point: the current metric state and normal, the tangents a_a, the
        raised tangents a^a, the second derivatives h of the map and the
        Christoffel symbols gamma (nel, ngp, 2, 3) of the B operators."""
        xe = x_nodes[self.conn]                             # (nel, nloc, 3)
        a_vec = _at_points(self.dN, xe)
        h_vec = _at_points(self.d2N, xe)
        state, normal = surface_vectors_state(a_vec, h_vec)
        a_up = np.matmul(state.a_con, a_vec)
        gamma = np.matmul(a_up, h_vec.swapaxes(-1, -2))
        return state, normal, a_vec, a_up, h_vec, gamma


class EdgeQuadrature(_Tables):
    """The tables of one side of a patch, on p + 1 Gauss points per element
    along it (or ``n_gauss``), with the full 2D element basis.

    The running parameter ``xi_dir`` is u for sides v0/v1 and v for u0/u1.
    ``reverse`` lays the points out in reversed element and Gauss order,
    running against the edge parameter, as the mate side of a reversed
    interface needs.
    """

    SHARED = ("xi_dir",)

    def __init__(self, patch: Patch, node_ids: np.ndarray,
                 node_coords: np.ndarray, side: str, n_gauss=None,
                 reverse=False):
        along_u = side in ("v0", "v1")
        self.xi_dir = 0 if along_u else 1
        run, fix = ((patch.basis_u, patch.basis_v) if along_u
                    else (patch.basis_v, patch.basis_u))
        tg, wg = gauss_01(run.degree + 1 if n_gauss is None else n_gauss)
        els = np.arange(run.n_elements)
        if reverse:
            els, tg, wg = els[::-1], tg[::-1], wg[::-1]
        s = run.breaks[els, None] + tg[None, :] * run.h[els, None]
        fixed = fix.breaks[-1 if side.endswith("1") else 0]
        self._build(patch, node_ids, node_coords,
                    *((s, fixed) if along_u else (fixed, s)),
                    wg[None, :] * run.h[els, None])


def _b_operators(pq, normal, a_vec, gamma):
    """Hatted strain-variation operators, stacked (nel, ngp, 6, 3 nloc).

    Rows 0-2: [d a11, d a22, 2 d a12]; rows 3-5: [d b11, d b22, 2 d b12].
    Row r at a point is [dN | Nt] (nloc x 5) @ V_r (5 x 3), with the
    Christoffel-corrected second derivatives Nt; V_r holds 2 a_0, 2 a_1 or
    n (2 n in the twist row) in fixed slots and zeros elsewhere, so all six
    rows of all points are one batched matmul.
    """
    nel, ngp, nloc = pq.nel, pq.ngp, pq.nloc
    dN = pq.dN
    # covariant second derivatives of the basis (Christoffel corrected)
    Nt = pq.d2N - np.matmul(dN, gamma)
    V = np.zeros((nel, ngp, 6, 5, 3))
    a2 = 2.0 * a_vec
    V[:, :, 0, 0] = V[:, :, 2, 1] = a2[:, :, 0]
    V[:, :, 1, 1] = V[:, :, 2, 0] = a2[:, :, 1]
    V[:, :, 3, 2] = V[:, :, 4, 3] = normal
    V[:, :, 5, 4] = 2.0 * normal
    B = np.matmul(np.concatenate([dN, Nt], axis=-1)[:, :, None], V)
    return B.reshape(nel, ngp, 6, 3 * nloc), Nt


def _kron_rows(a, v):
    """Rows a[..., k, n] v[..., k, i], flattened over (n, i) into 3 nloc.

    a (nel, ngp, k, nloc) and v (..., k, 3) broadcast against each other; the
    result is (nel, ngp, k, 3 nloc) in the (node, component) DOF order.
    """
    r = a[..., :, None] * v[..., None, :]
    return r.reshape(*r.shape[:-2], -1)


def _gauss_sum(L, R, out=None):
    """sum over Gauss points g and rows k of the outer products L[e,g,k] R[e,g,k].

    L (nel, ngp, k, p) and R (nel, ngp, k, q) are viewed as (nel, ngp k, .),
    so the Gauss sum is the inner dimension of one matmul: (nel, p, q), with
    no per-Gauss-point p x q temporary.  It is written to ``out`` if given.
    """
    nel = L.shape[0]
    return np.matmul(L.reshape(nel, -1, L.shape[-1]).swapaxes(1, 2),
                     R.reshape(nel, -1, R.shape[-1]), out=out)


def _metric_kron(dNl, W, x, dNr, y):
    """sum_g (dNl W dNr^T)[n, m] x_i y_j, rows (n, i), cols (m, j).

    The per-point nloc x nloc products S_g are two small matmuls; the Gauss
    sum is one matmul of S (nel, nloc nloc, ngp) against x y^T (nel, ngp, 9).
    """
    nel, ngp, nl = dNl.shape[:3]
    nr = dNr.shape[2]
    S = np.matmul(np.matmul(dNl, W), dNr.swapaxes(-1, -2))
    xy = x[..., :, None] * y[..., None, :]
    K = np.matmul(S.reshape(nel, ngp, -1).swapaxes(1, 2),
                  xy.reshape(nel, ngp, 9))
    return K.reshape(nel, nl, nr, 3, 3).transpose(0, 1, 3, 2, 4).reshape(
        nel, 3 * nl, 3 * nr)


def _normal_kron(nrm, X, y):
    """sum_g nrm_i X[n, j] y[m], rows (n, i), cols (m, j).

    The Gauss sum is one matmul of V = nrm_i X[n, j] (nel, nloc 9, ngp)
    against y (nel, ngp, nloc).
    """
    nel, ngp, nl = X.shape[:3]
    V = nrm[:, :, None, :, None] * X[:, :, :, None, :]
    K = np.matmul(V.reshape(nel, ngp, -1).swapaxes(1, 2), y)
    return K.reshape(nel, nl, 3, 3, -1).transpose(0, 1, 2, 4, 3).reshape(
        nel, 3 * nl, -1)


def internal_forces(pq: PatchQuadrature, material, x_nodes, tangent=True):
    """Element internal force vectors and (optionally) consistent tangents.

    Returns (f_el (nel, nd), K_el (nel, nd, nd) or None), nd = 3 nloc: the
    forces of ``force_pass`` and, with ``tangent``, its finished tangents.
    """
    f_el, finish = force_pass(pq, material, x_nodes)
    return f_el, (finish() if tangent else None)


_CHUNK_BYTES = 2**20        # the size of a chunk of T in ``force_pass``


def force_pass(pq: PatchQuadrature, material, x_nodes):
    """(f_el, finish): the element internal forces (nel, nd) at x_nodes,
    and a function that returns the element tangents K_el (nel, nd, nd) at
    the same state from what this pass computed.

    The pass forms the kinematics, the stress resultants and the B
    operators once; ``finish`` adds the moduli and the stiffness terms and
    then lets go of B.  Call it at most once.  ``finish(out)`` writes K_el
    into the array ``out`` and returns it, so a caller can reuse one
    buffer for every tangent.

    Every stiffness term is one matmul whose inner dimension is the Gauss
    point axis (times a few rows per point), so the Gauss sum happens inside
    BLAS and no per-Gauss-point nd x nd product exists; the largest
    per-point temporary is nloc x nloc, a ninth of it.  The material term is
    B^T (M6 w) B over (g, the 6 strain rows) (``_gauss_sum``); the geometric
    terms are those of ``_add_geometric``.  They are linear in the stress
    resultants, so a block whose resultants are all exactly zero -- a
    strain-based law at x = X, where every linear solve evaluates its
    tangent -- skips them: K is then the same up to the sign of a zero.
    """
    state, normal, a_vec, a_up, _, gamma = pq.current(x_nodes)
    ref = pq.ref_state
    nel, ngp = pq.nel, pq.ngp
    w = pq.wq * pq.jac0                                    # (nel, ngp)
    sv = material.stress_voigt(ref, state)                 # (nel, ngp, 6)
    B, Nt = _b_operators(pq, normal, a_vec, gamma)
    half = np.array([0.5, 0.5, 0.5, 1.0, 1.0, 1.0])
    # the force vector sums over (g, the 6 strain rows) as one matmul
    f_el = np.matmul((sv * half * w[..., None]).reshape(nel, 1, -1),
                     B.reshape(nel, ngp * 6, -1))[:, 0]

    def finish(out=None):
        nonlocal B
        C, D, E4, F = material.moduli_voigt(ref, state)    # (nel, ngp, 3, 3)
        M6 = np.empty((nel, ngp, 6, 6))
        M6[:, :, :3, :3] = 0.25 * C
        M6[:, :, :3, 3:] = 0.5 * D
        M6[:, :, 3:, :3] = 0.5 * E4
        M6[:, :, 3:, 3:] = F
        # T = M6 B w, as large as B, is formed a chunk of elements at a time
        K = np.empty((nel, B.shape[-1], B.shape[-1])) if out is None else out
        step = max(1, _CHUNK_BYTES * nel // max(B.nbytes, 1))
        for e0 in range(0, nel, step):
            e = slice(e0, e0 + step)
            T = np.matmul(M6[e], B[e])
            T *= w[e, :, None, None]
            _gauss_sum(B[e], T, out=K[e])
            del T
        del B       # the largest temporary; the terms below do not need it
        if sv.any():
            _add_geometric(K, pq, sv, state, normal, a_up, Nt, w)
        return K

    return f_el, finish


def _add_geometric(K, pq, sv, state, normal, a_up, Nt, w):
    """Add the geometric stiffness, from the second variation of the
    strains, to the element tangents K (nel, nd, nd) in place.

    Sums over a surface index are small per-point products, (nloc x 2)
    (2 x 2) or (2 x 3).

    - membrane: S = sum_g dN (tau w) dN^T over (g, b) (``_gauss_sum``),
      added to the three component diagonals (S kron I).
    - bending kM1 = -sum_g S_g[n, m] n_i n_j, S_g = dN (a^{ab} bM w) dN^T:
      one matmul of S (nel, nloc nloc, ngp) against n n^T (nel, ngp, 9)
      (``_metric_kron``).
    - bending kM2 = -sum_g n_i (dN a^c w)[n, j] mt[m]: one matmul of
      n_i (dN a^c w)[n, j] (nel, nloc 9, ngp) against mt (nel, ngp, nloc)
      (``_normal_kron``); its transpose is the mirrored term.
    """
    nel, ngp, nloc = pq.nel, pq.ngp, pq.nloc
    tau = np.empty((nel, ngp, 2, 2))
    tau[..., 0, 0] = sv[..., 0]
    tau[..., 1, 1] = sv[..., 1]
    tau[..., 0, 1] = tau[..., 1, 0] = sv[..., 2]
    # membrane: 1/2 tau : (Delta delta a) = tau^{ab} (d a_a . D a_b)
    dNt = pq.dN.swapaxes(-1, -2)                           # (nel, ngp, 2, nloc)
    S = _gauss_sum(np.matmul(tau * w[..., None, None], dNt), dNt)
    Kv = K.reshape(nel, nloc, 3, nloc, 3)
    for i in range(3):
        Kv[:, :, i, :, i] += S

    # bending: M0 : (Delta delta b)
    bM = (sv[..., 3] * state.b_cov[..., 0, 0]
          + sv[..., 4] * state.b_cov[..., 1, 1]
          + 2.0 * sv[..., 5] * state.b_cov[..., 0, 1])     # M : b
    w_ab = state.a_con * (bM * w)[..., None, None]
    K -= _metric_kron(pq.dN, w_ab, normal, pq.dN, normal)
    mt = (sv[..., 3, None] * Nt[..., 0] + sv[..., 4, None] * Nt[..., 1]
          + 2.0 * sv[..., 5, None] * Nt[..., 2])           # (nel, ngp, nloc)
    kM2 = _normal_kron(normal, np.matmul(pq.dN, a_up * w[..., None, None]),
                       mt)
    K -= kM2 + kM2.swapaxes(1, 2)


def total_energy(pq: PatchQuadrature, material, x_nodes):
    """Stored energy over the patch (meaningful for the direct models)."""
    state, _, _, _, _, _ = pq.current(x_nodes)
    W = material.energy(pq.ref_state, state)
    return float((pq.wq * pq.jac0 * W).sum())


# ---------------------------------------------------------------------------
# loads


def dead_load(q: _Tables, t):
    """Element forces (nel, 3 nloc) of a traction per unit reference
    measure -- area on a patch, length on an edge -- constant or a callable
    of the reference point X."""
    if callable(t):
        tv = np.asarray([[t(x) for x in row] for row in q.X])
    else:
        tv = np.broadcast_to(np.asarray(t, dtype=float), q.X.shape)
    w = q.wq * q.jac0
    f_el = np.einsum("egn,egi->eni", q.N, tv * w[..., None])
    return f_el.reshape(q.nel, -1)


def follower_pressure(pq: PatchQuadrature, x_nodes):
    """(f_el, finish) of a unit pressure along the current normal on the
    current area, as ``force_pass`` returns them; both are linear in the
    pressure, which the caller multiplies in."""
    _, jac, normal, _, a_up = pq.first_order(x_nodes)
    w = pq.wq * jac                                        # current measure
    f_el = _point_sum(pq.N, normal, w).reshape(pq.nel, -1)

    def finish():
        # delta(n ja) = ja sum_b dN_B,b (a^b_j n_i - a^b_i n_j) dx_Bj: the
        # first term is one row pair per point, N[n] n_i against
        # (dN a^b)[m, j]; the second one pair per b, N[n] a^b_i against
        # dN_b[m] n_j
        Nw = (pq.N * w[..., None])[:, :, None, :]
        nrow = normal[:, :, None, :]
        ua = np.matmul(pq.dN, a_up).reshape(pq.nel, pq.ngp, 1, -1)
        return (_gauss_sum(_kron_rows(Nw, nrow), ua)
                - _gauss_sum(_kron_rows(Nw, a_up),
                             _kron_rows(pq.dN.swapaxes(-1, -2), nrow)))

    return f_el, finish


def point_load(mesh: Mesh, patch_idx: int, u: float, v: float, F):
    """Dead point force: (node_ids, per-node force rows).  Raises
    ValueError when (u, v) lies outside the patch (``Mesh.check_point``)."""
    mesh.check_point(patch_idx, u, v)
    patch = mesh.patches[patch_idx]
    idx, N, _, _ = patch.basis2d(u, v)
    nodes = mesh.patch_node_ids[patch_idx][idx]
    return nodes, N[:, None] * np.asarray(F, dtype=float)[None, :]


def follower_edge_moment(eq: EdgeQuadrature, x_nodes):
    """(f_el, finish) of a unit moment per unit current length about the
    running edge tangent, as ``force_pass`` returns them; both are linear in
    the moment m, which the caller multiplies in.

    The virtual work is  int m (tau x n) . delta n ds.  Writing the edge
    tangent through the covariant base vector of the running parameter makes
    the arc measure cancel, leaving surface quantities only:

        f_A = -m w  ja  eps[d, xi]  a^{gd} dN_{A,g}  n.

    Positive m rotates the surface edge by the right-hand rule about the
    tangent that points along increasing edge parameter.
    """
    a_con, jac, normal, a_vec, a_up = eq.first_order(x_nodes)
    eps_col = _EPS2[:, eq.xi_dir]                           # eps[d, xi]
    P = np.matmul(a_con, eps_col)
    q = _surface_sum(eq.dN, P)                              # (nel, ngp, nloc)
    w = eq.wq * jac
    f_el = -_point_sum(q, normal, w).reshape(eq.nel, -1)

    def finish():
        # K / (-m w) = q[n] n_i u[m, j] - (dN a^{ab} dN^T)[n, m] n_i Pa_j
        #              - n_i u[n, j] q[m] - (its transpose)
        u = np.matmul(eq.dN, a_up)                      # (nel, ngp, nloc, 3)
        Pa = np.matmul(P[..., None, :], a_vec)[..., 0, :]
        qw = (q * w[..., None])[:, :, None, :]
        K3 = _normal_kron(normal, u * w[..., None, None], q)
        return -(_gauss_sum(_kron_rows(qw, normal[:, :, None, :]),
                            u.reshape(eq.nel, eq.ngp, 1, -1))
                 - _metric_kron(eq.dN, a_con * w[..., None, None],
                                normal, eq.dN, Pa)
                 - K3 - K3.swapaxes(1, 2))

    return f_el, finish
