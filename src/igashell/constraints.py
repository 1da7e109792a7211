"""Edge rotation conditions along patch edges.

The deformed surface normal along an edge is tied either to the normal of a
neighbouring patch across a conforming interface (smooth coupling, fixed
folds) or to a fixed direction (symmetry planes, clamped edges, prescribed
edge rotation).  Writing n for the edge normal, nt for the mate normal and
tau for the running edge tangent, the pair

    cos(alpha) = n . nt,     sin(alpha) = (n x nt) . tau

measures the relative rotation; the rest values (c0, s0) are taken from the
reference configuration, so any rest fold angle is preserved without extra
bookkeeping.

Enforcement is either a quadratic penalty on the angle deviation,

    Pi = int eps (1 - c0 cos(alpha) - s0 sin(alpha)) dS,

or a Lagrange multiplier field q along the edge acting on

    g = 1 - cos(alpha - alpha0) + sin(alpha - alpha0),

which vanishes exactly at alpha = alpha0 and is locally convex there (valid
while |alpha - alpha0| < pi/4).  Both forces are exact gradients of their
potentials, so the tangent blocks are symmetric and the multiplier method
yields a saddle point.  The multiplier blocks reuse the penalty kernels with
the coefficient substitution eps -> 1, c0 -> q (s0 + c0), s0 -> q (s0 - c0),
which is what differentiating q g produces.

Recovered constraint moment about the edge tangent: m_tau = eps sin(alpha -
alpha0) for the penalty and m_tau = -q for the multiplier method.

Mixed integration point (MIP) tangent of the penalty.  Newton's first
update of a load step overshoots the penalty's second-order angle
violation, so the constraint force alone can send the residual up by
orders of magnitude.  The MIP Newton (Magisano, Leonetti and Garcea, CMAME
313 (2017) 986-1005) makes the point moment an independent unknown of the
linearization and condenses it point by point: only the tangent changes,
the residual and the converged state stay those of the displacement form.
With delta = alpha - alpha0 the penalty density is eps (1 - cos delta) =
eps e^2 / 2, e = 2 sin(delta / 2), and its MIP tangent at the point moment
m is

    eps de (x) de + m d2e = P dalpha (x) dalpha + Q d2alpha,
    P = eps cos^2(delta/2) - m sin(delta/2) / 2,   Q = m cos(delta/2).

``_tangent_kernel`` is linear in its coefficient fields and, with (cc, ss)
frozen and (cos alpha, sin alpha) a unit pair, equals cc (cos alpha
dalpha (x) dalpha + sin alpha d2alpha) + ss (sin alpha dalpha (x) dalpha -
cos alpha d2alpha).  So the MIP tangent is the same kernel with the
per-point coefficients

    cc = P c^ + Q s^,   ss = P s^ - Q c^,   (c^, s^) = (C, S) / rho,

where C and S are ``_EdgeGeometry.cosa`` and ``sina`` and rho = |(C, S)|.
At m = eps e(x) these are (eps c0, eps s0), the displacement tangent's.  On
an interface rho = 1.  With a fixed mate, nt need not be normal to the
current edge tangent, so rho < 1, and without the normalisation that
identity would be off by the factor rho (by 3e-2 on the perturbed clamp of
the constraint tests).

The moment of the next tangent is predicted linearly along the Newton
update du from the tangent's configuration, m = eps (e + cos(delta/2)
dalpha . du) (``penalty_pass``), with dalpha = (C dS - S dC) / rho^2 formed
per point from the force kernel's terms (``angle_rate``).  ``solver._newton``
resets m to eps e(x) at the start of every load step attempt.
"""

from dataclasses import dataclass

import numpy as np

from .elements import (EdgeQuadrature, _at_points, _gauss_sum, _kron_rows,
                       _metric_kron, _normal_kron, _point_sum, _surface_sum,
                       gauss_01)
from .kinematics import cross3, dot3


@dataclass(frozen=True)
class Penalty:
    """Penalty enforcement; epsilon carries units of force times length."""
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("penalty parameter must be positive")


@dataclass(frozen=True)
class Multiplier:
    """Lagrange multiplier enforcement with an edge interpolation scheme.

    interp "n2q0": one constant multiplier per edge element (default).
    interp "n2q1c": continuous piecewise-linear multipliers on the edge
    element grid.  Each constraint owns an independent multiplier chain, so
    multipliers are automatically duplicated where several interfaces meet.
    """
    interp: str = "n2q0"

    def __post_init__(self):
        if self.interp not in ("n2q0", "n2q1c"):
            raise ValueError(f"unknown multiplier interpolation {self.interp!r}")


class _EdgeGeometry:
    """Per-gauss-point current quantities shared by force and tangent
    kernels, with the products n x nt and nt x tau that every kernel call
    on it reads."""

    __slots__ = ("n", "nt", "tau", "alen", "aup_a", "acon_a", "aup_b",
                 "acon_b", "nxnt", "nut", "cosa", "sina")

    def __init__(self, n, nt, tau, alen, aup_a, acon_a, aup_b, acon_b):
        self.n = n
        self.nt = nt
        self.tau = tau
        self.alen = alen
        self.aup_a = aup_a
        self.acon_a = acon_a
        self.aup_b = aup_b
        self.acon_b = acon_b
        self.nxnt = cross3(n, nt)
        self.nut = -cross3(tau, nt)
        self.cosa = dot3(n, nt)
        self.sina = dot3(self.nxnt, tau)


class RotationConstraint:
    """Constrained edges, two-sided (interfaces) or one-sided (fixed mates).

    Side a is always a patch edge.  The mate is either the matching edge of a
    second patch, tabulated at the same physical quadrature points, or a
    fixed normal field that never varies.  Element/gauss tables follow the
    layout of EdgeQuadrature.  A constraint built from a mesh holds one
    edge; ``stack`` joins several edges of one kind into one constraint
    over all their elements, which a single kernel call then evaluates.

    ``penalty_pass`` and ``lm_pass`` return per-element blocks, stacked
    over the edge elements: f_a (nel, 3 nloc_a), f_b on side b, f_q (nel,
    nql) on the element's multipliers, and, once finished, the stiffness
    blocks K_aa, K_bb, K_ab (side a rows, side b columns), K_aq and K_bq.
    Of each off-diagonal pair only K_ab, K_aq or K_bq is returned; the
    tangent is symmetric, so the caller scatters its transpose as well.
    """

    def __init__(self, mesh, patch_a: int, side_a: str, *, patch_b=None,
                 side_b=None, flip_b: bool = False, fixed_normal=None,
                 alpha0=None, n_gauss=None):
        pa = mesh.patches[patch_a]
        self.two_sided = patch_b is not None
        if self.two_sided:
            pb = mesh.patches[patch_b]
            run_a = pa.degree_u if side_a in ("v0", "v1") else pa.degree_v
            run_b = pb.degree_u if side_b in ("v0", "v1") else pb.degree_v
            ng = n_gauss if n_gauss is not None else max(run_a, run_b) + 1
        else:
            ng = n_gauss
        self.eq_a = EdgeQuadrature(pa, mesh.patch_node_ids[patch_a],
                                   mesh.node_coords, side_a, n_gauss=ng)
        self.nel = self.eq_a.nel
        self.ngp = self.eq_a.ngp
        scale = mesh.bbox_diag()

        if self.two_sided:
            self.eq_b = EdgeQuadrature(pb, mesh.patch_node_ids[patch_b],
                                       mesh.node_coords, side_b, n_gauss=ng,
                                       reverse=flip_b)
            if self.eq_b.nel != self.nel:
                raise ValueError("interface sides have different element counts")
            gap = np.linalg.norm(self.eq_a.X - self.eq_b.X, axis=-1).max()
            if gap > 1e-8 * scale:
                raise ValueError(
                    f"edge quadrature points do not coincide (gap {gap:.3e}); "
                    "interface is not conforming or flip_b is wrong")
        else:
            self.eq_b = None
            if fixed_normal is None:
                # clamped edge: the mate is the frozen reference normal field
                self.fixed_nt = self.eq_a.ref_normal.copy()
            else:
                v = np.asarray(fixed_normal, dtype=float)
                v = v / np.linalg.norm(v)
                self.fixed_nt = np.broadcast_to(v, self.eq_a.X.shape).copy()

        if np.any(self.eq_a.jac0 <= 1e-12 * scale):
            raise ValueError("degenerate edge tangent along constrained edge")
        self._min_len = 1e-12 * scale
        if alpha0 is None:
            # the reference geometry, so x = X is at rest bit for bit
            g = self._geometry(mesh.node_coords)
            self.c0, self.s0 = g.cosa, g.sina
        else:
            self.c0 = np.full((self.nel, self.ngp), np.cos(alpha0))
            self.s0 = np.full((self.nel, self.ngp), np.sin(alpha0))
        self.wS = self.eq_a.wq * self.eq_a.jac0
        self.edof_a = self.eq_a.edof
        self.edof_b = self.eq_b.edof if self.two_sided else None
        # multiplier shape functions at the edge Gauss points and their
        # element connectivity, per interpolation scheme
        tg, _ = gauss_01(self.ngp)
        els = np.arange(self.nel, dtype=np.int64)
        self._q = {"n2q0": (np.ones((self.ngp, 1)), els[:, None]),
                   "n2q1c": (np.column_stack([1.0 - tg, tg]),
                             np.column_stack([els, els + 1]))}

    @classmethod
    def stack(cls, cons, q_offsets):
        """One constraint over the edges of several, in their order.

        The edges must agree in sidedness, running direction ``xi_dir`` and
        (ngp, nloc) on each side.  The multiplier connectivity of each edge
        is shifted by its offset in ``q_offsets``, so the stack takes the
        model's whole q vector where an edge takes its own q.
        """
        first = cons[0]
        out = cls.__new__(cls)
        out.two_sided = first.two_sided
        out.eq_a = EdgeQuadrature.stack([c.eq_a for c in cons])
        out.eq_b = (EdgeQuadrature.stack([c.eq_b for c in cons])
                    if first.two_sided else None)
        out.nel, out.ngp = out.eq_a.nel, out.eq_a.ngp
        for name in ("c0", "s0", "wS") + (
                () if first.two_sided else ("fixed_nt",)):
            setattr(out, name, np.concatenate([getattr(c, name)
                                               for c in cons]))
        out.edof_a = out.eq_a.edof
        out.edof_b = out.eq_b.edof if first.two_sided else None
        out._min_len = first._min_len
        out._q = {interp: (Nq, np.concatenate(
            [c._q[interp][1] + off for c, off in zip(cons, q_offsets)]))
            for interp, (Nq, _) in first._q.items()}
        return out

    @classmethod
    def from_interface(cls, mesh, iface, alpha0=None, n_gauss=None):
        return cls(mesh, iface.patch_a, iface.side_a, patch_b=iface.patch_b,
                   side_b=iface.side_b, flip_b=iface.reversed, alpha0=alpha0,
                   n_gauss=n_gauss)

    @classmethod
    def fixed(cls, mesh, patch: int, side: str, normal=None, alpha0=None,
              n_gauss=None):
        """One-sided constraint: symmetry plane, clamp or set edge rotation.

        normal None freezes the edge's own reference normals (clamp); a
        vector gives the mate direction (symmetry plane normal, or any
        prescribed direction for a rotational Dirichlet condition).
        """
        return cls(mesh, patch, side, fixed_normal=normal, alpha0=alpha0,
                   n_gauss=n_gauss)

    # ------------------------------------------------------------------
    # current geometry

    def _geometry(self, x_nodes) -> _EdgeGeometry:
        acon_a, _, n_a, avec_a, aup_a = self.eq_a.first_order(x_nodes)
        t_vec = avec_a[:, :, self.eq_a.xi_dir, :]
        alen = np.linalg.norm(t_vec, axis=-1)
        if np.any(alen < self._min_len):
            raise ValueError("degenerate edge tangent in current configuration")
        tau = t_vec / alen[..., None]
        if self.two_sided:
            acon_b, _, n_b, _, aup_b = self.eq_b.first_order(x_nodes)
            return _EdgeGeometry(n_a, n_b, tau, alen, aup_a, acon_a,
                                 aup_b, acon_b)
        return _EdgeGeometry(n_a, self.fixed_nt, tau, alen, aup_a, acon_a,
                             None, None)

    def _deviation(self, g: _EdgeGeometry):
        """(cos, sin) of alpha - alpha0 on the geometry g."""
        return (g.cosa * self.c0 + g.sina * self.s0,
                g.sina * self.c0 - g.cosa * self.s0)

    def angle_deviation(self, x_nodes):
        """(cos, sin) of alpha - alpha0 at every edge quadrature point."""
        return self._deviation(self._geometry(x_nodes))

    def moment(self, x_nodes, method):
        """Recovered constraint moment per unit current edge length.

        The constraint potentials integrate over the reference edge, so the
        work-conjugate angle moment is a per-reference-length density; it is
        divided by the edge stretch here to make it comparable with follower
        boundary moments, which act per unit current length.  For the
        multiplier method the caller passes (method, q) as a tuple.
        """
        if isinstance(method, tuple):
            method, q = method
        g = self._geometry(x_nodes)
        stretch = g.alen / self.eq_a.jac0
        cosd, sind = self._deviation(g)
        if isinstance(method, Penalty):
            return method.epsilon * sind / stretch
        qg = self._q_field(q, method.interp)
        return -qg * (cosd + sind) / stretch

    # ------------------------------------------------------------------
    # shared force / tangent kernels; cc, ss are the effective coefficient
    # fields (penalty: eps*c0, eps*s0; multiplier: q(s0+c0), q(s0-c0))

    def _point_terms(self, g: _EdgeGeometry, cc, ss):
        """(dta, Mth, dab, theta, dt, dd): the per-point vectors of the
        force kernel, then the ones they are formed from, which the
        tangent kernel also reads.

        The kernel's variation -(cc dC + ss dS) at one point is, for a
        variation dx of the nodes, dta . (n . da) - Mth . da_xi + dab .
        (nt . db), with da (db) the variations of the side-a (side-b)
        tangent vectors and da_xi the running one; dab and dd are None on
        a one-sided edge.
        """
        theta = ss[..., None] * g.nxnt
        Mth = (theta - g.tau * dot3(g.tau, theta)[..., None]) / g.alen[..., None]
        dt = cc[..., None] * g.nt + ss[..., None] * g.nut
        dta = dot3(g.aup_a, dt[:, :, None, :])
        dab = dd = None
        if self.two_sided:
            nu = cross3(g.tau, g.n)
            dd = cc[..., None] * g.n + ss[..., None] * nu
            dab = dot3(g.aup_b, dd[:, :, None, :])
        return dta, Mth, dab, theta, dt, dd

    def _force_kernel(self, g: _EdgeGeometry, cc, ss):
        dNa = self.eq_a.dN
        dXi = dNa[..., self.eq_a.xi_dir]
        dta, Mth, dab, *_ = self._point_terms(g, cc, ss)
        # f_a[n, i] = sum_g wS ((dN dta)[n] n_i - dXi[n] Mth_i): one matmul
        # with the Gauss sum inner per term
        f_a = (_point_sum(_surface_sum(dNa, dta), g.n, self.wS)
               - _point_sum(dXi, Mth, self.wS))
        f_b = None
        if self.two_sided:
            f_b = _point_sum(_surface_sum(self.eq_b.dN, dab), g.nt, self.wS)
        na = f_a.shape[1]
        return f_a.reshape(self.nel, 3 * na), (
            None if f_b is None else f_b.reshape(self.nel, -1))

    def angle_rate(self, g: _EdgeGeometry, du_nodes):
        """dalpha . du at every point, (nel, ngp), for the node update
        du_nodes (n_nodes, 3): the force kernel's point terms with (cc, ss)
        = (S, -C) / rho^2, which make -(cc dC + ss dS) = (C dS - S dC) /
        rho^2 = dalpha, contracted with du before any Gauss sum."""
        rho2 = g.cosa ** 2 + g.sina ** 2
        dta, Mth, dab, *_ = self._point_terms(g, g.sina / rho2,
                                              -g.cosa / rho2)
        da = _at_points(self.eq_a.dN, du_nodes[self.eq_a.conn])
        rate = (np.sum(dta * dot3(g.n[:, :, None, :], da), axis=-1)
                - dot3(Mth, da[:, :, self.eq_a.xi_dir]))
        if self.two_sided:
            db = _at_points(self.eq_b.dN, du_nodes[self.eq_b.conn])
            rate += np.sum(dab * dot3(g.nt[:, :, None, :], db), axis=-1)
        return rate

    def _half_angle(self, g: _EdgeGeometry):
        """(c^, s^, cos(delta/2), sin(delta/2)) at every point: the unit
        direction of (C, S) and the half deviation from the rest angle."""
        rho = np.hypot(g.cosa, g.sina)
        ch, sh = g.cosa / rho, g.sina / rho
        delta = np.arctan2(sh * self.c0 - ch * self.s0,
                           ch * self.c0 + sh * self.s0)
        return ch, sh, np.cos(0.5 * delta), np.sin(0.5 * delta)

    def _tangent_kernel(self, g: _EdgeGeometry, cc, ss):
        """Stiffness blocks (K_aa, K_bb, K_ab) of the force kernel.

        Every term is a Gauss sum contracted as one matmul whose inner
        dimension is the edge Gauss point axis, in the forms of
        ``internal_forces``, so no per-Gauss-point nd x nd product is formed.
        Per Gauss point, weighted by wS, rows (n, i) and columns (m, j):

        - K_aa = (dt.n) (dN a^{ab} dN^T)[n, m] n_i n_j   (``_metric_kron``)
          - (C + C^T),  C = n_i ((dN a^c)[n, j] (dN dta)[m]
          + ss (dN vv)[n, j] dXi[m])                     (``_normal_kron``)
          + dXi[n] dXi[m] Qxx_ij, over (g, j') with left rows
          dXi[n] delta_{j'i} and right rows dXi[m] Qxx_{j'j} (``_gauss_sum``).
        - K_bb: the first two K_aa terms on side b, with (nt, a_b, dab).
        - K_ab = ss dXi[n] mnb[b, i] dNb[m, b] nt_j over (g, b)
          (``_gauss_sum``) - (dNa ahat dNb^T)[n, m] n_i nt_j (``_metric_kron``).
        """
        dNa = self.eq_a.dN
        dXi = dNa[..., self.eq_a.xi_dir]
        n, nt, tau, alen = g.n, g.nt, g.tau, g.alen
        wS = self.wS
        w4 = wS[..., None, None]
        eye = np.eye(3)

        dta, _, dab, theta, dt, dd = self._point_terms(g, cc, ss)
        dtn = dot3(dt, n)

        # cross variation of tau with the edge normal, explicit s0 weight
        w_nta = cross3(nt[:, :, None, :], g.aup_a)
        proj = dot3(w_nta, tau[:, :, None, :])
        vv = (w_nta - proj[..., None] * tau[:, :, None, :]) / alen[..., None, None]
        C = (_normal_kron(n, np.matmul(dNa, g.aup_a) * w4,
                          _surface_sum(dNa, dta))
             + _normal_kron(n, np.matmul(dNa, vv) * (wS * ss)[..., None, None],
                            dXi))
        K_aa = _metric_kron(dNa, g.acon_a * (wS * dtn)[..., None, None], n,
                            dNa, n) - C - C.swapaxes(1, 2)

        tth = dot3(tau, theta)
        tau_i, tau_j = tau[..., :, None], tau[..., None, :]
        Qxx = (tth[..., None, None] * (eye - 3.0 * (tau_i * tau_j))
               + theta[..., :, None] * tau_j
               + tau_i * theta[..., None, :]) / (alen ** 2)[..., None, None]
        K_aa += _gauss_sum(_kron_rows(dXi[:, :, None, :], eye),
                           _kron_rows((wS[..., None] * dXi)[:, :, None, :],
                                      Qxx))
        if not self.two_sided:
            return K_aa, None, None

        dNb = self.eq_b.dN
        dnt = dot3(dd, nt)
        Cb = _normal_kron(nt, np.matmul(dNb, g.aup_b) * w4,
                          _surface_sum(dNb, dab))
        K_bb = _metric_kron(dNb, g.acon_b * (wS * dnt)[..., None, None], nt,
                            dNb, nt) - Cb - Cb.swapaxes(1, 2)

        w_nb = cross3(n[:, :, None, :], g.aup_b)
        projb = dot3(w_nb, tau[:, :, None, :])
        mnb = (w_nb - projb[..., None] * tau[:, :, None, :]) / alen[..., None, None]
        ctb = cross3(tau[:, :, None, :], g.aup_b)
        ahat = (cc[..., None, None] * np.matmul(g.aup_a,
                                                g.aup_b.swapaxes(-1, -2))
                - ss[..., None, None] * np.matmul(g.aup_a,
                                                  ctb.swapaxes(-1, -2)))
        K_ab = (_gauss_sum(
            _kron_rows(((wS * ss)[..., None] * dXi)[:, :, None, :], mnb),
            _kron_rows(dNb.swapaxes(-1, -2), nt[:, :, None, :]))
            - _metric_kron(dNa, ahat * w4, n, dNb, nt))
        return K_aa, K_bb, K_ab

    # ------------------------------------------------------------------
    # penalty method

    def penalty_energy(self, x_nodes, method: Penalty) -> float:
        g = self._geometry(x_nodes)
        dens = 1.0 - self.c0 * g.cosa - self.s0 * g.sina
        return method.epsilon * float(np.sum(self.wS * dens))

    def penalty_pass(self, x_nodes, method: Penalty):
        """((f_a, f_b), finish): the penalty forces at x_nodes, and the
        finisher, which builds the stiffness from the same geometry
        evaluation.

        finish(m=None) returns (K_aa, K_bb, K_ab, predict).  With m None
        the blocks are the displacement tangent; with a moment field m
        (nel, ngp) they are the MIP tangent at m (module docstring), which
        is the displacement tangent to round-off at m = eps e(x_nodes).
        predict(du_nodes) returns the moment field for the next tangent,
        eps (e + cos(delta/2) dalpha . du), linear in the node update du
        from x_nodes.
        """
        g = self._geometry(x_nodes)
        eps = method.epsilon
        cc, ss = eps * self.c0, eps * self.s0

        def finish(m=None):
            ch, sh, cos_h, sin_h = self._half_angle(g)
            if m is None:
                K = self._tangent_kernel(g, cc, ss)
            else:
                P = eps * cos_h ** 2 - 0.5 * m * sin_h
                Q = m * cos_h
                K = self._tangent_kernel(g, P * ch + Q * sh, P * sh - Q * ch)
            return K + (lambda du_nodes: eps * (
                2.0 * sin_h + cos_h * self.angle_rate(g, du_nodes)),)

        return self._force_kernel(g, cc, ss), finish

    # ------------------------------------------------------------------
    # Lagrange multiplier method

    def n_multipliers(self, method: Multiplier) -> int:
        return self.nel if method.interp == "n2q0" else self.nel + 1

    def _q_tables(self, interp: str):
        Nq, qconn = self._q[interp]
        return Nq, qconn, Nq.shape[1]

    def _q_field(self, q, interp: str):
        """Multiplier field at the edge Gauss points, (nel, ngp)."""
        Nq, qconn = self._q[interp]
        return np.matmul(np.asarray(q)[qconn], Nq.T)

    def _g_field(self, g: _EdgeGeometry):
        cosd, sind = self._deviation(g)
        return 1.0 - cosd + sind

    def lm_energy(self, x_nodes, q, method: Multiplier) -> float:
        g = self._geometry(x_nodes)
        qg = self._q_field(q, method.interp)
        return float(np.sum(self.wS * qg * self._g_field(g)))

    def lm_pass(self, x_nodes, q, method: Multiplier):
        """((f_a, f_b, f_q), finish): the multiplier forces at x_nodes and
        q, and a function of no arguments that returns (K_aa, K_bb, K_ab,
        K_aq, K_bq) from the same geometry evaluation."""
        g = self._geometry(x_nodes)
        Nq, _, nql = self._q_tables(method.interp)
        qg = self._q_field(q, method.interp)
        sp, sm = self.s0 + self.c0, self.s0 - self.c0
        cc, ss = qg * sp, qg * sm
        f_a, f_b = self._force_kernel(g, cc, ss)
        f_q = np.matmul(self.wS * self._g_field(g), Nq)

        def finish():
            K_aa, K_bb, K_ab = self._tangent_kernel(g, cc, ss)
            K_aq = np.empty((self.nel, K_aa.shape[1], nql))
            K_bq = None if not self.two_sided else np.empty(
                (self.nel, K_bb.shape[1], nql))
            for l in range(nql):
                wl = np.broadcast_to(Nq[:, l], (self.nel, self.ngp))
                fa, fb = self._force_kernel(g, wl * sp, wl * sm)
                K_aq[:, :, l] = fa
                if self.two_sided:
                    K_bq[:, :, l] = fb
            return K_aa, K_bb, K_ab, K_aq, K_bq

        return (f_a, f_b, f_q), finish

    def max_angle_deviation(self, x_nodes) -> float:
        """Largest |alpha - alpha0| over the edge, for multiplier validity."""
        cosd, sind = self.angle_deviation(x_nodes)
        return float(np.abs(np.arctan2(sind, cosd)).max())
