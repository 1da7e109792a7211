"""Constitutive models for Kirchhoff-Love shells.

Each model maps a pair of metric states (reference, current) to the
work-conjugate stress measures

    tau^{ab} = 2 dW/da_ab   (membrane, weighted by the area stretch)
    M0^{ab}  = dW/db_ab     (bending, same weighting)

together with the four tangent blocks

    c = 2 dtau/da,  d = dtau/db,  e = 2 dM0/da,  f = dM0/db,

returned in raw Voigt (11, 22, 12) ordering.  Every law forms only those
3 x 3 entries, on the 9 Voigt pairs (``outer_voigt``, ``sym_voigt``); the
thickness-integrated one contracts a symmetric index pair as a sum over
the Voigt pairs weighted (1, 1, 2) (``_ddot_voigt``).  ``d`` and ``e`` satisfy
d^{abgd} = e^{gdab} whenever the stress derives from a potential; the
thickness-integrated model with exact area prefactors intentionally loses
the major symmetries of c and f.

All entry points are batched over an arbitrary leading shape.
"""

from __future__ import annotations

import numpy as np

from .kinematics import (
    MetricState,
    ddot22,
    det22,
    layer_coefficients,
    layer_metric,
    metric_state,
    outer_voigt,
    raise2,
    sym_voigt,
    to_voigt,
)

__all__ = [
    "lame_3d",
    "surface_lame",
    "KoiterMaterial",
    "CanhamMaterial",
    "MixedMaterial",
    "ProjectedNeoHooke",
]


def lame_3d(E: float, nu: float):
    """Classical 3D Lame parameters from Young's modulus and Poisson ratio."""
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = E / (2.0 * (1.0 + nu))
    return lam, mu


def surface_lame(lam3: float, mu3: float, thickness: float):
    """Surface moduli: Lambda = T 2 lam mu/(lam + 2 mu) (plane stress), mu = T mu."""
    return thickness * 2.0 * lam3 * mu3 / (lam3 + 2.0 * mu3), thickness * mu3


class ShellMaterial:
    """Interface shared by all models; also hosts the FD-perturbation hook."""

    def stress(self, ref: MetricState, cur: MetricState):
        raise NotImplementedError

    def energy(self, ref: MetricState, cur: MetricState):
        raise NotImplementedError

    def energy_perturbed(self, ref, cur, da, db):
        """Energy at (a + da, b + db); the projected model overrides this to
        apply its reduced-variation convention."""
        return self.energy(ref, metric_state(cur.a_cov + da, cur.b_cov + db))

    def stress_voigt(self, ref, cur):
        """(tau, M0) as (..., 6) in Voigt order (11, 22, 12) each."""
        tau, M0 = self.stress(ref, cur)
        return np.concatenate([to_voigt(tau), to_voigt(M0)], -1)

    def moduli_voigt(self, ref, cur):
        """(C, D, E4, F), each (..., 3, 3) in raw Voigt order."""
        raise NotImplementedError


class KoiterMaterial(ShellMaterial):
    """Quadratic membrane/bending law in the Green and curvature-change strains."""

    def __init__(self, lam: float, mu: float, thickness: float):
        self.lam = float(lam)
        self.mu = float(mu)
        self.thickness = float(thickness)

    @classmethod
    def from_youngs(cls, E: float, nu: float, thickness: float):
        lam, mu = surface_lame(*lame_3d(E, nu), thickness)
        return cls(lam, mu, thickness)

    def _strains(self, ref, cur):
        E = 0.5 * (cur.a_cov - ref.a_cov)
        K = cur.b_cov - ref.b_cov
        return E, K

    def stress(self, ref, cur):
        E, K = self._strains(ref, cur)
        A = ref.a_con
        trE = ddot22(A, E)
        trK = ddot22(A, K)
        E_up = raise2(A, E)
        K_up = raise2(A, K)
        tau = self.lam * trE[..., None, None] * A + 2.0 * self.mu * E_up
        bend = self.thickness ** 2 / 12.0
        M0 = bend * (self.lam * trK[..., None, None] * A + 2.0 * self.mu * K_up)
        return tau, M0

    def moduli_voigt(self, ref, cur):
        A = ref.a_con
        C = self.lam * outer_voigt(A, A) + 2.0 * self.mu * sym_voigt(A, A)
        zero = np.zeros_like(C)
        return C, zero, zero, self.thickness ** 2 / 12.0 * C

    def energy(self, ref, cur):
        E, K = self._strains(ref, cur)
        tau, M0 = self.stress(ref, cur)
        return 0.5 * (ddot22(tau, E) + ddot22(M0, K))


class CanhamMaterial(ShellMaterial):
    """Incompressible-leaning membrane (Neo-Hooke surface) plus curvature
    energy c J (2 H^2 - kappa) for initially planar reference states."""

    def __init__(self, lam: float, mu: float, bend: float):
        self.lam = float(lam)
        self.mu = float(mu)
        self.bend = float(bend)

    def _invariants(self, ref, cur):
        J = cur.jac / ref.jac
        I1 = ddot22(ref.a_con, cur.a_cov)
        return J, I1

    def stress(self, ref, cur):
        J, _ = self._invariants(ref, cur)
        Jn = J[..., None, None]
        H = cur.H[..., None, None]
        kap = cur.kappa[..., None, None]
        tau = (0.5 * self.lam * (J ** 2 - 1.0)[..., None, None] * cur.a_con
               + self.mu * (ref.a_con - cur.a_con)
               + self.bend * Jn * (2.0 * H ** 2 + kap) * cur.a_con
               - 4.0 * self.bend * Jn * H * cur.b_con)
        M0 = self.bend * Jn * cur.b_con
        return tau, M0

    def moduli_voigt(self, ref, cur):
        J, _ = self._invariants(ref, cur)
        a, b = cur.a_con, cur.b_con
        S = sym_voigt(a, a)
        T4 = sym_voigt(a, b) + sym_voigt(b, a)
        aa, ab, ba = outer_voigt(a, a), outer_voigt(a, b), outer_voigt(b, a)
        J2 = (J ** 2)[..., None, None]
        Hn = cur.H[..., None, None]
        kn = cur.kappa[..., None, None]
        Jn = J[..., None, None]
        C = (self.lam * (J2 * aa - (J2 - 1.0) * S)
             + 2.0 * self.mu * S
             + self.bend * Jn * ((2.0 * Hn ** 2 - kn) * aa
                                 - 4.0 * Hn * (ab + ba)
                                 - 2.0 * (2.0 * Hn ** 2 + kn) * S
                                 + 4.0 * outer_voigt(b, b) + 8.0 * Hn * T4))
        D = self.bend * Jn * (4.0 * Hn * aa - ab - 2.0 * ba - 4.0 * Hn * S)
        E4 = self.bend * Jn * (ba - 2.0 * T4)
        F = self.bend * Jn * S
        return C, D, E4, F

    def energy(self, ref, cur):
        J, I1 = self._invariants(ref, cur)
        W = (0.25 * self.lam * (J ** 2 - 1.0 - 2.0 * np.log(J))
             + 0.5 * self.mu * (I1 - 2.0 - 2.0 * np.log(J))
             + self.bend * J * (2.0 * cur.H ** 2 - cur.kappa))
        return W


class MixedMaterial(ShellMaterial):
    """Neo-Hooke surface membrane combined with the quadratic bending law."""

    def __init__(self, lam: float, mu: float, thickness: float):
        self.lam = float(lam)
        self.mu = float(mu)
        self.thickness = float(thickness)
        self._membrane = CanhamMaterial(lam, mu, 0.0)
        self._bending = KoiterMaterial(lam, mu, thickness)

    @classmethod
    def from_youngs(cls, E: float, nu: float, thickness: float):
        lam, mu = surface_lame(*lame_3d(E, nu), thickness)
        return cls(lam, mu, thickness)

    def stress(self, ref, cur):
        tau, _ = self._membrane.stress(ref, cur)
        _, M0 = self._bending.stress(ref, cur)
        return tau, M0

    def moduli_voigt(self, ref, cur):
        C = self._membrane.moduli_voigt(ref, cur)[0]
        zero = np.zeros_like(C)
        return C, zero, zero, self._bending.moduli_voigt(ref, cur)[3]

    def energy(self, ref, cur):
        K = cur.b_cov - ref.b_cov
        _, M0 = self._bending.stress(ref, cur)
        return (self._membrane.energy(ref, cur)
                + 0.5 * ddot22(M0, K))


def _gauss_legendre(n: int, half_width: float):
    x, w = np.polynomial.legendre.leggauss(n)
    return x * half_width, w * half_width


_I_VOIGT = sym_voigt(np.eye(2), np.eye(2))     # the symmetric identity
_PAIR_WEIGHTS = np.array([1.0, 1.0, 2.0])      # Voigt pairs in a sum over e, h


def _ddot_voigt(A, B):
    """sum_{eh} A[..., I, (e, h)] B[..., (e, h), J] of Voigt matrices (..., k,
    3) and (..., 3, 3) whose (e, h) index pair is symmetric: the (1, 2)
    pair stands for (2, 1) too, so it counts twice."""
    return np.matmul(A * _PAIR_WEIGHTS, B)


class ProjectedNeoHooke(ShellMaterial):
    """Thickness-integrated 3D Neo-Hooke with statically condensed normal
    stretch (plane stress through the thickness).

    ``reduction`` selects how the layer stresses are collapsed into surface
    measures: "exact" keeps the through-thickness area prefactors (default,
    tangents lose major symmetry), "simple" drops them.
    """

    def __init__(self, lam: float, mu: float, thickness: float,
                 incompressible: bool = False, reduction: str = "exact",
                 n_thickness: int = 3):
        if reduction not in ("exact", "simple"):
            raise ValueError("reduction must be 'exact' or 'simple'")
        self.lam = float(lam)
        self.mu = float(mu)
        self.thickness = float(thickness)
        self.incompressible = bool(incompressible)
        self.reduction = reduction
        self.xi, self.wts = _gauss_legendre(int(n_thickness), 0.5 * thickness)

    @classmethod
    def from_youngs(cls, E: float, nu: float, thickness: float, **kw):
        return cls(*lame_3d(E, nu), thickness, **kw)

    # -- layer machinery -------------------------------------------------

    def _layer(self, ref, cur, xi):
        G_cov, G_con, s0 = layer_metric(ref, xi)
        g_cov, g_con, s = layer_metric(cur, xi)
        Js = np.sqrt(det22(g_cov) / det22(G_cov))
        return G_cov, G_con, s0, g_cov, g_con, s, Js

    def _fJ(self, Js):
        """Coefficient f with tau~ = mu G_con + f g_con, and its derivative."""
        if self.incompressible:
            f = -self.mu / Js ** 2
            fp = 2.0 * self.mu / Js ** 3
        else:
            denom = self.lam * Js ** 2 + 2.0 * self.mu
            f = -self.mu * (self.lam + 2.0 * self.mu) / denom
            fp = 2.0 * self.lam * self.mu * (self.lam + 2.0 * self.mu) * Js / denom ** 2
        return f, fp

    def lambda3(self, Js):
        """Normal stretch solving the zero normal-stress condition."""
        if self.incompressible:
            return 1.0 / Js
        return np.sqrt((self.lam + 2.0 * self.mu) / (self.lam * Js ** 2 + 2.0 * self.mu))

    def _layer_energy(self, G_con, g_cov, Js):
        I1s = ddot22(g_cov, G_con)
        lam3 = self.lambda3(Js)
        if self.incompressible:
            # J~ = Js * lam3 = 1 exactly, pressure term drops
            return 0.5 * self.mu * (I1s + lam3 ** 2 - 3.0)
        I1t = I1s + lam3 ** 2
        Jt = Js * lam3
        return (0.25 * self.lam * (Jt ** 2 - 1.0 - 2.0 * np.log(Jt))
                + 0.5 * self.mu * (I1t - 3.0 - 2.0 * np.log(Jt)))

    # -- interface -------------------------------------------------------

    def stress(self, ref, cur):
        shape = cur.a_cov.shape
        tau = np.zeros(shape)
        M0 = np.zeros(shape)
        for xi, w in zip(self.xi, self.wts):
            _, G_con, s0, g_cov, g_con, _, Js = self._layer(ref, cur, xi)
            f, _ = self._fJ(Js)
            tau_l = self.mu * G_con + f[..., None, None] * g_con
            if self.reduction == "exact":
                g_a, g_b, _ = layer_coefficients(cur.H, cur.kappa, xi)
                tau += w * (s0 * g_a)[..., None, None] * tau_l
                M0 += w * (s0 * 0.5 * g_b)[..., None, None] * tau_l
            else:
                tau += w * tau_l
                M0 += -w * xi * tau_l
        return tau, M0

    def moduli_voigt(self, ref, cur):
        shape = cur.a_cov.shape[:-2] + (3, 3)
        C, D, E4, F = (np.zeros(shape) for _ in range(4))
        a_con, b_con = cur.a_con, cur.b_con
        bt_con = cur.b_adj_con
        a_cov, b_cov = cur.a_cov, cur.b_cov
        H, kap = cur.H, cur.kappa
        for xi, w in zip(self.xi, self.wts):
            _, G_con, s0, g_cov, g_con, _, Js = self._layer(ref, cur, xi)
            f, fp = self._fJ(Js)
            tau_l = self.mu * G_con + f[..., None, None] * g_con
            g_a, g_b, _ = layer_coefficients(H, kap, xi)
            gan, gbn = g_a[..., None, None], g_b[..., None, None]
            kxi2 = (kap * xi ** 2)[..., None, None]
            # dg_eh/da_cd and dg_eh/db_cd including the coefficient variations
            Da = (gan * _I_VOIGT + kxi2 * outer_voigt(a_cov, a_con)
                  - xi ** 2 * outer_voigt(b_cov, b_con))
            Db = (gbn * _I_VOIGT - xi ** 2 * outer_voigt(a_cov, bt_con)
                  + xi ** 2 * outer_voigt(b_cov, a_con))
            g_row = to_voigt(g_con)[..., None, :]               # (..., 1, 3)
            g_col = g_row.swapaxes(-1, -2)
            g4 = -sym_voigt(g_con, g_con)
            # g^{ab} (g^{eh} dg_eh/d.), an outer product of Voigt vectors
            gDa = g_col * _ddot_voigt(g_row, Da)
            gDb = g_col * _ddot_voigt(g_row, Db)
            Jfp = (Js * fp)[..., None, None]
            fn = f[..., None, None]
            ct = Jfp * gDa + 2.0 * fn * _ddot_voigt(g4, Da)
            dt = 0.5 * Jfp * gDb + fn * _ddot_voigt(g4, Db)
            if self.reduction == "exact":
                s0n = s0[..., None, None]
                C += w * s0n * (2.0 * kxi2 * outer_voigt(tau_l, a_con)
                                + gan * ct)
                D += w * s0n * (-xi ** 2 * outer_voigt(tau_l, bt_con)
                                + gan * dt)
                E4 += w * s0n * (-xi ** 2 * outer_voigt(tau_l, b_con)
                                 + 0.5 * gbn * ct)
                F += w * s0n * (0.5 * xi ** 2 * outer_voigt(tau_l, a_con)
                                + 0.5 * gbn * dt)
            else:
                C += w * ct
                D += w * dt
                E4 += -w * xi * ct
                F += -w * xi * dt
        return C, D, E4, F

    def energy(self, ref, cur):
        # the simple reduction is work-conjugate to the unweighted thickness
        # integral; only the exact one carries the reference volume element
        W = np.zeros(cur.a_cov.shape[:-2])
        for xi, w in zip(self.xi, self.wts):
            _, G_con, s0, g_cov, _, _, Js = self._layer(ref, cur, xi)
            wt = w * s0 if self.reduction == "exact" else w
            W = W + wt * self._layer_energy(G_con, g_cov, Js)
        return W

    def energy_perturbed(self, ref, cur, da, db):
        """Reduced-variation convention: the layer metric is perturbed as
        g + g_a da + g_b db with base-state coefficients, which makes the
        reduced (tau, M0) the exact energy gradient."""
        W = np.zeros(cur.a_cov.shape[:-2])
        for xi, w in zip(self.xi, self.wts):
            G_cov, G_con, s0, g_cov, _, _, _ = self._layer(ref, cur, xi)
            if self.reduction == "exact":
                g_a, g_b, _ = layer_coefficients(cur.H, cur.kappa, xi)
                wt = w * s0
            else:
                g_a = np.ones_like(cur.H)
                g_b = np.full_like(cur.H, -2.0 * xi)
                wt = w * np.ones_like(s0)
            g_p = (g_cov + g_a[..., None, None] * da + g_b[..., None, None] * db)
            Js = np.sqrt(det22(g_p) / det22(G_cov))
            W = W + wt * self._layer_energy(G_con, g_p, Js)
        return W
