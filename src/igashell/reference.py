"""Closed-form and series reference solutions for the benchmark problems.

Three independent references are provided: the sinusoidally loaded simply
supported plate (single-mode Kirchhoff solution), the pinched cylinder with
rigid end diaphragms (double Fourier series on the classical cylindrical
shell equations), and large-deformation pure bending of a strip (constant
curvature state of the curvature-energy material, flat or with a fold).
They are deliberately built on different theory than the FE code so that
agreement is meaningful.
"""

from dataclasses import dataclass

import numpy as np


def navier_plate_center_deflection(p0: float, L: float, E: float, nu: float,
                                   T: float) -> float:
    """Center deflection of a simply supported square plate of side L under
    the pressure p0 sin(pi x/L) sin(pi y/L)."""
    D = E * T ** 3 / (12.0 * (1.0 - nu ** 2))
    return p0 * L ** 4 / (4.0 * np.pi ** 4 * D)


# ---------------------------------------------------------------------------
# pinched cylinder with rigid end diaphragms


@dataclass(frozen=True)
class FluggeCylinder:
    """Double-Fourier solution of the radially pinched cylinder.

    n_loads equally spaced radial point loads of magnitude P act at midspan;
    the ends are held by rigid diaphragms (v = w = 0).  Displacements are
    expanded in cos/sin products and each Fourier mode (m, n) satisfies a
    symmetric 3x3 system; only odd n carry load.
    """

    R: float
    L: float
    T: float
    E: float
    nu: float
    P: float
    n_loads: int = 2

    def _mode_arrays(self, m, n):
        """Matrix entries and load of modes (m, n); m scalar, n array (odd)."""
        R, L, T, nu = self.R, self.L, self.T, self.nu
        k = T ** 2 / (12.0 * R ** 2)
        d = self.E * T / (1.0 - nu ** 2)
        lam = n * np.pi * R / L
        Nm = self.n_loads * m
        A11 = lam ** 2 + 0.5 * (1.0 - nu) * Nm ** 2 * (1.0 + k)
        A12 = -0.5 * (1.0 + nu) * lam * Nm
        A13 = -nu * lam - k * (lam ** 3 - 0.5 * (1.0 - nu) * lam * Nm ** 2)
        A22 = Nm ** 2 + 0.5 * (1.0 - nu) * lam ** 2 * (1.0 + 3.0 * k)
        A23 = Nm + 0.5 * (3.0 - nu) * k * lam ** 2 * Nm
        A33 = 1.0 + k * (lam ** 4 + 2.0 * lam ** 2 * Nm ** 2 + Nm ** 4
                         - 2.0 * Nm ** 2 + 1.0)
        base = self.n_loads * self.P / (np.pi * R * L)
        pr = np.where(n % 2 == 1, np.float64(base), 0.0)
        pr = pr * np.where((n - 1) // 2 % 2 == 0, 1.0, -1.0)
        pr = pr * np.where(np.asarray(m) == 0, 1.0, 2.0)
        rhs = pr * R ** 2 / d
        return A11, A12, A13, A22, A23, A33, rhs

    def mode_coefficients(self, m, n):
        """Solve the per-mode system for (u_mn, v_mn, w_mn); n may be an array."""
        n = np.asarray(n)
        A11, A12, A13, A22, A23, A33, rhs = self._mode_arrays(m, n)
        det = (A11 * (A22 * A33 - A23 ** 2) - A12 * (A12 * A33 - A23 * A13)
               + A13 * (A12 * A23 - A22 * A13))
        scale = np.maximum(np.abs(A11), np.maximum(np.abs(A22), np.abs(A33)))
        bad = np.abs(det) <= 1e-14 * scale ** 3
        if np.any(bad):
            nb = np.atleast_1d(n)[np.atleast_1d(bad)][0]
            raise ArithmeticError(f"singular Fourier mode m={m}, n={int(nb)}")
        u = rhs * (A12 * A23 - A13 * A22) / det
        v = rhs * (A13 * A12 - A11 * A23) / det
        w = rhs * (A11 * A22 - A12 ** 2) / det
        return u, v, w

    def displacement(self, x: float, phi: float, m_max: int, n_max: int):
        """(axial, circumferential, radial) displacement of the series."""
        n = np.arange(1, n_max + 1, 2)
        lam = n * np.pi * self.R / self.L
        su, sv, sw = 0.0, 0.0, 0.0
        for m in range(0, m_max + 1):
            um, vm, wm = self.mode_coefficients(m, n)
            cm = np.cos(self.n_loads * m * phi)
            sm = np.sin(self.n_loads * m * phi)
            su += cm * np.sum(um * np.cos(lam * x / self.R))
            sv += sm * np.sum(vm * np.sin(lam * x / self.R))
            sw += cm * np.sum(wm * np.sin(lam * x / self.R))
        return su, sv, sw

    def load_point_deflection(self, m_max: int = 8192, n_max: int = 8192,
                              tol: float = 1e-14, patience: int = 200) -> float:
        """Radial deflection magnitude under one pinching load.

        The double series is summed over all m for each odd n; summation
        stops early once the per-n increments stay below tol for `patience`
        consecutive odd n, which avoids the flat tail of the slowly
        converging point-load series.
        """
        m = np.arange(0, m_max + 1)[:, None]
        total = 0.0
        calm = 0
        chunk = 256
        n_all = np.arange(1, n_max + 1, 2)
        for start in range(0, len(n_all), chunk):
            n = n_all[start:start + chunk][None, :]
            _, _, w = self._coeff_grid(m, n)
            signs = np.where((n[0] - 1) // 2 % 2 == 0, 1.0, -1.0)
            incr = signs * w.sum(axis=0)
            total += incr.sum()
            for v in np.abs(incr):
                calm = calm + 1 if v < tol else 0
            if calm >= patience:
                break
        return abs(total)

    def _coeff_grid(self, m, n):
        """Cramer solve on a full (m, n) grid; m column / n row vectors."""
        A11, A12, A13, A22, A23, A33, rhs = self._mode_arrays(m, n)
        det = (A11 * (A22 * A33 - A23 ** 2) - A12 * (A12 * A33 - A23 * A13)
               + A13 * (A12 * A23 - A22 * A13))
        u = rhs * (A12 * A23 - A13 * A22) / det
        v = rhs * (A13 * A12 - A11 * A23) / det
        w = rhs * (A11 * A22 - A12 ** 2) / det
        return u, v, w


# ---------------------------------------------------------------------------
# pure bending of a strip


@dataclass(frozen=True)
class PureBending:
    """Constant-curvature bending of a strip of the curvature-energy model.

    mu and lam are the surface shear and first moduli, c the bending
    stiffness, M the applied moment per unit current length.  All stress
    components vanish in-plane; the strip rolls into a cylinder of curvature
    kappa1 = M/c with uniform stretches lambda1 (along the bent direction)
    and lambda2 (across).
    """

    mu: float
    lam: float
    c: float
    M: float

    @property
    def kappa1(self) -> float:
        return self.M / self.c

    @property
    def a0(self) -> float:
        t = self.M ** 2 / (2.0 * self.mu * self.c)
        return t + np.sqrt(t * t + 1.0)

    @property
    def lambda1(self) -> float:
        mb = self.mu / (2.0 * self.lam)
        a2 = self.a0 ** 2
        inner = np.sqrt(mb * mb * (a2 + 1.0) ** 2 + a2 * (4.0 * mb + 1.0))
        return float(np.sqrt(-mb * (a2 + 1.0) + inner))

    @property
    def lambda2(self) -> float:
        return self.lambda1 / self.a0

    def deformed_point(self, s, X2, s_fold=None, beta0=0.0):
        """Deformed position of the material point (s, X2).

        s is the reference arclength along the strip, X2 the width
        coordinate.  The clamped end s = 0 keeps position, tangent and
        normal; bending is toward +z.  With a fold at s_fold the tangent
        angle jumps by beta0 there.
        """
        s = np.asarray(s, dtype=float)
        X2 = np.asarray(X2, dtype=float)
        if self.M == 0.0:
            # zero-curvature limit: the reference strip itself
            if s_fold is None:
                x, z = s, np.zeros_like(s)
            else:
                ds = np.clip(s - s_fold, 0.0, None)
                x = np.minimum(s, s_fold) + ds * np.cos(beta0)
                z = ds * np.sin(beta0)
            return np.stack([x, np.broadcast_to(X2, s.shape), z], axis=-1)
        k, l1, l2 = self.kappa1, self.lambda1, self.lambda2
        rho = 1.0 / k
        psi = l1 * k * s
        if s_fold is None:
            x = rho * np.sin(psi)
            z = rho * (1.0 - np.cos(psi))
        else:
            psi_f = l1 * k * s_fold
            after = s > s_fold
            psi = psi + beta0 * after
            x = np.where(~after, rho * np.sin(psi),
                         rho * np.sin(psi_f)
                         + rho * (np.sin(psi) - np.sin(psi_f + beta0)))
            z = np.where(~after, rho * (1.0 - np.cos(psi)),
                         rho * (1.0 - np.cos(psi_f))
                         + rho * (np.cos(psi_f + beta0) - np.cos(psi)))
        y = l2 * np.broadcast_to(X2, s.shape)
        return np.stack([x, y, z], axis=-1)


# ---------------------------------------------------------------------------
# displacement error functional


def l2_displacement_error(quads, x_nodes, exact_fn, area: float,
                          ref_coords) -> float:
    """Root mean square displacement error over the reference surface.

    quads: patch quadrature tables; exact_fn(patch_index, X) maps reference
    points (..., 3) to exact displacements; area is the normalization (the
    reference strip area).  ref_coords holds the reference node positions.
    """
    total = 0.0
    for pi, pq in enumerate(quads):
        u_h = np.einsum("egn,eni->egi", pq.N,
                        x_nodes[pq.conn] - ref_coords[pq.conn])
        diff = u_h - exact_fn(pi, pq.X)
        total += float(np.sum(pq.wq * pq.jac0
                              * np.sum(diff ** 2, axis=-1)))
    return np.sqrt(total / area)
