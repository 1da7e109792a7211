"""Surface differential geometry at (batched) material points.

All routines accept arrays with an arbitrary leading batch shape; tensors of
second order are (..., 2, 2) in covariant surface coordinates.  Voigt order
is (11, 22, 12), and the conversion helpers keep the raw tensor components
(no shear doubling) unless explicitly requested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricState",
    "metric_state",
    "cross3",
    "dot3",
    "ddot22",
    "surface_basis",
    "surface_vectors_state",
    "inverse_metric",
    "det22",
    "inv22",
    "raise2",
    "to_voigt",
    "from_voigt",
    "outer_voigt",
    "sym_voigt",
    "layer_coefficients",
    "layer_metric",
]


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis of length 3, broadcast like
    ``np.cross`` and equal to it bit for bit, without its per-call axis
    handling, which costs more than the arithmetic on small arrays."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0], axis=-1)


def dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis of length 3, componentwise."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def ddot22(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A : B of (..., 2, 2) tensors: one (1 x 4)(4 x 1) matmul per point."""
    return np.matmul(A.reshape(A.shape[:-2] + (1, 4)),
                     B.reshape(B.shape[:-2] + (4, 1)))[..., 0, 0]


def det22(M: np.ndarray) -> np.ndarray:
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def inv22(M: np.ndarray) -> np.ndarray:
    d = det22(M)
    out = np.empty_like(M)
    out[..., 0, 0] = M[..., 1, 1]
    out[..., 1, 1] = M[..., 0, 0]
    out[..., 0, 1] = -M[..., 0, 1]
    out[..., 1, 0] = -M[..., 1, 0]
    return out / d[..., None, None]


def raise2(a_con: np.ndarray, M_cov: np.ndarray) -> np.ndarray:
    """Raise both indices of a covariant tensor with the given inverse metric."""
    return np.matmul(np.matmul(a_con, M_cov), a_con)


def to_voigt(M: np.ndarray) -> np.ndarray:
    """(..., 2, 2) symmetric tensor -> (..., 3) in order (11, 22, 12)."""
    return np.stack([M[..., 0, 0], M[..., 1, 1], M[..., 0, 1]], axis=-1)


def from_voigt(v: np.ndarray) -> np.ndarray:
    """(..., 3) in order (11, 22, 12) -> (..., 2, 2) symmetric tensor."""
    out = np.empty(v.shape[:-1] + (2, 2))
    out[..., 0, 0] = v[..., 0]
    out[..., 1, 1] = v[..., 1]
    out[..., 0, 1] = out[..., 1, 0] = v[..., 2]
    return out


_VOIGT_PAIRS = ((0, 0), (1, 1), (0, 1))
# first and second index of each Voigt pair, as rows (a, b) and columns
# (c, d) of a Voigt matrix
_VA, _VB = np.array(_VOIGT_PAIRS).T[:, :, None]
_VC, _VD = np.array(_VOIGT_PAIRS).T[:, None, :]


def outer_voigt(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^{ab} B^{cd} as a raw Voigt 3x3 (rows (a, b), columns (c, d)),
    formed on the 9 Voigt pairs only."""
    return A[..., _VA, _VB] * B[..., _VC, _VD]


def sym_voigt(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """1/2 (A^{ac} B^{bd} + A^{ad} B^{bc}) as a raw Voigt 3x3, formed on
    the 9 Voigt pairs only."""
    return 0.5 * (A[..., _VA, _VC] * B[..., _VB, _VD]
                  + A[..., _VA, _VD] * B[..., _VB, _VC])


@dataclass
class MetricState:
    """First and second fundamental forms with the usual derived fields."""

    a_cov: np.ndarray   # (..., 2, 2)
    b_cov: np.ndarray   # (..., 2, 2)
    a_con: np.ndarray
    det_a: np.ndarray
    jac: np.ndarray     # sqrt(det a)
    b_con: np.ndarray   # both indices raised with a_con
    H: np.ndarray       # mean curvature
    kappa: np.ndarray   # Gaussian curvature

    @property
    def b_adj_con(self) -> np.ndarray:
        """2 H a^{ab} - b^{ab}, the contravariant adjugate of curvature."""
        return 2.0 * self.H[..., None, None] * self.a_con - self.b_con


def inverse_metric(a_cov: np.ndarray):
    """(det a, a^{ab}) of a covariant metric; raises ValueError where it is
    degenerate."""
    det_a = det22(a_cov)
    if np.any(det_a <= 0.0):
        raise ValueError("degenerate surface metric (det <= 0)")
    return det_a, inv22(a_cov)


def metric_state(a_cov: np.ndarray, b_cov: np.ndarray) -> MetricState:
    a_cov = np.asarray(a_cov, dtype=float)
    b_cov = np.asarray(b_cov, dtype=float)
    det_a, a_con = inverse_metric(a_cov)
    b_con = raise2(a_con, b_cov)
    H = 0.5 * ddot22(a_con, b_cov)
    kappa = det22(b_cov) / det_a
    return MetricState(a_cov, b_cov, a_con, det_a, np.sqrt(det_a), b_con, H, kappa)


def surface_basis(a_vec: np.ndarray):
    """(a_cov (..., 2, 2), normal (..., 3)): the covariant metric and unit
    normal of the covariant tangents a_vec (..., 2, 3)."""
    a1, a2 = a_vec[..., 0, :], a_vec[..., 1, :]
    a_cov = np.empty(a_vec.shape[:-2] + (2, 2))
    a_cov[..., 0, 0] = dot3(a1, a1)
    a_cov[..., 1, 1] = dot3(a2, a2)
    a_cov[..., 0, 1] = a_cov[..., 1, 0] = dot3(a1, a2)
    cr = cross3(a1, a2)
    return a_cov, cr / np.sqrt(dot3(cr, cr))[..., None]


def surface_vectors_state(a_vec: np.ndarray, h_vec: np.ndarray):
    """Metric state plus normal from tangent vectors and second derivatives.

    a_vec: (..., 2, 3) covariant tangents; h_vec: (..., 3, 3) second
    derivatives of the map with rows ordered (11, 22, 12).

    Returns (state, normal) where normal is (..., 3).
    """
    a_cov, normal = surface_basis(a_vec)
    b_flat = dot3(h_vec, normal[..., None, :])          # (11, 22, 12)
    b_cov = from_voigt(b_flat)
    return metric_state(a_cov, b_cov), normal


# ---------------------------------------------------------------------------
# through-thickness layer metrics (projected 3D models)


def layer_coefficients(H: np.ndarray, kappa: np.ndarray, xi: float):
    """Coefficients of the shifted metric at thickness coordinate xi.

    Returns (g_a, g_b, s): g_ab = g_a a_ab + g_b b_ab, with shifter
    determinant ratio s = 1 - 2 H xi + kappa xi^2.
    """
    g_a = 1.0 - xi ** 2 * kappa
    g_b = -2.0 * xi + 2.0 * H * xi ** 2
    s = 1.0 - 2.0 * H * xi + kappa * xi ** 2
    return g_a, g_b, s


def layer_metric(state: MetricState, xi: float):
    """Covariant and contravariant layer metric at ``xi``.

    The contravariant form uses the closed-form coefficients
    g^a = s^-2 (g_a + 2 H g_b), g^b = -s^-2 g_b, which reproduce the exact
    matrix inverse of the covariant layer metric.
    """
    g_a, g_b, s = layer_coefficients(state.H, state.kappa, xi)
    g_cov = g_a[..., None, None] * state.a_cov + g_b[..., None, None] * state.b_cov
    ga_con = (g_a + 2.0 * state.H * g_b) / s ** 2
    gb_con = -g_b / s ** 2
    g_con = ga_con[..., None, None] * state.a_con + gb_con[..., None, None] * state.b_con
    return g_cov, g_con, s
