"""Tests for the closed-form and series reference solutions.

The series cylinder solution is checked against two published truncation
values; the bending solution against its own defining identities (constant
mean curvature of the deformed surface, stretch formulas) evaluated through
finite differences of the parametrization, which never touches the shell
code itself.
"""

import numpy as np
import pytest

from igashell.elements import PatchQuadrature
from igashell.geometry import Mesh, make_plate
from igashell.reference import (FluggeCylinder, PureBending,
                                l2_displacement_error,
                                navier_plate_center_deflection)


# ---------------------------------------------------------------------------
# sinusoidally loaded plate


def test_navier_plate_direct_value():
    # benchmark parameters; D = E T^3 / (12 (1 - nu^2))
    E, nu, T, L, p0 = 4.8e5, 0.38, 0.375, 12.0, 1.0
    D = E * T ** 3 / (12.0 * (1.0 - nu ** 2))
    expected = p0 * L ** 4 / (4.0 * np.pi ** 4 * D)
    got = navier_plate_center_deflection(p0, L, E, nu, T)
    assert got == pytest.approx(expected, rel=1e-14)
    assert 0.02 < got < 0.025  # magnitude sanity for these numbers


def test_navier_plate_scalings():
    w = navier_plate_center_deflection(1.0, 12.0, 4.8e5, 0.38, 0.375)
    half_thick = navier_plate_center_deflection(1.0, 12.0, 4.8e5, 0.38,
                                                0.375 / 2.0)
    assert half_thick == pytest.approx(8.0 * w, rel=1e-12)
    double_load = navier_plate_center_deflection(2.0, 12.0, 4.8e5, 0.38, 0.375)
    assert double_load == pytest.approx(2.0 * w, rel=1e-12)


# ---------------------------------------------------------------------------
# pinched cylinder series


@pytest.fixture(scope="module")
def cylinder():
    return FluggeCylinder(R=300.0, L=600.0, T=3.0, E=3e6, nu=0.3, P=1.0)


def test_flugge_literature_truncation(cylinder):
    # the classical literature value keeps 80 x 80 terms: cos modes m < 80
    # and the odd halves of 157 sine terms
    w = cylinder.load_point_deflection(m_max=79, n_max=157, tol=0.0)
    assert w == pytest.approx(1.82488e-5, rel=1e-5)


def test_flugge_converged_truncation(cylinder):
    w = cylinder.load_point_deflection()
    assert w == pytest.approx(1.827158e-5, rel=1e-6)


def test_flugge_early_termination_is_mild(cylinder):
    full = cylinder.load_point_deflection(m_max=2048, n_max=2048, tol=0.0)
    cut = cylinder.load_point_deflection(m_max=2048, n_max=2048)
    assert abs(cut - full) <= 1e-6 * full


def test_flugge_displacement_components_at_load(cylinder):
    # under the load (midspan) the axial and tangential series vanish and
    # the radial one reproduces the deflection sum
    u, v, w = cylinder.displacement(cylinder.L / 2.0, 0.0, 64, 255)
    assert abs(u) < 1e-12 and abs(v) < 1e-12
    direct = cylinder.load_point_deflection(m_max=64, n_max=255, tol=0.0)
    assert abs(w) == pytest.approx(direct, rel=1e-12)


def test_flugge_diaphragm_conditions(cylinder):
    # rigid end diaphragms suppress tangential and radial motion at x = 0
    _, v, w = cylinder.displacement(0.0, 0.4, 48, 95)
    assert abs(v) < 1e-14
    assert abs(w) < 1e-14


def test_flugge_mode_magnitude_decay(cylinder):
    _, _, w1 = cylinder.mode_coefficients(1, np.array([1]))
    _, _, w2 = cylinder.mode_coefficients(40, np.array([301]))
    assert abs(w2[0]) < 1e-4 * abs(w1[0])


# ---------------------------------------------------------------------------
# pure bending of a strip


def fd_mean_curvature(fn, s, t, h):
    """Mean curvature of the surface fn(s, t) by five-point differences."""

    def d1(g, a, b, da, db):
        num = (-g(a + 2 * da, b + 2 * db) + 8 * g(a + da, b + db)
               - 8 * g(a - da, b - db) + g(a - 2 * da, b - 2 * db))
        return num / (12.0 * h)

    def d2(g, a, b, da, db):
        num = (-g(a + 2 * da, b + 2 * db) + 16 * g(a + da, b + db)
               - 30 * g(a, b) + 16 * g(a - da, b - db)
               - g(a - 2 * da, b - 2 * db))
        return num / (12.0 * h * h)

    xs = d1(fn, s, t, h, 0.0)
    xt = d1(fn, s, t, 0.0, h)
    xss = d2(fn, s, t, h, 0.0)
    xtt = d2(fn, s, t, 0.0, h)
    fmix = lambda a, b: d1(fn, a, b, h, 0.0)
    xst = d1(fmix, s, t, 0.0, h)
    E, F, G = xs @ xs, xs @ xt, xt @ xt
    n = np.cross(xs, xt)
    n /= np.linalg.norm(n)
    L, M, N = xss @ n, xst @ n, xtt @ n
    return (E * N - 2.0 * F * M + G * L) / (2.0 * (E * G - F * F))


@pytest.fixture(scope="module")
def bending():
    # width L = 1 sets the scale; surface moduli in units of c
    return PureBending(mu=10.0, lam=5.0, c=1.0, M=1.0)


def test_pure_bending_zero_moment_is_identity():
    pb = PureBending(mu=10.0, lam=5.0, c=1.0, M=0.0)
    s = np.linspace(0.0, np.pi, 7)
    pts = pb.deformed_point(s, 0.3)
    assert np.allclose(pts[:, 0], s, atol=1e-15)
    assert np.allclose(pts[:, 1], 0.3, atol=1e-15)
    assert np.allclose(pts[:, 2], 0.0, atol=1e-15)


def test_pure_bending_stretch_values(bending):
    # a0 from its defining quadratic, stretches from the zero-stress system
    t = 1.0 / 20.0
    a0 = t + np.sqrt(t * t + 1.0)
    assert bending.a0 == pytest.approx(a0, rel=1e-14)
    assert bending.kappa1 == pytest.approx(1.0)
    l1, l2 = bending.lambda1, bending.lambda2
    mb = 10.0 / (2.0 * 5.0)
    inner = np.sqrt(mb ** 2 * (a0 ** 2 + 1.0) ** 2
                    + a0 ** 2 * (4.0 * mb + 1.0))
    assert l1 == pytest.approx(np.sqrt(-mb * (a0 ** 2 + 1.0) + inner),
                               rel=1e-14)
    assert l2 == pytest.approx(l1 / a0, rel=1e-14)


def test_pure_bending_constant_mean_curvature(bending):
    # deformed strip is a circular cylinder: H = kappa1 / 2 everywhere
    target = 0.5 * bending.kappa1
    fn = lambda s, t: bending.deformed_point(s, t)
    for s in np.linspace(0.1, np.pi - 0.1, 9):
        H = fd_mean_curvature(fn, s, 0.2, 1e-3)
        assert abs(abs(H) - target) < 1e-8 * target


def test_pure_bending_folded_constant_mean_curvature():
    pb = PureBending(mu=10.0, lam=5.0, c=1.0, M=1.6)
    s_fold, beta0 = 0.75 * np.pi, np.pi / 6.0
    target = 0.8
    fn = lambda s, t: pb.deformed_point(s, t, s_fold=s_fold, beta0=beta0)
    for s in [0.3, 1.5, s_fold - 0.05, s_fold + 0.05, np.pi - 0.05]:
        H = fd_mean_curvature(fn, s, -0.1, 1e-4)
        assert abs(abs(H) - target) < 1e-7 * target


def test_pure_bending_fold_kink(bending):
    s_fold, beta0 = 0.75 * np.pi, np.pi / 6.0
    below = bending.deformed_point(s_fold - 1e-12, 0.0, s_fold, beta0)
    above = bending.deformed_point(s_fold + 1e-12, 0.0, s_fold, beta0)
    assert np.linalg.norm(above - below) < 1e-10

    # tangent angle in the bending plane jumps by exactly beta0
    h = 1e-6
    tan_lo = (bending.deformed_point(s_fold - h, 0.0, s_fold, beta0)
              - bending.deformed_point(s_fold - 2 * h, 0.0, s_fold, beta0))
    tan_hi = (bending.deformed_point(s_fold + 2 * h, 0.0, s_fold, beta0)
              - bending.deformed_point(s_fold + h, 0.0, s_fold, beta0))
    a_lo = np.arctan2(tan_lo[2], tan_lo[0])
    a_hi = np.arctan2(tan_hi[2], tan_hi[0])
    assert a_hi - a_lo == pytest.approx(beta0, abs=1e-5)


def test_pure_bending_arc_length_stretch(bending):
    # material arclength ds maps to lambda1 ds on the deformed midline
    s = np.linspace(0.0, np.pi, 4001)
    pts = bending.deformed_point(s, 0.0)
    arcs = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
    assert arcs == pytest.approx(bending.lambda1 * np.pi, rel=1e-6)


# ---------------------------------------------------------------------------
# displacement error functional


def quad_for(patch, mesh):
    return PatchQuadrature(patch, mesh.patch_node_ids[0], mesh.node_coords)


def test_l2_error_zero_for_exact_match():
    patch = make_plate(2.0, 1.0, 2, 3, 2)
    mesh = Mesh([patch])
    pq = quad_for(patch, mesh)
    shift = np.array([0.1, -0.2, 0.05])
    x = mesh.node_coords + shift
    exact = lambda pi, X: np.broadcast_to(shift, X.shape)
    err = l2_displacement_error([pq], x, exact, 2.0, mesh.node_coords)
    assert err < 1e-14


def test_l2_error_constant_offset():
    patch = make_plate(2.0, 1.0, 2, 3, 2)
    mesh = Mesh([patch])
    pq = quad_for(patch, mesh)
    delta = np.array([0.3, 0.0, -0.4])
    x = mesh.node_coords + delta
    exact = lambda pi, X: np.zeros_like(X)
    err = l2_displacement_error([pq], x, exact, 2.0, mesh.node_coords)
    assert err == pytest.approx(np.linalg.norm(delta), rel=1e-12)
