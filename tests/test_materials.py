"""Finite-difference gates for every constitutive model.

Stresses are checked against central differences of the energy and the four
tangent blocks against central differences of the stress map, using the
conventions encoded in oracles.py.
"""

import numpy as np
import pytest

from igashell.kinematics import metric_state
from igashell.materials import (
    CanhamMaterial,
    KoiterMaterial,
    MixedMaterial,
    ProjectedNeoHooke,
    lame_3d,
    surface_lame,
)
from oracles import fd_moduli, fd_stress, random_state_pair


def all_materials():
    lam3, mu3 = lame_3d(70.0, 0.3)
    lam, mu = surface_lame(lam3, mu3, 0.05)
    return [
        ("koiter", KoiterMaterial(lam, mu, 0.05)),
        ("canham", CanhamMaterial(1.5, 1.0, 0.3)),
        ("mixed", MixedMaterial(lam, mu, 0.05)),
        ("projected", ProjectedNeoHooke(lam3, mu3, 0.05)),
        ("projected_simple", ProjectedNeoHooke(lam3, mu3, 0.05, reduction="simple")),
        ("projected_incomp", ProjectedNeoHooke(0.0, mu3, 0.05, incompressible=True)),
    ]


MATERIALS = all_materials()


def rel_err(x, y):
    scale = max(np.abs(y).max(), 1e-8 * max(np.abs(x).max(), 1.0), 1e-12)
    return np.abs(x - y).max() / scale


@pytest.mark.parametrize("name,mat", MATERIALS, ids=[n for n, _ in MATERIALS])
def test_stress_matches_energy_gradient(name, mat):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        ref, cur = random_state_pair(rng)
        got = mat.stress_voigt(ref, cur)
        want = fd_stress(mat, ref, cur)
        worst = max(worst, rel_err(got, want))
    assert worst < 1e-6, f"{name}: stress vs energy FD rel err {worst:.3e}"


@pytest.mark.parametrize("name,mat", MATERIALS, ids=[n for n, _ in MATERIALS])
def test_moduli_match_stress_jacobian(name, mat):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        ref, cur = random_state_pair(rng)
        C, D, E4, F = mat.moduli_voigt(ref, cur)
        Cf, Df, Ef, Ff = fd_moduli(mat, ref, cur)
        err = max(rel_err(C, Cf), rel_err(D, Df), rel_err(E4, Ef), rel_err(F, Ff))
        worst = max(worst, err)
    assert worst < 1e-5, f"{name}: moduli vs stress FD rel err {worst:.3e}"


@pytest.mark.parametrize("name,mat", MATERIALS, ids=[n for n, _ in MATERIALS])
def test_reference_state_is_stress_free(name, mat):
    # the curvature-energy law penalizes absolute curvature, so it is only
    # stress free when the reference itself is flat
    rng = np.random.default_rng(3)
    ref, _ = random_state_pair(rng)
    if name == "canham":
        ref = metric_state(ref.a_cov, np.zeros((2, 2)))
    sv = mat.stress_voigt(ref, ref)
    scale = max(np.abs(sv).max(), 1.0)
    assert np.abs(sv).max() <= 1e-12 * scale + 1e-12, (
        f"{name}: nonzero stress at the undeformed state: {sv}")


@pytest.mark.parametrize("name,mat", [m for m in MATERIALS if "projected" not in m[0]],
                         ids=[n for n, _ in MATERIALS if "projected" not in n])
def test_cross_moduli_are_adjoint(name, mat):
    # d and e come from one potential, so d^{abgd} = e^{gdab}
    rng = np.random.default_rng(11)
    for _ in range(10):
        ref, cur = random_state_pair(rng)
        c4, d4, e4, f4 = mat.moduli(ref, cur)
        assert np.allclose(d4, np.transpose(e4, (2, 3, 0, 1)), atol=1e-12), name
        assert np.allclose(c4, np.transpose(c4, (2, 3, 0, 1)), atol=1e-12), name
        assert np.allclose(f4, np.transpose(f4, (2, 3, 0, 1)), atol=1e-12), name


def test_plane_stress_condition_projected():
    # the condensed normal stretch must null the normal Cauchy stress:
    # for the compressible law  s_33 ~ lam (J~^2 - 1) + 2 mu (lam3^2 - 1) ... = 0
    # is equivalent to  lam3^2 (lam Js^2 lam3^2 ... ) ; check the defining
    # equation lam (Jt^2 - 1) + 2 mu (lam3^2 - 1) = 0 with Jt = Js lam3.
    lam3d, mu3d = lame_3d(10.0, 0.3)
    mat = ProjectedNeoHooke(lam3d, mu3d, 0.1)
    Js = np.array([0.7, 1.0, 1.3])
    l3 = mat.lambda3(Js)
    resid = lam3d * ((Js * l3) ** 2 - 1.0) + 2.0 * mu3d * (l3 ** 2 - 1.0)
    assert np.abs(resid).max() < 1e-12, resid


def test_incompressible_projected_keeps_unit_volume():
    mat = ProjectedNeoHooke(0.0, 1.0, 0.1, incompressible=True)
    Js = np.array([0.6, 1.0, 1.7])
    assert np.allclose(Js * mat.lambda3(Js), 1.0)


def test_koiter_energy_is_quadratic():
    mat = KoiterMaterial(2.0, 1.0, 0.1)
    rng = np.random.default_rng(5)
    ref, cur = random_state_pair(rng)
    da = cur.a_cov - ref.a_cov
    db = cur.b_cov - ref.b_cov
    W1 = mat.energy(ref, cur)
    half = metric_state(ref.a_cov + 0.5 * da, ref.b_cov + 0.5 * db)
    W2 = mat.energy(ref, half)
    assert np.isclose(W2, 0.25 * W1), (W1, W2)


def test_mixed_energy_is_canham_membrane_plus_quadratic_bending():
    """The mixed law reuses Canham's membrane energy; with no bending
    stiffness its curvature term adds exactly zero."""
    lam, mu = surface_lame(*lame_3d(70.0, 0.3), 0.05)
    mat = MixedMaterial(lam, mu, 0.05)
    rng = np.random.default_rng(8)
    for _ in range(5):
        ref, cur = random_state_pair(rng)
        J = cur.jac / ref.jac
        I1 = np.einsum("ab,ab->", ref.a_con, cur.a_cov)
        Wm = (0.25 * lam * (J ** 2 - 1.0 - 2.0 * np.log(J))
              + 0.5 * mu * (I1 - 2.0 - 2.0 * np.log(J)))
        _, M0 = KoiterMaterial(lam, mu, 0.05).stress(ref, cur)
        Wb = 0.5 * np.einsum("ab,ab->", M0, cur.b_cov - ref.b_cov)
        assert mat.energy(ref, cur) == Wm + Wb


def test_surface_lame_matches_plate_stiffness():
    # bending block of the quadratic law must reproduce E T^3 / (12 (1 - nu^2))
    E, nu, T = 200.0, 0.3, 0.02
    lam, mu = surface_lame(*lame_3d(E, nu), T)
    D_plate = E * T ** 3 / (12.0 * (1.0 - nu ** 2))
    assert np.isclose(T ** 2 / 12.0 * (lam + 2.0 * mu), D_plate)


def test_projected_reductions_agree_for_thin_flat_shell():
    # with zero curvature the area prefactors are exact, so both reductions
    # coincide identically on flat states
    lam3d, mu3d = lame_3d(70.0, 0.3)
    flat_a = np.array([[1.3, 0.1], [0.1, 0.9]])
    ref = metric_state(np.eye(2), np.zeros((2, 2)))
    cur = metric_state(flat_a, np.zeros((2, 2)))
    m_ex = ProjectedNeoHooke(lam3d, mu3d, 0.02)
    m_si = ProjectedNeoHooke(lam3d, mu3d, 0.02, reduction="simple")
    assert np.allclose(m_ex.stress_voigt(ref, cur), m_si.stress_voigt(ref, cur))


def test_koiter_and_projected_small_strain_match():
    # both should linearize to the same membrane stiffness for small strains
    E, nu, T = 100.0, 0.3, 0.01
    lam3d, mu3d = lame_3d(E, nu)
    koiter = KoiterMaterial(*surface_lame(lam3d, mu3d, T), T)
    proj = ProjectedNeoHooke(lam3d, mu3d, T)
    ref = metric_state(np.eye(2), np.zeros((2, 2)))
    eps = 1e-7
    cur = metric_state(np.eye(2) + eps * np.array([[2.0, 0.5], [0.5, -1.0]]),
                       np.zeros((2, 2)))
    tk = koiter.stress_voigt(ref, cur)[:3]
    tp = proj.stress_voigt(ref, cur)[:3]
    assert np.abs(tk - tp).max() < 1e-3 * np.abs(tk).max() + 1e-14, (tk, tp)
