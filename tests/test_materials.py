"""Finite-difference gates for every constitutive model.

Stresses are checked against central differences of the energy and the four
tangent blocks against central differences of the stress map, using the
conventions encoded in oracles.py.
"""

from dataclasses import fields

import numpy as np
import pytest

from igashell.kinematics import MetricState, metric_state
from igashell.materials import (
    CanhamMaterial,
    KoiterMaterial,
    MixedMaterial,
    ProjectedNeoHooke,
    lame_3d,
    surface_lame,
)
from oracles import (fd_moduli, fd_stress, outer4, projected_moduli4,
                     random_state_pair, sym4, tens4_to_voigt)


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


DIRECT = [m for m in MATERIALS if "projected" not in m[0]]


@pytest.mark.parametrize("name,mat", DIRECT, ids=[n for n, _ in DIRECT])
def test_cross_moduli_are_adjoint(name, mat):
    # d and e come from one potential, so d^{abgd} = e^{gdab}, which reads
    # D = E4^T in raw Voigt form; c and f have major symmetry, C = C^T and
    # F = F^T
    rng = np.random.default_rng(11)
    for _ in range(10):
        ref, cur = random_state_pair(rng)
        C, D, E4, F = mat.moduli_voigt(ref, cur)
        assert np.allclose(D, np.swapaxes(E4, -1, -2), atol=1e-12), name
        assert np.allclose(C, np.swapaxes(C, -1, -2), atol=1e-12), name
        assert np.allclose(F, np.swapaxes(F, -1, -2), atol=1e-12), name


def fourth_order_moduli(mat, ref, cur):
    """(c4, d4, e4, f4) of a direct law as fourth-order tensors, built from
    ``outer4`` and ``sym4``."""
    if isinstance(mat, KoiterMaterial):
        A = ref.a_con
        c4 = mat.lam * outer4(A, A) + 2.0 * mat.mu * sym4(A, A)
        zero = np.zeros_like(c4)
        return c4, zero, zero, mat.thickness ** 2 / 12.0 * c4
    J = cur.jac / ref.jac
    a, b = cur.a_con, cur.b_con
    S = sym4(a, a)
    J2 = (J ** 2)[..., None, None, None, None]
    if isinstance(mat, MixedMaterial):
        c4 = mat.lam * (J2 * outer4(a, a) - (J2 - 1.0) * S) + 2.0 * mat.mu * S
        zero = np.zeros_like(c4)
        f4 = fourth_order_moduli(mat._bending, ref, cur)[3]
        return c4, zero, zero, f4
    T4 = sym4(a, b) + sym4(b, a)
    Hn = cur.H[..., None, None, None, None]
    kn = cur.kappa[..., None, None, None, None]
    Jn = J[..., None, None, None, None]
    c4 = (mat.lam * (J2 * outer4(a, a) - (J2 - 1.0) * S)
          + 2.0 * mat.mu * S
          + mat.bend * Jn * ((2.0 * Hn ** 2 - kn) * outer4(a, a)
                             - 4.0 * Hn * (outer4(a, b) + outer4(b, a))
                             - 2.0 * (2.0 * Hn ** 2 + kn) * S
                             + 4.0 * outer4(b, b) + 8.0 * Hn * T4))
    d4 = mat.bend * Jn * (4.0 * Hn * outer4(a, a) - outer4(a, b)
                          - 2.0 * outer4(b, a) - 4.0 * Hn * S)
    e4 = mat.bend * Jn * (outer4(b, a) - 2.0 * T4)
    f4 = mat.bend * Jn * S
    return c4, d4, e4, f4


def pairs_and_batch(seed, n=6):
    """n random (ref, cur) state pairs, and one pair of their batches."""
    rng = np.random.default_rng(seed)
    pairs = [random_state_pair(rng) for _ in range(n)]
    batch = [MetricState(*(np.stack([getattr(st, f.name) for st in states])
                           for f in fields(MetricState)))
             for states in zip(*pairs)]
    return pairs + [tuple(batch)]


@pytest.mark.parametrize("name,mat", DIRECT, ids=[n for n, _ in DIRECT])
def test_voigt_moduli_equal_the_fourth_order_forms(name, mat):
    """The direct laws form their Voigt moduli on the 9 Voigt pairs with the
    per-entry arithmetic of the fourth-order forms, so they agree bit for
    bit, on one point and on a batch."""
    for ref, cur in pairs_and_batch(19):
        got = mat.moduli_voigt(ref, cur)
        want = fourth_order_moduli(mat, ref, cur)
        for g, w in zip(got, want):
            assert np.array_equal(g, tens4_to_voigt(w)), name


PROJECTED = [m for m in MATERIALS if "projected" in m[0]]


@pytest.mark.parametrize("name,mat", PROJECTED,
                         ids=[n for n, _ in PROJECTED])
def test_projected_voigt_moduli_match_the_fourth_order_form(name, mat):
    """The thickness-integrated law forms its moduli on the 9 Voigt pairs
    too.  Its sums over a symmetric index pair run over 3 weighted pairs
    instead of 4 entries, so it agrees with the fourth-order form to
    round-off, 1e-13 of each block's largest entry, on one point and on a
    batch."""
    for ref, cur in pairs_and_batch(23):
        got = mat.moduli_voigt(ref, cur)
        want = projected_moduli4(mat, ref, cur)
        for g, w in zip(got, want):
            w = tens4_to_voigt(w)
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max(), name


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
