"""Metric, curvature and layer-metric identities."""

import numpy as np

from igashell.geometry import make_cylinder_panel, make_sphere_panel
from igashell.kinematics import (
    cross3,
    det22,
    inv22,
    layer_coefficients,
    layer_metric,
    metric_state,
    surface_vectors_state,
    to_voigt,
)
from oracles import outer4, sym4, tens4_to_voigt


def state_at(patch, u, v):
    x, a, h = patch.evaluate(u, v)
    return surface_vectors_state(a, h)


def test_sphere_curvatures():
    R = 2.0
    patch = make_sphere_panel(R, 0.0, 90.0, 20.0, 80.0, 3, 2, 2)
    st, n = state_at(patch, 40.0, 55.0)
    assert np.isclose(abs(st.H), 1.0 / R, rtol=1e-12)
    assert np.isclose(st.kappa, 1.0 / R ** 2, rtol=1e-12)
    x = patch.point(40.0, 55.0)
    # unit normal is radial for a sphere
    assert np.isclose(abs(n @ (x / R)), 1.0, atol=1e-12)


def test_cylinder_curvatures():
    R, L = 3.0, 5.0
    patch = make_cylinder_panel(R, L, 0.0, 120.0, 4, 3, 3)
    st, _ = state_at(patch, 2.0, 45.0)
    assert np.isclose(abs(st.H), 0.5 / R, rtol=1e-12)
    assert np.isclose(st.kappa, 0.0, atol=1e-14)


def test_contravariant_metric_is_inverse():
    rng = np.random.default_rng(0)
    for _ in range(10):
        L = np.eye(2) + 0.4 * rng.uniform(-1, 1, (2, 2))
        a = L @ L.T
        st = metric_state(a, 0.5 * rng.standard_normal((2, 2)))
        assert np.allclose(st.a_con @ st.a_cov, np.eye(2), atol=1e-12)
        assert np.isclose(st.jac, np.sqrt(np.linalg.det(a)))


def test_adjugate_curvature_identity():
    # kappa * inverse(b) equals 2H a_con - b_con (Cayley-Hamilton in 2D)
    rng = np.random.default_rng(1)
    L = np.eye(2) + 0.3 * rng.uniform(-1, 1, (2, 2))
    b = rng.standard_normal((2, 2))
    b = 0.5 * (b + b.T)
    st = metric_state(L @ L.T, b)
    lhs = st.kappa * np.linalg.inv(b)
    assert np.allclose(lhs, st.b_adj_con, atol=1e-12)


def test_layer_metric_closed_form_inverse():
    rng = np.random.default_rng(2)
    for xi in (-0.05, 0.02, 0.07):
        L = np.eye(2) + 0.3 * rng.uniform(-1, 1, (2, 2))
        b = 0.6 * (lambda S: 0.5 * (S + S.T))(rng.standard_normal((2, 2)))
        st = metric_state(L @ L.T, b)
        g_cov, g_con, s = layer_metric(st, xi)
        assert np.allclose(g_con @ g_cov, np.eye(2), atol=1e-12)
        assert np.isclose(s, np.sqrt(det22(g_cov) / det22(st.a_cov)))
        g_a, g_b, s2 = layer_coefficients(st.H, st.kappa, xi)
        assert np.allclose(g_cov, g_a * st.a_cov + g_b * st.b_cov, atol=1e-14)
        assert np.isclose(s, s2)


def test_voigt_round_trip_and_tensor_packing():
    M = np.array([[1.0, 3.0], [3.0, -2.0]])
    v = to_voigt(M)
    assert np.allclose(v, [1.0, -2.0, 3.0])
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    B = np.array([[1.0, -1.0], [-1.0, 3.0]])
    T = outer4(A, B)
    V = tens4_to_voigt(T)
    assert np.isclose(V[0, 2], A[0, 0] * B[0, 1])
    S = sym4(A, A)
    # sym4(A, A) contracted with a symmetric M reproduces A M A
    M_up = np.einsum("abcd,cd->ab", S, M)
    assert np.allclose(M_up, A @ M @ A, atol=1e-13)


def test_inverse_helper():
    rng = np.random.default_rng(3)
    M = np.eye(2) + 0.2 * rng.uniform(-1, 1, (4, 2, 2))
    Minv = inv22(M)
    assert np.allclose(np.einsum("nab,nbc->nac", M, Minv),
                       np.broadcast_to(np.eye(2), (4, 2, 2)), atol=1e-12)


def test_cross3_is_numpy_cross_bit_for_bit():
    rng = np.random.default_rng(11)
    for shape_a, shape_b in (((3,), (3,)), ((32, 9, 3), (32, 9, 3)),
                             ((4, 3, 1, 3), (4, 3, 2, 3)),
                             ((4, 3, 2, 3), (4, 3, 1, 3)),
                             ((5, 3), (3,))):
        a = rng.standard_normal(shape_a) * 10.0 ** rng.integers(-8, 8)
        b = rng.standard_normal(shape_b)
        c = cross3(a, b)
        assert c.shape == np.cross(a, b).shape
        assert np.array_equal(c, np.cross(a, b))
