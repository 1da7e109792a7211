"""Basis and knot-algebra tests against an independent recursion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igashell.nurbs import (
    BasisGrid,
    bernstein,
    elevate_bezier,
    extraction_operators,
    find_span,
    greville_abscissae,
    insertion_matrix,
    open_knot_vector,
    scalar_square,
)
from oracles import bspline_row


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize("n_el", [1, 3, 7])
def test_extracted_basis_matches_recursion(degree, n_el):
    knots = open_knot_vector(n_el, degree, 0.0, 2.5)
    grid = BasisGrid(knots, degree)
    rng = np.random.default_rng(degree * 100 + n_el)
    us = rng.uniform(0.0, 2.5, 12)
    conn, Ns, dNs, d2Ns = grid.eval_elements(*grid.locate(us))
    for u, idx, N, dN, d2N in zip(us, conn, Ns[:, 0], dNs[:, 0], d2Ns[:, 0]):
        want = bspline_row(knots, degree, u)
        got = np.zeros_like(want)
        got[idx] = N
        assert np.allclose(got, want, atol=1e-12), (
            f"p={degree} nel={n_el} u={u}: basis mismatch {got} vs {want}")
        want1 = bspline_row(knots, degree, u, order=1)
        got1 = np.zeros_like(want1)
        got1[idx] = dN
        assert np.allclose(got1, want1, atol=1e-9), f"first derivative at u={u}"
        want2 = bspline_row(knots, degree, u, order=2)
        got2 = np.zeros_like(want2)
        got2[idx] = d2N
        assert np.allclose(got2, want2, atol=1e-8), f"second derivative at u={u}"


def test_basis_at_domain_ends():
    knots = open_knot_vector(4, 3, 0.0, 1.0)
    grid = BasisGrid(knots, 3)
    (idx0, idx1), N, _, _ = grid.eval_elements(*grid.locate([0.0, 1.0]))
    N0, N1 = N[:, 0]
    assert N0[0] == pytest.approx(1.0) and np.allclose(N0[1:], 0.0)
    assert N1[-1] == pytest.approx(1.0) and np.allclose(N1[:-1], 0.0)
    assert idx1[-1] == len(knots) - 3 - 2


def test_locate_takes_the_right_hand_element():
    knots = open_knot_vector(4, 2, 0.0, 2.0)
    grid = BasisGrid(knots, 2)
    e, t = grid.locate([0.0, 0.5, 0.75, 1.5, 2.0])
    assert e.tolist() == [0, 1, 1, 3, 3]
    assert t.shape == (5, 1) and t[:, 0].tolist() == [0.0, 0.0, 0.5, 0.0, 1.0]
    assert grid.element_of(0.5) == 1


@given(degree=st.integers(2, 5), n_el=st.integers(1, 6),
       t=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_partition_of_unity(degree, n_el, t):
    knots = open_knot_vector(n_el, degree, 0.0, 1.0)
    grid = BasisGrid(knots, degree)
    e = min(int(t * n_el), n_el - 1)
    _, N, dN, d2N = (T[0, 0] for T in grid.eval_elements([e],
                                                         [[t * n_el - e]]))
    assert np.isclose(N.sum(), 1.0, atol=1e-12)
    assert abs(dN.sum()) < 1e-9
    assert abs(d2N.sum()) < 1e-7
    assert np.all(N >= -1e-13)


def test_bernstein_values_and_derivatives():
    B, dB, d2B = bernstein(3, np.array([0.0, 0.5, 1.0]))
    assert np.allclose(B[0], [1, 0, 0, 0])
    assert np.allclose(B[2], [0, 0, 0, 1])
    assert np.allclose(B[1], [0.125, 0.375, 0.375, 0.125])
    h = 1e-6
    Bp, _, _ = bernstein(3, np.array([0.5 + h]))
    Bm, _, _ = bernstein(3, np.array([0.5 - h]))
    assert np.allclose((Bp - Bm) / (2 * h), dB[1], atol=1e-6)
    _, dBp, _ = bernstein(3, np.array([0.5 + h]))
    _, dBm, _ = bernstein(3, np.array([0.5 - h]))
    assert np.allclose((dBp - dBm) / (2 * h), d2B[1], atol=1e-5)


def test_knot_insertion_preserves_curve():
    degree = 3
    knots = open_knot_vector(2, degree, 0.0, 1.0)
    rng = np.random.default_rng(0)
    ctrl = rng.normal(size=(len(knots) - degree - 1, 2))
    R, new_knots = insertion_matrix(knots, degree, [0.2, 0.2, 0.7])
    ctrl_new = R @ ctrl
    grid_old = BasisGrid(knots, degree)
    grid_new = BasisGrid(new_knots, degree)
    us = np.linspace(0, 1, 17)
    (c_o, T_o, _, _), (c_n, T_n, _, _) = (
        g.eval_elements(*g.locate(us)) for g in (grid_old, grid_new))
    for u, i_o, N_o, i_n, N_n in zip(us, c_o, T_o[:, 0], c_n, T_n[:, 0]):
        p_old = N_o @ ctrl[i_o]
        p_new = N_n @ ctrl_new[i_n]
        assert np.allclose(p_old, p_new, atol=1e-12), f"curve moved at u={u}"


def test_degree_elevation_preserves_curve():
    rng = np.random.default_rng(1)
    ctrl = rng.normal(size=(3, 2))
    lifted = elevate_bezier(ctrl, times=2)
    assert lifted.shape == (5, 2)
    for t in np.linspace(0, 1, 9):
        B2, _, _ = bernstein(2, np.array([t]))
        B4, _, _ = bernstein(4, np.array([t]))
        assert np.allclose(B2[0] @ ctrl, B4[0] @ lifted, atol=1e-13)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_greville_linear_precision(degree):
    knots = open_knot_vector(5, degree, 0.0, 3.0)
    g = greville_abscissae(knots, degree)
    grid = BasisGrid(knots, degree)
    us = np.linspace(0, 3, 11)
    conn, Ns, _, _ = grid.eval_elements(*grid.locate(us))
    for u, idx, N in zip(us, conn, Ns[:, 0]):
        assert np.isclose(N @ g[idx], u, atol=1e-12), f"linear precision at {u}"


def test_extraction_rows_are_contiguous():
    knots = open_knot_vector(5, 4, 0.0, 1.0)
    C, conn, breaks = extraction_operators(knots, 4)
    assert C.shape[0] == 5 and conn.shape == (5, 5)
    for e in range(5):
        assert np.all(np.diff(conn[e]) == 1)
    # each operator maps Bernstein to spline basis; columns sum to one
    B, _, _ = bernstein(4, np.array([0.3]))
    assert np.isclose((C[2] @ B[0]).sum(), 1.0)


def test_find_span_right_end():
    knots = open_knot_vector(3, 2, 0.0, 1.0)
    assert find_span(knots, 2, 1.0) == find_span(knots, 2, 0.999)


def test_scalar_square_rounds_as_a_scalar_power():
    """Every entry is squared as a float64 scalar power rounds it, which
    an array's x * x misses in the last bit for about one value in a
    thousand."""
    x = np.random.default_rng(3).uniform(0.5, 1.5, (100, 100))
    want = np.array([math.pow(v, 2.0) for v in x.ravel()]).reshape(x.shape)
    got = scalar_square(x)
    assert got.shape == x.shape and got.tobytes() == want.tobytes()
    assert (x * x).tobytes() != want.tobytes()
