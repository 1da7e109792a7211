"""B-spline knot algebra, Bernstein bases and Bezier extraction.

Everything here works on a single parametric direction.  Surfaces are
tensor products assembled in :mod:`igashell.geometry`, whose
``Patch.basis2d`` is the one way from parameters to basis values: it takes
each 1-D basis through ``BasisGrid.locate`` and ``BasisGrid.eval_elements``.

Conventions:
  * knot vectors are open (clamped); degrees 1..5 are supported, the shell
    formulation itself requires p >= 2,
  * element-local coordinates t live on [0, 1],
  * second derivatives are always with respect to the patch parameter, not t.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "open_knot_vector",
    "find_span",
    "element_spans",
    "bernstein",
    "insertion_matrix",
    "extraction_operators",
    "greville_abscissae",
    "elevate_bezier",
    "BasisGrid",
]


def open_knot_vector(n_elements: int, degree: int, start: float = 0.0,
                     end: float = 1.0) -> np.ndarray:
    """Open uniform knot vector with ``n_elements`` equal spans."""
    if n_elements < 1:
        raise ValueError("need at least one element")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    interior = np.linspace(start, end, n_elements + 1)[1:-1]
    return np.concatenate([
        np.full(degree + 1, float(start)),
        interior,
        np.full(degree + 1, float(end)),
    ])


def find_span(knots: np.ndarray, degree: int, u: float) -> int:
    """Index k with knots[k] <= u < knots[k+1] (last span at the right end)."""
    n = len(knots) - degree - 1
    if u >= knots[n]:
        k = n - 1
        while knots[k + 1] <= knots[k]:
            k -= 1
        return k
    if u <= knots[degree]:
        return degree
    return int(np.searchsorted(knots, u, side="right") - 1)


def element_spans(knots: np.ndarray) -> np.ndarray:
    """Breakpoints of the nonempty spans, shape (n_elements + 1,)."""
    uniq = np.unique(knots)
    return uniq


def scalar_square(x) -> np.ndarray:
    """x ** 2 elementwise, rounded as a float64 scalar rounds it.

    A scalar power calls the C library's pow, while NumPy squares arrays
    (``x ** 2`` is ``x * x``); the two differ in the last bit for about one
    value in a thousand.  ``float_power`` calls pow on every entry, so
    batched tables stay bit-identical to point evaluations.
    """
    return np.float_power(np.asarray(x, dtype=float), 2.0)


def bernstein(degree: int, t: np.ndarray):
    """All Bernstein polynomials of ``degree`` at points ``t`` in [0, 1].

    Returns (B, dB, d2B), each of shape (len(t), degree+1).  Derivatives are
    with respect to t.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    m = len(t)

    def table(p):
        B = np.zeros((m, p + 1))
        B[:, 0] = 1.0
        for k in range(1, p + 1):
            B[:, k] = t * B[:, k - 1]
            for i in range(k - 1, 0, -1):
                B[:, i] = t * B[:, i - 1] + (1.0 - t) * B[:, i]
            B[:, 0] = (1.0 - t) * B[:, 0]
        return B

    p = degree
    B = table(p)
    dB = np.zeros_like(B)
    d2B = np.zeros_like(B)
    if p >= 1:
        Bm1 = table(p - 1)
        pad = np.zeros((m, 1))
        low = np.hstack([pad, Bm1])   # B_{i-1,p-1}
        high = np.hstack([Bm1, pad])  # B_{i,p-1}
        dB = p * (low - high)
    if p >= 2:
        Bm2 = table(p - 2)
        pad = np.zeros((m, 1))
        t0 = np.hstack([pad, pad, Bm2])        # B_{i-2,p-2}
        t1 = np.hstack([pad, Bm2, pad])        # B_{i-1,p-2}
        t2 = np.hstack([Bm2, pad, pad])        # B_{i,p-2}
        d2B = p * (p - 1) * (t0 - 2.0 * t1 + t2)
    return B, dB, d2B


def insertion_matrix(knots: np.ndarray, degree: int, new_knots):
    """Control-point refinement operator for inserting ``new_knots``.

    Returns (R, knots_out) with refined control points P' = R @ P.  The basis
    transforms as N_old = R.T @ N_new, which is what Bezier extraction needs.
    """
    knots = np.asarray(knots, dtype=float)
    p = degree
    n = len(knots) - p - 1
    R = np.eye(n)
    for u in sorted(np.atleast_1d(new_knots)):
        n = R.shape[0]
        k = find_span(knots, p, float(u))
        step = np.zeros((n + 1, n))
        for i in range(n + 1):
            if i <= k - p:
                step[i, i] = 1.0
            elif i <= k:
                denom = knots[i + p] - knots[i]
                alpha = (u - knots[i]) / denom if denom > 0.0 else 0.0
                step[i, i] = alpha
                step[i, i - 1] = 1.0 - alpha
            else:
                step[i, i - 1] = 1.0
        R = step @ R
        knots = np.insert(knots, k + 1, u)
    return R, knots


def extraction_operators(knots: np.ndarray, degree: int):
    """Per-element Bezier extraction operators.

    For element e the restriction of the p+1 supported B-splines is
    N_a(t) = sum_k C[e, a, k] B_k(t) with B the Bernstein basis on the span.

    Returns (C, conn, breaks):
      C     (n_el, p+1, p+1) extraction operators,
      conn  (n_el, p+1) global function indices of the supported B-splines,
      breaks (n_el+1,) span breakpoints.
    """
    knots = np.asarray(knots, dtype=float)
    p = degree
    breaks = element_spans(knots)
    n_el = len(breaks) - 1
    # Insert every interior breakpoint up to multiplicity p; the refined basis
    # restricted to one span is exactly the Bernstein basis there.
    to_insert = []
    for u in breaks[1:-1]:
        mult = int(np.sum(np.isclose(knots, u)))
        to_insert.extend([u] * (p - mult))
    R, _ = insertion_matrix(knots, p, to_insert)
    T = R.T  # (n_funcs, n_bezier_funcs)
    C = np.zeros((n_el, p + 1, p + 1))
    conn = np.zeros((n_el, p + 1), dtype=int)
    for e in range(n_el):
        cols = T[:, e * p:e * p + p + 1]
        rows = np.nonzero(np.any(np.abs(cols) > 1e-14, axis=1))[0]
        if len(rows) != p + 1 or not np.all(np.diff(rows) == 1):
            raise RuntimeError("unexpected extraction sparsity pattern")
        conn[e] = rows
        C[e] = cols[rows]
    return C, conn, breaks


def greville_abscissae(knots: np.ndarray, degree: int) -> np.ndarray:
    """Greville points, one per basis function."""
    p = degree
    n = len(knots) - p - 1
    return np.array([np.mean(knots[a + 1:a + p + 1]) for a in range(n)])


def elevate_bezier(ctrl: np.ndarray, times: int = 1) -> np.ndarray:
    """Degree-elevate a single Bezier segment given by rows of ``ctrl``.

    Works on whatever trails the first axis, so homogeneous 4-vectors pass
    through unchanged in meaning.  Exact for conics represented in
    homogeneous coordinates.
    """
    ctrl = np.asarray(ctrl, dtype=float)
    for _ in range(times):
        p = ctrl.shape[0] - 1
        out = np.zeros((p + 2,) + ctrl.shape[1:])
        out[0] = ctrl[0]
        out[-1] = ctrl[-1]
        for i in range(1, p + 1):
            f = i / (p + 1)
            out[i] = f * ctrl[i - 1] + (1.0 - f) * ctrl[i]
        ctrl = out
    return ctrl


class BasisGrid:
    """Univariate B-spline basis with precomputed Bezier extraction.

    ``locate`` maps parameters to (element, local coordinate) and
    ``eval_elements`` tabulates the p+1 functions supported on each element
    together with their indices.  Surfaces reach the basis only through
    ``geometry.Patch.basis2d``, which calls the two in turn.
    """

    def __init__(self, knots, degree: int):
        self.knots = np.asarray(knots, dtype=float)
        self.degree = int(degree)
        self.n_funcs = len(self.knots) - self.degree - 1
        if self.n_funcs < self.degree + 1:
            raise ValueError("knot vector too short for degree")
        self.C, self.conn, self.breaks = extraction_operators(self.knots, self.degree)
        self.n_elements = len(self.breaks) - 1
        self.h = np.diff(self.breaks)          # span lengths
        self.h2 = scalar_square(self.h)

    def element_of(self, u):
        """Element index of each u; a breakpoint belongs to the element on
        its right, the right end of the patch to the last element."""
        e = np.searchsorted(self.breaks, u, side="right") - 1
        return np.clip(e, 0, self.n_elements - 1)

    def locate(self, u):
        """The elements containing the entries of u and their local
        coordinates, shaped as ``eval_elements`` takes them: e (n,) and
        t (n, 1), with n the number of entries of u."""
        u = np.asarray(u, dtype=float).ravel()
        e = self.element_of(u)
        return e, ((u - self.breaks[e]) / self.h[e])[:, None]

    def eval_elements(self, e, t):
        """Basis values on elements ``e`` (n,) at local coordinates t (n, m).

        Returns (conn (n, p+1), N, dN, d2N), each table (n, m, p+1), with
        derivatives with respect to the patch parameter.  The Bernstein
        tables are built once for all points and every C_e is applied in one
        batched matmul with one row per point: a one-row product is the BLAS
        call a one-point evaluation makes, so a value does not depend on how
        many points are tabulated with it.
        """
        e = np.asarray(e, dtype=np.int64)
        t = np.asarray(t, dtype=float)
        n, m = t.shape
        CT = np.repeat(self.C[e], m, axis=0).swapaxes(1, 2)
        N, dN, d2N = (np.matmul(T[:, None, :], CT).reshape(n, m, -1)
                      for T in bernstein(self.degree, t.ravel()))
        return (self.conn[e], N, dN / self.h[e, None, None],
                d2N / self.h2[e, None, None])
