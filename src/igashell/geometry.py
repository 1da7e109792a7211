"""NURBS surface patches, multi-patch meshes and mesh primitives.

Control points are stored flat with the u index running fastest, matching
the JSON mesh format.  All primitives produce exact rational representations
of their geometry (circular arcs carry the usual midpoint weight), so
refinement by knot insertion never changes the surface.

``Patch.basis2d`` is the one way from parameters (u, v) to basis values.
It broadcasts over arrays of parameters, so quadrature tables, loads,
probes, field output and Greville sampling each make one call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .nurbs import (
    BasisGrid,
    elevate_bezier,
    greville_abscissae,
    insertion_matrix,
    open_knot_vector,
    scalar_square,
)
from .schema import (InputError, check, flag, listof, number, obj, read_json,
                     tag, whole)

SIDES = ("u0", "u1", "v0", "v1")
MAX_DEGREE = 5
# control points closer than this times the bounding-box diagonal merge
MERGE_TOL_REL = 1e-9


MeshFormatError = InputError     # the name importers know


@dataclass
class Patch:
    """Single tensor-product NURBS surface patch.

    ``basis2d`` is its one basis evaluation; ``evaluate`` and ``point``
    apply it to the control points.
    """

    degree_u: int
    degree_v: int
    knots_u: np.ndarray
    knots_v: np.ndarray
    points: np.ndarray    # (n_u * n_v, 3), u fastest
    weights: np.ndarray   # (n_u * n_v,)
    _basis: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.knots_u = np.asarray(self.knots_u, dtype=float)
        self.knots_v = np.asarray(self.knots_v, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if not (1 <= self.degree_u <= MAX_DEGREE
                and 1 <= self.degree_v <= MAX_DEGREE):
            raise InputError(f"patch degrees must lie in 1..{MAX_DEGREE}")
        for name, k, p in (("knots_u", self.knots_u, self.degree_u),
                           ("knots_v", self.knots_v, self.degree_v)):
            # open: the end knots repeat p + 1 times, so the edge control
            # points are the edge curve (Bezier extraction relies on it)
            if not (k.ndim == 1 and len(k) >= 2 * p + 2
                    and np.isfinite(k).all() and (k[1:] >= k[:-1]).all()
                    and k[0] == k[p] < k[-p - 1] == k[-1]):
                raise InputError(f"{name} must be an open, nondecreasing "
                                 f"vector of at least {2 * p + 2} finite "
                                 "knots")
        if self.points.shape != (self.n_u * self.n_v, 3):
            raise InputError(
                f"expected {self.n_u * self.n_v} control points, got {self.points.shape[0]}")
        if self.weights.shape != (self.n_u * self.n_v,):
            raise InputError("weights array does not match control net")
        if not (self.weights > 0.0).all():
            raise InputError("control-point weights must be positive")

    # -- basic queries ---------------------------------------------------

    @property
    def n_u(self) -> int:
        return len(self.knots_u) - self.degree_u - 1

    @property
    def n_v(self) -> int:
        return len(self.knots_v) - self.degree_v - 1

    @property
    def basis_u(self) -> BasisGrid:
        if "u" not in self._basis:
            self._basis["u"] = BasisGrid(self.knots_u, self.degree_u)
        return self._basis["u"]

    @property
    def basis_v(self) -> BasisGrid:
        if "v" not in self._basis:
            self._basis["v"] = BasisGrid(self.knots_v, self.degree_v)
        return self._basis["v"]

    @property
    def n_elements_u(self) -> int:
        return self.basis_u.n_elements

    @property
    def n_elements_v(self) -> int:
        return self.basis_v.n_elements

    @property
    def n_elements(self) -> int:
        return self.n_elements_u * self.n_elements_v

    @property
    def param_range(self):
        """((u0, u1), (v0, v1)) spanned by the knot vectors."""
        return ((self.knots_u[0], self.knots_u[-1]),
                (self.knots_v[0], self.knots_v[-1]))

    def transformed(self, rot: np.ndarray | None = None,
                    shift: np.ndarray | None = None) -> "Patch":
        pts = self.points
        if rot is not None:
            pts = pts @ np.asarray(rot, dtype=float).T
        if shift is not None:
            pts = pts + np.asarray(shift, dtype=float)
        return Patch(self.degree_u, self.degree_v, self.knots_u.copy(),
                     self.knots_v.copy(), pts, self.weights.copy())

    # -- evaluation ------------------------------------------------------

    def basis2d(self, u, v):
        """Rational basis and first/second parametric derivatives at (u, v).

        u and v are scalars or arrays that broadcast to one shape S.
        Returns (idx, N, dN, d2N) for the supported functions only: idx and
        N are S + (nloc,), dN is S + (nloc, 2) with columns (d/du, d/dv) and
        d2N S + (nloc, 3) with columns (uu, vv, uv); the u function runs
        fastest within nloc.  A point on an element boundary takes the
        element on its right.  Each 1-D basis is tabulated once per entry of
        u or of v before broadcasting, so a grid u (1, n) x v (m, 1) costs
        n + m 1-D rows, and every value is the scalar call's bit for bit.
        """
        (cu, Nu, dNu, d2Nu), (cv, Nv, dNv, d2Nv) = (
            [T.reshape(np.shape(x) + (-1,))
             for T in b.eval_elements(*b.locate(x))]
            for b, x in ((self.basis_u, u), (self.basis_v, v)))

        def flat(r):
            return r.reshape(r.shape[:-2] + (-1,))

        def prod(fv, fu):
            return flat(fv[..., :, None] * fu[..., None, :])

        idx = flat(cv[..., :, None] * self.n_u + cu[..., None, :])
        dB = np.stack([prod(Nv, dNu), prod(dNv, Nu)])
        d2B = np.stack([prod(Nv, d2Nu), prod(d2Nv, Nu), prod(dNv, dNu)])
        return idx, *_rationalize(self.weights[idx], prod(Nv, Nu), dB, d2B)

    def evaluate(self, u, v):
        """Surface point, tangents and second derivatives at (u, v).

        Returns (x, a, h), shaped S + (3,), S + (2, 3) and S + (3, 3) for the
        broadcast shape S of u and v, with h rows ordered (uu, vv, uv).
        """
        idx, N, dN, d2N = self.basis2d(u, v)
        return surface_derivatives(N, dN, d2N, self.points[idx])

    def point(self, u, v) -> np.ndarray:
        return self.evaluate(u, v)[0]

    # -- edges -----------------------------------------------------------

    def edge_point_indices(self, side: str) -> np.ndarray:
        """Flat indices of the control points on one boundary edge.

        Ordered along the running parameter of the edge.
        """
        n_u, n_v = self.n_u, self.n_v
        if side == "u0":
            return np.arange(n_v) * n_u
        if side == "u1":
            return np.arange(n_v) * n_u + (n_u - 1)
        if side == "v0":
            return np.arange(n_u)
        if side == "v1":
            return (n_v - 1) * n_u + np.arange(n_u)
        raise InputError(f"unknown side {side!r}")


def surface_derivatives(N, dN, d2N, P):
    """(x, a, h) of the map with control rows P S + (nloc, 3), for the
    ``Patch.basis2d`` tables N, dN and d2N: x = N P, a = dN^T P (2, 3) and
    h = d2N^T P (3, 3).  One matmul per point, the one a single point makes,
    so a value does not depend on the batch."""
    return (np.matmul(N[..., None, :], P)[..., 0, :],
            np.matmul(dN.swapaxes(-1, -2), P),
            np.matmul(d2N.swapaxes(-1, -2), P))


def _rationalize(w, B, dB, d2B):
    """Turn weighted B-spline values into rational basis values.

    B is (..., nloc) with w broadcasting against it; dB (2, ..., nloc) and
    d2B (3, ..., nloc) carry the derivative index first, so every operation
    runs on contiguous rows.  Returns N (..., nloc), dN (..., nloc, 2) and
    d2N (..., nloc, 3).  Second derivatives follow the explicit quotient
    rule; the columns of d2B are (uu, vv, uv) and the mixed one pairs with
    (u, v) in dB.  Each point's values do not depend on the batch: W is a
    row sum, the derivative sums run in index order (``cumsum``), and every
    other operation is elementwise, in the order of the one-point formula.
    """
    wB, wdB, wd2B = w * B, w * dB, w * d2B
    W = wB.sum(axis=-1, keepdims=True)
    Wd = np.cumsum(wdB, axis=-1)[..., -1:]
    Wdd = np.cumsum(wd2B, axis=-1)[..., -1:]
    W2 = scalar_square(W)
    dN = (wdB - wB * Wd / W) / W
    d2N = [(wd2B[k] - (wdB[a] * Wd[b] + wdB[b] * Wd[a]) / W - wB * Wdd[k] / W
            + 2.0 * wB * Wd[a] * Wd[b] / W2) / W
           for k, (a, b) in enumerate(((0, 0), (1, 1), (0, 1)))]
    return wB / W, np.stack(list(dN), axis=-1), np.stack(d2N, axis=-1)


# ---------------------------------------------------------------------------
# multi-patch mesh


@dataclass
class Interface:
    """Conforming patch-to-patch edge identification."""
    patch_a: int
    side_a: str
    patch_b: int
    side_b: str
    reversed: bool = False


class Mesh:
    """A collection of patches with merged coincident control points."""

    def __init__(self, patches, sets=None, interfaces=None):
        self.patches: list[Patch] = list(patches)
        self.sets: dict = dict(sets or {})
        self._build_global_nodes()
        self.interfaces: list[Interface] = (list(interfaces) if interfaces is not None
                                            else self.detect_interfaces())

    # nodes ---------------------------------------------------------------

    def _build_global_nodes(self):
        coords = np.vstack([p.points for p in self.patches])
        weights = np.concatenate([p.weights for p in self.patches])
        lo, hi = coords.min(axis=0), coords.max(axis=0)
        diag = float(np.linalg.norm(hi - lo))
        tol = MERGE_TOL_REL * (diag if diag > 0.0 else 1.0)
        parent = np.arange(len(coords))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        # merging is by position alone; collapsed (degenerate) edges carry
        # coincident points with different weights and must still share DOFs.
        # Pairs closer than tol are found by sorting the points along one
        # axis and sweeping over ever farther neighbours in that order while
        # some gap along the axis is within tol.  The axis is oblique, so
        # that the rows of a grid do not share one sort key.
        key = coords @ (np.array([1.0, np.sqrt(2.0), np.sqrt(3.0)])
                        / np.sqrt(6.0))
        order = np.argsort(key)
        key, pts = key[order], coords[order]
        near = np.arange(len(pts))
        for k in range(1, len(pts)):
            near = near[near < len(pts) - k]
            near = near[key[near + k] - key[near] <= tol]
            if near.size == 0:
                break
            close = near[np.linalg.norm(pts[near + k] - pts[near], axis=1)
                         <= tol]
            for i, j in zip(order[close], order[close + k]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
        roots = np.array([find(i) for i in range(len(coords))])
        uniq, inv = np.unique(roots, return_inverse=True)
        self.n_nodes = len(uniq)
        self.node_coords = coords[uniq]
        self.node_weights = weights[uniq]
        self.patch_node_ids = []
        offset = 0
        for p in self.patches:
            n = p.points.shape[0]
            self.patch_node_ids.append(inv[offset:offset + n].copy())
            offset += n

    @property
    def n_dofs(self) -> int:
        return 3 * self.n_nodes

    def bbox_diag(self) -> float:
        coords = np.vstack([p.points for p in self.patches])
        return float(np.linalg.norm(coords.max(axis=0) - coords.min(axis=0)))

    def edge_node_ids(self, patch: int, side: str) -> np.ndarray:
        return self.patch_node_ids[patch][self.patches[patch].edge_point_indices(side)]

    def check_point(self, patch: int, u: float, v: float) -> None:
        """Raise ValueError unless (u, v) lies in the patch's parameter
        range, the ends included: the basis would extrapolate there."""
        (u0, u1), (v0, v1) = self.patches[patch].param_range
        if not (u0 <= u <= u1 and v0 <= v <= v1):
            raise ValueError(f"(u, v) = ({u:g}, {v:g}) lies outside patch "
                             f"{patch}, [{u0:g}, {u1:g}] x [{v0:g}, {v1:g}]")

    # interfaces ----------------------------------------------------------

    def detect_interfaces(self) -> list[Interface]:
        """Find conforming patch interfaces by matching merged edge nodes."""
        found = []
        edges = []
        for pi, p in enumerate(self.patches):
            for side in SIDES:
                ids = self.edge_node_ids(pi, side)
                edges.append((pi, side, ids))
        for a in range(len(edges)):
            pi, sa, ia = edges[a]
            for b in range(a + 1, len(edges)):
                pj, sb, ib = edges[b]
                if pi == pj or len(ia) != len(ib):
                    continue
                if np.array_equal(ia, ib):
                    found.append(Interface(pi, sa, pj, sb, reversed=False))
                elif np.array_equal(ia, ib[::-1]):
                    found.append(Interface(pi, sa, pj, sb, reversed=True))
        return found

    # serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        patches = []
        for p in self.patches:
            patches.append({
                "degree_u": p.degree_u,
                "degree_v": p.degree_v,
                "knots_u": p.knots_u.tolist(),
                "knots_v": p.knots_v.tolist(),
                "n_u": p.n_u,
                "n_v": p.n_v,
                "points": np.column_stack([p.points, p.weights]).tolist(),
            })
        interfaces = [{
            "patch_a": i.patch_a, "side_a": i.side_a,
            "patch_b": i.patch_b, "side_b": i.side_b,
            "reversed": i.reversed,
        } for i in self.interfaces]
        return {"patches": patches, "interfaces": interfaces, "sets": self.sets}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Mesh":
        doc = check(MESH_DOCUMENT, data)
        patches = []
        for k, pd in enumerate(doc["patches"]):
            pts = np.array(pd["points"])
            try:
                patch = Patch(pd["degree_u"], pd["degree_v"], pd["knots_u"],
                              pd["knots_v"], pts[:, :3], pts[:, 3])
            except InputError as exc:
                raise InputError(f"patch {k}: {exc}") from None
            if (patch.n_u, patch.n_v) != (pd["n_u"], pd["n_v"]):
                raise InputError(
                    f"patch {k}: n_u/n_v inconsistent with knot vectors")
            patches.append(patch)
        interfaces = doc["interfaces"]
        for k, iface in enumerate(interfaces or ()):
            for patch in (iface["patch_a"], iface["patch_b"]):
                if not 0 <= patch < len(patches):
                    raise InputError(f"interface {k}: patch {patch} does not "
                                     f"exist (mesh has {len(patches)})")
        if interfaces is not None:
            interfaces = [Interface(**iface) for iface in interfaces]
        return cls(patches, sets=doc["sets"], interfaces=interfaces)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)

    @classmethod
    def load(cls, path) -> "Mesh":
        return cls.from_json_dict(read_json(path))


# The mesh document, the format of Mesh.to_json_dict: its fields are the
# Patch and Interface attributes, and points rows are [x, y, z, w].
_PATCH = obj({"degree_u": whole(), "degree_v": whole(),
              "knots_u": listof(number()), "knots_v": listof(number()),
              "n_u": whole(), "n_v": whole(),
              "points": listof(listof(number(), size=4), nonempty=True)},
             member="field")
_INTERFACE = obj({"patch_a": whole(), "side_a": tag("side", SIDES),
                  "patch_b": whole(), "side_b": tag("side", SIDES),
                  "reversed": flag(False)}, member="field")
MESH_DOCUMENT = obj({
    "patches": listof(_PATCH, nonempty=True, label="patch"),
    "interfaces": listof(_INTERFACE, None, label="interface"),
    "sets": obj(None, None)})


# ---------------------------------------------------------------------------
# construction helpers


def _arc_homogeneous(radius: float, ang0: float, ang1: float) -> np.ndarray:
    """Quadratic rational Bezier arc (sweep < pi) in homogeneous 2D coords.

    Returns (3, 3) rows [w*x, w*y, w].
    """
    sweep = ang1 - ang0
    if not 0.0 < abs(sweep) < np.pi:
        raise ValueError("arc sweep must lie in (0, pi)")
    mid = 0.5 * (ang0 + ang1)
    w1 = np.cos(0.5 * sweep)
    # middle control point is the tangent intersection R/w1 * e(mid); in
    # homogeneous form the w1 cancels against the weight
    return np.array([
        [radius * np.cos(ang0), radius * np.sin(ang0), 1.0],
        [radius * np.cos(mid), radius * np.sin(mid), w1],
        [radius * np.cos(ang1), radius * np.sin(ang1), 1.0],
    ])


def _line_homogeneous(x0: float, x1: float) -> np.ndarray:
    return np.array([[x0, 1.0], [x1, 1.0]])


def _elevate_to(hom: np.ndarray, degree_now: int, degree_target: int) -> np.ndarray:
    if degree_target < degree_now:
        raise ValueError("cannot lower degree during construction")
    return elevate_bezier(hom, degree_target - degree_now)


def _single_span_patch(degree_u, degree_v, hom_grid, u_range=(0.0, 1.0),
                       v_range=(0.0, 1.0)) -> Patch:
    """Patch from a single-element homogeneous control grid (n_v, n_u, 4)."""
    n_v, n_u = hom_grid.shape[:2]
    w = hom_grid[..., 3].reshape(-1)
    pts = hom_grid[..., :3].reshape(-1, 3) / w[:, None]
    return Patch(degree_u, degree_v,
                 open_knot_vector(1, degree_u, *u_range),
                 open_knot_vector(1, degree_v, *v_range),
                 pts, w)


def refined(patch: Patch, n_u: int, n_v: int) -> Patch:
    """Refine towards a uniform n_u x n_v element grid by knot insertion."""
    out = patch
    for axis, n in ((0, n_u), (1, n_v)):
        knots = out.knots_u if axis == 0 else out.knots_v
        degree = out.degree_u if axis == 0 else out.degree_v
        lo, hi = knots[0], knots[-1]
        target = np.linspace(lo, hi, n + 1)
        have = np.unique(knots)
        for h in have[1:-1]:
            if not np.any(np.isclose(target, h)):
                raise ValueError("existing interior knots not on the target grid")
        new = [t for t in target[1:-1] if not np.any(np.isclose(have, t))]
        if new:
            out = _insert_knots(out, axis, new)
    return out


def _insert_knots(patch: Patch, axis: int, values) -> Patch:
    hom = np.column_stack([patch.points * patch.weights[:, None], patch.weights])
    grid = hom.reshape(patch.n_v, patch.n_u, 4)
    if axis == 0:
        R, knots_out = insertion_matrix(patch.knots_u, patch.degree_u, values)
        new = np.einsum("ab,vbk->vak", R, grid)
        out = Patch(patch.degree_u, patch.degree_v, knots_out, patch.knots_v.copy(),
                    (new[..., :3] / new[..., 3:4]).reshape(-1, 3),
                    new[..., 3].reshape(-1))
    else:
        R, knots_out = insertion_matrix(patch.knots_v, patch.degree_v, values)
        new = np.einsum("ab,buk->auk", R, grid)
        out = Patch(patch.degree_u, patch.degree_v, patch.knots_u.copy(), knots_out,
                    (new[..., :3] / new[..., 3:4]).reshape(-1, 3),
                    new[..., 3].reshape(-1))
    return out


def make_plate(lx: float, ly: float, degree: int, n_x: int, n_y: int,
               origin=(0.0, 0.0, 0.0)) -> Patch:
    """Flat rectangular patch in the z = 0 plane, u along x and v along y."""
    ox, oy, oz = origin
    hu = _elevate_to(_line_homogeneous(ox, ox + lx), 1, degree)
    hv = _elevate_to(_line_homogeneous(oy, oy + ly), 1, degree)
    grid = np.zeros((degree + 1, degree + 1, 4))
    for j in range(degree + 1):
        for i in range(degree + 1):
            grid[j, i] = [hu[i, 0], hv[j, 0], oz, 1.0]
    patch = _single_span_patch(degree, degree, grid,
                               u_range=(0.0, lx), v_range=(0.0, ly))
    return refined(patch, n_x, n_y)


def make_cylinder_panel(radius: float, length: float, phi0: float, phi1: float,
                        degree: int, n_axial: int, n_circ: int) -> Patch:
    """Cylinder segment about the x axis: points (x, R cos(phi), R sin(phi)).

    Angles are in degrees.  u runs axially over [0, length],
    v circumferentially over [phi0, phi1] (still in degrees).
    """
    arc = _elevate_to(_arc_homogeneous(radius, np.radians(phi0),
                                       np.radians(phi1)), 2, degree)
    line = _elevate_to(_line_homogeneous(0.0, length), 1, degree)
    n = degree + 1
    grid = np.zeros((n, n, 4))
    for j in range(n):        # circumferential (v)
        wy, wz, w = arc[j, 0], arc[j, 1], arc[j, 2]
        for i in range(n):    # axial (u)
            x, wx = line[i]
            grid[j, i] = [w * x, wy, wz, w]
    patch = _single_span_patch(degree, degree, grid,
                               u_range=(0.0, length),
                               v_range=(phi0, phi1))
    return refined(patch, n_axial, n_circ)


def make_sphere_panel(radius: float, phi0: float, phi1: float, theta0: float,
                      theta1: float, degree: int, n_phi: int, n_theta: int) -> Patch:
    """Sphere segment: azimuth phi (u direction), polar theta from +z (v).

    Angles are in degrees.  theta0 may be 0, collapsing the v0 edge to the
    pole; the merged node map then treats the pole as a single control point.
    """
    t0, t1 = np.radians(theta0), np.radians(theta1)
    # profile arc in the (r, z) plane, angle measured from +z
    prof = _elevate_to(_arc_homogeneous(radius, 0.5 * np.pi - t0,
                                        0.5 * np.pi - t1), 2, degree)
    azim = _elevate_to(_arc_homogeneous(1.0, np.radians(phi0),
                                        np.radians(phi1)), 2, degree)
    n = degree + 1
    grid = np.zeros((n, n, 4))
    for j in range(n):        # polar (v)
        # arc built at angle (pi/2 - theta): first comp = w R sin(theta)
        # (cylindrical radius), second = w R cos(theta) (height)
        r_h, z_h, wp = prof[j]
        for i in range(n):    # azimuth (u)
            cx, cy, wa = azim[i]
            grid[j, i] = [r_h * cx, r_h * cy, z_h * wa, wp * wa]
    patch = _single_span_patch(degree, degree, grid,
                               u_range=(phi0, phi1), v_range=(theta0, theta1))
    return refined(patch, n_phi, n_theta)


def skew_patch(patch: Patch, r: float, axis: int = 0) -> Patch:
    """Reparametrize a flat rectangular patch into a skew mesh.

    The interior parameter lines tilt progressively: with S the length of the
    distorted (axis) direction and L the width, the mid cross line acquires
    slope tan(theta) = r S / L while the boundary rectangle is unchanged.
    The shift field is polynomial of bidegree (2, 1), so for degrees >= 2 the
    distorted parametrization is reproduced exactly by Greville collocation.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("distortion ratio must lie in [0, 1)")
    if r == 0.0:
        return patch
    if not np.allclose(patch.weights, 1.0):
        raise ValueError("skew construction expects a polynomial (flat) patch")
    ku, kv = patch.knots_u, patch.knots_v
    x00, x10, x01 = patch.point(ku[[0, -1, 0]], kv[[0, 0, -1]])
    e_len = (x10 if axis == 0 else x01) - x00
    S = float(np.linalg.norm(e_len))
    e_len = e_len / S

    def shift(su, sv):
        # su: normalized coordinate along the distorted axis, sv across;
        # scalar_square rounds as a scalar power, so no point depends on
        # the batch
        return -r * S * (sv - 0.5) * (1.0 - scalar_square(2.0 * su - 1.0))

    gu = greville_abscissae(ku, patch.degree_u)
    gv = greville_abscissae(kv, patch.degree_v)
    nu = ((gu - ku[0]) / (ku[-1] - ku[0]))[None, :]
    nv = ((gv - kv[0]) / (kv[-1] - kv[0]))[:, None]
    su, sv = (nu, nv) if axis == 0 else (nv, nu)
    F = (patch.point(gu[None, :], gv[:, None])
         + shift(su, sv)[..., None] * e_len)
    # solve A_v P A_u^T = F per coordinate; both matrices are square since
    # there is one Greville point per basis function
    Au = _collocation_matrix(patch.basis_u, gu)
    Av = _collocation_matrix(patch.basis_v, gv)
    P = np.einsum("ja,abk,ib->jik", np.linalg.inv(Av), F, np.linalg.inv(Au))
    return Patch(patch.degree_u, patch.degree_v, ku.copy(), kv.copy(),
                 P.reshape(-1, 3), np.ones(P.shape[0] * P.shape[1]))


def _collocation_matrix(basis: BasisGrid, pts: np.ndarray) -> np.ndarray:
    conn, N, _, _ = basis.eval_elements(*basis.locate(pts))
    A = np.zeros((len(pts), basis.n_funcs))
    A[np.arange(len(pts))[:, None], conn] = N[:, 0]
    return A


def make_folded_strip(length_1: float, length_2: float, width: float,
                      fold_angle: float, degree: int, n_per_patch,
                      n_width: int, n_patches_1: int = 1, n_patches_2: int = 1):
    """Chain of flat patches along x with a fold between the two segments.

    Segment one lies in the z = 0 plane, segment two tilts upward by
    ``fold_angle`` (degrees) about the fold line.  Returns (mesh, meta) where
    meta maps patch index -> dict with the segment frame and the arclength
    offset of the patch origin, used by the analytic bending reference.
    """
    beta = np.radians(fold_angle)
    n_p = n_patches_1 + n_patches_2
    patches = []
    meta = []
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([np.cos(beta), 0.0, np.sin(beta)])
    fold_pt = np.array([length_1, 0.0, 0.0])
    for k in range(n_p):
        if k < n_patches_1:
            seg_len = length_1 / n_patches_1
            s0 = k * seg_len
            origin = np.array([s0, 0.0, 0.0])
            axis = e1
        else:
            seg_len = length_2 / n_patches_2
            s0 = length_1 + (k - n_patches_1) * seg_len
            origin = fold_pt + (s0 - length_1) * e2
            axis = e2
        flat = make_plate(seg_len, width, degree, n_per_patch, n_width)
        # rotation about y carrying e_x into the segment axis
        rot = np.array([[axis[0], 0.0, -axis[2]],
                        [0.0, 1.0, 0.0],
                        [axis[2], 0.0, axis[0]]])
        patches.append(flat.transformed(rot=rot, shift=origin))
        meta.append({"s_start": s0, "origin": origin, "e_len": axis,
                     "e_wid": np.array([0.0, 1.0, 0.0])})
    mesh = Mesh(patches)
    return mesh, meta
