"""Patch evaluation, exact primitives, mesh merging and serialization."""

import json

import numpy as np
import pytest

from igashell.geometry import (
    MERGE_TOL_REL,
    Interface,
    Mesh,
    MeshFormatError,
    Patch,
    make_cylinder_panel,
    make_folded_strip,
    make_plate,
    make_sphere_panel,
    refined,
    skew_patch,
)
from igashell import benchmarks
from igashell.elements import gauss_01
from oracles import point_basis_reference


def fd_surface_derivs(patch, u, v, h=1e-3):
    xp = patch.point(u + h, v)
    xm = patch.point(u - h, v)
    yp = patch.point(u, v + h)
    ym = patch.point(u, v - h)
    x0 = patch.point(u, v)
    a1 = (xp - xm) / (2 * h)
    a2 = (yp - ym) / (2 * h)
    huu = (xp - 2 * x0 + xm) / h ** 2
    hvv = (yp - 2 * x0 + ym) / h ** 2
    xpp = patch.point(u + h, v + h)
    xpm = patch.point(u + h, v - h)
    xmp = patch.point(u - h, v + h)
    xmm = patch.point(u - h, v - h)
    huv = (xpp - xpm - xmp + xmm) / (4 * h ** 2)
    return a1, a2, huu, hvv, huv


@pytest.mark.parametrize("maker", [
    lambda: make_plate(2.0, 1.0, 3, 3, 2),
    lambda: make_cylinder_panel(1.5, 2.0, 10.0, 80.0, 3, 2, 3),
    lambda: make_sphere_panel(2.0, 0.0, 90.0, 20.0, 80.0, 4, 2, 2),
])
def test_derivatives_match_finite_differences(maker):
    patch = maker()
    rng = np.random.default_rng(9)
    (u0, u1), (v0, v1) = patch.param_range
    for _ in range(5):
        u = rng.uniform(u0 + 0.05 * (u1 - u0), u1 - 0.05 * (u1 - u0))
        v = rng.uniform(v0 + 0.05 * (v1 - v0), v1 - 0.05 * (v1 - v0))
        x, a, h2 = patch.evaluate(u, v)
        a1, a2, huu, hvv, huv = fd_surface_derivs(patch, u, v)
        assert np.allclose(a[0], a1, rtol=1e-6, atol=1e-7)
        assert np.allclose(a[1], a2, rtol=1e-6, atol=1e-7)
        assert np.allclose(h2[0], huu, rtol=2e-4, atol=1e-5)
        assert np.allclose(h2[1], hvv, rtol=2e-4, atol=1e-5)
        assert np.allclose(h2[2], huv, rtol=2e-4, atol=1e-5)


@pytest.mark.parametrize("patch", [
    make_plate(2.0, 1.0, 2, 3, 2),
    make_sphere_panel(10.0, 0.0, 90.0, 18.0, 90.0, 2, 8, 8),
    make_sphere_panel(2.0, 0.0, 90.0, 20.0, 80.0, 3, 2, 3),
    make_cylinder_panel(3.0, 3.0, 0.0, 90.0, 4, 3, 2),
    # one of these spans has pow(h, 2) != h * h
    make_plate(72.0, 1.0, 2, 23, 1),
], ids=["plate", "cap", "cubic-cap", "cylinder", "plate-23"])
def test_basis2d_matches_scalar_reference(patch):
    """Batched tabulation keeps the rounding of scalar point evaluation, at
    random points, the corners and every default Gauss point."""
    rng = np.random.default_rng(4)
    (u0, u1), (v0, v1) = patch.param_range
    pts = [(rng.uniform(u0, u1), rng.uniform(v0, v1)) for _ in range(100)]
    pts += [(u0, v0), (u1, v1)]
    gauss = [[a + t * (b - a) for a, b in zip(g.breaks[:-1], g.breaks[1:])
              for t in gauss_01(g.degree + 1)[0]]
             for g in (patch.basis_u, patch.basis_v)]
    pts += [(u, v) for v in gauss[1] for u in gauss[0]]
    for u, v in pts:
        for got, want in zip(patch.basis2d(u, v),
                             point_basis_reference(patch, u, v)):
            assert np.array_equal(got, want), (u, v)
    # one broadcast call over all the points: u (n,) against v (1, n)
    u, v = np.array(pts).T
    want = [np.array(t) for t in zip(*(point_basis_reference(patch, *uv)
                                        for uv in pts))]
    for got, w in zip(patch.basis2d(u, v[None, :]), want):
        assert got.shape == (1,) + w.shape
        assert np.array_equal(got[0], w)


def test_cylinder_is_exact():
    R = 3.0
    patch = make_cylinder_panel(R, 4.0, 0.0, 90.0, 2, 4, 4)
    rng = np.random.default_rng(2)
    (u0, u1), (v0, v1) = patch.param_range
    for _ in range(20):
        x = patch.point(rng.uniform(u0, u1), rng.uniform(v0, v1))
        assert np.isclose(np.hypot(x[1], x[2]), R, atol=1e-12), x


def test_sphere_is_exact():
    R = 2.0
    patch = make_sphere_panel(R, 0.0, 90.0, 0.0, 90.0, 4, 3, 3)
    rng = np.random.default_rng(3)
    (u0, u1), (v0, v1) = patch.param_range
    for _ in range(20):
        x = patch.point(rng.uniform(u0, u1), rng.uniform(v0, v1))
        assert np.isclose(np.linalg.norm(x), R, atol=1e-12), x


def test_refinement_preserves_surface():
    patch = make_sphere_panel(1.0, 0.0, 90.0, 30.0, 90.0, 3, 1, 1)
    fine = refined(patch, 4, 3)
    assert fine.n_elements_u == 4 and fine.n_elements_v == 3
    rng = np.random.default_rng(4)
    (u0, u1), (v0, v1) = patch.param_range
    for _ in range(10):
        u, v = rng.uniform(u0, u1), rng.uniform(v0, v1)
        assert np.allclose(patch.point(u, v), fine.point(u, v), atol=1e-12)


def test_skew_preserves_boundary_and_tilts_cross_lines():
    patch = make_plate(3.0, 1.0, 2, 6, 6)
    sk = skew_patch(patch, r=0.2)
    # all four corner points stay put
    for u, v in [(0, 0), (3, 0), (0, 1), (3, 1)]:
        assert np.allclose(sk.point(u, v), patch.point(u, v), atol=1e-12)
    # end edges (transverse to the skew direction) are pointwise unchanged
    for v in np.linspace(0, 1, 7):
        assert np.allclose(sk.point(0.0, v), patch.point(0.0, v), atol=1e-12)
        assert np.allclose(sk.point(3.0, v), patch.point(3.0, v), atol=1e-12)
    # long edges slide along themselves but stay on the same line
    for u in np.linspace(0, 3, 9):
        assert np.isclose(sk.point(u, 0.0)[1], 0.0, atol=1e-12)
        assert np.isclose(sk.point(u, 1.0)[1], 1.0, atol=1e-12)
    # the mid cross line tilts with slope r * S / L against the cross axis
    d = sk.point(1.5, 0.55) - sk.point(1.5, 0.45)
    assert np.isclose(d[0] / d[1], -0.2 * 3.0 / 1.0, rtol=1e-10), d


def test_mesh_merges_shared_edge():
    mesh, meta = make_folded_strip(1.0, 1.0, 0.5, 10.0, 2, 4, 2)
    pa, pb = mesh.patches
    n_per_patch = pa.n_u * pa.n_v
    shared = pa.n_v  # one full edge of control points in common
    assert mesh.n_nodes == 2 * n_per_patch - shared
    ifs = mesh.detect_interfaces()
    assert len(ifs) == 1
    iface = ifs[0]
    assert {iface.side_a, iface.side_b} == {"u1", "u0"}


def test_mesh_json_round_trip(tmp_path):
    mesh, _ = make_folded_strip(1.0, 0.8, 0.5, 30.0, 3, 3, 2)
    path = tmp_path / "mesh.json"
    mesh.save(path)
    back = Mesh.load(path)
    assert back.n_nodes == mesh.n_nodes
    for p, q in zip(mesh.patches, back.patches):
        assert p.degree_u == q.degree_u and p.degree_v == q.degree_v
        assert np.allclose(p.points, q.points)
        assert np.allclose(p.weights, q.weights)
        assert np.allclose(p.knots_u, q.knots_u)


ONE_INTERFACE = {"patch_a": 0, "side_a": "u1", "patch_b": 0,
                 "side_b": "u0"}
# (change to a valid one-patch mesh document, what the error says)
MALFORMED = [
    (lambda b: b["patches"][0].update(degree_u=9), "degrees"),
    (lambda b: b["patches"][0].pop("points"), "missing field 'points'"),
    (lambda b: b["patches"][0].pop("n_u"), "missing field 'n_u'"),
    (lambda b: b["patches"][0].pop("n_v"), "missing field 'n_v'"),
    (lambda b: b["patches"].__setitem__(0, [1, 2]),
     "patch 0: must be an object"),
    (lambda b: b.update(interfaces=[{k: v for k, v in ONE_INTERFACE.items()
                                     if k != "side_a"}]),
     "interface 0: missing field 'side_a'"),
    (lambda b: b.update(interfaces=[dict(ONE_INTERFACE, patch_b=5)]),
     "interface 0: patch 5 does not exist"),
    (lambda b: b.update(interfaces=[dict(ONE_INTERFACE, patch_a=-1)]),
     "interface 0: patch -1 does not exist"),
    (lambda b: b.update(interfaces=[dict(ONE_INTERFACE, side_b="w1")]),
     "interface 0: unknown side 'w1'"),
    (lambda b: b.update(interfaces=["u0"]), "interface 0: must be an object"),
    (lambda b: b.update(interfaces={"0": ONE_INTERFACE}), "must be a list"),
]


def test_mesh_rejects_malformed_input(tmp_path):
    path = tmp_path / "bad.json"
    for mutate, says in MALFORMED:
        blob = Mesh([make_plate(1.0, 1.0, 2, 2, 2)]).to_json_dict()
        mutate(blob)
        path.write_text(json.dumps(blob))
        with pytest.raises(MeshFormatError, match=says):
            Mesh.load(path)


def test_degenerate_pole_nodes_merge():
    # closing the polar angle at zero collapses one edge to the pole point
    patch = make_sphere_panel(1.0, 0.0, 90.0, 0.0, 90.0, 2, 2, 2)
    mesh = Mesh([patch])
    ids = mesh.patch_node_ids[0].reshape(patch.n_v, patch.n_u)
    assert len(set(ids[0])) == 1, "pole row should merge to a single node"


def brute_force_merge(mesh):
    """Node coordinates and per-patch node ids of a pairwise merge: points
    closer than the merge tolerance share a node, numbered by the smallest
    point index of their cluster."""
    coords = np.vstack([p.points for p in mesh.patches])
    diag = float(np.linalg.norm(coords.max(axis=0) - coords.min(axis=0)))
    tol = MERGE_TOL_REL * (diag if diag > 0.0 else 1.0)
    close = np.linalg.norm(coords[:, None] - coords[None], axis=-1) <= tol
    label = np.arange(len(coords))
    while True:
        new = np.where(close, label[None, :], len(coords)).min(axis=1)
        if np.array_equal(new, label):
            break
        label = new
    uniq, inv = np.unique(label, return_inverse=True)
    ends = np.cumsum([p.points.shape[0] for p in mesh.patches])[:-1]
    return coords[uniq], np.split(inv, ends)


def benchmark_meshes():
    B = benchmarks
    yield B.build_hemisphere_linear().mesh
    yield B.build_plate_sinusoidal().mesh
    yield B.build_cylinder_linear().mesh
    for scheme in ("single", "double", "single_skew", "double_skew"):
        yield B.build_bending_flat(8, scheme).mesh
    for n in (1, 2, 4):
        yield B.build_bending_folded(n, 2)[0].mesh
    yield B.build_cantilever(0.2).mesh
    yield B.build_hemisphere_hole().mesh
    yield B.build_cylinder_pinch_nl()[0].mesh
    yield B.build_cylinder_free_nl().mesh
    # a collapsed edge: the pole row carries points of different weights
    yield Mesh([make_sphere_panel(1.0, 0.0, 90.0, 0.0, 90.0, 2, 2, 2)])


def test_node_merge_matches_pairwise_merge():
    merged_weights_differ = False
    for mesh in benchmark_meshes():
        coords, ids = brute_force_merge(mesh)
        assert np.array_equal(mesh.node_coords, coords)
        for got, want in zip(mesh.patch_node_ids, ids):
            assert np.array_equal(got, want)
        weights = np.concatenate([p.weights for p in mesh.patches])
        nodes = np.concatenate(mesh.patch_node_ids)
        merged_weights_differ |= bool(np.any(
            weights != mesh.node_weights[nodes]))
    assert merged_weights_differ


def test_patch_validation():
    with pytest.raises(ValueError):
        Patch(0, 1, [0, 0, 1, 1], [0, 0, 1, 1],
              np.zeros((4, 3)), np.ones(4))
    with pytest.raises(ValueError):
        make_plate(1.0, 1.0, 2, 2, 2, origin=(0, 0, 0)).__class__(
            2, 2, [0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1],
            np.zeros((9, 3)), -np.ones(9))
