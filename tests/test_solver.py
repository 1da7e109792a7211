"""End-to-end checks of the incremental Newton solver on small problems."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import igashell.benchmarks as benchmarks
import igashell.elements as elements_mod
import igashell.solver as solver_mod
from igashell.benchmarks import (FOLD, build_bending_folded,
                                 build_cylinder_pinch_nl,
                                 build_hemisphere_hole)
from igashell.constraints import Multiplier, Penalty, RotationConstraint
from igashell.elements import (PatchQuadrature, _add_geometric, _b_operators,
                               follower_edge_moment, follower_pressure,
                               internal_forces)
from igashell.geometry import Mesh, make_folded_strip, make_plate
from igashell.materials import CanhamMaterial, KoiterMaterial
from igashell.solver import Model, NonConvergenceError, displacement_at, solve

from test_constraints import reversed_fold_mesh

E, NU, T = 200.0, 0.3, 0.02


def cantilever_model(load=1e-4):
    mesh = Mesh([make_plate(1.0, 0.4, 2, 3, 2)])
    mat = KoiterMaterial.from_youngs(E, NU, T)
    model = Model(mesh, mat)
    model.fix_edge(0, "u0")
    clamp = RotationConstraint.fixed(mesh, 0, "u0")
    model.add_constraint(clamp, Penalty(50.0 * E * T**3))
    if load:
        model.add_point_force(0, 1.0, 0.2, [0.0, 0.0, load])
    return mesh, model


def test_zero_load_stays_at_reference():
    mesh, model = cantilever_model(load=0.0)
    hist = solve(model, n_steps=1)
    assert len(hist) == 1
    assert hist[-1].iterations == 1, "reference state should satisfy equilibrium"
    assert np.abs(hist[-1].x - mesh.node_coords).max() < 1e-14


def test_small_load_response_is_linear():
    tips = []
    for load in (1e-8, 2e-8):
        mesh, model = cantilever_model(load)
        hist = solve(model, n_steps=1)
        tips.append(displacement_at(mesh, hist[-1].x, 0, 1.0, 0.2)[2])
        # Newton stops on a round-off update here, and reports the residual
        # of the iterate it returns
        h = hist[-1]
        r, _, _ = model.assemble(h.x, h.q, h.lam, tangent=False)
        assert h.residual == np.linalg.norm(r[~model._presc_mask])
    assert tips[0] > 0.0
    ratio = tips[1] / tips[0]
    assert abs(ratio - 2.0) < 1e-4, \
        f"doubling a tiny load should double the response, ratio {ratio:.5f}"


def test_moderate_load_newton_count_and_monotone_history():
    # full load bends the tip to about a tenth of the span
    mesh, model = cantilever_model(load=2e-5)
    hist = solve(model, n_steps=2, tol_rel=1e-10)
    assert [h.lam for h in hist] == pytest.approx([0.5, 1.0])
    assert all(h.iterations <= 10 for h in hist), \
        "consistent tangents should keep Newton counts small"
    tip_half = displacement_at(mesh, hist[0].x, 0, 1.0, 0.2)[2]
    tip_full = displacement_at(mesh, hist[1].x, 0, 1.0, 0.2)[2]
    assert 0.0 < tip_half < tip_full


def test_prescribed_edge_displacement_drives_reaction():
    mesh, model = cantilever_model(load=0.0)
    model.fix_edge(0, "u1", components=(2,), value=0.01)
    hist = solve(model, n_steps=2)
    x = hist[-1].x
    tip = displacement_at(mesh, x, 0, 1.0, 0.2)
    assert abs(tip[2] - 0.01) < 1e-12
    r, _, _ = model.assemble(x, hist[-1].q, 1.0, tangent=False)
    reactions = r[:mesh.n_dofs][model._presc_mask]
    assert np.abs(reactions).max() > 0.0
    # prescribed and free partitions must balance: total z-force is zero
    assert abs(r[2::3].sum()) < 1e-9 * np.abs(reactions).max()


def test_points_outside_the_patch_raise():
    """displacement_at and add_point_force reject a (u, v) outside the
    patch's parameter range instead of extrapolating; its ends are in."""
    mesh = Mesh([make_plate(1.0, 1.0, 2, 2, 2)])
    model = Model(mesh, KoiterMaterial.from_youngs(E, NU, T))
    x = mesh.node_coords.copy()
    x[:, 2] = 0.01 * mesh.node_coords[:, 0]
    for u, v in ((3.0, 0.5), (0.5, -0.25), (1.0 + 1e-12, 1.0),
                 (0.0, np.nan)):
        with pytest.raises(ValueError, match="outside patch 0"):
            displacement_at(mesh, x, 0, u, v)
        with pytest.raises(ValueError, match="outside patch 0"):
            model.add_point_force(0, u, v, [0.0, 0.0, 1.0])
    assert model.dead_forces == []
    for u, v in ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)):
        assert displacement_at(mesh, x, 0, u, v)[2] == pytest.approx(
            0.01 * u, abs=1e-15)
        model.add_point_force(0, u, v, [0.0, 0.0, 1.0])
    assert len(model.dead_forces) == 4


def coupled_strip(method):
    """A clamped flat two-patch strip, its interface coupled by ``method``,
    under a tip point load."""
    mesh, _ = make_folded_strip(0.5, 0.5, 0.4, 0.0, 2, 2, 2)
    mat = KoiterMaterial.from_youngs(E, NU, T)
    model = Model(mesh, mat)
    model.fix_edge(0, "u0")
    model.add_constraint(RotationConstraint.fixed(mesh, 0, "u0"),
                         Penalty(100.0 * E * T**3))
    iface = mesh.interfaces[0]
    model.add_constraint(RotationConstraint.from_interface(mesh, iface),
                         method)
    model.add_point_force(1, mesh.patches[1].param_range[0][1], 0.2,
                          [0.0, 0.0, 2e-5])
    return mesh, model


@pytest.mark.parametrize("interp", ["n2q0", "n2q1c"])
def test_penalty_and_multiplier_coupling_agree(interp):
    results = {}
    for method_name in ("penalty", "lm"):
        mesh, model = coupled_strip(Penalty(100.0 * E * T**3)
                                    if method_name == "penalty"
                                    else Multiplier(interp))
        hist = solve(model, n_steps=1, tol_rel=1e-10)
        results[method_name] = displacement_at(
            mesh, hist[-1].x, 1, mesh.patches[1].param_range[0][1], 0.2)[2]
        if method_name == "lm":
            assert np.abs(hist[-1].q).max() > 0.0
    gap = abs(results["penalty"] - results["lm"]) / abs(results["lm"])
    assert gap < 5e-3, f"penalty and multiplier tip deflections differ {gap:.2e}"


def test_divergence_raises_after_cuts():
    mesh = Mesh([make_plate(1.0, 0.4, 2, 2, 2)])
    mat = KoiterMaterial.from_youngs(E, NU, T)
    model = Model(mesh, mat)
    # no supports at all: singular stiffness, Newton cannot proceed
    model.add_point_force(0, 1.0, 0.2, [0.0, 0.0, 1.0])
    with pytest.raises(NonConvergenceError):
        solve(model, n_steps=1, max_cuts=1, max_iter=5)


def test_hopeless_step_is_cut_after_its_failed_excursion(monkeypatch):
    """The penalty strip's first step of 0.2 cannot converge; the attempt
    fails as soon as its excursion does, without creeping on."""
    model, _ = build_bending_folded(2, 2, ("penalty", 1e4))
    tangents = counted_tangents(monkeypatch)
    configs = recorded_configurations(monkeypatch)
    with pytest.raises(NonConvergenceError):
        solve(model, n_steps=5, max_cuts=0)
    assert 0 < len(tangents) <= 8
    # the attempt's start, then one trial point per tangent at most
    assert len(configs) - 1 <= len(tangents)


def test_tolerance_below_round_off_is_not_met_by_stagnation():
    """A tolerance far below the round-off floor fails: neither the floor
    exit nor update stagnation accepts a residual above 100 tol."""
    _, model = cantilever_model()
    with pytest.raises(NonConvergenceError):
        solve(model, n_steps=1, tol_rel=1e-17, max_cuts=1)


@pytest.fixture(scope="module")
def penalty_strip_path():
    model, _ = build_bending_folded(2, 2, ("penalty", 1e4))
    return model, solve(model, n_steps=10)


def test_penalty_strip_takes_few_steps(monkeypatch):
    """With the MIP tangent of the penalty, the strip's 10 requested steps
    need at most 12 accepted ones and 80 Newton iterations over all
    attempts (40 and 270 with the displacement tangent)."""
    iterations = []
    newton = solver_mod._newton

    def counting_newton(*args):
        out = newton(*args)
        iterations.append(out[1])
        return out

    monkeypatch.setattr(solver_mod, "_newton", counting_newton)
    model, _ = build_bending_folded(2, 2, ("penalty", 1e4))
    hist = solve(model, n_steps=10)
    assert len(hist) <= 12
    assert sum(iterations) <= 80


@pytest.fixture(scope="module")
def fine_strip_path():
    """Criterion 7's fine strip solved in 20 steps: (model, history, patch
    passes, (x, q) bytes of every evaluation)."""
    with pytest.MonkeyPatch.context() as mp:
        passes = counted_passes(mp)
        configs = recorded_configurations(mp)
        model, _ = build_bending_folded(4, 2, ("penalty", 1e4))
        hist = solve(model, n_steps=20)
    return model, hist, passes, configs


def test_every_step_says_how_it_converged(penalty_strip_path,
                                          fine_strip_path):
    _, model = cantilever_model(load=2e-5)
    hist = solve(model, n_steps=2, tol_rel=1e-10)
    assert all(h.reason in ("tol", "trial") for h in hist)
    _, hist = penalty_strip_path
    assert {h.reason for h in hist} <= {"tol", "trial", "floor"}
    # criterion 7's fine strip still meets its round-off floor
    model, hist, _, _ = fine_strip_path
    reasons = {h.reason for h in hist}
    assert reasons <= {"tol", "trial", "floor"} and "floor" in reasons
    free = ~model._presc_mask
    for h in hist:
        if h.reason == "floor":
            r, _, f_ext = model.assemble(h.x, h.q, h.lam, tangent=False)
            assert np.linalg.norm(r[free]) == h.residual
            assert h.residual <= solver_mod.FLOOR_FACTOR * 1e-8 * \
                np.linalg.norm(f_ext[free])


def reversed_penalty_strip(model):
    """The penalty strip of ``build_bending_folded`` with its patch order
    reversed, so nodes, elements and constraints are numbered and summed in
    another order."""
    (_, clamp_how), (_, how) = model.constraints[:2]
    mesh = Mesh(model.mesh.patches[::-1])
    last = len(mesh.patches) - 1
    rev = Model(mesh, model.material)
    rev.fix_edge(last, "u0", components=(0, 2))
    rev.fix_nodes(mesh.edge_node_ids(last, "u0")[:1], components=(1,))
    rev.add_constraint(RotationConstraint.fixed(mesh, last, "u0"), clamp_how)
    for iface in mesh.detect_interfaces():
        rev.add_constraint(RotationConstraint.from_interface(mesh, iface),
                           how)
    rev.add_edge_moment(0, "u1", -FOLD["M"])
    return rev


def test_reversed_patch_order_takes_the_same_load_path(penalty_strip_path):
    """Round-off decides neither the load path nor how long a step takes:
    the reversed strip accepts the same load factors, each within 1e-6 of
    the same state and within 2 Newton iterations of the same count."""
    model, hist = penalty_strip_path
    rev = reversed_penalty_strip(model)
    hist_rev = solve(rev, n_steps=10)
    assert [h.lam for h in hist_rev] == [h.lam for h in hist]
    ids = np.concatenate(model.mesh.patch_node_ids)
    ids_rev = np.concatenate(rev.mesh.patch_node_ids[::-1])
    X = model.mesh.node_coords[ids]
    for h, h_rev in zip(hist, hist_rev):
        u, u_rev = h.x[ids] - X, h_rev.x[ids_rev] - X
        assert np.linalg.norm(u_rev - u) <= 1e-6 * np.linalg.norm(u)
        assert abs(h_rev.iterations - h.iterations) <= 2


# -- the reference state -----------------------------------------------------

SMALL_BUILDS = {
    "build_hemisphere_linear": (2, 4), "build_plate_sinusoidal": (2, 4),
    "build_cylinder_linear": (2, 4), "build_bending_flat": (4, "double_skew"),
    "build_bending_folded": (1, 2), "build_cantilever": (0.2, 2, 4),
    "build_hemisphere_hole": (2, 4), "build_cylinder_pinch_nl": (2, 4),
    "build_cylinder_free_nl": (2, 4),
}


def with_reference(stacked, tables):
    """A stack given the reference normal of its tables."""
    stacked.ref_normal = np.concatenate([q.ref_normal for q in tables])
    return stacked


def assert_reference_state(q, X):
    a_con, jac, normal = q.first_order(X)[:3]
    pairs = [(a_con, q.ref_state.a_con), (jac, q.ref_state.jac),
             (normal, q.ref_normal)]
    if isinstance(q, PatchQuadrature):
        state, normal = q.current(X)[:2]
        pairs += [(state.a_cov, q.ref_state.a_cov),
                  (state.b_cov, q.ref_state.b_cov), (normal, q.ref_normal)]
    for cur, ref in pairs:
        assert np.array_equal(cur, ref)


def small_model(name):
    model = getattr(benchmarks, name)(*SMALL_BUILDS[name])
    return model[0] if isinstance(model, tuple) else model


@pytest.mark.parametrize("name", sorted(SMALL_BUILDS))
def test_reference_state_is_at_rest_bit_for_bit(name):
    """At x = X every kernel block reproduces its reference metric,
    curvature and normal bit for bit, so strain-based laws give exactly
    zero internal forces, and every constraint sits at its rest angle
    exactly (sin of the deviation 0).  This holds also at the hemisphere's
    pole, whose coincident control points merge into one node."""
    builders = {n for n in dir(benchmarks) if n.startswith("build_")}
    assert builders == set(SMALL_BUILDS)
    model = small_model(name)
    X = model.mesh.node_coords
    strain_based = not isinstance(model.material, CanhamMaterial)
    members = [(pq, None) for pq in model.quads] + list(model.constraints)
    for idx in solver_mod._group(members, solver_mod._kind):
        items = [members[i][0] for i in idx]
        if members[idx[0]][1] is None:
            pq = with_reference(PatchQuadrature.stack(items), items)
            assert_reference_state(pq, X)
            if strain_based:
                f_el, _ = internal_forces(pq, model.material, X, False)
                assert np.all(f_el == 0.0)
            continue
        con = RotationConstraint.stack(items, [0] * len(items))
        for side in ("eq_a", "eq_b")[:1 + con.two_sided]:
            tables = [getattr(c, side) for c in items]
            eq = with_reference(getattr(con, side), tables)
            assert_reference_state(eq, X)
        _, sind = con.angle_deviation(X)
        assert np.all(sind == 0.0)


def full_tangent(pq, material, x):
    """The element tangents of ``internal_forces`` with the geometric terms
    always evaluated."""
    _, K = internal_forces(pq, material, x)
    state, normal, a_vec, a_up, _, gamma = pq.current(x)
    sv = material.stress_voigt(pq.ref_state, state)
    _, Nt = _b_operators(pq, normal, a_vec, gamma)
    _add_geometric(K, pq, sv, state, normal, a_up, Nt, pq.wq * pq.jac0)
    return sv, K


@pytest.mark.parametrize("name", sorted(SMALL_BUILDS))
def test_stress_free_tangent_skip_is_exact(name):
    """Where a patch block carries no stress at x = X -- every block of a
    strain-based law -- the tangent that skips the geometric terms equals,
    bit for bit, the one that evaluates them."""
    model = small_model(name)
    X = model.mesh.node_coords
    strain_based = not isinstance(model.material, CanhamMaterial)
    for block, method in model._current_layout().blocks:
        if method is not None:
            continue
        sv, K_full = full_tangent(block, model.material, X)
        if strain_based:
            assert not sv.any()
        if not sv.any():
            assert np.array_equal(internal_forces(block, model.material, X)[1],
                                  K_full)


def test_stressed_tangent_keeps_its_geometric_terms(monkeypatch):
    """The geometric terms are skipped at x = X only: at a perturbed state
    every patch block evaluates them."""
    model = small_model("build_hemisphere_linear")
    calls = []
    add = elements_mod._add_geometric

    def counting_add(K, *args):
        calls.append(K.shape)
        return add(K, *args)

    monkeypatch.setattr(elements_mod, "_add_geometric", counting_add)
    X = model.mesh.node_coords
    n_patch = sum(method is None for _, method in
                  model._current_layout().blocks)
    q = np.zeros(model.multiplier_layout()[0])
    model.assemble(X, q, 1.0)
    assert calls == []
    x = X + 1e-3 * np.sin(np.arange(X.size)).reshape(-1, 3)
    model.assemble(x, q, 1.0)
    assert len(calls) == n_patch > 0


# -- stacked assembly -------------------------------------------------------


def reference_assemble(model, x, q, lam, tangent):
    """One kernel call per patch and per edge, scattered in entry order:
    patches, then per constraint f_a, f_b, f_q and K_aa, K_aq, K_aq^T, K_bb,
    K_ab, K_ab^T, K_bq, K_bq^T, then the follower loads.  Every entry of r
    and K is summed by ``np.add.at`` in that order; K comes as CSR on the
    pattern of its distinct (row, column) pairs."""
    nd = model.mesh.n_dofs
    nq, offsets = model.multiplier_layout()
    r = np.zeros(nd + nq)
    trips = []
    for pq in model.quads:
        fe, Ke = internal_forces(pq, model.material, x, tangent)
        np.add.at(r, pq.edof.ravel(), fe.ravel())
        trips.append((pq.edof, pq.edof, Ke))
    for (con, method), off in zip(model.constraints, offsets):
        K_aa = K_bb = K_ab = K_aq = K_bq = f_q = qdof = None
        if isinstance(method, Penalty):
            (f_a, f_b), finish = con.penalty_pass(x, method)
            if tangent:
                K_aa, K_bb, K_ab, _ = finish()
        else:
            qc = q[off:off + con.n_multipliers(method)]
            (f_a, f_b, f_q), finish = con.lm_pass(x, qc, method)
            if tangent:
                K_aa, K_bb, K_ab, K_aq, K_bq = finish()
            qdof = nd + off + con._q_tables(method.interp)[1]
        a, b = con.edof_a, con.edof_b
        for dofs, fe in ((a, f_a), (b, f_b), (qdof, f_q)):
            if fe is not None:
                np.add.at(r, dofs.ravel(), fe.ravel())
        for rdof, cdof, Ke in ((a, a, K_aa), (a, qdof, K_aq), (b, b, K_bb),
                               (a, b, K_ab), (b, qdof, K_bq)):
            if Ke is not None:
                trips.append((rdof, cdof, Ke))
                if rdof is not cdof:
                    trips.append((cdof, rdof, Ke.transpose(0, 2, 1)))
    # the dead loads, then one follower kernel call per load, scaled by
    # lam times its magnitude
    f_ext = np.zeros(nd)
    for dofs, vals in model.dead_forces:
        np.add.at(f_ext, dofs.ravel(), lam * vals.ravel())
    loads = ([(follower_pressure, model.quads[patch], p)
              for patch, p in model.pressures]
             + [(follower_edge_moment, eq, m) for eq, m in model.edge_moments])
    for kernel, table, magnitude in loads:
        fe, finish = kernel(table, x)
        np.add.at(f_ext, table.edof.ravel(), ((lam * magnitude) * fe).ravel())
        if tangent:
            trips.append((table.edof, table.edof,
                          -((lam * magnitude) * finish())))
    r[:nd] -= f_ext
    if not tangent:
        return r, None
    rows = np.concatenate([np.repeat(rdof, Ke.shape[2], axis=1).ravel()
                           for rdof, _, Ke in trips])
    cols = np.concatenate([np.tile(cdof, (1, Ke.shape[1])).ravel()
                           for _, cdof, Ke in trips])
    vals = np.concatenate([Ke.ravel() for _, _, Ke in trips])
    # each entry of K sums its terms in entry order, from 0
    n = nd + nq
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), vals)
    key = np.unique(rows.astype(np.int64) * n + cols)
    indptr = np.searchsorted(key // n, np.arange(n + 1))
    return r, sp.csr_matrix((dense[key // n, key % n], key % n, indptr),
                            shape=(n, n))


def assert_assembly_is_reference(model, seed=5, lam=0.7):
    rng = np.random.default_rng(seed)
    nq, _ = model.multiplier_layout()
    x = model.mesh.node_coords + 1e-3 * model.mesh.bbox_diag() * \
        rng.standard_normal(model.mesh.node_coords.shape)
    q = rng.standard_normal(nq)
    for tangent in (True, False):
        r, K, _ = model.assemble(x, q, lam, tangent)
        r_ref, K_ref = reference_assemble(model, x, q, lam, tangent)
        assert np.array_equal(r, r_ref)
        if tangent:
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(K, name), getattr(K_ref, name))


def n_blocks(model):
    """(patch blocks, constraint blocks, follower load blocks)."""
    model.assemble(model.mesh.node_coords,
                   np.zeros(model.multiplier_layout()[0]), 1.0, False)
    blocks = model._current_layout().blocks
    return (sum(method is None for _, method in blocks),
            sum(isinstance(method, (Penalty, Multiplier))
                for _, method in blocks),
            sum(isinstance(method, str) for _, method in blocks))


@pytest.mark.parametrize("method", [("penalty", 1e4), ("lm", "n2q0"),
                                    ("lm", "n2q1c")])
def test_stacked_assembly_folded_strip(method):
    model, _ = build_bending_folded(2, 2, method)
    # eight patches, the seven interfaces and the clamp, the end moment
    assert n_blocks(model) == (1, 2, 1)
    assert_assembly_is_reference(model)


@pytest.mark.parametrize("method", [Penalty(3.0), Multiplier("n2q1c")])
def test_stacked_assembly_reversed_interface(method):
    mesh = reversed_fold_mesh()
    model = Model(mesh, KoiterMaterial.from_youngs(E, NU, T))
    for _ in range(2):
        model.add_constraint(RotationConstraint.from_interface(
            mesh, mesh.interfaces[0]), method)
    assert n_blocks(model) == (1, 1, 0)
    assert_assembly_is_reference(model)


def test_stacked_assembly_hemisphere():
    model = build_hemisphere_hole(2, 4)
    assert n_blocks(model) == (1, 1, 0), \
        "the two symmetry edges form one block"
    assert_assembly_is_reference(model)


def pressed_strip():
    """The multiplier strip with pressures of two magnitudes on two of its
    patches, which share one shape and so one follower block."""
    model, _ = build_bending_folded(2, 2, ("lm", "n2q0"))
    model.add_pressure(2, 0.3)
    model.add_pressure(5, -0.7)
    return model


@pytest.mark.parametrize("build, blocks", [
    (lambda: follower_cantilever(), (1, 1, 1)),     # defined below
    (pressed_strip, (1, 2, 2)),
], ids=["follower_cantilever", "stacked_pressures"])
def test_stacked_assembly_follower_pressures(build, blocks):
    """A follower block scales each load's slice by lam times its own
    magnitude, bit for bit as one kernel call per load."""
    model = build()
    assert n_blocks(model) == blocks
    assert_assembly_is_reference(model)


def two_shape_model():
    """Patches of two tabulation shapes, interleaved, and constraints of
    five kinds, interleaved, with a pressure and an edge moment."""
    plates = [make_plate(1.0, 0.4, 2, 2, 3),
              make_plate(1.0, 0.4, 3, 2, 2).transformed(shift=[0, 1, 0]),
              make_plate(1.0, 0.4, 2, 3, 2).transformed(shift=[0, 2, 0])]
    strip, _ = make_folded_strip(0.5, 0.5, 0.4, 20.0, 2, 2, 2, 2, 1)
    mesh = Mesh(plates + [p.transformed(shift=[0, 3, 0])
                          for p in strip.patches])
    model = Model(mesh, KoiterMaterial.from_youngs(E, NU, T))
    ifaces = mesh.detect_interfaces()
    assert len(ifaces) == 2
    lm, pen = Multiplier("n2q0"), Penalty(2.0)
    for con, method in (
            (RotationConstraint.fixed(mesh, 0, "u0"), pen),
            (RotationConstraint.from_interface(mesh, ifaces[0]), lm),
            (RotationConstraint.fixed(mesh, 1, "v1", normal=[0, 1, 0]), lm),
            (RotationConstraint.from_interface(mesh, ifaces[1]), pen),
            (RotationConstraint.fixed(mesh, 2, "u1"), pen),
            (RotationConstraint.from_interface(mesh, ifaces[0]), pen),
            (RotationConstraint.fixed(mesh, 0, "v0"), lm),
            (RotationConstraint.from_interface(mesh, ifaces[1]), lm)):
        model.add_constraint(con, method)
    model.add_pressure(1, 0.3)
    model.add_edge_moment(5, "u1", 0.2)
    return model


def test_stacked_assembly_many_blocks():
    model = two_shape_model()
    assert n_blocks(model) == (2, 5, 2)
    assert_assembly_is_reference(model)


def assert_free_block(model, K, free):
    """The band array that the plan of (layout, free) scatters from K.data
    is K[free][:, free] in perm order, bit for bit, with zeros elsewhere."""
    take, perm, kl, ku, pos, (_, cols, rows) = \
        model._current_layout()._free_maps(free)[1]
    n, ld = len(perm), 2 * kl + ku + 1
    band = np.zeros(n * ld)
    band[pos] = K.data[take]
    band = band.reshape(n, ld).T        # A[i, j] at band[kl + ku + i - j, j]
    assert not band[:kl].any()          # the rows kept for the pivots' fill
    i, j = np.indices((n, n))
    inside = (i - j <= kl) & (j - i <= ku)
    got = np.zeros((n, n))
    got[inside] = band[(kl + ku + i - j)[inside], j[inside]]
    want = K.toarray()[np.ix_(free, free)]
    assert got.tobytes() == want[np.ix_(perm, perm)].tobytes()
    # rows and cols place each taken entry in the free block
    got = np.zeros((n, n))
    got[rows, cols] = K.data[take]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("method", [("lm", "n2q1c"), ("penalty", 1e4)])
def test_free_block_is_the_sliced_tangent(method):
    model, _ = build_bending_folded(2, 2, method)
    nq, _ = model.multiplier_layout()
    assert model._presc_mask.any() and (nq > 0) == (method[0] == "lm")
    rng = np.random.default_rng(3)
    x = model.mesh.node_coords + 1e-3 * rng.standard_normal(
        model.mesh.node_coords.shape)
    _, K, _ = model.assemble(x, rng.standard_normal(nq), 0.7)
    free = ~np.concatenate([model._presc_mask, np.zeros(nq, dtype=bool)])
    assert_free_block(model, K, free)
    # another set of free DOFs gets its own map
    free[5:40:7] = False
    assert_free_block(model, K, free)


def test_layout_follows_the_constraint_list():
    model = build_hemisphere_hole(2, 4)
    x, q = model.mesh.node_coords, np.zeros(0)
    _, K_two, _ = model.assemble(x, q, 1.0)
    cons = list(model.constraints)
    (con_a, how), (con_b, _) = cons
    free = ~model._presc_mask
    layouts = [model._current_layout()]

    def assert_reference():
        """K, its pattern and its free block follow the current list."""
        _, K, _ = model.assemble(x, q, 1.0)
        _, K_ref = reference_assemble(model, x, q, 1.0, True)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(K, name), getattr(K_ref, name))
        assert model._current_layout() is not layouts[-1]
        layouts.append(model._current_layout())
        assert_free_block(model, K, free)
        return K

    # as many constraints as before, in place, with another penalty
    model.constraints.clear()
    model.constraints += [(con_b, Penalty(2.0 * how.epsilon)), (con_a, how)]
    assert not np.array_equal(assert_reference().data, K_two.data)
    model.constraints.clear()
    assert_reference()
    model.constraints += cons
    assert np.array_equal(assert_reference().data, K_two.data)


@pytest.mark.parametrize("build", [
    lambda: build_bending_folded(2, 2, ("penalty", 1e4))[0],
    lambda: build_bending_folded(2, 2, ("lm", "n2q0"))[0],
    lambda: build_hemisphere_hole(2, 8), two_shape_model,
], ids=["penalty_strip", "multiplier_strip", "hemisphere", "two_shapes"])
def test_assembly_makes_no_einsum_call(monkeypatch, build):
    """Every point kernel contracts by matmul or componentwise sums."""
    model = build()
    calls = []
    einsum = np.einsum

    def counting_einsum(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    nq, _ = model.multiplier_layout()
    x = model.mesh.node_coords + 1e-3 * np.sin(
        np.arange(model.mesh.node_coords.size)).reshape(-1, 3)
    for tangent in (True, False):
        model.assemble(x, np.full(nq, 0.1), 0.5, tangent)
    assert calls == []


# -- factorization -------------------------------------------------------------


def free_dofs(model):
    nq, _ = model.multiplier_layout()
    return ~np.concatenate([model._presc_mask, np.zeros(nq, dtype=bool)])


def recorded_factorizations(monkeypatch):
    """A list that grows by one (K, LU) entry per factorization."""
    calls = []
    factorize = solver_mod._factorize

    def recording_factorize(model, K, free):
        lu = factorize(model, K, free)
        calls.append((K, lu))
        return lu

    monkeypatch.setattr(solver_mod, "_factorize", recording_factorize)
    return calls


@pytest.mark.parametrize("method", [Penalty(100.0 * E * T**3),
                                    Multiplier("n2q0")],
                         ids=["penalty", "multiplier"])
def test_one_factor_path_for_penalty_and_saddle_systems(monkeypatch, method):
    """Every free tangent, linear or Newton, with or without multiplier
    rows, is factored by the one band LU through the one plan of its
    layout and free DOFs; the saddle point's zero diagonal block takes
    no other path."""
    calls = recorded_factorizations(monkeypatch)
    _, model = coupled_strip(method)
    solver_mod.linear_solve(model)
    solve(model, n_steps=1, tol_rel=1e-10)
    nq, _ = model.multiplier_layout()
    assert (nq > 0) == isinstance(method, Multiplier)
    assert len(calls) > 2
    for K, lu in calls:
        assert type(lu) is solver_mod._BandLU
        assert lu.perm is calls[0][1].perm
        diagonal = K.indices == K.rows
        assert not K.data[diagonal & (K.rows >= model.mesh.n_dofs)].any()


def test_every_tangent_is_factorized(monkeypatch):
    """Newton forms a tangent only to factor it: a step that converges on
    an iterate's residual or on its last full step's trial residual does
    not form the tangent of the converged iterate."""
    tangents = counted_tangents(monkeypatch)
    factorizations = recorded_factorizations(monkeypatch)
    _, model = cantilever_model(load=2e-5)
    hist = solve(model, n_steps=2, tol_rel=1e-10)
    assert len(hist) == 2
    assert len(tangents) == len(factorizations) > 2
    assert sum(h.iterations - (h.reason == "tol") for h in hist) == \
        len(tangents)


def follower_cantilever():
    """The cantilever under a follower pressure: K is unsymmetric."""
    _, model = cantilever_model()
    model.add_pressure(0, 1e-4)
    return model


@pytest.mark.parametrize("build", [
    lambda: build_bending_folded(2, 2, ("penalty", 1e4))[0],
    lambda: build_bending_folded(2, 2, ("lm", "n2q0"))[0],
    follower_cantilever,
    lambda: build_cylinder_pinch_nl(2, 16)[0],
], ids=["penalty_strip", "multiplier_strip", "follower_load", "pinch"])
def test_band_solve_matches_dense_solve(build):
    """The band solve is backward stable to a few ulps, and agrees with a
    dense LU solve within their common bound, kappa times the rounding:
    the penalty strip's 2-norm kappa is about 6e8 at this state, and the
    band LU differs from the dense one by about 1e-10.  The pinch is the
    widest saddle point: 931 free unknowns, 48 of them multipliers."""
    model = build()
    _, K, _ = model.assemble(*perturbed_state(model), 0.7)
    free = free_dofs(model)
    A, eps = K.toarray()[np.ix_(free, free)], np.finfo(float).eps
    if build is follower_cantilever:
        assert np.abs(A - A.T).max() > 1e-6 * np.abs(A).max()
    b = np.random.default_rng(7).standard_normal(A.shape[0])
    got = solver_mod._factorize(model, K, free).solve(b)
    want = np.linalg.solve(A, b)
    assert (np.linalg.norm(b - A @ got)
            <= 10.0 * eps * np.linalg.norm(A, 1) * np.linalg.norm(got))
    assert (np.linalg.norm(got - want)
            <= 10.0 * eps * np.linalg.cond(A, 1) * np.linalg.norm(want))


@pytest.mark.parametrize("build", [
    lambda: build_bending_folded(2, 2, ("penalty", 1e4))[0],
    lambda: build_bending_folded(2, 2, ("lm", "n2q0"))[0],
    follower_cantilever,
], ids=["penalty_strip", "multiplier_strip", "follower_load"])
def test_full_mat_vec_is_the_free_block_mat_vec(build):
    """A state's K @ v is SciPy's CSR mat-vec of K bit for bit, and the
    LU's K_ff @ dz, which Newton's refinement and linear_solve's
    residual use, is the free block's product K[free][:, free] @ dz and
    (K @ upd)[free] with upd zero off the free DOFs: each adds a row's
    terms in the same order."""
    model = build()
    K, _ = model.evaluate(*perturbed_state(model)).tangent(0.7)
    K_sp = sp.csr_matrix((K.data, K.indices, K.indptr), shape=K.shape)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(K.shape[0])
    assert (K @ v).tobytes() == (K_sp @ v).tobytes()
    free = free_dofs(model)
    assert not free.all()
    dz = rng.standard_normal(np.count_nonzero(free))
    upd = np.zeros(K.shape[0])
    upd[free] = dz
    got = solver_mod._factorize(model, K, free).K_ff @ dz
    assert np.array_equal(got, (K @ upd)[free])
    assert np.array_equal(got, K_sp[free][:, free] @ dz)
    assert np.array_equal(got, K_sp[free][:, free].tocsc() @ dz)


def band_plan(model):
    return model._current_layout()._free_maps(free_dofs(model))[1]


def free_pattern(K, free):
    """(row, col) of K's stored entries in its free block, zeros included."""
    stored = np.zeros(K.shape, dtype=bool)
    stored[K.rows, K.indices] = True
    return np.nonzero(stored[np.ix_(free, free)])


def natural_bandwidth(model):
    _, K, _ = model.assemble(*perturbed_state(model), 1.0)
    row, col = free_pattern(K, free_dofs(model))
    return int(np.abs(row - col).max())


def test_band_plan_interleaves_the_multipliers():
    """Displacements keep their natural order, row by row on one patch and
    patch after patch on a chain; each multiplier comes right after the
    largest free displacement DOF it couples with."""
    hemisphere = build_hemisphere_hole(2, 8)
    _, perm, kl, ku, *_ = band_plan(hemisphere)
    assert np.array_equal(perm, np.arange(len(perm)))
    assert kl == ku == natural_bandwidth(hemisphere) == 64
    penalty_strip = build_bending_folded(2, 2, ("penalty", 1e4))[0]
    _, perm, *_ = band_plan(penalty_strip)
    assert np.array_equal(perm, np.arange(len(perm)))

    strip = build_bending_folded(2, 2, ("lm", "n2q0"))[0]
    _, perm, kl, ku, *_ = band_plan(strip)
    assert (kl, ku, natural_bandwidth(strip)) == (63, 63, 291)
    free = free_dofs(strip)
    nu = np.count_nonzero(free[:strip.mesh.n_dofs])
    _, K, _ = strip.assemble(*perturbed_state(strip), 1.0)
    row, col = free_pattern(K, free)
    lm = (row >= nu) & (col < nu)
    anchor = np.full(len(perm), -1)
    np.maximum.at(anchor, row[lm], col[lm])
    assert len(perm) > nu and (anchor[nu:] >= 0).all()
    assert np.array_equal(perm[perm < nu], np.arange(nu))
    # the last displacement before each position in perm
    before = np.cumsum(perm < nu) - 1
    inv = np.argsort(perm)
    assert np.array_equal(before[inv[nu:]], anchor[nu:])

    pinch = build_cylinder_pinch_nl(2, 16)[0]
    _, _, kl, ku, *_ = band_plan(pinch)
    assert kl == ku == 128


def test_solver_and_cli_do_not_load_csgraph():
    """The solver loads SciPy's LAPACK wrapper module alone: importing the
    solver, the CLI and the benchmarks leaves scipy.sparse (csgraph
    included), scipy.linalg and SciPy's array-API shims unloaded."""
    src = str(Path(solver_mod.__file__).parents[1])
    names = ["scipy.sparse", "scipy.sparse.csgraph", "scipy.linalg",
             "scipy._lib._array_api"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import igashell.solver, igashell.cli, igashell.benchmarks; "
            "print(*[name in sys.modules for name in sys.argv[2:]])")
    out = subprocess.run([sys.executable, "-c", code, src, *names],
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["False"] * len(names)


def test_assemble_and_verify_do_not_load_scipy_sparse():
    """K leaves ``assemble`` as the solver's own CSR, so neither an
    assembled tangent nor the dense FD tangent check loads scipy.sparse."""
    src = str(Path(solver_mod.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import numpy as np; "
            "from igashell.benchmarks import build_hemisphere_hole; "
            "from igashell.verify import verify_global_tangent; "
            "model = build_hemisphere_hole(2, 2); "
            "model.assemble(model.mesh.node_coords, np.zeros(0), 1.0, "
            "tangent=True); "
            "verify_global_tangent(); "
            "print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]


def test_missing_lapack_module_raises_import_error(monkeypatch):
    monkeypatch.setattr(solver_mod.importlib.util, "find_spec",
                        lambda name: None)
    with pytest.raises(ImportError, match="_flapack"):
        solver_mod._lapack()


def random_band(n=40, kl=4, ku=6):
    """(band, kl, ku): a random band matrix in ``dgbtrf`` storage."""
    rng = np.random.default_rng(11)
    band = np.zeros((2 * kl + ku + 1, n), order="F")
    band[kl:] = rng.standard_normal((kl + ku + 1, n))
    return band, kl, ku


def strip_band():
    """(band, kl, ku): the multiplier strip's free tangent in ``dgbtrf``
    storage, scattered by its band plan."""
    model = build_bending_folded(2, 2, ("lm", "n2q0"))[0]
    K, _ = model.evaluate(*perturbed_state(model)).tangent(0.7)
    take, perm, kl, ku, pos, *_ = band_plan(model)
    band = np.zeros(len(perm) * (2 * kl + ku + 1))
    band[pos] = K.data[take]
    return band.reshape(len(perm), -1).T, kl, ku


@pytest.mark.parametrize("build", [random_band, strip_band],
                         ids=["random_band", "multiplier_strip"])
def test_loaded_lapack_is_scipy_lapack(build):
    """The solver's dgbtrf and dgbtrs, loaded from SciPy's wrapper module
    on their own, give the LU, the pivots and the solution of
    scipy.linalg.lapack's bit for bit."""
    from scipy.linalg import lapack
    band, kl, ku = build()
    b = np.random.default_rng(2).standard_normal(band.shape[1])
    got = []
    for trf, trs in ((solver_mod.dgbtrf, solver_mod.dgbtrs),
                     (lapack.dgbtrf, lapack.dgbtrs)):
        lu, piv, info = trf(np.array(band, order="F"), kl, ku)
        x, info_s = trs(lu, kl, ku, b.copy(), piv)
        assert info == info_s == 0
        got.append([lu.tobytes(), piv.tobytes(), x.tobytes()])
    assert got[0] == got[1]


def test_multiplier_validity_range_cuts_the_step(monkeypatch):
    """A converged step whose multiplier edge turns by pi/4 or more from
    its rest angle is cut, with a warning, and retried at half the step."""
    model = build_bending_folded(2, 2, ("lm", "n2q0"))[0]
    deviation, calls = RotationConstraint.max_angle_deviation, []

    def out_of_range_once(self, x_nodes):
        calls.append(None)
        return np.pi / 4.0 if len(calls) == 1 else deviation(self, x_nodes)

    monkeypatch.setattr(RotationConstraint, "max_angle_deviation",
                        out_of_range_once)
    with pytest.warns(UserWarning, match="validity range"):
        hist = solve(model, n_steps=10)
    assert hist[0].lam == 0.05 and hist[-1].lam == 1.0


def test_singular_tangent_raises_and_newton_cuts_the_step(monkeypatch):
    """An exactly singular free tangent raises RuntimeError; Newton cuts
    the load step and the smaller step converges."""
    _, model = cantilever_model(load=2e-5)
    x, q = perturbed_state(model)
    free = ~model._presc_mask
    col = np.flatnonzero(free)[3]
    _, K, _ = model.assemble(x, q, 1.0)
    K.data[K.indices == col] = 0.0                  # one zero free column
    with pytest.raises(RuntimeError):
        solver_mod._factorize(model, K, free)

    tangent, calls = solver_mod._State.tangent, []

    def singular_first(self, *args, **kwargs):
        K, predictors = tangent(self, *args, **kwargs)
        calls.append(None)
        if len(calls) == 1:
            K.data[K.indices == col] = 0.0
        return K, predictors

    monkeypatch.setattr(solver_mod._State, "tangent", singular_first)
    hist = solve(model, n_steps=1, max_cuts=1)
    assert [h.lam for h in hist] == [0.5, 1.0]


def test_linear_solve_rejects_a_singular_system():
    """An unsupported plate's tangent is singular in exact arithmetic; its
    LU solve leaves a relative residual far above LINEAR_RESIDUAL."""
    model = Model(Mesh([make_plate(1.0, 0.4, 2, 2, 2)]),
                  KoiterMaterial.from_youngs(E, NU, T))
    model.add_point_force(0, 1.0, 0.2, [0.0, 0.0, 1.0])
    with pytest.raises(NonConvergenceError, match="singular"):
        solver_mod.linear_solve(model)


def test_linear_solve_with_a_prescribed_displacement_is_the_dense_solve():
    """A nonzero prescribed value enters the right-hand side as K z: the
    solution is the dense solve of the free rows of K (z + dz) = -r(X),
    within its condition number times the rounding."""
    mesh, model = coupled_strip(Multiplier("n2q0"))
    model.fix_edge(1, "u1", components=(2,), value=1e-3)
    x, q = solver_mod.linear_solve(model)
    nq, _ = model.multiplier_layout()
    r, K, _ = model.assemble(mesh.node_coords, np.zeros(nq), 1.0)
    K, free = K.toarray(), free_dofs(model)
    z = np.zeros(len(r))
    z[:mesh.n_dofs][model._presc_mask] = \
        model._presc_value[model._presc_mask]
    A, eps = K[np.ix_(free, free)], np.finfo(float).eps
    z[free] = np.linalg.solve(A, -(r + K @ z)[free])
    got = np.concatenate([(x - mesh.node_coords).ravel(), q])
    assert np.array_equal(got[~free], z[~free])
    assert (np.linalg.norm(got - z)
            <= 10.0 * eps * np.linalg.cond(A, 1) * np.linalg.norm(z))


def test_one_band_plan_per_layout_and_free_set(monkeypatch):
    plans = []
    band_plan = solver_mod._band_plan

    def counting_plan(*args):
        plans.append(args)
        return band_plan(*args)

    monkeypatch.setattr(solver_mod, "_band_plan", counting_plan)
    model = build_hemisphere_hole(2, 4)
    solver_mod.linear_solve(model)
    solve(model, n_steps=4)
    assert len(plans) == 1
    model.fix_nodes([0])
    solve(model, n_steps=1)
    assert len(plans) == 2


# -- one kernel pass per configuration ---------------------------------------


def counted_passes(monkeypatch):
    """A list that grows by one entry per patch-kernel pass of a model."""
    calls = []
    force_pass = solver_mod.force_pass

    def counting_pass(*args):
        calls.append(args)
        return force_pass(*args)

    monkeypatch.setattr(solver_mod, "force_pass", counting_pass)
    return calls


def counted_tangents(monkeypatch):
    """A list that grows by one entry per tangent formed from a state."""
    calls = []
    tangent = solver_mod._State.tangent

    def counting_tangent(self, *args, **kwargs):
        calls.append(None)
        return tangent(self, *args, **kwargs)

    monkeypatch.setattr(solver_mod._State, "tangent", counting_tangent)
    return calls


def recorded_configurations(monkeypatch):
    """A list of the (x, q) bytes of every ``Model.evaluate`` call."""
    calls = []
    evaluate = Model.evaluate

    def recording_evaluate(self, x, q):
        calls.append(np.asarray(x).tobytes() + np.asarray(q).tobytes())
        return evaluate(self, x, q)

    monkeypatch.setattr(Model, "evaluate", recording_evaluate)
    return calls


def n_patch_blocks(model):
    return sum(method is None for _, method in model._current_layout().blocks)


def test_one_patch_pass_per_configuration(monkeypatch):
    """Newton's tangent at an accepted trial point finishes the state of
    the trial, so a solve makes one patch-kernel pass per configuration it
    visits."""
    passes = counted_passes(monkeypatch)
    tangents = counted_tangents(monkeypatch)
    configs = recorded_configurations(monkeypatch)
    model = build_hemisphere_hole(2, 4)
    solve(model, n_steps=8)
    assert (len(tangents), len(configs) - 1) == (31, 31)
    assert len(passes) == n_patch_blocks(model) * len(set(configs))


def test_one_follower_pass_per_configuration(monkeypatch):
    """A follower load runs its kernel once per configuration, in the
    state's pass: the multiplier strip's end moment is one block, so its
    kernel runs as often as Newton visits a new configuration."""
    calls = []
    moment = solver_mod.follower_edge_moment

    def counting_moment(*args):
        calls.append(None)
        return moment(*args)

    monkeypatch.setattr(solver_mod, "follower_edge_moment", counting_moment)
    configs = recorded_configurations(monkeypatch)
    model, _ = build_bending_folded(2, 2, ("lm", "n2q0"))
    solve(model, n_steps=10)
    assert len(calls) == len(set(configs)) > 10


def test_floor_exit_hands_its_state_to_the_next_step(fine_strip_path):
    """A step that exits on the floor at an iterate's residual hands that
    unfinished state to the next step, so the fine strip, whose floor exits
    all come at that test, makes one patch pass per configuration."""
    model, hist, passes, configs = fine_strip_path
    assert [h.reason for h in hist].count("floor") >= 3
    assert len(passes) == n_patch_blocks(model) * len(set(configs))
    assert len(configs) == len(set(configs))


def test_zero_load_path_makes_one_pass_and_no_tangent(monkeypatch):
    """The reference state of an unloaded model meets every step's
    tolerance: its one state is handed from step to step, and no tangent
    is formed."""
    passes = counted_passes(monkeypatch)
    tangents = counted_tangents(monkeypatch)
    _, model = cantilever_model(load=0.0)
    hist = solve(model, n_steps=4)
    assert [h.reason for h in hist] == ["tol"] * 4
    assert len(passes) == n_patch_blocks(model)
    assert tangents == []


def perturbed_state(model, seed=3):
    rng = np.random.default_rng(seed)
    x = model.mesh.node_coords + 1e-3 * model.mesh.bbox_diag() * \
        rng.standard_normal(model.mesh.node_coords.shape)
    return x, rng.standard_normal(model.multiplier_layout()[0])


def assert_same_assembly(got, want):
    (r, K, f_ext), (r0, K0, f_ext0) = got, want
    assert np.array_equal(r, r0) and np.array_equal(f_ext, f_ext0)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(K, name), getattr(K0, name))


def hemisphere_hole_small():
    return build_hemisphere_hole(2, 4)


def multiplier_strip_small():
    return build_bending_folded(1, 2, ("lm", "n2q1c"))[0]


@pytest.mark.parametrize("build", [hemisphere_hole_small,
                                   multiplier_strip_small],
                         ids=["hemisphere", "multiplier_strip"])
def test_state_is_a_fresh_assembly(build):
    """A state's r and K equal a fresh model's ``assemble`` bit for bit,
    also when the caller changes its x and q afterwards, and its tangent
    is formed once."""
    model = build()
    x, q = perturbed_state(model)
    want = build().assemble(x, q, 0.7)
    state = model.evaluate(x, q)
    x += 1.0
    q += 1.0
    r, f_ext = state.residual(0.7)
    K, _ = state.tangent(0.7)
    assert_same_assembly((r, K, f_ext), want)
    with pytest.raises(RuntimeError):
        state.tangent(0.7)


def test_assemble_leaves_the_model_unchanged(monkeypatch):
    """A residual-only ``assemble`` keeps nothing: a later tangent at the
    same configuration runs every kernel again and equals the first."""
    model = hemisphere_hole_small()
    x, q = perturbed_state(model)
    want = model.assemble(x, q, 0.7)
    before = dict(vars(model))
    passes = counted_passes(monkeypatch)
    model.assemble(x, q, 0.7, tangent=False)
    got = model.assemble(x, q, 0.7)
    assert len(passes) == 2 * n_patch_blocks(model)
    assert vars(model).keys() == before.keys()
    assert all(vars(model)[k] is v for k, v in before.items())
    assert_same_assembly(got, want)
