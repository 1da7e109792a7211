"""End-to-end acceptance: the ten headline checks for this solver.

One test per criterion, each asserting the stated tolerance, so a verbose
pytest run shows one pass/fail line per criterion.  The slow nonlinear
paths reuse production parameters and compare against the bundled
regression fixtures in benchmarks/fixtures_nonlinear.json.
"""

import copy
import json
import os
import time
from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest

from igashell.benchmarks import (CYL, FOLD, bending_flat_l2,
                                 bending_folded_solve, build_hemisphere_hole,
                                 cantilever_curve,
                                 cylinder_linear_deflection,
                                 hemisphere_linear_deflection,
                                 plate_center_deflection,
                                 run_nonlinear_checkpoints)
from igashell.constraints import Multiplier, RotationConstraint
from igashell.elements import PatchQuadrature
from igashell.geometry import make_folded_strip
from igashell.kinematics import MetricState
from igashell.materials import KoiterMaterial
from igashell.reference import FluggeCylinder, navier_plate_center_deflection
from igashell.solver import Model, displacement_at, solve
from igashell.verify import (material_models, tangent_error,
                            verify_global_tangent, verify_material)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                        "fixtures_nonlinear.json")


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    return ok


# -- 1 ---------------------------------------------------------------------

def _folded_multiplier_tangent_error():
    """Dense FD of the full residual (displacements plus multipliers) on a
    two-patch folded strip coupled with constant edge multipliers."""
    mesh, _ = make_folded_strip(1.5, 1.5, 1.0, 30.0, 2, 1, 1)
    model = Model(mesh, KoiterMaterial.from_youngs(1e3, 0.3, 0.05))
    model.add_constraint(
        RotationConstraint.from_interface(mesh, mesh.interfaces[0]),
        Multiplier("n2q0"))
    model.add_edge_traction(1, "u1", [0.0, 0.0, 0.2])
    rng = np.random.default_rng(7)
    x = mesh.node_coords + 0.03 * rng.standard_normal((mesh.n_nodes, 3))
    nq, _ = model.multiplier_layout()
    return tangent_error(model, x, 0.1 * rng.standard_normal(nq))


def test_criterion_01_tangent_consistency():
    """Stress from energy FD, moduli from stress FD, assembled tangent from
    residual FD, for all five material laws on 50 random states."""
    t0 = time.time()
    worst_s, worst_m = 0.0, 0.0
    per_law = {}
    for name, mat in material_models().items():
        err = verify_material(mat, n_states=50, seed=11)
        per_law[name] = err
        worst_s = max(worst_s, err["stress"])
        worst_m = max(worst_m, err["moduli"])
    g_cap = verify_global_tangent(seed=5)
    g_fold = _folded_multiplier_tangent_error()
    wall = time.time() - t0
    ok = (worst_s <= 1e-5 and worst_m <= 1e-4 and g_cap <= 1e-5
          and g_fold <= 1e-5 and wall < 60.0)
    assert _report(1, ok,
                   f"stress FD {worst_s:.2e} (tol 1e-5), moduli FD "
                   f"{worst_m:.2e} (tol 1e-4), global tangent cap "
                   f"{g_cap:.2e} / fold {g_fold:.2e} (tol 1e-5), "
                   f"{wall:.1f}s"), per_law


# -- 2 ---------------------------------------------------------------------

def test_criterion_02_series_reference_values():
    """Double-Fourier pinched-cylinder deflection at fixed and adaptive
    truncation."""
    t0 = time.time()
    fl = FluggeCylinder(R=CYL["R"], L=CYL["L"], T=CYL["T"], E=CYL["E"],
                        nu=CYL["nu"], P=CYL["F"])
    w80 = fl.load_point_deflection(m_max=79, n_max=157, tol=0.0)
    e80 = abs(w80 - 1.82488e-5) / 1.82488e-5
    wc = fl.load_point_deflection()
    ec = abs(wc - 1.827158e-5) / 1.827158e-5
    wall = time.time() - t0
    ok = e80 <= 1e-4 and ec <= 1e-6 and wall < 120.0
    assert _report(2, ok,
                   f"80x80 terms {w80:.6e} (rel {e80:.1e} <= 1e-4), "
                   f"adaptive {wc:.7e} (rel {ec:.1e} <= 1e-6), {wall:.1f}s")


# -- 3 ---------------------------------------------------------------------

def test_criterion_03_linear_pinched_cylinder():
    """Quartic eighth model converges monotonically to the series value."""
    t0 = time.time()
    fl = FluggeCylinder(R=CYL["R"], L=CYL["L"], T=CYL["T"], E=CYL["E"],
                        nu=CYL["nu"], P=CYL["F"])
    ref = fl.load_point_deflection()
    errs = [abs(cylinder_linear_deflection(4, n) - ref) / ref
            for n in (8, 16, 32)]
    wall = time.time() - t0
    ok = (errs[-1] <= 0.02 and errs[0] > errs[1] > errs[2]
          and wall < 300.0)
    assert _report(3, ok,
                   f"rel errors 8/16/32: {errs[0]:.2e} > {errs[1]:.2e} > "
                   f"{errs[2]:.2e} (final tol 2e-2), {wall:.1f}s")


# -- 4 ---------------------------------------------------------------------

def test_criterion_04_linear_pinched_hemisphere():
    """Quartic 16x16 quarter model against the tabulated radial deflection;
    Koiter and projected 3D laws agree in the thin limit."""
    w_k = hemisphere_linear_deflection(4, 16, "koiter")
    w_p = hemisphere_linear_deflection(4, 16, "projected")
    err = abs(w_k - 0.0924) / 0.0924
    gap = abs(w_p - w_k) / w_k
    ok = err <= 0.02 and gap <= 0.005
    assert _report(4, ok,
                   f"deflection {w_k:.6f} vs 0.0924 (rel {err:.2e} <= 2e-2),"
                   f" koiter-vs-projected {gap:.2e} <= 5e-3")


# -- 5 ---------------------------------------------------------------------

def test_criterion_05_sinusoidal_plate():
    """Quartic 16x16 quarter plate against the closed-form deflection."""
    w = plate_center_deflection(4, 16)
    ref = navier_plate_center_deflection(1.0, 12.0, 4.8e5, 0.38, 0.375)
    err = abs(w - ref) / ref
    ok = err <= 0.005
    assert _report(5, ok, f"center deflection {w:.8f} vs {ref:.8f} "
                          f"(rel {err:.2e} <= 5e-3)")


# -- 6 ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def _flat_err(scheme, n):
    return bending_flat_l2(n, scheme)[0]


def test_criterion_06_pure_bending_flat_convergence():
    """Single-patch convergence rate >= 2; coupled two-patch meshes stay in
    the same error decade; skewed parametrizations converge to the same
    state."""
    single = [_flat_err("single", n) for n in (2, 4, 8, 16)]
    double = [_flat_err("double", n) for n in (2, 4, 8, 16)]
    rate = -np.polyfit(np.log([2, 4, 8, 16]), np.log(single), 1)[0]
    same_order = all(d <= 3.0 * s for s, d in zip(single, double))
    skew_s = [_flat_err("single_skew", n) for n in (4, 8, 16)]
    skew_d = [_flat_err("double_skew", n) for n in (4, 8, 16)]
    skew_ok = (all(a > b for a, b in zip(skew_s, skew_s[1:]))
               and all(a > b for a, b in zip(skew_d, skew_d[1:]))
               and skew_s[-1] < 1e-2 and skew_d[-1] < 1e-2)
    ok = rate >= 2.0 and same_order and skew_ok
    assert _report(6, ok,
                   f"single rate {rate:.2f} >= 2, errors {single[-1]:.2e} "
                   f"(single) vs {double[-1]:.2e} (double) at n=16, skew "
                   f"errors decay to {skew_s[-1]:.2e}/{skew_d[-1]:.2e}")


# -- 7 ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def _folded(method_kind, setting, n_per_patch=2, n_steps=10):
    return bending_folded_solve(n_per_patch, 2, (method_kind, setting),
                                n_steps=n_steps)


def test_criterion_07_folded_strip_coupling():
    """Penalty solutions approach the multiplier solution as the penalty
    grows; the two multiplier interpolations agree; the fine-mesh mean
    curvature matches the closed-form value."""
    lm0 = _folded("lm", "n2q0")["l2"]
    lm1 = _folded("lm", "n2q1c")["l2"]
    gaps = [abs(_folded("penalty", e)["l2"] - lm0)
            for e in (1e2, 1e3, 1e4)]
    interp_gap = abs(lm1 - lm0) / lm0
    fine = bending_folded_solve(4, 2, ("penalty", 1e4), n_steps=20)
    ok = (gaps[0] > gaps[1] > gaps[2] and interp_gap <= 1e-3
          and fine["H_dev_rel"] <= 0.01)
    assert _report(7, ok,
                   f"penalty-to-multiplier gap {gaps[0]:.2e} > {gaps[1]:.2e}"
                   f" > {gaps[2]:.2e}, interp gap {interp_gap:.2e} <= 1e-3, "
                   f"fine-mesh curvature dev {fine['H_dev_rel']:.2e} <= 1e-2")


# -- 8 ---------------------------------------------------------------------

def test_criterion_08_cantilever_skew_insensitivity():
    """Cubic end-loaded plate: regular and skewed meshes trace the same tip
    path, fully converged at every load level."""
    reg = cantilever_curve(0.0, 3, 10, 8)
    skw = cantilever_curve(0.2, 3, 10, 8)
    gaps = [abs(s["deflection"] - r["deflection"]) / abs(r["deflection"])
            for r, s in zip(reg, skw)]
    max_it = max(c["iterations"] for c in reg + skw)
    ok = max(gaps) <= 0.01 and max_it <= 30
    assert _report(8, ok,
                   f"tip deflection {reg[-1]['deflection']:.5f}, max skew "
                   f"gap {max(gaps):.2e} <= 1e-2, max {max_it} "
                   f"iterations/step <= 30")


# -- 9 ---------------------------------------------------------------------

def test_criterion_09_constraint_moment_transmission():
    """Recovered interface and boundary moments equal the applied edge
    moment at convergence, for both enforcement methods."""
    M = FOLD["M"]
    pen = _folded("penalty", 1e4)["moments"]
    lm = _folded("lm", "n2q0")["moments"]
    err_pen = max(abs(abs(m) - M) / M for m in pen)
    err_lm = max(abs(abs(m) - M) / M for m in lm)
    ok = err_pen <= 0.01 and err_lm <= 0.01
    assert _report(9, ok,
                   f"recovered |moment| vs applied {M}: penalty dev "
                   f"{err_pen:.2e}, multiplier dev {err_lm:.2e} (tol 1e-2)")


# -- 10 --------------------------------------------------------------------

@lru_cache(maxsize=None)
def _checkpoint_rows():
    with open(FIXTURES) as fh:
        rows, _ = run_nonlinear_checkpoints(json.load(fh)["params"])
    return rows


def test_criterion_10_nonlinear_checkpoints():
    """The three large-deformation cases traverse their full load paths and
    land within 5% of the bundled regression fixtures."""
    rows = _checkpoint_rows()
    with open(FIXTURES) as fh:
        fx = json.load(fh)
    by_case = {}
    for r in rows:
        by_case.setdefault(r["case"], []).append(r)

    hole = by_case["hemisphere_hole_nonlinear"]
    assert hole[-1]["load"] == pytest.approx(400.0)
    got = {"hemisphere_hole_inward_A": hole[-1]["inward_A"],
           "hemisphere_hole_outward_B": hole[-1]["outward_B"]}

    pinch = by_case["pinched_cylinder_nonlinear"]
    f = np.array([r["load"] for r in pinch])
    w = np.array([r["deflection"] for r in pinch])
    assert f.max() >= 12e3, "pinch path never reaches the checkpoint load"
    k = int(np.argmax(f >= 12e3))
    got["pinch_deflection_at_F12e3"] = (
        w[k - 1] + (12e3 - f[k - 1]) * (w[k] - w[k - 1]) / (f[k] - f[k - 1]))

    free = by_case["cylinder_free_ends_nonlinear"]
    assert free[-1]["load"] == pytest.approx(40e3)
    got["free_spread_at_F40e3"] = free[-1]["spread"]

    devs = {key: abs(got[key] - ref) / abs(ref)
            for key, ref in fx["checkpoints"].items()}
    ok = max(devs.values()) <= 0.05
    assert _report(10, ok,
                   "full paths done; checkpoint deviations "
                   + ", ".join(f"{k} {v:.1e}" for k, v in devs.items())
                   + " (tol 5e-2)"), got


def reversed_elements(pq):
    """The table with its elements in reverse order, so every assembly sums
    their contributions in another order."""
    rev = copy.copy(pq)
    for name in PatchQuadrature.STACKED:
        v = getattr(pq, name)
        setattr(rev, name, MetricState(*(
            np.ascontiguousarray(getattr(v, f.name)[::-1])
            for f in fields(MetricState))) if isinstance(v, MetricState)
            else np.ascontiguousarray(v[::-1]))
    return rev


def test_hemisphere_hole_reversed_elements_takes_the_same_load_path():
    """Criterion 10's hemisphere (W2) with its elements reversed accepts the
    same load factors, each checkpoint within 1e-6 relative and each step
    within 2 Newton iterations of the forward path."""
    fwd = [r for r in _checkpoint_rows()
           if r["case"] == "hemisphere_hole_nonlinear"]
    with open(FIXTURES) as fh:
        p = json.load(fh)["params"]["hole"]
    model = build_hemisphere_hole(p["degree"], p["n"])
    model.quads = [reversed_elements(pq) for pq in model.quads]
    hist = solve(model, n_steps=p["n_steps"])
    assert [400.0 * h.lam for h in hist] == [r["load"] for r in fwd]
    for h, r in zip(hist, fwd):
        dA = displacement_at(model.mesh, h.x, 0, 0.0, 90.0)
        dB = displacement_at(model.mesh, h.x, 0, 90.0, 90.0)
        assert abs(-dA[0] - r["inward_A"]) <= 1e-6 * abs(r["inward_A"])
        assert abs(dB[1] - r["outward_B"]) <= 1e-6 * abs(r["outward_B"])
        assert abs(h.iterations - r["iterations"]) <= 2
