"""Each output check passes on the values measured on working code and
fails on a corrupted result.  The tracer's self times and the host-speed
scale follow their definitions.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q shellbench/test_checks.py

No workload is solved here.
"""

from collections import Counter

import numpy as np
import pytest

import checks
from tracing import Tracer

M = 1.6
# recovered moments of the multiplier strip and the penalty strip: the
# clamp first, then the seven interfaces
LM_MOMENTS = [1.6000106, 1.6000118, 1.6000118, 1.6000119, 1.6000119,
              1.6000121, 1.6000116, 1.6000138]
PENALTY_MOMENTS = [1.6000128, -1.6000837, -1.6000600, -1.6000665,
                   -1.6001088, -1.6002454, -1.6004949, -1.6003568]


def test_deflection():
    w = 1.820556e-5                                  # 16x16 quartic
    assert checks.deflection(w).ok
    assert not checks.deflection(1.02 * w).ok
    assert not checks.deflection(0.98 * w).ok


def test_translation():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((50, 3))
    f -= f.mean(axis=0)                              # balanced
    assert checks.translation(f, 0.25).ok
    f[7, 2] += 1e-4 * 0.25                           # a net vertical force
    assert not checks.translation(f, 0.25).ok


def test_equilibrium():
    res = np.full(16, 1e-9)
    ref = np.full(16, 200.0)
    assert checks.equilibrium(res, ref).ok
    res[11] = 1e-4 * 200.0                           # one step not converged
    assert not checks.equilibrium(res, ref).ok


def test_energy_balance():
    # f . u = a lam + b lam^2 on 16 steps: the work is a/2 + 2b/3
    lam = np.linspace(0.0, 1.0, 17)
    a, b = 3.0, -1.2
    work = a / 2.0 + 2.0 * b / 3.0
    assert checks.energy_balance(work, lam, a * lam + b * lam ** 2).ok
    assert not checks.energy_balance(1.01 * work, lam,
                                     a * lam + b * lam ** 2).ok


@pytest.mark.parametrize("values", [LM_MOMENTS, PENALTY_MOMENTS])
def test_moments(values):
    assert checks.moments(values, M).ok
    flipped = list(values)
    flipped[4] = -flipped[4]
    assert not checks.moments(flipped, M).ok
    scaled = list(values)
    scaled[0] *= 1.02
    assert not checks.moments(scaled, M).ok


def test_curvature():
    H_target = M / 2.0
    H = np.full(10, 1.0133 * H_target)               # measured deviation
    dev = np.abs(H - H_target).max() / H_target
    assert checks.curvature(dev).ok
    dev = np.abs(1.02 * H - H_target).max() / H_target
    assert not checks.curvature(dev).ok


def test_l2_error():
    assert checks.l2_error(1.7389e-3).ok
    assert not checks.l2_error(2.0 * 1.7389e-3).ok


def test_angle_deviation():
    assert checks.angle_deviation(1.0e-5).ok
    assert not checks.angle_deviation(0.8).ok


def test_repeatable():
    x = np.linspace(0.0, 1.0, 30).reshape(10, 3)
    assert checks.repeatable([[x], [x.copy()], [x.copy()]]).ok
    y = x.copy()
    y[3, 1] = np.nextafter(y[3, 1], 2.0)             # one ulp off
    assert not checks.repeatable([[x], [x.copy()], [y]]).ok
    assert not checks.repeatable([[x, x], [x]]).ok


def test_self_times_subtract_children():
    tr = Tracer()
    # round 1: assemble [0, 10] holds internal forces [1, 4] which holds
    # kinematics [2, 3]; a second kinematics span [5, 6] sits in assemble
    tr.spans = [["solver.assemble", 0.0, 10.0, -1, 1],
                ["elements.internal_forces", 1.0, 4.0, 0, 1],
                ["kinematics.state", 2.0, 3.0, 1, 1],
                ["kinematics.state", 5.0, 6.0, 0, 1],
                ["geometry.basis2d", 0.0, 0.5, -1, 0]]
    times = tr.self_times()
    assert times[1]["solver.assemble"] == pytest.approx(6.0)
    assert times[1]["elements.internal_forces"] == pytest.approx(2.0)
    assert times[1]["kinematics.state"] == pytest.approx(2.0)
    assert times[0]["geometry.basis2d"] == pytest.approx(0.5)


def test_step_cuts_are_attempts_minus_accepted_steps():
    tr = Tracer()
    tr.counts = {1: Counter({"solver.newton_attempts": 12,
                             "solver.load_steps": 10})}
    assert tr.round_counts(1)["solver.step_cuts"] == 2
    assert tr.round_counts(2)["solver.step_cuts"] == 0


def test_host_speed_scale_is_reference_over_measured_pass_time():
    import run
    host = run.HostSpeed()
    host.samples = [(1000, 0.4), (100, 0.05), (1000, 0.1)]
    ref = run.HostSpeed.REF_PASS_S
    assert host.scale(0) == pytest.approx(ref * 2100 / 0.55)
    assert host.scale(2) == pytest.approx(ref * 1000 / 0.1)
    host.samples = []
    host.sample(50)
    assert host.samples[0][0] == 50 and host.samples[0][1] > 0.0
