"""Output checks for the benchmark workloads.

Each check takes quantities already recovered from a solution and returns a
``Check`` record.  The checks hold no solver code, so the tests can feed them
corrupted results directly.  Tolerances are stated next to each check and in
the README, with the values measured on working code.
"""

from dataclasses import dataclass

import numpy as np

# series value of the pinched-cylinder load-point deflection (criterion 2)
FLUGGE_DEFLECTION = 1.827158e-5

# relative tolerances; the measured values are in the README
DEFLECTION_TOL = 0.01       # measured 3.6e-3 below the series value
TRANSLATION_TOL = 1e-6      # measured ~1e-9
EQUILIBRIUM_TOL = 1e-6      # measured worst case ~1e-8
ENERGY_TOL = 1e-4           # measured ~9e-6
MOMENT_TOL = 0.01           # measured ~1e-5
CURVATURE_TOL = 0.02        # measured 1.33%
L2_BOUND = 3e-3             # measured 1.74e-3 for both strips
ANGLE_LIMIT = np.pi / 4.0   # validity range of the multiplier constraint


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def deflection(w, ref=FLUGGE_DEFLECTION, tol=DEFLECTION_TOL):
    """Load-point deflection against the Fluegge series value."""
    err = abs(w - ref) / ref
    return Check("deflection", bool(err <= tol),
                 f"w {w:.6e} vs series {ref:.6e}: rel {err:.2e} <= {tol:g}")


def translation(f_nodes, load, tol=TRANSLATION_TOL):
    """Internal forces sum to zero in each direction, relative to the load.

    f_nodes is the assembled internal force per node, shape (n_nodes, 3).
    """
    net = np.abs(np.asarray(f_nodes).sum(axis=0)).max() / abs(load)
    return Check("translation", bool(net <= tol),
                 f"net internal force / load {net:.2e} <= {tol:g}")


def equilibrium(residuals, references, tol=EQUILIBRIUM_TOL):
    """Every accepted step meets equilibrium on the free DOFs.

    residuals and references are, per step, |r_free| and |f_ext_free|.
    """
    ratio = float(np.max(np.asarray(residuals) / np.asarray(references)))
    return Check("equilibrium", bool(ratio <= tol),
                 f"worst |r|/|f_ext| over {len(residuals)} steps "
                 f"{ratio:.2e} <= {tol:g}")


def energy_balance(energy, lam, load_dot_u, tol=ENERGY_TOL):
    """Stored energy at lam = 1 equals the work of the dead loads.

    load_dot_u[k] is f . u at load factor lam[k], with lam[0] = 0 and
    lam[-1] = 1.  For dead loads scaled by lam the work is
    int_0^1 lam f . du = f . u(1) - int_0^1 f . u dlam, and the integral is
    taken by Simpson's rule on the accepted steps.
    """
    from scipy.integrate import simpson     # not at import: set-up is timed

    lam = np.asarray(lam, dtype=float)
    g = np.asarray(load_dot_u, dtype=float)
    work = g[-1] - simpson(g, x=lam)
    err = abs(energy - work) / abs(work)
    return Check("energy", bool(err <= tol),
                 f"energy {energy:.8e} vs work {work:.8e}: rel {err:.2e} "
                 f"<= {tol:g}")


def moments(values, applied, tol=MOMENT_TOL):
    """Recovered clamp and interface moments carry the applied moment.

    values[0] is the clamp, the rest are the interfaces.  Pure bending has a
    constant moment along the strip, so every magnitude equals the applied
    one and every interface, all oriented alike, reports the same sign.
    """
    v = np.asarray(values, dtype=float)
    dev = float(np.max(np.abs(np.abs(v) - applied)) / applied)
    same_sign = bool(np.all(np.sign(v[1:]) == np.sign(v[1])))
    return Check("moments", bool(dev <= tol and same_sign),
                 f"{len(v)} moments: max ||m| - M|/M {dev:.2e} <= {tol:g}, "
                 f"interface signs {'agree' if same_sign else 'DIFFER'}")


def curvature(H_dev_rel, tol=CURVATURE_TOL):
    """Largest deviation of the mean curvature from M / (2 c)."""
    return Check("curvature", bool(H_dev_rel <= tol),
                 f"max |H - M/2c| / (M/2c) {H_dev_rel:.2e} <= {tol:g}")


def l2_error(err, bound=L2_BOUND):
    """L2 displacement error against the closed-form pure-bending field."""
    return Check("l2", bool(err <= bound),
                 f"L2 error {err:.4e} <= {bound:g}")


def angle_deviation(max_dev, limit=ANGLE_LIMIT):
    """Multiplier constraints stay inside their validity range."""
    return Check("angles", bool(max_dev < limit),
                 f"max |alpha - alpha0| {max_dev:.3e} < pi/4")


def repeatable(outputs):
    """Every round reproduces the first round's solution exactly.

    outputs holds, per round, the list of solution arrays.
    """
    first = outputs[0]
    same = all(len(o) == len(first)
               and all(np.array_equal(a, b) for a, b in zip(first, o))
               for o in outputs[1:])
    return Check("repeat", bool(same),
                 f"{len(outputs)} rounds give identical solutions" if same
                 else "a round's solution differs from the first")
