"""Static equilibrium of the assembled shell problem.

A Model collects the mesh, the material, loads, rotation constraints and
displacement boundary conditions, and provides the residual

    r(x, q, lam) = f_int(x) + f_con(x, q) - f_ext(x, lam)

with its consistent sparse tangent.  Dead loads scale linearly with the load
factor lam; follower loads (pressure, edge moments) are evaluated in the
current configuration with magnitude scaled by lam.  Multiplier constraints
append their q unknowns after the displacement DOFs, making the Newton
system an indefinite saddle point, which the sparse LU handles directly.

Loading is applied in increments with Newton iteration per step; a step that
fails to converge (or drifts outside the multiplier validity range) is
halved and retried a limited number of times.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .constraints import Multiplier, Penalty
from .elements import (EdgeQuadrature, PatchQuadrature, dead_area_load,
                       dead_edge_traction, follower_edge_moment,
                       follower_pressure, internal_forces, point_load)


class NonConvergenceError(RuntimeError):
    """Newton failed to converge after exhausting the allowed step cuts."""


@dataclass
class StepResult:
    lam: float
    x: np.ndarray
    q: np.ndarray
    iterations: int
    residual: float


class Model:
    """A shell problem: discretized patches, loads and constraints."""

    def __init__(self, mesh, material, n_gauss=None):
        self.mesh = mesh
        self.material = material
        self.quads = [PatchQuadrature(p, mesh.patch_node_ids[i],
                                      n_gauss=n_gauss)
                      for i, p in enumerate(mesh.patches)]
        self._edge_cache = {}
        self.dead_forces = []       # (dofs (nel, nd), values) at unit factor
        self.pressures = []         # (patch index, magnitude)
        self.edge_moments = []      # (EdgeQuadrature, magnitude)
        self.constraints = []       # (RotationConstraint, method)
        self._presc_mask = np.zeros(mesh.n_dofs, dtype=bool)
        self._presc_value = np.zeros(mesh.n_dofs)

    # -- loads ----------------------------------------------------------

    def _edge_quad(self, patch: int, side: str) -> EdgeQuadrature:
        key = (patch, side)
        if key not in self._edge_cache:
            self._edge_cache[key] = EdgeQuadrature(
                self.mesh.patches[patch], self.mesh.patch_node_ids[patch],
                side)
        return self._edge_cache[key]

    def add_body_load(self, patch: int, t) -> None:
        pq = self.quads[patch]
        self.dead_forces.append((pq.edof, dead_area_load(pq, t)))

    def add_edge_traction(self, patch: int, side: str, t) -> None:
        eq = self._edge_quad(patch, side)
        self.dead_forces.append((eq.edof, dead_edge_traction(eq, t)))

    def add_point_force(self, patch: int, u: float, v: float, F) -> None:
        nodes, rows = point_load(self.mesh, patch, u, v, F)
        dofs = 3 * nodes[:, None] + np.arange(3)[None, :]
        self.dead_forces.append((dofs.reshape(1, -1), rows.reshape(1, -1)))

    def add_pressure(self, patch: int, p: float) -> None:
        self.pressures.append((patch, p))

    def add_edge_moment(self, patch: int, side: str, m: float) -> None:
        self.edge_moments.append((self._edge_quad(patch, side), m))

    def add_constraint(self, constraint, method) -> None:
        self.constraints.append((constraint, method))

    # -- displacement boundary conditions -------------------------------

    def fix_nodes(self, node_ids, components=(0, 1, 2), value=0.0) -> None:
        """Prescribe displacement components; value scales with lam."""
        nodes = np.atleast_1d(np.asarray(node_ids, dtype=np.int64))
        vals = np.broadcast_to(np.asarray(value, dtype=float),
                               (len(nodes), len(components)))
        for j, c in enumerate(components):
            dofs = 3 * nodes + c
            self._presc_mask[dofs] = True
            self._presc_value[dofs] = vals[:, j]

    def fix_edge(self, patch: int, side: str, components=(0, 1, 2),
                 value=0.0) -> None:
        self.fix_nodes(self.mesh.edge_node_ids(patch, side), components,
                       value)

    # -- multiplier bookkeeping -----------------------------------------

    def multiplier_layout(self):
        """(total q count, per-constraint offsets into the q block)."""
        offsets, n = [], 0
        for con, method in self.constraints:
            if isinstance(method, Multiplier):
                offsets.append(n)
                n += con.n_multipliers(method)
            else:
                offsets.append(-1)
        return n, offsets

    # -- assembly --------------------------------------------------------

    def external_force(self, x, lam: float):
        """Assembled external load vector and follower tangent triplets."""
        nd = self.mesh.n_dofs
        f = np.zeros(nd)
        trips = []
        for dofs, vals in self.dead_forces:
            np.add.at(f, dofs.ravel(), lam * vals.ravel())
        for patch, p in self.pressures:
            fe, Ke = follower_pressure(self.quads[patch], lam * p, x)
            np.add.at(f, self.quads[patch].edof.ravel(), fe.ravel())
            trips.append((self.quads[patch].edof, self.quads[patch].edof, Ke))
        for eq, m in self.edge_moments:
            fe, Ke = follower_edge_moment(eq, lam * m, x)
            np.add.at(f, eq.edof.ravel(), fe.ravel())
            trips.append((eq.edof, eq.edof, Ke))
        return f, trips

    def assemble(self, x, q, lam: float, tangent: bool = True):
        """Residual and sparse tangent of the full saddle system."""
        nd = self.mesh.n_dofs
        nq, offsets = self.multiplier_layout()
        r = np.zeros(nd + nq)
        trips = []

        for pq in self.quads:
            fe, Ke = internal_forces(pq, self.material, x, tangent)
            np.add.at(r, pq.edof.ravel(), fe.ravel())
            if tangent:
                trips.append((pq.edof, pq.edof, Ke))

        for (con, method), off in zip(self.constraints, offsets):
            if isinstance(method, Penalty):
                if tangent:
                    (f_a, f_b), (K_aa, K_bb, K_ab) = con.penalty_tangent(
                        x, method)
                else:
                    f_a, f_b = con.penalty_force(x, method)
                np.add.at(r, con.edof_a.ravel(), f_a.ravel())
                if f_b is not None:
                    np.add.at(r, con.edof_b.ravel(), f_b.ravel())
                if tangent:
                    trips.append((con.edof_a, con.edof_a, K_aa))
                    if K_bb is not None:
                        trips.append((con.edof_b, con.edof_b, K_bb))
                        trips.append((con.edof_a, con.edof_b, K_ab))
                        trips.append((con.edof_b, con.edof_a,
                                      K_ab.transpose(0, 2, 1)))
            else:
                qc = q[off:off + con.n_multipliers(method)]
                if tangent:
                    (f_a, f_b, f_q), (K_aa, K_bb, K_ab, K_aq, K_bq) = \
                        con.lm_tangent(x, qc, method)
                else:
                    f_a, f_b, f_q = con.lm_force(x, qc, method)
                np.add.at(r, con.edof_a.ravel(), f_a.ravel())
                if f_b is not None:
                    np.add.at(r, con.edof_b.ravel(), f_b.ravel())
                _, qconn, _ = con._q_tables(method.interp)
                qdof = nd + off + qconn
                np.add.at(r, qdof.ravel(), f_q.ravel())
                if tangent:
                    trips.append((con.edof_a, con.edof_a, K_aa))
                    trips.append((con.edof_a, qdof, K_aq))
                    trips.append((qdof, con.edof_a, K_aq.transpose(0, 2, 1)))
                    if K_bb is not None:
                        trips.append((con.edof_b, con.edof_b, K_bb))
                        trips.append((con.edof_a, con.edof_b, K_ab))
                        trips.append((con.edof_b, con.edof_a,
                                      K_ab.transpose(0, 2, 1)))
                        trips.append((con.edof_b, qdof, K_bq))
                        trips.append((qdof, con.edof_b,
                                      K_bq.transpose(0, 2, 1)))

        f_ext, ext_trips = self.external_force(x, lam)
        r[:nd] -= f_ext
        K = None
        if tangent:
            for dofs, cdofs, Ke in ext_trips:
                trips.append((dofs, cdofs, -Ke))
            K = _triplets_to_csr(trips, nd + nq)
        return r, K, f_ext


def _triplets_to_csr(trips, n):
    rows, cols, vals = [], [], []
    for rdof, cdof, Ke in trips:
        nel, nr, nc = Ke.shape
        rows.append(np.repeat(rdof, nc, axis=1).ravel())
        cols.append(np.tile(cdof, (1, nr)).ravel())
        vals.append(Ke.reshape(nel, -1).ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()


def linear_solve(model: Model):
    """Single tangent solve about the reference configuration.

    The stiffness and loads are evaluated on the undeformed geometry, which
    is the small-deflection solution the classical linear shell benchmarks
    tabulate; iterating to nonlinear equilibrium would change the answer.
    Returns (x_nodes, q).
    """
    mesh = model.mesh
    nd = mesh.n_dofs
    nq, _ = model.multiplier_layout()
    free = ~np.concatenate([model._presc_mask, np.zeros(nq, dtype=bool)])

    r, K, _ = model.assemble(mesh.node_coords, np.zeros(nq), 1.0)
    z = np.zeros(nd + nq)
    z[:nd][model._presc_mask] = model._presc_value[model._presc_mask]
    rhs = -(r + K @ z)
    z[free] += splu(K[free][:, free].tocsc()).solve(rhs[free])
    return mesh.node_coords + z[:nd].reshape(-1, 3), z[nd:]


def displacement_at(mesh, x_nodes, patch: int, u: float, v: float):
    """Interpolated displacement of the surface point (u, v) on a patch."""
    ptch = mesh.patches[patch]
    idx, N, _, _ = ptch.basis2d(u, v)
    nodes = mesh.patch_node_ids[patch][idx]
    return N @ (x_nodes[nodes] - mesh.node_coords[nodes])


def solve(model: Model, n_steps: int = 1, tol_rel: float = 1e-8,
          max_iter: int = 30, max_cuts: int = 4, verbose: bool = False,
          callback=None):
    """Incremental-iterative solution up to load factor one.

    Returns the list of converged StepResult records.  The relative residual
    is measured against the external force at the current level; when loading
    is displacement driven the first Newton residual of the step is the
    fallback reference.
    """
    mesh = model.mesh
    nd = mesh.n_dofs
    nq, _ = model.multiplier_layout()
    presc = np.concatenate([model._presc_mask, np.zeros(nq, dtype=bool)])
    free = ~presc

    x = mesh.node_coords.copy()
    q = np.zeros(nq)
    history = []
    lam_done, dlam, cuts = 0.0, 1.0 / n_steps, 0

    while lam_done < 1.0 - 1e-12:
        lam = min(lam_done + dlam, 1.0)
        x_trial = x.copy()
        xf = x_trial.reshape(-1)
        xf[model._presc_mask] = (mesh.node_coords.reshape(-1)[model._presc_mask]
                                 + lam * model._presc_value[model._presc_mask])
        q_trial = q.copy()
        ok, it, rnorm = _newton(model, x_trial, q_trial, lam, free, tol_rel,
                                max_iter, verbose)
        if ok:
            for con, method in model.constraints:
                if isinstance(method, Multiplier) and \
                        con.max_angle_deviation(x_trial) >= np.pi / 4.0:
                    warnings.warn("multiplier constraint left its validity "
                                  "range (|alpha - alpha0| >= pi/4); cutting "
                                  "the load step")
                    ok = False
        if not ok:
            cuts += 1
            if cuts > max_cuts:
                raise NonConvergenceError(
                    f"no convergence at load factor {lam:.4g} after "
                    f"{max_cuts} step cuts")
            dlam *= 0.5
            continue
        x, q, lam_done = x_trial, q_trial, lam
        rec = StepResult(lam, x.copy(), q.copy(), it, rnorm)
        history.append(rec)
        if callback is not None:
            callback(rec)
        if verbose:
            print(f"  step lam={lam:.4f} converged in {it} iterations "
                  f"(|r| = {rnorm:.3e})")
    return history


def _newton(model, x, q, lam, free, tol_rel, max_iter, verbose):
    """Newton loop with a watchdog globalization.

    Full steps are preferred: strongly nonlinear shell states (membrane
    stiffening, inextensional modes) routinely send the residual up by
    orders of magnitude before quadratic convergence sets in, so a bounded
    non-monotone excursion of full steps is tolerated.  Only when the
    excursion fails to return below its entry residual is the iterate
    restored and strict backtracking used.  Stiff penalties additionally
    put a roundoff floor under the assembled residual that can exceed
    tol_rel * ref at small load increments; stagnation slightly above the
    tolerance but far below the load scale is accepted as that floor.
    """
    nd = model.mesh.n_dofs
    stag = 1e-13 * model.mesh.bbox_diag()
    ref = None
    best, flat = np.inf, 0
    strict = False          # excursion failed once: monotone creep only
    saved = None            # (x, q, rnorm) entry point of the excursion
    excur = 0

    def resid(x_try, q_try):
        try:
            r_try, _, _ = model.assemble(x_try, q_try, lam, tangent=False)
            return float(np.linalg.norm(r_try[free]))
        except ValueError:
            return np.inf

    for it in range(1, max_iter + 1):
        try:
            r, K, f_ext = model.assemble(x, q, lam)
        except ValueError:
            # iterate left the admissible configuration space (degenerate
            # metric or edge tangent); let the caller cut the step
            return False, it, np.inf
        rf = r[free]
        rnorm = float(np.linalg.norm(rf))
        if ref is None:
            fext_free = np.linalg.norm(
                np.concatenate([f_ext, np.zeros(len(r) - nd)])[free])
            ref = fext_free if fext_free > 1e-12 else max(rnorm, 1e-12)
        if verbose:
            print(f"    it {it}: |r| = {rnorm:.3e} (ref {ref:.3e})")
        if rnorm <= tol_rel * ref:
            return True, it, rnorm
        if saved is not None and rnorm < 0.9 * saved[2]:
            saved, excur = None, 0      # excursion paid off
        if rnorm <= 0.5 * best:
            best, flat = rnorm, 0
        elif saved is None:
            flat += 1
            if flat >= 3 and rnorm <= 1e-3 * ref:
                return True, it, rnorm  # roundoff floor of the assembly
            if strict and flat >= 15:
                return False, it, rnorm
        Kff = K[free][:, free].tocsc()
        try:
            lu = splu(Kff)
            dz = lu.solve(-rf)
            # one round of iterative refinement; penalty-dominated tangents
            # are ill-conditioned enough for the raw LU direction to carry
            # constraint-violating noise
            dz += lu.solve(-rf - Kff @ dz)
        except RuntimeError:
            return False, it, rnorm
        if not np.all(np.isfinite(dz)):
            return False, it, rnorm
        upd = np.zeros(len(r))
        upd[free] = dz

        r_full = resid(x + upd[:nd].reshape(-1, 3), q + upd[nd:])
        if r_full <= (1.0 - 1e-4) * rnorm:
            alpha = 1.0                 # plain Newton step descends
        elif not strict and excur < 6 and r_full <= 1e8 * max(best, ref):
            # tentative full step through a residual hump
            if saved is None:
                saved = (x.copy(), q.copy(), rnorm)
            excur += 1
            alpha = 1.0
        elif not strict and saved is not None:
            # excursion blew up or ran out: restore and creep from there
            x[:], q[:] = saved[0], saved[1]
            strict, saved, excur = True, None, 0
            continue
        else:
            strict = True
            alpha = 0.5
            for _ in range(7):
                if resid(x + alpha * upd[:nd].reshape(-1, 3),
                         q + alpha * upd[nd:]) \
                        <= (1.0 - 1e-4 * alpha) * rnorm:
                    break
                alpha *= 0.5
            # when nothing descends, creep by the last length anyway:
            # the assembly noise floor can mask a true small descent
        x += alpha * upd[:nd].reshape(-1, 3)
        q += alpha * upd[nd:]
        upd *= alpha
        # a displacement update at roundoff level cannot reduce the residual
        # further; accept the iterate rather than loop to max_iter
        if np.abs(upd[:nd]).max() <= stag and (nd == len(r)
                                               or np.abs(upd[nd:]).max()
                                               <= stag * 1e3):
            return True, it, rnorm
    return False, max_iter, rnorm
