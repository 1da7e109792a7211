"""Static equilibrium of the assembled shell problem.

A Model collects the mesh, the material, loads, rotation constraints and
displacement boundary conditions, and provides the residual

    r(x, q, lam) = f_int(x) + f_con(x, q) - f_ext(x, lam)

with its consistent sparse tangent.  Dead loads scale linearly with the load
factor lam; follower loads (pressure, edge moments) are evaluated in the
current configuration with magnitude scaled by lam.  Multiplier constraints
append their q unknowns after the displacement DOFs, making the Newton
system an indefinite saddle point with a zero diagonal block; the sparse LU
factors it with its default column ordering and partial pivoting.  Every
system without multiplier rows is factored in symmetric mode instead
(``SYMMETRIC_LU``, ``_factorize``).

Loading is applied in increments with Newton iteration per step; a step that
fails to converge (or drifts outside the multiplier validity range) is
halved and retried.  ``max_cuts`` is one budget for the whole ``solve``,
not a budget per step.

Newton's tangent of a penalty constraint is its mixed integration point
(MIP) tangent (``constraints`` module docstring): the stiffness of the
penalty density eps (1 - cos delta) is weighted by a point moment m that
is predicted linearly along each Newton update, m = eps (e + cos(delta/2)
dalpha . du) at the configuration of the tangent the update solved, in
place of the moment eps e at the new iterate.  The residual, and so every
converged state, is that of the displacement form.  m starts every
attempt of a load step at eps e(x), so the first tangent of every step is
the displacement tangent.  ``assemble`` without the moment state, as ``linear_solve`` and
the tangent checks call it, gives the displacement tangent.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .constraints import Multiplier, Penalty, RotationConstraint
from .elements import (EdgeQuadrature, PatchQuadrature, dead_area_load,
                       dead_edge_traction, follower_edge_moment,
                       follower_pressure, force_pass, point_load)


class NonConvergenceError(RuntimeError):
    """Newton failed to converge after exhausting the allowed step cuts."""


@dataclass
class StepResult:
    lam: float
    x: np.ndarray
    q: np.ndarray
    iterations: int
    residual: float
    reason: str         # how Newton converged: "tol", "trial" or "floor"


class Model:
    """A shell problem: discretized patches, loads and constraints.

    ``quads`` holds one PatchQuadrature per patch and ``constraints`` one
    (RotationConstraint, method) pair per constrained edge; both keep that
    meaning for callers.  Assembly runs on blocks instead: patches of one
    tabulation shape (ngp, nloc) are stacked into one PatchQuadrature, and
    constraints of one kind -- method, one- or two-sided, ``xi_dir`` and
    (ngp, nloc) on each side -- into one RotationConstraint, so every
    assembly makes one kernel call per block.  The blocks and the scatter
    indices are built once per layout of the patches, constraints and
    follower loads, and again whenever those lists change.

    Entry-order invariant: the residual and the stiffness entries are
    emitted in one fixed order -- patches in order, then each constraint in
    order with f_a, f_b, f_q and K_aa, K_aq, K_aq^T, K_bb, K_ab, K_ab^T,
    K_bq, K_bq^T, then the follower loads -- whatever the blocks are.  Each
    residual entry is summed in that order.  K has a fixed CSR pattern,
    built once per layout with the summation order of SciPy's COO to CSR
    conversion of the entries in that order (``_csr_pattern``); every
    assembly adds the entries into it in that order.  So r and K are bit
    for bit those of one kernel call per patch and per edge converted by
    ``tocsr``.

    One kernel pass per configuration: every block's kernel runs as a pass
    that returns the forces and a finisher that builds the stiffness from
    what the pass computed (``_block_pass``).  The model keeps the passes
    of its last residual-only assembly, keyed by the layout and private
    copies of x and q, and a tangent assembly at that same configuration,
    bit for bit, finishes them instead of running the kernels again --
    Newton's tangent at an accepted trial point is such a one.
    """

    def __init__(self, mesh, material, n_gauss=None):
        self.mesh = mesh
        self.material = material
        self.quads = [PatchQuadrature(p, mesh.patch_node_ids[i],
                                      mesh.node_coords, n_gauss=n_gauss)
                      for i, p in enumerate(mesh.patches)]
        self._edge_cache = {}
        self.dead_forces = []       # (dofs (nel, nd), values) at unit factor
        self.pressures = []         # (patch index, magnitude)
        self.edge_moments = []      # (EdgeQuadrature, magnitude)
        self.constraints = []       # (RotationConstraint, method)
        self._presc_mask = np.zeros(mesh.n_dofs, dtype=bool)
        self._presc_value = np.zeros(mesh.n_dofs)
        self._layout = (None, None)     # (key, _Layout)
        self._kept = None               # (layout, x, q, passes)

    # -- loads ----------------------------------------------------------

    def _edge_quad(self, patch: int, side: str) -> EdgeQuadrature:
        key = (patch, side)
        if key not in self._edge_cache:
            self._edge_cache[key] = EdgeQuadrature(
                self.mesh.patches[patch], self.mesh.patch_node_ids[patch],
                self.mesh.node_coords, side)
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

    def external_force(self, x, lam: float, tangent: bool = True):
        """Assembled external load vector and follower tangent triplets."""
        nd = self.mesh.n_dofs
        f = np.zeros(nd)
        trips = []
        for dofs, vals in self.dead_forces:
            np.add.at(f, dofs.ravel(), lam * vals.ravel())
        for patch, p in self.pressures:
            fe, Ke = follower_pressure(self.quads[patch], lam * p, x, tangent)
            np.add.at(f, self.quads[patch].edof.ravel(), fe.ravel())
            trips.append((self.quads[patch].edof, self.quads[patch].edof, Ke))
        for eq, m in self.edge_moments:
            fe, Ke = follower_edge_moment(eq, lam * m, x, tangent)
            np.add.at(f, eq.edof.ravel(), fe.ravel())
            trips.append((eq.edof, eq.edof, Ke))
        return f, trips

    def _current_layout(self):
        key = (list(self.quads), list(self.constraints),
               [patch for patch, _ in self.pressures],
               [eq for eq, _ in self.edge_moments])
        if key != self._layout[0]:
            self._layout = (key, _Layout(self))
        return self._layout[1]

    def assemble(self, x, q, lam: float, tangent: bool = True,
                 moments=None):
        """Residual and sparse tangent of the full saddle system.

        Returns (r, K or None, f_ext).  A residual-only assembly keeps its
        kernel passes, and a tangent assembly at the same layout, x and q
        finishes them (class docstring); any other assembly drops them.
        ``moments`` is the MIP moment state of a Newton attempt
        (``_Moments``): a tangent assembly finishes its penalty blocks at
        their moment fields and leaves their predictors in it.  Without it
        K is the displacement tangent.
        """
        nd = self.mesh.n_dofs
        lay = self._current_layout()
        passes = self._passes(lay, x, q)
        if tangent:
            m = {} if moments is None else moments.m
            out = [{**forces, **finish(m.get(b))}
                   for b, (forces, finish) in enumerate(passes)]
            if moments is not None:
                moments.predict = {b: o["predict"] for b, o in enumerate(out)
                                   if "predict" in o}
        else:
            passes = list(passes)
            self._kept = (lay, np.array(x), np.array(q), passes)
            out = [forces for forces, _ in passes]
        r = np.bincount(lay.f_rows, np.concatenate(
            [out[b][name][e0:e1].ravel() for b, name, e0, e1 in lay.f_plan]),
            minlength=lay.n)
        f_ext, ext_trips = self.external_force(x, lam, tangent)
        r[:nd] -= f_ext
        K = None
        if tangent:
            vals = [(out[b][name][e0:e1].transpose(0, 2, 1) if mirror
                     else out[b][name][e0:e1]).ravel()
                    for b, name, e0, e1, mirror in lay.k_plan]
            vals += [-Ke.ravel() for _, _, Ke in ext_trips]
            K = lay.fill(np.concatenate(vals))
        return r, K, f_ext

    def _passes(self, lay, x, q):
        """An iterator over the block passes at (lay, x, q): the kept ones
        if they were made there, else fresh ones.  The model lets go of
        the kept ones either way, so a finished pass is freed."""
        kept, self._kept = self._kept, None
        if (kept is not None and kept[0] is lay and _same_bits(kept[1], x)
                and _same_bits(kept[2], q)):
            return iter(kept[3])
        return (_block_pass(block, method, self.material, x, q)
                for block, method in lay.blocks)

    def free_tangent(self, K, free):
        """K[free][:, free] as a CSC matrix, gathered from K.data through a
        map built once per layout and set of free DOFs."""
        return self._current_layout().free_block(K, free)


_F_NAMES = ("f_a", "f_b", "f_q")
_K_NAMES = ("K_aa", "K_bb", "K_ab", "K_aq", "K_bq")


def _same_bits(a, b):
    """True when the arrays a and b hold the same bits (-0.0 is not 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _block_pass(block, method, material, x, q):
    """({name: force array}, finish) of one kernel pass on a block, where
    finish(m) returns {name: stiffness array} from what the pass computed.

    A patch block (method None) returns its element forces and tangents as
    f_a and K_aa on DOF table "a", its elements' own DOFs; a constraint
    block returns the blocks of its ``penalty_pass`` or ``lm_pass``.  Only
    a penalty block reads the moment field m, and its stiffness also holds
    its moment predictor under "predict"; the others take m None.
    """
    if method is None:
        f_el, finish = force_pass(block, material, x)
        return {"f_a": f_el}, lambda m: {"K_aa": finish()}
    if isinstance(method, Penalty):
        forces, finish = block.penalty_pass(x, method)
        return (dict(zip(_F_NAMES, forces)),
                lambda m: dict(zip(_K_NAMES[:3] + ("predict",), finish(m))))
    forces, finish = block.lm_pass(x, q, method)
    return (dict(zip(_F_NAMES, forces)),
            lambda m: dict(zip(_K_NAMES, finish())))


def _terms(item, method):
    """One member's force terms (name, DOF table) and stiffness terms
    (name, row table, column table), in entry order, mirrors left out."""
    if method is None:
        return [("f_a", "a")], [("K_aa", "a", "a")]
    lm, two = isinstance(method, Multiplier), item.two_sided
    return ([("f_a", "a")] + [("f_b", "b")] * two + [("f_q", "q")] * lm,
            [("K_aa", "a", "a")] + [("K_aq", "a", "q")] * lm
            + [("K_bb", "b", "b"), ("K_ab", "a", "b")] * two
            + [("K_bq", "b", "q")] * (lm and two))


def _group(items, key):
    """Indices of items grouped by key, groups in order of first appearance."""
    groups = {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    return list(groups.values())


def _kind(member):
    """Block key: members with equal keys share one kernel call."""
    item, method = member
    if method is None:
        return (None,) + item.N.shape[1:]
    return (method, item.two_sided, item.eq_a.xi_dir, item.ngp,
            item.eq_a.nloc, item.eq_b.nloc if item.two_sided else 0)


def _csr_pattern(rows, cols, n):
    """CSR pattern (indptr, indices) of the entries (rows, cols) and the
    (order, slot) map that sums them into it as SciPy's ``tocsr`` does.

    ``tocsr`` sorts the entries by row, stably, sorts each row's columns
    with ``csr_sort_indices``, whose permutation depends on the column
    indices alone, and adds equal neighbours one after the other.  The
    same steps on the entry numbers as data give that ``order``; ``slot``
    numbers the distinct (row, column) pairs.  ``np.bincount(slot,
    vals[order])`` adds sequentially too, so it fills the same bits.
    """
    counts = np.bincount(rows, minlength=n)
    perm = np.argsort(rows, kind="stable")
    A = sp.csr_matrix((perm.astype(float), cols[perm],
                       np.concatenate([[0], np.cumsum(counts)])),
                      shape=(n, n))
    del perm
    A.sort_indices()
    idx_type = A.indices.dtype
    order = A.data.astype(idx_type)
    # an entry opens a slot where its row starts or its column changes
    new = np.ones(len(order), dtype=bool)
    np.not_equal(A.indices[1:], A.indices[:-1], out=new[1:])
    new[A.indptr[:-1][counts > 0]] = True
    slot = np.cumsum(new, dtype=idx_type)
    ends = A.indptr[1:]
    indptr = np.zeros(n + 1, dtype=idx_type)
    indptr[1:] = np.where(ends > 0, slot[ends - 1], 0)
    slot -= 1
    return indptr, A.indices[new], order, slot


class _Layout:
    """The kernel blocks of a Model and the plan that scatters their output.

    The members -- patches (method None), then constraints -- are grouped
    by ``_kind`` into ``blocks`` of (stacked table or constraint, method).
    A member owns elements [e0, e1) of every array its block returns.
    ``f_plan`` lists (block, name, e0, e1) and ``k_plan`` (block, name, e0,
    e1, mirrored) in the entry order of the Model docstring; ``f_rows`` are
    the DOF indices of the force terms.  The stiffness entries, followed by
    those of the follower loads, fill the CSR pattern ``indptr``/``indices``
    through ``order`` and ``slot`` (``_csr_pattern``).
    """

    def __init__(self, model):
        nd = model.mesh.n_dofs
        nq, offsets = model.multiplier_layout()
        self.n = nd + nq
        quads = model.quads
        members = [(pq, None) for pq in quads] + list(model.constraints)
        q_offsets = [0] * len(quads) + [max(off, 0) for off in offsets]
        self.blocks, dofs, where = [], [], {}
        for idx in _group(members, _kind):
            items = [members[i][0] for i in idx]
            method = members[idx[0]][1]
            if method is None:
                block = PatchQuadrature.stack(items)
                tables = {"a": block.edof}
            else:
                block = RotationConstraint.stack(
                    items, [q_offsets[i] for i in idx])
                tables = {"a": block.edof_a, "b": block.edof_b}
                if isinstance(method, Multiplier):
                    tables["q"] = nd + block._q_tables(method.interp)[1]
            e0 = 0
            for i, item in zip(idx, items):
                where[i] = (len(self.blocks), e0, e0 + item.nel)
                e0 += item.nel
            self.blocks.append((block, method))
            dofs.append(tables)

        self.f_plan, self.k_plan, f_rows, pairs = [], [], [], []
        for i, (item, method) in enumerate(members):
            b, e0, e1 = where[i]
            f_terms, k_terms = _terms(item, method)
            for name, t in f_terms:
                self.f_plan.append((b, name, e0, e1))
                f_rows.append(dofs[b][t][e0:e1].ravel())
            for name, rt, ct in k_terms:
                # an off-diagonal block is followed by its mirror
                for mirror in ((False, True) if rt != ct else (False,)):
                    self.k_plan.append((b, name, e0, e1, mirror))
                    rdof, cdof = dofs[b][rt][e0:e1], dofs[b][ct][e0:e1]
                    pairs.append((cdof, rdof) if mirror else (rdof, cdof))
        pairs += [(quads[patch].edof, quads[patch].edof)
                  for patch, _ in model.pressures]
        pairs += [(eq.edof, eq.edof) for eq, _ in model.edge_moments]
        self.f_rows = np.concatenate(f_rows)
        # entry (e, i, j) of a block couples rdof[e, i] with cdof[e, j]
        size = sum(rdof.size * cdof.shape[1] for rdof, cdof in pairs)
        idx_type = np.int32 if max(self.n, size) < 2**31 else np.int64
        rows = np.empty(size, idx_type)
        cols = np.empty(size, idx_type)
        end = 0
        for rdof, cdof in pairs:
            start, end = end, end + rdof.size * cdof.shape[1]
            shape = (len(rdof), rdof.shape[1], cdof.shape[1])
            rows[start:end].reshape(shape)[...] = rdof[:, :, None]
            cols[start:end].reshape(shape)[...] = cdof[:, None, :]
        self.indptr, self.indices, self.order, self.slot = _csr_pattern(
            rows, cols, self.n)
        for a in (self.indptr, self.indices):
            a.flags.writeable = False       # shared by every K
        self._free = (None,)                # (free mask, take, indptr, indices)

    def fill(self, vals):
        """K as CSR from its entries in entry order."""
        K = sp.csr_matrix((np.bincount(self.slot, vals[self.order],
                                       minlength=len(self.indices)),
                           self.indices, self.indptr), shape=(self.n, self.n))
        K.has_canonical_format = True
        return K

    def free_block(self, K, free):
        """K[free][:, free].tocsc(), bit for bit, by one gather."""
        if self._free[0] is None or not np.array_equal(self._free[0], free):
            self._free = (free.copy(),) + _free_pattern(
                self.indptr, self.indices, free)
        _, take, indptr, indices = self._free
        Kff = sp.csc_matrix((K.data[take], indices, indptr),
                            shape=(len(indptr) - 1,) * 2)
        Kff.has_canonical_format = True
        return Kff


def _free_pattern(indptr, indices, free):
    """(take, indptr, indices): the CSC pattern of K[free][:, free] for the
    CSR pattern of K, and the entry of K.data each of its entries takes."""
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    keep = np.flatnonzero(free[rows] & free[indices])
    # CSR entries run by (row, column); a stable sort by column gives the
    # CSC order (column, row)
    take = keep[np.argsort(indices[keep], kind="stable")]
    renum = np.cumsum(free) - 1
    ff_indptr = np.zeros(np.count_nonzero(free) + 1, dtype=indices.dtype)
    np.cumsum(np.bincount(renum[indices[take]],
                          minlength=len(ff_indptr) - 1), out=ff_indptr[1:])
    ff_indices = renum[rows[take]].astype(indices.dtype)
    for a in (ff_indptr, ff_indices):
        a.flags.writeable = False           # shared by every Kff
    return take, ff_indptr, ff_indices


# SuperLU options for a stiffness matrix that is symmetric in structure and
# close to diagonally dominant (SuperLU Users' Guide, Demmel, Gilbert and
# Li): an A^T + A minimum degree ordering, and diagonal pivots whenever they
# are nonzero.  Follower loads make the values unsymmetric but keep the
# pattern symmetric.  The threshold trades fill against Newton iterations:
# on the 16 x 16 quartic cylinder's free stiffness the LU holds 456,464
# entries at thresholds 0.0 and 0.01, 583,039 at 0.1, 589,635 at 0.5 and
# 610,948 at SuperLU's default 1.0 (the same as this ordering without
# symmetric mode); the 8 x 8 quadratic hemisphere with a hole takes 85
# Newton iterations at 0.0 to 0.1 and 83 from 0.5 on, its first step
# exiting on the floor after 8 iterations instead of on its trial residual
# after 6.  The fill is kept.
SYMMETRIC_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True))


def _factorize(Kff, saddle: bool):
    """Sparse LU of a free tangent: symmetric mode unless the system has
    multiplier rows, whose zero diagonal block needs off-diagonal pivots
    and keeps SuperLU's defaults."""
    return splu(Kff, **({} if saddle else SYMMETRIC_LU))


def linear_solve(model: Model):
    """Single tangent solve about the reference configuration.

    The stiffness and loads are evaluated on the undeformed geometry, which
    is the small-deflection solution the classical linear shell benchmarks
    tabulate; iterating to nonlinear equilibrium would change the answer.
    At x = X a strain-based law carries no stress, so ``force_pass``
    skips the geometric stiffness there and K is the material part alone.
    The free tangent is factored by ``_factorize``, in symmetric mode when
    there are no multipliers.  Returns (x_nodes, q).
    """
    mesh = model.mesh
    nd = mesh.n_dofs
    nq, _ = model.multiplier_layout()
    free = ~np.concatenate([model._presc_mask, np.zeros(nq, dtype=bool)])

    r, K, _ = model.assemble(mesh.node_coords, np.zeros(nq), 1.0)
    z = np.zeros(nd + nq)
    z[:nd][model._presc_mask] = model._presc_value[model._presc_mask]
    rhs = -(r + K @ z)
    lu = _factorize(model.free_tangent(K, free), nq > 0)
    z[free] += lu.solve(rhs[free])
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
        reason, it, rnorm = _newton(model, x_trial, q_trial, lam, free,
                                    tol_rel, max_iter, verbose)
        ok = reason is not None
        # one geometry evaluation per stacked multiplier block
        if ok and any(isinstance(method, Multiplier)
                      and block.max_angle_deviation(x_trial) >= np.pi / 4.0
                      for block, method in model._current_layout().blocks):
            warnings.warn("multiplier constraint left its validity range "
                          "(|alpha - alpha0| >= pi/4); cutting the load step")
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
        rec = StepResult(lam, x.copy(), q.copy(), it, rnorm, reason)
        history.append(rec)
        if callback is not None:
            callback(rec)
        if verbose:
            print(f"  step lam={lam:.4f} converged in {it} iterations "
                  f"(|r| = {rnorm:.3e}, {reason})")
    return history


FLOOR_FACTOR = 100.0        # accepted round-off floor, in units of tol
PROGRESS_ITERS = 8          # iterations a step may take above its first |r|


class _Moments:
    """The MIP moment fields of the penalty blocks over one Newton attempt.

    ``m`` maps a block of the layout to the moment field its next tangent
    is finished with; a block not in it gets the displacement tangent,
    which is the MIP tangent at m = eps e(x).  A tangent assembly leaves
    in ``predict`` each penalty block's predictor at its configuration,
    and ``advance(du)`` moves ``m`` along the Newton update du from there.
    """

    def __init__(self):
        self.m, self.predict = {}, {}

    def advance(self, du_nodes):
        self.m = {b: predict(du_nodes) for b, predict in self.predict.items()}


def _newton(model, x, q, lam, free, tol_rel, max_iter, verbose):
    """Newton loop of one load step; returns (reason, iterations, |r|).

    reason says how the step converged, with tol = tol_rel * ref:

    - "tol": the assembled residual meets tol.
    - "trial": the full step's trial residual, which is the residual of the
      new iterate bit for bit, meets tol; no tangent is assembled there.
    - "floor": stiff penalties put a round-off floor under the assembled
      residual that can exceed tol.  |r| <= FLOOR_FACTOR * tol is accepted
      at the first iteration that fails to halve the previous |r|
      (Deuflhard's contraction test: Newton that no longer contracts there
      is stopped by round-off), when a full step neither descends nor may
      open an excursion, when an excursion fails, or when the update
      stagnates at round-off.  Over the benchmark workloads and acceptance
      criteria 6, 7 and 10 the largest accepted floor measured 8.4 tol
      (criterion 7).

    reason is None when the step failed, and ``solve`` then cuts it.  Full
    steps are preferred: strongly nonlinear shell states send the residual
    up by orders of magnitude before quadratic convergence sets in, so up
    to 6 full steps through such a hump are tolerated.  An excursion that
    does not return below 0.9 times its entry residual fails, and its entry
    point is restored.  A step whose residual has not fallen below its first
    |r| within PROGRESS_ITERS iterations fails: past that point its iterates
    wander, and whether they land is decided by round-off.  There is no line
    search: a step that cannot descend ends the attempt at once.

    The penalty tangents are MIP tangents (module docstring).  Their
    moment fields are kept in one ``_Moments`` per call, so each attempt
    starts at m = eps e(x) and its first tangent is the displacement
    tangent.  After every update that the loop goes on from, excursion
    steps included, m is predicted from the tangent pass that solved the
    update; when the kept trial pass is finished as the next tangent, it
    is finished with that m.  A failed excursion restores its entry point
    and ends the attempt, so m is reset with the next one.
    """
    nd = model.mesh.n_dofs
    stag = 1e-13 * model.mesh.bbox_diag()
    ref = None
    best, prev, progressed = np.inf, np.inf, False
    saved = None            # (x, q, rnorm) entry point of the excursion
    excur = 0
    moments = _Moments()

    for it in range(1, max_iter + 1):
        try:
            r, K, f_ext = model.assemble(x, q, lam, moments=moments)
        except ValueError:
            # iterate left the admissible configuration space (degenerate
            # metric or edge tangent); let the caller cut the step
            return None, it, np.inf
        rf = r[free]
        rnorm = float(np.linalg.norm(rf))
        if ref is None:
            fext_free = np.linalg.norm(
                np.concatenate([f_ext, np.zeros(len(r) - nd)])[free])
            ref = fext_free if fext_free > 1e-12 else max(rnorm, 1e-12)
            tol = tol_rel * ref
            floor = FLOOR_FACTOR * tol
            first = rnorm
        if verbose:
            print(f"    it {it}: |r| = {rnorm:.3e} (ref {ref:.3e})")
        if rnorm <= tol:
            return "tol", it, rnorm
        if rnorm <= floor and rnorm > 0.5 * prev:
            return "floor", it, rnorm
        progressed = progressed or rnorm < first
        if it >= PROGRESS_ITERS and not progressed:
            return None, it, rnorm
        prev = rnorm
        if saved is not None and rnorm < 0.9 * saved[2]:
            saved, excur = None, 0      # excursion paid off
        if rnorm <= 0.5 * best:
            best = rnorm
        Kff = model.free_tangent(K, free)
        try:
            lu = _factorize(Kff, len(r) > nd)
            dz = lu.solve(-rf)
            # one round of iterative refinement; penalty-dominated tangents
            # are ill-conditioned enough for the raw LU direction to carry
            # constraint-violating noise
            dz += lu.solve(-rf - Kff @ dz)
        except RuntimeError:
            return None, it, rnorm
        if not np.all(np.isfinite(dz)):
            return None, it, rnorm
        upd = np.zeros(len(r))
        upd[free] = dz

        try:
            r_full = float(np.linalg.norm(model.assemble(
                x + upd[:nd].reshape(-1, 3), q + upd[nd:], lam,
                tangent=False)[0][free]))
        except ValueError:
            r_full = np.inf
        if r_full > (1.0 - 1e-4) * rnorm:  # the full step does not descend
            if excur < 6 and r_full <= 1e8 * max(best, ref):
                # tentative full step through a residual hump
                if saved is None:
                    saved = (x.copy(), q.copy(), rnorm)
                excur += 1
            else:
                if saved is not None:
                    # the excursion blew up or ran out: back to its entry
                    x[:], q[:], rnorm = saved
                return ("floor" if rnorm <= floor else None), it, rnorm
        x += upd[:nd].reshape(-1, 3)
        q += upd[nd:]
        if r_full <= tol:
            return "trial", it, r_full
        # an update at round-off level cannot reduce the residual further
        if np.abs(upd[:nd]).max() <= stag and (nd == len(r)
                                               or np.abs(upd[nd:]).max()
                                               <= stag * 1e3):
            return ("floor" if rnorm <= floor else None), it, rnorm
        moments.advance(upd[:nd].reshape(-1, 3))
    return None, max_iter, rnorm
