"""Static equilibrium of the assembled shell problem.

A Model collects the mesh, the material, loads, rotation constraints and
displacement boundary conditions, and provides the residual

    r(x, q, lam) = f_int(x) + f_con(x, q) - f_ext(x, lam)

with its consistent sparse tangent.  Dead loads scale linearly with the load
factor lam; follower loads (pressure, edge moments) are kernel blocks, run
at unit magnitude in the current configuration and scaled by lam times
their magnitude.  Multiplier constraints
append their q unknowns after the displacement DOFs, making the Newton
system an indefinite saddle point with a zero diagonal block.

Every free tangent, penalty or saddle point, linear or Newton, is factored
by one band LU with partial pivoting (LAPACK ``dgbtrf``/``dgbtrs``;
``_factorize``).  Tensor-product patches number their nodes row by row,
and multi-patch models chain their patches, so the displacements form a
narrow band in their natural order.  Each multiplier, which couples only
with the displacements along its edge, is factored right after the
largest free one it couples with (``_band_plan``, planned once per layout
and set of free DOFs).  The free block is never formed as a matrix of its
own: the band is filled from the entries of K (``_CSR``), and the LU
keeps those entries, as a ``_CSR`` of the free block, for the products
K_ff dz of the refinement.

The solver imports numpy and nothing of SciPy but its LAPACK wrapper
module, loaded from its file on its own (``_lapack``): no SciPy package
``__init__`` runs.  K is a ``_CSR`` filled by ``np.bincount``
(``_Layout``).

One factorization with its scatter, against SuperLU (A^T + A minimum
degree in symmetric mode, or its defaults for saddle points), at a
deformed state, the least of five best-of-20 runs (best of 3 on the
32 x 32 cylinder) on a 2-core Xeon with one BLAS thread:

    free system                      DOFs    kl     SuperLU    band
    8 x 8 hemisphere with a hole      279     64    1.42       0.29 ms
    folded strip, multipliers         305     63    1.27       0.39 ms
    16 x 16 pinch, multipliers        931    128    10.7       2.2 ms
    quartic cylinder 16 x 16         1102    242    26.4       6.0 ms
    quartic cylinder 32 x 32         3710    434    189        57 ms

Band LU work grows like n kl (kl + ku), faster with the mesh than a
supernodal LU's fill, and the band array holds n (2 kl + ku + 1) values.
On a matrix of the pattern of a quartic 48 x 48 patch (8112 DOFs, kl 638,
a 124 MB band) it still takes 238 ms against SuperLU's 870 ms; that is
past every mesh of the benchmarks and acceptance criteria.

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
the displacement tangent, and so is that of ``assemble``.

One kernel pass per configuration: ``Model.evaluate`` returns the
``_State`` of one, and Newton holds its states itself (``_newton``).  The
model keeps no configuration.
"""

import importlib.machinery
import importlib.util
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .constraints import Multiplier, Penalty, RotationConstraint
from .elements import (EdgeQuadrature, PatchQuadrature, dead_load,
                       follower_edge_moment, follower_pressure, force_pass,
                       point_load)


def _lapack():
    """(dgbtrf, dgbtrs) of SciPy's LAPACK wrapper module, the extension
    ``scipy/linalg/_flapack`` that ``scipy.linalg.lapack`` re-exports.

    The module is loaded from its file, so no SciPy package ``__init__``
    runs: SciPy's ``scipy.linalg`` import costs 0.2-0.3 s, most of it in
    array-API shims, and the wrapper module alone 4-9 ms.  Raises
    ImportError when SciPy or the module is missing.
    """
    spec = importlib.util.find_spec("scipy")
    folders = spec.submodule_search_locations if spec else None
    for folder in folders or []:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                mod_spec = importlib.util.spec_from_file_location(
                    "scipy.linalg._flapack", path)
                module = importlib.util.module_from_spec(mod_spec)
                mod_spec.loader.exec_module(module)
                return module.dgbtrf, module.dgbtrs
    raise ImportError("igashell.solver needs SciPy's LAPACK wrapper module "
                      "scipy/linalg/_flapack")


dgbtrf, dgbtrs = _lapack()


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
    assembly makes one kernel call per block; so do follower loads of one
    kind.  The blocks and the scatter indices are built once per layout of
    the patches, constraints and follower loads, and again whenever those
    lists change.

    Entry-order invariant: the residual and the stiffness entries are
    emitted in one fixed order -- patches in order, then each constraint in
    order with f_a, f_b, f_q and K_aa, K_aq, K_aq^T, K_bb, K_ab, K_ab^T,
    K_bq, K_bq^T, then the follower loads -- whatever the blocks are.  Each
    residual entry is summed in that order, f_ext with the dead loads
    first, and so is each entry of K: its CSR pattern is built once per
    layout (``_csr_pattern``), and every tangent fills it by one
    ``np.bincount`` of the entries in that order, which adds an entry's
    terms one after the other from 0.  So r and K are bit for bit those of
    one kernel call per patch and per edge scattered in entry order (by
    ``np.add.at``), whatever the blocks.

    A model holds no configuration: ``evaluate`` runs the kernels at one,
    and ``assemble`` finishes that at once.
    """

    def __init__(self, mesh, material):
        self.mesh = mesh
        self.material = material
        self.quads = [PatchQuadrature(p, mesh.patch_node_ids[i],
                                      mesh.node_coords)
                      for i, p in enumerate(mesh.patches)]
        self._edge_cache = {}
        self.dead_forces = []       # (dofs (nel, nd), values) at unit factor
        self.pressures = []         # (patch index, magnitude)
        self.edge_moments = []      # (EdgeQuadrature, magnitude)
        self.constraints = []       # (RotationConstraint, method)
        self._presc_mask = np.zeros(mesh.n_dofs, dtype=bool)
        self._presc_value = np.zeros(mesh.n_dofs)
        self._layout = (None, None)     # (key, _Layout)

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
        self.dead_forces.append((pq.edof, dead_load(pq, t)))

    def add_edge_traction(self, patch: int, side: str, t) -> None:
        eq = self._edge_quad(patch, side)
        self.dead_forces.append((eq.edof, dead_load(eq, t)))

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

    def _current_layout(self):
        key = (list(self.quads), list(self.constraints),
               list(self.pressures), list(self.edge_moments))
        if key != self._layout[0]:
            self._layout = (key, _Layout(self))
        return self._layout[1]

    def evaluate(self, x, q):
        """The ``_State`` of one kernel pass per block at (x, q)."""
        return _State(self, x, q)

    def assemble(self, x, q, lam: float, tangent: bool = True):
        """(r, K, f_ext) of the full saddle system at (x, q, lam): one
        ``evaluate`` finished at once, with K the displacement tangent as
        a ``_CSR``, or None when ``tangent`` is False."""
        state = self.evaluate(x, q)
        r, f_ext = state.residual(lam)
        return r, state.tangent(lam)[0] if tangent else None, f_ext


class _State:
    """One kernel pass per block (``_block_pass``) at a configuration:
    private copies of x and q, f_int (the passes' forces summed in entry
    order) and the finishers that ``tangent`` runs, once."""

    def __init__(self, model, x, q):
        self.x, self.q = np.array(x), np.array(q)
        self._model = model
        self._lay = lay = model._current_layout()
        passes = [_block_pass(block, method, model.material, self.x, self.q,
                              lay.k_work if b == 0 else None)
                  for b, (block, method) in enumerate(lay.blocks)]
        f = np.concatenate([passes[b][0][name][e0:e1].ravel()
                            for b, name, e0, e1 in lay.f_plan])
        n = len(lay.f_rows)
        self.f_int = np.bincount(lay.f_rows, f[:n], minlength=lay.n)
        self._f_load = f[n:]        # the follower loads', at unit magnitudes
        self._finishers = [finish for _, finish in passes]

    def residual(self, lam):
        """(r, f_ext): r = f_int + f_con - f_ext at load factor lam.  f_ext
        adds the dead loads, then the follower loads, each scaled by lam
        times its magnitude."""
        model, lay = self._model, self._lay
        f_ext = np.zeros(model.mesh.n_dofs)
        for dofs, vals in model.dead_forces:
            np.add.at(f_ext, dofs.ravel(), lam * vals.ravel())
        np.add.at(f_ext, lay.e_rows, (lam * lay.e_mag) * self._f_load)
        r = self.f_int.copy()
        r[:model.mesh.n_dofs] -= f_ext
        return r, f_ext

    def tangent(self, lam, m=None):
        """(K, predictors): K, a ``_CSR``, finishes each penalty block b
        at the MIP moment field m[b], or at the displacement tangent
        without one, and predictors holds their moment predictors.  Raises
        RuntimeError when called again."""
        if self._finishers is None:
            raise RuntimeError("this state's tangent was already formed")
        finishers, self._finishers = self._finishers, None
        lay = self._lay
        m = m or {}
        # a follower load's stiffness is that of -f_ext
        out = [finish(-(lam * lay.mag[b]) if b in lay.mag else m.get(b))
               for b, finish in enumerate(finishers)]
        predictors = {b: o["predict"] for b, o in enumerate(out)
                      if "predict" in o}
        vals = lay.entries
        for (b, name, e0, e1, mirror), (start, end) in zip(
                lay.k_plan[lay.in_place:], lay.k_spans[lay.in_place:]):
            block = out[b][name][e0:e1]
            if mirror:
                block = block.swapaxes(1, 2)
            vals[start:end].reshape(block.shape)[...] = block
        return lay.fill(vals), predictors


_F_NAMES = ("f_a", "f_b", "f_q")
_K_NAMES = ("K_aa", "K_bb", "K_ab", "K_aq", "K_bq")
_LOADS = ("pressure", "moment")     # the methods of follower load members


def _same_bits(a, b):
    """True when the arrays a and b hold the same bits (-0.0 is not 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _block_pass(block, method, material, x, q, work=None):
    """({name: force array}, finish) of one kernel pass on a block, where
    finish(m) returns {name: stiffness array} from what the pass computed.

    A patch block (method None) returns its element forces and tangents as
    f_a and K_aa on DOF table "a", its elements' own DOFs, the tangents
    written into ``work`` if given; a constraint
    block returns the blocks of its ``penalty_pass`` or ``lm_pass``.  Only
    a penalty block reads the moment field m, and its stiffness also holds
    its moment predictor under "predict".  A follower load's m is the
    factor (nel,) that scales its unit-magnitude tangents.  The others take
    m None.
    """
    if method is None:
        f_el, finish = force_pass(block, material, x)
        return {"f_a": f_el}, lambda m: {"K_aa": finish(work)}
    if method in _LOADS:
        kernel = (follower_pressure if method == "pressure"
                  else follower_edge_moment)
        f_el, finish = kernel(block, x)
        return {"f_a": f_el}, lambda m: {"K_aa": m[:, None, None] * finish()}
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
    if method is None or method in _LOADS:
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
    if method is None or method == "pressure":
        return (method,) + item.N.shape[1:]
    if method == "moment":
        return (method, item.xi_dir) + item.N.shape[1:]
    return (method, item.two_sided, item.eq_a.xi_dir, item.ngp,
            item.eq_a.nloc, item.eq_b.nloc if item.two_sided else 0)


def _csr_pattern(rows, cols, n):
    """(indptr, indices, slot) of the entries (rows, cols) of an n x n
    matrix: its CSR pattern, each row's columns ascending and distinct,
    and the position in it of every entry.  One argsort of the (row, col)
    keys; slot does not depend on the order of equal keys, and the stable
    kind is the faster one on keys that come in runs."""
    key = rows.astype(np.int64) * n + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    slot = np.empty(len(key), dtype=np.intp)
    slot[order] = np.cumsum(new) - 1
    key = key[new]
    indptr = np.zeros(n + 1, dtype=rows.dtype)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    return indptr, (key % n).astype(rows.dtype), slot


class _CSR:
    """An n x n sparse matrix in CSR form: ``data`` on the pattern
    ``indptr``/``indices``, each row's columns ascending and distinct.
    ``rows`` holds the row of every stored entry, and ``A @ v`` adds each
    row's terms in column order from 0, as SciPy's CSR mat-vec does."""

    def __init__(self, data, indptr, indices, rows):
        self.data, self.indptr, self.indices = data, indptr, indices
        self.rows = rows
        self.shape = (len(indptr) - 1,) * 2

    def __matmul__(self, v):
        return np.bincount(self.rows, self.data * v[self.indices],
                           minlength=self.shape[0])

    def toarray(self):
        A = np.zeros(self.shape)
        A[self.rows, self.indices] = self.data
        return A


class _Layout:
    """The kernel blocks of a Model and the plan that scatters their output.

    The members -- patches (method None), constraints, then follower loads
    ("pressure", "moment") -- are grouped by ``_kind`` into ``blocks`` of
    (stacked table or constraint, method).  A member owns elements [e0, e1)
    of every array its block returns.  ``f_plan`` lists (block, name, e0,
    e1) and ``k_plan`` (block, name, e0, e1, mirrored) in the entry order of
    the Model docstring; ``f_rows`` and ``e_rows`` are the DOF indices of
    the force terms, the follower loads' in ``e_rows`` with their
    magnitudes ``e_mag``.  ``mag`` maps a follower block to its elements'
    magnitudes.  The stiffness entries, k_plan item k at
    ``entries[k_spans[k]]``, fill the CSR pattern ``indptr``/``indices``
    (``_csr_pattern``) of the ``nd`` displacement DOFs and then the
    multipliers, entry e at ``slot[e]``; ``rows`` is the row of each stored
    entry.  The first ``in_place`` items are written in place by block 0's
    finisher, into its view ``k_work`` of ``entries`` (None otherwise).
    Each set of free DOFs gets, once, the band plan that scatters K's free
    block from K.data and factors it (``_free_maps``).
    """

    def __init__(self, model):
        self.nd = nd = model.mesh.n_dofs
        nq, offsets = model.multiplier_layout()
        self.n = nd + nq
        quads = model.quads
        members = [(pq, None) for pq in quads] + list(model.constraints)
        q_offsets = [0] * len(quads) + [max(off, 0) for off in offsets]
        loads = ([(quads[patch], "pressure", p)
                  for patch, p in model.pressures]
                 + [(eq, "moment", m) for eq, m in model.edge_moments])
        load_mags = [float(m) for *_, m in loads]
        mags = [0.0] * len(members) + load_mags
        members += [(item, method) for item, method, _ in loads]
        self.blocks, dofs, where, self.mag = [], [], {}, {}
        for idx in _group(members, _kind):
            items = [members[i][0] for i in idx]
            method = members[idx[0]][1]
            if method is None or method in _LOADS:
                block = type(items[0]).stack(items)
                tables = {"a": block.edof}
                if method is not None:
                    self.mag[len(self.blocks)] = np.repeat(
                        [mags[i] for i in idx], [item.nel for item in items])
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
        # each follower load has one force term, and they come last
        self.e_mag = np.repeat(load_mags, [r.size for r in f_rows[
            len(f_rows) - len(loads):]])
        f_rows = np.concatenate(f_rows)
        n_int = len(f_rows) - len(self.e_mag)
        self.f_rows, self.e_rows = f_rows[:n_int], f_rows[n_int:]
        # entry (e, i, j) of a block couples rdof[e, i] with cdof[e, j]
        size = sum(rdof.size * cdof.shape[1] for rdof, cdof in pairs)
        idx_type = np.int32 if max(self.n, size) < 2**31 else np.int64
        rows = np.empty(size, idx_type)
        cols = np.empty(size, idx_type)
        end, self.k_spans = 0, []
        for rdof, cdof in pairs:
            start, end = end, end + rdof.size * cdof.shape[1]
            self.k_spans.append((start, end))
            shape = (len(rdof), rdof.shape[1], cdof.shape[1])
            rows[start:end].reshape(shape)[...] = rdof[:, :, None]
            cols[start:end].reshape(shape)[...] = cdof[:, None, :]
        # Every tangent writes its entries into one buffer, so it allocates
        # nothing on the order of K.  Block 0 holds patch 0; when its
        # members are the first patches, its element tangents are the
        # first entries, and its finisher writes them there (``k_work``).
        self.entries = np.empty(size)
        first = [k for k, item in enumerate(self.k_plan) if item[0] == 0]
        self.in_place = len(first) if first == list(range(len(first))) else 0
        self.k_work = None
        if self.in_place:
            block = self.blocks[0][0]
            shape = (block.nel,) + (block.edof.shape[1],) * 2
            self.k_work = self.entries[:np.prod(shape)].reshape(shape)
        self.indptr, self.indices, self.slot = _csr_pattern(rows, cols,
                                                            self.n)
        del rows, cols
        self.rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        for a in (self.indptr, self.indices, self.rows):
            a.flags.writeable = False       # shared by every K
        self._free = (None, None)           # (free mask, band plan)

    def fill(self, vals):
        """K as a ``_CSR`` from its entries in entry order: each stored
        entry sums its terms in that order from 0 (``np.bincount``)."""
        return _CSR(np.bincount(self.slot, vals, minlength=len(self.indices)),
                    self.indptr, self.indices, self.rows)

    def _free_maps(self, free):
        """(free mask, band plan) of a set of free DOFs (``_band_plan``),
        built on its first use."""
        if self._free[0] is None or not np.array_equal(self._free[0], free):
            self._free = (free.copy(),
                          _band_plan(self.rows, self.indices, free, self.nd))
        return self._free


def _band_plan(rows, indices, free, nd):
    """(take, perm, kl, ku, pos, pattern): how the free block
    K[free][:, free] of a K in CSR form, whose stored entries lie in rows
    ``rows`` and columns ``indices``, with nd displacement DOFs is factored
    in band storage.

    ``take`` lists the entries of K.data that couple two free DOFs, in CSR
    order, and pattern = (indptr, cols, rows) is the free block's CSR
    pattern with them as its data: cols and rows are their column and row
    among the free DOFs.
    Row and column k of the factored matrix are free DOF perm[k]: the free
    displacements in natural order, each multiplier right after the
    largest one it couples with in the symmetric pattern, and last those
    that couple with none (a singular tangent).  kl and ku are the band's
    sub- and super-diagonals, and entry K.data[take[e]] lands at flat
    index pos[e] of the Fortran-ordered band array, whose leading
    dimension is 2 kl + ku + 1 (LAPACK ``dgbtrf`` storage, with kl rows
    above the band for the pivots' fill).
    """
    take = np.flatnonzero(free[rows] & free[indices])
    renum = np.cumsum(free) - 1
    rows, cols = renum[rows[take]], renum[indices[take]]
    n, nu = np.count_nonzero(free), np.count_nonzero(free[:nd])
    # a stable sort puts each multiplier after the displacement of its key
    key = np.arange(n)
    key[nu:] = -1
    lm = (rows >= nu) & (cols < nu)
    np.maximum.at(key, rows[lm], cols[lm])
    key[key < 0] = n
    perm = np.argsort(key, kind="stable")
    inv = np.empty(n, dtype=np.intp)
    inv[perm] = np.arange(n)
    i, j = inv[rows], inv[cols]
    kl, ku = int((i - j).max(initial=0)), int((j - i).max(initial=0))
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return (take, perm, kl, ku, kl + ku + i - j + (2 * kl + ku + 1) * j,
            (indptr, cols, rows))


class _BandLU:
    """LU factors with partial pivoting of the free tangent K_ff of K in
    band storage, scattered from K.data by a ``_band_plan``.  ``solve(b)``
    solves with them, and ``K_ff`` is the factored matrix as a ``_CSR``,
    both in the order of the free DOFs: ``K_ff @ dz`` is (K @ upd)[free]
    for upd zero off the free DOFs, but for the sign of an exact zero (a
    prescribed column adds a * 0.0 there)."""

    def __init__(self, plan, data):
        take, self.perm, self.kl, self.ku, pos, pattern = plan
        n = len(self.perm)
        self.K_ff = _CSR(data[take], *pattern)
        band = np.zeros(n * (2 * self.kl + self.ku + 1))
        band[pos] = self.K_ff.data
        self.lu, self.piv, info = dgbtrf(band.reshape(n, -1).T, self.kl,
                                         self.ku, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"dgbtrf: argument {-info} is invalid")
        if info > 0:
            raise RuntimeError(f"free tangent is exactly singular: "
                               f"U[{info - 1}, {info - 1}] = 0")

    def solve(self, b):
        y, _ = dgbtrs(self.lu, self.kl, self.ku, b[self.perm], self.piv,
                      overwrite_b=1)
        x = np.empty_like(y)
        x[self.perm] = y
        return x


def _factorize(model, K, free):
    """Band LU of the free tangent K[free][:, free] of a K assembled on the
    model's current layout, by the plan of that layout and set of free
    DOFs.  Raises RuntimeError when the free tangent is exactly singular."""
    return _BandLU(model._current_layout()._free_maps(free)[1], K.data)


LINEAR_RESIDUAL = 1e-3    # largest relative residual of a linear solve


def linear_solve(model: Model):
    """Single tangent solve about the reference configuration.

    The stiffness and loads are evaluated on the undeformed geometry, which
    is the small-deflection solution the classical linear shell benchmarks
    tabulate; iterating to nonlinear equilibrium would change the answer.
    K is the displacement tangent of the state at x = X.  There a
    strain-based law carries no stress, so ``force_pass`` skips the
    geometric stiffness and K is the material part alone.  The free
    tangent is factored straight from K by ``_factorize``.  Returns
    (x_nodes, q).

    Raises NonConvergenceError when the free tangent is singular: exactly,
    or numerically, when the solve leaves a relative residual |rhs -
    K_ff dz| / |rhs| above LINEAR_RESIDUAL.  An unsupported plate leaves
    49; every well-posed linear model measured leaves at most 3.8e-5
    (criterion 4's hemisphere), the pinched cylinders at most 2.1e-6,
    criterion 5's plate 2.2e-8 and the folded strips 1.8e-9.
    """
    mesh = model.mesh
    nd = mesh.n_dofs
    nq, _ = model.multiplier_layout()
    free = ~np.concatenate([model._presc_mask, np.zeros(nq, dtype=bool)])

    state = model.evaluate(mesh.node_coords, np.zeros(nq))
    r, _ = state.residual(1.0)
    K, _ = state.tangent(1.0)
    z = np.zeros(nd + nq)
    z[:nd][model._presc_mask] = model._presc_value[model._presc_mask]
    if z.any():         # K z adds nothing when no prescribed value is set
        r = r + K @ z
    rhs = -r[free]
    try:
        lu = _factorize(model, K, free)
        dz = lu.solve(rhs)
    except RuntimeError as exc:
        raise NonConvergenceError(f"linear solve failed: {exc}") from exc
    res, ref = np.linalg.norm(rhs - lu.K_ff @ dz), np.linalg.norm(rhs)
    if not res <= LINEAR_RESIDUAL * ref:
        raise NonConvergenceError(
            f"linear solve failed: |rhs - K dz| = {res:.3g} for |rhs| = "
            f"{ref:.3g} (singular free tangent)")
    z[free] += dz
    return mesh.node_coords + z[:nd].reshape(-1, 3), z[nd:]


def displacement_at(mesh, x_nodes, patch: int, u: float, v: float):
    """Interpolated displacement of the surface point (u, v) on a patch.
    Raises ValueError when (u, v) lies outside it (``Mesh.check_point``)."""
    mesh.check_point(patch, u, v)
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
    state = None            # the last attempt's final unfinished state

    while lam_done < 1.0 - 1e-12:
        lam = min(lam_done + dlam, 1.0)
        x_trial = x.copy()
        xf = x_trial.reshape(-1)
        xf[model._presc_mask] = (mesh.node_coords.reshape(-1)[model._presc_mask]
                                 + lam * model._presc_value[model._presc_mask])
        q_trial = q.copy()
        if state is not None and not (_same_bits(state.x, x_trial)
                                      and _same_bits(state.q, q_trial)):
            state = None
        reason, it, rnorm, state = _newton(model, x_trial, q_trial, lam,
                                           free, tol_rel, max_iter, verbose,
                                           state)
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


def _newton(model, x, q, lam, free, tol_rel, max_iter, verbose,
            state=None):
    """Newton loop of one load step from (x, q), updated in place, and
    their unfinished ``_State`` if one is given; returns (reason,
    iterations, |r|, the final (x, q)'s unfinished state or None).

    reason says how the step converged, with tol = tol_rel * ref:

    - "tol": the residual of an iterate meets tol.
    - "trial": the full step's trial residual, which is the residual of the
      new iterate, meets tol.
    - "floor": stiff penalties put a round-off floor under the residual
      that can exceed tol.  |r| <= FLOOR_FACTOR * tol is accepted at the
      first iteration that fails to halve the previous |r| (Deuflhard's
      contraction test: Newton that no longer contracts there is stopped
      by round-off), when a full step neither descends nor may open an
      excursion, when an excursion fails, or when the update stagnates at
      round-off.  Over the benchmark workloads and acceptance criteria 6,
      7 and 10 the largest accepted floor measured 8.4 tol (criterion 7).

    Each iterate's residual is tested before its tangent is formed
    (Deuflhard, Newton Methods for Nonlinear Problems, 2004, ch. 2), so
    every tangent is factored; a trial point's state is the next iterate's.

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
    moment fields m start empty in every call, so each attempt's first
    tangent is the displacement tangent.  After every update that the loop
    goes on from, excursion steps included, m is predicted from the tangent
    that solved the update.  A failed excursion restores its entry point
    and ends the attempt.
    """
    nd = model.mesh.n_dofs
    stag = 1e-13 * model.mesh.bbox_diag()
    best, prev, progressed = np.inf, np.inf, False
    saved = None            # (x, q, rnorm) entry point of the excursion
    excur = 0
    m = {}
    if state is None:
        try:
            state = model.evaluate(x, q)
        except ValueError:
            # the start left the admissible configuration space (degenerate
            # metric or edge tangent); let the caller cut the step
            return None, 1, np.inf, None
    r, f_ext = state.residual(lam)
    rnorm = float(np.linalg.norm(r[free]))
    fext_free = np.linalg.norm(
        np.concatenate([f_ext, np.zeros(len(r) - nd)])[free])
    ref = fext_free if fext_free > 1e-12 else max(rnorm, 1e-12)
    tol = tol_rel * ref
    floor = FLOOR_FACTOR * tol
    first = rnorm

    for it in range(1, max_iter + 1):
        if verbose:
            print(f"    it {it}: |r| = {rnorm:.3e} (ref {ref:.3e})")
        if rnorm <= tol:
            return "tol", it, rnorm, state
        if rnorm <= floor and rnorm > 0.5 * prev:
            return "floor", it, rnorm, state
        progressed = progressed or rnorm < first
        if it >= PROGRESS_ITERS and not progressed:
            return None, it, rnorm, state
        prev = rnorm
        if saved is not None and rnorm < 0.9 * saved[2]:
            saved, excur = None, 0      # excursion paid off
        if rnorm <= 0.5 * best:
            best = rnorm
        K, predictors = state.tangent(lam, m)
        rf = r[free]
        upd = np.zeros(len(r))
        try:
            lu = _factorize(model, K, free)
            dz = lu.solve(-rf)
            # one round of iterative refinement; penalty-dominated tangents
            # are ill-conditioned enough for the raw LU direction to carry
            # constraint-violating noise
            upd[free] = dz + lu.solve(-rf - lu.K_ff @ dz)
        except RuntimeError:
            return None, it, rnorm, None
        if not np.all(np.isfinite(upd)):
            return None, it, rnorm, None

        try:
            state = model.evaluate(x + upd[:nd].reshape(-1, 3), q + upd[nd:])
            r, _ = state.residual(lam)
            r_full = float(np.linalg.norm(r[free]))
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
                return ("floor" if rnorm <= floor else None), it, rnorm, None
        x[:], q[:], rnorm = state.x, state.q, r_full
        if rnorm <= tol:
            return "trial", it, rnorm, state
        # an update at round-off level cannot reduce the residual further
        if np.abs(upd[:nd]).max() <= stag and (nd == len(r)
                                               or np.abs(upd[nd:]).max()
                                               <= stag * 1e3):
            return ("floor" if rnorm <= floor else None), it, rnorm, state
        m = {b: predict(upd[:nd].reshape(-1, 3))
             for b, predict in predictors.items()}
    return None, max_iter, rnorm, state
