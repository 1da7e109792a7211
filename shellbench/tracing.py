"""Per-layer tracing from outside the program.

While a ``Tracer`` is installed it replaces each layer entry point of
``igashell`` (module functions and class methods) by a wrapper that records
a span -- name, start, end, parent span, round -- and updates counts.  The
spans stay in memory until ``dump`` writes them out.  A layer's self time
is the sum of its spans' durations minus the time covered by their child
spans.  ``uninstall`` puts the original entry points back, so untraced
rounds run the program unchanged.
"""

import json
import statistics
import sys
import time
from collections import Counter

import numpy as np

import igashell.benchmarks
import igashell.constraints
import igashell.elements
import igashell.geometry
import igashell.materials
import igashell.solver

# span layers, each reported as "<layer>_s" self time
LAYERS = (
    "geometry.basis2d", "geometry.mesh", "elements.quadrature",
    "elements.internal_forces", "elements.loads", "kinematics.state",
    "materials.stress", "materials.moduli", "constraints.setup",
    "constraints.force", "constraints.tangent", "solver.assemble",
    "solver.factor", "solver.newton",
)
# counts reported per round; matrix sizes are the largest factorized
COUNTS = (
    "geometry.basis2d_calls", "elements.internal_forces_calls",
    "kinematics.state_calls", "materials.points", "constraints.calls",
    "solver.factorizations", "solver.matrix_nnz", "solver.lu_nnz",
    "solver.tangent_assemblies", "solver.residual_assemblies",
    "solver.newton_iterations", "solver.load_steps", "solver.step_cuts",
)


def _calls(key):
    def count(counts, args, kwargs, out):
        counts[key] += 1
    return count


def _points(counts, args, kwargs, out):
    counts["materials.points"] += args[2].det_a.size    # (self, ref, cur)


def _assembly(counts, args, kwargs, out):
    tangent = args[4] if len(args) > 4 else kwargs.get("tangent", True)
    counts["solver.tangent_assemblies" if tangent
           else "solver.residual_assemblies"] += 1


def _factor(counts, args, kwargs, out):
    counts["solver.factorizations"] += 1
    counts["solver.matrix_nnz"] = max(counts["solver.matrix_nnz"],
                                      args[0].nnz)
    counts["solver.lu_nnz"] = max(counts["solver.lu_nnz"],
                                  out.L.nnz + out.U.nnz)


def _newton(counts, args, kwargs, out):
    counts["solver.newton_attempts"] += 1
    counts["solver.newton_iterations"] += out[1]


def _steps(counts, args, kwargs, out):
    counts["solver.load_steps"] += len(out)


G, E, C, S = (igashell.geometry, igashell.elements, igashell.constraints,
              igashell.solver)
# (owner, attribute, layer, count hook); a module function is hooked in
# the namespace its callers look it up in
HOOKS = (
    (G.Patch, "basis2d", "geometry.basis2d",
     _calls("geometry.basis2d_calls")),
    (G.Mesh, "__init__", "geometry.mesh", None),
    *((mod, name, "geometry.mesh", None)
      for mod in (igashell.benchmarks, G)
      for name in ("make_plate", "make_cylinder_panel", "make_sphere_panel",
                   "make_folded_strip")),
    (E.PatchQuadrature, "__init__", "elements.quadrature", None),
    (E.EdgeQuadrature, "__init__", "elements.quadrature", None),
    (S, "internal_forces", "elements.internal_forces",
     _calls("elements.internal_forces_calls")),
    (S.Model, "external_force", "elements.loads", None),
    *((S, name, "elements.loads", None)
      for name in ("point_load", "dead_area_load", "dead_edge_traction",
                   "follower_pressure", "follower_edge_moment")),
    (E, "surface_vectors_state", "kinematics.state",
     _calls("kinematics.state_calls")),
    (igashell.materials.ShellMaterial, "stress_voigt", "materials.stress",
     _points),
    (igashell.materials.ShellMaterial, "moduli_voigt", "materials.moduli",
     None),
    (C.RotationConstraint, "__init__", "constraints.setup", None),
    *((C.RotationConstraint, name, "constraints.force",
       _calls("constraints.calls"))
      for name in ("penalty_force", "lm_force")),
    *((C.RotationConstraint, name, "constraints.tangent",
       _calls("constraints.calls"))
      for name in ("penalty_tangent", "lm_tangent")),
    (S.Model, "assemble", "solver.assemble", _assembly),
    (S, "splu", "solver.factor", _factor),
    (S, "solve", "solver.newton", _steps),
    (S, "linear_solve", "solver.newton", None),
    (S, "_newton", "solver.newton", _newton),
)


class Tracer:
    """Spans and counts of one process, grouped by round (0 is set-up)."""

    def __init__(self):
        self.spans = []         # [layer, start, end, parent index, round]
        self.counts = {}        # round -> Counter
        self.round = 0
        self.missing = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, layer, hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, 0.0, 0.0, stack[-1] if stack else -1,
                          self.round])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                spans[idx][1] = t0
                stack.pop()
            if hook is not None:
                hook(self.counts.setdefault(self.round, Counter()), args,
                     kwargs, out)
            return out

        return traced

    def install(self, rnd):
        """Hook every entry point; spans and counts go to round rnd."""
        self.round = rnd
        missing = []
        for owner, attr, layer, hook in HOOKS:
            fn = vars(owner).get(attr)
            if fn is None:
                missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, layer, hook))
        if missing and rnd == 0:
            print("tracing: entry points not found: " + ", ".join(missing),
                  file=sys.stderr)
        self.missing = missing

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def self_times(self):
        """{round: {layer: self seconds}}."""
        child = np.zeros(len(self.spans))
        for layer, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for (layer, t0, t1, _, rnd), c in zip(self.spans, child):
            per = out.setdefault(rnd, Counter())
            per[layer] += t1 - t0 - c
        return out

    def round_counts(self, rnd):
        counts = Counter(self.counts.get(rnd, ()))
        counts["solver.step_cuts"] = (counts.pop("solver.newton_attempts", 0)
                                      - counts["solver.load_steps"])
        return counts

    def metrics(self):
        """Set-up plus the median over traced solve rounds, every layer.

        Returns (metrics, counts_repeat): the counts must be the same in
        every solve round.
        """
        times = self.self_times()
        rounds = sorted(r for r in times if r > 0)
        setup_t, setup_c = times.get(0, Counter()), self.round_counts(0)
        per_round = [self.round_counts(r) for r in rounds]
        repeat = all(c == per_round[0] for c in per_round)
        metrics = {}
        for layer in LAYERS:
            value = setup_t[layer] + statistics.median(
                times[r][layer] for r in rounds)
            metrics[f"{layer}_s"] = {"value": value, "unit": "s"}
        for key in COUNTS:
            metrics[key] = {"value": int(setup_c[key] + per_round[0][key]),
                            "unit": "count"}
        return metrics, repeat

    def dump(self, path, meta):
        """Write the spans and per-round counts as JSON."""
        data = dict(meta, missing=self.missing,
                    span_fields=["layer", "start", "end", "parent", "round"],
                    spans=self.spans,
                    counts={r: self.round_counts(r) for r in self.counts})
        with open(path, "w") as fh:
            json.dump(data, fh)
