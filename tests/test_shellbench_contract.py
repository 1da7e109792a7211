"""The benchmark's contract with the package.

``shellbench/workloads.py`` builds and solves its workloads through the
package's public entry points and checks the solutions through
``internal_forces(..., tangent=False)``, ``Model.assemble(..., tangent=
False)``, ``penalty_energy``, ``moment``, ``max_angle_deviation`` and
``PatchQuadrature.current``.  Each workload is built, solved twice and
checked here, imported as the benchmark imports it, so a break in any of
those calls fails a test instead of a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

SHELLBENCH = Path(__file__).resolve().parent.parent / "shellbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(SHELLBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(SHELLBENCH))
    return workloads.WORKLOADS


@pytest.mark.parametrize("name", ["cylinder_linear", "hemisphere_nonlinear",
                                  "folded_strip_lm", "folded_strip_penalty"])
def test_workload_checks_pass_and_repeat(workloads, name):
    """Every check of the workload passes, and a second solve of the same
    built model repeats its outputs bit for bit."""
    wl = workloads[name]
    model = wl.build()
    first = wl.solve(model, None)
    again = wl.solve(model, None)
    for a, b in zip(wl.outputs(first), wl.outputs(again), strict=True):
        assert a.tobytes() == b.tobytes()
    failed = [r for r in wl.check(model, first) if not r.ok]
    assert failed == []
