"""Run one benchmark workload of the igashell solver and print its metrics.

    python3 shellbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout; the package is imported from its ``src``
directory.  The process builds the workload's model once (cold set-up),
then solves it in whole rounds until the next round would end after
``--seconds``, at least once.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics: ``setup_s`` (process
start to built model), ``solve_s`` (median round) and ``peak_rss_mb``.  The
two times are scaled to a reference host speed, sampled in the same process
by ``HostSpeed``; the raw wall times are on the line above.  With
``--trace 1`` the set-up and every second solve round are traced, the
others run untraced, and the line carries the per-layer metrics; the spans
go to ``shellbench/results/``.  The outputs are checked after the timed
region.  No input is random: ``--seed`` is accepted, recorded and changes
nothing.
"""

import time

T_START = time.perf_counter()   # set-up is timed from the process's start

import os  # noqa: E402

# one BLAS / OpenMP thread, fixed before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_program():
    """Put the checkout's package first on the path; fail without it."""
    if not (SRC / "igashell" / "__init__.py").is_file():
        sys.exit(f"run.py: no igashell package under {SRC}; run from the "
                 "root of a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import checks
    import workloads
    from igashell.solver import NonConvergenceError
    return workloads.WORKLOADS, checks, NonConvergenceError


class HostSpeed:
    """Times a fixed numpy and interpreter kernel that uses no igashell code.

    The host's speed drifts by tens of percent over minutes, and the kernel
    slows with it.  ``scale`` turns a wall time measured while the samples
    were taken into seconds at the reference speed ``REF_PASS_S``.
    """

    REF_PASS_S = 2.0e-4         # one kernel pass at the reference speed

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(12345)
        self._B = rng.standard_normal((16, 9, 6, 27))
        self._M = rng.standard_normal((16, 9, 6, 6))
        self._np = np
        self.samples = []       # (passes, seconds)

    def sample(self, passes):
        np, B, M = self._np, self._B, self._M
        acc = 0.0
        t0 = time.perf_counter()
        for _ in range(passes):
            T = np.matmul(M, B)
            K = np.matmul(B.transpose(0, 1, 3, 2), T).sum(axis=1)
            f = np.einsum("egkd,egk->ed", B, M[..., 0])
            c = np.cross(B[..., 0, :3], B[..., 1, :3])
            for i in range(200):
                acc += i
            acc += K[0, 0, 0] + f[0, 0] + c[0, 0, 0]
        dt = time.perf_counter() - t0
        self.samples.append((passes, dt))
        return dt

    def scale(self, first):
        """Reference over measured pass time, for samples[first:]."""
        taken = self.samples[first:]
        return (self.REF_PASS_S * sum(p for p, _ in taken)
                / sum(t for _, t in taken))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads, checks, NonConvergenceError = _import_program()
    if args.workload not in workloads:
        sys.exit(f"run.py: unknown workload {args.workload!r}; choose from "
                 + ", ".join(workloads))
    wl = workloads[args.workload]

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(0)

    model = wl.build()
    setup_s = time.perf_counter() - T_START
    if tracer is not None:
        tracer.uninstall()

    # Whole rounds; a traced run alternates untraced and traced rounds.
    # The host's speed is sampled right after set-up, after every accepted
    # load step of an untraced round and after every round.
    host = HostSpeed()
    host.sample(1000)
    setup_scale = host.scale(0)
    first, outputs, attempted, failed = None, [], 0, 0
    times = {False: [], True: []}
    scaled = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        attempted += 1
        if traced:
            tracer.install(attempted)
        first_sample = len(host.samples) - 1
        in_solve = []

        def sample(step):
            in_solve.append(host.sample(100))

        t0 = time.perf_counter()
        try:
            result = wl.solve(model, None if traced else sample)
        except NonConvergenceError as exc:
            result = None
            failed += 1
            print(f"run.py: round {attempted} failed: {exc}", file=sys.stderr)
        dt = time.perf_counter() - t0 - sum(in_solve)
        if traced:
            tracer.uninstall()
        host.sample(1000)
        if result is not None:
            times[traced].append(dt)
            if not traced:
                scaled.append(dt * host.scale(first_sample))
            if first is None:
                first = result
            outputs.append(wl.outputs(result))
        elapsed = time.perf_counter() - start
        if args.trace and attempted < 2:
            continue
        if elapsed + elapsed / attempted > args.seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not times[False] or (args.trace and not times[True]):
        sys.exit(f"run.py: no solve of {wl.name} succeeded")

    results = wl.check(model, first) + [checks.repeatable(outputs)]
    correct = all(r.ok for r in results)

    if tracer is not None:
        metrics, counts_repeat = tracer.metrics()
        metrics["trace.overhead_s"] = {
            "value": (statistics.median(times[True])
                      - statistics.median(times[False])),
            "unit": "s"}
        correct = correct and counts_repeat
        out_dir = HERE / "results"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{wl.name}-seed{args.seed}.json",
                    dict(workload=wl.name, seed=args.seed,
                         setup_s=setup_s,
                         solve_s_traced=times[True],
                         solve_s_untraced=times[False]))
    else:
        metrics = {
            "setup_s": {"value": setup_s * setup_scale, "unit": "s"},
            "solve_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    for r in results:
        print(f"check {r.name}: {'ok' if r.ok else 'FAILED'}: {r.detail}")
    speeds = [round(HostSpeed.REF_PASS_S * p / t, 3) for p, t in host.samples]
    print(f"workload {wl.name}: seed {args.seed}, {attempted} rounds, "
          f"{failed} failed; wall times: setup {setup_s:.3f} s, solve "
          f"{times[False]} s, traced solve {times[True]} s; host speed "
          f"{speeds}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
