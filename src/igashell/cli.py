"""Command-line front end.

Subcommands: run (solve one configuration), bench (execute benchmark
cases), verify-tangents (finite-difference consistency suite), flugge
(series reference for the pinched cylinder), info.  Exit codes: 0 success,
2 configuration error, 3 solver failure, 4 verification failure.

Heavy imports happen inside the handlers so that --threads can cap the
BLAS thread pools before numpy loads.
"""

import argparse
import json
import os
import sys


def _apply_threads(n):
    if n is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.9g}"
    return v


def _cmd_run(args):
    from .cli_io import (ConfigError, RunConfig, build_field_output,
                         build_model, write_csv, write_field_csv, write_vtk)
    from .solver import (NonConvergenceError, displacement_at, linear_solve,
                         solve)
    try:
        cfg = RunConfig.load(args.config)
        base = os.path.dirname(os.path.abspath(args.config))
        model, mesh = build_model(cfg, base_dir=base)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    s = cfg.solver
    try:
        if s["linear"]:
            x_nodes, _ = linear_solve(model)
            history = [dict(step=1, lam=1.0, iterations=1, residual=0.0,
                            reason="linear")]
            states = [(1.0, x_nodes)]
        else:
            steps = solve(model, n_steps=s["n_steps"], tol_rel=s["tol_rel"],
                          max_iter=s["max_iter"], max_cuts=s["max_cuts"],
                          verbose=args.verbose)
            history = [dict(step=k, lam=h.lam, iterations=h.iterations,
                            residual=h.residual, reason=h.reason)
                       for k, h in enumerate(steps, 1)]
            states = [(h.lam, h.x) for h in steps]
    except NonConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "history.csv"),
              ["step", "lam", "iterations", "residual", "reason"],
              [[h["step"], _fmt(h["lam"]), h["iterations"],
                _fmt(h["residual"]), h["reason"]] for h in history])
    written = ["history.csv"]
    if cfg.outputs["probes"]:
        rows = []
        for k, (lam, x) in enumerate(states, 1):
            for j, p in enumerate(cfg.outputs["probes"]):
                d = displacement_at(mesh, x, p["patch"], p["u"], p["v"])
                rows.append([k, _fmt(lam), j, p["patch"], _fmt(p["u"]),
                             _fmt(p["v"])] + [_fmt(float(c)) for c in d])
        write_csv(os.path.join(args.out, "probes.csv"),
                  ["step", "lam", "probe", "patch", "u", "v",
                   "ux", "uy", "uz"], rows)
        written.append("probes.csv")
    if cfg.outputs["fields"]:
        fo = build_field_output(mesh, states[-1][1], model.material,
                                cfg.outputs["samples_per_element"])
        if "csv" in cfg.outputs["formats"]:
            write_field_csv(os.path.join(args.out, "fields.csv"), fo)
            written.append("fields.csv")
        if "vtk" in cfg.outputs["formats"]:
            write_vtk(os.path.join(args.out, "fields.vtk"), fo)
            written.append("fields.vtk")
    import numpy as np
    umax = float(np.abs(states[-1][1] - mesh.node_coords).max())
    print(f"done: {len(states)} step(s), final load factor "
          f"{states[-1][0]:g}, max |u| = {umax:.6g}")
    print(f"wrote {', '.join(written)} to {args.out}")
    return 0


def _cmd_bench(args):
    from .benchmarks import CASES, run_case
    from .cli_io import ConfigError, write_csv
    case = args.case_pos or args.case
    params = None
    if args.config is not None:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        if not isinstance(doc, dict) or "case" not in doc:
            print("config error: benchmark config needs a 'case' key",
                  file=sys.stderr)
            return 2
        case = doc["case"]
        params = doc.get("params")
    if case is not None and case not in CASES:
        print(f"config error: unknown benchmark case '{case}'"
              f" (available: {', '.join(sorted(CASES))})", file=sys.stderr)
        return 2
    selected = [case] if case is not None else sorted(CASES)
    os.makedirs(args.out, exist_ok=True)
    for cid in selected:
        print(f"[{cid}]")
        try:
            rows, summary = run_case(cid, params)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        header = list(rows[0].keys())
        write_csv(os.path.join(args.out, f"{cid}.csv"), header,
                  [[_fmt(r[k]) for k in header] for r in rows])
        for key, val in summary.items():
            print(f"  {key}: {_fmt(val) if isinstance(val, float) else val}")
        print(f"  wrote {cid}.csv ({len(rows)} rows) to {args.out}")
    return 0


def _cmd_verify(args):
    from .verify import material_models, run_verification
    models = "all" if args.model == "all" else [args.model]
    if args.model != "all" and args.model not in material_models():
        print(f"config error: unknown material model '{args.model}'"
              f" (available: {', '.join(sorted(material_models()))})",
              file=sys.stderr)
        return 2
    seed = 0 if args.deterministic else int.from_bytes(os.urandom(4), "big")
    report = run_verification(models, n_states=args.states, seed=seed)
    failed = False
    for name, res in report.items():
        if name == "global_tangent":
            ok = res < 1e-5
            print(f"{name:28s} rel error {res:.3e}  "
                  f"{'ok' if ok else 'FAIL (tol 1e-5)'}")
        else:
            ok = res["stress"] < 1e-5 and res["moduli"] < 1e-4
            print(f"{name:28s} stress {res['stress']:.3e}  moduli "
                  f"{res['moduli']:.3e}  {'ok' if ok else 'FAIL'}")
        failed = failed or not ok
    return 4 if failed else 0


def _cmd_flugge(args):
    from .benchmarks import CYL
    from .reference import FluggeCylinder
    fl = FluggeCylinder(R=CYL["R"], L=CYL["L"], T=CYL["T"], E=CYL["E"],
                        nu=CYL["nu"], P=CYL["F"])
    w_lit = fl.load_point_deflection(m_max=79, n_max=157, tol=0.0)
    print(f"truncation 80x80 terms:   {w_lit:.8e}")
    if not args.fast:
        w_conv = fl.load_point_deflection()
        print(f"converged (adaptive):     {w_conv:.9e}")
    return 0


def _cmd_info(args):
    from . import __version__
    from .benchmarks import CASES
    from .verify import material_models
    print(f"igashell {__version__}")
    print("material models: " + ", ".join(sorted(material_models())))
    print("benchmark cases: " + ", ".join(sorted(CASES)))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="igashell",
        description="Rotation-free isogeometric thin-shell solver.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="solve one JSON run configuration")
    p.add_argument("--config", required=True, help="run configuration path")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="execute benchmark cases")
    p.add_argument("case_pos", nargs="?", metavar="case",
                   help="benchmark case id (omit to run all)")
    p.add_argument("--case", default=None, help="benchmark case id")
    p.add_argument("--config", default=None,
                   help="JSON {case, params} overriding defaults")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify-tangents",
                       help="finite-difference tangent consistency suite")
    p.add_argument("--model", default="all")
    p.add_argument("--states", type=int, default=20,
                   help="random states per material")
    p.add_argument("--deterministic", action="store_true",
                   help="fixed RNG seed")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("flugge",
                       help="series reference deflection, pinched cylinder")
    p.add_argument("--fast", action="store_true",
                   help="skip the adaptive high-truncation value")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_cmd_flugge)

    p = sub.add_parser("info", help="version, models and cases")
    p.set_defaults(func=_cmd_info)

    args = ap.parse_args(argv)
    _apply_threads(getattr(args, "threads", None))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
