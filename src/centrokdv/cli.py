"""Command-line front end: curve generation, transforms, scans, flows, checks.

Exit codes: 0 success, 1 a selfcheck suite failed, 2 precondition violation,
3 numerical failure.  Failed runs name the error on stderr as
`ERROR <Name>: <detail>`.  All artifacts are deterministic functions of the
inputs and the recorded seed.
"""

import argparse
import json
import sys

import numpy as np

from . import backlund as bk
from . import curve_core as cc
from . import invariants as iv
from . import kdv_flow as kf
from . import selfcheck
from .errors import NumericalFailure, PreconditionError
from .riccati_monodromy import DEFAULT_SUBSTEPS, scan_to_csv, spectral_scan

__all__ = ["main"]


def _load_plane(path) -> cc.CentroAffineCurve:
    curve = cc.load_curve(path)
    if isinstance(curve, cc.ProjectiveCurve):
        return cc.lift(curve)
    return curve


def _load_projective(path) -> cc.ProjectiveCurve:
    curve = cc.load_curve(path)
    if isinstance(curve, cc.CentroAffineCurve):
        return cc.project(curve)
    return curve


def _print_json(doc, path=None):
    """Print doc as JSON; also write it to path when one is given."""
    text = json.dumps(doc, indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_gen(args) -> int:
    if args.preset == "circle":
        curve = cc.make_circle(args.n)
    else:
        rng = np.random.default_rng(args.seed)
        curve = cc.random_projective(rng, args.n, strength=args.strength)
    meta = {"preset": args.preset, "n": args.n, "seed": args.seed}
    if args.preset == "trig":
        meta["strength"] = args.strength
    cc.save_curve(curve, args.output, meta=meta)
    return 0


def _cmd_lift(args) -> int:
    curve = cc.load_curve(args.input)
    if not isinstance(curve, cc.ProjectiveCurve):
        raise ValueError("lift expects a projective curve file")
    cc.save_curve(cc.lift(curve), args.output)
    return 0


def _cmd_project(args) -> int:
    curve = cc.load_curve(args.input)
    if not isinstance(curve, cc.CentroAffineCurve):
        raise ValueError("project expects a centro-affine curve file")
    cc.save_curve(cc.project(curve), args.output)
    return 0


def _cmd_backlund(args) -> int:
    param = bk.param_convert(args.c, args.c_kind)  # a bad constant is refused before the curve is lifted
    G = _load_plane(args.input)
    res = bk.apply_tc(G, param.c_aff, args.branch)
    report = {
        "c_aff": param.c_aff,
        "c_pr": param.c_pr,
        "branch": args.branch,
        "before": iv.invariant_report(G),
        "after": iv.invariant_report(res.image),
    }
    # the whole report is computed before any write, and written before the image,
    # so a failure or an unwritable --report leaves no image behind
    _print_json(report, args.report)
    cc.save_curve(res.image, args.output)
    return 0


def _cmd_scan(args) -> int:
    if (args.c is None) != (args.delta_output is None):
        raise ValueError("--c and --delta-output go together: give both or neither")
    if not (np.all(np.isfinite([args.lambda_min, args.lambda_max])) and args.lambda_steps > 0):
        raise ValueError(
            "need finite --lambda-min and --lambda-max and a positive --lambda-steps, got "
            f"{args.lambda_min!r}, {args.lambda_max!r}, {args.lambda_steps!r}"
        )
    param = None if args.c is None else bk.param_convert(args.c, args.c_kind)  # refused before any integration
    gamma = _load_projective(args.input)
    lams = np.linspace(args.lambda_min, args.lambda_max, args.lambda_steps)
    scan, dscan = spectral_scan(gamma, lams, substeps=args.substeps), None
    if param is not None:
        delta = bk.apply_tc_projective(gamma, param.c_pr, args.branch, substeps=args.substeps)
        dscan = spectral_scan(delta, lams, substeps=args.substeps)
    # both CSVs are written after every integration, so a failure leaves neither behind
    scan_to_csv(scan, args.output)
    if dscan is None:
        return 0
    scan_to_csv(dscan, args.delta_output)
    print(f"max deviation: {float(np.max(np.abs(scan.tr2 - dscan.tr2)))!r}")
    return 0


def _cmd_kdv(args) -> int:
    G = _load_plane(args.input)
    states = kf.flow_trace(G, args.s_end, ds=args.ds, samples=args.samples)
    kf.flow_trace_to_csv(states, args.output)
    return 0


def _cmd_permutability(args) -> int:
    gamma = _load_projective(args.input)
    c1, c2 = (bk.param_convert(c, args.c_kind).c_pr for c in (args.c, args.c2))
    sq = bk.permutability_square(
        gamma,
        c1,
        c2,
        branches=(args.branch, args.branch2),
        substeps=args.substeps,
        match_tol=args.tol,
    )
    report = {
        "c1_pr": c1,
        "c2_pr": c2,
        "mu": sq.mu,
        "nu": sq.nu,
        "both_orders_distance": sq.both_orders_distance,
        "prediction_residual": sq.prediction_residual,
    }
    _print_json(report, args.output)
    return 0


def _cmd_selfcheck(args) -> int:
    results = selfcheck.run_all(args.n, args.seed)
    print(selfcheck.format_report(results, args.n, args.seed))
    return 0 if all(r.passed for r in results) else 1


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="centrokdv", description=__doc__)
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        return p

    p = add("gen", _cmd_gen, "generate a preset projective curve as JSON")
    p.add_argument("--preset", choices=("circle", "trig"), default="circle")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strength", type=float, default=0.6)
    p.add_argument("--output", required=True)

    p = add("lift", _cmd_lift, "lift a projective curve to the unit-Wronskian plane curve")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = add("project", _cmd_project, "project a plane curve to its angle function")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = add("backlund", _cmd_backlund, "transform a curve and report invariants before/after")
    p.add_argument("--input", required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--c-kind", choices=("affine", "projective"), default="affine")
    p.add_argument("--branch", choices=("plus", "minus"), default="minus")
    p.add_argument("--output", required=True)
    p.add_argument("--report", default=None)

    p = add("scan", _cmd_scan, "write the squared-trace spectral scan CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--lambda-min", type=float, default=-1.0)
    p.add_argument("--lambda-max", type=float, default=1.5)
    p.add_argument("--lambda-steps", type=int, default=21)
    p.add_argument("--substeps", type=int, default=16)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--c-kind", choices=("affine", "projective"), default="projective")
    p.add_argument("--branch", choices=("plus", "minus"), default="minus")
    p.add_argument("--output", required=True)
    p.add_argument("--delta-output", default=None)

    p = add("kdv", _cmd_kdv, "evolve a curve and write the flow trace CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--s-end", type=float, required=True)
    p.add_argument("--ds", type=float, default=kf.DEFAULT_DS)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--output", required=True)

    p = add("permutability", _cmd_permutability, "close the double-transform square")
    p.add_argument("--input", required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--c2", type=float, required=True)
    p.add_argument("--c-kind", choices=("affine", "projective"), default="projective")
    p.add_argument("--branch", choices=("plus", "minus"), default="minus")
    p.add_argument("--branch2", choices=("plus", "minus"), default="minus")
    p.add_argument("--substeps", type=int, default=DEFAULT_SUBSTEPS)
    p.add_argument("--tol", type=float, default=bk.MATCH_TOL)
    p.add_argument("--output", default=None)

    p = add("selfcheck", _cmd_selfcheck, "run every diagnostic suite; exit 0 iff all pass")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--seed", type=int, default=7)

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
