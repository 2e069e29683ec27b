"""Command line front end: generate, verify, render, analyze.

Exit codes: 0 success, 2 usage or parameter error, 3 mathematical failure
(positivity violation or failed verification), so automation can tell bugs
from immersion failures.
"""
from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from . import geometry, pattern_core, radius_system, riccati, painleve
from .document import DocumentError, PatternDocument, load_document, save_document
from .numerics import parse_angles
from .pattern_core import PatternParams
from .radius_system import PositivityViolation
from .svg import render_svg
from .verify import ALL_CHECKS, run_checks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MATH = 3


def _params_from_args(args) -> PatternParams:
    alphas, fracs = parse_angles(args.alpha)
    return PatternParams(alphas=alphas, c=args.c, precision=args.precision,
                         dps=args.dps, alpha_pi_fracs=fracs)


def _build_document(params: PatternParams, n: int, mode: str, route: str) -> PatternDocument:
    doc = PatternDocument(params=params, n_max=n, mode=mode, route=route)
    if mode in ("z2", "log") or route == "radius":
        base_params = params
        if mode == "z2":
            base_params = PatternParams(alphas=params.alphas, c=2.0,
                                        precision=params.precision, dps=params.dps,
                                        alpha_pi_fracs=params.alpha_pi_fracs)
        rf = radius_system.generate_radii(base_params, n)
        if mode == "log":
            rf = radius_system.dual(rf)
        doc.params = rf.params
        doc.route = "radius"
        doc.radii = dict(rf.values)
        doc.pole_sites = rf.pole_sites
        zf = geometry.reconstruct(rf)
        doc.vertices = dict(zf.values)
        doc.summary["wedge_closure"] = zf.meta["wedge_closure"]
        doc.summary["placement_mismatch"] = zf.meta["placement_mismatch"]
        doc.summary["crossratio"] = pattern_core.max_face_residual(zf)
        doc.summary["radius_eq"] = radius_system.max_equation_residual(rf)
    else:
        zf = pattern_core.generate_z(params, n)
        if mode == "sg":
            sg = geometry.sg_slice(zf)
            doc.vertices = {(k, 0, m): z for (k, m), z in sg.values.items()}
        else:
            doc.vertices = dict(zf.values)
        doc.radii = radius_system.extract_radii(zf, n)
        doc.summary["crossratio"] = pattern_core.max_face_residual(zf)
        if mode == "hex":
            doc.summary["constraint"] = pattern_core.max_constraint_residual(zf)
            doc.summary["zerocurvature"] = pattern_core.max_zero_curvature_residual(zf)
    return doc


def cmd_generate(args) -> int:
    try:
        params = _params_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.mode in ("z2", "log") and args.route == "crossratio":
        args.route = "radius"
    if params.c == 2 and args.route == "crossratio":
        print("error: c = 2 requires the radius route (--route radius or "
              "--mode z2)", file=sys.stderr)
        return EXIT_USAGE
    try:
        doc = _build_document(params, args.n, args.mode, args.route)
    except PositivityViolation as exc:
        print(f"positivity failure: {exc}", file=sys.stderr)
        return EXIT_MATH
    except (pattern_core.UnsupportedExponentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    save_document(doc, args.out)
    print(f"wrote {args.out}: mode={doc.mode} route={doc.route} "
          f"N={doc.n_max} vertices={len(doc.vertices)} radii={len(doc.radii)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        doc = load_document(args.file)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    checks = None
    if args.checks:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
        bad = [c for c in checks if c not in ALL_CHECKS]
        if bad:
            print(f"error: unknown checks {bad}; available: {ALL_CHECKS}",
                  file=sys.stderr)
            return EXIT_USAGE
    report = run_checks(doc, checks)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_MATH


def cmd_render(args) -> int:
    try:
        doc = load_document(args.file)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        text = render_svg(doc, show=args.show, scale=args.scale)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(text)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        if args.what == "p0":
            rp = riccati.RiccatiParams(c=args.c, alpha=args.alpha)
            closed = riccati.p0_closed(rp)
            series = riccati.p0_via_series(rp)
            alphas = ((math.pi - args.alpha) / 2, (math.pi - args.alpha) / 2,
                      args.alpha)
            params = PatternParams(alphas=alphas, c=args.c)
            seeds = radius_system.seeds_from_pattern(params)
            extracted = seeds[(1, 0, -1)] / seeds[(0, 0, 0)]
            dev = max(abs(closed - series), abs(closed - extracted))
            print(f"p0 closed form   : {closed!r}")
            print(f"p0 series route  : {series!r}")
            print(f"p0 from pattern  : {extracted!r}")
            print(f"max deviation    : {dev:.3e}")
        elif args.what == "riccati":
            rp = riccati.RiccatiParams(c=args.c, alpha=args.alpha)
            dps = riccati.separatrix_dps(rp, args.n)
            traj = riccati.trajectory(rp, args.n, dps=dps)
            print(f"# separatrix run, dps={dps}")
            print("#   n        p_n")
            for n, p in enumerate(traj.values):
                print(f"{n:5d}  {p: .12f}")
            if traj.first_nonpositive is not None:
                print(f"# first nonpositive at n={traj.first_nonpositive}")
        elif args.what == "painleve":
            beta0 = args.beta0 if args.beta0 is not None else args.c * args.alpha / 2
            dps = None if args.precision == "double" else args.dps
            traj = painleve.run_trajectory(args.c, args.alpha, beta0, args.n, dps=dps)
            print("#   n      beta_n    sector")
            for n, (b, s) in enumerate(zip(traj.betas, traj.sectors)):
                print(f"{n:5d}  {b: .10f}  {s.value}")
            if traj.stayed:
                print(f"# stayed in A_I through n={traj.steps_in_sector()}")
            else:
                print(f"# exited A_I at n={traj.exit_index} into {traj.exit_sector.value}")
            if args.shoot:
                lo, hi = painleve.shoot(args.c, args.alpha, args.shoot, args.tol)
                print(f"# shoot bracket: [{lo!r}, {hi!r}] width={hi - lo:.3e} "
                      f"target={args.c * args.alpha / 2!r}")
        else:
            raise ValueError(f"unknown analysis {args.what}")
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hexcircle",
                                 description="hexagonal circle patterns of the "
                                             "discrete power map")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a pattern document")
    g.add_argument("--c", type=float, required=True)
    g.add_argument("--alpha", default="iso",
                   help='"iso", three floats "a1,a2,a3", or pi fractions '
                        '"1/4pi,1/4pi,1/2pi"')
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--mode", choices=("hex", "sg", "log", "z2"), default="hex")
    g.add_argument("--route", choices=("crossratio", "radius"), default="crossratio")
    g.add_argument("--precision", choices=("double", "ext"), default="double")
    g.add_argument("--dps", type=int, default=40)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("verify", help="re-verify a pattern document")
    v.add_argument("file")
    v.add_argument("--checks", default=None,
                   help="comma list from: " + ",".join(ALL_CHECKS))
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("render", help="render a document to SVG")
    r.add_argument("file")
    r.add_argument("--out", required=True)
    r.add_argument("--show", choices=("circles", "quads", "both"), default="both")
    r.add_argument("--scale", type=float, default=100.0)
    r.set_defaults(func=cmd_render)

    a = sub.add_parser("analyze", help="boundary analyses")
    a.add_argument("what", choices=("painleve", "riccati", "p0"))
    a.add_argument("--c", type=float, required=True)
    a.add_argument("--alpha", type=float, default=math.pi / 3)
    a.add_argument("--n", type=int, default=25)
    a.add_argument("--beta0", type=float, default=None)
    a.add_argument("--precision", choices=("double", "ext"), default="double")
    a.add_argument("--dps", type=int, default=40)
    a.add_argument("--shoot", type=int, default=0,
                   help="also bracket the initial angle with this stay count")
    a.add_argument("--tol", type=float, default=1e-6)
    a.set_defaults(func=cmd_analyze)
    return ap


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
