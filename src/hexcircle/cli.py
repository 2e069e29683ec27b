"""Command line front end: generate, verify, render, analyze.

Exit codes: 0 success, 2 usage or parameter error (an unwritable --out
included), 3 mathematical failure (positivity violation, failed
verification or a shoot bracket that misses the separatrix angle), so
automation can tell bugs from immersion failures.
"""
from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from . import geometry, pattern_core, radius_system, riccati, painleve, verify
from .document import (MODES, ROUTES, DocumentError, PatternDocument, check_depth,
                       check_layout, load_document, save_document)
from .numerics import DEFAULT_EXT_DPS, Backend, mp, parse_angle, parse_angles
from .pattern_core import PatternParams
from .radius_system import PositivityViolation
from .svg import NonFiniteError, render_svg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MATH = 3


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    print(message, file=sys.stderr)
    return code


def _build_document(params: PatternParams, n: int, mode: str, route: str) -> PatternDocument:
    doc = PatternDocument(params=params, n_max=n, mode=mode, route=route)
    if route == "radius":
        rf = radius_system.generate_radii(params, n)
        if mode == "log":
            rf = radius_system.dual(rf)
        doc.params = rf.params
        doc.radii = dict(rf.values)
        zf = geometry.reconstruct(rf)
        doc.vertices = dict(zf.values)
        doc.summary["wedge_closure"] = zf.meta["wedge_closure"]
        doc.summary["placement_mismatch"] = zf.meta["placement_mismatch"]
    else:
        field, rf = pattern_core.generate_z(params, n), None
        # the summary describes the stored field: for sg its l = 0 plane
        zf = pattern_core.FieldSnapshot(geometry.sg_slice(field) if mode == "sg" else field, True)
        doc.vertices = dict(zf.values)
        doc.radii = radius_system.extract_radii(field if mode == "sg" else zf)
    doc.summary.update(verify.summary(doc, zf, rf))
    return doc


def cmd_generate(args) -> int:
    try:
        alphas, fracs = parse_angles(args.alpha)
        params = PatternParams(alphas=alphas, c=args.c, precision=args.precision,
                               dps=args.dps, alpha_pi_fracs=fracs)
        check_depth(args.n)
    except ValueError as exc:
        return _fail(f"error: {exc}")
    if args.mode in ("z2", "log") and args.route == "crossratio":
        args.route = "radius"
    try:
        # the log document stores the dual exponent 2 - c
        check_layout(args.mode, args.route, 2 - params.c if args.mode == "log" else params.c)
        doc = _build_document(params, args.n, args.mode, args.route)
    except PositivityViolation as exc:
        return _fail(f"positivity failure: {exc}", EXIT_MATH)
    except ArithmeticError as exc:
        # a degenerate stencil, an overflow or a layout that fails to close
        return _fail(f"mathematical failure: {exc}", EXIT_MATH)
    except (pattern_core.UnsupportedExponentError, ValueError) as exc:
        return _fail(f"error: {exc}")
    save_document(doc, args.out)
    print(f"wrote {args.out}: mode={doc.mode} route={doc.route} "
          f"N={doc.n_max} vertices={len(doc.vertices)} radii={len(doc.radii)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        doc = load_document(args.file)
    except DocumentError as exc:
        return _fail(f"error: {exc}")
    checks = None
    if args.checks is not None:
        # each name once, where it first appears
        checks = list(dict.fromkeys(c.strip() for c in args.checks.split(",") if c.strip()))
        bad = [c for c in checks if c not in verify.ALL_CHECKS]
        if bad:
            return _fail(f"error: unknown checks {bad}; available: {verify.ALL_CHECKS}")
    report = verify.run_checks(doc, checks)
    if not report.residuals:
        return _fail("\n".join([*report.notes,
                                 "error: no requested check applies to this document"]))
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_MATH


def cmd_render(args) -> int:
    try:
        doc = load_document(args.file, doubles=True)
    except DocumentError as exc:
        return _fail(f"error: {exc}")
    try:
        text = render_svg(doc, show=args.show, scale=args.scale)
    except NonFiniteError as exc:
        return _fail(f"mathematical failure: {exc}", EXIT_MATH)
    except ValueError as exc:
        return _fail(f"error: {exc}")
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(text)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.n < 0 or args.shoot < 0 or not (math.isfinite(args.tol) and args.tol > 0):
        return _fail("error: need --n >= 0, --shoot >= 0 and a finite --tol > 0")
    out = []  # printed only once the whole analysis has succeeded
    try:
        bk = Backend(args.precision, args.dps)  # caps dps, for every analysis
        b = riccati.Boundary(args.c, *parse_angle(args.alpha))
        if args.what == "p0":
            closed, series = riccati.p0_closed(b), riccati.p0_via_series(b)
            half, f = (math.pi - b.alpha) / 2, b.alpha_pi_frac
            params = PatternParams(alphas=(half, half, b.alpha), c=args.c,
                                   alpha_pi_fracs=f and ((1 - f) / 2, (1 - f) / 2, f))
            seeds = radius_system.seeds_from_pattern(params)
            extracted = seeds[(1, 0, -1)] / seeds[(0, 0, 0)]
            dev = max(abs(closed - series), abs(closed - extracted))
            out += [f"p0 closed form   : {closed!r}", f"p0 series route  : {series!r}",
                    f"p0 from pattern  : {extracted!r}", f"max deviation    : {dev:.3e}"]
        elif args.what == "riccati":
            traj = riccati.trajectory(b, args.n, dps=None if bk.is_double else bk.dps)
            width = "double" if bk.is_double else f"dps={bk.dps}"
            out += [f"# separatrix run, {width}", "#   n        p_n"]
            out += [f"{n:5d}  {p: .12f}" if bk.is_double else
                    f"{n:5d}  {' ' * (p >= 0)}{mp.nstr(p, bk.dps)}"
                    for n, p in enumerate(traj.values)]
        else:  # painleve
            dps = None if bk.is_double else bk.dps
            # no --beta0: the separatrix start, at the run's width
            traj = painleve.run_trajectory(b, args.beta0, args.n, dps=dps)
            out.append("#   n      beta_n    sector")
            for n, (beta, s) in enumerate(zip(traj.betas, traj.sectors)):
                out.append(f"{n:5d}  {beta: .10f}  {s.value}")
            if traj.stayed:
                out.append(f"# stayed in A_I through n={traj.steps_in_sector()}")
            else:
                out.append(f"# exited A_I at n={traj.exit_index} "
                           f"into {traj.exit_sector.value}")
            if args.shoot:
                lo, hi = painleve.shoot(b, args.shoot, args.tol)
                if not lo <= b.beta0() <= hi:
                    return _fail(f"mathematical failure: shoot bracket [{lo!r}, {hi!r}] "
                                 f"misses the separatrix angle {b.beta0()!r}", EXIT_MATH)
                out.append(f"# shoot bracket: [{lo!r}, {hi!r}] width={hi - lo:.3e} "
                           f"target={b.beta0()!r}")
    except (painleve.BracketError, painleve.ResolutionError) as exc:
        return _fail(f"error: precision exhausted: {exc}")
    except (ValueError, ArithmeticError) as exc:
        return _fail(f"error: {exc}")
    print("\n".join(out))
    return EXIT_OK


COMMANDS = ("generate", "verify", "render", "analyze")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or of command only, which parses its argv alike."""
    ap = argparse.ArgumentParser(prog="hexcircle",
                                 description="hexagonal circle patterns of the "
                                             "discrete power map")
    # the usage of an error past the command names every command either way
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar=command and "{" + ",".join(COMMANDS) + "}")

    if command in (None, "generate"):
        g = sub.add_parser("generate", help="generate a pattern document")
        g.add_argument("--c", type=float, required=True)
        g.add_argument("--alpha", default="iso",
                       help='"iso", three floats "a1,a2,a3", or pi fractions '
                            '"1/4pi,1/4pi,1/2pi"')
        g.add_argument("--n", type=int, required=True)
        g.add_argument("--mode", choices=MODES, default="hex")
        g.add_argument("--route", choices=ROUTES, default="crossratio")
        g.add_argument("--precision", choices=("double", "ext"), default="double")
        g.add_argument("--dps", type=int, default=DEFAULT_EXT_DPS)
        g.add_argument("--out", required=True)
        g.set_defaults(func=cmd_generate)
    if command in (None, "verify"):
        v = sub.add_parser("verify", help="re-verify a pattern document")
        v.add_argument("file")
        v.add_argument("--checks", default=None,
                       help="comma list from: " + ",".join(verify.ALL_CHECKS))
        v.set_defaults(func=cmd_verify)
    if command in (None, "render"):
        r = sub.add_parser("render", help="render a document to SVG")
        r.add_argument("file")
        r.add_argument("--out", required=True)
        r.add_argument("--show", choices=("circles", "quads", "both"), default="both")
        r.add_argument("--scale", type=float, default=100.0)
        r.set_defaults(func=cmd_render)
    if command in (None, "analyze"):
        a = sub.add_parser("analyze", help="boundary analyses")
        a.add_argument("what", choices=("painleve", "riccati", "p0"))
        a.add_argument("--c", type=float, required=True)
        a.add_argument("--alpha", default=repr(math.pi / 3),
                       help='a float, or a pi fraction "1/3pi"')
        a.add_argument("--n", type=int, default=25)
        a.add_argument("--beta0", type=float, default=None)
        a.add_argument("--precision", choices=("double", "ext"), default="double")
        a.add_argument("--dps", type=int, default=DEFAULT_EXT_DPS)
        a.add_argument("--shoot", type=int, default=0,
                       help="also bracket the initial angle with this stay count")
        a.add_argument("--tol", type=float, default=1e-6)
        a.set_defaults(func=cmd_analyze)
    return ap


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a known command needs only its own parser; help and errors get them all
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # an --out that cannot be written
        return _fail(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
