"""Persistent pattern documents.

Self-describing text format, versioned, with decimal-string numbers so that
documents survive precision-mode changes.  A document stores the parameters,
the vertex map, the radius function and the residual summary recorded when
it was generated.  Each extended number is written with dps + 5 digits,
which give it back bit for bit at dps, so re-verifying a fresh cross-ratio
document reproduces its crossratio, constraint and laxzc summary bit for
bit.
"""
from __future__ import annotations

import contextlib
import functools
import math
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .lattice import MultiIndex, SubIndex
from .numerics import DEFAULT_EXT_DPS, Record, mp, raw_mpf
from .pattern_core import PatternParams, ZField
from .radius_system import RadiusField

FORMAT_HEADER = "hexcircle-pattern v1"
TOOL_VERSION = "hexcircle 0.1.0"


#: the stored patterns: hexagonal, its l = 0 square-grid plane, z^2, log
MODES = ("hex", "sg", "log", "z2")
ROUTES = ("crossratio", "radius")


class DocumentError(ValueError):
    """Malformed or unreadable pattern document."""


def check_layout(mode: str, route: str, c: float) -> None:
    """ValueError unless generate writes this mode and route with stored exponent
    c (in [0, 2] by PatternParams): hex and sg on the cross-ratio route with
    0 < c < 2; on the radius route hex with 0 < c <= 2, z2 (c = 2), log (c = 0)."""
    if mode not in MODES or route not in ROUTES:
        raise ValueError(f"unknown layout: mode {mode!r}, route {route!r}")
    if mode == "z2" and c != 2 or mode == "log" and c != 0:
        raise ValueError(f"--mode {mode} is built from the c = 2 pattern and "
                         f"needs --c 2")
    if mode == "sg" and route == "radius":
        raise ValueError("--mode sg is the l = 0 plane of the cross-ratio route")
    if c == 2 and route == "crossratio":
        raise ValueError("c = 2 requires the radius route (--route radius or "
                         "--mode z2)")
    if c == 0 and (mode, route) != ("log", "radius"):
        raise ValueError("c = 0 is the dual of the c = 2 pattern: use --mode log --c 2")


def check_depth(n: int) -> None:
    """ValueError unless n >= 1: the last generation of a pattern, which
    generate builds and a document stores."""
    if n < 1:
        raise ValueError(f"need n >= 1, not {n}")


class PatternDocument(Record):
    _fields = ("params", "n_max", "mode", "route", "vertices", "radii", "summary", "tool")

    def __init__(self, params: PatternParams, n_max: int, mode: str = "hex",
                 route: str = "crossratio", vertices: Optional[Dict[MultiIndex, complex]] = None,
                 radii: Optional[Dict[SubIndex, float]] = None,
                 summary: Optional[Dict[str, float]] = None, tool: str = TOOL_VERSION):
        self.params, self.n_max, self.mode, self.route = params, n_max, mode, route
        self.vertices = {} if vertices is None else vertices
        self.radii = {} if radii is None else radii
        self.summary = {} if summary is None else summary
        self.tool = tool

    def zfield(self) -> ZField:
        return ZField(params=self.params, values=dict(self.vertices),
                      generation=self.n_max)

    def radius_field(self) -> RadiusField:
        return RadiusField(params=self.params, values=dict(self.radii),
                           generation=self.n_max)


#: 10**k: the scale of a token, the decimal shift of the writer
_ten = functools.cache(lambda k: 10 ** k)
#: the float mpmath's to_digits_exp converts bits and digits by
_LOG2_10 = math.log(10, 2)


def _read(s: str, prec: int):
    r"""The raw mpf of mp.mpf(s) at prec bits for a token -?\d+(\.\d*)?(e[-+]?\d+)?
    whose effective exponent (the written one less the fraction digits left
    once trailing zeros go) lies within +-400, where from_str rounds right;
    else None.  Its digits over the power of ten round once to nearest at
    prec bits (numerics.raw_mpf), as from_str does."""
    s, sep, e = s.partition("e")
    whole, _, frac = s.partition(".")
    sign = 1 if whole[:1] == "-" else 0
    whole, frac = whole[sign:], frac.rstrip("0")
    digits = whole + frac
    if not whole or not digits.isdigit() or \
            sep and not (e[1:] if e[:1] in "+-" else e).isdigit():
        return None
    try:
        man, e = int(digits), (int(e) if sep else 0) - len(frac)
    except ValueError:  # past int()'s 4300 digits, which mp.mpf(s) refuses too
        return None
    if not -400 <= e <= 400:
        return None
    num, den = (man * _ten(e), 1) if e >= 0 else (man, _ten(-e))
    return raw_mpf(-num if sign else num, 0, prec, den)


def _fmt(x, prec: int, digits: int) -> str:
    """mp.nstr(mp.mpf(x), digits) at prec bits, from the raw mpf of x (a raw
    mpf, an mpf or any number mp.mpf takes), rounded to nearest if wider:
    libmp.to_str's rule on the floor digits of its to_digits_exp, formed on
    the integers by the same float expressions (to_str itself where that
    takes logs, |exp + bc| > 3500).  A float keeps its repr; a pole is inf."""
    t = x if type(x) is tuple else getattr(x, "_mpf_", None)
    if t is None:
        if isinstance(x, float):
            return repr(float(x))
        t = mp.mpf(x, prec=prec)._mpf_
    sign, man, exp, bc = t
    if not man:  # zero, or mpmath's inf and nan
        libmp = mp.libmp
        return ("inf" if t == libmp.finf else "-inf" if t == libmp.fninf
                else libmp.to_str(t, digits))
    if bc > prec:
        sign, man, exp, bc = raw_mpf(-man if sign else man, exp, prec)
    if abs(exp + bc) > 3500:
        return mp.libmp.to_str((sign, man, exp, bc), digits)
    fixprec = max(int((digits + 3) * _LOG2_10) + 10 - exp - bc, 0)
    fixdps, shift = int(fixprec / _LOG2_10 + 0.5), exp + fixprec
    d = str((man << shift if shift >= 0 else man >> -shift) * _ten(fixdps) >> fixprec)
    point = len(d) - fixdps - 1  # the decimal exponent of the first digit
    if len(d) > digits and d[digits] in "56789":  # round up, carrying through 9s
        d = str(int(d[:digits]) + 1)
        point += len(d) > digits
    d, split = d[:digits], 1
    if min(-(digits // 3), -5) < point < digits:
        d, split, point = "0" * -point + d, max(point, 0) + 1, 0
    d = (d[:split] + "." + d[split:]).rstrip("0")
    d = ("-" if sign else "") + (d + "0" if d[-1] == "." else d)
    return d if not point else f"{d}e+{point}" if point > 0 else f"{d}e{point}"


def _parse_number(s: str, precision: str):
    """One stored number; extended numbers are read at the caller's
    working precision, bit for bit as mp.mpf(s) reads them."""
    if s == "inf":
        return math.inf
    if s == "-inf":
        return -math.inf
    try:
        if precision == "double":
            return float(s)
        raw = _read(s, mp.mp.prec)
        return mp.mpf(s) if raw is None else mp.make_mpf(raw)
    except (ValueError, ZeroDivisionError):
        # mpmath also reads fractions such as "1/0"
        raise DocumentError(f"bad number: {s}") from None


def _parse_double(s: str, precision: str):
    """float(s), unless float rejects s, or its double is not finite or
    underflows (zero or subnormal for a nonzero token), or s holds a digit
    separator, which mpmath refuses: such a token goes to _parse_number."""
    if "_" not in s:
        try:
            x = float(s)
        except ValueError:
            x = math.nan
        if math.isfinite(x) and (abs(x) >= sys.float_info.min or
                                 not s.lower().partition("e")[0].strip("+-0.")):
            return x
    return _parse_number(s, precision)


def _parse_site(parts: List[str]) -> MultiIndex:
    try:
        return (int(parts[0]), int(parts[1]), int(parts[2]))
    except ValueError:
        raise DocumentError(f"bad site index: {' '.join(parts[:3])}") from None


def save_document(doc: PatternDocument, path: str) -> None:
    p = doc.params
    lines: List[str] = [FORMAT_HEADER, "[params]"]
    lines.append(f"c = {repr(p.c)}")
    for i, a in enumerate(p.alphas, start=1):
        lines.append(f"alpha{i} = {repr(a)}")
    if p.alpha_pi_fracs is not None:
        lines.append("alpha_pi_fracs = " + ",".join(str(f) for f in p.alpha_pi_fracs))
    lines.append(f"n = {doc.n_max}")
    lines.append(f"mode = {doc.mode}")
    lines.append(f"route = {doc.route}")
    lines.append(f"precision = {p.precision}")
    lines.append(f"dps = {p.dps}")
    lines.append(f"tool = {doc.tool}")
    lines.append("[summary]")
    for key in sorted(doc.summary):
        lines.append(f"{key} = {repr(float(doc.summary[key]))}")
    lines.append("[vertices]")
    if p.precision == "double":
        parts, fmt = (lambda z: (z.real, z.imag)), (lambda x: repr(float(x)))
    else:  # dps + 5 digits give back each number made at dps
        prec, digits = mp.libmp.dps_to_prec(p.dps + 5), p.dps + 5
        parts = lambda z: getattr(z, "_mpc_", None) or (z.real, z.imag)
        fmt = lambda x: _fmt(x, prec, digits)
    for site in sorted(doc.vertices):
        x, y = parts(doc.vertices[site])
        lines.append(f"{site[0]} {site[1]} {site[2]} {fmt(x)} {fmt(y)}")
    lines.append("[radii]")
    for site in sorted(doc.radii):
        lines.append(f"{site[0]} {site[1]} {site[2]} {fmt(doc.radii[site])}")
    lines.append("[end]")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_document(path: str, doubles: bool = False) -> PatternDocument:
    """Vertices and radii are read bit for bit as mp.mpf reads them at the
    document's dps, whose dps + 5 written digits give back each number made
    at dps; or, with doubles, as float and complex where a double holds them."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != FORMAT_HEADER:
        raise DocumentError("missing or unsupported format header")
    section = None
    kv: Dict[str, str] = {}
    summary: Dict[str, float] = {}
    vertices: Dict[MultiIndex, Tuple[str, str]] = {}
    radii: Dict[SubIndex, str] = {}
    for ln in lines[1:]:
        ln = ln.strip()
        if not ln:
            continue
        if ln == "[end]":
            break
        if ln.startswith("["):
            section = ln
            continue
        if section == "[params]":
            if "=" not in ln:
                raise DocumentError(f"bad params line: {ln}")
            key, val = (part.strip() for part in ln.split("=", 1))
            kv[key] = val
        elif section == "[summary]":
            if "=" not in ln:
                raise DocumentError(f"bad summary line: {ln}")
            key, val = (part.strip() for part in ln.split("=", 1))
            summary[key] = _parse_number(val, "double")
        elif section == "[vertices]":
            parts = ln.split()
            if len(parts) != 5:
                raise DocumentError(f"bad vertex line: {ln}")
            vertices[_parse_site(parts)] = (parts[3], parts[4])
        elif section == "[radii]":
            parts = ln.split()
            if len(parts) != 4:
                raise DocumentError(f"bad radius line: {ln}")
            radii[_parse_site(parts)] = parts[3]
        else:
            raise DocumentError(f"content outside any section: {ln}")
    try:
        precision = kv.get("precision", "double")
        dps = int(kv.get("dps", DEFAULT_EXT_DPS))
        fracs = None
        if "alpha_pi_fracs" in kv:
            fracs = tuple(Fraction(s) for s in kv["alpha_pi_fracs"].split(","))
        params = PatternParams(
            alphas=(float(kv["alpha1"]), float(kv["alpha2"]), float(kv["alpha3"])),
            c=float(kv["c"]), precision=precision, dps=dps, alpha_pi_fracs=fracs)
        doc = PatternDocument(
            params=params, n_max=int(kv["n"]), mode=kv.get("mode", "hex"),
            route=kv.get("route", "crossratio"), summary=summary,
            tool=kv.get("tool", "unknown"))
        check_layout(doc.mode, doc.route, params.c)
        check_depth(doc.n_max)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad parameter block: {exc}") from exc
    # _parse_number reads a double document with float already
    read = _parse_double if doubles and precision != "double" else _parse_number
    with contextlib.nullcontext() if precision == "double" else mp.workdps(dps):
        if precision != "double" and not doubles:  # each mpc from two raw tuples
            prec = mp.mp.prec
            raw = lambda s: _read(s, prec) or mp.mpf(read(s, precision))._mpf_  # noqa: E731
            doc.vertices = {site: mp.make_mpc((raw(re_s), raw(im_s)))
                            for site, (re_s, im_s) in vertices.items()}
        else:
            for site, (re_s, im_s) in vertices.items():
                x, y = read(re_s, precision), read(im_s, precision)
                if precision == "double" or doubles and type(x) is type(y) is float:
                    doc.vertices[site] = complex(x, y)
                elif type(x) is type(y) is mp.mpf:
                    doc.vertices[site] = mp.make_mpc((x._mpf_, y._mpf_))
                else:
                    doc.vertices[site] = mp.mpc(x, y)
        for site, val in radii.items():
            doc.radii[site] = read(val, precision)
    return doc
