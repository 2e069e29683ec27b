"""Persistent pattern documents.

Self-describing text format, versioned.  A document stores the parameters,
the vertex map, the radius function and the residual summary recorded when
it was generated.  A double document writes each number's repr; an extended
one writes each exactly, as a binary token [-]0x<odd hex mantissa>p<binary
exponent>, which reads back bit for bit at dps, so a document read back saves
to the same bytes.  Decimal tokens are still read.
"""
from __future__ import annotations

import contextlib
import math
import re
import sys
from fractions import Fraction
from itertools import chain, repeat
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


_HEADER = r"\n[^\S\n]*(\[.*?)[^\S\n]*$"  # with re.M: a line whose strip() starts "["
_TINY, _HUGE = sys.float_info.min, sys.float_info.max  # the normal doubles
#: the binary token of an extended number, sign, hex mantissa and binary exponent
_binary = re.compile(r"(-?)0x([0-9a-f]+)p(-?[0-9]+)").fullmatch


def _read(s: str, prec: int):
    r"""The raw mpf at prec bits of a binary token -?0x[0-9a-f]+p-?[0-9]+ (the
    tuple itself if its odd mantissa fits prec), or as mp.mpf(s) reads a decimal
    one -?\d+(\.\d*)?(e[-+]?\d+)? whose effective exponent, the written one less
    the fraction digits left once trailing zeros go, lies within +-400, where
    from_str rounds right; else None.  It rounds once to nearest (raw_mpf)."""
    m = _binary(s)
    if m:
        man = int(m[2], 16)
        try:
            exp = int(m[3])
        except ValueError:  # past int()'s 4300 digits
            return None
        if man & 1 and man.bit_length() <= prec:
            return (1 if m[1] else 0), man, exp, man.bit_length()
        return raw_mpf(-man if m[1] else man, exp, prec)
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
    num, den = (man * 10 ** e, 1) if e >= 0 else (man, 10 ** -e)
    return raw_mpf(-num if sign else num, 0, prec, den)


def _token(x) -> str:
    """The binary token of x, a raw mpf, an mpf or a float, exactly: 0x0p0
    for zero of either sign, inf or -inf for a pole, nan for nan."""
    t = x if type(x) is tuple else getattr(x, "_mpf_", None)
    if t is None:
        if not math.isfinite(x):
            return repr(float(x))
        man, den = float(x).as_integer_ratio()  # den a power of two
        t = raw_mpf(man, 1 - den.bit_length(), 53)
    sign, man, exp, bc = t
    if not man and bc:  # mpmath's inf and nan; zero is 0x0p0
        libmp = mp.libmp
        return "inf" if t == libmp.finf else "-inf" if t == libmp.fninf else "nan"
    return f"{'-' if sign else ''}0x{man:x}p{exp}"


def _parse_number(s: str, precision: str):
    """One stored number; extended numbers are read at the caller's
    working precision by _read, or as mp.mpf(s) reads them."""
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
    """float(s), or float.fromhex(s) of a binary token of an extended
    document, unless float rejects s, or its double is not finite or
    underflows (zero or subnormal for a nonzero token), or s holds a digit
    separator, which mpmath refuses: such a token goes to _parse_number."""
    m = precision != "double" and _binary(s)
    if m or "_" not in s:
        try:
            x = float.fromhex(s) if m else float(s)
        except (ValueError, OverflowError):
            x = math.nan
        if math.isfinite(x) and (abs(x) >= _TINY or not (
                m[2].strip("0") if m else s.lower().partition("e")[0].strip("+-0."))):
            return x
    return _parse_number(s, precision)


def _fromhex(tokens: List[str]) -> Optional[List[float]]:
    """float.fromhex of every token if each leaves "xp" or "in" once its hex
    digits and minus signs go, else None, so that fromhex, which reads "10"
    as 16, reads no decimal token: a token that fromhex takes has one p and no
    letter but a leading 0x, so it is binary, or else inf or -inf."""
    shapes = ("\n".join(tokens) + "\n").encode().translate(None, b"-0123456789abcdef")
    if len(shapes) == 3 * len(tokens) == 3 * (shapes.count(b"xp\n") + shapes.count(b"in\n")):
        with contextlib.suppress(ValueError, OverflowError):  # None: read each
            return list(map(float.fromhex, tokens))
    return None


def _parse_site(parts: List[str]) -> MultiIndex:
    try:
        return (int(parts[0]), int(parts[1]), int(parts[2]))
    except ValueError:
        raise DocumentError(f"bad site index: {' '.join(parts[:3])}") from None


def _rows(body: str, width: int, kind: str, into: dict) -> None:
    """into[site] = the number tokens of each line of a [vertices] (width 5) or [radii]
    (width 4) section; the first bad site, or line neither blank nor width tokens, raises."""
    lines = body.split("\n")
    widths = list(map(len, map(str.split, lines)))
    bad = min((widths.index(w) for w in set(widths) - {0, width}), default=None)
    tokens = (body if bad is None else "\n".join(lines[:bad])).split()
    cols = [tokens[i::width] for i in range(width)]
    try:  # each distinct site token converted once
        ints = {s: int(s) for s in {*cols[0], *cols[1], *cols[2]}}
    except ValueError:  # the first bad site raises
        list(map(_parse_site, filter(None, map(str.split, lines[:bad]))))
    if bad is not None:
        raise DocumentError(f"bad {kind} line: {lines[bad].strip()}")
    into.update(zip(zip(*(map(ints.__getitem__, col) for col in cols[:3])), zip(*cols[3:])))


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
    else:  # each number exactly, a float from its ratio, an mpf from its raw tuple
        parts, fmt = (lambda z: getattr(z, "_mpc_", None) or (z.real, z.imag)), _token
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
    """Vertices and radii are read at the document's dps, a binary token
    bit for bit and a decimal one as mp.mpf reads it; or, with doubles, as
    float and complex where a double holds them."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            chunks = re.split(_HEADER, fh.read(), flags=re.M)
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    head, _, chunks[0] = chunks[0].partition("\n")
    if head != FORMAT_HEADER:
        raise DocumentError("missing or unsupported format header")
    kv: Dict[str, str] = {}
    summary: Dict[str, float] = {}
    vertices: Dict[MultiIndex, Tuple[str, str]] = {}  # the last line of a site wins
    radii: Dict[SubIndex, Tuple[str]] = {}
    # one pass per section, in file order: the header each body follows
    for section, body in zip([None] + chunks[1::2], chunks[0::2]):
        if section == "[end]":
            break
        if section == "[vertices]":
            _rows(body, 5, "vertex", vertices)
        elif section == "[radii]":
            _rows(body, 4, "radius", radii)
        elif section in ("[params]", "[summary]"):
            for ln in filter(None, map(str.strip, body.split("\n"))):
                if "=" not in ln:
                    raise DocumentError(f"bad {section[1:-1]} line: {ln}")
                key, val = (part.strip() for part in ln.split("=", 1))
                if section == "[params]":
                    kv[key] = val
                else:
                    summary[key] = _parse_number(val, "double")
        elif body.strip():
            ln = next(filter(None, map(str.strip, body.split("\n"))))
            raise DocumentError(f"content outside any section: {ln}")
    del chunks, body  # the text, before the numbers are read
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
    tokens = list(chain.from_iterable([*vertices.values(), *radii.values()]))  # in read order
    n = 2 * len(vertices)
    with contextlib.nullcontext() if precision == "double" else mp.workdps(dps):
        if precision != "double" and not doubles:  # each mpc from two raw tuples
            prec = mp.mp.prec
            raw = map(lambda s: _read(s, prec) or mp.mpf(read(s, precision))._mpf_, tokens[:n])
            doc.vertices = dict(zip(vertices, map(mp.make_mpc, zip(raw, raw))))  # (re, im)
            doc.radii = dict(zip(radii, map(read, tokens[n:], repeat(precision))))
        else:  # float(s) of every token at once, read again where read(s) may differ
            try:
                xs = list(map(float, tokens))
            except ValueError:  # the binary tokens of an extended document, or
                # float refuses a token: read each, the first bad one raises
                xs = precision != "double" and _fromhex(tokens) or [math.nan] * len(tokens)
            for i in [i for i, x in enumerate(xs)
                      if not _TINY <= abs(x) <= _HUGE or "_" in tokens[i]]:
                xs[i] = read(tokens[i], precision)
            point = complex if set(map(type, xs[:n])) <= {float} else \
                lambda x, y: complex(x, y) if type(x) is type(y) is float else mp.mpc(x, y)
            doc.vertices = dict(zip(vertices, map(point, xs[:n:2], xs[1:n:2])))
            doc.radii = dict(zip(radii, xs[n:]))
    return doc
