"""Output checks applied to every call of every timed pass.

The checks hold their own copies of the lattice counts and tolerances, so a
change to the program cannot loosen them.  Each check returns a list of
problems; an empty list means the output is correct.  A call that exits
non-zero is counted as failed by the harness; its output is only checked for
consistency (a verify that exits 3 must report a FAIL).
"""
from __future__ import annotations

import hashlib
import math
import os
import re
from typing import Dict, List, Optional, Tuple

# Same values as the documented defaults of `hexcircle verify`.
TOLERANCES = {
    "crossratio": 1e-9,
    "constraint": 1e-9,
    "laxzc": 1e-9,
    "kite": 1e-9,
    "positivity": 0.0,
    "immersion": 0.0,
    "radius_eq": 1e-9,
}
RESIDUAL_CHECKS = ("crossratio", "constraint", "laxzc", "kite", "radius_eq")
# generation summary key -> verify check that recomputes it
SUMMARY_TO_CHECK = {"crossratio": "crossratio", "constraint": "constraint",
                    "zerocurvature": "laxzc", "radius_eq": "radius_eq"}
P0_TOLERANCE = 1e-9

_WROTE = re.compile(r"wrote (\S+): mode=(\w+) route=(\w+) N=(\d+) "
                    r"vertices=(\d+) radii=(\d+)$")
_CHECK_LINE = re.compile(r"^(\w+)\s+max-residual (\S+)\s+(pass|FAIL)$")


def expected_counts(mode: str, n: int) -> Tuple[int, int]:
    """(vertices, radii) a document of this mode and depth must hold.

    hex: all of Q = {k, l >= 0, m <= 0, k + l - m <= n}; sg: its l = 0
    plane; radii sit on the vertices of even generation.  z2: the radius
    fill has (n + 1)^2 sublattice sites, from which the reconstruction
    places 1 + 3n(n + 3)/2 vertices (the count hexcircle 0.1.0 reaches for
    n = 2-6, 12 and 48); log is its dual, whose origin circle is a pole, so
    it places one vertex less.
    """
    if mode in ("hex", "sg"):
        radii = sum((g + 1) * (g + 2) // 2 for g in range(0, n + 1, 2))
        if mode == "hex":
            return (n + 1) * (n + 2) * (n + 3) // 6, radii
        return (n + 1) * (n + 2) // 2, radii
    placed = 1 + 3 * n * (n + 3) // 2
    return (placed if mode == "z2" else placed - 1), (n + 1) ** 2


def arg(argv: List[str], flag: str, default: Optional[str] = None) -> Optional[str]:
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_generate(argv: List[str], stdout: str) -> List[str]:
    lines = stdout.strip().splitlines()
    m = _WROTE.match(lines[-1]) if lines else None
    if m is None:
        return [f"generate printed no summary line: {stdout!r}"]
    mode, n = m.group(2), int(m.group(4))
    want = expected_counts(mode, n)
    got = (int(m.group(5)), int(m.group(6)))
    problems = []
    if mode != arg(argv, "--mode", "hex") or n != int(arg(argv, "--n")):
        problems.append(f"generate wrote mode={mode} N={n} for {argv}")
    if got != want:
        problems.append(f"{mode} n={n}: (vertices, radii) = {got}, "
                        f"lattice has {want}")
    if not os.path.isfile(m.group(1)):
        problems.append(f"generate did not write {m.group(1)}")
    return problems


def parse_verify(stdout: str) -> Dict[str, Tuple[float, bool]]:
    out = {}
    for line in stdout.splitlines():
        m = _CHECK_LINE.match(line.strip())
        if m:
            out[m.group(1)] = (float(m.group(2)), m.group(3) == "pass")
    return out


def read_summary(path: str) -> Dict[str, float]:
    """The [summary] section of a pattern document, read as plain text."""
    summary, inside = {}, False
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("["):
                if inside:
                    break
                inside = line == "[summary]"
            elif inside and "=" in line:
                key, val = (part.strip() for part in line.split("=", 1))
                summary[key] = float(val)
    return summary


def check_verify(rc: int, stdout: str, doc: str, floor: float) -> List[str]:
    """Residuals within tolerance, status consistent with the exit code, and
    re-verification not worse than twice the generation summary.  floor is
    the unit roundoff of the document's precision."""
    checks = parse_verify(stdout)
    if not checks:
        return [f"verify printed no checks: {stdout!r}"]
    problems = []
    all_pass = all(ok for _, ok in checks.values())
    if (rc == 0) != all_pass:
        problems.append(f"verify exit {rc} disagrees with its report")
    for name, (res, ok) in checks.items():
        within = not math.isnan(res) and res <= TOLERANCES[name]
        if within != ok:
            problems.append(f"{name} {res:.3e} reported {'pass' if ok else 'FAIL'}")
    if rc == 0:
        summary = read_summary(doc)
        for key, check in SUMMARY_TO_CHECK.items():
            if key in summary and check in checks:
                stored, redone = summary[key], checks[check][0]
                if redone > 2 * max(stored, floor):
                    problems.append(f"re-verified {check} {redone:.3e} exceeds "
                                    f"twice the generation summary {stored:.3e}")
    return problems


def check_render(path: str, seen: Dict[str, str]) -> List[str]:
    """Well-formed SVG, byte-identical to earlier renders of the same path."""
    if not os.path.isfile(path):
        return [f"render did not write {path}"]
    with open(path, "rb") as fh:
        data = fh.read()
    problems = []
    if not (data.startswith(b"<?xml") and data.endswith(b"</svg>\n")):
        problems.append(f"{path} is not a complete SVG document")
    digest = hashlib.sha256(data).hexdigest()
    if seen.setdefault(path, digest) != digest:
        problems.append(f"{path} differs from an earlier render of the same input")
    return problems


def check_analyze(argv: List[str], stdout: str) -> List[str]:
    try:
        return _check_analyze(argv, stdout.strip().splitlines())
    except (IndexError, ValueError) as exc:
        return [f"unreadable analyze output for {argv}: {exc!r}"]


def _check_analyze(argv: List[str], lines: List[str]) -> List[str]:
    what = argv[1]
    if what == "p0":
        dev = float(lines[-1].split(":")[1])
        return [] if dev <= P0_TOLERANCE else [f"p0 routes disagree by {dev:.3e}"]
    if what == "riccati":
        values = [float(ln.split()[1]) for ln in lines if not ln.startswith("#")]
        if len(values) != int(arg(argv, "--n")) + 1 or min(values) <= 0:
            return [f"riccati separatrix not positive through n: {argv}"]
        return []
    m = re.search(r"shoot bracket: \[(\S+), (\S+)\] width=\S+ target=(\S+)$", lines[-1])
    if m is None:
        return [f"painleve printed no shoot bracket: {argv}"]
    lo, hi, target = (float(g) for g in m.groups())
    return [] if lo <= target <= hi else [f"shoot bracket misses {target}"]
