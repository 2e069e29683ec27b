"""What a fresh interpreter imports: mpmath only at the first extended number,
dataclasses, inspect and ast never.

Each import case runs in a new interpreter under -X dev -W error, with the
hexcircle under test first on its path.  The record types are plain classes
and named tuples, so their contract (what @dataclass gave them) is pinned
here too.
"""
import json
import math
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hexcircle
from hexcircle import (Boundary, PatternDocument, PatternParams, PositivityViolation, RadiusField,
                       VerifyReport, ZField)
from hexcircle.geometry import ImmersionReport
from hexcircle.lattice import FillEntry
from hexcircle.numerics import Backend
from hexcircle.painleve import PainleveTrajectory, SectorTag
from hexcircle.pattern_core import FieldSnapshot
from hexcircle.riccati import Trajectory

SRC = str(Path(hexcircle.__file__).resolve().parent.parent)

# what building classes with @dataclass imports
HEAVY = ("dataclasses", "inspect", "ast")
# runs the commands of argv[1] (a JSON list) through cli.main in the
# directory argv[2]; prints their exit codes and whether mpmath was executed
RUN = """
import contextlib, io, json, sys
from hexcircle import cli
rcs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rcs.append(cli.main(argv))
print(json.dumps([rcs, "mpmath.libmp" in sys.modules]))
"""
# runs them too, and prints those of HEAVY left in sys.modules
RUN_HEAVY = RUN.replace('print(json.dumps([rcs, "mpmath.libmp" in sys.modules]))',
                        f"print(json.dumps([rcs, [m for m in {HEAVY!r} if m in sys.modules]]))")


def fresh(code, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code, *args],
                         env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0 and not out.stderr, out.stderr
    return json.loads(out.stdout)


def run_commands(tmp_path, commands, code=RUN):
    """(exit codes, whether mpmath was executed) of commands in a fresh interpreter."""
    return fresh(code, json.dumps(commands), str(tmp_path), cwd=str(tmp_path))


def pattern_commands(*generate_args):
    return [["generate", *generate_args, "--out", "pat.txt"], ["verify", "pat.txt"],
            ["render", "pat.txt", "--out", "pat.svg"]]


def test_importing_the_cli_leaves_mpmath_unexecuted():
    assert fresh("import json, sys, hexcircle.cli; "
                 "print(json.dumps('mpmath.libmp' in sys.modules))") is False


def test_importing_the_cli_imports_every_module_of_the_package():
    # the benchmark clears the memo caches and the tracer wraps functions of
    # the modules that this import leaves in sys.modules
    names = sorted(f"hexcircle.{m.name}" for m in pkgutil.iter_modules(hexcircle.__path__))
    assert "hexcircle.painleve" in names
    loaded = fresh("import json, sys, hexcircle.cli; print(json.dumps(sorted("
                   "m for m in sys.modules if m.startswith('hexcircle.'))))")
    assert loaded == names


DOUBLE_COMMANDS = pytest.mark.parametrize("commands", [
    pattern_commands("--c", "1.5", "--n", "12"),
    pattern_commands("--c", "1.5", "--alpha", "1/4pi,1/4pi,1/2pi", "--n", "12", "--mode", "sg"),
    [["analyze", "riccati", "--c", "1.5", "--n", "40"]],
    [["analyze", "painleve", "--c", "1.5", "--alpha", "1/3pi", "--n", "20"]],
], ids=["hex", "sg", "riccati", "painleve"])


@DOUBLE_COMMANDS
def test_double_commands_never_execute_mpmath(tmp_path, commands):
    assert run_commands(tmp_path, commands) == [[0] * len(commands), False]


def test_importing_the_cli_leaves_dataclasses_inspect_and_ast_out():
    assert fresh(f"import json, sys, hexcircle.cli; "
                 f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))") == []


@DOUBLE_COMMANDS
def test_double_commands_never_import_dataclasses_inspect_or_ast(tmp_path, commands):
    assert run_commands(tmp_path, commands, RUN_HEAVY) == [[0] * len(commands), []]


@pytest.mark.parametrize("commands", [
    [["generate", "--c", "1.5", "--n", "4", "--precision", "ext", "--out", "pat.txt"]],
    [["analyze", "p0", "--c", "1.5"]],
    [["analyze", "painleve", "--c", "1.5", "--n", "20", "--shoot", "10"]],
], ids=["ext generate", "p0", "shoot"])
def test_mpmath_loads_at_the_first_extended_number(tmp_path, commands):
    assert run_commands(tmp_path, commands) == [[0], True]


# -- the record types: what @dataclass gave them ----------------------------

PARAMS = PatternParams((1.0, 1.2, math.pi - 2.2), 1.5)
# (class, positional arguments, the same as keywords, another valid value of
# the last argument) for every record type
RECORDS = [
    (Backend, ("ext", 60), {"mode": "ext", "dps": 60}, 61),
    (PatternParams, ((1.0, 1.2, math.pi - 2.2), 1.5, "ext", 50, None),
     {"alphas": (1.0, 1.2, math.pi - 2.2), "c": 1.5, "precision": "ext", "dps": 50,
      "alpha_pi_fracs": None}, (Fraction(1, 3),) * 3),
    (Boundary, (1.5, 1.0, None), {"c": 1.5, "alpha": 1.0, "alpha_pi_frac": None},
     Fraction(1, 3)),
    (FillEntry, ((1, 0, -1), "border"), {"site": (1, 0, -1), "tag": "border"}, "seed"),
    (ZField, (PARAMS, {(0, 0, 0): 0j}, 1, {"k": 1}),
     {"params": PARAMS, "values": {(0, 0, 0): 0j}, "generation": 1, "meta": {"k": 1}}, {}),
    (RadiusField, (PARAMS, {(0, 0, 0): 1.0}, 2),
     {"params": PARAMS, "values": {(0, 0, 0): 1.0}, "generation": 2}, 3),
    (PositivityViolation, ((1, 0, -1), -0.5, "border", {"a": 1}),
     {"site": (1, 0, -1), "value": -0.5, "tag": "border", "upstream": {"a": 1}}, {}),
    (PatternDocument, (PARAMS, 4, "sg", "radius", {(0, 0, 0): 0j}, {(0, 0, 0): 1.0},
                       {"crossratio": 0.0}, "t"),
     {"params": PARAMS, "n_max": 4, "mode": "sg", "route": "radius",
      "vertices": {(0, 0, 0): 0j}, "radii": {(0, 0, 0): 1.0}, "summary": {"crossratio": 0.0},
      "tool": "t"}, "u"),
    (ImmersionReport, ([((0, 0, 0), "flip")], 3, 4),
     {"failures": [((0, 0, 0), "flip")], "checked_triangles": 3, "checked_quads": 4}, 5),
    (VerifyReport, ({"kite": 0.0}, {"kite": True}, ["note"]),
     {"residuals": {"kite": 0.0}, "passed": {"kite": True}, "notes": ["note"]}, []),
    (PainleveTrajectory, ([1j], [SectorTag.A_I], 0, SectorTag.A_II, 0.5, 64),
     {"points": [1j], "sectors": [SectorTag.A_I], "exit_index": 0,
      "exit_sector": SectorTag.A_II, "max_unitarity_drift": 0.5, "bits": 64}, None),
    (Trajectory, ([1.0, 2.0], 1), {"values": [1.0, 2.0], "first_nonpositive": 1}, None),
]
FROZEN = (Backend, PatternParams, Boundary, FillEntry)


@pytest.mark.parametrize("cls, args, kwargs, other", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_a_record_is_built_by_position_or_keyword(cls, args, kwargs, other):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword and not by_position != by_keyword
    assert {name: getattr(by_keyword, name) for name in kwargs} == kwargs
    assert repr(by_keyword) == (f"{cls.__name__}("
                                + ", ".join(f"{k}={v!r}" for k, v in kwargs.items()) + ")")
    changed = cls(*args[:-1], other)
    assert changed != by_position and by_position.__eq__(object()) is NotImplemented
    if cls in FROZEN:
        assert hash(by_position) == hash(by_keyword) == hash(tuple(args))
        for name in (*kwargs, "other"):
            with pytest.raises(AttributeError):
                setattr(by_position, name, 1)
        assert by_position == cls(*args)
    else:
        with pytest.raises(TypeError):
            hash(by_position)
        by_position.extra = 1


def test_records_take_their_defaults():
    assert Backend() == Backend("double", 40)
    assert PatternParams((1.0, 1.2, math.pi - 2.2), 1.5) == PatternParams(
        (1.0, 1.2, math.pi - 2.2), 1.5, "double", 40, None)
    assert Boundary(1.5, 1.0).alpha_pi_frac is None
    assert (Trajectory([1.0]).first_nonpositive, RadiusField(PARAMS, {}, 1).generation) == (
        None, 1)
    doc = PatternDocument(PARAMS, 3)
    assert (doc.mode, doc.route, doc.tool) == ("hex", "crossratio", hexcircle.document.TOOL_VERSION)
    report = PainleveTrajectory([], [])
    assert (report.exit_index, report.exit_sector, report.max_unitarity_drift,
            report.bits) == (None, None, 0.0, None)
    assert (ImmersionReport().checked_triangles, ImmersionReport().checked_quads) == (0, 0)


def test_records_never_share_a_default_container():
    docs = PatternDocument(PARAMS, 3), PatternDocument(PARAMS, 3)
    reports = VerifyReport(), VerifyReport()
    immersions = ImmersionReport(), ImmersionReport()
    fields = ZField(PARAMS, {}, 1), ZField(PARAMS, {}, 1)
    for a, b, names in ((*docs, ("vertices", "radii", "summary")),
                        (*reports, ("residuals", "passed", "notes")),
                        (*immersions, ("failures",)), (*fields, ("meta",))):
        assert a == b
        for name in names:
            assert getattr(a, name) is not getattr(b, name)
            assert getattr(a, name) == type(getattr(a, name))()


@pytest.mark.parametrize("make, message", [
    (lambda: Backend("quad"), "unknown precision mode 'quad'"),
    (lambda: Backend("ext", 0), "extended precision needs 1 <= dps <= 1000, not 0"),
    (lambda: Backend("double", 1001), "double precision needs 1 <= dps <= 1000, not 1001"),
    (lambda: PatternParams((1.0, 1.2, math.inf), 1.5), "intersection angles must be finite"),
    (lambda: PatternParams((0.0, 1.2, math.pi - 1.2), 1.5),
     "intersection angles must be positive"),
    (lambda: PatternParams((1.0, 1.2, 1.0), 1.5), "intersection angles must sum to pi"),
    (lambda: PatternParams(PARAMS.alphas, 2.5), "exponent must satisfy 0 <= c <= 2"),
    (lambda: PatternParams(PARAMS.alphas, 1.5, alpha_pi_fracs=(Fraction(1, 2),) * 3),
     "need three pi-fractions of the angles summing to 1"),
    (lambda: PatternParams(PARAMS.alphas, 1.5, "quad"), "unknown precision mode 'quad'"),
    (lambda: PatternParams(PARAMS.alphas, 1.5, "ext", 0),
     "extended precision needs 1 <= dps <= 1000, not 0"),
    (lambda: Boundary(2.5, 1.0), "the exponent c must satisfy 0 < c <= 2, not 2.5"),
    (lambda: Boundary(1.5, 4.0), "the angle alpha must satisfy 0 < alpha < pi, not 4.0"),
])
def test_records_validate_with_the_same_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_positivity_violation_and_field_snapshot_keep_their_behaviour():
    exc = PositivityViolation((1, 0, -1), -0.5, "border", {"a": 1})
    assert isinstance(exc, ArithmeticError) and exc.args == ((1, 0, -1), -0.5, "border", {"a": 1})
    assert str(exc) == "nonpositive radius -0.5 at (1, 0, -1) (border; upstream {'a': 1})"
    field = ZField(PARAMS, {(0, 0, 0): 0j}, 1, {"k": 1})
    snap = FieldSnapshot(field, True)
    assert (snap.params, dict(snap.values), snap.generation, snap.meta) == (
        PARAMS, field.values, 1, field.meta)
    assert snap.meta is not field.meta and snap.lax and snap.memo == {}


def test_backend_methods_stay_patchable_on_the_class():
    # the benchmark tracer counts them by replacing them in Backend.__dict__
    for name in ("real", "pi_times", "angle", "exp_i", "cos", "sin", "sqrt", "atan2",
                 "phase", "abs", "eps", "context"):
        original = Backend.__dict__[name]
        setattr(Backend, name, lambda self, *args: name)
        try:
            assert getattr(Backend(), name)(1.0) == name
        finally:
            setattr(Backend, name, original)
    assert Backend().real(2) == 2.0
