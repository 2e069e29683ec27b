"""What a fresh interpreter imports: mpmath only at the first extended number.

Each case runs in a new interpreter under -X dev -W error, with the hexcircle
under test first on its path.
"""
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hexcircle

SRC = str(Path(hexcircle.__file__).resolve().parent.parent)

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


def fresh(code, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code, *args],
                         env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0 and not out.stderr, out.stderr
    return json.loads(out.stdout)


def run_commands(tmp_path, commands):
    """(exit codes, whether mpmath was executed) of commands in a fresh interpreter."""
    return fresh(RUN, json.dumps(commands), str(tmp_path), cwd=str(tmp_path))


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


@pytest.mark.parametrize("commands", [
    pattern_commands("--c", "1.5", "--n", "12"),
    pattern_commands("--c", "1.5", "--alpha", "1/4pi,1/4pi,1/2pi", "--n", "12", "--mode", "sg"),
    [["analyze", "riccati", "--c", "1.5", "--n", "40"]],
    [["analyze", "painleve", "--c", "1.5", "--alpha", "1/3pi", "--n", "20"]],
], ids=["hex", "sg", "riccati", "painleve"])
def test_double_commands_never_execute_mpmath(tmp_path, commands):
    assert run_commands(tmp_path, commands) == [[0] * len(commands), False]


@pytest.mark.parametrize("commands", [
    [["generate", "--c", "1.5", "--n", "4", "--precision", "ext", "--out", "pat.txt"]],
    [["analyze", "p0", "--c", "1.5"]],
    [["analyze", "painleve", "--c", "1.5", "--n", "20", "--shoot", "10"]],
], ids=["ext generate", "p0", "shoot"])
def test_mpmath_loads_at_the_first_extended_number(tmp_path, commands):
    assert run_commands(tmp_path, commands) == [[0], True]
