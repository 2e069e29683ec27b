#!/usr/bin/env python3
"""Benchmark of the hexcircle command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload hex-ext --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``hex-ext``, ``radius-ext``, ``double-sweep``;
``--smoke`` runs a workload's smallest version instead.  Every call goes
through ``hexcircle.cli.main`` with the argv a user would type, in this one
single-threaded process, against the sources under ``src/``.  Before the
timed section the benchmark runs one fresh-interpreter import (writing the
bytecode caches) and one untimed warm-up pass of the workload's smallest
version, which fills mpmath's constant caches at the workload's precisions.
It then repeats passes over the workload for about ``--seconds``: another
pass starts only if half of it, judged by the previous one, fits in the
time.  The seed permutes the item order of each pass.  Before each untraced
pass it times a few fresh-interpreter imports of ``hexcircle.cli``.
Program-level memo caches are cleared before every call, so each call pays
what a fresh ``hexcircle`` process pays.  Every output is checked
(checks.py).

Every time in the end-to-end metrics is scaled to a nominal host speed: the
host's speed is sampled while the calls run, and each call's time is
divided by it (hostspeed.py).  The times as measured are printed as
comments beside the result.

End-to-end metrics (``--trace 0``):

- ``setup_s``: median seconds to import ``hexcircle.cli`` in a fresh
  interpreter;
- ``wall_s``: median over passes of the summed seconds of the pass's calls;
- ``generate_s``, ``verify_s``, ``render_s``, ``analyze_s``: median over
  passes of the pass's mean seconds per successful call of that kind (a mean
  within the pass, because the calls of one kind differ in size; the count
  of calls is printed);
- ``ok_share``: calls that exit 0 over calls attempted;
- ``residual_digits``: -log10 of the worst crossratio, constraint, laxzc,
  kite or radius_eq residual that any verify call printed;
- ``peak_rss_mb``: peak resident memory of this process.

A call that exits non-zero counts as failed: it is a missing sample in the
timing medians, never a fast one.  When a command kind has no successful
call in a run (the workload does not use it, or every call of it failed),
its per-call metric reports the median pass time ``wall_s`` instead.

``--trace 1`` alternates untraced and traced passes and prints per-layer
metrics from the traced ones (tracer.py), the tracing overhead (traced minus
untraced median pass time, as measured) and, per command kind, the spans
with the largest self time.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  A run whose outputs fail a check prints
``"correct": false`` and exits 1.

Nothing here pins CPUs, changes the governor or drops caches.  Traced passes
are not host-speed sampled, so their per-layer times are as measured.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
from workloads import EXPECTED_SPANS, WORKLOADS  # noqa: E402

KINDS = ("generate", "verify", "render", "analyze")
# the import is timed first, in a fresh interpreter; the host speed is
# sampled in the same interpreter right after it
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import hexcircle.cli; "
                  "t = time.perf_counter() - t; import hostspeed; "
                  "print(t, hostspeed.speed_now())")
SETUP_REPS_PER_PASS = 4


@dataclass
class Call:
    kind: str
    argv: List[str]
    rc: int
    start: float
    end: float
    seconds: float           # end - start, less the host-speed sampling in it
    stdout: str
    error: str
    scaled: float = 0.0      # seconds at the nominal host speed (hostspeed.py)


@dataclass
class Pass:
    wall: float              # summed scaled call seconds
    raw_wall: float          # summed call seconds
    calls: List[Call] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    worst_residual: float = 0.0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="time the smallest version of the workload")
    return ap.parse_args(argv)


def load_program():
    if not (SRC / "hexcircle" / "cli.py").is_file():
        raise SystemExit(f"error: no hexcircle sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hexcircle.cli
    if Path(hexcircle.cli.__file__).resolve().parent != SRC / "hexcircle":
        raise SystemExit(f"error: imported hexcircle from {hexcircle.cli.__file__}")
    return hexcircle.cli


def environment(seed: int) -> Dict[str, str]:
    import mpmath
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "hexcircle").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": str(os.cpu_count()),
        "seed": str(seed),
    }


def import_seconds() -> float:
    """Seconds to import hexcircle.cli in a fresh interpreter, scaled by the
    host speed sampled in that interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True, cwd=str(ROOT))
    seconds, speed = map(float, out.stdout.split())
    return seconds / speed


def program_caches(package: str = "hexcircle") -> list:
    return [obj for name, mod in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
            for obj in vars(mod).values() if hasattr(obj, "cache_clear")]


class Runner:
    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = str(work)
        self.caches = program_caches()
        self.svgs: Dict[str, str] = {}
        self.tracer: Optional[tracer.Tracer] = None
        self.sampler = hostspeed.Sampler()

    def call(self, kind: str, argv: List[str]) -> Call:
        for cache in self.caches:
            cache.cache_clear()
        if self.tracer is not None:
            self.tracer.kind = kind
        out, err = io.StringIO(), io.StringIO()
        escaped: Optional[Exception] = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:     # a traceback a user would see: exit 1
            rc, escaped = 1, exc
        t1 = time.perf_counter()
        seconds = t1 - t0 - self.sampler.sampled_within(t0, t1)
        error = ""
        if escaped is not None:
            error = f"{type(escaped).__name__}: {escaped}"
        elif rc:
            failed = [ln.split()[0] for ln in out.getvalue().splitlines()
                      if ln.endswith("FAIL")]
            error = (err.getvalue().strip().splitlines()
                     or ["FAIL: " + ", ".join(failed)])[-1]
        return Call(kind, argv, rc, t0, t1, seconds, out.getvalue(), error)

    def run_pass(self, items, sampled: bool = True) -> Pass:
        """Run the items in order.  A sampled pass scales each call's seconds
        by the host speed around it; an unsampled one (traced) does not."""
        gc.collect()
        calls = []
        with self.sampler if sampled else contextlib.nullcontext():
            for item in items:
                for kind, argv in item:
                    calls.append(self.call(kind, [a.replace("{work}", self.work)
                                                  for a in argv]))
        for c in calls:
            c.scaled = (c.seconds / self.sampler.speed(c.start, c.end)
                        if sampled else c.seconds)
        result = Pass(wall=sum(c.scaled for c in calls),
                      raw_wall=sum(c.seconds for c in calls), calls=calls)
        self.check(result, items)
        return result

    def check(self, result: Pass, items) -> None:
        """Output checks of one pass; residual levels of its verify calls."""
        calls = iter(result.calls)
        for item in items:
            argv0 = item[0][1]
            floor = (10.0 ** (1 - int(checks.arg(argv0, "--dps", "40")))
                     if checks.arg(argv0, "--precision") == "ext"
                     else 2.220446049250313e-16)
            for _ in item:
                c = next(calls)
                if c.kind == "generate" and c.rc == 0:
                    result.problems += checks.check_generate(c.argv, c.stdout)
                elif c.kind == "verify" and c.rc in (0, 3):
                    result.problems += checks.check_verify(c.rc, c.stdout, c.argv[1], floor)
                    for name, (res, _) in checks.parse_verify(c.stdout).items():
                        if name in checks.RESIDUAL_CHECKS:
                            result.worst_residual = max(result.worst_residual, res)
                elif c.kind == "render" and c.rc == 0:
                    result.problems += checks.check_render(checks.arg(c.argv, "--out"),
                                                           self.svgs)
                elif c.kind == "analyze" and c.rc == 0:
                    result.problems += checks.check_analyze(c.argv, c.stdout)
                c.stdout = ""    # keep memory flat however many passes run


def ordered(items, rng: random.Random):
    items = list(items)
    rng.shuffle(items)
    return items


def per_call(p: Pass, kind: str) -> Optional[float]:
    """Mean scaled seconds per successful call of this kind in one pass."""
    ok = [c.scaled for c in p.calls if c.kind == kind and c.rc == 0]
    return sum(ok) / len(ok) if ok else None


def end_to_end(passes: List[Pass], setup: List[float]) -> Dict[str, dict]:
    calls = [c for p in passes for c in p.calls]
    wall = statistics.median(p.wall for p in passes)
    metrics = {"setup_s": (statistics.median(setup), "s"), "wall_s": (wall, "s")}
    for kind in KINDS:
        ok = [t for t in (per_call(p, kind) for p in passes) if t is not None]
        metrics[f"{kind}_s"] = (statistics.median(ok) if ok else wall, "s")
    failed = sum(1 for c in calls if c.rc != 0)
    metrics["ok_share"] = ((len(calls) - failed) / len(calls), "share")
    worst = max(p.worst_residual for p in passes)
    metrics["residual_digits"] = (-tracer.log10_floor(worst), "digits")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def report_calls(passes: List[Pass], work: str) -> None:
    print("# pass walls, scaled: " + " ".join(f"{p.wall:.3f}" for p in passes))
    print("# pass walls, as measured: " + " ".join(f"{p.raw_wall:.3f}" for p in passes))
    calls = [c for p in passes for c in p.calls]
    for kind in KINDS:
        mine = [c for c in calls if c.kind == kind]
        ok = sum(1 for c in mine if c.rc == 0)
        note = "" if ok else "  (no successful call: reports wall_s)"
        print(f"# {kind:8s} calls={len(mine)} ok={ok}{note}")
    failing = Counter((" ".join(c.argv).replace(work, "{work}"), c.rc, c.error)
                      for c in calls if c.rc != 0)
    for (argv, rc, error), n in sorted(failing.items()):
        print(f"# failed x{n} exit {rc}: hexcircle {argv}  [{error}]")


def report_shares(traced: List[Pass], tracers: List[tracer.Tracer]) -> None:
    """Where each command kind spends its traced time: the largest span self
    times as shares of the kind's traced call time."""
    for kind in KINDS:
        total = sum(c.seconds for p in traced for c in p.calls if c.kind == kind)
        if not total:
            continue
        spans = Counter()
        for tr in tracers:
            spans.update(tr.self_by_kind[kind])
        top = ", ".join(f"{name} {own / total:.1%}"
                        for name, own in spans.most_common(4))
        print(f"# {kind} time ({total:.3f} s traced): {top}")


def layer_metrics(tracers: List[tracer.Tracer], untraced: List[Pass],
                  traced: List[Pass]) -> Dict[str, dict]:
    per_pass = [tr.metrics() for tr in tracers]
    metrics = {key: {"value": statistics.median(m[key] for m in per_pass),
                     "unit": tracer.unit_of(key)} for key in per_pass[0]}
    overhead = (statistics.median(p.raw_wall for p in traced)
                - statistics.median(p.raw_wall for p in untraced))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM interrupts like Ctrl-C, which no call catches, so the scratch
    # directory is still removed
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    cli = load_program()
    env = environment(args.seed)
    for key, value in env.items():
        print(f"# {key}: {value}")
    setup: List[float] = []
    if not args.trace:
        import_seconds()                     # writes the bytecode caches
    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(cli, work)
        make = WORKLOADS[args.workload]
        items = make(args.smoke)
        runner.run_pass(make(True))          # warm-up, untimed and unchecked
        runner.svgs.clear()
        rng = random.Random(args.seed)
        untraced: List[Pass] = []
        traced: List[Pass] = []
        tracers: List[tracer.Tracer] = []
        # another pass starts only if at least half of it fits before the
        # deadline, judged by the length of the previous one
        deadline = time.perf_counter() + args.seconds
        last = 0.0
        while (time.perf_counter() + last / 2 < deadline or not untraced
               or (args.trace and not traced)):
            started = time.perf_counter()
            if args.trace and len(traced) < len(untraced):
                tr = runner.tracer = tracer.Tracer()
                tr.install()
                try:
                    traced.append(runner.run_pass(ordered(items, rng), sampled=False))
                finally:
                    tr.uninstall()
                    runner.tracer = None
                missing = tr.missing(EXPECTED_SPANS[args.workload])
                if missing:
                    raise RuntimeError(f"traced pass of {args.workload} reached "
                                       f"no call of {missing}")
                tracers.append(tr)
            else:
                if not args.trace:
                    setup += [import_seconds() for _ in range(SETUP_REPS_PER_PASS)]
                untraced.append(runner.run_pass(ordered(items, rng)))
            last = time.perf_counter() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()

    passes = untraced + traced
    problems = sorted({p for ps in passes for p in ps.problems})
    for problem in problems:
        print(f"# INCORRECT: {problem}")
    print(f"# passes untraced={len(untraced)} traced={len(traced)}")
    report_calls(passes, str(work))
    if args.trace:
        report_shares(traced, tracers)
        metrics = layer_metrics(tracers, untraced, traced)
    else:
        metrics = end_to_end(untraced, setup)
    for key, m in metrics.items():
        print(f"# {key} = {m['value']:.6g} {m['unit']}")
    calls = [c for p in passes for c in p.calls]
    print(json.dumps({
        "correct": not problems,
        "attempted": len(calls),
        "failed": sum(1 for c in calls if c.rc != 0),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
