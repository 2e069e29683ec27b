import math
import re
from decimal import Decimal

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import dps_to_prec, finf, fninf, fnan, from_man_exp, fzero

from hexcircle import (cli, document, numerics, painleve, pattern_core, radius_system, riccati,
                       verify)
from hexcircle.document import DocumentError, load_document, save_document
from hexcircle.pattern_core import generate_z
from hexcircle.svg import render_svg
from oracle import isotropic_params
from test_geometry import reference_quad_sweep
from test_numerics import _count_arithmetic


def run_cli(argv):
    return cli.main(argv)


def test_document_roundtrip_double(tmp_path):
    path = str(tmp_path / "pat.txt")
    assert run_cli(["generate", "--c", "1.5", "--alpha", "iso", "--n", "5",
                    "--mode", "hex", "--out", path]) == 0
    doc = load_document(path)
    path2 = str(tmp_path / "again.txt")
    save_document(doc, path2)
    doc2 = load_document(path2)
    assert doc.vertices == doc2.vertices
    assert doc.radii == doc2.radii
    assert doc.params == doc2.params


def _raw(x):
    return getattr(x, "_mpc_", None) or getattr(x, "_mpf_", x)


def test_document_roundtrip_extended(tmp_path):
    # dps + 5 written digits give back every number made at dps, bit for
    # bit, and a document read back is saved to the same bytes.  A z2 or
    # log layout is in doubles, which the first save writes by their repr.
    for mode, c in (("hex", 1.5), ("sg", 1.5), ("z2", 2.0), ("log", 2.0)):
        for dps in (40, 80):
            route = "crossratio" if mode in ("hex", "sg") else "radius"
            made = cli._build_document(isotropic_params(c, precision="ext", dps=dps),
                                       5, mode, route)
            paths = [str(tmp_path / f"{mode}-{dps}-{i}.txt") for i in range(3)]
            save_document(made, paths[0])
            doc = load_document(paths[0])
            save_document(doc, paths[1])
            again = load_document(paths[1])
            save_document(again, paths[2])
            for old, new in ((made, doc), (doc, again)):
                for part in ("vertices", "radii"):
                    stored, read = getattr(old, part), getattr(new, part)
                    assert stored.keys() == read.keys() and stored, (mode, dps, part)
                    for site, value in stored.items():
                        if not isinstance(value, complex):
                            assert _raw(read[site]) == _raw(value), (mode, dps, site)
            assert all(type(z) is mp.mpc for z in doc.vertices.values())
            with open(paths[1], "rb") as one, open(paths[2], "rb") as two:
                assert one.read() == two.read(), (mode, dps)


def test_save_writes_a_number_past_the_double_range_as_itself(tmp_path):
    # such a number is finite: only inf is a pole
    pat, edited, again = tmp_path / "z2.txt", tmp_path / "edited.txt", tmp_path / "again.txt"
    assert run_cli(["generate", "--c", "2", "--mode", "z2", "--n", "4",
                    "--precision", "ext", "--dps", "80", "--out", str(pat)]) == 0
    tokens = {(2, 0, -2): "1.5e400", (2, 2, -4): "-3e500", (4, 0, -4): "1e-400"}
    src = pat
    for site, token in tokens.items():
        _with_radius(src, edited, site, token)
        src = edited
    doc = load_document(str(edited))
    with mp.workdps(80):
        assert doc.radii[(2, 0, -2)] == mp.mpf("1.5e400")
    save_document(doc, str(again))
    written = {tuple(map(int, ln.split()[:3])): ln.split()[3]
               for ln in again.read_text().split("[radii]")[1].splitlines()[1:-1]}
    with mp.workdps(85):
        assert all(written[site] == mp.nstr(mp.mpf(doc.radii[site]), 85) for site in tokens)
        assert [mp.nstr(mp.mpf(written[site]), 17) for site in tokens] == [
            "1.5e+400", "-3.0e+500", "1.0e-400"]
    again_doc = load_document(str(again))
    assert all(again_doc.radii[site]._mpf_ == doc.radii[site]._mpf_ for site in tokens)


def test_reverify_reproduces_summary(tmp_path):
    path = str(tmp_path / "pat.txt")
    run_cli(["generate", "--c", "1.5", "--alpha", "iso", "--n", "6",
             "--mode", "hex", "--out", path])
    doc = load_document(path)
    report = verify.run_checks(doc)
    for key in ("crossratio", "constraint"):
        stored = doc.summary[key]
        redone = report.residuals[key if key != "constraint" else "constraint"]
        assert redone <= 2 * max(stored, 1e-15)


@pytest.mark.parametrize("args", [
    ["--c", "1.5", "--alpha", "iso", "--n", "10", "--precision", "ext", "--dps", "40"],
    ["--c", "0.7", "--alpha", "1/6pi,1/3pi,1/2pi", "--n", "12", "--precision", "ext",
     "--dps", "40"],
    ["--c", "1.9", "--alpha", "1/4pi,1/4pi,1/2pi", "--n", "16", "--precision", "ext",
     "--dps", "60"],
    ["--c", "1.5", "--alpha", "iso", "--n", "8", "--precision", "ext", "--dps", "40",
     "--mode", "sg"],
    ["--c", "1.9", "--alpha", "1/4pi,1/4pi,1/2pi", "--n", "12", "--mode", "sg"],
])
def test_extended_verify_reproduces_the_summary_bit_for_bit(tmp_path, args):
    # the document is read at the dps it was made at, so verify checks the
    # very numbers generate checked; an sg summary describes the l = 0
    # plane the document stores
    path = str(tmp_path / "pat.txt")
    assert run_cli(["generate", *args, "--out", path]) == 0
    doc = load_document(path)
    report = verify.run_checks(doc)
    pairs = [("crossratio", "crossratio"), ("laxzc", "zerocurvature")]
    if doc.mode == "hex":
        pairs.append(("constraint", "constraint"))
    assert set(doc.summary) == {key for _, key in pairs}
    for check, key in pairs:
        assert report.residuals[check] == doc.summary[key], (check, key)


def _check_values(doc, zf, reverse=False):
    """Every applicable check of doc run on the field zf, in order or
    reversed: its residual, or the exception it raised, as text."""
    rf = doc.radius_field() if doc.radii else None
    out = {}
    for name in verify.applicable_checks(doc)[::-1 if reverse else 1]:
        try:
            out[name] = repr(verify.CHECKS[name].sweep(doc, zf, rf)[0])
        except (ArithmeticError, KeyError) as exc:
            out[name] = repr(exc)
    return out


@pytest.fixture(scope="module")
def snapshot_documents(tmp_path_factory):
    """Documents of every mode in double and at dps 40 and 80, and three
    corrupted hex fields in double and at dps 40."""
    work = tmp_path_factory.mktemp("snapshot")
    docs = {}
    for mode, c in (("hex", "1.5"), ("sg", "1.5"), ("z2", "2"), ("log", "2")):
        for prec in (["--precision", "double"], ["--precision", "ext", "--dps", "40"],
                     ["--precision", "ext", "--dps", "80"]):
            path = str(work / f"{mode}-{prec[-1]}.txt")
            assert cli.main(["generate", "--c", c, "--n", "6", "--mode", mode, *prec,
                             "--out", path]) == 0
            docs[f"{mode}-{prec[-1]}"] = load_document(path)
    site, nb = (2, 1, -1), (1, 1, -1)
    for prec in ("double", "40"):
        for name, corrupt in (("nan", lambda v: v.update({site: v[site] * math.nan})),
                              ("zero-edge", lambda v: v.update({site: v[nb]})),
                              ("missing", lambda v: v.pop(site))):
            doc = load_document(str(work / f"hex-{prec}.txt"))
            corrupt(doc.vertices)
            docs[f"hex-{prec}-{name}"] = doc
    return docs


SNAPSHOT_CASES = [f"{mode}-{prec}" for mode in ("hex", "sg", "z2", "log")
                  for prec in ("double", "40", "80")]
SNAPSHOT_CASES += [f"hex-{prec}-{name}" for prec in ("double", "40")
                   for name in ("nan", "zero-edge", "missing")]


@pytest.mark.parametrize("case", SNAPSHOT_CASES)
def test_snapshot_and_plain_field_give_bit_identical_checks(snapshot_documents, case):
    doc = snapshot_documents[case]
    plain = _check_values(doc, doc.zfield())
    assert set(plain) == set(verify.applicable_checks(doc))
    for reverse in (False, True):
        for lax in (False, True):
            snap = pattern_core.FieldSnapshot(doc.zfield(), lax)
            assert _check_values(doc, snap, reverse) == plain, (reverse, lax)
    report = verify.run_checks(doc)
    assert list(report.residuals) == list(plain)  # in the order of the checks
    for name, value in plain.items():
        res = report.residuals[name]
        assert repr(res) == value or (res == math.inf and "Error" in value), name
    if case.endswith("zero-edge"):
        # crossratio skips the collapsed faces, laxzc fails on them
        assert math.isfinite(report.residuals["crossratio"])
        assert report.residuals["laxzc"] == math.inf
        assert "laxzc: degenerate edge in transport matrix" in report.notes
        assert not any(note.startswith("crossratio") for note in report.notes)
    elif case.endswith("missing"):
        assert report.notes == ["constraint: missing vertex (2, 1, -1)"]
    elif case.endswith("nan"):
        assert all(math.isnan(report.residuals[name])
                   for name in ("crossratio", "constraint", "laxzc", "kite"))
    else:
        assert report.ok


def test_one_field_read_and_one_face_pass_per_command(tmp_path, monkeypatch):
    path = str(tmp_path / "hex.txt")
    assert run_cli(["generate", "--c", "1.5", "--n", "10", "--precision", "ext",
                    "--out", path]) == 0
    doc = load_document(path)
    reads, passes = [], []
    read, faces = numerics.aligned_points, pattern_core._faces

    def counting_read(bk, values):
        if len(values) == len(doc.vertices):  # the field, not a constant
            reads.append(1)
        return read(bk, values)

    def counting_faces(stored):
        passes.append(1)
        return faces(stored)

    for mod in (numerics, pattern_core, radius_system, verify, cli):
        if getattr(mod, "aligned_points", None) is read:
            monkeypatch.setattr(mod, "aligned_points", counting_read)
    monkeypatch.setattr(pattern_core, "_faces", counting_faces)
    assert verify.run_checks(doc).ok
    assert (len(reads), len(passes)) == (1, 1)
    del reads[:], passes[:]
    built = cli._build_document(doc.params, doc.n_max, "hex", "crossratio")
    assert (len(reads), len(passes)) == (1, 1)
    assert built.summary == doc.summary


def test_snapshot_values_are_read_only():
    zf = generate_z(isotropic_params(1.5), 3)
    snap = pattern_core.FieldSnapshot(zf)
    with pytest.raises(TypeError):
        snap.values[(0, 0, 0)] = 1j
    with pytest.raises(TypeError):
        del snap.values[(0, 0, 0)]
    zf.values[(0, 0, 0)] = 1j  # the snapshot holds a copy of its own
    assert snap.values[(0, 0, 0)] == 0j


def test_cli_generate_verify_all_modes(tmp_path):
    for mode, c in (("hex", "1.5"), ("sg", "1.5"), ("z2", "2"), ("log", "2")):
        path = str(tmp_path / f"{mode}.txt")
        assert run_cli(["generate", "--c", c, "--alpha", "iso", "--n", "5",
                        "--mode", mode, "--out", path]) == 0
        assert run_cli(["verify", path]) == 0


def test_cli_bad_params_exit_2(tmp_path):
    path = str(tmp_path / "x.txt")
    assert run_cli(["generate", "--c", "3.0", "--alpha", "iso", "--n", "4",
                    "--out", path]) == 2
    assert run_cli(["generate", "--c", "2", "--alpha", "iso", "--n", "4",
                    "--route", "crossratio", "--out", path]) == 2
    assert run_cli(["generate", "--c", "1.0", "--alpha", "1,1,1", "--n", "4",
                    "--out", path]) == 2
    assert run_cli(["verify", str(tmp_path / "missing.txt")]) == 2


def test_cli_corrupted_document_fails_verification(tmp_path):
    path = str(tmp_path / "pat.txt")
    run_cli(["generate", "--c", "1.5", "--alpha", "iso", "--n", "5",
             "--mode", "hex", "--out", path])
    doc = load_document(path)
    site = (2, 1, -1)
    doc.vertices[site] = doc.vertices[site] + 1e-3
    bad_path = str(tmp_path / "bad.txt")
    save_document(doc, bad_path)
    assert run_cli(["verify", bad_path, "--checks", "crossratio"]) == 3


def test_cli_render_deterministic(tmp_path):
    pat = str(tmp_path / "pat.txt")
    run_cli(["generate", "--c", "1.5", "--alpha", "iso", "--n", "5",
             "--mode", "hex", "--out", pat])
    s1 = str(tmp_path / "a.svg")
    s2 = str(tmp_path / "b.svg")
    assert run_cli(["render", pat, "--out", s1]) == 0
    assert run_cli(["render", pat, "--out", s2]) == 0
    with open(s1, "rb") as fa, open(s2, "rb") as fb:
        assert fa.read() == fb.read()


def test_cli_render_extended_documents(tmp_path):
    for mode, c in (("hex", "1.5"), ("z2", "2")):
        pat = str(tmp_path / f"{mode}.txt")
        assert run_cli(["generate", "--c", c, "--alpha", "iso", "--n", "4",
                        "--mode", mode, "--precision", "ext", "--dps", "30",
                        "--out", pat]) == 0
        svgs = []
        for name in ("a", "b"):
            out = str(tmp_path / f"{mode}-{name}.svg")
            assert run_cli(["render", pat, "--out", out]) == 0
            with open(out, "rb") as fh:
                svgs.append(fh.read())
        assert svgs[0] == svgs[1] and b"<circle" in svgs[0]


def test_cli_nan_vertex_fails_every_sweep(tmp_path):
    path = str(tmp_path / "pat.txt")
    run_cli(["generate", "--c", "1.5", "--alpha", "iso", "--n", "6",
             "--mode", "hex", "--out", path])
    doc = load_document(path)
    doc.vertices[(2, 1, -1)] = complex(math.nan, math.nan)
    bad_path = str(tmp_path / "nan.txt")
    save_document(doc, bad_path)
    assert run_cli(["verify", bad_path, "--checks",
                    "crossratio,laxzc,kite,constraint"]) == 3
    report = verify.run_checks(load_document(bad_path),
                               ["crossratio", "laxzc", "kite", "constraint"])
    assert all(math.isnan(r) for r in report.residuals.values())
    assert not any(report.passed.values())


def test_cli_degenerate_edge_fails_check(tmp_path, capsys):
    path = str(tmp_path / "pat.txt")
    run_cli(["generate", "--c", "1.5", "--alpha", "iso", "--n", "6",
             "--mode", "hex", "--out", path])
    doc = load_document(path)
    doc.vertices[(2, 0, 0)] = doc.vertices[(1, 0, 0)]
    bad_path = str(tmp_path / "deg.txt")
    save_document(doc, bad_path)
    assert run_cli(["verify", bad_path]) == 3
    report = verify.run_checks(load_document(bad_path), ["laxzc"])
    assert report.residuals["laxzc"] == math.inf
    assert not report.passed["laxzc"]


def test_cli_collapsed_edge_fails_immersion_and_kite(tmp_path):
    path = str(tmp_path / "pat.txt")
    run_cli(["generate", "--c", "1.5", "--alpha", "iso", "--n", "6",
             "--mode", "hex", "--out", path])
    doc = load_document(path)
    doc.vertices[(2, 0, 0)] = doc.vertices[(1, 0, 0)]
    bad_path = str(tmp_path / "deg.txt")
    save_document(doc, bad_path)
    report = verify.run_checks(load_document(bad_path), ["immersion", "kite"])
    assert report.residuals["immersion"] >= 1
    assert report.residuals["kite"] == math.inf
    assert not report.passed["immersion"] and not report.passed["kite"]


def test_cli_render_modes_and_flags(tmp_path):
    pat = str(tmp_path / "log.txt")
    run_cli(["generate", "--c", "2", "--alpha", "iso", "--n", "5",
             "--mode", "log", "--out", pat])
    out = str(tmp_path / "log.svg")
    assert run_cli(["render", pat, "--out", out, "--show", "circles",
                    "--scale", "40"]) == 0
    with open(out) as fh:
        body = fh.read()
    assert "<circle" in body and "<polygon" not in body


def test_cli_analyze_runs(capsys):
    assert run_cli(["analyze", "p0", "--c", "1.5", "--alpha",
                    str(math.pi / 3)]) == 0
    out = capsys.readouterr().out
    assert "max deviation" in out
    assert run_cli(["analyze", "riccati", "--c", "1.5", "--alpha",
                    str(math.pi / 3), "--n", "20"]) == 0
    assert run_cli(["analyze", "painleve", "--c", "1.0", "--alpha",
                    str(math.pi / 3), "--n", "10"]) == 0


@pytest.mark.parametrize("analysis", [["p0"], ["riccati", "--n", "3"], ["painleve", "--n", "3"]])
def test_cli_every_analysis_checks_its_precision_flags(capsys, analysis):
    argv = ["analyze", *analysis, "--c", "1.5"]
    for dps in ("0", "99999"):
        assert run_cli([*argv, "--precision", "ext", "--dps", dps]) == 2
        assert capsys.readouterr() == (
            "", f"error: extended precision needs 1 <= dps <= {numerics.MAX_DPS}, not {dps}\n")
        assert run_cli([*argv, "--dps", dps]) == 2
        assert capsys.readouterr() == (
            "", f"error: double precision needs 1 <= dps <= {numerics.MAX_DPS}, not {dps}\n")
    # valid flags are taken; p0 prints what it prints without them, and
    # riccati the double's rows to 60 digits under a header that names the
    # run's width
    outs = []
    for flags in ([], ["--precision", "ext", "--dps", "60"]):
        assert run_cli([*argv, *flags]) == 0
        outs.append(capsys.readouterr().out.splitlines())
    if analysis[0] == "p0":
        assert outs[1] == outs[0]
    elif analysis[0] == "riccati":
        (head, cols, *double), (ext_head, ext_cols, *ext) = outs
        assert (head, ext_head) == ("# separatrix run, double", "# separatrix run, dps=60")
        assert ext_cols == cols and len(ext) == len(double) == 4
        for row, ext_row in zip(double, ext):
            (n, p), (ext_n, ext_p) = row.split(), ext_row.split()
            assert n == ext_n and len(ext_p.replace(".", "")) == 60
            assert abs(mp.mpf(ext_p) - mp.mpf(p)) <= 5e-13


def test_cli_analyze_p0_at_a_small_angle(capsys):
    assert run_cli(["analyze", "p0", "--c", "1.5", "--alpha", "0.1"]) == 0
    out = capsys.readouterr().out
    dev = float(re.search(r"max deviation\s*: (\S+)", out).group(1))
    assert dev <= 1e-13


@pytest.mark.parametrize("alpha", ["1e-9", "1e-16", "1e-40", "1e-300"])
def test_cli_analyze_p0_at_a_tiny_angle(capsys, alpha):
    # z = (1+t)/2 lies within alpha^2/4 of 1
    assert run_cli(["analyze", "p0", "--c", "1.5", "--alpha", alpha]) == 0
    out = capsys.readouterr().out
    closed, series = (float(re.search(rf"p0 {name}\s*: (\S+)", out).group(1))
                      for name in ("closed form", "series route"))
    assert abs(series - closed) <= 1e-13 * closed


def test_cli_analyze_riccati_at_a_tiny_angle(capsys):
    # each step amplifies an error cot(alpha/2)^2 = 4e16-fold
    assert run_cli(["analyze", "riccati", "--c", "1.5", "--alpha", "1e-8",
                    "--n", "10"]) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()
            if not ln.startswith("#")]
    assert len(rows) == 11 and all(float(p) > 0 for _, p in rows)


def test_cli_analyze_riccati_with_infinite_growth_prints_g_n(capsys):
    # cot(alpha/2)^2 overflows and t = 1: the backward sweep gives p_n = g_n
    assert run_cli(["analyze", "riccati", "--c", "1.5", "--alpha", "1e-300",
                    "--n", "10"]) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()
            if not ln.startswith("#")]
    assert rows == [[str(n), f"{riccati.g(n, 1.5):.12f}"] for n in range(11)]


@pytest.mark.parametrize("alpha, n", [("0.3", 20000), ("0.01", 500), ("1.5", 100),
                                      (repr(math.pi / 2), 100), ("1.6", 100), ("3.1", 100)])
def test_cli_analyze_riccati_runs_past_the_old_precision_cap(capsys, alpha, n):
    # a forward run of n steps would need 32856 and 2332 digits at 0.3 and
    # 0.01; the sweep runs backward at 1.5 and forward from pi/2 on
    assert run_cli(["analyze", "riccati", "--c", "1.5", "--alpha", alpha,
                    "--n", str(n)]) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()
            if not ln.startswith("#")]
    assert [int(k) for k, _ in rows] == list(range(n + 1))
    assert all(float(p) > 0 for _, p in rows)


def test_cli_analyze_riccati_runs_at_the_requested_dps(capsys, monkeypatch):
    widths = []
    run = riccati.trajectory
    monkeypatch.setattr(riccati, "trajectory",
                        lambda b, n, **kw: widths.append(kw.get("dps")) or run(b, n, **kw))
    argv = ["analyze", "riccati", "--c", "1.5", "--alpha", "1/3pi", "--n", "40"]
    assert run_cli(argv) == 0
    double = capsys.readouterr().out.splitlines()
    assert run_cli([*argv, "--precision", "ext", "--dps", "60"]) == 0
    ext = capsys.readouterr().out.splitlines()
    assert widths == [None, 60]
    assert double[0] == "# separatrix run, double" and ext[0] == "# separatrix run, dps=60"
    b = riccati.Boundary(1.5, *numerics.parse_angle("1/3pi"))
    values = riccati.trajectory(b, 40, dps=60).values
    assert all(type(p) is mp.mpf for p in values)
    assert ext[2:] == [f"{n:5d}   {mp.nstr(p, 60)}" for n, p in enumerate(values)]


def test_an_extended_run_closes_a_float_angle_triple_at_its_width(tmp_path, capsys):
    # alpha3 = pi - alpha1 - alpha2 to 1e-16 only: taken as given, its sum
    # defect capped every residual near 1e-14
    triple = "1.0,1.2,0.9415926535897931"
    for mode, c, tiny in (("hex", "1.5", verify.ALL_CHECKS), ("z2", "2", ["radius_eq"])):
        path = str(tmp_path / f"{mode}.pat")
        assert run_cli(["generate", "--c", c, "--alpha", triple, "--n", "8", "--mode", mode,
                        "--precision", "ext", "--dps", "40", "--out", path]) == 0
        assert load_document(path).params.alphas == (1.0, 1.2, 0.9415926535897931)
        capsys.readouterr()
        assert run_cli(["verify", path]) == 0
        read = {ln.split()[0]: float(ln.split()[2])
                for ln in capsys.readouterr().out.splitlines()}
        assert all(read[name] < 1e-39 for name in tiny if name in read), (mode, read)
    # a double run keeps its three floats, as given
    params = pattern_core.PatternParams((1.0, 1.2, 0.9415926535897931), 1.5)
    assert pattern_core.guarded_angles(params, 69)[2] == mp.mpf(0.9415926535897931)
    assert params.exact_angle(2) == 0.9415926535897931


def test_cli_analyze_painleve_files_the_image_of_one_in_a_iv(capsys):
    # from x_0 = 1 the first image is -epsilon, on the closed edge of A_IV
    assert run_cli(["analyze", "painleve", "--c", "0.5", "--alpha", "0.7",
                    "--beta0", "0", "--n", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split()[0] == "1" and lines[2].endswith("  A_IV")
    assert "# exited A_I at n=1 into A_IV" in lines


@pytest.mark.parametrize("alpha, precision, where", [
    ("1e-20", [], "in double"),
    ("1e-10", [], "in double"),  # the first image is zero
    ("1e-300", ["--precision", "ext", "--dps", "60"], "at dps 60"),
    ("1e-40", ["--precision", "ext", "--dps", "60"], "at dps 60")])  # singular n = 0
def test_cli_analyze_painleve_names_an_unresolved_angle(capsys, alpha, precision,
                                                       where):
    assert run_cli(["analyze", "painleve", "--c", "1.5", "--alpha", alpha,
                    "--n", "3", *precision]) == 2
    assert capsys.readouterr() == (
        "", f"error: precision exhausted: alpha = {float(alpha)!r} is not "
            f"resolved {where}\n")


@pytest.mark.parametrize("alpha", ["1/3pi", repr(math.pi / 3)])
def test_cli_extended_painleve_exit_grows_with_dps(capsys, alpha):
    # the start c alpha / 2 is taken at the run's width, not rounded to a
    # double first: that rounding alone made the run leave at n = 15 at
    # every dps
    exits = []
    for dps in ("40", "60", "100"):
        assert run_cli(["analyze", "painleve", "--c", "1.5", "--alpha", alpha,
                        "--n", "150", "--precision", "ext", "--dps", dps]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        exits.append(int(re.fullmatch(r"# exited A_I at n=(\d+) into \S+", last).group(1)))
    assert 40 <= exits[0] < exits[1] < exits[2], exits


@pytest.mark.parametrize("precision", [[], ["--precision", "ext", "--dps", "40"],
                                       ["--precision", "ext", "--dps", "60"],
                                       ["--precision", "ext", "--dps", "100"]])
@pytest.mark.parametrize("alpha", ["1", "1/3pi"])
def test_cli_painleve_c_2_from_epsilon_exits_2_at_every_precision(capsys, precision, alpha):
    assert run_cli(["analyze", "painleve", "--c", "2", "--alpha", alpha, "--n", "3",
                    *precision]) == 2
    assert capsys.readouterr() == ("", "error: Moebius solve singular at n=0\n")


def test_cli_shoot_near_pi_brackets_the_separatrix_or_names_the_horizon(capsys):
    argv = ["analyze", "painleve", "--c", "1.5", "--n", "3", "--shoot", "5"]
    assert run_cli([*argv, "--alpha", "0.98pi"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    lo, hi, target = map(float, re.fullmatch(
        r"# shoot bracket: \[(\S+), (\S+)\] width=\S+ target=(\S+)", last).groups())
    assert lo <= target <= hi
    # at 0.999 pi a start 1e-6 off the separatrix needs about 3.8e5 steps to exit
    assert run_cli([*argv, "--alpha", "0.999pi"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: precision exhausted: shoot horizon of ")
    assert err.endswith(f"passes MAX_HORIZON = {painleve.MAX_HORIZON}\n")


def test_cli_shoot_bracket_that_misses_the_separatrix_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(painleve, "shoot", lambda b, n_stay, tol: (0.5, 0.6))
    assert run_cli(["analyze", "painleve", "--c", "1.5", "--alpha", "1/3pi", "--n", "3",
                    "--shoot", "5"]) == 3
    assert capsys.readouterr() == (
        "", "mathematical failure: shoot bracket [0.5, 0.6] misses the separatrix "
            f"angle {math.pi / 4!r}\n")


def test_cli_analyze_p0_takes_a_pi_fraction_exactly(capsys, monkeypatch):
    from fractions import Fraction
    seen = []
    seeds = radius_system.seeds_from_pattern
    monkeypatch.setattr(radius_system, "seeds_from_pattern",
                        lambda params: seen.append(params) or seeds(params))
    assert run_cli(["analyze", "p0", "--c", "1.5", "--alpha", "1/2pi"]) == 0
    assert seen[0].alpha_pi_fracs == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    dev = float(re.search(r"max deviation\s*: (\S+)", capsys.readouterr().out).group(1))
    assert dev <= 1e-13
    assert run_cli(["analyze", "p0", "--c", "1.5", "--alpha", repr(math.pi / 2)]) == 0
    assert seen[1].alpha_pi_fracs is None


def test_document_rejects_garbage(tmp_path):
    path = str(tmp_path / "junk.txt")
    with open(path, "w") as fh:
        fh.write("not a pattern\n")
    with pytest.raises(DocumentError):
        load_document(path)


def test_cli_generate_rejects_non_finite_angles(tmp_path):
    path = tmp_path / "nan.txt"
    assert run_cli(["generate", "--c", "1.5", "--alpha", "1,1,nan", "--n", "4",
                    "--out", str(path)]) == 2
    assert not path.exists()


def test_cli_generate_rejects_nonpositive_dps(tmp_path):
    path = str(tmp_path / "x.txt")
    for dps in ("0", "-3"):
        assert run_cli(["generate", "--c", "1.5", "--n", "4", "--precision",
                        "ext", "--dps", dps, "--out", path]) == 2


def test_cli_double_generate_checks_its_dps(tmp_path, capsys):
    # a double document records its dps, so generate refuses the values
    # that --precision ext refuses, and writes nothing
    path = tmp_path / "x.txt"
    for dps in ("0", "-5", str(numerics.MAX_DPS + 1), "99999"):
        assert run_cli(["generate", "--c", "1.5", "--n", "4", "--dps", dps,
                        "--out", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: double precision needs 1 <= dps <= {numerics.MAX_DPS}, not {dps}\n")
    assert not path.exists()


def test_cli_generate_maps_arithmetic_failure_to_exit_3(tmp_path, monkeypatch):
    from hexcircle import pattern_core

    def degenerate(params, n_max):
        raise pattern_core.DegenerateQuadError("no finite fourth vertex")
    monkeypatch.setattr(pattern_core, "generate_z", degenerate)
    assert run_cli(["generate", "--c", "1.5", "--n", "4",
                    "--out", str(tmp_path / "x.txt")]) == 3


@pytest.mark.parametrize("section, bad", [
    ("[summary]", "crossratio 1e-16"),
    ("[vertices]", "0 x 0 0.0 0.0"),
    ("[vertices]", "50 0 0 zero 0.0"),
])
def test_loader_errors_exit_2(tmp_path, section, bad):
    path = str(tmp_path / "pat.txt")
    run_cli(["generate", "--c", "1.5", "--n", "4", "--out", path])
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace(section + "\n", section + "\n" + bad + "\n"))
    with pytest.raises(DocumentError):
        load_document(path)
    assert run_cli(["verify", path]) == 2


HEADER_MUTATIONS = [
    {"mode = hex": "mode = bogus"},
    {"route = crossratio": "route = bogus"},
    {"mode = hex": "mode = z2"},
    {"mode = hex": "mode = log"},
    {"route = crossratio": "route = radius", "mode = hex": "mode = sg"},
    {"c = 1.5": "c = 2.0"},
    {"c = 1.5": "c = 0.0"},
    {"dps = 40": "dps = 0"},
    {"dps = 40": "dps = 1001"},
]


@pytest.mark.parametrize("mutation", HEADER_MUTATIONS,
                         ids=[", ".join(m.values()) for m in HEADER_MUTATIONS])
def test_loader_refuses_a_layout_generate_never_writes(tmp_path, capsys, mutation):
    path = str(tmp_path / "pat.txt")
    assert run_cli(["generate", "--c", "1.5", "--n", "3", "--out", path]) == 0
    with open(path) as fh:
        text = fh.read()
    for old, new in mutation.items():
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(DocumentError):
        load_document(path)
    capsys.readouterr()
    assert run_cli(["verify", path]) == 2
    assert run_cli(["render", path, "--out", str(tmp_path / "pat.svg")]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.count("error: bad parameter block:") == 2
    assert not (tmp_path / "pat.svg").exists()


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_a_document_below_generation_1_is_a_bad_parameter_block(tmp_path, capsys, depth):
    # generate refuses --n < 1 by the same rule, check_depth
    path, svg = str(tmp_path / "pat.txt"), tmp_path / "pat.svg"
    assert run_cli(["generate", "--c", "1.5", "--n", "12", "--out", path]) == 0
    with open(path) as fh:
        text = fh.read()
    assert "\nn = 12\n" in text
    with open(path, "w") as fh:
        fh.write(text.replace("\nn = 12\n", f"\nn = {depth}\n"))
    capsys.readouterr()
    assert run_cli(["verify", path]) == 2
    assert run_cli(["render", path, "--out", str(svg)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and not svg.exists()
    assert stderr == f"error: bad parameter block: need n >= 1, not {depth}\n" * 2
    assert run_cli(["generate", "--c", "1.5", "--n", depth, "--out", path]) == 2
    assert capsys.readouterr().err == f"error: need n >= 1, not {depth}\n"


def test_loader_accepts_exactly_what_generate_writes(tmp_path):
    path = str(tmp_path / "pat.txt")
    written = set()
    for mode in document.MODES:
        for route in document.ROUTES:
            for c in ("0", "0.5", "2"):
                if run_cli(["generate", "--c", c, "--n", "2", "--mode", mode,
                            "--route", route, "--out", path]) == 0:
                    doc = load_document(path)
                    written.add((doc.mode, doc.route, doc.params.c))
    assert written == {("hex", "crossratio", 0.5), ("sg", "crossratio", 0.5),
                       ("hex", "radius", 0.5), ("hex", "radius", 2.0),
                       ("z2", "radius", 2.0), ("log", "radius", 0.0)}


def _first_fault(lines):
    """What load_document raises on a dps-40 document, as text, or "ok"."""
    def edit(path):
        path.write_text("\n".join(lines) + "\n")
        try:
            load_document(str(path))
        except DocumentError as exc:
            return str(exc)
        return "ok"
    return edit


def test_loader_reports_the_first_fault_in_file_order(tmp_path):
    # a bad number never hides a bad line, the last line of a site wins,
    # and a line error before a bad parameter block or a later bad line
    # comes first
    path = tmp_path / "p.txt"
    assert run_cli(["generate", "--c", "1.5", "--n", "3", "--precision", "ext",
                    "--dps", "40", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    v, r = lines.index("[vertices]") + 1, lines.index("[radii]") + 1
    c = lines.index("c = 1.5")
    site = " ".join(lines[v].split()[:3])
    bad_number = f"{site} x 0.0"
    cases = [
        (lines[:v] + [bad_number] + lines[v:], "ok"),  # replaced by the next line
        (lines[:v + 1] + [bad_number] + lines[v + 1:], "bad number: x"),
        (lines[:c] + ["c = x"] + lines[c + 1:v] + ["1 2"] + lines[v:], "bad vertex line: 1 2"),
        (lines[:v] + [bad_number] + lines[v + 1:r] + ["1 y 0 2.0"] + lines[r:],
         "bad site index: 1 y 0"),
        (lines[:c] + lines[c + 1:r] + ["c = 1.5"] + lines[r:], "bad radius line: c = 1.5"),
        (lines[:c] + ["c = 1.5e"] + lines[c + 1:], "bad parameter block: could not convert "
                                                   "string to float: '1.5e'"),
    ]
    # the radii before the vertices: the first bad line in the file comes first
    end = lines.index("[end]")
    swapped = lines[:v - 1] + lines[r - 1:end] + ["1 1 1"] + lines[v - 1:r - 1]
    cases += [(swapped + ["0 0 0 1.0", "[end]"], "bad radius line: 1 1 1"),
              (swapped[:-len(lines[v - 1:r - 1]) - 1] + lines[v - 1:r - 1] + ["0 0 0 1.0"],
               "bad vertex line: 0 0 0 1.0")]
    assert [_first_fault(doc)(path) for doc, _ in cases] == [want for _, want in cases]


@st.composite
def plain_tokens(draw):
    """Plain decimals of 1 to 120 digits, some with trailing zeros, with or
    without a point, whose effective exponent is often +-400 or +-401."""
    digits = draw(st.text("0123456789", min_size=1, max_size=120))
    digits += "0" * draw(st.integers(0, 6))
    point = draw(st.none() | st.integers(1, len(digits)))
    token = digits if point is None else f"{digits[:point]}.{digits[point:]}"
    target = draw(st.none() | st.sampled_from((-401, -400, 400, 401))
                  | st.integers(-420, 420))
    if target is not None:  # the effective exponent, less the fraction digits
        frac = "" if point is None else digits[point:].rstrip("0")
        token += f"e{target + len(frac)}"
    return draw(st.sampled_from(("", "-"))) + token


@st.composite
def workload_tokens(draw):
    """(token, dps) in the shapes the workloads write: the 17-digit repr of
    a random double (a radius-route vertex) read at dps 80; the dps + 5
    digits that mp.nstr writes of a number at dps 40 or 80; zero of either
    sign; an exponent token such as 1.2e-16, which repr gives small
    coordinates."""
    kind = draw(st.sampled_from(("repr", "digits", "zero", "exponent")))
    dps = draw(st.sampled_from((40, 80)))
    if kind == "repr":
        return repr(draw(st.floats(allow_nan=False, allow_infinity=False))), 80
    if kind == "zero":
        return draw(st.sampled_from(("0.0", "-0.0"))), dps
    if kind == "exponent":
        digits = draw(st.text("0123456789", max_size=16))
        return (f"{draw(st.sampled_from(('', '-')))}{draw(st.integers(1, 9))}"
                f"{'.' if digits else ''}{digits}e-{draw(st.integers(5, 330))}"), dps
    bits = dps_to_prec(dps)
    man = draw(st.integers(1, (1 << bits) - 1)) * draw(st.sampled_from((1, -1)))
    with mp.workdps(dps + 5):
        return mp.nstr(mp.mpf(from_man_exp(man, draw(st.integers(-bits - 40, 8)))), dps + 5), dps


@settings(max_examples=800, deadline=None)
@given(case=st.tuples(plain_tokens(), st.sampled_from((6, 45, 85, 205, 1005)))
       | workload_tokens())
@example(case=("0.0", 45))
@example(case=("-0.0", 45))
@example(case=("-120", 6))
# exact ties at 23 bits, which round to the even neighbour: down, then up
@example(case=("4194304.5", 6))
@example(case=("-4194305.5", 6))
# mpmath's from_str does not round these correctly: the direct parse must
# leave effective exponents beyond +-400 (here -417, written -386) to it
@example(case=("1.7550977741772720960563446240548e-386", 6))
@example(case=("272719128e-401", 6))
@example(case=("274218063e401", 6))
def test_verify_read_is_bit_identical_to_mpmath(case):
    token, dps = case
    with mp.workdps(dps):
        assert document._parse_number(token, "ext")._mpf_ == mp.mpf(token)._mpf_
    # the reader's rounding is raw_mpf's, of the digits over their power of ten
    prec = dps_to_prec(dps)
    raw = document._read(token, prec)
    if raw is not None:
        sign, digits, exp = Decimal(token).as_tuple()
        man = int("".join(map(str, digits))) * (-1 if sign else 1)
        assert raw == (numerics.raw_mpf(man * 10 ** exp, 0, prec) if exp >= 0
                       else numerics.raw_mpf(man, 0, prec, 10 ** -exp))


def test_read_of_a_full_width_mantissa_keeps_the_callers_prec():
    # an odd rounded mantissa has prec bits and no trailing zeros: the raw
    # tuple takes man and the caller's prec object, with no new bc
    prec = dps_to_prec(80)  # 269: an int that Python does not cache
    with mp.workdps(85):
        token = mp.nstr(mp.mpf(1) / 3, 85)
    with mp.workdps(80):
        want = mp.mpf(token)._mpf_
    got = document._read(token, prec)
    assert want[1] & 1 and got == want and got[3] is prec
    assert document._read("0.75", prec)[3] == 2  # trailing zeros stripped as before


@pytest.mark.parametrize("kind, dps", [(["--c", "1.5"], 40),
                                       (["--c", "2", "--mode", "z2"], 80),
                                       (["--c", "2", "--mode", "log"], 80)])
def test_every_number_of_an_extended_document_loads_as_mp_mpf(tmp_path, kind, dps):
    path = tmp_path / "p.txt"
    assert run_cli(["generate", *kind, "--n", "8", "--precision", "ext",
                    "--dps", str(dps), "--out", str(path)]) == 0
    doc, rows = load_document(str(path)), {}
    text = path.read_text().split("[vertices]\n")[1].split("[end]")[0]
    vertices, radii = (block.splitlines() for block in text.split("[radii]\n"))
    with mp.workdps(dps):
        for ln in vertices:
            k, l, m, x, y = ln.split()
            rows[k, l, m] = doc.vertices[int(k), int(l), int(m)]
            assert rows[k, l, m]._mpc_ == (mp.mpf(x)._mpf_, mp.mpf(y)._mpf_), ln
        for ln in radii:
            k, l, m, r = ln.split()
            got = doc.radii[int(k), int(l), int(m)]
            assert got == math.inf if r == "inf" else got._mpf_ == mp.mpf(r)._mpf_, ln
    assert len(rows) == len(doc.vertices) and len(radii) == len(doc.radii)


WRITER_DPS = (6, 45, 85, 205, 1005)


@st.composite
def raw_mpfs(draw):
    """(raw mpf, dps): zero, a mantissa of up to 4000 bits (wider than the
    precision of any dps here) near a power of ten on either side of
    to_str's fixed/exponent switch or anywhere, a wide mantissa next to a
    tie of the written digits, or a run of 9s longer than the written
    digits, whose carry bumps the exponent; either sign."""
    dps = draw(st.sampled_from(WRITER_DPS))
    digits = dps + 5
    kind = draw(st.sampled_from(("zero", "switch", "any", "nines", "tie")))
    if kind == "zero":
        return fzero, dps
    if kind == "tie":  # a hair off a decimal tie of the written digits, which
        # only the rounding to the precision of dps + 5 moves across
        k = draw(st.integers(-60, 60))
        num = draw(st.integers(10 ** (digits - 1), 10 ** digits - 1)) * 10 + 5
        num, den = (num * 10 ** k, 1) if k >= 0 else (num, 10 ** -k)
        bits = 4 * abs(k) + draw(st.integers(16, 200))
        man = (num << bits) // den + draw(st.integers(-2, 2))
        return from_man_exp(-man if draw(st.booleans()) else man, -bits), dps
    bits = draw(st.integers(1, 4000))
    man = draw(st.integers(1 << bits - 1, (1 << bits) - 1))
    if kind == "nines":
        n = draw(st.integers(digits - 2, digits + 60))
        if draw(st.booleans()):  # the integer 10**n - r
            man, exp = 10 ** n - draw(st.integers(1, 9)), 0
        else:  # just below one
            man, exp = ((10 ** n - 1) << bits) // 10 ** n, -bits
    elif kind == "switch":  # to_str writes 10**k in fixed form for min_fixed < k < digits
        k = draw(st.sampled_from((digits - 1, digits, min(-(digits // 3), -5),
                                  min(-(digits // 3), -5) + 1, 0)))
        exp = math.floor(k * math.log2(10)) - bits + draw(st.integers(-4, 4))
    else:
        exp = draw(st.integers(-5000, 5000))
    return from_man_exp(-man if draw(st.booleans()) else man, exp), dps


@settings(max_examples=400, deadline=None)
@given(case=raw_mpfs())
@example(case=(fzero, 45))
@example(case=(from_man_exp(-(10 ** 60 - 1), 0), 45))
def test_writer_token_is_mp_nstr_of_mp_mpf(case):
    t, dps = case
    prec = dps_to_prec(dps + 5)
    with mp.workdps(dps + 5):
        want = mp.nstr(mp.mpf(mp.make_mpf(t)), dps + 5)
    assert document._fmt(t, prec, dps + 5) == want
    assert document._fmt(mp.make_mpf(t), prec, dps + 5) == want


def test_writer_marks_only_infinities_as_poles():
    assert [document._fmt(t, 153, 45) for t in (finf, fninf, fnan)] == ["inf", "-inf", "nan"]
    assert [document._fmt(x, 153, 45) for x in (math.inf, -math.inf, 0.1, 3)] == [
        "inf", "-inf", "0.1", "3.0"]


@pytest.mark.parametrize("kind", [["--c", "1.5"], ["--c", "1.5", "--mode", "sg"],
                                  ["--c", "2", "--mode", "z2"],
                                  ["--c", "2", "--mode", "log"]])
def test_render_read_builds_no_mpf_and_draws_the_same(tmp_path, monkeypatch, kind):
    path = str(tmp_path / "p.txt")
    assert run_cli(["generate", *kind, "--n", "6", "--precision", "ext",
                    "--dps", "40", "--out", path]) == 0
    want = render_svg(load_document(path))
    parse, fallbacks = document._parse_number, []

    def counted_parse(s, precision):
        if precision != "double":  # not a summary value
            fallbacks.append(s)
        return parse(s, precision)

    monkeypatch.setattr(document, "_parse_number", counted_parse)
    calls = _count_arithmetic(monkeypatch)
    doc = load_document(path, doubles=True)
    assert calls[0] == 0 and set(fallbacks) <= {"inf"}  # the pole of log
    assert {type(z) for z in doc.vertices.values()} == {complex}
    assert {type(r) for r in doc.radii.values()} == {float}
    assert render_svg(doc) == want


@pytest.mark.parametrize("kind, site, token, code", [
    (["--c", "2", "--mode", "log"], (1, 1, -1), "1e-100000", 0),
    (["--c", "2", "--mode", "log"], (2, 0, -2), "1e-100000", 0),
    (["--c", "2", "--mode", "log"], (1, 1, -1), "1/0", 2),
    (["--c", "2", "--mode", "log"], (2, 0, -2), "1/0", 2),
    # a square-grid drawing takes its radii from the double vertices, where
    # 1e-100000 reads as 0, as in the drawing of every other mode; a
    # coordinate past the double range is not finite there
    (["--c", "1.5", "--mode", "sg"], (2, 0, -1), "1e-100000", 0),
    (["--c", "1.5", "--mode", "sg"], (2, 0, -1), "1e400000", 3),
])
def test_cli_render_reads_out_of_window_tokens_at_working_precision(tmp_path, kind, site,
                                                                    token, code):
    pat, bad, svg = tmp_path / "p.txt", tmp_path / "bad.txt", tmp_path / "bad.svg"
    assert run_cli(["generate", *kind, "--n", "6", "--precision", "ext",
                    "--dps", "40", "--out", str(pat)]) == 0
    edit = _with_radius if sum(site) == 0 else _with_vertex
    edit(pat, bad, site, token)
    assert run_cli(["render", str(bad), "--out", str(svg)]) == code
    assert svg.exists() == (code == 0)


def _with_vertex(src, dst, site, re, im="0.0"):
    prefix = "{} {} {} ".format(*site)
    lines = src.read_text().splitlines()
    hits = [i for i, ln in enumerate(lines) if ln.startswith(prefix)]
    lines[hits[0]] = prefix + f"{re} {im}"  # the first is the vertex line
    dst.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("value", ["1e400", "nan"])
def test_cli_render_refuses_non_finite_vertex(tmp_path, capsys, value):
    pat = tmp_path / "e3.txt"
    assert run_cli(["generate", "--c", "1.5", "--n", "3", "--precision", "ext",
                    "--dps", "40", "--out", str(pat)]) == 0
    bad = tmp_path / "bad.txt"
    _with_vertex(pat, bad, (1, 1, -1), value)
    svg = tmp_path / "bad.svg"
    capsys.readouterr()
    assert run_cli(["render", str(bad), "--out", str(svg)]) == 3
    assert "(1, 1, -1)" in capsys.readouterr().err
    assert not svg.exists()
    assert run_cli(["verify", str(bad)]) == 3


def test_cli_render_refuses_nan_radius(tmp_path, capsys):
    pat = tmp_path / "d.txt"
    assert run_cli(["generate", "--c", "1.5", "--n", "3", "--out", str(pat)]) == 0
    doc = load_document(str(pat))
    site = next(s for s in sorted(doc.radii) if sum(s) == 0)
    doc.radii[site] = math.nan
    save_document(doc, str(pat))
    capsys.readouterr()
    assert run_cli(["render", str(pat), "--out", str(tmp_path / "d.svg")]) == 3
    assert str(site) in capsys.readouterr().err


def test_cli_precision_cap_exits_2_fast(tmp_path):
    import time
    path = tmp_path / "x.txt"
    t0 = time.perf_counter()
    assert run_cli(["generate", "--c", "1.5", "--n", "4", "--precision", "ext",
                    "--dps", "5000", "--out", str(path)]) == 2
    assert not path.exists()
    assert time.perf_counter() - t0 < 1.0
    assert run_cli(["generate", "--c", "1.5", "--n", "3", "--precision", "ext",
                    "--dps", "40", "--out", str(path)]) == 0
    path.write_text(path.read_text().replace("dps = 40\n", "dps = 5000\n"))
    t0 = time.perf_counter()
    assert run_cli(["verify", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0


@pytest.fixture(scope="module")
def ext24(tmp_path_factory):
    path = tmp_path_factory.mktemp("ext24") / "ext24.txt"
    assert run_cli(["generate", "--c", "1.5", "--n", "24", "--precision", "ext",
                    "--dps", "40", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("value", ["1e-100000", "1e400000"])
def test_cli_vertex_out_of_magnitude_range_exits_3_fast(ext24, tmp_path, value):
    import time
    bad = tmp_path / "bad.txt"
    _with_vertex(ext24, bad, (3, 2, -1), value)
    t0 = time.perf_counter()
    assert run_cli(["verify", str(bad)]) == 3
    assert time.perf_counter() - t0 < 10.0
    report = verify.run_checks(load_document(str(bad)),
                               ["crossratio", "constraint", "laxzc", "kite"])
    assert all(math.isnan(r) for r in report.residuals.values())


def _with_radius(src, dst, site, value):
    lines = src.read_text().splitlines()
    start = lines.index("[radii]")
    prefix = "{} {} {} ".format(*site)
    hit = next(i for i in range(start, len(lines)) if lines[i].startswith(prefix))
    lines[hit] = prefix + value
    dst.write_text("\n".join(lines) + "\n")


def test_cli_nan_radius_fails_radius_eq(tmp_path, capsys):
    pat, bad = tmp_path / "r6.txt", tmp_path / "bad.txt"
    assert run_cli(["generate", "--c", "1.5", "--route", "radius", "--n", "6",
                    "--out", str(pat)]) == 0
    _with_radius(pat, bad, (2, 0, -2), "nan")
    capsys.readouterr()
    assert run_cli(["verify", str(bad), "--checks", "radius_eq"]) == 3
    assert "radius_eq    max-residual nan  FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--c", "1.5", "--route", "radius", "--n", "20"],
    ["--c", "2", "--mode", "z2", "--n", "16"], ["--c", "2", "--mode", "z2", "--n", "20"],
    ["--c", "2", "--mode", "log", "--n", "16"], ["--c", "2", "--mode", "log", "--n", "20"]])
def test_cli_double_radius_route_fills_past_the_roundoff_of_float_solves(tmp_path, argv):
    # on float solvers these stopped on a nonpositive radius: hex at
    # (1, 16, -17), z2 and log at (16, 0, -16)
    pat = str(tmp_path / "r.pat")
    assert run_cli(["generate", *argv, "--out", pat]) == 0
    assert run_cli(["verify", pat]) == 0


def test_cli_double_radius_route_first_fails_at_n_24(tmp_path, capsys):
    assert run_cli(["generate", "--c", "1.5", "--route", "radius", "--n", "24",
                    "--out", str(tmp_path / "r.pat")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("positivity failure: nonpositive radius ") and " at (21, 0, -21) " in err


@pytest.mark.parametrize("mode, c", [("hex", "1.5"), ("z2", "2"), ("log", "2")])
def test_cli_double_radius_route_at_n_12_keeps_its_digits(tmp_path, mode, c):
    # float solves read crossratio 1.7e-10 to 4.0e-10 and radius_eq up to 2.8e-10
    pat = str(tmp_path / "r.pat")
    assert run_cli(["generate", "--c", c, "--mode", mode, "--route", "radius", "--n", "12",
                    "--out", pat]) == 0
    report = verify.run_checks(load_document(pat))
    assert report.ok, report.residuals
    assert report.residuals["crossratio"] <= 1e-12 and report.residuals["radius_eq"] <= 1e-13


def test_cli_positivity_ignores_an_old_poles_line(tmp_path, capsys):
    # a +inf radius is the only mark of a pole; a listed site is not exempt
    pat, bad = tmp_path / "r6.txt", tmp_path / "bad.txt"
    assert run_cli(["generate", "--c", "1.5", "--route", "radius", "--n", "6",
                    "--out", str(pat)]) == 0
    _with_radius(pat, bad, (2, 0, -2), "-0.5")
    bad.write_text(bad.read_text().replace("[summary]", "poles = 2 0 -2\n[summary]"))
    capsys.readouterr()
    assert run_cli(["verify", str(bad), "--checks", "positivity"]) == 3
    assert "positivity   max-residual 1.000e+00  FAIL" in capsys.readouterr().out


def test_cli_reads_an_old_poles_line_as_nothing(tmp_path, capsys):
    pat, old = tmp_path / "log.txt", tmp_path / "old.txt"
    assert run_cli(["generate", "--c", "2", "--mode", "log", "--n", "6",
                    "--out", str(pat)]) == 0
    assert "poles" not in pat.read_text()
    old.write_text(pat.read_text().replace("[summary]", "poles = 0 0 0\n[summary]"))
    seen = []
    for doc in (pat, old):
        svg = tmp_path / (doc.stem + ".svg")
        capsys.readouterr()
        assert run_cli(["verify", str(doc)]) == 0
        assert run_cli(["render", str(doc), "--out", str(svg)]) == 0
        seen.append((capsys.readouterr().out.replace(str(svg), ""), svg.read_text()))
    assert seen[0] == seen[1]


def test_cli_positivity_allows_only_the_zero_at_the_origin_of_z2(tmp_path, capsys):
    pat, bad = tmp_path / "z2.txt", tmp_path / "bad.txt"
    assert run_cli(["generate", "--c", "2", "--mode", "z2", "--n", "6",
                    "--out", str(pat)]) == 0
    assert run_cli(["verify", str(pat), "--checks", "positivity"]) == 0
    _with_radius(pat, bad, (2, 1, -2), "0.0")
    capsys.readouterr()
    assert run_cli(["verify", str(bad), "--checks", "positivity"]) == 3
    assert "positivity   max-residual 1.000e+00  FAIL" in capsys.readouterr().out


def test_cli_positivity_exempts_the_zero_of_every_c_2_radius_document(tmp_path, capsys):
    # the c = 2 field labelled hex is the z2 field: the same vertices and
    # radii, and the same zero at the origin
    hex2, z2 = tmp_path / "hex2.txt", tmp_path / "z2.txt"
    for path, mode in ((hex2, "hex"), (z2, "z2")):
        assert run_cli(["generate", "--c", "2", "--route", "radius", "--mode", mode, "--n", "4",
                        "--out", str(path)]) == 0
    docs = [load_document(str(path)) for path in (hex2, z2)]
    assert docs[0].mode == "hex" and docs[0].vertices == docs[1].vertices
    assert docs[0].radii == docs[1].radii and docs[0].radii[0, 0, 0] == 0
    capsys.readouterr()
    assert run_cli(["verify", str(hex2)]) == 0
    assert "positivity   max-residual 0.000e+00  pass" in capsys.readouterr().out
    # a zero away from the origin still fails
    bad = tmp_path / "bad.txt"
    _with_radius(hex2, bad, (2, 1, -2), "0.0")
    assert run_cli(["verify", str(bad), "--checks", "positivity"]) == 3
    assert "positivity   max-residual 1.000e+00  FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("c", ["1.5", "1.9"])
def test_cli_positivity_keeps_a_zero_at_the_origin_below_c_2(tmp_path, capsys, c):
    pat, bad = tmp_path / "r.txt", tmp_path / "bad.txt"
    assert run_cli(["generate", "--c", c, "--route", "radius", "--n", "4",
                    "--out", str(pat)]) == 0
    _with_radius(pat, bad, (0, 0, 0), "0.0")
    capsys.readouterr()
    assert run_cli(["verify", str(bad), "--checks", "positivity"]) == 3
    assert "positivity   max-residual 1.000e+00  FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["z2", "log"])
def test_extended_radius_route_calls_no_mpf_operator_per_radius(tmp_path, monkeypatch, mode):
    # the fill, dual, the layout's reads, radius_eq and the writer take
    # each radius as an integer or a raw tuple: n = 16 has more than twice
    # the radii of n = 8 and makes the same calls
    calls = _count_arithmetic(monkeypatch)
    isinf, to_float = mp.isinf, mp.mpf.__float__

    def counted(fn):
        def wrapper(x):
            calls[0] += 1
            return fn(x)
        return wrapper

    monkeypatch.setattr(mp, "isinf", counted(isinf))
    monkeypatch.setattr(mp.mpf, "__float__", counted(to_float))
    counts, sizes = [], []
    for n in ("8", "16"):
        calls[0] = 0
        pat = tmp_path / f"{mode}{n}.txt"
        assert run_cli(["generate", "--c", "2", "--mode", mode, "--n", n, "--precision", "ext",
                        "--dps", "40", "--out", str(pat)]) == 0
        counts.append(calls[0])
        sizes.append(len(load_document(str(pat)).radii))
    assert sizes[1] > 2 * sizes[0]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("value", ["1e-100000", "1e400000"])
def test_cli_radius_out_of_magnitude_range_exits_3_fast(tmp_path, value):
    import time
    pat, bad = tmp_path / "log.txt", tmp_path / "bad.txt"
    assert run_cli(["generate", "--c", "2", "--mode", "log", "--n", "12",
                    "--precision", "ext", "--dps", "80", "--out", str(pat)]) == 0
    _with_radius(pat, bad, (3, 2, -4), value)
    t0 = time.perf_counter()
    assert run_cli(["verify", str(bad)]) == 3
    assert time.perf_counter() - t0 < 10.0
    report = verify.run_checks(load_document(str(bad)), ["radius_eq"])
    assert math.isnan(report.residuals["radius_eq"])


def test_cli_render_refuses_radius_beyond_double_range(tmp_path, capsys):
    pat, bad = tmp_path / "log.txt", tmp_path / "bad.txt"
    assert run_cli(["generate", "--c", "2", "--mode", "log", "--n", "8",
                    "--precision", "ext", "--dps", "40", "--out", str(pat)]) == 0
    svg = tmp_path / "log.svg"
    assert run_cli(["render", str(pat), "--out", str(svg)]) == 0
    assert svg.read_text().count("<circle") == 44
    _with_radius(pat, bad, (2, 0, -2), "1e400000")
    capsys.readouterr()
    assert run_cli(["render", str(bad), "--out", str(tmp_path / "bad.svg")]) == 3
    assert "(2, 0, -2)" in capsys.readouterr().err
    assert not (tmp_path / "bad.svg").exists()


@pytest.mark.parametrize("dps", ["5000", "0"])
def test_cli_analyze_painleve_precision_cap_exits_2_fast(dps):
    import time
    t0 = time.perf_counter()
    assert run_cli(["analyze", "painleve", "--c", "1.5", "--n", "3",
                    "--precision", "ext", "--dps", dps]) == 2
    assert time.perf_counter() - t0 < 1.0


def test_cli_analyze_painleve_at_dps_1000_prints_the_dps_60_lines(capsys):
    # the angles of the printed steps come from integers of about 3300 bits
    lines = []
    for dps in ("60", "1000"):
        assert run_cli(["analyze", "painleve", "--c", "1.5", "--n", "3",
                        "--precision", "ext", "--dps", dps]) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1] and lines[0].count("  A_I\n") == 4


@pytest.mark.parametrize("precision", [["--precision", "double"],
                                       ["--precision", "ext", "--dps", "40"]])
@pytest.mark.parametrize("kind", [["--c", "1.5"], ["--c", "2", "--mode", "z2"],
                                  ["--c", "1.5", "--mode", "sg"]])
def test_cli_nan_vertex_fails_immersion(tmp_path, capsys, kind, precision):
    from hexcircle.geometry import immersion_check, sg_immersion_check
    pat, bad = tmp_path / "p.txt", tmp_path / "bad.txt"
    assert run_cli(["generate", *kind, "--n", "6", *precision,
                    "--out", str(pat)]) == 0
    sg = "sg" in kind  # the sg sweep has no radius pass and reads the l = 0 plane
    site = (2, 0, -1) if sg else (2, 1, -2)
    _with_vertex(pat, bad, site, "nan", "nan")
    capsys.readouterr()
    assert run_cli(["verify", str(bad), "--checks", "immersion"]) == 3
    assert "FAIL" in capsys.readouterr().out
    zf = load_document(str(bad)).zfield()
    if sg:
        assert sg_immersion_check(zf).failures == [(site, "non-finite-vertex")]
    else:
        # named at its site, whatever the radius pass makes of it; the quad
        # sweep reads NaN as no crossing, as its reference does
        rep = immersion_check(zf)
        assert [f for f in rep.failures if f[1] == "non-finite-vertex"] == [
            (site, "non-finite-vertex")]
        quads = sorted(f for f in rep.failures if f[1] == "overlapping-quads")
        assert (quads, rep.checked_quads) == reference_quad_sweep(zf)
        assert {kind for _, kind in rep.failures} <= {"non-finite-vertex",
                                                      "nonpositive-radius"}


def test_cli_z2_and_log_need_c_2(tmp_path, capsys):
    path = str(tmp_path / "pat.txt")
    for mode in ("z2", "log"):
        for c in ("1.5", "0.5"):
            assert run_cli(["generate", "--c", c, "--n", "4", "--mode", mode,
                            "--out", path]) == 2
            assert "needs --c 2" in capsys.readouterr().err
        assert run_cli(["generate", "--c", "2", "--n", "4", "--mode", mode,
                        "--out", path]) == 0
        assert load_document(path).params.c == (2.0 if mode == "z2" else 0.0)


def test_constraint_does_not_apply_to_square_grid(tmp_path, capsys):
    path = str(tmp_path / "sg.txt")
    assert run_cli(["generate", "--c", "1.5", "--n", "6", "--mode", "sg",
                    "--out", path]) == 0
    doc = load_document(path)
    assert "constraint" not in verify.applicable_checks(doc)
    assert "laxzc" in verify.applicable_checks(doc)
    report = verify.run_checks(doc, ["constraint"])
    assert "constraint" not in report.residuals
    assert report.notes == ["constraint: not applicable"]
    capsys.readouterr()
    assert run_cli(["verify", path]) == 0
    assert "constraint" not in capsys.readouterr().out


def test_extended_square_grid_keeps_working_precision(tmp_path):
    path = str(tmp_path / "sg.txt")
    assert run_cli(["generate", "--c", "1.5", "--mode", "sg", "--n", "8",
                    "--precision", "ext", "--dps", "40", "--out", path]) == 0
    doc = load_document(path)
    assert all(s[1] == 0 for s in doc.vertices) and len(doc.vertices) == 45
    report = verify.run_checks(doc)
    assert report.ok
    assert report.residuals["crossratio"] <= 1e-30
    assert report.residuals["kite"] <= 1e-30


def _reference_circles(doc):
    """Vertices and (center, radius) circles by the renderer's circle rule
    written out in double: on the square grid the plain mean of the
    distances to the stored axis neighbors, otherwise the stored radii."""
    from hexcircle import lattice
    vertices = {s: complex(z) for s, z in sorted(doc.vertices.items())}
    circles = []
    if doc.mode == "sg":
        for site, z in vertices.items():
            if lattice.parity(site) == 0:
                d = [float(abs(vertices[nb] - z)) for nb in lattice.axis_neighbors(site)
                     if nb in vertices]
                if d:
                    circles.append((z, sum(d) / len(d)))
    else:
        for sub, r in sorted(doc.radii.items()):
            v = lattice.sub_to_vertex(sub)
            if sum(sub) == 0 and r != math.inf and v in vertices:
                circles.append((vertices[v], float(r)))
    return vertices, circles


def test_render_circles_equal_the_reference_rule(tmp_path):
    scale, margin = 100.0, 0.6
    for i, kind in enumerate((["--mode", "sg"], ["--mode", "hex"],
                              ["--mode", "sg", "--precision", "ext", "--dps", "40"])):
        pat, svg = str(tmp_path / f"{i}.txt"), str(tmp_path / f"{i}.svg")
        assert run_cli(["generate", "--c", "1.5", "--alpha", "1/6pi,1/3pi,1/2pi",
                        "--n", "10", *kind, "--out", pat]) == 0
        assert run_cli(["render", pat, "--out", svg]) == 0
        # render reads doubles
        vertices, circles = _reference_circles(load_document(pat, doubles=True))
        xs = [z.real for z in vertices.values()] + [z.real + s * r for z, r in circles
                                                    for s in (-1, 1)]
        ys = [z.imag for z in vertices.values()] + [z.imag + s * r for z, r in circles
                                                    for s in (-1, 1)]
        x0, y1 = min(xs) - margin, max(ys) + margin
        want = [f'<circle cx="{(z.real - x0) * scale:.6f}" cy="{(y1 - z.imag) * scale:.6f}" '
                f'r="{r * scale:.6f}" fill="none" stroke="black" stroke-width="1.5"/>'
                for z, r in circles]
        with open(svg) as fh:
            got = [ln for ln in fh.read().splitlines() if ln.startswith("<circle")]
        assert len(want) > 20 and got == want


@pytest.fixture(scope="module")
def small_documents(tmp_path_factory):
    work = tmp_path_factory.mktemp("bad-invocations")
    docs = {name: str(work / f"{name}.txt") for name in ("n1", "sg", "radius", "z2")}
    assert cli.main(["generate", "--c", "1.5", "--n", "1", "--out", docs["n1"]]) == 0
    assert cli.main(["generate", "--c", "1.5", "--n", "6", "--mode", "sg",
                     "--out", docs["sg"]]) == 0
    assert cli.main(["generate", "--c", "1.5", "--n", "6", "--route", "radius",
                     "--out", docs["radius"]]) == 0
    assert cli.main(["generate", "--c", "2", "--n", "6", "--mode", "z2",
                     "--out", docs["z2"]]) == 0
    return work, docs


PAINLEVE = ["analyze", "painleve", "--c", "1.5", "--n", "3"]
BAD_INVOCATIONS = [
    # a document whose residual checks have nothing to test
    (["verify", "{n1}"], 3),
    # no check at all, or none that applies
    (["verify", "{sg}", "--checks", ","], 2),
    (["verify", "{sg}", "--checks", ""], 2),
    (["verify", "{sg}", "--checks", "constraint,constraint"], 2),
    (["verify", "{radius}", "--checks", "constraint"], 2),
    (["verify", "{z2}", "--checks", "constraint,laxzc"], 2),
    # shooting below the double resolution, or with a bad tolerance or count
    ([*PAINLEVE, "--shoot", "5", "--tol", "1e-300"], 2),
    ([*PAINLEVE, "--shoot", "5", "--tol", "nan"], 2),
    ([*PAINLEVE, "--shoot", "5", "--tol", "inf"], 2),
    ([*PAINLEVE, "--tol", "0"], 2),
    ([*PAINLEVE, "--shoot", "-1"], 2),
    (["analyze", "painleve", "--c", "1.5", "--n", "-1"], 2),
    (["analyze", "riccati", "--c", "1.5", "--n", "-5"], 2),
    # a precision plan above the dps cap
    ([*PAINLEVE, "--alpha", "0.3", "--shoot", "3000"], 2),
    # outside the paper's domain 0 < c <= 2, 0 < alpha < pi
    ([*PAINLEVE, "--alpha", "4"], 2),
    ([*PAINLEVE, "--alpha", repr(math.pi)], 2),
    (["analyze", "painleve", "--c", "3", "--alpha", "1", "--shoot", "3"], 2),
    (["analyze", "painleve", "--c", "nan", "--n", "3"], 2),
    # an angle the working precision cannot resolve: precision exhausted
    ([*PAINLEVE, "--alpha", "1e-300"], 2),
    ([*PAINLEVE, "--alpha", "1e-300", "--precision", "ext", "--dps", "60"], 2),
    ([*PAINLEVE, "--alpha", "1e-20"], 2),
    ([*PAINLEVE, "--alpha", "1e-40", "--precision", "ext", "--dps", "60"], 2),
    ([*PAINLEVE, "--alpha", "1", "--beta0", "1e-300"], 2),
    ([*PAINLEVE, "--alpha", "1e-300", "--beta0", "0", "--precision", "ext",
      "--dps", "60"], 2),
    # no generation to build, on every route
    (["generate", "--c", "2", "--mode", "z2", "--n", "0", "--out", "{out}"], 2),
    (["generate", "--c", "1.5", "--route", "radius", "--n", "0", "--out", "{out}"], 2),
    (["generate", "--c", "2", "--mode", "log", "--n", "0", "--out", "{out}"], 2),
    # an angle with a zero denominator; a square grid from the radius route
    (["generate", "--c", "1.5", "--alpha", "1/0pi,1pi,1pi", "--n", "4", "--out", "{out}"], 2),
    (["analyze", "p0", "--c", "1.5", "--alpha", "1/0pi"], 2),
    ([*PAINLEVE, "--alpha", "1/0pi"], 2),
    # the ratio recurrence has its pole at c = 2
    (["analyze", "p0", "--c", "2"], 2),
    (["analyze", "riccati", "--c", "2", "--alpha", "1/3pi", "--n", "5"], 2),
    (["generate", "--c", "1.5", "--mode", "sg", "--route", "radius", "--n", "4",
      "--out", "{out}"], 2),
    # a scale that is not finite and positive, or a canvas that overflows
    *[(["render", "{sg}", "--out", "{out}", f"--scale={scale}"], 2)
      for scale in ("nan", "inf", "-inf", "0", "-1", "1e308")],
]


@pytest.mark.parametrize("argv, code", BAD_INVOCATIONS,
                         ids=[" ".join(a) for a, _ in BAD_INVOCATIONS])
def test_bad_invocations_exit_2_or_3(small_documents, capsys, argv, code):
    work, docs = small_documents
    out = work / "out.svg"
    argv = [a.format(out=out, **docs) for a in argv]
    out.unlink(missing_ok=True)
    capsys.readouterr()
    assert cli.main(argv) == code  # and no exception escaped main
    stdout, stderr = capsys.readouterr()
    if code == 2:
        assert stdout == "" and stderr.startswith(("error:", "constraint:"))
    else:
        for name in ("crossratio", "constraint", "laxzc", "radius_eq"):
            assert re.search(rf"^{name} .* FAIL$", stdout, re.M)
            assert f"{name}: no " in stdout
    assert not out.exists()


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    pat, missing = tmp_path / "d.txt", tmp_path / "missing"
    assert run_cli(["generate", "--c", "1.5", "--n", "3", "--out", str(pat)]) == 0
    for argv in (["generate", "--c", "1.5", "--n", "3", "--out", str(missing / "x.pat")],
                 ["render", str(pat), "--out", str(missing / "x.svg")]):
        capsys.readouterr()
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
    assert [p.name for p in tmp_path.iterdir()] == ["d.txt"]


PARSER_CASES = [[command, "--help"] for command in cli.COMMANDS] + [
    ["generate", "--c", "1.5", "--out", "p.txt"],  # a missing required flag
    ["generate", "--c", "1.5", "--n", "2", "--mode", "cube", "--out", "p.txt"],  # bad choices
    ["analyze", "spiral", "--c", "1.5"],
    ["render", "p.txt", "--out", "p.svg", "--show", "lines"],
    ["verify", "p.txt", "--bogus"],  # an error of the top-level parser
    ["verify", "--n", "x"],
    ["mystery"],  # an unknown command
    [],
    ["--help"],
]


def _parsed(parse, argv, capsys):
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_main_parses_with_its_command_alone_as_the_full_parser_does(argv, capsys):
    # main builds only the parser of a known command: the same help, usage,
    # errors and exit codes as the parser of every command
    full = _parsed(cli.build_parser().parse_args, argv, capsys)
    assert full[0] in (0, 2) and full[1] + full[2]
    assert _parsed(cli.main, argv, capsys) == full


def test_main_builds_the_parser_of_its_command_alone(monkeypatch, capsys):
    assert cli.build_parser("verify").parse_args(["verify", "p.txt"]).func is cli.cmd_verify
    with pytest.raises(SystemExit):
        cli.build_parser("verify").parse_args(["analyze", "p0", "--c", "1.5"])
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command)
                        or build(command))
    for argv in (["analyze", "--help"], ["verify", "--help"], ["--help"], ["mystery"], []):
        with pytest.raises(SystemExit):
            cli.main(argv)
    assert built == ["analyze", "verify", None, None, None]
