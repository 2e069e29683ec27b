import math

import pytest

from hexcircle import cli, verify
from hexcircle.document import (DocumentError, PatternDocument, load_document,
                                save_document)
from hexcircle.pattern_core import isotropic_params, generate_z


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


def test_document_roundtrip_extended(tmp_path):
    from hexcircle import radius_system
    params = isotropic_params(1.25, precision="ext", dps=30)
    zf = generate_z(params, 4)
    doc = PatternDocument(params=params, n_max=4, vertices=dict(zf.values),
                          radii=radius_system.extract_radii(zf, 4))
    path = str(tmp_path / "ext.txt")
    save_document(doc, path)
    doc2 = load_document(path)
    import mpmath as mp
    with mp.workdps(40):
        for site, z in doc.vertices.items():
            gap = abs(mp.mpc(z) - mp.mpc(doc2.vertices[site]))
            assert float(gap) <= 10.0 ** (1 - 30)


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


def test_document_rejects_garbage(tmp_path):
    path = str(tmp_path / "junk.txt")
    with open(path, "w") as fh:
        fh.write("not a pattern\n")
    with pytest.raises(DocumentError):
        load_document(path)
