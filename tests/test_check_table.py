"""The check table of `hexcircle verify`: the copies of it outside
`verify.CHECKS` (the benchmark's output checks, generate's summary keys,
README's table), the notes of checks that tested nothing, and repeated
`--checks` names."""
import importlib.util
import re
from pathlib import Path

import pytest

from hexcircle import cli, pattern_core, verify
from hexcircle.document import load_document

ROOT = Path(__file__).resolve().parent.parent


def _bench_checks():
    """perfbench/checks.py, read as it is (the benchmark's own copies)."""
    spec = importlib.util.spec_from_file_location("perfbench_checks",
                                                  ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _verify(argv, capsys):
    capsys.readouterr()
    rc = cli.main(["verify", *argv])
    out, err = capsys.readouterr()
    return rc, out.splitlines(), err.splitlines()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Small documents of every mode and route, and an --n 1 document with
    only its vertex 0 0 0 left."""
    work = tmp_path_factory.mktemp("check-table")
    docs = {}
    for name, args in (("hex", ["--c", "1.5", "--n", "6"]),
                       ("sg", ["--c", "1.5", "--n", "6", "--mode", "sg"]),
                       ("z2", ["--c", "2", "--n", "6", "--mode", "z2"]),
                       ("log", ["--c", "2", "--n", "6", "--mode", "log"]),
                       ("radius", ["--c", "1.5", "--n", "6", "--route", "radius"]),
                       ("n1", ["--c", "1.5", "--n", "1"])):
        docs[name] = str(work / f"{name}.pat")
        assert cli.main(["generate", *args, "--out", docs[name]]) == 0
    docs["one"] = str(work / "one.pat")
    text = Path(docs["n1"]).read_text()
    kept = [ln for ln in text.splitlines(keepends=True)
            if not re.match(r"(0 0 -1|0 1 0|1 0 0) ", ln)]
    assert len(kept) == len(text.splitlines()) - 3
    Path(docs["one"]).write_text("".join(kept))
    assert list(load_document(docs["one"]).vertices) == [(0, 0, 0)]
    return docs


def test_benchmark_tolerances_are_the_tables():
    bench = _bench_checks()
    assert bench.TOLERANCES == {name: row.tolerance for name, row in verify.CHECKS.items()}
    assert set(bench.RESIDUAL_CHECKS) == {name for name, row in verify.CHECKS.items()
                                          if row.tolerance > 0}


def test_every_summary_key_maps_to_the_row_that_wrote_it(documents):
    to_check = _bench_checks().SUMMARY_TO_CHECK
    # what generate stores besides residuals: the radius layout's closure
    layout = {"wedge_closure", "placement_mismatch"}
    want = {"hex": {"crossratio", "constraint", "zerocurvature"},
            "sg": {"crossratio", "zerocurvature"}}
    for name in ("hex", "sg", "z2", "log", "radius"):
        doc = load_document(documents[name])
        keys = set(doc.summary) - layout
        assert keys == want.get(name, {"crossratio", "radius_eq"}), name
        assert keys <= set(to_check), name
        assert all(to_check[key] in verify.SUMMARY_CHECKS[doc.route] for key in keys), name
    for route, names in verify.SUMMARY_CHECKS.items():
        assert all(name in verify.CHECKS for name in names), route


def test_readmes_check_table_is_the_tables():
    rows = re.findall(r"^\| `(\w+)` \| (\S+) \|", (ROOT / "README.md").read_text(), re.M)
    assert [name for name, _ in rows] == list(verify.ALL_CHECKS)
    assert {name: float(tol) for name, tol in rows} == {
        name: row.tolerance for name, row in verify.CHECKS.items()}


def test_an_n1_documents_report_names_what_it_could_not_check(documents, capsys):
    assert _verify([documents["n1"]], capsys) == (3, [
        "crossratio   max-residual 0.000e+00  FAIL",
        "kite         max-residual 0.000e+00  pass",
        "immersion    max-residual 0.000e+00  pass",
        "constraint   max-residual 0.000e+00  FAIL",
        "laxzc        max-residual 0.000e+00  FAIL",
        "positivity   max-residual 0.000e+00  pass",
        "radius_eq    max-residual 0.000e+00  FAIL",
        "crossratio: no faces to check",
        "constraint: no interior sites to check",
        "laxzc: no faces to check",
        "radius_eq: no stencils to check",
    ], [])


def test_a_one_vertex_document_fails_every_check_but_positivity(documents, capsys):
    assert _verify([documents["one"]], capsys) == (3, [
        "crossratio   max-residual 0.000e+00  FAIL",
        "kite         max-residual 0.000e+00  FAIL",
        "immersion    max-residual 0.000e+00  FAIL",
        "constraint   max-residual 0.000e+00  FAIL",
        "laxzc        max-residual 0.000e+00  FAIL",
        "positivity   max-residual 0.000e+00  pass",
        "radius_eq    max-residual 0.000e+00  FAIL",
        "crossratio: no faces to check",
        "kite: no centers to check",
        "immersion: no triangles or quads to check",
        "constraint: no interior sites to check",
        "laxzc: no faces to check",
        "radius_eq: no stencils to check",
    ], [])


def test_immersion_with_no_triangle_or_quad_fails_closed(documents, capsys):
    assert _verify([documents["one"], "--checks", "immersion"], capsys) == (3, [
        "immersion    max-residual 0.000e+00  FAIL",
        "immersion: no triangles or quads to check",
    ], [])


def test_a_repeated_check_name_runs_once_where_it_first_appears(documents, capsys,
                                                                 monkeypatch):
    assert _verify([documents["sg"], "--checks", "constraint,constraint"], capsys) == (2, [], [
        "constraint: not applicable",
        "error: no requested check applies to this document",
    ])
    sweeps = []
    face_residual = pattern_core.max_face_residual
    monkeypatch.setattr(pattern_core, "max_face_residual",
                        lambda zf: sweeps.append(1) or face_residual(zf))
    rc, out, err = _verify([documents["sg"], "--checks", "crossratio,laxzc,crossratio"], capsys)
    assert (rc, [ln.split()[0] for ln in out], err) == (0, ["crossratio", "laxzc"], [])
    assert len(sweeps) == 1
    rc, out, err = _verify([documents["sg"], "--checks", "kite,bogus,kite,bogus"], capsys)
    assert (rc, out) == (2, [])
    assert err[0].startswith("error: unknown checks ['bogus']; available: ")
