"""Byte-identity of generated documents, pinned by their sha256 digests.

The raw-integer reads of the radius route (the fill's and generate_z's
rounding, dual's reciprocals, the layout's float reads, the pole and sign
tests) must write the same bytes as the mpf operators they replaced.  A
read that rounds differently moves the double layout and its summary: a
float read rounded down instead of to nearest changes the z2 document
below, and moves the crossratio of the n = 48, dps 80 z2 layout from
6.68e-13 to 8.68e-13, which no residual bound notices.  Only a change of
the layout itself (ROADMAP item 8) may update these digests, or, for the
extended documents (EXT40, EXT80), a change of the token format that keeps
every number: the binary tokens replaced the decimal ones so, with each
number read back from both documents and found equal.

The angle rule (numerics.angle) feeds every route: the double cross-ratio
documents, the square grid, the alpha3 closure of an extended float triple
and the analyze lines below are pinned too, so that a change to how an
angle is taken at some width cannot move any of them unnoticed.
"""
import contextlib
import hashlib
import io

import pytest

from hexcircle import cli

EXT40 = ["--precision", "ext", "--dps", "40"]
EXT80 = ["--precision", "ext", "--dps", "80"]

DIGESTS = [
    (["--c", "2", "--mode", "z2", "--n", "12", *EXT80],
     "4fcdb1ee06a3957528492a8bbb98011ecb399e4d864d6318b0e10f4b6d5691c7"),
    (["--c", "2", "--mode", "log", "--n", "12", *EXT80],
     "3ddd1120ffcc1348e66c89d3dfcea1e815cd57d3c3e13a74709ef863714c1c88"),
    (["--c", "1.5", "--route", "radius", "--n", "12", *EXT40],
     "3e3a1f0c91182e80bb32e25ddc8f7c3ae4af2ea0ba7bea6e7e9d3a737e7995a6"),
    # the cross-ratio route, for generate_z's final rounding
    (["--c", "1.5", "--n", "8", *EXT40],
     "0db4ecd24fe4fbb409f795c3839aa015e299341087fde2300e8434977e7e07ca"),
    (["--c", "2", "--mode", "z2", "--n", "12"],
     "ff052b7a3e6b683c65e6c9a38baf63d63552c9bec418c215089b51abf9759256"),
    (["--c", "2", "--mode", "log", "--n", "12"],
     "7bc1b2faaffed43b0ba65ac1db274d44726d09316a1f8186de915155e29b7b1f"),
    (["--c", "1.5", "--route", "radius", "--n", "12"],
     "47acb541bba73a61f81d7c3382d9136f5d0d53422dc54b2a0db0deda4627bf30"),
    # double cross-ratio documents, a square grid and a closed float triple
    (["--c", "1.5", "--alpha", "iso", "--n", "12"],
     "3d21d8a25fe82c9015e40271c4e0303265f49e2165df73404fd78b34e3c0ad40"),
    (["--c", "1.5", "--alpha", "1/6pi,1/3pi,1/2pi", "--n", "12"],
     "0692076c2255894a687bc95c17e4f0f5a3c09929de865e15273f0c69dc13794a"),
    (["--c", "1.5", "--alpha", "1/4pi,1/4pi,1/2pi", "--n", "12", "--mode", "sg"],
     "7b588c2f73a13344b9835df6b8cd9102d1ca9ce4880c88bf917d702f36a6b237"),
    (["--c", "1.5", "--alpha", "1.0,1.2,0.9415926535897931", "--n", "8", *EXT40],
     "57b271e482d23d6815691e0f0115e9e27090d95c94aed51c7b3de3ccefe3deb7"),
]

ANALYZE_DIGESTS = [
    (["p0", "--c", "1.5", "--alpha", "1/3pi"],
     "2433c49bf41717cb964aa2fd26d7f3909c65c213df28efe0c7a284415c3c6f79"),
    (["p0", "--c", "1.5", "--alpha", "1.0"],
     "5ff279eaa104f851621fafa9cad032972faae0e409ddcb6a656ed3fcf9e520ce"),
    (["riccati", "--c", "1.5", "--alpha", "1/3pi", "--n", "40", "--precision", "ext",
      "--dps", "60"],
     "44942855ff59dc42c69da6b16a87e00721973ec2777a8d8a888b3054ebf9ace6"),
    (["painleve", "--c", "1.5", "--alpha", "1/3pi", "--n", "20", "--shoot", "10"],
     "9ebbc20b170d4e623c98a07ff239179b9e6114cbb6f5f77868b4add6434d3e36"),
]


@pytest.mark.parametrize("argv, digest", DIGESTS, ids=[" ".join(a) for a, _ in DIGESTS])
def test_generated_document_is_byte_identical(tmp_path, argv, digest):
    pat = tmp_path / "p.txt"
    assert cli.main(["generate", *argv, "--out", str(pat)]) == 0
    assert hashlib.sha256(pat.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", ANALYZE_DIGESTS,
                         ids=[" ".join(a) for a, _ in ANALYZE_DIGESTS])
def test_analyze_output_is_byte_identical(argv, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", *argv]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
