"""Byte-identity of generated documents, pinned by their sha256 digests.

The raw-integer reads of the radius route (the fill's and generate_z's
rounding, dual's reciprocals, the layout's float reads, the pole and sign
tests) must write the same bytes as the mpf operators they replaced.  A
read that rounds differently moves the double layout and its summary: a
float read rounded down instead of to nearest changes the z2 document
below, and moves the crossratio of the n = 48, dps 80 z2 layout from
6.68e-13 to 8.68e-13, which no residual bound notices.  Only a change of
the layout itself (ROADMAP item 8) may update these digests.
"""
import hashlib

import pytest

from hexcircle import cli

EXT40 = ["--precision", "ext", "--dps", "40"]
EXT80 = ["--precision", "ext", "--dps", "80"]

DIGESTS = [
    (["--c", "2", "--mode", "z2", "--n", "12", *EXT80],
     "705b12da3d1a923647d5e6b40109b08fa69c062bcfc3693fbbe63c423fc85ea4"),
    (["--c", "2", "--mode", "log", "--n", "12", *EXT80],
     "f8b06d56e1abe95e299ef4b5d74db5dc97e4fe524cf936b5688d8ad3511bbadb"),
    (["--c", "1.5", "--route", "radius", "--n", "12", *EXT40],
     "f8ee7c3168a9c9fa6fe146242612eba5168573d0e90797872bb9ec11aa711e57"),
    # the cross-ratio route, for generate_z's final rounding
    (["--c", "1.5", "--n", "8", *EXT40],
     "1fbc8cda049cf44aa3281320ee29a555c5dafb0af4b9de49d1ad3f80f6503097"),
    (["--c", "2", "--mode", "z2", "--n", "12"],
     "ff052b7a3e6b683c65e6c9a38baf63d63552c9bec418c215089b51abf9759256"),
    (["--c", "2", "--mode", "log", "--n", "12"],
     "7bc1b2faaffed43b0ba65ac1db274d44726d09316a1f8186de915155e29b7b1f"),
    (["--c", "1.5", "--route", "radius", "--n", "12"],
     "47acb541bba73a61f81d7c3382d9136f5d0d53422dc54b2a0db0deda4627bf30"),
]


@pytest.mark.parametrize("argv, digest", DIGESTS, ids=[" ".join(a) for a, _ in DIGESTS])
def test_generated_document_is_byte_identical(tmp_path, argv, digest):
    pat = tmp_path / "p.txt"
    assert cli.main(["generate", *argv, "--out", str(pat)]) == 0
    assert hashlib.sha256(pat.read_bytes()).hexdigest() == digest
