"""Corrupted pattern documents never crash `hexcircle verify` or
`hexcircle render`.

Each example applies a few line-level corruptions (delete, duplicate, swap
or truncate a line, replace one of its tokens, insert a line) to a small
double or dps-40 document.  The exit code must be 0 (the corruption was
harmless), 2 (the loader rejected the document) or 3 (a check failed, or a
value cannot be drawn); a traceback is a test failure, and so is an SVG
written by a render that did not exit 0.
"""
import contextlib
import io
import re

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcircle import cli, document

GARBAGE = ("", "x", "=", "nan", "inf", "-inf", "0", "-1", "2.5", "1e400",
           "1e-400", "1e-100000", "1e400000", "1/0", "[end]", "[radii]", "0 0 0",
           "1 2 3 4 5 6",
           # binary tokens and near misses: float.hex's fractional form, upper
           # case, a digit separator, a negative zero, past the double range
           "0x", "0xp1", "0x1p", "0x1.8p3", "0X1P0", "0x1_0p0", "-0x0p0", "0x1p99999999")
#: the binary token of an extended document: sign, hex mantissa, binary exponent
BINARY = re.compile(r"(-?)0x([0-9a-f]+)p(-?[0-9]+)")

index = st.integers(min_value=0, max_value=10**6)
garbage = st.sampled_from(GARBAGE)
corruption = st.one_of(
    st.tuples(st.just("delete"), index),
    st.tuples(st.just("duplicate"), index),
    st.tuples(st.just("swap"), index, index),
    st.tuples(st.just("truncate"), index, st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("token"), index, st.integers(min_value=0, max_value=5), garbage),
    st.tuples(st.just("insert"), index, garbage),
)


def corrupt(lines, op):
    lines = list(lines)
    i = op[1] % len(lines)
    if op[0] == "delete":
        del lines[i]
    elif op[0] == "duplicate":
        lines.insert(i, lines[i])
    elif op[0] == "swap":
        j = op[2] % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    elif op[0] == "truncate":
        lines[i] = lines[i][:op[2]]
    elif op[0] == "token":
        tokens = lines[i].split() or [""]
        tokens[op[2] % len(tokens)] = op[3]
        lines[i] = " ".join(tokens)
    else:
        lines.insert(i, op[2])
    return lines or [""]


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for name, extra in (("double", []), ("ext", ["--precision", "ext", "--dps", "40"])):
        path = work / f"{name}.txt"
        assert cli.main(["generate", "--c", "1.5", "--n", "4", *extra,
                         "--out", str(path)]) == 0
        docs[name] = path.read_text().splitlines()
    return work, docs


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(("double", "ext")),
       ops=st.lists(corruption, min_size=1, max_size=3))
def test_corrupted_document_exits_0_2_or_3(documents, name, ops):
    work, docs = documents
    lines = docs[name]
    for op in ops:
        lines = corrupt(lines, op)
    path, svg = work / "corrupted.txt", work / "corrupted.svg"
    path.write_text("\n".join(lines) + "\n")
    svg.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", str(path)])
        drawn = cli.main(["render", str(path), "--out", str(svg)])
    assert code in (0, 2, 3) and drawn in (0, 2, 3)
    assert svg.exists() == (drawn == 0)


def _reference(token, precision):
    """The reference read: float, or mp.mpf at the working precision; in an
    extended document a binary token reads as mp.mpf of its exact value."""
    if token in ("inf", "-inf"):
        return float(token)
    binary = BINARY.fullmatch(token)
    if binary and precision != "double":
        sign, man, exp = binary.groups()
        return mp.ldexp(mp.mpf(int(sign + man, 16)), int(exp))
    try:
        return float(token) if precision == "double" else mp.mpf(token)
    except (ValueError, ZeroDivisionError):
        return f"bad number: {token}"


@pytest.mark.parametrize("precision", ["double", "ext"])
@pytest.mark.parametrize("token", GARBAGE + ("1.5_0",))  # float reads "_", mpmath not
def test_both_reads_of_a_garbage_token_agree(token, precision):
    # the render read (_parse_double) and the verify read give the value, or
    # the error, of the reference read
    with mp.workdps(45):
        want = _reference(token, precision)
        for parse in (document._parse_double, document._parse_number):
            try:
                got = parse(token, precision)
            except document.DocumentError as exc:
                got = str(exc)
            assert got == want if type(want) is str else \
                (mp.isnan(got) and mp.isnan(want) or mp.mpf(got) == mp.mpf(want))


def test_decimal_tokens_of_an_extended_document_read_as_decimals(documents):
    # fromhex would read 10 as 16 and 1.5 as 1.3125; both reads take them as decimals
    work, docs = documents
    lines = list(docs["ext"])
    at = lines.index("[vertices]") + 1
    site = tuple(map(int, lines[at].split()[:3]))
    lines[at] = "{} {} {} 10 1.5".format(*site)
    path = work / "decimal.txt"
    path.write_text("\n".join(lines) + "\n")
    with mp.workdps(40):
        assert document.load_document(str(path)).vertices[site] == mp.mpc(10, 1.5)
    assert document.load_document(str(path), doubles=True).vertices[site] == 10 + 1.5j
    assert [document._parse_double(s, "ext") for s in ("10", "1.5")] == [10.0, 1.5]


binary_tokens = st.builds(lambda sign, man, exp: f"{sign}{man:#x}p{exp}",
                          st.sampled_from(("", "-")), st.integers(0, 2 ** 80),
                          st.integers(-1100, 1100))


@settings(max_examples=500, deadline=None)
@given(tokens=st.lists(binary_tokens | st.sampled_from(("inf", "-inf"))
                       | st.sampled_from([g for g in GARBAGE if g and " " not in g])
                       | st.text("0123456789abcdefxpinAFXP.+-_", min_size=1, max_size=10),
                       min_size=1, max_size=4))
def test_the_fromhex_pass_takes_only_binary_tokens_and_infinities(tokens):
    # render's one-pass read of an extended document takes a list of tokens
    # exactly when the token-by-token read finds each binary or infinite
    want = None
    if all(t in ("inf", "-inf") or BINARY.fullmatch(t) for t in tokens):
        with contextlib.suppress(OverflowError):
            want = list(map(float.fromhex, tokens))
    assert document._fromhex(tokens) == want
