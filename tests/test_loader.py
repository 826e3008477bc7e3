"""The bulk edge-list loader against the per-line reference parser, on line
lists and on files, and the memory it may use on a detect-size file."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bicomm.graph import GraphFormatError, load_edge_list
from reference_loader import reference_load_edge_list

# node tokens, separators and comment marks, glued into lines at random
_PIECES = st.sampled_from(["a", "b", "c", "d", "e", "0", "1", "é", "#", "#a",
                           ",", ", ", " ", "  ", "\t", "\xa0", "\r", ""])
_LINES = st.lists(
    st.tuples(st.lists(_PIECES, max_size=6).map("".join),
              st.sampled_from(["\n", "\r\n", ""])).map("".join),
    max_size=30)


def _outcome(load, lines, directed):
    try:
        g = load(lines, directed)
    except GraphFormatError as exc:
        return str(exc)
    except UnicodeDecodeError as exc:
        return type(exc)
    return (g.node_names, g.edges.tolist(), g.duplicate_edges, g.n_nodes,
            g.directed)


@settings(max_examples=400, deadline=None)
@given(lines=_LINES, directed=st.booleans())
@example(lines=[",#a b\n", "c d\n", "  # a comment\n", "\n", "a,c\r\n"],
         directed=True)
@example(lines=["a b", ",,", "c d"], directed=False)
@example(lines=["\xa0#x y\n", "a\tb\n", "b a\n", "c , d\n", "a c\n"],
         directed=False)
@example(lines=["a b\n", "c c\n"], directed=True)
@example(lines=["# a b\n", "a b c\n"], directed=True)
def test_loader_matches_per_line_reference(lines, directed):
    assert (_outcome(load_edge_list, lines, directed)
            == _outcome(reference_load_edge_list, lines, directed))


@pytest.mark.parametrize("directed", [True, False])
def test_loader_reads_files_like_the_reference(tmp_path, directed):
    path = tmp_path / "g.edges"
    path.write_bytes(b"# header\r\na,b\r\n\r\n b c\r\n,#x y\r\nc a\r\n"
                     b"d a\r\nb a\r\n")
    assert (_outcome(load_edge_list, path, directed)
            == _outcome(reference_load_edge_list, path, directed))


# file pieces: prefixes of one 20-byte token (a token word holds 8 bytes),
# tokens that differ only in a trailing NUL or a multi-byte character,
# every whitespace that str.split() knows below U+0100, "#" and ","
_STEM = "abcdefghijklmnopqrst"
_FILE_TOKENS = st.sampled_from(
    [_STEM[:k] for k in (1, 2, 7, 8, 9, 15, 16, 17, 20)]
    + ["a\x00", "\x00", "#", "#a", "\u00e9", "a\u00e9", "\u00e9\u00e9\u00e9\u00e9"])
_FILE_GAPS = st.sampled_from([" ", "\t", ",", ", ", " ,", "\x0b", "\x0c",
                              "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0"])
_FILE_ROWS = st.tuples(
    st.sampled_from(["", " ", "\xa0", ","]),
    st.lists(_FILE_TOKENS, min_size=2, max_size=2, unique=True),
    _FILE_GAPS, st.sampled_from(["", " ", "\x0c"])
).map(lambda t: t[0] + t[2].join(t[1]) + t[3])
_FILE_SOUP = st.lists(st.one_of(_FILE_TOKENS, _FILE_GAPS),
                      max_size=5).map("".join)


@st.composite
def _edge_files(draw):
    """UTF-8 edge-list files: rows of two tokens, with or without other
    lines, three kinds of line break, a byte-order mark or none, and now
    and then a byte that does not decode."""
    line = _FILE_ROWS if draw(st.booleans()) else st.one_of(_FILE_ROWS,
                                                            _FILE_SOUP)
    lines = draw(st.lists(line, max_size=25))
    breaks = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                           min_size=len(lines), max_size=len(lines)))
    text = "".join(line + br for line, br in zip(lines, breaks))
    if lines and draw(st.booleans()):
        text = text[:-len(breaks[-1])]  # no final line break
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    bad = draw(st.sampled_from([b""] * 8 + [b"\xff", b"\xc3"]))
    if bad:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bad + data[at:]
    return data


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_edge_files(), directed=st.booleans())
@example(data=b"a b\rb c\r\nc d\x85d a\n#x\x00 y\n", directed=True)
@example(data=b"abcdefgh abcdefghi\nabcdefghi abcdefgh\n"
              b"abcdefgh\x00 a\na abcdefgh", directed=False)
@example(data=b"a b\r\nc d\r\nabcdefghi,abcdefghi\r\n", directed=True)
def test_loader_reads_fuzzed_files_like_the_reference(tmp_path, data,
                                                       directed):
    path = tmp_path / "fuzz.edges"
    path.write_bytes(data)
    assert (_outcome(load_edge_list, path, directed)
            == _outcome(reference_load_edge_list, path, directed))


@pytest.mark.parametrize("directed", [True, False])
def test_loader_drops_a_byte_order_mark(tmp_path, directed):
    path = tmp_path / "bom.edges"
    path.write_bytes(b"\xef\xbb\xbfa b\nb c\nc d\nd a\na c\n")
    g = load_edge_list(path, directed)
    assert g.node_names == ("a", "b", "c", "d")
    assert g.n_edges == 5


def test_detect_size_load_peak_memory(tmp_path):
    # a directed N = 4,000 edge list with about 96k edges, as `detect` reads
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, 4000, size=(97_000, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]][:96_000]
    path = tmp_path / "detect.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in pairs.tolist()))
    tracemalloc.start()
    try:
        g = load_edge_list(path, directed=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n_nodes == 4000
    assert peak < 10 * 2**20
