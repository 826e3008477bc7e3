"""The one-pass edge-list loader against the per-line reference parser, and
the memory it may use on a detect-size file."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
