"""Per-line edge-list parser: the reference ``bicomm.graph.load_edge_list``
must match in nodes, edges, duplicate count and error text.

It decodes a path whole as UTF-8 (a byte-order mark dropped), strips
each line, skips blank and ``#`` lines, and keeps one list of node-index
pairs; test-only.
"""

import os

import numpy as np

from bicomm.graph import Graph, GraphFormatError, _edge_keys, _keyed_edges


def _iter_lines(source):
    if isinstance(source, (str, os.PathLike)):
        # decoded whole before any line is parsed, as the loader does: a
        # file that does not decode is refused wherever its bad byte lies,
        # even a truncated sequence at the end, which a per-line read only
        # meets after every line before it
        with open(source, "r", encoding="utf-8-sig") as fh:
            yield from fh.readlines()
    else:  # a file object or any other iterable of lines
        yield from source


def reference_load_edge_list(source, directed):
    index = {}
    names = []
    rows = []
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise GraphFormatError(
                f"line {lineno}: expected two node tokens, got {len(parts)}")
        u_tok, v_tok = parts
        if u_tok == v_tok:
            raise GraphFormatError(f"line {lineno}: self-loop on {u_tok!r}")
        pair = []
        for tok in (u_tok, v_tok):
            if tok not in index:
                index[tok] = len(names)
                names.append(tok)
            pair.append(index[tok])
        rows.append(pair)

    if len(names) < 4:
        raise GraphFormatError(
            f"graph too small: {len(names)} distinct nodes (need at least 4)")

    n = len(names)
    keys = _edge_keys(np.asarray(rows, dtype=np.int64), n, directed)
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    dupes = keys.size - int(np.count_nonzero(first))
    e = _keyed_edges(keys[first], n)
    return Graph(n, e, directed, node_names=names, duplicate_edges=dupes)
