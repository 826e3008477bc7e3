"""Graph container, edge-list loading, and the counting constants used by the
permutation-null moment formulas."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np


class GraphFormatError(ValueError):
    """Raised when an edge-list input cannot be parsed into a valid graph."""


def _edge_keys(e, n, directed):
    """Sorted int64 keys u n + v of the rows of an (E, 2) edge array on ``n``
    nodes; an unordered pair is keyed min(u, v) n + max(u, v).  Sorted keys
    are the oriented rows in lexicographic order: the stored edge order."""
    u, v = e[:, 0], e[:, 1]
    if not directed:
        u, v = np.minimum(u, v), np.maximum(u, v)
    keys = u * n
    keys += v
    keys.sort()
    return keys


def _keyed_edges(keys, n):
    """The (E, 2) edge rows of keys made by ``_edge_keys``."""
    e = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, n, out=(e[:, 0], e[:, 1]))
    return e


def _integer(x, name):
    """``int(x)``, or ValueError, not truncation, when x is not integral
    (NaN and inf included)."""
    if isinstance(x, (int, np.integer)):  # any size: no float conversion
        return int(x)
    if not float(x).is_integer():
        raise ValueError(f"{name} must be an integer, got {x}")
    return int(x)


class Graph:
    """Simple directed or undirected graph on nodes ``0..n_nodes-1``.

    Edges are stored once each: as ordered pairs ``(i, j)`` when directed, as
    unordered pairs normalized to ``i < j`` when undirected, sorted by the
    key ``i * n_nodes + j`` (so the rows are in lexicographic order).
    Self-loops and duplicate edges are rejected.

    Parameters
    ----------
    n_nodes : int
        Number of nodes.
    edges : array-like of shape (E, 2)
        Edge endpoints.  May be empty.  Floats (here and in ``n_nodes``)
        must be integral: ValueError, not truncation, otherwise.
    directed : bool
        Whether pairs are ordered.
    node_names : sequence of str, optional
        Original tokens when the graph came from an edge-list file; index i
        holds the token that was mapped to node i.
    duplicate_edges : int, optional
        Number of duplicate input rows dropped by the loader.

    Attributes ``k_out``, ``k_in`` and ``k_inc`` are read-only int64 arrays
    of each node's out-, in- and incident edges.  ``k_inc`` counts every
    stored edge touching the node, so a reciprocal pair counts 2: it is
    ``k_out + k_in`` when directed and the degree (``k_out`` and ``k_in``
    alike) when undirected.
    """

    __slots__ = ("n_nodes", "directed", "edges", "node_names",
                 "duplicate_edges", "k_out", "k_in", "k_inc",
                 "_inc_indptr", "_inc_indices")

    def __init__(self, n_nodes, edges, directed, node_names=None,
                 duplicate_edges=0):
        n_nodes = _integer(n_nodes, "n_nodes")
        if n_nodes < 1:
            raise ValueError("graph needs at least one node")
        e = np.asarray(edges)
        if e.dtype.kind == "f" and not np.all(np.isfinite(e)
                                              & (e == np.trunc(e))):
            raise ValueError("edge endpoints must be integers")
        e = e.astype(np.int64, copy=False)
        if e.size == 0:
            e = np.empty((0, 2), dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be an (E, 2) array")
        if e.size and (e.min() < 0 or e.max() >= n_nodes):
            raise ValueError("edge endpoint out of range")
        if e.size and np.any(e[:, 0] == e[:, 1]):
            raise ValueError("self-loops are not allowed")
        keys = _edge_keys(e, n_nodes, directed)
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate edges are not allowed")
        e = _keyed_edges(keys, n_nodes)
        e.setflags(write=False)

        self.n_nodes = n_nodes
        self.directed = bool(directed)
        self.edges = e
        self.node_names = tuple(node_names) if node_names is not None else None
        self.duplicate_edges = int(duplicate_edges)

        k_out = np.bincount(e[:, 0], minlength=n_nodes).astype(np.int64)
        k_in = np.bincount(e[:, 1], minlength=n_nodes).astype(np.int64)
        self.k_inc = k_out + k_in
        if self.directed:
            self.k_out, self.k_in = k_out, k_in
        else:
            self.k_out = self.k_in = self.k_inc
        for k in (self.k_out, self.k_in, self.k_inc):
            k.setflags(write=False)
        self._inc_indptr = None
        self._inc_indices = None

    # -- basic facts ------------------------------------------------------

    @property
    def n_edges(self):
        """Number of stored edges: |G| for directed graphs, the unordered
        edge count for undirected ones."""
        return self.edges.shape[0]

    @property
    def degrees(self):
        """Undirected degrees: ``k_inc`` under another name.  Directed graphs
        raise; read ``k_inc`` (a reciprocal pair counting 2) there."""
        if self.directed:
            raise ValueError("degrees is undirected-only; use k_inc")
        return self.k_inc

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"Graph({self.n_nodes} nodes, {self.n_edges} {kind} edges)"

    # -- derived structures -----------------------------------------------

    def incidence(self):
        """CSR-style incidence lists: for node i, the opposite endpoints of
        every edge touching i (each stored edge contributes one entry to each
        of its two endpoints): the v of each row (i, v), then the u of each
        row (u, i), both in row order.  Returns ``(indptr, indices)``."""
        if self._inc_indptr is None:
            u, v = self.edges[:, 0], self.edges[:, 1]
            # a stable sort of both ends keeps each node's entries in that
            # order; on 16 bits numpy sorts it by radix
            key = np.uint16 if self.n_nodes <= 2**16 else np.int64
            order = np.argsort(np.concatenate((u, v), dtype=key,
                                              casting="unsafe"), kind="stable")
            indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
            np.cumsum(self.k_inc, out=indptr[1:])
            self._inc_indptr = indptr
            self._inc_indices = np.concatenate((v, u))[order]
        return self._inc_indptr, self._inc_indices

    def incident_nodes(self, i):
        indptr, indices = self.incidence()
        return indices[indptr[i]:indptr[i + 1]]


@dataclass(frozen=True)
class GraphConstants:
    """Counting constants entering the permutation-null moments.

    g_size : total edge count (|G| directed; unordered count undirected)
    q1     : ordered count of reciprocal pairs (i->j and j->i both present);
             always 0 for undirected graphs
    q2     : ordered pairs of distinct edges sharing no endpoint
    """
    n_nodes: int
    g_size: int
    q1: int
    q2: int
    directed: bool


def graph_constants(g: Graph) -> GraphConstants:
    """Compute the edge-pair counting constants of ``g``.

    For a directed graph, ``q2`` counts ordered pairs of distinct edges with
    four distinct endpoints; subtracting the sharing configurations from
    ``|G|^2 - |G|`` by inclusion-exclusion gives

        q2 = |G|^2 - |G| + q1 - 2*sum_i k_in[i]*k_out[i]
             - sum_i k_out[i]*(k_out[i]-1) - sum_i k_in[i]*(k_in[i]-1)

    For an undirected graph (q1 := 0):

        q2 = |G|^2 - |G| - sum_i k[i]*(k[i]-1)
    """
    m = int(g.n_edges)
    if g.directed:
        # a reciprocal pair is the one unordered key that two arcs share
        keys = _edge_keys(g.edges, g.n_nodes, directed=False)
        q1 = 2 * int(np.count_nonzero(keys[1:] == keys[:-1]))
        ko = g.k_out.astype(np.int64)
        ki = g.k_in.astype(np.int64)
        q2 = (m * m - m + q1
              - 2 * int(np.dot(ki, ko))
              - int(np.dot(ko, ko - 1))
              - int(np.dot(ki, ki - 1)))
    else:
        q1 = 0
        k = g.k_out.astype(np.int64)
        q2 = m * m - m - int(np.dot(k, k - 1))
    return GraphConstants(n_nodes=g.n_nodes, g_size=m, q1=q1, q2=q2,
                          directed=g.directed)


def _separators(b):
    """Where the uint8 array ``b`` holds a byte that ends a token: the
    comma or one of str.split()'s ASCII whitespace, 9-13 and 28-32."""
    sep = (b - np.uint8(9)) < 5  # wraps below 9
    sep |= (b - np.uint8(28)) < 5
    sep |= b == ord(",")
    return sep


# the first k bytes of a little-endian word, k = 0..8; and 8 spaces
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype="<u8")
_SPACES = np.frombuffer(b" " * 8, dtype="<u8")[0]


def _read_text(source):
    """The whole input as one str in which "\n" alone ends a line."""
    if isinstance(source, (str, os.PathLike)):
        # text mode: universal newlines; a UTF-8 byte-order mark is dropped
        with open(source, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    # a file object or any other iterable of lines, one line per item
    return "\n".join(line.replace("\n", " ") for line in source)


def _token_words(data, starts, lens):
    """Token k's bytes, padded with spaces (which no token holds), as the
    little-endian uint64 words ``words[:, k]``: equal columns are equal
    tokens.  ``data`` ends in 8 spaces."""
    # the 8 bytes from each offset, as one unaligned word
    window = np.ndarray(data.size - 7, dtype="<u8", buffer=data,
                        strides=(1,))
    words = np.empty((-(-int(lens.max(initial=1)) // 8), starts.size),
                     dtype="<u8")
    for w, word in enumerate(words):
        _LOW_BYTES.take(lens - 8 * w, out=word, mode="clip")
        # past the end is all spaces; take() would copy the strided window
        got = window[np.minimum(starts + 8 * w, window.size - 1)]
        got ^= _SPACES
        word &= got  # the token's bytes xor spaces, zero past its end
        word ^= _SPACES
    return words


def _token_text(words):
    """The tokens in the columns of ``_token_words``, as str."""
    padded = np.full((words.shape[1], words.shape[0] + 1), _SPACES,
                     dtype="<u8")
    padded[:, :-1] = words.T
    return padded.tobytes().decode("utf-8", "surrogatepass").split()


def _scan(data):
    """The tokens of ``data``, which ends in 8 spaces: the start and length
    of each, its 0-based line, whether a comma comes right before it
    (whitespace aside), and the line of each comma."""
    # events: each token's first byte and the byte after its last, each
    # newline and each comma; a token's end is the event after its start
    sep = _separators(data)
    event = np.empty(data.size, dtype=bool)
    event[0] = not sep[0]
    np.not_equal(sep[1:], sep[:-1], out=event[1:])
    del sep
    event |= data == ord("\n")
    event |= data == ord(",")
    at = np.flatnonzero(event).astype(np.int32 if data.size < 2**31
                                      else np.int64)
    del event
    byte = data[at]
    is_tok = ~_separators(byte)  # never the last event: data ends in spaces
    # compress() is several times faster than a boolean index here
    starts = at.compress(is_tok)
    lens = at[1:].compress(is_tok[:-1])
    lens -= starts
    del at
    line = np.cumsum(byte == ord("\n"), dtype=starts.dtype)
    comma = byte == ord(",")
    after_comma = np.concatenate(([False], comma[:-1])).compress(is_tok)
    return (starts, lens, line.compress(is_tok), after_comma,
            line.compress(comma))


def _first_appearance(words):
    """The node of each token in ``_token_words`` form, nodes numbered by
    first appearance, and the node names."""
    # a sort brings each node's tokens together; the least index in a run
    # is the node's first token
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words)
    ordered = words[:, order]
    run = np.ones(order.size, dtype=bool)
    run[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    del ordered
    head = np.flatnonzero(run)
    first = np.minimum.reduceat(order, head)
    by_first = np.argsort(first)
    rank = np.empty(head.size, dtype=np.int64)
    rank[by_first] = np.arange(head.size)
    node = np.empty(order.size, dtype=np.int64)
    node[order] = np.repeat(rank, np.diff(head, append=order.size))
    return node, _token_text(words[:, first[by_first]])


def load_edge_list(source, directed) -> Graph:
    """Parse a whitespace- or comma-separated edge list into a Graph.

    Each non-blank line holds two node tokens; lines starting with ``#`` are
    comments.  Tokens are mapped to indices 0..N-1 in order of first
    appearance and kept on ``Graph.node_names``.  Duplicate edges (after
    normalization for undirected graphs) are dropped and counted on
    ``Graph.duplicate_edges``.  A path is read as UTF-8, a leading
    byte-order mark dropped; any other source is an iterable of str lines.

    Raises
    ------
    GraphFormatError
        On malformed rows or self-loops (message carries the 1-based line
        number), or when the input has fewer than 4 distinct nodes.
    """
    text = _read_text(source)
    if not text.isascii():
        # str.split()'s other whitespace becomes a space
        text = re.sub(r"[^\S\n]", " ", text)
    # each array is dropped once read, which keeps the tracemalloc peak of
    # a detect-size file near 7 MB
    raw = text.encode("utf-8", "surrogatepass")
    del text
    data = np.full(len(raw) + 8, ord(" "), dtype=np.uint8)
    data[:len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    del raw
    starts, lens, tok_line, after_comma, comma_lines = _scan(data)

    # a line is a comment when its first non-whitespace byte is "#": its
    # first token starts with "#" and no comma comes before it
    new_line = np.ones(starts.size, dtype=bool)
    np.not_equal(tok_line[1:], tok_line[:-1], out=new_line[1:])
    first = np.flatnonzero(new_line)
    lines = tok_line[first]
    count = np.diff(first, append=starts.size)
    row = (data[starts[first]] != ord("#")) | after_comma[first]
    del tok_line, after_comma, new_line, first

    # the first row of the wrong width; a line of commas alone has none
    bad_line = bad_count = None
    wrong = np.flatnonzero(row & (count != 2))
    if wrong.size:
        bad_line, bad_count = int(lines[wrong[0]]), int(count[wrong[0]])
    bare = comma_lines[~np.isin(comma_lines, lines)]
    if bare.size and (bad_line is None or bare[0] < bad_line):
        bad_line, bad_count = int(bare[0]), 0
    if bad_line is not None:
        row &= lines < bad_line  # rows past the first bad one are not read

    keep = np.repeat(row, count)
    starts, lens = starts.compress(keep), lens.compress(keep)
    del keep, comma_lines
    words = _token_words(data, starts, lens)
    del data, starts, lens
    loops = np.flatnonzero((words[:, 0::2] == words[:, 1::2]).all(axis=0))
    if loops.size:
        lineno = int(lines[np.flatnonzero(row)[loops[0]]]) + 1
        u_tok = _token_text(words[:, 2 * loops[:1]])[0]
        raise GraphFormatError(f"line {lineno}: self-loop on {u_tok!r}")
    if bad_line is not None:
        raise GraphFormatError(f"line {bad_line + 1}: expected two node "
                               f"tokens, got {bad_count}")
    del lines, row, count

    node, names = _first_appearance(words)
    del words
    n = len(names)
    if n < 4:
        raise GraphFormatError(
            f"graph too small: {n} distinct nodes (need at least 4)")

    # repeats are adjacent keys; np.unique may hash, slower and larger here
    keys = _edge_keys(node.reshape(-1, 2), n, directed)
    del node
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    dupes = keys.size - int(np.count_nonzero(first))
    e = _keyed_edges(keys[first], n)
    del keys, first
    return Graph(n, e, directed, node_names=names, duplicate_edges=dupes)
