"""Graph container, edge-list loading, and the counting constants used by the
permutation-null moment formulas."""

from __future__ import annotations

import os
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
    """

    __slots__ = ("n_nodes", "directed", "edges", "node_names",
                 "duplicate_edges", "k_out", "k_in",
                 "_inc_indptr", "_inc_indices")

    def __init__(self, n_nodes, edges, directed, node_names=None,
                 duplicate_edges=0):
        if not float(n_nodes).is_integer():  # NaN and inf included
            raise ValueError(f"n_nodes must be an integer, got {n_nodes}")
        n_nodes = int(n_nodes)
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

        if self.directed:
            self.k_out = np.bincount(e[:, 0], minlength=n_nodes).astype(np.int64)
            self.k_in = np.bincount(e[:, 1], minlength=n_nodes).astype(np.int64)
        else:
            deg = (np.bincount(e[:, 0], minlength=n_nodes)
                   + np.bincount(e[:, 1], minlength=n_nodes)).astype(np.int64)
            self.k_out = deg
            self.k_in = deg
        self.k_out.setflags(write=False)
        self.k_in.setflags(write=False)
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
        """Undirected degrees (k_in + k_out when directed would double-count
        reciprocal pairs, so this is only defined for undirected graphs)."""
        if self.directed:
            raise ValueError("degrees is undirected-only; use k_in/k_out")
        return self.k_out

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"Graph({self.n_nodes} nodes, {self.n_edges} {kind} edges)"

    # -- derived structures -----------------------------------------------

    def incidence(self):
        """CSR-style incidence lists: for node i, the opposite endpoints of
        every edge touching i (each stored edge contributes one entry to each
        of its two endpoints).  Returns ``(indptr, indices)``."""
        if self._inc_indptr is None:
            e = self.edges
            ends = np.concatenate([e[:, 0], e[:, 1]])
            other = np.concatenate([e[:, 1], e[:, 0]])
            order = np.argsort(ends, kind="stable")
            counts = np.bincount(ends, minlength=self.n_nodes)
            indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._inc_indptr = indptr
            self._inc_indices = other[order]
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


def _iter_lines(source):
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
    else:  # a file object or any other iterable of lines
        yield from source


def load_edge_list(source, directed) -> Graph:
    """Parse a whitespace- or comma-separated edge list into a Graph.

    Each non-blank line holds two node tokens; lines starting with ``#`` are
    comments.  Tokens are mapped to indices 0..N-1 in order of first
    appearance and kept on ``Graph.node_names``.  Duplicate edges (after
    normalization for undirected graphs) are dropped and counted on
    ``Graph.duplicate_edges``.

    Raises
    ------
    GraphFormatError
        On malformed rows or self-loops (message carries the 1-based line
        number), or when the input has fewer than 4 distinct nodes.
    """
    index = {}
    ends = []
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        parts = raw.replace(",", " ").split()
        if ((not parts or parts[0][0] == "#")
                and raw.lstrip()[:1] in ("", "#")):
            continue  # blank or comment; ",#a b" is an edge
        if len(parts) != 2:
            raise GraphFormatError(
                f"line {lineno}: expected two node tokens, got {len(parts)}")
        u_tok, v_tok = parts
        if u_tok == v_tok:
            raise GraphFormatError(f"line {lineno}: self-loop on {u_tok!r}")
        ends.append(index.setdefault(u_tok, len(index)))
        ends.append(index.setdefault(v_tok, len(index)))

    n = len(index)
    if n < 4:
        raise GraphFormatError(
            f"graph too small: {n} distinct nodes (need at least 4)")

    # repeats are adjacent keys; np.unique may hash, slower and larger here
    keys = _edge_keys(np.array(ends, dtype=np.int64).reshape(-1, 2), n,
                      directed)
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    dupes = keys.size - int(np.count_nonzero(first))
    e = _keyed_edges(keys[first], n)
    return Graph(n, e, directed, node_names=list(index),
                 duplicate_edges=dupes)
