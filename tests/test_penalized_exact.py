"""The blocked penalized likelihood against the dense reference, bit for
bit, and the memory it may use on a sparse graph."""

import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicomm import selection
from bicomm.graph import Graph, graph_constants
from bicomm.optimizer import CANDIDATE_KINDS, FitResult
from bicomm.selection import (_pair_count, _penalized_details,
                              estimate_block_probs, penalized_select,
                              theta_mle)
from reference_selection import reference_penalized_details


def hub_pair(directed):
    """Eight nodes; nodes 0-3 form a complete block and nodes 0 and 1 also
    link to every node of the other block, so theta_0 theta_1 P_11 > 1."""
    edges = [(i, j) for i in range(4) for j in range(4)
             if i != j and (directed or i < j)]
    edges += [(i, j) for i in (0, 1) for j in range(4, 8)]
    return Graph(8, edges, directed=directed)


HUB_LABELS = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.int8)


def _draw_graph(kind, n, directed, labels, density, rng):
    """Adjacency of one test graph.  "uniform": every pair at ``density``.
    "heavy": pair weights w_i w_j from Pareto(1.2) node weights, so hub
    pairs get theta_i theta_j P_ab > 1 and clamp.  "isolated": uniform, but
    group 1 keeps no edge, so its theta_hat is all ones and P_11 = 0."""
    if kind == "heavy":
        w = rng.pareto(1.2, n) + 1.0
        a = rng.random((n, n)) < np.outer(w, w) * (density / 4)
    else:
        a = rng.random((n, n)) < density
    if kind == "isolated":
        a[labels == 1] = False
        a[:, labels == 1] = False
    if not directed:
        a = np.triu(a, 1)
    np.fill_diagonal(a, False)
    return Graph(n, np.argwhere(a), directed=directed)


@st.composite
def likelihood_cases(draw):
    """A graph on 4-120 nodes with a split into groups of at least 2."""
    n = draw(st.integers(4, 120))
    directed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.4, 0.9]))
    labels = np.zeros(n, dtype=np.int8)
    labels[rng.permutation(n)[:draw(st.integers(2, n - 2))]] = 1
    kind = draw(st.sampled_from(["uniform", "heavy", "isolated"]))
    return _draw_graph(kind, n, directed, labels, density, rng), labels


@settings(max_examples=300, deadline=None)
@given(case=likelihood_cases(), kind=st.sampled_from(CANDIDATE_KINDS),
       leaf=st.sampled_from([128, 136, selection._LEAF]))
# empty graphs: every pair clamps
@example(case=(Graph(20, [], directed=True), np.arange(20) % 2),
         kind="zd", leaf=128)
@example(case=(Graph(30, [], directed=False), np.arange(30) % 2),
         kind="zw-max", leaf=136)
@example(case=(hub_pair(True), HUB_LABELS), kind="zw-min", leaf=128)
@example(case=(hub_pair(False), HUB_LABELS), kind="zd", leaf=136)
def test_blocked_likelihood_matches_dense_reference(case, kind, leaf):
    g, labels = case
    with mock.patch.object(selection, "_LEAF", leaf):
        value, clamps = _penalized_details(g, labels, 0.12, kind)
    want_value, want_clamps = reference_penalized_details(g, labels, 0.12, kind)
    assert value.hex() == want_value.hex()
    assert clamps == want_clamps


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("graph_kind", ["heavy", "isolated"])
def test_clamping_class_pairs_match_dense_reference(graph_kind, directed):
    n = 150
    rng = np.random.default_rng(7)
    labels = (rng.random(n) < 0.4).astype(np.int8)
    g = _draw_graph(graph_kind, n, directed, labels, 0.1, rng)
    # the premises: hub pairs clamp; an edgeless group has theta_hat all ones
    theta = theta_mle(g, labels).theta_hat
    if graph_kind == "isolated":
        assert np.all(theta[labels == 1] == 1.0)
    for kind in CANDIDATE_KINDS:
        want_value, want_clamps = reference_penalized_details(
            g, labels, 0.12, kind)
        assert want_clamps > 0
        for leaf in (128, 136, selection._LEAF):
            with mock.patch.object(selection, "_LEAF", leaf):
                value, clamps = _penalized_details(g, labels, 0.12, kind)
            assert (value.hex(), clamps) == (want_value.hex(), want_clamps)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 30), n_cls=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), directed=st.booleans())
def test_pair_count_matches_a_loop_over_pairs(n, n_cls, seed, directed):
    # flags set one way round only, as rounding can leave (P theta_c) theta_d
    # and (P theta_d) theta_c on two sides of a clamp bound
    rng = np.random.default_rng(seed)
    cls = rng.integers(0, n_cls, n)
    flag = rng.random((n_cls, n_cls)) < 0.4
    want = sum(int(flag[cls[i], cls[j]]) for i in range(n) for j in range(n)
               if (i != j if directed else i < j))
    assert _pair_count(flag, cls, directed) == want


def test_hub_pair_has_probabilities_above_one():
    # the premise of the hub_pair examples above
    for directed in (True, False):
        g = hub_pair(directed)
        theta = theta_mle(g, HUB_LABELS).theta_hat
        p11 = estimate_block_probs(g, HUB_LABELS).p_hat.p11
        assert theta[0] * theta[1] * p11 > 1.0
        _, clamps = _penalized_details(g, HUB_LABELS, 0.12, "zw-max")
        assert clamps > 0


def test_detect_path_allocates_no_dense_matrix():
    # One float64 N x N array at N = 3,000 is 72 MB.
    n = 3000
    rng = np.random.default_rng(0)
    pairs = np.unique(rng.integers(0, n, size=(37_000, 2)), axis=0)
    g = Graph(n, pairs[pairs[:, 0] != pairs[:, 1]][:36_000], directed=True)
    fits = {}
    for kind in CANDIDATE_KINDS:
        labels = (rng.random(n) < 0.5).astype(np.int8)
        fits[kind] = FitResult(labels=labels, value=0.0)
    tracemalloc.start()
    try:
        graph_constants(g)
        penalized_select(g, fits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_selector_leaves_no_reference_cycle():
    """Everything a selection allocates is freed when it returns, not at the
    next cycle collection: a recursive closure over the leaf function would
    keep the class tables, the pair layout and the graph alive until then."""
    rng = np.random.default_rng(0)
    a = rng.random((60, 60)) < 0.1
    np.fill_diagonal(a, False)
    g = Graph(60, np.argwhere(a), directed=True)
    fits = {kind: FitResult(labels=(rng.random(60) < 0.5).astype(np.int8),
                            value=0.0)
            for kind in CANDIDATE_KINDS}
    penalized_select(g, fits)
    gc.collect()
    gc.disable()
    try:
        penalized_select(g, fits)
        assert gc.collect() == 0
    finally:
        gc.enable()
