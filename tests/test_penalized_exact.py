"""The blocked penalized likelihood against the dense reference, bit for
bit, and the memory it may use on a sparse graph."""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicomm import selection
from bicomm.graph import Graph, graph_constants
from bicomm.optimizer import CANDIDATE_KINDS, FitResult
from bicomm.selection import (_penalized_details, estimate_block_probs,
                              penalized_select, theta_mle)
from reference_selection import reference_penalized_details


def hub_pair(directed):
    """Eight nodes; nodes 0-3 form a complete block and nodes 0 and 1 also
    link to every node of the other block, so theta_0 theta_1 P_11 > 1."""
    edges = [(i, j) for i in range(4) for j in range(4)
             if i != j and (directed or i < j)]
    edges += [(i, j) for i in (0, 1) for j in range(4, 8)]
    return Graph(8, edges, directed=directed)


HUB_LABELS = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.int8)


@st.composite
def likelihood_cases(draw):
    """A graph on 4-120 nodes with a split into groups of at least 2."""
    n = draw(st.integers(4, 120))
    directed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.4, 0.9]))
    a = rng.random((n, n)) < density
    if not directed:
        a = np.triu(a, 1)
    np.fill_diagonal(a, False)
    g = Graph(n, np.argwhere(a), directed=directed)
    labels = np.zeros(n, dtype=np.int8)
    labels[rng.permutation(n)[:draw(st.integers(2, n - 2))]] = 1
    return g, labels


@settings(max_examples=150, deadline=None)
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
