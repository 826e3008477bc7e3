"""The lane kernel against the restart-by-restart reference search, bit for
bit, on random graphs and configs, in both neighbour-update forms."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicomm import optimizer
from bicomm.edgestats import z_d
from bicomm.graph import Graph
from bicomm.optimizer import (_Z_FAMILY, CANDIDATE_KINDS, FitConfig, Objective,
                              fit_all_candidates, greedy_fit)
from reference_search import reference_greedy_fit


def star(n):
    return Graph(n, [(0, i) for i in range(1, n)], directed=False)


def cycle(n, directed):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], directed=directed)


@st.composite
def fit_cases(draw):
    """A graph on 5-40 nodes and a search config.  Stars make every Z_w
    candidate degenerate and cycles every Z_d candidate."""
    n = draw(st.integers(5, 40))
    directed = draw(st.booleans())
    shape = draw(st.sampled_from(["random", "random", "star", "cycle"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "star":
        g = star(n)
    elif shape == "cycle":
        g = cycle(n, directed)
    else:
        density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
        a = rng.random((n, n)) < density
        if not directed:
            a = np.triu(a, 1)
        np.fill_diagonal(a, False)
        g = Graph(n, np.argwhere(a), directed=directed)
    min_group = draw(st.sampled_from([2, 3]) if n >= 7 else st.just(2))
    warm = None
    if draw(st.booleans()):
        while warm is None or not min_group <= warm.sum() <= n - min_group:
            warm = (rng.random(n) < 0.5).astype(np.int8)
    cfg = FitConfig(restarts=draw(st.integers(1, 6)),
                    seed=draw(st.integers(0, 1000)), min_group=min_group,
                    warm_start=warm,
                    max_iters=draw(st.sampled_from([0, 1, 3, None])))
    return g, cfg


def both_forms(g):
    """Run the enclosed search twice, with the cutoff patched to N and then
    to N - 1: first with the dense incident matrix, then with the CSR
    lists."""
    for cutoff in (g.n_nodes, g.n_nodes - 1):
        with mock.patch.object(optimizer, "_DENSE_MAX_N", cutoff):
            yield


def assert_same_fit(got, want):
    assert got.labels == want.labels
    assert float(got.value).hex() == float(want.value).hex()
    assert ([float(v).hex() for v in got.restart_values]
            == [float(v).hex() for v in want.restart_values])
    assert got.iterations == want.iterations
    assert got.restart_iterations == want.restart_iterations
    assert got.degenerate == want.degenerate
    assert got.objective is want.objective


@settings(max_examples=60, deadline=None)
@given(case=fit_cases(), obj=st.sampled_from(list(Objective)))
@example(case=(star(9), FitConfig(restarts=3, seed=5)), obj=Objective.ZW_MIN)
def test_greedy_fit_matches_reference(case, obj):
    g, cfg = case
    if obj not in _Z_FAMILY and g.n_edges == 0:
        for fit in (greedy_fit, reference_greedy_fit):
            with pytest.raises(ValueError):
                fit(g, obj, cfg)
        return
    want = reference_greedy_fit(g, obj, cfg)
    for _ in both_forms(g):
        assert_same_fit(greedy_fit(g, obj, cfg), want)


@settings(max_examples=40, deadline=None)
@given(case=fit_cases())
@example(case=(star(12), FitConfig(restarts=4, seed=1)))
@example(case=(cycle(11, True), FitConfig(restarts=4, seed=1, max_iters=3)))
def test_fit_all_candidates_matches_reference(case):
    g, cfg = case
    want = {kind: reference_greedy_fit(g, Objective(kind), cfg)
            for kind in CANDIDATE_KINDS}
    for _ in both_forms(g):
        fits = fit_all_candidates(g, cfg)
        for kind in CANDIDATE_KINDS:
            assert_same_fit(fits[kind], want[kind])


# The slots m1 + 1 and m1 - 1 of an N/2 split have equal sd and opposite
# mu, so the best add and the best removal tie exactly when their degrees
# sum to 4|E| / N.  Both graphs below are undirected with N = 8, from the
# same warm start: in the first the add (node 5) has the lower index, in
# the second the removal (node 1).
TIE_START = [0, 1, 1, 1, 0, 0, 0, 1]
TIE_CASES = {
    "add-lower": ([(0, 6), (1, 3), (1, 5), (2, 3), (3, 5), (5, 6)], 5, 7),
    "removal-lower": ([(0, 3), (0, 5), (1, 4), (2, 3), (3, 4), (3, 7),
                       (4, 7), (5, 7)], 4, 1),
}


@pytest.mark.parametrize("case", sorted(TIE_CASES))
@pytest.mark.parametrize("max_iters", [1, None])
def test_zd_cross_side_tie_goes_to_the_lower_index(case, max_iters):
    edges, add, rem = TIE_CASES[case]
    g = Graph(8, edges, directed=False)
    start = np.array(TIE_START, dtype=np.int8)

    def flipped(i):
        lab = start.copy()
        lab[i] ^= 1
        return lab

    values = [z_d(g, flipped(i)) for i in range(8)]
    best = max(values)
    assert best > z_d(g, start)
    # the best flips of each side, lowest index first
    tied = [i for i in range(8) if values[i] == best]
    assert min(i for i in tied if start[i] == 0) == add
    assert min(i for i in tied if start[i] == 1) == rem
    cfg = FitConfig(restarts=1, warm_start=start, max_iters=max_iters)
    want = reference_greedy_fit(g, Objective.ZD_MAX, cfg)
    for _ in both_forms(g):
        assert_same_fit(greedy_fit(g, Objective.ZD_MAX, cfg), want)


def test_zd_by_degree_order_on_a_large_graph():
    """One restart on a sparse directed graph of 2,500 nodes, long enough
    for the periodic audit to fire: degree order, then the lane kernel."""
    n = 2500
    rng = np.random.default_rng(2500)
    e = rng.integers(0, n, size=(4 * n, 2))
    g = Graph(n, np.unique(e[e[:, 0] != e[:, 1]], axis=0), directed=True)
    cfg = FitConfig(restarts=1, seed=4)
    fit = greedy_fit(g, Objective.ZD_MAX, cfg)
    assert fit.iterations > optimizer._CHECK_EVERY
    with mock.patch.object(optimizer, "_DENSE_MAX_N", n):
        assert_same_fit(fit, greedy_fit(g, Objective.ZD_MAX, cfg))
