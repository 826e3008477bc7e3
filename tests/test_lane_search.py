"""The lane kernel and the restart-by-restart Z searches against the
reference search, bit for bit, on random graphs and configs."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicomm import optimizer
from bicomm.edgestats import z_d, z_w
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
    """Run the enclosed search three times: with the dense-matrix cutoff
    patched to N (the dense incident matrix, Z_d a lane), then to N - 1
    (the CSR lists, Z_d by degree order), then also with the restart-by-
    restart gate patched to N (Z_w on exact flip keys as well)."""
    n = g.n_nodes
    for cutoff, serial in ((n, optimizer._SERIAL_MIN_N),
                           (n - 1, optimizer._SERIAL_MIN_N), (n - 1, n)):
        with mock.patch.object(optimizer, "_DENSE_MAX_N", cutoff), \
                mock.patch.object(optimizer, "_SERIAL_MIN_N", serial):
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
# two adds of equal degree: degree order must take the lower index
@example(case=(Graph(5, [(0, 1), (2, 3)], directed=False),
               FitConfig(restarts=1, seed=90)), obj=Objective.ZD_MAX)
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


def check_cross_side_tie(edges, obj, add, rem, max_iters):
    """From TIE_START on an undirected N = 8 graph, the best add and the
    best removal of ``obj`` tie exactly, the lowest indices of each side
    being ``add`` and ``rem``; every search form matches the reference."""
    g = Graph(8, edges, directed=False)
    start = np.array(TIE_START, dtype=np.int8)
    sign = -1 if obj is Objective.ZW_MIN else 1
    score = z_d if obj is Objective.ZD_MAX else z_w

    def value(i):
        lab = start.copy()
        lab[i] ^= 1
        return sign * score(g, lab)

    values = [value(i) for i in range(8)]
    best = max(values)
    assert best > sign * score(g, start)
    # the best flips of each side, lowest index first
    tied = [i for i in range(8) if values[i] == best]
    assert min(i for i in tied if start[i] == 0) == add
    assert min(i for i in tied if start[i] == 1) == rem
    cfg = FitConfig(restarts=1, warm_start=start, max_iters=max_iters)
    want = reference_greedy_fit(g, obj, cfg)
    for _ in both_forms(g):
        assert_same_fit(greedy_fit(g, obj, cfg), want)


@pytest.mark.parametrize("case", sorted(TIE_CASES))
@pytest.mark.parametrize("max_iters", [1, None])
def test_zd_cross_side_tie_goes_to_the_lower_index(case, max_iters):
    edges, add, rem = TIE_CASES[case]
    check_cross_side_tie(edges, Objective.ZD_MAX, add, rem, max_iters)


# The same holds for Z_w, whose T differs between the two slots.  On the
# graph below, the best zw-min add (node 4) ties the best removal (node
# 7) exactly, and the best zw-max removal (node 1) ties the best add (node
# 5).
ZW_TIE_EDGES = [(0, 6), (1, 5), (2, 7), (3, 5), (3, 7), (4, 5), (4, 6),
                (6, 7)]
ZW_TIE_CASES = {"add-lower": (Objective.ZW_MIN, 4, 7),
                "removal-lower": (Objective.ZW_MAX, 5, 1)}


@pytest.mark.parametrize("case", sorted(ZW_TIE_CASES))
@pytest.mark.parametrize("max_iters", [1, None])
def test_zw_cross_side_tie_goes_to_the_lower_index(case, max_iters):
    obj, add, rem = ZW_TIE_CASES[case]
    check_cross_side_tie(ZW_TIE_EDGES, obj, add, rem, max_iters)


def large_graph():
    """A sparse directed graph of 2,500 nodes."""
    n = 2500
    rng = np.random.default_rng(2500)
    e = rng.integers(0, n, size=(4 * n, 2))
    return Graph(n, np.unique(e[e[:, 0] != e[:, 1]], axis=0), directed=True)


def test_zd_by_degree_order_on_a_large_graph():
    """One restart on a sparse directed graph of 2,500 nodes, long enough
    for the periodic audit to fire: degree order, then the lane kernel."""
    g = large_graph()
    cfg = FitConfig(restarts=1, seed=4)
    fit = greedy_fit(g, Objective.ZD_MAX, cfg)
    assert fit.iterations > optimizer._CHECK_EVERY
    with mock.patch.object(optimizer, "_DENSE_MAX_N", g.n_nodes):
        assert_same_fit(fit, greedy_fit(g, Objective.ZD_MAX, cfg))


@pytest.mark.parametrize("obj", [Objective.ZW_MAX, Objective.ZW_MIN])
def test_zw_flip_keys_on_a_large_graph(obj):
    """The same graph and restart for Z_w: exact flip keys, then the lane
    kernel with the restart-by-restart gate above N."""
    g = large_graph()
    cfg = FitConfig(restarts=1, seed=4)
    assert g.n_nodes >= optimizer._SERIAL_MIN_N
    fit = greedy_fit(g, obj, cfg)
    assert fit.iterations > optimizer._CHECK_EVERY
    with mock.patch.object(optimizer, "_SERIAL_MIN_N", g.n_nodes + 1):
        assert_same_fit(fit, greedy_fit(g, obj, cfg))


def test_key_bound_keeps_the_flip_key_exact():
    """``_z_by_restart`` orders flips by T exactly while
    10 (N - 2)|E| < 2^53, which N |E| < _KEY_MAX must ensure."""
    assert 10 * optimizer._KEY_MAX <= 2 ** 53


def test_key_bound_sends_larger_graphs_to_the_lanes(monkeypatch):
    """Z_d and Z_w go restart by restart only while N |E| < _KEY_MAX; at
    the bound they run as lanes, with the same fit."""
    g = cycle(40, directed=True)
    g = Graph(40, np.vstack([g.edges, [(0, 20), (5, 30), (7, 13)]]),
              directed=True)
    monkeypatch.setattr(optimizer, "_DENSE_MAX_N", g.n_nodes - 1)
    monkeypatch.setattr(optimizer, "_SERIAL_MIN_N", g.n_nodes)
    honest = optimizer._z_by_restart
    fitted = []

    def spy(g, obj, *args):
        fitted.append(obj)
        return honest(g, obj, *args)

    monkeypatch.setattr(optimizer, "_z_by_restart", spy)
    cfg = FitConfig(restarts=3, seed=2)
    product = g.n_nodes * g.n_edges
    fits = {}
    for bound in (product + 1, product):
        monkeypatch.setattr(optimizer, "_KEY_MAX", bound)
        fitted.clear()
        fits[bound] = fit_all_candidates(g, cfg)
        assert fitted == (list(_Z_FAMILY) if bound > product else [])
    for kind in CANDIDATE_KINDS:
        assert_same_fit(fits[product][kind], fits[product + 1][kind])
