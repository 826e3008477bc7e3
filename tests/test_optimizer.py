import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from bicomm import optimizer
from bicomm.edgestats import Partition, modularity_q, z_d, z_w
from bicomm.genmodels import ConnectivityMatrix, sample_sbm
from bicomm.graph import Graph, graph_constants
from bicomm.optimizer import (FitConfig, Objective, exhaustive_fit,
                              fit_all_candidates, greedy_fit)


def two_cliques(k=5, bridge=True):
    edges = [(i, j) for b in (0, k) for i in range(b, b + k)
             for j in range(i + 1, b + k)]
    if bridge:
        edges.append((k - 1, k))
    return Graph(2 * k, edges, directed=False)


def aligned_error(truth, labels):
    t = np.asarray(truth)
    e = labels.labels if isinstance(labels, Partition) else np.asarray(labels)
    mism = int(np.count_nonzero(t != e))
    return min(mism, t.size - mism)


def test_clique_split_recovered():
    g = two_cliques()
    fit = greedy_fit(g, Objective.ZW_MAX, FitConfig(restarts=20, seed=0))
    assert aligned_error([1] * 5 + [0] * 5, fit.labels) == 0
    ex = exhaustive_fit(g, Objective.ZW_MAX)
    assert fit.value == pytest.approx(ex.value, abs=1e-9)


def test_bipartite_sides_found_by_zw_min():
    g = Graph(10, [(i, j + 5) for i in range(5) for j in range(5)],
              directed=False)
    fit = greedy_fit(g, Objective.ZW_MIN, FitConfig(restarts=10, seed=3))
    assert aligned_error([1] * 5 + [0] * 5, fit.labels) == 0
    # the maximized value is -Z_w, so Z_w at the labels is its negative
    assert z_w(g, fit.labels) == pytest.approx(-fit.value)


def test_result_value_is_objective_at_labels():
    rng = np.random.default_rng(5)
    pg = sample_sbm(ConnectivityMatrix(0.7, 0.2, 0.2, 0.7), 8, 8, False, rng)
    for obj, fn in [(Objective.ZW_MAX, z_w), (Objective.ZD_MAX, z_d),
                    (Objective.Q_MAX, modularity_q)]:
        fit = greedy_fit(pg.graph, obj, FitConfig(restarts=5, seed=1))
        assert fit.value == pytest.approx(fn(pg.graph, fit.labels), abs=1e-9)
        assert fit.value == pytest.approx(max(fit.restart_values), abs=1e-12)


def test_determinism():
    rng = np.random.default_rng(8)
    pg = sample_sbm(ConnectivityMatrix(0.6, 0.2, 0.2, 0.6), 10, 10, True, rng)
    cfg = FitConfig(restarts=7, seed=123)
    a = greedy_fit(pg.graph, Objective.ZW_MAX, cfg)
    b = greedy_fit(pg.graph, Objective.ZW_MAX, cfg)
    assert a.labels == b.labels
    assert a.value == b.value
    assert a.restart_values == b.restart_values
    assert a.iterations == b.iterations


def test_warm_start_at_local_optimum_stays_put():
    g = two_cliques()
    truth = Partition([1] * 5 + [0] * 5)
    cfg = FitConfig(restarts=1, seed=0, warm_start=truth)
    fit = greedy_fit(g, Objective.ZW_MAX, cfg)
    assert fit.iterations == 0
    assert fit.labels == truth
    assert fit.value >= z_w(g, truth) - 1e-12


def test_warm_start_validation():
    g = two_cliques()
    with pytest.raises(ValueError):
        greedy_fit(g, Objective.ZW_MAX,
                   FitConfig(warm_start=Partition([1] * 9 + [0])))
    with pytest.raises(ValueError):
        greedy_fit(g, Objective.ZW_MAX,
                   FitConfig(warm_start=Partition([1, 0] + [0] * 7)))


def test_min_group_respected():
    rng = np.random.default_rng(2)
    pg = sample_sbm(ConnectivityMatrix(0.9, 0.05, 0.05, 0.9), 6, 6, False, rng)
    for min_group in (2, 3, 4):
        fit = greedy_fit(pg.graph, Objective.ZW_MAX,
                         FitConfig(restarts=8, seed=0, min_group=min_group))
        m = fit.labels.m_x
        assert min_group <= m <= 12 - min_group


def test_too_small_graph_refused():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)], directed=False)
    with pytest.raises(ValueError):
        greedy_fit(g, Objective.ZW_MAX)


def test_degenerate_everywhere_flagged():
    empty = Graph(6, [], directed=False)
    fit = greedy_fit(empty, Objective.ZD_MAX, FitConfig(restarts=3, seed=0))
    assert fit.degenerate
    assert fit.value == 0.0
    assert fit.restart_values == [0.0, 0.0, 0.0]
    ex = exhaustive_fit(empty, Objective.ZW_MAX)
    assert ex.degenerate and ex.value == 0.0
    with pytest.raises(ValueError):
        greedy_fit(empty, Objective.Q_MAX)


def test_exhaustive_limits_and_ties():
    g = Graph(21, [(0, 1)], directed=False)
    with pytest.raises(ValueError):
        exhaustive_fit(g, Objective.ZW_MAX)
    # complement ties resolve to the lexicographically smaller vector
    g = two_cliques()
    ex = exhaustive_fit(g, Objective.ZW_MAX)
    comp = ex.labels.complement()
    assert z_w(g, comp) == pytest.approx(ex.value)
    assert tuple(ex.labels.labels) < tuple(comp.labels)


def test_exhaustive_zd_picks_positive_sign():
    rng = np.random.default_rng(6)
    pg = sample_sbm(ConnectivityMatrix(0.8, 0.3, 0.3, 0.1), 5, 5, False, rng)
    ex = exhaustive_fit(pg.graph, Objective.ZD_MAX)
    assert z_d(pg.graph, ex.labels) == pytest.approx(ex.value)
    assert ex.value >= 0  # antisymmetry means the max is never negative


def test_greedy_matches_exhaustive_on_path():
    g = Graph(6, [(i, i + 1) for i in range(5)], directed=False)
    ex = exhaustive_fit(g, Objective.ZD_MAX)
    hits = 0
    for trial in range(20):
        fit = greedy_fit(g, Objective.ZD_MAX, FitConfig(restarts=50, seed=trial))
        assert fit.value <= ex.value + 1e-9
        hits += fit.value == pytest.approx(ex.value, abs=1e-9)
    assert hits >= 19


def test_fit_all_candidates_keys():
    rng = np.random.default_rng(1)
    pg = sample_sbm(ConnectivityMatrix(0.6, 0.2, 0.2, 0.6), 8, 8, False, rng)
    fits = fit_all_candidates(pg.graph, FitConfig(restarts=4, seed=0))
    assert set(fits) == {"zw-max", "zw-min", "zd"}
    assert all(f.objective is Objective(k) for k, f in fits.items())


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(restarts=0)
    with pytest.raises(ValueError):
        FitConfig(min_group=1)
    with pytest.raises(ValueError):
        FitConfig(seed=-1)
    with pytest.raises(ValueError, match="max_iters must be >= 0"):
        FitConfig(max_iters=-1)


def test_restart_iterations_per_restart():
    rng = np.random.default_rng(4)
    pg = sample_sbm(ConnectivityMatrix(0.6, 0.2, 0.2, 0.6), 10, 10, True, rng)
    fit = greedy_fit(pg.graph, Objective.ZW_MAX, FitConfig(restarts=6, seed=2))
    assert len(fit.restart_iterations) == 6
    assert sum(fit.restart_iterations) == fit.iterations > 0
    capped = greedy_fit(pg.graph, Objective.ZW_MAX,
                        FitConfig(restarts=6, seed=2, max_iters=2))
    assert capped.restart_iterations == [min(2, i) for i in fit.restart_iterations]
    empty = greedy_fit(Graph(6, [], directed=False), Objective.ZD_MAX,
                       FitConfig(restarts=3))
    assert empty.restart_iterations == [0, 0, 0]


@pytest.mark.parametrize("directed", [False, True],
                         ids=["undirected", "directed"])
def test_drift_audit_checks_every_lane(directed, monkeypatch):
    rng = np.random.default_rng(11)
    pg = sample_sbm(ConnectivityMatrix(0.6, 0.2, 0.2, 0.6), 12, 12, directed,
                    rng)
    honest = optimizer.within_counts
    audited = []

    def counting(g, x):
        audited.append(1)
        return honest(g, x)

    monkeypatch.setattr(optimizer, "_CHECK_EVERY", 1)
    monkeypatch.setattr(optimizer, "within_counts", counting)
    n = pg.graph.n_nodes  # the dense incident matrix, then the CSR lists
    for cutoff in (n, n - 1):
        monkeypatch.setattr(optimizer, "_DENSE_MAX_N", cutoff)
        audited.clear()
        fits = fit_all_candidates(pg.graph, FitConfig(restarts=5, seed=3))
        # one recount per lane per flip
        assert len(audited) == sum(f.iterations for f in fits.values()) > 0
        # the modularity lanes, audited exactly against _q_values of the
        # recount (qd makes no flip, so it has no audit to check)
        audited.clear()
        fit = greedy_fit(pg.graph, Objective.Q_MAX,
                         FitConfig(restarts=5, seed=3))
        assert len(audited) == fit.iterations > 0
    # Z_d alone, by degree order (the cutoff is still N - 1), then Z_w on
    # exact flip keys
    monkeypatch.setattr(optimizer, "_SERIAL_MIN_N", n)
    for obj in (Objective.ZD_MAX, Objective.ZW_MAX, Objective.ZW_MIN):
        audited.clear()
        fit = greedy_fit(pg.graph, obj, FitConfig(restarts=5, seed=3))
        assert len(audited) == fit.iterations > 0


@pytest.mark.parametrize("directed", [False, True],
                         ids=["undirected", "directed"])
def test_drift_audit_catches_miscount(directed, monkeypatch):
    rng = np.random.default_rng(11)
    pg = sample_sbm(ConnectivityMatrix(0.6, 0.2, 0.2, 0.6), 12, 12, directed,
                    rng)
    honest = optimizer.within_counts

    def off_by_one(g, x):
        r1, r2 = honest(g, x)
        return r1 + 1, r2

    monkeypatch.setattr(optimizer, "_CHECK_EVERY", 1)
    monkeypatch.setattr(optimizer, "within_counts", off_by_one)
    n = pg.graph.n_nodes  # the dense incident matrix, then the CSR lists
    for cutoff in (n, n - 1):
        monkeypatch.setattr(optimizer, "_DENSE_MAX_N", cutoff)
        with pytest.raises(RuntimeError, match="drifted"):
            fit_all_candidates(pg.graph, FitConfig(restarts=5, seed=3))
        with pytest.raises(RuntimeError, match="drifted"):
            greedy_fit(pg.graph, Objective.Q_MAX, FitConfig(restarts=5, seed=3))
    # Z_d alone, by degree order (the cutoff is still N - 1), then Z_w on
    # exact flip keys
    monkeypatch.setattr(optimizer, "_SERIAL_MIN_N", n)
    for obj in (Objective.ZD_MAX, Objective.ZW_MAX, Objective.ZW_MIN):
        with pytest.raises(RuntimeError, match="drifted"):
            greedy_fit(pg.graph, obj, FitConfig(restarts=5, seed=3))


@pytest.mark.parametrize("obj", list(Objective), ids=lambda o: o.value)
def test_audit_demands_exact_equality(obj):
    """The audit accepts a fit's own value at its labels and refuses that
    value one unit in the last place off, either way, for every
    objective."""
    rng = np.random.default_rng(4)
    g = sample_sbm(ConnectivityMatrix(0.6, 0.2, 0.2, 0.6), 12, 12, False,
                   rng).graph
    fit = greedy_fit(g, obj, FitConfig(restarts=1, seed=2))
    lab, c = fit.labels.labels, graph_constants(g)

    def audit(cur):
        optimizer._audit(g, lab, obj, c, cur, lambda r1, r2: True)

    audit(fit.value)
    for off in (np.inf, -np.inf):
        with pytest.raises(RuntimeError, match="drifted"):
            audit(float(np.nextafter(fit.value, off)))


def test_value_is_the_statistic_at_its_labels_above_n_9743():
    """Far above N = 9,743 a fit's value is still z_w, -z_w or z_d of its
    labels bit for bit: the search's tables and the scalar statistics share
    one moment coding."""
    g = sparse_graph(12000, 6, seed=1)
    c = graph_constants(g)
    for obj, fn, sign in [(Objective.ZW_MAX, z_w, 1), (Objective.ZW_MIN, z_w, -1),
                          (Objective.ZD_MAX, z_d, 1)]:
        fit = greedy_fit(g, obj, FitConfig(restarts=1, seed=0))
        assert fit.value == sign * fn(g, fit.labels, c)


def test_search_kernel_is_the_statistic_above_n_9743():
    """The search's Z kernel on its coefficient table equals z_w, -z_w or
    z_d bit for bit on random labelings of an N = 30,000 graph, where
    scalar moments divided as exact integers would differ from it on about
    a quarter of them."""
    n = 30000
    g = sparse_graph(n, 6, seed=1)
    c = graph_constants(g)
    objs = [Objective.ZW_MAX, Objective.ZW_MIN, Objective.ZD_MAX]
    coef, scales = optimizer._z_coefficients(objs, c, 2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        lab = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(np.int8)
        m = int(lab.sum())
        r1, r2 = optimizer.within_counts(g, lab)
        zw = z_w(g, lab, c)
        for k, want in enumerate([zw, -zw, z_d(g, lab, c)]):
            slot = k * (n + 3) + 1 + m  # slot 1 + m of block k
            got = optimizer._z_at(coef, scales[k], slot, float(r1), float(r2))
            assert float(got) == want


def sparse_graph(n, mean_degree, seed):
    """A directed random graph with about n * mean_degree / 2 edges, drawn
    without an n x n array."""
    rng = np.random.default_rng(seed)
    e = rng.integers(0, n, size=(n * mean_degree // 2, 2))
    return Graph(n, np.unique(e[e[:, 0] != e[:, 1]], axis=0), directed=True)


@pytest.mark.parametrize("n, share", [(optimizer._DENSE_MAX_N + 1, 0.75),
                                      (3000, 1 / 16)])
def test_no_dense_matrix_past_the_cutoff(n, share):
    """Above _DENSE_MAX_N nodes the search walks the CSR lists: its peak
    stays a fraction of the N^2 * 8 bytes of the dense incident matrix,
    which the dense form allocates twice over (counts, then float64).  Just
    above the cutoff the O(N) tables alone peak near half of N^2 * 8."""
    g = sparse_graph(n, 6, seed=n)
    g.incidence()  # cached by the graph, not allocated by the search
    tracemalloc.start()
    try:
        fit_all_candidates(g, FitConfig(restarts=1, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < share * n * n * 8


# -- candidate workers ------------------------------------------------------
# The worker-path tests force the fork gate open; on a host with one
# available CPU the same tests run the serial fallback.

@pytest.fixture
def forked(monkeypatch):
    monkeypatch.setattr(optimizer, "_FORK_MIN_N", 0)


def circulant(n, offsets):
    """Undirected regular graph: node i joined to i + k mod n for each k."""
    return Graph(n, [(i, (i + k) % n) for i in range(n) for k in offsets],
                 directed=False)


def worker_cases():
    rng = np.random.default_rng(21)
    directed = sample_sbm(ConnectivityMatrix(0.5, 0.2, 0.25, 0.4), 15, 17,
                          True, rng).graph
    undirected = sample_sbm(ConnectivityMatrix(0.2, 0.5, 0.5, 0.3), 16, 14,
                            False, rng).graph
    warm = Partition(np.arange(directed.n_nodes) % 2)
    return {
        "directed": (directed, FitConfig(restarts=4, seed=7)),
        "undirected": (undirected, FitConfig(restarts=4, seed=7)),
        # a regular graph: R1 - R2 is fixed by the group sizes, so Z_d is
        # degenerate
        "degenerate-zd": (circulant(30, (1, 2, 5)), FitConfig(restarts=3)),
        "warm-start": (directed, FitConfig(restarts=3, seed=2,
                                           warm_start=warm)),
    }


def fit_fields(fits):
    return {kind: (f.labels.labels.tobytes(), float(f.value).hex(),
                   [float(v).hex() for v in f.restart_values],
                   f.iterations, f.restart_iterations, f.degenerate,
                   f.objective)
            for kind, f in fits.items()}


@pytest.mark.parametrize("case", ["directed", "undirected", "degenerate-zd",
                                  "warm-start"])
def test_worker_path_fits_match_serial(case, monkeypatch):
    g, cfg = worker_cases()[case]
    serial = fit_all_candidates(g, cfg)
    monkeypatch.setattr(optimizer, "_FORK_MIN_N", 0)
    forked = fit_all_candidates(g, cfg)
    assert list(forked) == list(serial)
    assert fit_fields(forked) == fit_fields(serial)
    assert all(not f.labels.labels.flags.writeable for f in forked.values())
    if case == "degenerate-zd":
        assert forked["zd"].degenerate and not forked["zw-max"].degenerate
    assert multiprocessing.active_children() == []


def test_worker_path_reraises_in_candidate_order(forked, monkeypatch):
    """A worker's exception reaches the caller with its type and message;
    of several, the first in candidate order wins, the caller's own
    candidate included, and no worker outlives the call."""
    g, cfg = worker_cases()["directed"]
    honest = optimizer._lane_search

    def failing(bad):
        def search(g, objs, cfg):
            for obj in objs:
                if obj in bad:
                    raise bad[obj]
            return honest(g, objs, cfg)
        return search

    monkeypatch.setattr(optimizer, "_lane_search", failing({
        Objective.ZW_MIN: KeyError("zw-min failed"),
        Objective.ZD_MAX: ZeroDivisionError("zd failed")}))
    with pytest.raises(KeyError, match="zw-min failed"):
        fit_all_candidates(g, cfg)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(optimizer, "_lane_search", failing({
        Objective.ZD_MAX: ZeroDivisionError("zd failed")}))
    with pytest.raises(ZeroDivisionError, match="zd failed"):
        fit_all_candidates(g, cfg)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(optimizer, "_lane_search", failing({
        Objective.ZW_MAX: ValueError("zw-max failed"),
        Objective.ZD_MAX: ZeroDivisionError("zd failed")}))
    with pytest.raises(ValueError, match="zw-max failed"):
        fit_all_candidates(g, cfg)
    assert multiprocessing.active_children() == []


def test_worker_path_reports_a_silent_worker_death(forked, monkeypatch):
    g, cfg = worker_cases()["directed"]
    honest = optimizer._lane_search

    def dying(g, objs, cfg):
        if objs == [Objective.ZD_MAX] and os.getpid() != caller:
            os._exit(0)  # no result sent
        return honest(g, objs, cfg)

    caller = os.getpid()
    monkeypatch.setattr(optimizer, "_lane_search", dying)
    if optimizer._workers_usable(g.n_nodes):
        with pytest.raises(RuntimeError, match="without a result"):
            fit_all_candidates(g, cfg)
    else:
        fit_all_candidates(g, cfg)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="candidate workers need 2 available CPUs")
def test_workers_run_in_their_own_processes(forked):
    pids = optimizer._per_candidate(lambda _: os.getpid(), [0, 1, 2], 10)
    assert pids[0] == os.getpid()
    assert len(set(pids)) == 3
    assert multiprocessing.active_children() == []


def test_fork_gate_keeps_small_graphs_serial():
    # the 100-node graphs of a simulation study stay on the joint search
    assert not optimizer._workers_usable(100)
    assert not optimizer._workers_usable(optimizer._FORK_MIN_N - 1)
