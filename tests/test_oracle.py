import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicomm.edgestats import perm_null_moments, within_counts
from bicomm.genmodels import ConnectivityMatrix, sample_sbm
from bicomm.graph import Graph, graph_constants
from bicomm.oracle import (enumerate_null_moments, expected_counts_sbm,
                           expected_edge_total, verify_theorem_2_3)


def random_graph(rng, n, directed, p=0.4):
    a = rng.random((n, n)) < p
    np.fill_diagonal(a, False)
    if not directed:
        a = np.triu(a)
    return Graph(n, np.argwhere(a), directed)


def test_enumeration_hand_values():
    cyc = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], directed=False)
    mean_rw, var_rw, mean_rd, var_rd = enumerate_null_moments(cyc, 2)
    assert mean_rw == pytest.approx(2 / 3)
    assert var_rw == pytest.approx(2 / 9)
    path = Graph(4, [(0, 1), (1, 2), (2, 3)], directed=False)
    mean_rw, var_rw, mean_rd, var_rd = enumerate_null_moments(path, 2)
    assert mean_rd == pytest.approx(0.0)
    assert var_rd == pytest.approx(1 / 3)
    empty = Graph(5, [], directed=False)
    assert enumerate_null_moments(empty, 2) == (0.0, 0.0, 0.0, 0.0)


def test_enumeration_bounds():
    g = Graph(13, [(0, 1)], directed=False)
    with pytest.raises(ValueError):
        enumerate_null_moments(g, 4)
    g = Graph(6, [(0, 1)], directed=False)
    with pytest.raises(ValueError):
        enumerate_null_moments(g, 1)


def test_closed_forms_match_enumeration():
    # the load-bearing check of the moment formulas, including the q2 reading
    rng = np.random.default_rng(11)
    for directed in (True, False):
        for _ in range(25):
            n = int(rng.integers(5, 9))
            g = random_graph(rng, n, directed)
            c = graph_constants(g)
            for m_x in range(2, n - 1):
                mom = perm_null_moments(c, m_x, n - m_x)
                mean_rw, var_rw, mean_rd, var_rd = enumerate_null_moments(g, m_x)
                for closed, exact in ((mom.mu_w, mean_rw), (mom.var_w, var_rw),
                                      (mom.mu_d, mean_rd), (mom.var_d, var_rd)):
                    assert abs(closed - exact) <= 1e-9 * (1 + abs(exact))


@settings(max_examples=120, deadline=None)
@given(n=st.integers(4, 9), directed=st.booleans(),
       density=st.sampled_from([0.0, 0.15, 0.4, 0.7, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_closed_forms_match_enumeration_random(n, directed, density, seed):
    """perm_null_moments against a full enumeration of the assignments with
    m_x ones, for every m_x, on random graphs up to 9 nodes; degenerate
    variances are the ones the enumeration finds (near) zero."""
    g = random_graph(np.random.default_rng(seed), n, directed, p=density)
    c = graph_constants(g)
    for m_x in range(2, n - 1):
        mom = perm_null_moments(c, m_x, n - m_x)
        mean_rw, var_rw, mean_rd, var_rd = enumerate_null_moments(g, m_x)
        scale = 1.0 + c.g_size * c.g_size
        for closed, exact in ((mom.mu_w, mean_rw), (mom.mu_d, mean_rd),
                              (mom.var_w, var_rw), (mom.var_d, var_rd)):
            assert abs(closed - exact) <= 1e-9 * scale
        for degenerate, exact in ((mom.degenerate_w, var_rw),
                                  (mom.degenerate_d, var_rd)):
            assert degenerate == (exact < 1e-9 * scale)


def unfactored_centered(p, m, n, d1, d2, directed):
    """E(R_d - mu_d) and E(R_w - mu_w) assembled from the raw pieces."""
    e_r1, e_r2, _, _ = expected_counts_sbm(p, m, n, d1, d2, directed)
    tot = expected_edge_total(p, m, n, directed)
    big_n = m + n
    m_x = m - d1 + d2
    n_x = big_n - m_x
    e_mu_d = (m_x - n_x) / big_n * tot
    e_mu_w = (m_x - 1) * (n_x - 1) / ((big_n - 1) * (big_n - 2)) * tot
    e_rw = ((n_x - 1) * e_r1 + (m_x - 1) * e_r2) / (big_n - 2)
    return e_r1 - e_r2 - e_mu_d, e_rw - e_mu_w


def test_factored_forms_equal_unfactored():
    rng = np.random.default_rng(12)
    for _ in range(100):
        m = int(rng.integers(2, 12))
        n = int(rng.integers(2, 12))
        directed = bool(rng.integers(2))
        vals = rng.random(4)
        if not directed:
            vals[2] = vals[1]
        p = ConnectivityMatrix(*vals)
        d1 = int(rng.integers(0, m + 1))
        d2 = int(rng.integers(0, n + 1))
        _, _, rdc, rwc = expected_counts_sbm(p, m, n, d1, d2, directed)
        rdc2, rwc2 = unfactored_centered(p, m, n, d1, d2, directed)
        assert rdc == pytest.approx(rdc2, abs=1e-10 * (1 + abs(rdc2)))
        assert rwc == pytest.approx(rwc2, abs=1e-10 * (1 + abs(rwc2)))


def test_expected_counts_corner_values():
    p = ConnectivityMatrix(0.5, 0.3, 0.3, 0.1)
    m, n = 7, 5
    _, _, rdc0, rwc0 = expected_counts_sbm(p, m, n, 0, 0, True)
    assert rdc0 == pytest.approx(
        m * n / (m + n) * (2 * (m - 1) * 0.5 - 2 * (n - 1) * 0.1
                           - (m - n) * 0.6))
    big_n = m + n
    assert rwc0 == pytest.approx(
        m * n * (m - 1) * (n - 1) / ((big_n - 1) * (big_n - 2)) * (0.6 - 0.6))
    # full swap flips the sign of the difference form, returns the weighted one
    _, _, rdc1, rwc1 = expected_counts_sbm(p, m, n, m, n, True)
    assert rdc1 == pytest.approx(-rdc0)
    assert rwc1 == pytest.approx(rwc0)


def test_expected_counts_domain():
    p = ConnectivityMatrix(0.5, 0.3, 0.3, 0.1)
    with pytest.raises(ValueError):
        expected_counts_sbm(p, 4, 4, 5, 0, True)
    with pytest.raises(ValueError):
        expected_counts_sbm(ConnectivityMatrix(0.5, 0.4, 0.3, 0.1),
                            4, 4, 0, 0, False)


def test_e_r1_matches_monte_carlo():
    p = ConnectivityMatrix(0.6, 0.2, 0.2, 0.4)
    m, n, d1, d2 = 6, 6, 2, 1
    rng = np.random.default_rng(100)
    lab = np.ones(m + n, dtype=np.int8)
    lab[m:] = 0
    lab[:d1] = 0       # d1 community-1 nodes sent to group 0
    lab[m:m + d2] = 1  # d2 community-0 nodes sent to group 1
    draws = []
    for _ in range(10000):
        pg = sample_sbm(p, m, n, True, rng)
        r1, _ = within_counts(pg.graph, lab)
        draws.append(r1)
    e_r1, _, _, _ = expected_counts_sbm(p, m, n, d1, d2, True)
    se = np.std(draws) / np.sqrt(len(draws))
    assert abs(np.mean(draws) - e_r1) <= 3 * se + 1e-9


def test_theorem_grid_examples():
    assort = verify_theorem_2_3(ConnectivityMatrix(0.5, 0.3, 0.3, 0.5), 10, 10)
    assert assort.w_condition > 0
    assert assort.w_raw_at_truth and assort.w_ratio_at_truth
    assert assort.d_raw_at_truth is None  # balanced symmetric: no drift signal

    disassort = verify_theorem_2_3(ConnectivityMatrix(0.3, 0.5, 0.5, 0.3), 10, 10)
    assert disassort.w_condition < 0
    assert disassort.w_raw_at_truth and disassort.w_ratio_at_truth

    cp = verify_theorem_2_3(ConnectivityMatrix(0.5, 0.3, 0.3, 0.1), 10, 10)
    assert cp.d_condition != 0
    assert cp.d_raw_at_truth and cp.d_ratio_at_truth
    assert cp.w_raw_at_truth is None  # tau numerator vanishes here

    with pytest.raises(ValueError):
        verify_theorem_2_3(ConnectivityMatrix(0.5, 0.3, 0.3, 0.1), 31, 5)
