import numpy as np
import pytest

from bicomm.edgestats import within_counts
from bicomm.genmodels import (ConnectivityMatrix, ThetaSpec, sample_dcsbm,
                              sample_sbm)
from bicomm.graph import Graph
from bicomm.optimizer import FitResult, fit_all_candidates, FitConfig
from bicomm.selection import (BlockEstimates, DegenerateError,
                              _argmax_in_order, gamma_sq,
                              gamma_tau_select, estimate_block_probs,
                              penalized_loglik, penalized_select, tau_sq,
                              theta_mle)


def two_triangles():
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    return Graph(6, np.array(edges), directed=False)


def make_fit(labels, **kw):
    labels = np.asarray(labels, dtype=np.int8)
    kw.setdefault("value", 0.0)
    kw.setdefault("restart_values", [0.0])
    kw.setdefault("iterations", 0)
    return FitResult(labels=labels, **kw)


def test_block_probs_disjoint_triangles():
    est = estimate_block_probs(two_triangles(), [1, 1, 1, 0, 0, 0])
    assert est.p_hat.as_array().tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert est.pi_hat == (0.5, 0.5)
    assert est.sizes == (3, 3)


def test_block_probs_empty_and_directed():
    g = Graph(5, np.empty((0, 2), dtype=np.int64), directed=False)
    est = estimate_block_probs(g, [1, 1, 0, 0, 0])
    assert est.p_hat.as_array().tolist() == [[0.0, 0.0], [0.0, 0.0]]

    # all 6 possible 1->0 arcs, nothing else
    e = [(i, j) for i in (0, 1) for j in (2, 3, 4)]
    gd = Graph(5, np.array(e), directed=True)
    est = estimate_block_probs(gd, [1, 1, 0, 0, 0])
    assert est.p_hat.p12 == 1.0
    assert est.p_hat.p21 == 0.0
    assert est.p_hat.p11 == 0.0

    with pytest.raises(ValueError):
        estimate_block_probs(gd, [1, 0, 0, 0, 0])


def test_block_probs_concentrate_on_sbm():
    p = ConnectivityMatrix(0.7, 0.2, 0.2, 0.5)
    pg = sample_sbm(p, 60, 60, True, np.random.default_rng(8))
    est = estimate_block_probs(pg.graph, pg.truth.labels)
    assert np.allclose(est.p_hat.as_array(), p.as_array(), atol=0.05)


def signals(p_rows):
    est = BlockEstimates(p_hat=ConnectivityMatrix.from_rows(p_rows),
                         pi_hat=(0.5, 0.5), sizes=(5, 5))
    return gamma_sq(est), tau_sq(est)


def test_signal_values():
    # balanced assortative blocks: no core-periphery drift, strong sorting
    g2, t2 = signals([[0.5, 0.3], [0.3, 0.5]])
    assert g2 == pytest.approx(0.0, abs=1e-15)
    assert t2 == pytest.approx(0.32, abs=1e-12)
    # dense core, sparse periphery: the reverse
    g2, t2 = signals([[0.5, 0.3], [0.3, 0.1]])
    assert g2 == pytest.approx(0.32, abs=1e-12)
    assert t2 == pytest.approx(0.0, abs=1e-15)
    # empty: both zero (no division by a zero max)
    assert signals([[0, 0], [0, 0]]) == (0.0, 0.0)


def test_signals_invariant_under_group_swap():
    rng = np.random.default_rng(9)
    for _ in range(25):
        p = rng.random(4)
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        est = BlockEstimates(ConnectivityMatrix(*p), (m / (m + n), n / (m + n)),
                             (m, n))
        swapped = BlockEstimates(
            ConnectivityMatrix(p[3], p[2], p[1], p[0]),
            (n / (m + n), m / (m + n)), (n, m))
        assert gamma_sq(est) == pytest.approx(gamma_sq(swapped), rel=1e-12)
        assert tau_sq(est) == pytest.approx(tau_sq(swapped), rel=1e-12)


def test_theta_mle_regular_graph():
    g = Graph(4, np.array([(0, 1), (1, 2), (2, 3), (0, 3)]), directed=False)
    th = theta_mle(g, [1, 1, 0, 0])
    assert th.theta_hat.tolist() == [1.0] * 4
    assert th.var_block1 == 0.0 and th.var_block2 == 0.0


def test_theta_mle_star_block():
    # block 1 holds the hub (degree 3) and one leaf (degree 1)
    g = Graph(4, np.array([(0, 1), (0, 2), (0, 3)]), directed=False)
    th = theta_mle(g, [1, 1, 0, 0])
    assert th.theta_hat[:2].tolist() == [1.5, 0.5]
    assert th.var_block1 == pytest.approx(0.25)
    assert th.var_block2 == 0.0
    # each block's multipliers average to one
    assert th.theta_hat[:2].mean() == pytest.approx(1.0)
    assert th.theta_hat[2:].mean() == pytest.approx(1.0)


def test_theta_mle_directed_uses_total_degree():
    g = Graph(3, np.array([(0, 1), (1, 0), (0, 2)]), directed=True)
    th = theta_mle(g, [1, 1, 0])
    assert th.theta_hat.tolist() == [1.2, 0.8, 1.0]
    assert th.var_block1 == pytest.approx(0.04)
    assert th.var_block2 == 0.0


def test_theta_mle_zero_degree_block():
    g = Graph(5, np.array([(0, 1), (1, 2), (0, 2)]), directed=False)
    th = theta_mle(g, [1, 1, 1, 0, 0])
    assert th.theta_hat[3:].tolist() == [1.0, 1.0]
    assert th.var_block2 == 0.0


def test_penalty_vanishes_for_homogeneous_blocks():
    g = two_triangles()
    x = [1, 1, 1, 0, 0, 0]
    assert penalized_loglik(g, x, lam=0.0) == penalized_loglik(g, x, lam=5.0)


def test_penalty_forms_match_hand_computation():
    # heterogeneous degrees so both block variances are positive
    g = Graph(6, np.array([(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (1, 2)]),
              directed=False)
    x = [1, 1, 1, 0, 0, 0]
    th = theta_mle(g, x)
    base = penalized_loglik(g, x, lam=0.0)
    lam = 0.3
    r1, r2 = within_counts(g, x)
    expect_w = lam * (th.var_block1 + th.var_block2) * g.n_edges
    expect_d = lam * max(th.var_block1 * r1, th.var_block2 * r2)
    assert penalized_loglik(g, x, lam=lam, kind="zw-max") == pytest.approx(
        base - expect_w, rel=1e-12)
    assert penalized_loglik(g, x, lam=lam, kind="zw-min") == pytest.approx(
        base - expect_w, rel=1e-12)
    assert penalized_loglik(g, x, lam=lam, kind="zd") == pytest.approx(
        base - expect_d, rel=1e-12)
    assert expect_w > 0 and expect_d > 0


def test_penalized_loglik_argument_validation():
    g = two_triangles()
    with pytest.raises(ValueError):
        penalized_loglik(g, [1, 1, 1, 0, 0, 0], lam=-0.1)
    with pytest.raises(ValueError):
        penalized_loglik(g, [1, 1, 1, 0, 0, 0], kind="modularity")


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_lambda_is_rejected(lam):
    g = two_triangles()
    with pytest.raises(ValueError, match="finite"):
        penalized_loglik(g, [1, 1, 1, 0, 0, 0], lam=lam)
    same = make_fit([1, 1, 1, 0, 0, 0])
    with pytest.raises(ValueError, match="finite"):
        penalized_select(g, {k: same for k in ("zw-max", "zw-min", "zd")},
                         lam=lam)


def test_overflowing_lambda_keeps_the_first_candidate():
    # heterogeneous multipliers: a finite lambda this large overflows every
    # penalty to inf, so every score is -inf
    pg = sample_dcsbm(ConnectivityMatrix(0.5, 0.1, 0.1, 0.5), 10, 10,
                      ThetaSpec.pareto(3), False, np.random.default_rng(0))
    cands = fit_all_candidates(pg.graph, FitConfig(restarts=3, seed=0))
    out = penalized_select(pg.graph, cands, lam=1e308)
    assert set(out.scores.pen_loglik.values()) == {-np.inf}
    assert (out.selected, out.tied) == ("zw-max", True)
    assert _argmax_in_order({"zd": -np.inf, "zw-min": -np.inf}) == ("zw-min", True)
    assert _argmax_in_order({"zd": -np.inf}) == ("zd", False)
    assert _argmax_in_order({"zd": -np.inf, "zw-min": -1.0}) == ("zw-min", False)


def test_truth_beats_random_splits_on_cliques():
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
    g = Graph(10, np.array(edges), directed=False)
    truth = np.array([1] * 5 + [0] * 5, dtype=np.int8)
    best = penalized_loglik(g, truth)
    rng = np.random.default_rng(10)
    for _ in range(100):
        x = np.zeros(10, dtype=np.int8)
        x[rng.choice(10, size=5, replace=False)] = 1
        if np.array_equal(x, truth) or np.array_equal(x, 1 - truth):
            continue
        assert penalized_loglik(g, x) < best


def test_gamma_tau_picks_matching_signal():
    sym = ConnectivityMatrix(0.6, 0.1, 0.1, 0.6)
    pg = sample_sbm(sym, 20, 20, False, np.random.default_rng(3))
    cands = fit_all_candidates(pg.graph, FitConfig(restarts=8, seed=1))
    out = gamma_tau_select(pg.graph, cands)
    assert out.selected == "zw-max"
    assert out.criterion == "gamma-tau"
    assert out.scores.n_tau_sq_max > out.scores.n_gamma_sq

    core = ConnectivityMatrix(0.75, 0.3, 0.3, 0.05)
    pg = sample_sbm(core, 20, 20, False, np.random.default_rng(4))
    cands = fit_all_candidates(pg.graph, FitConfig(restarts=8, seed=1))
    out = gamma_tau_select(pg.graph, cands)
    assert out.selected == "zd"


def test_penalized_picks_matching_signal():
    sym = ConnectivityMatrix(0.6, 0.1, 0.1, 0.6)
    pg = sample_sbm(sym, 20, 20, False, np.random.default_rng(3))
    cands = fit_all_candidates(pg.graph, FitConfig(restarts=8, seed=1))
    out = penalized_select(pg.graph, cands)
    assert out.selected == "zw-max"
    assert out.criterion == "penalized"
    assert out.scores.lam == 0.12
    assert set(out.scores.pen_loglik) == {"zw-max", "zw-min", "zd"}
    with pytest.raises(ValueError):
        penalized_select(pg.graph, cands, lam=-1.0)


def test_degenerate_candidates_excluded():
    g = two_triangles()
    lab = [1, 1, 1, 0, 0, 0]
    good = make_fit(lab)
    bad = make_fit(lab, degenerate=True)
    cands = {"zw-max": bad, "zw-min": good, "zd": good}
    out = gamma_tau_select(g, cands)
    assert out.excluded == ("zw-max",)
    assert out.selected == "zw-min"
    assert out.scores.n_tau_sq_max is None

    all_bad = {k: bad for k in ("zw-max", "zw-min", "zd")}
    with pytest.raises(DegenerateError):
        gamma_tau_select(g, all_bad)
    with pytest.raises(DegenerateError):
        penalized_select(g, all_bad)

    with pytest.raises(ValueError):
        gamma_tau_select(g, {"zw-max": good})


def test_tied_candidates_flagged_and_first_kept():
    g = two_triangles()
    same = make_fit([1, 1, 1, 0, 0, 0])
    out = gamma_tau_select(g, {k: same for k in ("zw-max", "zw-min", "zd")})
    # both weighted candidates share one partition, hence one tau score
    assert out.tied
    assert out.selected == "zw-max"
    out = penalized_select(g, {k: same for k in ("zw-max", "zw-min", "zd")})
    assert out.selected == "zw-max"


def test_clamp_events_counted():
    g = Graph(5, np.empty((0, 2), dtype=np.int64), directed=False)
    same = make_fit([1, 1, 0, 0, 0])
    out = penalized_select(g, {k: same for k in ("zw-max", "zw-min", "zd")})
    # an empty graph clamps every pair probability up to eps, per candidate
    assert out.clamp_events == 3 * 10
