import tracemalloc

import numpy as np
import pytest

from bicomm.cli import main
from bicomm.genmodels import (ConnectivityMatrix, ThetaSpec, _check_size,
                              _sample_planted, replicate_rngs, sample_dcsbm,
                              sample_sbm, sample_theta)
from reference_samplers import reference_sample_planted


def test_connectivity_validation():
    with pytest.raises(ValueError):
        ConnectivityMatrix(1.2, 0.1, 0.1, 0.1)
    p = ConnectivityMatrix.from_rows([[0.5, 0.3], [0.3, 0.1]])
    assert p.symmetric
    assert p.as_array().tolist() == [[0.5, 0.3], [0.3, 0.1]]


def test_theta_spec_domains():
    with pytest.raises(ValueError):
        ThetaSpec.pareto(1.0)       # infinite mean
    with pytest.raises(ValueError):
        ThetaSpec.uniform_low(0.0)  # would allow theta = 0
    with pytest.raises(ValueError):
        ThetaSpec.uniform_low(1.5)
    with pytest.raises(ValueError):
        ThetaSpec.shifted_exponential(1.0)  # could go nonpositive
    with pytest.raises(ValueError):
        ThetaSpec("pareto", None)
    assert ThetaSpec.parse("pareto:3") == ThetaSpec.pareto(3)
    assert ThetaSpec.parse("const") == ThetaSpec.constant1()
    with pytest.raises(ValueError):
        ThetaSpec.parse("pareto")
    with pytest.raises(ValueError):
        ThetaSpec.parse("weird:2")


@pytest.mark.parametrize("kind", ["pareto", "uniform", "exp"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_theta_spec_rejects_non_finite_parameters(kind, value, capsys):
    with pytest.raises(ValueError):
        ThetaSpec.parse(f"{kind}:{value}")
    with pytest.raises(ValueError):
        ThetaSpec(kind, float(value))
    argv = ["simulate", "--model", "dcsbm", "--theta", f"{kind}:{value}",
            "--m", "6", "--n", "6", "--reps", "1", "--restarts", "2"]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_theta_laws_have_mean_one():
    rng = np.random.default_rng(0)
    assert sample_theta(ThetaSpec.constant1(), 5, rng).tolist() == [1.0] * 5
    assert sample_theta(ThetaSpec.uniform_low(1.0), 4, rng).tolist() == [1.0] * 4
    for spec in (ThetaSpec.pareto(3), ThetaSpec.uniform_low(0.3),
                 ThetaSpec.shifted_exponential(2.0)):
        draws = sample_theta(spec, 100_000, rng)
        assert draws.min() > 0
        assert abs(draws.mean() - 1.0) < 0.02


def test_sbm_extremes():
    rng = np.random.default_rng(1)
    empty = sample_sbm(ConnectivityMatrix(0, 0, 0, 0), 3, 3, False, rng)
    assert empty.graph.n_edges == 0
    full = sample_sbm(ConnectivityMatrix(1, 1, 1, 1), 3, 3, False, rng)
    assert full.graph.n_edges == 15  # complete K6
    assert full.truth.labels.tolist() == [1, 1, 1, 0, 0, 0]


def test_sbm_block_density_concentrates():
    rng = np.random.default_rng(2)
    densities = []
    for _ in range(200):
        pg = sample_sbm(ConnectivityMatrix(0.5, 0.3, 0.3, 0.5),
                        50, 50, False, rng)
        e = pg.graph.edges
        lab = pg.truth.labels
        r1 = int(np.count_nonzero(lab[e[:, 0]] & lab[e[:, 1]]))
        densities.append(r1 / (50 * 49 / 2))
    assert abs(np.mean(densities) - 0.5) < 0.01


def test_directed_blocks_can_be_asymmetric():
    rng = np.random.default_rng(3)
    pg = sample_sbm(ConnectivityMatrix(0.0, 1.0, 0.0, 0.0), 5, 5, True, rng)
    e = pg.graph.edges
    assert pg.graph.n_edges == 25
    assert (pg.truth.labels[e[:, 0]] == 1).all()
    assert (pg.truth.labels[e[:, 1]] == 0).all()
    with pytest.raises(ValueError):
        sample_sbm(ConnectivityMatrix(0.0, 1.0, 0.0, 0.0), 5, 5, False, rng)


def test_seeded_determinism():
    p = ConnectivityMatrix(0.4, 0.2, 0.2, 0.4)
    a = sample_sbm(p, 10, 10, True, np.random.default_rng(7))
    b = sample_sbm(p, 10, 10, True, np.random.default_rng(7))
    assert np.array_equal(a.graph.edges, b.graph.edges)


def test_dcsbm_constant_theta_equals_sbm():
    p = ConnectivityMatrix(0.4, 0.2, 0.2, 0.4)
    a = sample_sbm(p, 8, 8, False, np.random.default_rng(11))
    b = sample_dcsbm(p, 8, 8, ThetaSpec.constant1(), False,
                     np.random.default_rng(11))
    assert np.array_equal(a.graph.edges, b.graph.edges)
    assert b.clamped_pairs == 0


def test_dcsbm_clamp_rate_small_for_large_shape():
    rng = np.random.default_rng(4)
    p = ConnectivityMatrix(0.5, 0.3, 0.3, 0.5)
    clamped = 0
    pairs = 0
    for _ in range(100):
        pg = sample_dcsbm(p, 50, 50, ThetaSpec.pareto(10), False, rng)
        clamped += pg.clamped_pairs
        pairs += 100 * 99 // 2
    assert clamped / pairs < 0.01


def test_dcsbm_degrees_track_theta():
    # hold the multipliers fixed across draws: mean degree must follow theta
    rng = np.random.default_rng(5)
    p = ConnectivityMatrix(0.2, 0.2, 0.2, 0.2)
    thetas = sample_theta(ThetaSpec.uniform_low(0.2), 100, rng)
    degs = np.zeros(100)
    for _ in range(150):
        pg = _sample_planted(p, 50, 50, thetas, False, rng)
        assert pg.clamped_pairs == 0
        degs += pg.graph.degrees
    corr = np.corrcoef(thetas, degs)[0, 1]
    assert corr > 0.98


# (p11, p12, p21, p22); the last is asymmetric, so it is drawn directed only
MATRICES = [(0.9, 0.4, 0.4, 0.7), (0.3, 0.3, 0.3, 0.3), (0.1, 0.8, 0.5, 0.2)]
THETAS = [None, "pareto:1.5", "exp:1.2", "uniform:0.1"]


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("theta", THETAS)
def test_samplers_match_the_reference_extraction(directed, theta):
    """Edges, multipliers and clamp counts equal the former per-direction
    extraction bit for bit, for the SBM (theta None) and the DCSBM."""
    clamped = 0
    for rows in MATRICES:
        p = ConnectivityMatrix(*rows)
        if not directed and not p.symmetric:
            continue
        for seed in range(8):
            m, n = 2 + seed, 30 - 3 * seed
            rng = np.random.default_rng([seed, 1])
            ref = np.random.default_rng([seed, 1])
            if theta is None:
                got = sample_sbm(p, m, n, directed, rng)
                thetas = np.ones(m + n)
            else:
                spec = ThetaSpec.parse(theta)
                got = sample_dcsbm(p, m, n, spec, directed, rng)
                thetas = sample_theta(spec, m + n, ref)
            want = reference_sample_planted(p, m, n, thetas, directed, ref)
            assert got.graph.edges.tobytes() == want.graph.edges.tobytes()
            assert got.graph.edges.shape == want.graph.edges.shape
            assert got.thetas.tobytes() == want.thetas.tobytes()
            assert got.clamped_pairs == want.clamped_pairs
            assert got.truth == want.truth
            assert rng.bit_generator.state == ref.bit_generator.state
            clamped += got.clamped_pairs
    if theta in ("pareto:1.5", "exp:1.2"):
        assert clamped > 0


# Measured: 68 MB at N = 2000 with one (N, N) draw; the former
# triu_indices extraction peaked at 130 MB.
SAMPLE_PEAK_MB_AT_2000 = 100


def test_undirected_draw_memory_at_two_thousand_nodes():
    p = ConnectivityMatrix(0.05, 0.01, 0.01, 0.05)
    tracemalloc.start()
    try:
        sample_dcsbm(p, 1000, 1000, ThetaSpec.pareto(3), False,
                     np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < SAMPLE_PEAK_MB_AT_2000, peak


def test_samplers_refuse_sizes_past_the_limit():
    _check_size(5000, 5000)
    with pytest.raises(ValueError, match="10000"):
        _check_size(5000, 5001)
    # sizes far past what memory could hold: any allocation before the
    # check would fail with MemoryError instead
    p = ConnectivityMatrix(0.1, 0.1, 0.1, 0.1)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="limit"):
        sample_sbm(p, 10**12, 2, True, rng)
    with pytest.raises(ValueError, match="limit"):
        sample_dcsbm(p, 2, 10**12, ThetaSpec.pareto(3), False, rng)
    assert rng.bit_generator.state == before


def test_replicate_rngs_split():
    g0, s0 = replicate_rngs(0, 0)
    g1, s1 = replicate_rngs(0, 1)
    assert s0 != s1
    assert g0.random() != g1.random()
    g0b, s0b = replicate_rngs(0, 0)
    assert s0 == s0b
    assert g0b.random() == np.random.default_rng(
        int(np.random.SeedSequence([0, 0]).generate_state(2)[0])).random()
    with pytest.raises(ValueError):
        replicate_rngs(-1, 0)
