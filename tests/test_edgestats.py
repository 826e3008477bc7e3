import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicomm.edgestats import (Partition, as_labels, block_counts, flip_delta,
                              modularity_q, moment_arrays, perm_null_moments,
                              q_d, r_d, r_w, within_counts, z_d, z_w)
from bicomm.graph import Graph, GraphConstants, graph_constants
from bicomm.optimizer import (FitConfig, Objective, _random_valid_labels,
                              greedy_fit)


def cycle4():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], directed=False)


def path4():
    return Graph(4, [(0, 1), (1, 2), (2, 3)], directed=False)


def k4():
    return Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)],
                 directed=False)


def random_graph(rng, n, directed, p=0.4):
    a = rng.random((n, n)) < p
    np.fill_diagonal(a, False)
    if not directed:
        a = np.triu(a)
    return Graph(n, np.argwhere(a), directed)


def random_labels(rng, n):
    while True:
        lab = (rng.random(n) < 0.5).astype(np.int8)
        if 2 <= lab.sum() <= n - 2:
            return lab


def test_partition_sizes_and_complement():
    p = Partition([1, 1, 0, 0, 1])
    assert (p.m_x, p.n_x) == (3, 2)
    assert p.complement().labels.tolist() == [0, 0, 1, 1, 0]
    with pytest.raises(ValueError):
        Partition([0, 1, 2])


def test_partition_pickle_round_trip_stays_read_only():
    """Candidate workers return their Partitions through pickle: the copy
    equals the original and its labels are read-only int8."""
    part = Partition([1, 0, 1, 1, 0])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(part, protocol=protocol))
        assert copy == part and copy is not part
        assert copy.labels.dtype == np.int8
        with pytest.raises(ValueError, match="read-only"):
            copy.labels[0] = 0


def test_within_counts_directed():
    g = Graph(4, [(0, 1), (1, 0), (0, 2)], directed=True)
    assert within_counts(g, [1, 1, 0, 0]) == (2, 0)


def test_r_w_and_r_d_on_cycle():
    g = cycle4()
    assert r_w(g, [1, 1, 0, 0]) == pytest.approx(1.0)
    assert r_d(g, [1, 1, 0, 0]) == 0
    assert r_d(g, [1, 1, 1, 0]) == 2


def test_moments_match_hand_values():
    c = graph_constants(cycle4())
    m = perm_null_moments(c, 2, 2)
    assert m.mu_w == pytest.approx(2 / 3)
    assert m.var_w == pytest.approx(2 / 9)
    assert m.mu_d == pytest.approx(0.0)
    assert m.degenerate_d and m.var_d == 0.0

    cp = graph_constants(path4())
    mp = perm_null_moments(cp, 2, 2)
    assert mp.var_d == pytest.approx(1 / 3)
    assert not mp.degenerate_d


def test_moments_reject_singleton_groups():
    c = graph_constants(cycle4())
    with pytest.raises(ValueError):
        perm_null_moments(c, 1, 3)
    with pytest.raises(ValueError):
        perm_null_moments(c, 3, 2)  # wrong total


def test_moments_refuse_non_integral_sizes():
    c = graph_constants(cycle4())
    with pytest.raises(ValueError, match="m_x must be an integer, got 2.9"):
        perm_null_moments(c, 2.9, 2.1)
    with pytest.raises(ValueError, match="n_x must be an integer, got nan"):
        perm_null_moments(c, 2, float("nan"))
    want = perm_null_moments(c, 2, 2)
    assert perm_null_moments(c, 2.0, np.int64(2)) == want
    assert perm_null_moments(c, np.float64(2.0), np.int8(2)) == want


def test_z_values_frozen_examples():
    g = cycle4()
    assert z_w(g, [1, 1, 0, 0]) == pytest.approx(0.70710678118, abs=1e-9)
    assert z_w(g, [1, 0, 1, 0]) == pytest.approx(-1.41421356237, abs=1e-9)
    assert z_d(path4(), [0, 1, 1, 0]) == pytest.approx(1.73205080757, abs=1e-9)


def test_complete_graph_is_degenerate():
    g = k4()
    assert z_w(g, [1, 1, 0, 0]) == 0.0
    assert z_d(g, [1, 1, 0, 0]) == 0.0
    m = perm_null_moments(graph_constants(g), 2, 2)
    assert m.degenerate_w and m.degenerate_d


def test_z_rejects_singleton_side():
    with pytest.raises(ValueError):
        z_w(cycle4(), [1, 0, 0, 0])


def test_complement_symmetry_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(5, 11))
        g = random_graph(rng, n, directed=bool(rng.integers(2)))
        lab = random_labels(rng, n)
        comp = 1 - lab
        assert abs(z_w(g, lab) - z_w(g, comp)) < 1e-12
        assert abs(z_d(g, lab) + z_d(g, comp)) < 1e-12


def test_node_relabeling_invariance():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(5, 10))
        g = random_graph(rng, n, directed=bool(rng.integers(2)))
        lab = random_labels(rng, n)
        perm = rng.permutation(n)
        g2 = Graph(n, perm[g.edges], g.directed)
        lab2 = np.empty(n, dtype=np.int8)
        lab2[perm] = lab
        assert z_w(g2, lab2) == pytest.approx(z_w(g, lab), abs=1e-9)
        assert z_d(g2, lab2) == pytest.approx(z_d(g, lab), abs=1e-9)
        if g.n_edges:
            assert modularity_q(g2, lab2) == pytest.approx(
                modularity_q(g, lab), abs=1e-9)
            assert q_d(g2, lab2) == pytest.approx(q_d(g, lab), abs=1e-9)


# ---- modularity family -----------------------------------------------------

def test_modularity_all_ones_identity():
    for g in (cycle4(), k4(), Graph(4, [(0, 1), (1, 0), (0, 2), (3, 1)], True)):
        assert modularity_q(g, [1, 1, 1, 1]) == pytest.approx(0.0, abs=1e-12)
        assert q_d(g, [1, 1, 1, 1]) == pytest.approx(0.0, abs=1e-12)


def test_modularity_triangle_split_is_max():
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    g = Graph(6, edges, directed=False)
    split = [1, 1, 1, 0, 0, 0]
    best = modularity_q(g, split)
    assert best > 0
    # brute force over all 3-3 splits
    from itertools import combinations
    for ones in combinations(range(6), 3):
        lab = np.zeros(6, dtype=np.int8)
        lab[list(ones)] = 1
        assert modularity_q(g, lab) <= best + 1e-12
    assert q_d(g, split) == pytest.approx(0.0, abs=1e-12)


def test_k4_modularity_never_positive():
    g = k4()
    for v in range(1, 15):
        lab = [(v >> i) & 1 for i in range(4)]
        assert modularity_q(g, lab) <= 1e-12


def test_q_d_antisymmetry():
    g = Graph(5, [(0, 1), (1, 2), (3, 4), (0, 4)], directed=False)
    lab = np.array([1, 1, 0, 0, 0], dtype=np.int8)
    assert q_d(g, 1 - lab) == pytest.approx(-q_d(g, lab), abs=1e-12)


def exact_q_d(g, lab):
    """Q_d by its definition, summed over ordered same-community node pairs
    (diagonal included) in integers: community 1 counts +1, community 0
    counts -1, and the degree-product term is divided by the edge total
    (2|E| undirected, |E| directed) once, at the end."""
    n = g.n_nodes
    a = np.zeros((n, n), dtype=np.int64)
    a[g.edges[:, 0], g.edges[:, 1]] = 1
    if not g.directed:
        a = a + a.T
    adj = a.tolist()
    k_out = [sum(row) for row in adj]
    k_in = [sum(col) for col in zip(*adj)]
    total = sum(k_out)
    num = 0
    for i in range(n):
        for j in range(n):
            if lab[i] == lab[j]:
                sign = 1 if lab[i] == 1 else -1
                num += sign * (total * adj[i][j] - k_out[i] * k_in[j])
    return Fraction(num, total)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 8), st.sampled_from([0.2, 0.5, 1.0]),
       st.integers(0, 2**32 - 1))
def test_q_d_is_identically_zero(n, density, seed):
    """R1 - R2 is fixed by the group degree sums, and the signed
    degree-product term cancels it: Q_d is exactly 0 for every split of
    every graph, directed or not.  A ``qd`` fit therefore never flips."""
    rng = np.random.default_rng(seed)
    for directed in (False, True):
        g = random_graph(rng, n, directed, p=density)
        if g.n_edges == 0:
            g = Graph(n, [(0, 1)], directed)
        for v in range(1 << n):
            lab = [(v >> (n - 1 - i)) & 1 for i in range(n)]
            assert exact_q_d(g, lab) == 0
            assert abs(q_d(g, lab)) < 1e-9
            # group 1's degree totals from R1, R2 and ko1, as _q_values
            # derives them
            r1, r2 = within_counts(g, lab)
            ko1, ki1 = int(np.dot(lab, g.k_out)), int(np.dot(lab, g.k_in))
            assert (ki1 + ko1 if directed else ko1) == g.n_edges + r1 - r2
        if n >= 5:
            fit = greedy_fit(g, Objective.QD_MAX, FitConfig(restarts=3))
            starts = [_random_valid_labels(np.random.default_rng(r), n, 2)
                      for r in range(3)]
            assert fit.iterations == 0
            assert any(np.array_equal(fit.labels.labels, s) for s in starts)


def test_empty_graph_modularity_errors():
    g = Graph(4, [], directed=False)
    with pytest.raises(ValueError):
        modularity_q(g, [1, 1, 0, 0])


# ---- flip_delta ------------------------------------------------------------

def test_flip_delta_path_example():
    g = path4()
    assert flip_delta(g, [1, 1, 0, 0], 1) == (-1, 1)


def test_flip_delta_isolated_node():
    g = Graph(5, [(0, 1), (2, 3)], directed=False)
    assert flip_delta(g, [1, 1, 0, 0, 0], 4) == (0, 0)


def test_flip_delta_refuses_a_non_integral_node():
    g = path4()
    lab = [1, 1, 0, 0]
    for i in (2.7, 1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="node index must be an integer"):
            flip_delta(g, lab, i)
    assert flip_delta(g, lab, 1.0) == flip_delta(g, lab, np.int64(1)) == (-1, 1)
    with pytest.raises(ValueError, match="node index out of range"):
        flip_delta(g, lab, 10**400)


def test_flip_delta_matches_recount():
    rng = np.random.default_rng(9)
    for _ in range(300):
        n = int(rng.integers(4, 10))
        g = random_graph(rng, n, directed=bool(rng.integers(2)), p=0.5)
        lab = (rng.random(n) < 0.5).astype(np.int8)
        i = int(rng.integers(n))
        d1, d2 = flip_delta(g, lab, i)
        r1, r2 = within_counts(g, lab)
        lab2 = lab.copy()
        lab2[i] ^= 1
        assert within_counts(g, lab2) == (r1 + d1, r2 + d2)


# ---- one formula, two callers ----------------------------------------------

@st.composite
def seeded_graphs(draw, max_n):
    n = draw(st.integers(4, max_n))
    directed = draw(st.booleans())
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.4, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_graph(rng, n, directed, p=density), rng


@settings(max_examples=60, deadline=None)
@given(seeded_graphs(300))
def test_scalar_moments_equal_table_rows(case):
    """perm_null_moments(c, m, N - m) is row m of moment_arrays(c), bit for
    bit, for every m in 2..N-2."""
    g, _ = case
    assert_moment_rows_agree(graph_constants(g))


def assert_moment_rows_agree(c):
    mu_w, s_w, mu_d, s_d, deg_w, deg_d = moment_arrays(c)
    n = c.n_nodes
    for m in range(2, n - 1):
        mom = perm_null_moments(c, m, n - m)
        got = (mom.mu_w, mom.sigma_w, mom.mu_d, mom.sigma_d)
        want = (mu_w[m], s_w[m], mu_d[m], s_d[m])
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
        assert (mom.degenerate_w, mom.degenerate_d) == (deg_w[m], deg_d[m])


def regular_constants(n, directed, k=10):
    """Constants of a k-regular graph on n nodes (k out- and k in-edges per
    node when directed, with 2,000 reciprocal arcs), built directly: no
    graph is needed."""
    if directed:
        q1 = 2000
        e = n * k
        q2 = e * e - e + q1 - 2 * n * k * k - 2 * n * k * (k - 1)
    else:
        q1 = 0
        e = n * k // 2
        q2 = e * e - e - n * k * (k - 1)
    return GraphConstants(n_nodes=n, g_size=e, q1=q1, q2=q2,
                          directed=directed)


@pytest.mark.parametrize("directed", [False, True])
def test_scalar_moments_equal_table_rows_at_the_bound(directed):
    """N = 9,743 is the largest N with N (N - 1) (N - 2)^2 < 2^53, the
    bound up to which moments divided as exact integers would still round
    like the table's floats.  Both take the one float coding, so the
    rows agree here as at every N (see the N = 30,000 check below)."""
    n = 9743
    assert n * (n - 1) * (n - 2) ** 2 < 2 ** 53 <= (n + 1) * n * (n - 1) ** 2
    assert_moment_rows_agree(regular_constants(n, directed))


@pytest.mark.parametrize("directed", [False, True])
def test_scalar_moments_equal_table_rows_at_n_30000(directed):
    """Far above the 2^53 bound, every size's scalar moments are still its
    table row bit for bit: moments divided as exact integers would differ
    in the last bit at about 8,300 of the 29,997 sizes here."""
    assert_moment_rows_agree(regular_constants(30000, directed))


@settings(max_examples=80, deadline=None)
@given(seeded_graphs(40))
def test_block_counts_match_dense_recount(case):
    g, rng = case
    lab = (rng.random(g.n_nodes) < 0.5).astype(np.int8)
    a = np.zeros((g.n_nodes, g.n_nodes), dtype=np.int64)
    a[g.edges[:, 0], g.edges[:, 1]] = 1
    one = lab == 1
    dense = (a[one][:, one].sum(), a[one][:, ~one].sum(),
             a[~one][:, one].sum(), a[~one][:, ~one].sum())
    counts = block_counts(g, lab)
    assert counts == dense
    assert sum(counts) == g.n_edges
    assert within_counts(g, lab) == (counts[0], counts[3])


# ---- one label check per Z statistic -----------------------------------------

@settings(max_examples=150, deadline=None)
@given(seeded_graphs(60), st.sampled_from(["int8", "int64", "bool", "float",
                                           "list", "partition"]))
def test_z_equals_standardized_counts(case, form):
    """z_w and z_d are (R - mu) / sigma with R from r_w / r_d and the
    moments from perm_null_moments, bit for bit, whatever form the labels
    come in; 0.0 where the variance is degenerate."""
    g, rng = case
    n = g.n_nodes
    c = graph_constants(g)
    lab = random_labels(rng, n)
    x = {"int8": lab, "int64": lab.astype(np.int64), "bool": lab == 1,
         "float": lab.astype(np.float64), "list": lab.tolist(),
         "partition": Partition(lab)}[form]
    m_x = int(lab.sum())
    mom = perm_null_moments(c, m_x, n - m_x)
    want_w = 0.0 if mom.degenerate_w else (r_w(g, lab) - mom.mu_w) / mom.sigma_w
    want_d = 0.0 if mom.degenerate_d else (r_d(g, lab) - mom.mu_d) / mom.sigma_d
    for got, want in ((z_w(g, x, c), want_w), (z_w(g, x), want_w),
                      (z_d(g, x, c), want_d), (z_d(g, x), want_d)):
        assert type(got) is float
        assert got.hex() == float(want).hex()


def test_z_error_cases():
    g = cycle4()
    other = graph_constants(Graph(5, [(0, 1)], directed=False))
    for z in (z_w, z_d):
        with pytest.raises(ValueError, match="labels must be 0/1"):
            z(g, [1, 1, 0, 2])
        with pytest.raises(ValueError, match="labels must be 0/1"):
            z(g, [1.0, 1.0, 0.0, 0.5])
        with pytest.raises(ValueError, match="labels must be 0/1"):
            z(g, np.array([1.0, 1.0, 0.0, np.nan]))
        with pytest.raises(ValueError, match="non-empty 1-d array"):
            z(g, [[1, 1], [0, 0]])
        with pytest.raises(ValueError, match="non-empty 1-d array"):
            z(g, [])
        with pytest.raises(ValueError,
                           match="labels length 5 != number of nodes 4"):
            z(g, [1, 1, 0, 0, 0])
        with pytest.raises(ValueError, match="both groups of size >= 2"):
            z(g, [1, 0, 0, 0])
        with pytest.raises(ValueError, match="both groups of size >= 2"):
            z(g, [1, 1, 1, 1])
        with pytest.raises(ValueError, match=r"m_x \+ n_x = 4 != N = 5"):
            z(g, [1, 1, 0, 0], other)


def test_as_labels_returns_a_read_only_copy():
    raw = np.array([1, 0, 1, 0], dtype=np.int8)
    lab = as_labels(raw, 4)
    assert lab.dtype == np.int8 and not lab.flags.writeable
    raw[0] = 0
    assert lab.tolist() == [1, 0, 1, 0]
    assert raw.flags.writeable
    assert as_labels([True, False, True]).tolist() == [1, 0, 1]
    part = Partition([1, 1, 0])
    assert as_labels(part) is part.labels
    with pytest.raises(ValueError, match="labels length 3 != number of nodes 4"):
        as_labels(part, 4)
    with pytest.raises(ValueError, match="labels must be 0/1"):
        as_labels(np.array(["0", "1"]))


# ---- the one-pass label check against the former rule -----------------------

def former_checked_labels(labels):
    """The label check before the one-pass byte scan, kept as the reference:
    two comparisons with 0 and 1 on the input, then the int8 copy."""
    a = np.asarray(labels)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("labels must be a non-empty 1-d array")
    if np.count_nonzero(a == 0) + np.count_nonzero(a == 1) != a.size:
        raise ValueError("labels must be 0/1")
    a = a.astype(np.int8)
    a.setflags(write=False)
    return a


_ODD_LABELS = [-1, 2, 0.5, float("nan"), 255, 256, 257]
_LABEL_FORMS = ["int8", "uint8", "int16", "int64", "bool", "float", "list"]


def _holds(form, v):
    """Whether an array of ``form`` can hold the value v as it is."""
    if form in ("float", "list"):
        return True
    if form == "bool":
        return v in (0, 1)
    if v != v or v != int(v):
        return False
    info = np.iinfo(form)
    return info.min <= v <= info.max


@st.composite
def label_inputs(draw):
    form = draw(st.sampled_from(_LABEL_FORMS))
    odd = [v for v in _ODD_LABELS if _holds(form, v)]
    value = st.sampled_from([0, 1])
    if odd and draw(st.booleans()):  # else every value is a valid label
        value = st.one_of(value, st.sampled_from(odd))
    shape = draw(st.sampled_from(["0-d", "1-d", "1-d", "2-d", "empty"]))
    if shape == "0-d":
        flat, dims = [draw(value)], ()
    elif shape == "empty":
        flat, dims = [], (0,)
    elif shape == "1-d":
        flat = draw(st.lists(value, min_size=1, max_size=24))
        dims = (len(flat),)
    else:
        dims = (draw(st.integers(1, 3)), draw(st.integers(1, 4)))
        flat = draw(st.lists(value, min_size=dims[0] * dims[1],
                             max_size=dims[0] * dims[1]))
    if form == "list":
        if dims == ():
            return flat[0]
        if len(dims) == 2:
            return [flat[i * dims[1]:(i + 1) * dims[1]] for i in range(dims[0])]
        return flat
    dtype = {"float": np.float64, "bool": np.bool_}.get(form, form)
    return np.array(flat, dtype=dtype).reshape(dims)


def _outcome(check, x):
    try:
        return "ok", check(x)
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=400, deadline=None)
@given(label_inputs())
def test_label_check_matches_the_former_rule(x):
    """Same accept or reject, same message and same int8 values as the
    former rule, and the result is a read-only copy of the input."""
    want = _outcome(former_checked_labels, x)
    got = _outcome(as_labels, x)
    assert got[0] == want[0]
    if want[0] == "error":
        assert got[1] == want[1]
        return
    lab = got[1]
    assert lab.dtype == np.int8 and not lab.flags.writeable
    assert lab.tolist() == want[1].tolist()
    before = lab.tolist()
    x[0] = 1 - x[0]  # the input stays the caller's; the labels do not move
    assert lab.tolist() == before
