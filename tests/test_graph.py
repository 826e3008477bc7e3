import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicomm.genmodels import (ConnectivityMatrix, ThetaSpec, replicate_rngs,
                              sample_dcsbm, sample_sbm, sample_theta)
from bicomm.graph import (Graph, GraphFormatError, graph_constants,
                          load_edge_list)
from bicomm.optimizer import FitConfig, Objective, exhaustive_fit
from bicomm.oracle import enumerate_null_moments, verify_theorem_2_3


def test_graph_basic_invariants():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], directed=False)
    assert g.n_nodes == 4
    assert g.n_edges == 4
    assert not g.directed
    assert g.degrees.tolist() == [2, 2, 2, 2]
    # undirected edges are stored once, small endpoint first
    assert (g.edges[:, 0] < g.edges[:, 1]).all()


def test_degree_identities():
    g = Graph(5, [(0, 1), (1, 0), (2, 3), (0, 4)], directed=True)
    assert g.k_out.sum() == g.n_edges
    assert g.k_in.sum() == g.n_edges
    gu = Graph(5, [(0, 1), (2, 3), (0, 4)], directed=False)
    assert gu.degrees.sum() == 2 * gu.n_edges


@pytest.mark.parametrize("directed", [True, False])
def test_incident_degrees(directed):
    # 0 and 1 are reciprocal when directed; 5 is isolated
    edges = [(0, 1), (1, 2), (3, 1), (0, 4)] + ([(1, 0)] if directed else [])
    g = Graph(6, edges, directed)
    assert g.k_inc.dtype == np.int64
    assert g.k_inc.tolist() == ([3, 4, 1, 1, 1, 0] if directed
                                else [2, 3, 1, 1, 1, 0])
    np.testing.assert_array_equal(g.k_inc, g.k_out + g.k_in if directed
                                  else g.degrees)
    np.testing.assert_array_equal(g.k_inc, np.diff(g.incidence()[0]))
    with pytest.raises(ValueError, match="read-only"):
        g.k_inc[0] = 0


def test_rejects_self_loops_duplicates_bad_endpoints():
    with pytest.raises(ValueError):
        Graph(4, [(0, 0)], directed=True)
    with pytest.raises(ValueError):
        Graph(4, [(0, 1), (0, 1)], directed=True)
    with pytest.raises(ValueError):
        Graph(4, [(1, 0), (0, 1)], directed=False)  # same unordered pair
    with pytest.raises(ValueError):
        Graph(4, [(0, 7)], directed=True)


@pytest.mark.parametrize("n_nodes, edges", [
    (5, [[0.5, 1.7], [2, 3.9]]),
    (5, [[0, 1], [2, np.nan]]),
    (5, np.array([[0, 1], [2, np.inf]])),
    (4.7, [(0, 1), (2, 3)]),
    (float("nan"), [(0, 1)]),
])
def test_rejects_non_integral_input(n_nodes, edges):
    """Non-integral nodes or endpoints are refused, not truncated."""
    with pytest.raises(ValueError, match="must be integers|must be an integer"):
        Graph(n_nodes, edges, directed=False)


_P = ConnectivityMatrix(0.5, 0.2, 0.2, 0.5)
_SPEC = ThetaSpec.pareto(3)
_CYCLE = Graph(8, [(i, (i + 1) % 8) for i in range(8)], directed=False)
# (entry point, argument name, call with a non-integral value)
NON_INTEGRAL = [
    ("sample_sbm", "m",
     lambda rng: sample_sbm(_P, 10.7, 10, False, rng)),
    ("sample_dcsbm", "n",
     lambda rng: sample_dcsbm(_P, 10, 10.9, _SPEC, False, rng)),
    ("sample_theta", "count", lambda rng: sample_theta(_SPEC, 3.7, rng)),
    ("FitConfig", "restarts", lambda rng: FitConfig(restarts=2.5)),
    ("FitConfig", "seed", lambda rng: FitConfig(seed=1.5)),
    ("FitConfig", "min_group", lambda rng: FitConfig(min_group=2.5)),
    ("FitConfig", "max_iters", lambda rng: FitConfig(max_iters=3.5)),
    ("exhaustive_fit", "min_group",
     lambda rng: exhaustive_fit(_CYCLE, Objective.ZW_MAX, 2.5)),
    ("replicate_rngs", "seed", lambda rng: replicate_rngs(1.5, 0)),
    ("replicate_rngs", "replicate index",
     lambda rng: replicate_rngs(1, float("nan"))),
    ("enumerate_null_moments", "m_x",
     lambda rng: enumerate_null_moments(_CYCLE, 3.5)),
    ("verify_theorem_2_3", "m", lambda rng: verify_theorem_2_3(_P, 5.5, 5)),
]


@pytest.mark.parametrize("name, call", [case[1:] for case in NON_INTEGRAL],
                         ids=[f"{entry}-{name}"
                              for entry, name, _ in NON_INTEGRAL])
def test_entry_points_refuse_non_integral_sizes_and_seeds(name, call):
    """Every size, count and seed goes through ``graph._integer``: a
    non-integral value is refused, not truncated."""
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(np.random.default_rng(0))


def test_integral_float_sizes_and_seeds_are_kept_as_ints():
    cfg = FitConfig(restarts=3.0, seed=2.0, min_group=3.0, max_iters=7.0)
    assert cfg == FitConfig(restarts=3, seed=2, min_group=3, max_iters=7)
    assert all(type(getattr(cfg, name)) is int
               for name in ("restarts", "seed", "min_group", "max_iters"))
    pg = sample_sbm(_P, 10.0, 10, False, np.random.default_rng(0))
    assert pg.graph.n_nodes == 20 and pg.truth.m_x == 10
    assert replicate_rngs(1.0, 2)[1] == replicate_rngs(1, 2)[1]


def test_accepts_integral_floats():
    g = Graph(5.0, np.array([[0.0, 1.0], [3.0, 2.0]]), directed=False)
    assert g.n_nodes == 5
    assert g.edges.tolist() == [[0, 1], [2, 3]]
    assert g.edges.dtype == np.int64


def test_incidence_lists_count_both_orientations():
    g = Graph(4, [(0, 1), (1, 0), (1, 2)], directed=True)
    # node 1 touches three stored edges
    assert sorted(g.incident_nodes(1).tolist()) == [0, 0, 2]
    assert sorted(g.incident_nodes(0).tolist()) == [1, 1]


def former_incidence(g):
    """The CSR incidence lists as one stable argsort of concat(u, v) built
    them: the reference for the entry order of ``Graph.incidence()``,
    which a fit cannot check (``np.add.at`` and ``bincount`` ignore it)."""
    e = g.edges
    ends = np.concatenate([e[:, 0], e[:, 1]])
    other = np.concatenate([e[:, 1], e[:, 0]])
    indptr = np.zeros(g.n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=g.n_nodes), out=indptr[1:])
    return indptr, other[np.argsort(ends, kind="stable")]


def assert_incidence_as_before(g):
    indptr, indices = g.incidence()
    want_ptr, want_idx = former_incidence(g)
    assert indptr.dtype == indices.dtype == np.int64
    np.testing.assert_array_equal(indptr, want_ptr)
    np.testing.assert_array_equal(indices, want_idx)


@pytest.mark.parametrize("directed", [True, False])
def test_incidence_matches_the_former_construction(directed):
    # node 5 is isolated, node 4 has in-edges only (out-edges only when
    # undirected, where it is the larger end), 0 and 1 are reciprocal
    edges = [(0, 1), (1, 2), (3, 1), (2, 0), (0, 4), (2, 4), (3, 0)]
    if directed:
        edges.append((1, 0))
    assert_incidence_as_before(Graph(6, edges, directed))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), density=st.sampled_from([0.0, 0.1, 0.4]),
       directed=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_incidence_matches_the_former_construction_at_random(n, density,
                                                             directed, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) < density
    np.fill_diagonal(a, False)
    if not directed:
        a = np.triu(a | a.T)
    assert_incidence_as_before(Graph(n, np.argwhere(a), directed))


@pytest.mark.parametrize("n", [40_000, 70_000])  # uint16 sort key, then not
@pytest.mark.parametrize("directed", [True, False])
def test_incidence_matches_the_former_construction_on_large_graphs(
        n, directed):
    rng = np.random.default_rng(n)
    pairs = rng.integers(0, n, size=(3 * n, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if not directed:
        pairs.sort(axis=1)
    pairs = np.unique(pairs, axis=0)
    g = Graph(n, pairs, directed)
    assert (g.edges.max() >= 2**16) == (n > 2**16)
    assert_incidence_as_before(g)


def test_constants_undirected_examples():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)], directed=False)
    c = graph_constants(tri)
    assert (c.g_size, c.q1, c.q2) == (3, 0, 0)

    two_edges = Graph(4, [(0, 1), (2, 3)], directed=False)
    assert graph_constants(two_edges).q2 == 2

    path = Graph(4, [(0, 1), (1, 2), (2, 3)], directed=False)
    assert graph_constants(path).q2 == 2


def test_constants_directed_q1():
    g = Graph(4, [(0, 1), (1, 0), (0, 2)], directed=True)
    c = graph_constants(g)
    assert c.g_size == 3
    assert c.q1 == 2
    assert c.q1 % 2 == 0


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 60), density=st.sampled_from([0.0, 0.05, 0.2, 0.6]),
       mirrored=st.sampled_from([0.0, 0.3, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_q1_counts_reciprocal_pairs(n, density, mirrored, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) < density
    # mirror a share of the arcs so that reciprocal pairs are common
    a |= a.T & (rng.random((n, n)) < mirrored)
    np.fill_diagonal(a, False)
    g = Graph(n, np.argwhere(a), directed=True)
    assert graph_constants(g).q1 == int(np.count_nonzero(a & a.T))


def brute_disjoint_pairs(g):
    """Ordered pairs of distinct edges sharing no endpoint."""
    e = [tuple(r) for r in g.edges]
    cnt = 0
    for a in e:
        for b in e:
            if a != b and not (set(a) & set(b)):
                cnt += 1
    return cnt


def test_q2_is_disjoint_pair_count():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(4, 9))
        directed = bool(rng.integers(2))
        a = rng.random((n, n)) < 0.45
        np.fill_diagonal(a, False)
        if not directed:
            a = np.triu(a)
        g = Graph(n, np.argwhere(a), directed)
        c = graph_constants(g)
        assert c.q2 == brute_disjoint_pairs(g)
        assert c.q2 >= 0


def test_constants_invariant_under_relabeling():
    rng = np.random.default_rng(1)
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5), (1, 4)], directed=True)
    c = graph_constants(g)
    for _ in range(10):
        perm = rng.permutation(6)
        g2 = Graph(6, perm[g.edges], directed=True)
        c2 = graph_constants(g2)
        assert (c2.g_size, c2.q1, c2.q2) == (c.g_size, c.q1, c.q2)


# ---- loader ----------------------------------------------------------------

def test_load_dedups_and_counts():
    src = io.StringIO("1 2\n1 2\n2 3\n3 4\n")
    g = load_edge_list(src, directed=False)
    assert g.n_nodes == 4
    assert g.n_edges == 3
    assert g.duplicate_edges == 1
    assert g.node_names == ("1", "2", "3", "4")


def test_load_comma_and_comment_handling():
    src = ["# header", "", "a,b", "b c", "c\td", "d a"]
    g = load_edge_list(src, directed=True)
    assert g.n_nodes == 4
    assert g.n_edges == 4


def test_load_reverse_pair_is_duplicate_only_when_undirected():
    g = load_edge_list(["a b", "b a", "c d"], directed=True)
    assert g.n_edges == 3
    g = load_edge_list(["a b", "b a", "c d"], directed=False)
    assert g.n_edges == 2
    assert g.duplicate_edges == 1


def test_load_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 2"):
        load_edge_list(["a b", "c c", "d e"], directed=False)
    with pytest.raises(GraphFormatError, match="line 3"):
        load_edge_list(["a b", "b c", "x y z"], directed=False)


def test_load_too_small():
    with pytest.raises(GraphFormatError, match="too small"):
        load_edge_list(["a b", "b c"], directed=False)
    with pytest.raises(GraphFormatError, match="too small"):
        load_edge_list(["1 2", "2 1"], directed=True)


def test_load_first_seen_token_order():
    g = load_edge_list(["x y", "y z", "z w", "w q"], directed=False)
    assert g.node_names == ("x", "y", "z", "w", "q")


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12))
                     .filter(lambda r: r[0] != r[1]), min_size=4, max_size=80),
       directed=st.booleans())
def test_load_dedup_equals_unique_rows(rows, directed):
    """The loader's key dedupe keeps exactly the distinct rows of
    ``np.unique(e, axis=0)`` and counts the rest as duplicates."""
    lines = [f"n{u} n{v}" for u, v in rows]
    names = list(dict.fromkeys(t for ln in lines for t in ln.split()))
    if len(names) < 4:
        return
    g = load_edge_list(lines, directed)
    e = np.array([[names.index(t) for t in ln.split()] for ln in lines])
    if not directed:
        e = np.sort(e, axis=1)
    want = np.unique(e, axis=0)
    assert np.array_equal(g.edges, want)
    assert g.duplicate_edges == len(rows) - want.shape[0]
    assert g.node_names == tuple(names)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 12), data=st.data(), directed=st.booleans(),
       mess=st.sampled_from(["shuffle", "reverse", "duplicate"]))
def test_graph_stores_the_unique_oriented_rows(n, data, directed, mess):
    """Rows given shuffled, reversed or repeated are stored as
    ``np.unique`` of the oriented rows (unordered pairs as i < j), or
    rejected when two rows name the same edge."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    rows = data.draw(st.lists(st.sampled_from(pairs), max_size=40, unique=True))
    if mess == "shuffle":
        rows = data.draw(st.permutations(rows))
    elif mess == "reverse":
        rows = [(v, u) for u, v in rows]
    else:
        rows = rows + rows[:1]
    e = np.array(rows, dtype=np.int64).reshape(-1, 2)
    oriented = e if directed else np.sort(e, axis=1)
    want = np.unique(oriented, axis=0).reshape(-1, 2)
    if want.shape[0] < e.shape[0]:
        with pytest.raises(ValueError, match="duplicate"):
            Graph(n, rows, directed)
        return
    g = Graph(n, rows, directed)
    assert g.edges.dtype == np.int64 and g.edges.flags.c_contiguous
    assert np.array_equal(g.edges, want)
    assert not g.edges.flags.writeable
