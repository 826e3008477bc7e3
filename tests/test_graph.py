import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicomm.graph import (Graph, GraphFormatError, graph_constants,
                          load_edge_list)


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
