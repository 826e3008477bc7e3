"""Within-community edge counts, permutation-null moments, the standardized
statistics Z_w and Z_d, and the reference objectives Q and Q_d."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphConstants, graph_constants

# A variance below this multiple of (|G|^2 + 1) is treated as exactly zero:
# the statistic carries no signal and its Z value is defined to be 0.
_DEGENERATE_REL = 1e-12


class Partition:
    """Binary labeling of the nodes; label 1 marks community 1.

    ``m_x`` is the size of community 1, ``n_x`` the size of community 0.
    """

    __slots__ = ("labels",)

    def __init__(self, labels):
        self.labels = _checked_labels(labels)

    @property
    def m_x(self):
        return int(self.labels.sum())

    @property
    def n_x(self):
        return self.labels.size - self.m_x

    def complement(self):
        return Partition(1 - self.labels)

    def __len__(self):
        return self.labels.size

    def __eq__(self, other):
        if isinstance(other, Partition):
            return np.array_equal(self.labels, other.labels)
        return NotImplemented

    def __repr__(self):
        return f"Partition(m_x={self.m_x}, n_x={self.n_x})"

    def __reduce__(self):
        # rebuilt through __init__, so an unpickled copy stays read-only
        return Partition, (self.labels,)


def _checked_labels(labels):
    """Read-only int8 copy of a 0/1 array-like, validated."""
    a = np.asarray(labels)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("labels must be a non-empty 1-d array")
    if np.count_nonzero(a == 0) + np.count_nonzero(a == 1) != a.size:
        raise ValueError("labels must be 0/1")
    a = a.astype(np.int8)
    a.setflags(write=False)
    return a


def as_labels(x, n_nodes=None):
    """Coerce a Partition or 0/1 array-like into a validated read-only int8
    array."""
    lab = x.labels if isinstance(x, Partition) else _checked_labels(x)
    if n_nodes is not None and lab.size != n_nodes:
        raise ValueError(f"labels length {lab.size} != number of nodes {n_nodes}")
    return lab


@dataclass(frozen=True)
class MomentSet:
    """Permutation-null mean/sd of R_w and R_d for one (graph, m_x) pair.

    A degenerate flag means the exact null variance vanished (up to the
    relative threshold) and the corresponding Z statistic is defined as 0.
    """
    mu_w: float
    sigma_w: float
    mu_d: float
    sigma_d: float
    var_w: float
    var_d: float
    degenerate_w: bool
    degenerate_d: bool


def block_counts(g: Graph, x):
    """(R1, E12, E21, R2): stored edges from group 1 to group 1, 1 to 0,
    0 to 1 and 0 to 0, by the stored orientation (i < j when undirected).

    With a, b the labels of the edges' first and second ends: R1 = #(a & b),
    E12 = #a - R1, E21 = #b - R1 and R2 = |E| - #(a | b).
    """
    return _block_counts(g, as_labels(x, g.n_nodes))


def _block_counts(g, lab):
    """``block_counts`` of already validated int8 labels."""
    e = g.edges
    a = lab[e[:, 0]]
    b = lab[e[:, 1]]
    r1 = int(np.count_nonzero(a & b))
    e12 = int(np.count_nonzero(a)) - r1
    e21 = int(np.count_nonzero(b)) - r1
    r2 = g.n_edges - int(np.count_nonzero(a | b))
    return r1, e12, e21, r2


def within_counts(g: Graph, x):
    """(R1, R2): edges with both endpoints labeled 1, resp. both labeled 0.

    Directed edges are counted once each, in either orientation.
    """
    r1, _, _, r2 = block_counts(g, x)
    return r1, r2


def r_d(g: Graph, x):
    """R_d = R1 - R2, the within-count difference."""
    r1, r2 = within_counts(g, x)
    return r1 - r2


def r_w(g: Graph, x):
    """R_w = ((n_x - 1) R1 + (m_x - 1) R2) / (N - 2), the size-weighted
    within-count that equalizes the two groups' null contributions."""
    lab = as_labels(x, g.n_nodes)
    if lab.size < 3:
        raise ValueError("R_w needs at least 3 nodes")
    r1, _, _, r2 = _block_counts(g, lab)
    return _r_w(lab.size, int(np.count_nonzero(lab)), r1, r2)


def _r_w(n, m_x, r1, r2):
    """R_w of a labeling with m_x ones on n nodes from its within counts."""
    return ((n - m_x - 1) * r1 + (m_x - 1) * r2) / (n - 2)


def _moments(c: GraphConstants, m, n_x):
    """(mu_w, var_w, mu_d, var_d) for group sizes m and n_x = N - m, as ints
    or as float arrays; no threshold applied."""
    n = c.n_nodes
    gsz = float(c.g_size)
    q1 = float(c.q1)
    q2 = float(c.q2)
    mu_w = (m - 1) * (n_x - 1) * gsz / ((n - 1) * (n - 2))
    var_w = (m * n_x * (m - 1) * (n_x - 1)
             / (n * (n - 1) * (n - 2) ** 2)
             * (gsz + q1 - gsz * gsz / (n - 1) + q2 / (n - 3)))
    mu_d = (m - n_x) * gsz / n
    var_d = (m * n_x / (n * (n - 1))
             * (gsz + q1 + gsz * gsz * (n - 4) / n - q2))
    return mu_w, var_w, mu_d, var_d


def _degenerate(c: GraphConstants, var):
    """Whether a null variance (scalar or array) is zero up to the relative
    threshold."""
    gsz = float(c.g_size)
    return var < _DEGENERATE_REL * (gsz * gsz + 1.0)


def _null_moments(c: GraphConstants, m_x: int, n_x: int):
    """(mu_w, var_w, mu_d, var_d, degenerate_w, degenerate_d) for int group
    sizes, a degenerate variance set to 0.0; checks the sizes."""
    if m_x < 2 or n_x < 2:
        raise ValueError("both groups need at least 2 nodes")
    n = m_x + n_x
    if n != c.n_nodes:
        raise ValueError(f"m_x + n_x = {n} != N = {c.n_nodes}")
    mu_w, var_w, mu_d, var_d = _moments(c, m_x, n_x)
    deg_w = _degenerate(c, var_w)
    deg_d = _degenerate(c, var_d)
    return (mu_w, 0.0 if deg_w else var_w, mu_d, 0.0 if deg_d else var_d,
            deg_w, deg_d)


def perm_null_moments(c: GraphConstants, m_x: int, n_x: int) -> MomentSet:
    """Exact permutation-null moments of R_w and R_d for group sizes
    (m_x, n_x) on a graph with counting constants ``c``.

    Requires m_x, n_x >= 2 (the variance of R_w involves both group sizes
    minus one) and N = m_x + n_x equal to the graph's node count.
    """
    mu_w, var_w, mu_d, var_d, deg_w, deg_d = _null_moments(c, int(m_x),
                                                           int(n_x))
    return MomentSet(mu_w=mu_w, sigma_w=math.sqrt(var_w),
                     mu_d=mu_d, sigma_d=math.sqrt(var_d),
                     var_w=float(var_w), var_d=float(var_d),
                     degenerate_w=bool(deg_w), degenerate_d=bool(deg_d))


def _z(g, x, c, within):
    """Z_w (``within``) or Z_d of labeling x, its labels checked once."""
    lab = as_labels(x, g.n_nodes)
    m_x = int(np.count_nonzero(lab))
    n_x = lab.size - m_x
    if min(m_x, n_x) < 2:
        raise ValueError("Z statistics need both groups of size >= 2")
    if c is None:
        c = graph_constants(g)
    mu_w, var_w, mu_d, var_d, deg_w, deg_d = _null_moments(c, m_x, n_x)
    r1, _, _, r2 = _block_counts(g, lab)
    if within:
        if deg_w:
            return 0.0
        return (_r_w(lab.size, m_x, r1, r2) - mu_w) / math.sqrt(var_w)
    if deg_d:
        return 0.0
    return (r1 - r2 - mu_d) / math.sqrt(var_d)


def z_w(g: Graph, x, c: GraphConstants | None = None):
    """Standardized within-edge statistic (R_w - mu_w) / sigma_w; 0.0 when
    the null variance is degenerate."""
    return _z(g, x, c, True)


def z_d(g: Graph, x, c: GraphConstants | None = None):
    """Standardized difference statistic (R_d - mu_d) / sigma_d; 0.0 when
    the null variance is degenerate."""
    return _z(g, x, c, False)


def _degree_group_sums(g, lab):
    """(ko1, ki1, ko0, ki0): out- and in-degree totals of group 1 and of
    group 0, for one (N,) labeling or a (K, N) stack of them.  The sums are
    exact integers, returned as float64."""
    ko1 = (lab @ g.k_out).astype(np.float64)
    ki1 = (lab @ g.k_in).astype(np.float64)
    return ko1, ki1, float(g.k_out.sum()) - ko1, float(g.k_in.sum()) - ki1


def _q_values(signed, r1, r2, ko1, ki1, ko0, ki0, total, directed):
    """Q (or Q_d when ``signed``) from within counts and block degree sums;
    works on scalars or arrays."""
    r1 = np.asarray(r1, dtype=np.float64)
    r2 = np.asarray(r2, dtype=np.float64)
    if directed:
        t1 = r1 - ko1 * ki1 / total
        t2 = r2 - ko0 * ki0 / total
    else:
        t1 = 2.0 * r1 - ko1 * ki1 / (2.0 * total)
        t2 = 2.0 * r2 - ko0 * ki0 / (2.0 * total)
    return t1 - t2 if signed else t1 + t2


def modularity_q(g: Graph, x):
    """Unnormalized modularity: sum over ordered same-community node pairs of
    A_ij - (degree product)/(edge total).

    Undirected: sum_ij (A_ij - k_i k_j / (2 m)) over pairs in the same
    community (m the undirected edge count).  Directed: A_ij - k_i^out
    k_j^in / |G|.  The diagonal is included in the degree-product term, which
    makes the all-in-one-community value exactly 0.
    """
    if g.n_edges == 0:
        raise ValueError("modularity is undefined on an empty graph")
    lab = as_labels(x, g.n_nodes)
    r1, _, _, r2 = _block_counts(g, lab)
    ko1, ki1, ko0, ki0 = _degree_group_sums(g, lab)
    # Not routed through _q_values: its t1 + t2 sums in another order, which
    # changes the last bit of Q (and the ``bicomm moments`` JSON) on about a
    # third of random labelings.
    if g.directed:
        tot = float(g.n_edges)
        return float((r1 + r2) - (ko1 * ki1 + ko0 * ki0) / tot)
    tot = 2.0 * g.n_edges
    return float(2.0 * (r1 + r2) - (ko1 * ki1 + ko0 * ki0) / tot)


def q_d(g: Graph, x):
    """Signed variant of Q: community-1 terms count +1, community-0 terms
    count -1, cross pairs 0.  Antisymmetric under label complement."""
    if g.n_edges == 0:
        raise ValueError("q_d is undefined on an empty graph")
    lab = as_labels(x, g.n_nodes)
    r1, _, _, r2 = _block_counts(g, lab)
    return float(_q_values(True, r1, r2, *_degree_group_sums(g, lab),
                           float(g.n_edges), g.directed))


def flip_delta(g: Graph, x, i: int):
    """Change (dR1, dR2) in the within counts if node i's label flips.

    Costs O(deg i): only edges incident to i can change sides.  Directed
    incidences i->j and j->i both count.
    """
    lab = as_labels(x, g.n_nodes)
    i = int(i)
    if not 0 <= i < g.n_nodes:
        raise ValueError("node index out of range")
    inc = g.incident_nodes(i)
    c1 = int(np.count_nonzero(lab[inc] == 1))
    c0 = inc.size - c1
    if lab[i] == 1:
        return -c1, c0
    return c1, -c0


def moment_arrays(c: GraphConstants):
    """Vectorized permutation-null moments for every group size.

    Returns arrays indexed by m_x in 0..N: (mu_w, sigma_w, mu_d, sigma_d,
    degenerate_w, degenerate_d); entries outside 2 <= m_x <= N-2 are NaN.
    Used by the search loops to price candidate flips in bulk.
    """
    n = c.n_nodes
    m = np.arange(n + 1, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        mu_w, var_w, mu_d, var_d = _moments(c, m, n - m)
    deg_w = _degenerate(c, var_w)
    deg_d = _degenerate(c, var_d)
    var_w = np.where(deg_w, 0.0, var_w)
    var_d = np.where(deg_d, 0.0, var_d)
    invalid = (m < 2) | (m > n - 2)
    for arr in (mu_w, var_w, mu_d, var_d):
        arr[invalid] = np.nan
    deg_w[invalid] = True
    deg_d[invalid] = True
    return mu_w, np.sqrt(var_w), mu_d, np.sqrt(var_d), deg_w, deg_d
